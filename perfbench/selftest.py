"""Self-tests of the benchmark itself.  Run from the repository root::

    python3 perfbench/selftest.py

1. Determinism: the same seed twice gives identical input and output
   digests; another seed gives different inputs whose seed-independent
   checks still pass.
2. Untraced runs are unwrapped: after a traced round has installed and
   removed its wrappers, an untraced round's wrapped functions and bus
   subscribers are identical (``is``) to the originals.
3. A corrupted recorded digest makes ``run.py`` exit non-zero without
   printing a result, and so does a directory holding only the benchmark.

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import repro.crawler.crawler as crawler_module  # noqa: E402
import repro.crawler.parser as parser_module  # noqa: E402
import repro.lbsn.mayorship as mayorship_module  # noqa: E402
import repro.lbsn.service as service_module  # noqa: E402
from repro.crawler.fetcher import PageFetcher  # noqa: E402
from repro.obs.log import StructuredLogger  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanRecorder  # noqa: E402

#: Class and module attributes the traced run replaces, captured before
#: any round runs.
PRISTINE = [
    (service_module, "decide_mayor", mayorship_module.decide_mayor),
    (crawler_module, "parse_user_page", parser_module.parse_user_page),
    (crawler_module, "parse_venue_page", parser_module.parse_venue_page),
    (PageFetcher, "fetch", vars(PageFetcher)["fetch"]),
] + [
    (StructuredLogger, method, vars(StructuredLogger)[method])
    for method in ("debug", "info", "warning", "error")
]

FAILURES = []


def check(condition: bool, message: str) -> None:
    print(("PASS " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def one_round(name: str, seed: int, recorder=None):
    """A fresh run's first round: (input digest, output digest)."""
    result = run.Run(name, seed, json.loads(
        (BENCH_DIR / "expected.json").read_text()
    )).round(0, recorder)
    return result.input_digest, result.output_digest


def test_determinism(name: str) -> None:
    first = one_round(name, run.DEFAULT_SEED)
    again = one_round(name, run.DEFAULT_SEED)
    check(first == again, f"{name}: seed {run.DEFAULT_SEED} twice gives "
          "identical input and output digests")
    try:
        other = one_round(name, run.DEFAULT_SEED + 1)
    except workloads.CheckFailed as error:
        print(f"  {error}")
        other = first
    check(other[0] != first[0], f"{name}: seed {run.DEFAULT_SEED + 1} gives "
          "different inputs that pass the seed-independent checks")


def _unwrapped_objects(state) -> list:
    """The program objects a traced round wraps methods of."""
    if isinstance(state, tuple):  # world_replay: (service, ops)
        service = state[0]
        return [service, service.store, service.badges, service.cheater_code]
    if isinstance(state, workloads._Storm):
        service = state.service
        return [
            service, service.store, service.badges, service.cheater_code,
            state.defended, state.defended.verifier, state.bus, state.wal,
            state.ledger, state.honeypots,
        ]
    return [state.webserver, state.transport, state.database]


def test_untraced_identity(name: str) -> None:
    # A traced round first, so leaked class or module wrappers would show.
    one_round(name, run.DEFAULT_SEED, SpanRecorder())
    workload = workloads.make(name, run.SCRATCH)
    state = workload.setup(run.DEFAULT_SEED, None)
    workload.run(state, None)
    same = all(vars(owner)[attr] is original
               for owner, attr, original in PRISTINE)
    for obj in _unwrapped_objects(state):
        same = same and not any(
            hasattr(value, "__wrapped__") for value in vars(obj).values()
        )
    bus = getattr(state, "bus", None)
    if bus is not None:
        for sub_name in bus.subscriber_names():
            callback = bus._by_name[sub_name].callback
            method = callback.__func__
            same = same and vars(type(callback.__self__)).get(
                method.__name__
            ) is method
    workload.cleanup(state)
    check(same, f"{name}: an untraced round runs every wrapped function and "
          "subscriber as the original object")


def _run_cli(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_corrupted_digest() -> None:
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    first = expected["world_replay"]["rounds"][0]
    digest = first["output_digest"]
    first["output_digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupted = run.SCRATCH / "corrupted-expected.json"
    corrupted.write_text(json.dumps(expected))
    result = _run_cli(
        ROOT, "--workload", "world_replay", "--seed", str(run.DEFAULT_SEED),
        "--seconds", "1", "--trace", "0", "--expected", str(corrupted),
    )
    corrupted.unlink()
    check(
        result.returncode != 0 and '"correct"' not in result.stdout
        and "CHECK FAILED" in result.stderr,
        "a corrupted recorded digest fails the run with a non-zero exit "
        f"(exit {result.returncode})",
    )


def test_bare_directory() -> None:
    bare = run.SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    result = _run_cli(
        bare, "--workload", "crawl", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    shutil.rmtree(bare)
    check(
        result.returncode != 0 and not result.stdout.strip(),
        "a directory holding only the benchmark exits non-zero with no "
        f"result (exit {result.returncode})",
    )


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        test_determinism(name)
        test_untraced_identity(name)
    test_corrupted_digest()
    test_bare_directory()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
