"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload world_replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every metric of every workload

``--trace 0`` runs untraced rounds and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check prints
the reason on standard error and exits with status 1, without a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Where runs leave their scratch files (WAL segments, span dumps).
SCRATCH = ROOT / ".perfbench"
DEFAULT_SEED = 1
#: Rounds every run makes at least, so set-up is timed several times.
#: Beyond that a run makes as many rounds as ``--seconds`` holds at the
#: workload's ``round_seconds`` (its timed op time per round on the
#: machine the baseline was recorded on), so a run's inputs depend only
#: on the seed and ``--seconds``, never on the machine's speed.
MIN_ROUNDS = 3

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_us": "us",
    "op_p90_us": "us",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "service.calls": "count",
    "service.self_s": "s",
    "service.valid_share": "ratio",
    "service.flagged_share": "ratio",
    "service.rejected_share": "ratio",
    "mayorship.calls": "count",
    "mayorship.self_s": "s",
    "mayorship.history_len_mean": "count",
    "mayorship.change_ratio": "ratio",
    "badges.calls": "count",
    "badges.self_s": "s",
    "badges.award_ratio": "ratio",
    "cheater_code.calls": "count",
    "cheater_code.self_s": "s",
    "cheater_code.history_len_mean": "count",
    "cheater_code.deny_ratio": "ratio",
    "store.commits": "count",
    "store.commit_self_s": "s",
    "bus.publishes": "count",
    "bus.publish_self_s": "s",
    "ledger.events": "count",
    "ledger.self_s": "s",
    "ledger.suspects": "count",
    "wal.appends": "count",
    "wal.self_s": "s",
    "wal.bytes_per_event": "B",
    "wal.fsyncs": "count",
    "defense.calls": "count",
    "defense.self_s": "s",
    "defense.verify_self_s": "s",
    "defense.refused_ratio": "ratio",
    "honeypot.pins": "count",
    "honeypot.self_s": "s",
    "log.records": "count",
    "log.self_s": "s",
    "web.renders": "count",
    "web.render_self_s": "s",
    "http.requests": "count",
    "http.self_s": "s",
    "crawler.fetch_self_s": "s",
    "crawler.parse_self_s": "s",
    "crawler.upsert_self_s": "s",
    "crawler.hit_ratio": "ratio",
    "workload.ops": "count",
    "workload.error_ratio": "ratio",
    "workload.op_p99_us": "us",
    "trace.overhead_ratio": "ratio",
}

#: Layer values that are end-of-round state, not per-round counts.
GAUGES = ("ledger.suspects", "honeypot.pins")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(sorted_values, share: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    index = min(len(sorted_values) - 1, max(0, int(share * len(sorted_values))))
    return sorted_values[index]


class Run:
    """The rounds of one workload at one seed.

    Round ``i`` builds its inputs from the sub-seed ``seed * 1000 + i``, so
    a run's rounds cover several independent inputs and the run's medians
    do not hang on one input's heavy tail.
    """

    def __init__(self, name: str, seed: int, expected: dict) -> None:
        import workloads

        self.name = name
        self.seed = seed
        self.expected = (
            expected.get(name, {}).get("rounds", [])
            if seed == DEFAULT_SEED else []
        )
        self.workload = workloads.make(name, SCRATCH)
        #: Per round index: the recorded values of its first run.
        self.recorded = []

    def round(self, index: int, recorder=None):
        """Set up, run and check round ``index``; returns its RoundResult.

        A round run twice (untraced, then traced) must give the same
        digests both times.
        """
        from tracing import Wrapping
        from workloads import CheckFailed, RoundResult

        wrapping = Wrapping(recorder) if recorder is not None else None
        gc.collect()
        started = time.perf_counter()
        try:
            state = self.workload.setup(self.seed * 1000 + index, wrapping)
            setup_s = time.perf_counter() - started
            latencies, results, failed, wall = self.workload.run(state, recorder)
        finally:
            if wrapping is not None:
                wrapping.restore()
        try:
            input_digest, output, recorded, layer = self.workload.finish(
                state, results
            )
        finally:
            self.workload.cleanup(state)
        recorded = dict(recorded, input_digest=input_digest)
        if index < len(self.recorded):
            if recorded != self.recorded[index]:
                raise CheckFailed(
                    f"{self.name}: round {index} of seed {self.seed} gave "
                    "different inputs or outputs when run again"
                )
        else:
            self.recorded.append(recorded)
        if index < len(self.expected):
            for key, want in self.expected[index].items():
                if recorded.get(key) != want:
                    raise CheckFailed(
                        f"{self.name}: round {index}: {key} differs from the "
                        f"value recorded for seed {DEFAULT_SEED}: got "
                        f"{recorded.get(key)!r}"
                    )
        return RoundResult(
            setup_s=setup_s,
            latencies=latencies,
            wall_s=wall,
            failed=failed,
            input_digest=input_digest,
            output_digest=output,
            recorded=recorded,
            layer=layer,
        )


def _e2e(rounds) -> dict:
    """End-to-end metrics, each the median over the run's rounds.

    Rounds replay independent inputs and last a few seconds each, so the
    median is robust both to one input's heavy tail and to a round slowed
    by another tenant of the machine.
    """
    rates, p50s, p90s = [], [], []
    for r in rounds:
        latencies = sorted(r.latencies)
        rates.append(len(latencies) / r.wall_s)
        p50s.append(_quantile(latencies, 0.50))
        p90s.append(_quantile(latencies, 0.90))
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ops_per_s": statistics.median(rates),
        "op_p50_us": statistics.median(p50s) * 1e6,
        "op_p90_us": statistics.median(p90s) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _per_layer(recorder, traced, untraced) -> dict:
    from tracing import self_times

    spans = self_times(recorder)
    counts = recorder.counts
    layer = {}
    for r in traced:
        for key, value in r.layer.items():
            layer[key] = layer.get(key, 0) + value
    for key in GAUGES:
        if key in layer:
            layer[key] /= len(traced)

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    ops = sum(len(r.latencies) for r in traced)
    failed = sum(r.failed for r in traced)
    traced_rate = _ratio(ops, sum(r.wall_s for r in traced))
    untraced_rate = _ratio(
        sum(len(r.latencies) for r in untraced),
        sum(r.wall_s for r in untraced),
    )
    services = calls("service")
    return {
        "service.calls": services,
        "service.self_s": self_s("service"),
        "service.valid_share": _ratio(counts.get("service.valid", 0), services),
        "service.flagged_share": _ratio(
            counts.get("service.flagged", 0), services
        ),
        "service.rejected_share": _ratio(
            counts.get("service.rejected", 0), services
        ),
        "mayorship.calls": calls("mayorship"),
        "mayorship.self_s": self_s("mayorship"),
        "mayorship.history_len_mean": _ratio(
            counts.get("mayorship.history_len", 0), calls("mayorship")
        ),
        "mayorship.change_ratio": _ratio(
            counts.get("mayorship.changes", 0), calls("mayorship")
        ),
        "badges.calls": calls("badges"),
        "badges.self_s": self_s("badges"),
        "badges.award_ratio": _ratio(
            counts.get("badges.awards", 0), calls("badges")
        ),
        "cheater_code.calls": calls("cheater_code"),
        "cheater_code.self_s": self_s("cheater_code"),
        "cheater_code.history_len_mean": _ratio(
            counts.get("cheater_code.history_len", 0), calls("cheater_code")
        ),
        "cheater_code.deny_ratio": _ratio(
            counts.get("cheater_code.denials", 0), calls("cheater_code")
        ),
        "store.commits": calls("store"),
        "store.commit_self_s": self_s("store"),
        "bus.publishes": calls("bus"),
        "bus.publish_self_s": self_s("bus"),
        "ledger.events": calls("ledger"),
        "ledger.self_s": self_s("ledger"),
        "ledger.suspects": layer.get("ledger.suspects", 0),
        "wal.appends": calls("wal"),
        "wal.self_s": self_s("wal"),
        "wal.bytes_per_event": _ratio(
            layer.get("wal.bytes", 0), layer.get("wal.appends", 0)
        ),
        "wal.fsyncs": layer.get("wal.fsyncs", 0),
        "defense.calls": calls("defense"),
        "defense.self_s": self_s("defense"),
        "defense.verify_self_s": self_s("defense.verify"),
        "defense.refused_ratio": _ratio(
            layer.get("defense.refused", 0), calls("defense")
        ),
        "honeypot.pins": layer.get("honeypot.pins", 0),
        "honeypot.self_s": self_s("honeypot"),
        "log.records": layer.get("log.records", 0),
        "log.self_s": self_s("log"),
        "web.renders": calls("web"),
        "web.render_self_s": self_s("web"),
        "http.requests": calls("http"),
        "http.self_s": self_s("http"),
        "crawler.fetch_self_s": self_s("crawler.fetch"),
        "crawler.parse_self_s": self_s("crawler.parse"),
        "crawler.upsert_self_s": self_s("crawler.upsert"),
        "crawler.hit_ratio": _ratio(
            layer.get("crawler.hits", 0), layer.get("crawler.pages", 0)
        ),
        "workload.ops": ops,
        "workload.error_ratio": _ratio(failed, ops + failed),
        "workload.op_p99_us": _quantile(
            sorted(x for r in untraced for x in r.latencies), 0.99
        ) * 1e6,
        "trace.overhead_ratio": _ratio(untraced_rate, traced_rate) - 1.0,
    }


def layer_table(recorder, traced) -> str:
    """Self time and share of op time per span name, largest first."""
    from tracing import self_times

    spans = self_times(recorder)
    op_time = sum(sum(r.latencies) for r in traced)
    lines = [f"{'span':<16}{'calls':>10}{'self_s':>11}{'share':>8}"]
    for name, (calls, seconds) in sorted(
        spans.items(), key=lambda item: -item[1][1]
    ):
        lines.append(
            f"{name:<16}{calls:>10}{seconds:>11.4f}"
            f"{100.0 * _ratio(seconds, op_time):>7.1f}%"
        )
    covered = sum(seconds for _, seconds in spans.values())
    lines.append(
        f"{'(outside spans)':<16}{'':>10}{op_time - covered:>11.4f}"
        f"{100.0 * _ratio(op_time - covered, op_time):>7.1f}%"
    )
    return "\n".join(lines)


def measure(name: str, seed: int, seconds: float, trace: bool, expected: dict):
    """Run rounds of one workload; returns (metrics, attempted, failed, run)."""
    from tracing import SpanRecorder

    run = Run(name, seed, expected)
    untraced, traced = [], []
    recorder = SpanRecorder() if trace else None
    rounds = max(MIN_ROUNDS, math.ceil(seconds / run.workload.round_seconds))
    if trace:
        # Each traced round repeats an untraced one on the same inputs.
        for index in range(max(2, math.ceil(rounds / 2))):
            untraced.append(run.round(index))
            traced.append(run.round(index, recorder))
    else:
        for index in range(rounds):
            untraced.append(run.round(index))
    measured = traced if trace else untraced
    failed = sum(r.failed for r in measured)
    attempted = sum(len(r.latencies) for r in measured) + failed
    if trace:
        metrics = _per_layer(recorder, traced, untraced)
        units = LAYER_UNITS
        recorder.write(SCRATCH / "traces" / f"{name}-seed{seed}.tsv.gz")
        print(f"[{name}] traced self time:\n" + layer_table(recorder, traced),
              file=sys.stderr)
    else:
        metrics = _e2e(untraced)
        units = E2E_UNITS
    shaped = {key: {"value": metrics[key], "unit": units[key]} for key in units}
    return shaped, attempted, failed, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expected", type=Path, default=BENCH_DIR / "expected.json",
        help="recorded outputs for the default seed",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="write this run's default-seed outputs to --expected",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, CheckFailed

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}, all")
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs the default seed {DEFAULT_SEED}")
    SCRATCH.mkdir(exist_ok=True)
    expected = (
        json.loads(args.expected.read_text()) if args.expected.exists() else {}
    )
    if args.record:
        # Record afresh: no round is checked against what it replaces.
        expected = {k: v for k, v in expected.items() if k not in names}

    results = {}
    attempted = failed = 0
    try:
        for name in names:
            metrics, tried, errors, run = measure(
                name, args.seed, args.seconds, bool(args.trace), expected
            )
            results[name] = metrics
            attempted += tried
            failed += errors
            if args.record:
                expected[name] = {"rounds": run.recorded}
            print(f"[{name}] seed {args.seed}: " + ", ".join(
                f"{key} {m['value']:.6g} {m['unit']}"
                for key, m in metrics.items()
            ) + f" (n={tried} ops)", file=sys.stderr)
    except CheckFailed as error:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
        return 1
    if args.record:
        args.expected.write_text(json.dumps(expected, indent=2) + "\n")
    if len(names) == 1:
        flat = results[names[0]]
    else:
        flat = {}
        for name, metrics in results.items():
            print(f"{name}:")
            for key, metric in metrics.items():
                print(f"  {key:<28} {metric['value']:>14.6g} {metric['unit']}")
                flat[f"{name}.{key}"] = metric
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": flat,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
