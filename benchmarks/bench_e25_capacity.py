"""E25 (extension) — store capacity: group commit vs per-check-in commits.

The paper crawled 1.89 M users and 5.6 M venues through Foursquare's
production write path; repro's :class:`DataStore` serialises every
committed check-in behind one RLock and one histogram observation.  E25
measures what **group commit** (``add_checkins_committed``) buys at 8
concurrent writers: one lock acquisition and one contiguous seq block
per batch instead of per check-in.

Acceptance bars (asserted):

1. **Throughput**: sustained check-ins/s in ``single-batch`` mode is
   ``>= REPRO_E25_MIN_SPEEDUP`` (default 3.0) times the per-check-in
   ``single`` baseline, same store, same corpus, same 8-writer schedule.
2. **Seq contract**: every mode ends with ``watermark == total
   check-ins`` — dense allocation, no burned slots, batched or not.

Reported (not asserted): p50/p99 per-commit-call latency for every
mode, the per-check-in p99 quotient for batched modes, and a
full-corpus phase — the store populated to the paper's 1.89 M users /
5.6 M venues — reporting populate time and p99 commit latency at scale.

Each mode runs ``REPRO_E25_ROUNDS`` times (default 3) and reports the
best round: on a shared single-core CI machine scheduler noise is
±20 %, and best-of-N is the standard way to ask "what does this code
do when the machine lets it".

Environment knobs (CI smoke mode shrinks all of these):

* ``REPRO_E25_USERS`` / ``REPRO_E25_VENUES`` — comparison corpus
  (default 18,900 / 56,000 — 1 % of the paper's).
* ``REPRO_E25_WRITERS`` — writer threads (default 8).
* ``REPRO_E25_CHECKINS_PER_WRITER`` — schedule length (default 6,000).
* ``REPRO_E25_BATCH`` — group-commit batch size (default 256, the
  measured sweet spot).
* ``REPRO_E25_ROUNDS`` — rounds per mode (default 3).
* ``REPRO_E25_MIN_SPEEDUP`` — bar 1's ratio (default 3.0).
* ``REPRO_E25_FULL_USERS`` / ``REPRO_E25_FULL_VENUES`` /
  ``REPRO_E25_FULL_CHECKINS_PER_WRITER`` — the full-scale phase
  (defaults 1,890,000 / 5,600,000 / 4,000; the default corpus holds
  roughly 9 GB resident); set the first to 0 to skip the phase
  entirely.
"""

import dataclasses
import os

from repro.workload.capacity import (
    FULL_SCALE_USERS,
    FULL_SCALE_VENUES,
    MODES,
    CapacityConfig,
    build_corpus,
    build_store,
    run_capacity,
    speedup,
)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, str(default)))


USERS = _env_int("REPRO_E25_USERS", 18_900)
VENUES = _env_int("REPRO_E25_VENUES", 56_000)
WRITERS = _env_int("REPRO_E25_WRITERS", 8)
CHECKINS = _env_int("REPRO_E25_CHECKINS_PER_WRITER", 6_000)
BATCH = _env_int("REPRO_E25_BATCH", 256)
ROUNDS = _env_int("REPRO_E25_ROUNDS", 3)
MIN_SPEEDUP = float(os.environ.get("REPRO_E25_MIN_SPEEDUP", "3.0"))
FULL_USERS = _env_int("REPRO_E25_FULL_USERS", FULL_SCALE_USERS)
FULL_VENUES = _env_int("REPRO_E25_FULL_VENUES", FULL_SCALE_VENUES)
FULL_CHECKINS = _env_int("REPRO_E25_FULL_CHECKINS_PER_WRITER", 4_000)


def _fmt(result) -> str:
    return (
        f"{result.mode:<13s} "
        f"{result.checkins_per_s:>9,.0f} ci/s  "
        f"p50 {result.p50_call_s * 1e6:>7.1f} us  "
        f"p99 {result.p99_call_s * 1e6:>8.1f} us  "
        f"p99/ci {result.per_checkin_p99_s * 1e6:>7.1f} us"
    )


def test_e25_capacity(report_out, benchmark):
    config = CapacityConfig(
        users=USERS,
        venues=VENUES,
        writers=WRITERS,
        checkins_per_writer=CHECKINS,
        batch_size=BATCH,
    )
    corpus = build_corpus(config)
    rows = [
        "E25 — store capacity: group commit vs per-check-in commits",
        (
            f"corpus {config.users:,} users / {config.venues:,} venues; "
            f"{config.writers} writers x {config.checkins_per_writer:,} "
            f"check-ins; batch={config.batch_size}; "
            f"best of {ROUNDS} rounds"
        ),
        "",
    ]

    # Phase 1: the two-mode comparison, best-of-ROUNDS each -----------
    best = {}
    for mode in MODES:
        for round_index in range(ROUNDS):
            if mode == "single-batch" and round_index == 0:
                # One round under pytest-benchmark for its timing table.
                result = benchmark.pedantic(
                    lambda: run_capacity(config, mode, corpus=corpus),
                    rounds=1,
                    iterations=1,
                )
            else:
                result = run_capacity(config, mode, corpus=corpus)
            # Bar 2: dense seq allocation survives batching.
            assert result.watermark == result.total_checkins, (
                f"{mode}: watermark {result.watermark} != "
                f"{result.total_checkins} committed check-ins"
            )
            kept = best.get(mode)
            if kept is None or result.checkins_per_s > kept.checkins_per_s:
                best[mode] = result
    for mode in MODES:
        rows.append(_fmt(best[mode]))

    # Bar 1: the headline ratio.
    ratio = speedup(best)
    rows.append("")
    rows.append(
        f"speedup (single-batch / single): {ratio:.2f}x "
        f"(bar: >= {MIN_SPEEDUP:.1f}x)"
    )
    assert ratio >= MIN_SPEEDUP, (
        f"single-batch is {ratio:.2f}x the per-check-in baseline "
        f"({best['single-batch'].checkins_per_s:,.0f} vs "
        f"{best['single'].checkins_per_s:,.0f} ci/s); bar is "
        f"{MIN_SPEEDUP:.1f}x"
    )

    # Phase 2: p99 commit latency at the paper's corpus scale ---------
    summary = {
        "users": config.users,
        "venues": config.venues,
        "writers": config.writers,
        "batch_size": config.batch_size,
        "rounds": ROUNDS,
        "speedup": round(ratio, 2),
        "min_speedup_bar": MIN_SPEEDUP,
        "single_checkins_per_s": round(best["single"].checkins_per_s),
        "single_batch_checkins_per_s": round(
            best["single-batch"].checkins_per_s
        ),
        "single_batch_p99_call_us": round(
            best["single-batch"].p99_call_s * 1e6, 1
        ),
    }
    if FULL_USERS > 0:
        full_config = dataclasses.replace(
            config,
            users=FULL_USERS,
            venues=FULL_VENUES,
            checkins_per_writer=FULL_CHECKINS,
        )
        users, venues = build_corpus(full_config)
        store, populate_seconds = build_store(users, venues)
        del users, venues
        full = run_capacity(
            full_config,
            "single-batch",
            store=store,
            populate_seconds=populate_seconds,
        )
        assert full.watermark == full.total_checkins
        rows.append("")
        rows.append(
            f"full-scale phase: {full_config.users:,} users / "
            f"{full_config.venues:,} venues "
            f"(populate {full.populate_seconds:.1f}s)"
        )
        rows.append(_fmt(full))
        rows.append(
            f"p99 commit latency at this corpus: "
            f"{full.p99_call_s * 1e3:.2f} ms per {full.batch_size}-batch "
            f"call ({full.per_checkin_p99_s * 1e6:.1f} us per check-in), "
            f"{full.checkins_per_s:,.0f} ci/s sustained"
        )
        summary.update(
            {
                "full_users": full_config.users,
                "full_venues": full_config.venues,
                "full_populate_seconds": round(full.populate_seconds, 1),
                "full_single_batch_checkins_per_s": round(
                    full.checkins_per_s
                ),
                "full_p99_call_ms": round(full.p99_call_s * 1e3, 3),
                "full_p99_per_checkin_us": round(
                    full.per_checkin_p99_s * 1e6, 1
                ),
            }
        )

    report_out("E25_capacity", rows, summary=summary)
