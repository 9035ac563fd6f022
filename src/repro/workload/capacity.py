"""The capacity workload: sustained check-in throughput vs commit style.

E25's engine.  One corpus (users + venues, up to the paper's full
1.89 M / 5.6 M), one deterministic commit schedule, two commit styles
against the same :class:`DataStore`, driven by the same 8-thread writer
pool:

* ``single``          — one ``add_checkin_committed`` call per check-in
  (the baseline).
* ``single-batch``    — ``add_checkins_committed`` batches: one lock
  acquisition and one contiguous seq block per batch (group commit).

The win comes from amortisation, not parallelism: the single path pays
a contended lock acquisition, two ``perf_counter`` reads, and a
histogram observation *per check-in*; the batched path pays each once
per batch.  Every mode runs instrumented (a live
:class:`MetricsRegistry`), because that is the deployed configuration
the bench claims to speed up.

Latency accounting: per *commit call* durations (p50/p99), plus the
per-check-in quotient for batched modes.  Determinism: user, venue,
timestamp, and check-in id all derive from the config seed; only thread
interleaving varies, and the conformance harness owns proving that
interleaving cannot change semantics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckIn, CheckInStatus, User, Venue, VenueCategory
from repro.lbsn.store import DataStore
from repro.obs.metrics import MetricsRegistry

#: The paper's measured corpus (§3: 1.89 M users, 5.6 M venues).
FULL_SCALE_USERS = 1_890_000
FULL_SCALE_VENUES = 5_600_000

#: All run_capacity modes, in reporting order.
MODES = ("single", "single-batch")

#: Venue grid footprint: one synthetic "city block" per 0.002°, wrapped
#: every 2,000 venues — keeps the spatial index realistically dense.
_GRID_WRAP = 2_000


@dataclass
class CapacityConfig:
    """Shape of one capacity run."""

    users: int = 18_900
    venues: int = 56_000
    writers: int = 8
    checkins_per_writer: int = 4_000
    batch_size: int = 256
    seed: int = 20_100_801


@dataclass
class CapacityResult:
    """Throughput + latency for one (mode, config) pair."""

    mode: str
    writers: int
    batch_size: int
    total_checkins: int
    wall_seconds: float
    checkins_per_s: float
    p50_call_s: float
    p99_call_s: float
    max_call_s: float
    per_checkin_p99_s: float
    watermark: int
    populate_seconds: float = 0.0


def _venue_location(index: int) -> GeoPoint:
    return GeoPoint(
        35.0 + 0.002 * (index % _GRID_WRAP),
        -106.0 + 0.002 * (index // _GRID_WRAP),
    )


def build_corpus(config: CapacityConfig):
    """The shared User/Venue rows (built once, loaded into every store)."""
    users = [
        User(user_id=index + 1, display_name=f"cap-u{index + 1}")
        for index in range(config.users)
    ]
    venues = [
        Venue(
            venue_id=index + 1,
            name=f"cap-v{index + 1}",
            location=_venue_location(index),
            category=VenueCategory.OTHER,
        )
        for index in range(config.venues)
    ]
    return users, venues


def build_store(users, venues):
    """A fresh, instrumented, fully-populated store."""
    store = DataStore(metrics=MetricsRegistry())
    started = time.perf_counter()
    for user in users:
        store.add_user(user)
    for venue in venues:
        store.add_venue(venue)
    return store, time.perf_counter() - started


def build_schedules(config: CapacityConfig) -> List[List[CheckIn]]:
    """Per-writer check-in lists: disjoint ids, shared venue pool.

    Users round-robin through a per-writer slice; venues stride by a
    writer-specific odd step so writers collide on shared venues.
    """
    schedules: List[List[CheckIn]] = []
    users_per_writer = max(1, config.users // max(1, config.writers))
    for writer in range(config.writers):
        rows: List[CheckIn] = []
        base_id = writer * (config.checkins_per_writer + 1) + 1
        user_base = (writer * users_per_writer) % config.users
        stride = 2 * writer + 7
        for index in range(config.checkins_per_writer):
            user_id = (user_base + index) % config.users + 1
            venue_index = (writer + index * stride) % config.venues
            rows.append(
                CheckIn(
                    checkin_id=base_id + index,
                    user_id=user_id,
                    venue_id=venue_index + 1,
                    timestamp=3_600.0 * writer + 60.0 * index,
                    reported_location=_venue_location(venue_index),
                    status=CheckInStatus.VALID,
                )
            )
        schedules.append(rows)
    return schedules


def _chunk(rows: Sequence[CheckIn], size: int) -> List[List[CheckIn]]:
    return [
        list(rows[start:start + size])
        for start in range(0, len(rows), size)
    ]


@dataclass
class _WriterStats:
    durations: List[float] = field(default_factory=list)


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def run_capacity(
    config: CapacityConfig,
    mode: str,
    corpus=None,
    store=None,
    populate_seconds: float = 0.0,
) -> CapacityResult:
    """Run one mode; returns its :class:`CapacityResult`.

    Pass ``corpus`` (from :func:`build_corpus`) to amortise row building
    across modes, or a pre-built ``store`` to skip population entirely.
    """
    if mode not in MODES:
        raise ValueError(f"unknown capacity mode: {mode!r}")
    if store is None:
        users, venues = corpus if corpus is not None else build_corpus(
            config
        )
        store, populate_seconds = build_store(users, venues)
    schedules = build_schedules(config)
    batched = mode.endswith("batch")
    work: List[List[List[CheckIn]]] = [
        _chunk(rows, config.batch_size) if batched else [
            [row] for row in rows
        ]
        for rows in schedules
    ]
    stats = [_WriterStats() for _ in range(config.writers)]
    errors: List[BaseException] = []
    barrier = threading.Barrier(config.writers + 1)

    def writer(index: int) -> None:
        try:
            commit_one = store.add_checkin_committed
            commit_many = store.add_checkins_committed
            durations = stats[index].durations
            barrier.wait(timeout=60)
            for unit in work[index]:
                begin = time.perf_counter()
                if batched:
                    commit_many(unit)
                else:
                    commit_one(unit[0])
                durations.append(time.perf_counter() - begin)
        except BaseException as exc:  # re-raised by the driver
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(index,), daemon=True)
        for index in range(config.writers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]

    total = sum(len(rows) for rows in schedules)
    durations = sorted(
        duration for stat in stats for duration in stat.durations
    )
    p99_call = _percentile(durations, 0.99)
    return CapacityResult(
        mode=mode,
        writers=config.writers,
        batch_size=config.batch_size if batched else 1,
        total_checkins=total,
        wall_seconds=wall,
        checkins_per_s=total / wall if wall > 0 else 0.0,
        p50_call_s=_percentile(durations, 0.50),
        p99_call_s=p99_call,
        max_call_s=durations[-1] if durations else 0.0,
        per_checkin_p99_s=(
            p99_call / config.batch_size if batched else p99_call
        ),
        watermark=store.event_seq_watermark(),
        populate_seconds=populate_seconds,
    )


def run_capacity_suite(
    config: CapacityConfig,
    modes: Sequence[str] = MODES,
    corpus=None,
) -> Dict[str, CapacityResult]:
    """Run several modes over one shared corpus; stores are freed between
    modes so full-scale runs never hold two table sets at once."""
    if corpus is None:
        corpus = build_corpus(config)
    results: Dict[str, CapacityResult] = {}
    for mode in modes:
        results[mode] = run_capacity(config, mode, corpus=corpus)
    return results


def speedup(
    results: Dict[str, CapacityResult],
    baseline: str = "single",
    candidate: str = "single-batch",
) -> float:
    """Throughput ratio candidate / baseline."""
    base = results[baseline].checkins_per_s
    return results[candidate].checkins_per_s / base if base > 0 else 0.0
