"""The durability workload: crash a partitioned detector worker, replay it.

The three entry points layer on one storm driver:

* :func:`run_durable_storm` — the parity exercise behind the E23 bench,
  the recovery tests, and the CI smoke job.  One world, one bus, *two*
  partitioned pipelines side by side: a fault-free **control** and a
  **victim** whose injector kills one worker mid-storm
  (:data:`~repro.faults.points.POINT_DURABLE_WORKER`, seeded, one fire).
  After the storm the victim is recovered (snapshot + WAL replay) and
  the report carries three digests per run — control, recovered victim,
  and a cold replay of the victim's on-disk tree — which must be equal.
* :func:`write_durable_tree` — ``repro snapshot``'s engine: a clean
  (fault-free) run that persists the WAL tree, final snapshots, and a
  ``manifest.json`` recording the expected combined digest.
* :func:`replay_durable_tree` — ``repro wal-replay``'s engine: rebuild
  every shard of an existing tree from disk alone and (optionally)
  verify the digests against the manifest.

Why the control is a *pipeline* and not a plain ledger: partitioning by
user key shards the activity detector's venue recent-visitor replica, so
an N-way pipeline's scores are a documented superset of the single-ledger
scores for N > 1 (docs/DURABILITY.md, "Partitioning bias").  Crash/replay
parity is therefore proven at equal N — and a separate test pins
N=1 ≡ plain ledger exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.detection import DetectorConfig
from repro.durable.worker import (
    PartitionedDetectorPipeline,
    RecoveryCoordinator,
    cold_replay_digests,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.points import POINT_DURABLE_WORKER
from repro.obs.context import TraceContext, use_trace
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.simnet.clock import SECONDS_PER_DAY
from repro.stream.bus import EventBus
from repro.workload.scenario import World, build_world

MANIFEST_NAME = "manifest.json"


@dataclass
class DurableConfig:
    """Everything that shapes one durability run.  All time simulated."""

    #: World size (fraction of the thesis corpus) and world seed.
    scale: float = 0.0005
    seed: int = 42
    #: Detector worker count (the N the parity claim quantifies over).
    partitions: int = 4
    #: Check-in storm length and spacing.
    checkins: int = 300
    checkin_gap_s: float = 60.0
    #: Ledger reporting bar (streamed-parity suites use 100).
    detector_min_total_checkins: int = 100

    # Durability knobs.
    snapshot_every: int = 0
    segment_max_bytes: int = 1_048_576
    fsync_every: int = 64

    # Victim kill plan (storm runs only).
    fault_seed: int = 1337
    kill_partition: int = 0
    #: Per-applied-event kill probability; with one allowed fire the
    #: seed picks *which* event mid-storm becomes the crash.
    kill_probability: float = 0.02


@dataclass
class DurableReport:
    """What one durability run observed."""

    config: DurableConfig
    checkins_attempted: int = 0
    checkins_returned: int = 0
    events_published: int = 0
    watermark: int = -1

    # Victim life cycle (storm runs).
    crashed_partitions: List[int] = field(default_factory=list)
    recovered_partitions: List[int] = field(default_factory=list)
    replayed_events: int = 0
    faults_fired: Dict[str, int] = field(default_factory=dict)
    fault_sequence_digest: str = ""

    # Parity witnesses.
    control_digests: List[str] = field(default_factory=list)
    victim_digests: List[str] = field(default_factory=list)
    cold_digests: List[str] = field(default_factory=list)
    control_combined: str = ""
    victim_combined: str = ""
    cold_combined: str = ""

    # WAL accounting (victim side).
    wal_appended: int = 0
    wal_bytes: int = 0
    wal_segments: int = 0
    wal_fsyncs: int = 0
    snapshots_written: int = 0
    wall_seconds: float = 0.0

    @property
    def parity_ok(self) -> bool:
        """control == recovered victim == cold replay, shard for shard."""
        return (
            bool(self.control_combined)
            and self.control_combined == self.victim_combined
            and self.victim_combined == self.cold_combined
        )


def kill_plan(
    seed: int, partition: int, probability: float = 0.02
) -> FaultPlan:
    """A seeded plan that kills one named worker exactly once.

    ``max_fires=1`` + per-spec seeded RNG means the *seed* decides which
    applied event becomes the crash — deterministically mid-stream, not
    at a hand-picked index.
    """
    return FaultPlan(seed=seed).add(
        FaultSpec(
            point=POINT_DURABLE_WORKER,
            probability=probability,
            max_fires=1,
            only_labels=(f"partition-{partition:02d}",),
        )
    )


def _drive_checkins(
    world: World, config: DurableConfig, report: DurableReport
) -> None:
    """The deterministic check-in storm (chaos phase B, without retries)."""
    service = world.service
    store = service.store
    users = sorted(user.user_id for user in store.iter_users())
    venues = sorted(venue.venue_id for venue in store.iter_venues())
    if not users or not venues:
        return
    # Pinned absolutely so committed timestamps are identical run to run.
    base_ts = world.horizon_s + SECONDS_PER_DAY
    for index in range(config.checkins):
        user_id = users[index % len(users)]
        # Stride venues so the rapid-fire rule never refuses a repeat.
        venue_id = venues[(index * 7) % len(venues)]
        venue = store.require_venue(venue_id)
        timestamp = base_ts + index * config.checkin_gap_s
        report.checkins_attempted += 1
        trace = TraceContext.mint()
        with use_trace(trace):
            service.check_in(
                user_id,
                venue_id,
                venue.location,
                timestamp=timestamp,
                trace=trace,
            )
        report.checkins_returned += 1


def _build_pipeline(
    config: DurableConfig,
    base_dir,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[LogHub] = None,
    faults: Optional[FaultInjector] = None,
    tracer: Optional[Tracer] = None,
) -> PartitionedDetectorPipeline:
    return PartitionedDetectorPipeline(
        config.partitions,
        base_dir,
        config=DetectorConfig(
            min_total_checkins=config.detector_min_total_checkins
        ),
        snapshot_every=config.snapshot_every,
        segment_max_bytes=config.segment_max_bytes,
        fsync_every=config.fsync_every,
        metrics=metrics,
        log=log,
        faults=faults,
        tracer=tracer,
    )


def run_durable_storm(
    config: DurableConfig,
    base_dir,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[LogHub] = None,
    tracer: Optional[Tracer] = None,
) -> DurableReport:
    """Storm, crash, recover, cold-replay; returns the three-way report."""
    report = DurableReport(config=config)
    started = time.perf_counter()
    base = Path(base_dir)

    from repro.lbsn.service import LbsnService

    service = LbsnService(metrics=metrics, log=log)
    injector = FaultInjector(
        kill_plan(
            config.fault_seed,
            config.kill_partition,
            config.kill_probability,
        ),
        clock=service.clock,
        metrics=metrics,
        log=log,
    )
    injector.disarm()  # world generation runs clean

    bus = EventBus(metrics=metrics, log=log)
    service.event_bus = bus
    control = _build_pipeline(
        config, base / "control", metrics=metrics, log=log, tracer=tracer
    ).attach(bus, name="durable-control")
    victim = _build_pipeline(
        config,
        base / "victim",
        metrics=metrics,
        log=log,
        faults=injector,
        tracer=tracer,
    ).attach(bus, name="durable-victim")

    world = build_world(scale=config.scale, seed=config.seed, service=service)
    injector.arm()

    _drive_checkins(world, config, report)

    report.events_published = bus.published
    report.watermark = service.event_watermark()
    report.crashed_partitions = victim.crashed_partitions()
    report.faults_fired = injector.fired_counts()
    report.fault_sequence_digest = injector.sequence_digest()

    # Recover the dead worker(s), then disarm so the replayed events are
    # not re-killed (a real restart would run with the fault gone).
    injector.disarm()
    coordinator = RecoveryCoordinator(victim, log=log)
    report.recovered_partitions = coordinator.recover_crashed()
    report.replayed_events = sum(
        victim.workers[p].replayed_events for p in report.recovered_partitions
    )

    report.control_digests = control.digests()
    report.victim_digests = victim.digests()
    report.control_combined = control.combined_digest()
    report.victim_combined = victim.combined_digest()

    report.wal_appended = sum(w.wal.appended for w in victim.workers)
    report.wal_bytes = sum(w.wal.bytes_written for w in victim.workers)
    report.wal_segments = sum(w.wal.segments_opened for w in victim.workers)
    report.wal_fsyncs = sum(w.wal.fsyncs for w in victim.workers)
    report.snapshots_written = sum(
        w.snapshots.writes for w in victim.workers
    )
    control.close()
    victim.close()
    bus.close()

    # Third witness: a cold process rebuilding the victim tree from disk.
    # Shards that never snapshotted replay into a fresh ledger, so the
    # cold run must carry the same detector config the storm used.
    report.cold_digests = cold_replay_digests(
        base / "victim",
        config.partitions,
        config=DetectorConfig(
            min_total_checkins=config.detector_min_total_checkins
        ),
        metrics=metrics,
        tracer=tracer,
    )
    report.cold_combined = PartitionedDetectorPipeline.combine(
        report.cold_digests
    )
    report.wall_seconds = time.perf_counter() - started
    return report


def write_durable_tree(
    config: DurableConfig,
    out_dir,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[LogHub] = None,
    tracer: Optional[Tracer] = None,
) -> DurableReport:
    """Clean run persisting WAL + snapshots + manifest under ``out_dir``."""
    report = DurableReport(config=config)
    started = time.perf_counter()
    out = Path(out_dir)

    from repro.lbsn.service import LbsnService

    service = LbsnService(metrics=metrics, log=log)
    bus = EventBus(metrics=metrics, log=log)
    service.event_bus = bus
    pipeline = _build_pipeline(
        config, out, metrics=metrics, log=log, tracer=tracer
    ).attach(bus)
    world = build_world(scale=config.scale, seed=config.seed, service=service)
    _drive_checkins(world, config, report)

    report.events_published = bus.published
    report.watermark = service.event_watermark()
    pipeline.snapshot_all()
    report.snapshots_written = sum(
        w.snapshots.writes for w in pipeline.workers
    )
    report.victim_digests = pipeline.digests()
    report.victim_combined = pipeline.combined_digest()
    report.wal_appended = sum(w.wal.appended for w in pipeline.workers)
    report.wal_bytes = sum(w.wal.bytes_written for w in pipeline.workers)
    report.wal_segments = sum(
        w.wal.segments_opened for w in pipeline.workers
    )
    report.wal_fsyncs = sum(w.wal.fsyncs for w in pipeline.workers)
    pipeline.close()
    bus.close()

    manifest = {
        "scale": config.scale,
        "seed": config.seed,
        "partitions": config.partitions,
        "checkins": config.checkins,
        "detector_min_total_checkins": config.detector_min_total_checkins,
        "watermark": report.watermark,
        "digests": report.victim_digests,
        "combined_digest": report.victim_combined,
    }
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    report.wall_seconds = time.perf_counter() - started
    return report


def replay_durable_tree(
    tree_dir,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> dict:
    """Cold-replay an existing tree; returns replay + manifest findings.

    The result dict carries ``digests``/``combined_digest`` from the
    replay and, when a manifest is present, ``manifest`` plus
    ``matches_manifest`` — the bit ``repro wal-replay --verify`` turns
    into an exit code.
    """
    tree = Path(tree_dir)
    manifest = None
    manifest_path = tree / MANIFEST_NAME
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
    config = None
    if manifest is not None:
        partitions = manifest["partitions"]
        bar = manifest.get("detector_min_total_checkins")
        if bar is not None:
            config = DetectorConfig(min_total_checkins=bar)
    else:
        partitions = len(
            [p for p in tree.iterdir() if p.name.startswith("partition-")]
        )
    digests = cold_replay_digests(
        tree, partitions, config=config, metrics=metrics, tracer=tracer
    )
    combined = PartitionedDetectorPipeline.combine(digests)
    result = {
        "partitions": partitions,
        "digests": digests,
        "combined_digest": combined,
        "manifest": manifest,
        "matches_manifest": None,
    }
    if manifest is not None:
        result["matches_manifest"] = (
            manifest.get("combined_digest") == combined
        )
    return result


__all__ = [
    "MANIFEST_NAME",
    "DurableConfig",
    "DurableReport",
    "kill_plan",
    "replay_durable_tree",
    "run_durable_storm",
    "write_durable_tree",
]
