"""The seeded chaos workload: one storm, every resilience claim exercised.

``run_chaos`` builds a small world, arms a
:class:`~repro.faults.FaultPlan` (by default the 20% fetch-failure / 5%
bus-subscriber-failure acceptance storm of :meth:`~repro.faults.plan.
FaultPlan.standard_storm`), and drives four phases through it:

A. **Crawl under fire** — the §3.2 user crawl runs against the injected
   fetch storm with per-machine circuit breakers and simulated-time
   backoff pacing; the frontier must still drain.
B. **Check-in storm** — a fixed schedule of check-ins (explicit
   timestamps, so retry pacing never shifts committed rows) commits
   through :func:`~repro.faults.retry_call`; injected commit contention
   aborts atomically and retries until it lands.  The live
   :class:`~repro.stream.ledger.SuspicionLedger` consumes the stream
   while a sacrificial ``chaos-victim`` subscriber absorbs the targeted
   subscriber faults — proving bus isolation.
C. **Breaker drill** — a dedicated breaker is failed to its threshold,
   observed OPEN, promoted HALF_OPEN by advancing the simulated clock,
   re-opened by a failing probe, and finally closed by a succeeding one.
D. **Web probe** — public pages are requested under the injected-5xx
   storm while ``/metrics``, ``/debug/vars``, and ``/debug/logs`` are
   asserted to stay exempt and correct.

Everything runs on :class:`~repro.simnet.clock.SimClock` — zero
wall-clock sleeps.  The report carries two digests:

* :attr:`ChaosReport.fault_sequence_digest` — the injector's decision
  history; byte-identical across replays of the same seeds.
* :attr:`ChaosReport.committed_state_digest` — committed check-in rows,
  pipeline counters, and ledger suspects; *also* identical between a
  faulted run and a fault-free run of the same seeds, which is the
  "no lost committed check-ins / ledger parity" invariant in one hash.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.detection import DetectorConfig
from repro.crawler.crawler import CrawlStats, MultiThreadedCrawler
from repro.crawler.database import CrawlDatabase
from repro.crawler.frontier import CrawlMode
from repro.faults.breaker import BreakerState, CircuitBreaker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import BackoffPolicy, retry_call
from repro.lbsn.service import LbsnService
from repro.obs.context import TraceContext, use_trace
from repro.obs.log import LogHub
from repro.obs.metrics import MetricsRegistry
from repro.simnet.clock import SECONDS_PER_DAY
from repro.stream.bus import EventBus
from repro.stream.ledger import SuspicionLedger
from repro.workload.scenario import WebStack, World, build_web_stack, build_world

#: Name of the sacrificial bus subscriber the standard storm targets.
VICTIM_SUBSCRIBER = "chaos-victim"


@dataclass
class ChaosConfig:
    """Everything that shapes one chaos run.  All time is simulated."""

    #: World size (fraction of the thesis corpus) and world seed.
    scale: float = 0.0005
    seed: int = 42
    #: Seed of the fault plan's decision streams.
    fault_seed: int = 1337
    #: False builds the identical workload with no injector wired at
    #: all — the fault-free control run for parity checks.
    faults_enabled: bool = True

    # Storm shape (forwarded to FaultPlan.standard_storm).
    fetch_failure: float = 0.20
    subscriber_failure: float = 0.05
    commit_failure: float = 0.05
    web_failure: float = 0.10
    network_latency_s: float = 0.04
    network_latency_probability: float = 0.10

    # Phase A: crawl.
    #: 1 machine × 1 thread by default: a fully sequential crawl makes
    #: the *entire* run deterministic — same seeds ⇒ identical fault
    #: sequence digest AND end-state digest.  With more threads the
    #: per-point decision *streams* stay deterministic (that is the
    #: injector's contract) but how many checks each phase consumes
    #: depends on interleaving, so run-level digests may drift.
    crawl_machines: int = 1
    crawl_threads: int = 1
    fetch_max_retries: int = 3
    breaker_failure_threshold: int = 5
    breaker_reset_timeout_s: float = 30.0

    # Phase B: check-in storm.
    checkins: int = 300
    checkin_gap_s: float = 60.0
    commit_retry_attempts: int = 8

    #: Ledger reporting bar (the streamed-world parity suite uses 100).
    detector_min_total_checkins: int = 100

    # Phase D: web probe.
    web_probes: int = 200


@dataclass
class ChaosReport:
    """Everything a chaos run observed, plus the two digests."""

    config: ChaosConfig

    # Phase A.
    crawl: Optional[CrawlStats] = None
    crawl_aborted: bool = False
    crawler_breaker_opens: int = 0

    # Phase B.
    checkins_attempted: int = 0
    checkins_returned: int = 0
    commit_retries: int = 0
    commit_exhausted: int = 0

    # Ledger + victim subscriber.
    ledger_suspects: List[int] = field(default_factory=list)
    victim_delivered: int = 0
    victim_errors: int = 0

    # Phase C breaker drill.
    breaker_failures_to_open: int = 0
    breaker_short_circuited: bool = False
    breaker_half_opened: bool = False
    breaker_reopened_on_probe_failure: bool = False
    breaker_closed_after_probe: bool = False

    # Phase D web probe.  The route checks are None when the stack was
    # built without the corresponding observability surface.
    web_statuses: Dict[int, int] = field(default_factory=dict)
    metrics_route_ok: Optional[bool] = None
    debug_vars_route_ok: Optional[bool] = None
    debug_logs_route_ok: Optional[bool] = None

    # Fault accounting.
    faults_fired: Dict[str, int] = field(default_factory=dict)
    fault_sequence_digest: str = ""
    committed_state_digest: str = ""
    wall_seconds: float = 0.0

    @property
    def commit_success_rate(self) -> float:
        """Fraction of attempted check-ins that came back with a result."""
        if self.checkins_attempted <= 0:
            return 1.0
        return self.checkins_returned / self.checkins_attempted


def committed_state_digest(
    service: LbsnService, ledger: Optional[SuspicionLedger] = None
) -> str:
    """Hash the fault-invariant end state of a service (and ledger).

    Deliberately excludes ``checkin_id`` (aborted commits burn IDs, so
    they differ between faulted and clean runs) and the clock (retry
    pacing advances it).  What remains — the committed row multiset,
    the pipeline counters, the event watermark, and the ledger's suspect
    set — must be identical whether or not the storm blew.
    """
    store = service.store
    hasher = hashlib.sha256()
    hasher.update(
        f"users={store.user_count()};venues={store.venue_count()};"
        f"checkins={store.checkin_count()};"
        f"watermark={store.event_seq_watermark()};".encode()
    )
    counters = service.counters
    hasher.update(
        f"valid={counters.valid};flagged={counters.flagged};"
        f"rejected={counters.rejected};".encode()
    )
    rows = []
    for user in store.iter_users():
        for checkin in store.checkins_of_user(user.user_id):
            rows.append(
                f"{checkin.user_id}:{checkin.venue_id}:"
                f"{checkin.timestamp:.6f}:{checkin.status.value}:"
                f"{checkin.flagged_rule}"
            )
    for row in sorted(rows):
        hasher.update(row.encode())
    if ledger is not None:
        for user_id in sorted(ledger.suspect_ids()):
            hasher.update(f"suspect={user_id};".encode())
    return hasher.hexdigest()


def run_chaos(
    config: Optional[ChaosConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[LogHub] = None,
) -> ChaosReport:
    """Run the four-phase chaos workload; returns the full report."""
    config = config or ChaosConfig()
    report = ChaosReport(config=config)
    started = time.perf_counter()

    # -- World + wiring ------------------------------------------------
    injector: Optional[FaultInjector] = None
    service = LbsnService(metrics=metrics, log=log)
    if config.faults_enabled:
        plan = FaultPlan.standard_storm(
            seed=config.fault_seed,
            fetch_failure=config.fetch_failure,
            subscriber_failure=config.subscriber_failure,
            commit_failure=config.commit_failure,
            web_failure=config.web_failure,
            network_latency_s=config.network_latency_s,
            network_latency_probability=config.network_latency_probability,
            victim_subscriber=VICTIM_SUBSCRIBER,
        )
        injector = FaultInjector(
            plan, clock=service.clock, metrics=metrics, log=log
        )
        injector.disarm()  # world generation runs clean.
        service.faults = injector
        service.store.faults = injector

    bus = EventBus(metrics=metrics, log=log, faults=injector)
    service.event_bus = bus
    ledger = SuspicionLedger(
        config=DetectorConfig(
            min_total_checkins=config.detector_min_total_checkins
        ),
        metrics=metrics,
        log=log,
    ).attach(bus)
    victim_seen = {"events": 0}

    def victim_callback(event) -> None:
        victim_seen["events"] += 1

    victim_stats = bus.subscribe(VICTIM_SUBSCRIBER, victim_callback)

    world = build_world(
        scale=config.scale, seed=config.seed, service=service
    )
    stack = build_web_stack(world, seed=config.seed + 7, faults=injector)
    if injector is not None:
        injector.arm()

    clock = service.clock

    # -- Phase A: crawl under the fetch storm --------------------------
    _run_crawl_phase(config, report, stack, clock, metrics, log, injector)

    # -- Phase B: check-in storm with retried commits ------------------
    _run_checkin_phase(config, report, world, clock, metrics, log)

    # -- Phase C: breaker drill ----------------------------------------
    _run_breaker_drill(config, report, clock, metrics, log)

    # -- Phase D: web probe + observability routes ---------------------
    _run_web_probe(config, report, stack)

    # -- Accounting ----------------------------------------------------
    report.ledger_suspects = sorted(ledger.suspect_ids())
    report.victim_delivered = victim_seen["events"]
    report.victim_errors = victim_stats.errors
    if injector is not None:
        report.faults_fired = injector.fired_counts()
        report.fault_sequence_digest = injector.sequence_digest()
    report.committed_state_digest = committed_state_digest(service, ledger)
    report.wall_seconds = time.perf_counter() - started
    return report


def _run_crawl_phase(
    config: ChaosConfig,
    report: ChaosReport,
    stack: WebStack,
    clock,
    metrics: Optional[MetricsRegistry],
    log: Optional[LogHub],
    injector: Optional[FaultInjector],
) -> None:
    egresses = [
        stack.network.create_egress() for _ in range(config.crawl_machines)
    ]

    def breaker_factory(name: str) -> CircuitBreaker:
        return CircuitBreaker(
            name=name,
            failure_threshold=config.breaker_failure_threshold,
            reset_timeout_s=config.breaker_reset_timeout_s,
            now_fn=clock.now,
            metrics=metrics,
            log=log,
        )

    crawler = MultiThreadedCrawler(
        stack.transport,
        CrawlDatabase(),
        CrawlMode.USER,
        egresses,
        threads_per_machine=config.crawl_threads,
        metrics=metrics,
        log=log,
        faults=injector,
        breaker_factory=breaker_factory,
        backoff=BackoffPolicy(
            initial_delay_s=0.05, jitter_fraction=0.0, max_delay_s=1.0
        ),
        sleep=clock.advance,
        fetch_max_retries=config.fetch_max_retries,
    )
    report.crawl = crawler.run()
    report.crawl_aborted = crawler.aborted
    report.crawler_breaker_opens = sum(
        breaker.open_count for breaker in crawler.breakers
    )


def _run_checkin_phase(
    config: ChaosConfig,
    report: ChaosReport,
    world: World,
    clock,
    metrics: Optional[MetricsRegistry],
    log: Optional[LogHub],
) -> None:
    service = world.service
    store = service.store
    users = sorted(user.user_id for user in store.iter_users())
    venues = sorted(venue.venue_id for venue in store.iter_venues())
    if not users or not venues:
        return
    policy = BackoffPolicy(
        max_attempts=config.commit_retry_attempts,
        initial_delay_s=0.01,
        jitter_fraction=0.0,
        max_delay_s=0.5,
    )
    # Pinned absolutely (NOT clock.now()): crawl-phase backoff pacing
    # advances the clock by a fault-dependent amount, and committed-row
    # parity between faulted and clean runs requires identical
    # timestamps.  One full day past the horizon clears any pacing.
    base_ts = world.horizon_s + SECONDS_PER_DAY
    for index in range(config.checkins):
        user_id = users[index % len(users)]
        # Stride venues so consecutive attempts by the same user land at
        # different venues (the rapid-fire rule would refuse repeats).
        venue_id = venues[(index * 7) % len(venues)]
        venue = store.require_venue(venue_id)
        timestamp = base_ts + index * config.checkin_gap_s
        report.checkins_attempted += 1
        trace = TraceContext.mint()

        def attempt(uid=user_id, vid=venue_id, loc=venue.location,
                    ts=timestamp, tr=trace):
            return service.check_in(
                uid, vid, loc, timestamp=ts, trace=tr
            )

        def on_retry(attempt_number, error, delay) -> None:
            report.commit_retries += 1

        try:
            with use_trace(trace):
                retry_call(
                    attempt,
                    policy,
                    sleep=clock.advance,
                    on_retry=on_retry,
                    metrics=metrics,
                    log=log,
                    op="store.commit",
                )
            report.checkins_returned += 1
        except Exception:  # noqa: BLE001 - exhaustion is reportable data
            report.commit_exhausted += 1


def _run_breaker_drill(
    config: ChaosConfig,
    report: ChaosReport,
    clock,
    metrics: Optional[MetricsRegistry],
    log: Optional[LogHub],
) -> None:
    breaker = CircuitBreaker(
        name="chaos-drill",
        failure_threshold=config.breaker_failure_threshold,
        reset_timeout_s=config.breaker_reset_timeout_s,
        half_open_probes=1,
        now_fn=clock.now,
        metrics=metrics,
        log=log,
    )
    while breaker.state is BreakerState.CLOSED:
        breaker.record_failure()
        report.breaker_failures_to_open += 1
        if report.breaker_failures_to_open > 10 * (
            config.breaker_failure_threshold
        ):  # pragma: no cover - defensive
            break
    report.breaker_short_circuited = not breaker.allow()
    clock.advance(config.breaker_reset_timeout_s)
    report.breaker_half_opened = breaker.state is BreakerState.HALF_OPEN
    if breaker.allow():
        breaker.record_failure()  # the probe fails: straight back OPEN.
    report.breaker_reopened_on_probe_failure = (
        breaker.state is BreakerState.OPEN
    )
    clock.advance(config.breaker_reset_timeout_s)
    if breaker.allow():
        breaker.record_success()
    report.breaker_closed_after_probe = (
        breaker.state is BreakerState.CLOSED
    )


def _run_web_probe(
    config: ChaosConfig, report: ChaosReport, stack: WebStack
) -> None:
    egress = stack.network.create_egress()
    venue_ids = sorted(
        venue.venue_id
        for venue in stack.webserver.service.store.iter_venues()
    )
    for index in range(config.web_probes):
        venue_id = venue_ids[index % len(venue_ids)] if venue_ids else 1
        response = stack.transport.get(f"/venue/{venue_id}", egress)
        report.web_statuses[response.status] = (
            report.web_statuses.get(response.status, 0) + 1
        )
    if stack.webserver.metrics is not None:
        response = stack.transport.get("/metrics", egress)
        report.metrics_route_ok = (
            response.ok and "repro_" in response.body
        )
        response = stack.transport.get("/debug/vars", egress)
        report.debug_vars_route_ok = (
            response.ok and response.body.startswith("{")
        )
    if stack.webserver.log is not None:
        response = stack.transport.get("/debug/logs", egress)
        report.debug_logs_route_ok = response.ok


__all__ = [
    "VICTIM_SUBSCRIBER",
    "ChaosConfig",
    "ChaosReport",
    "committed_state_digest",
    "run_chaos",
]
