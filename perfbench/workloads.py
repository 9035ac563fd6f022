"""The benchmark's three workloads: inputs from a seed, ops, output checks.

Each workload runs in *rounds*.  A round builds its inputs and wiring from
its seed (timed as set-up), sends every op through the public API in a
closed loop from this one thread, then checks the outputs: invariants that
hold for any seed, and, for the default seed, the values recorded in
``expected.json``.  ``finish`` returns the round's input and output
digests, the recorded values and the per-layer counters it read.

* ``world_replay`` — the paper-calibrated corpus (honest population plus
  the §4.2/§3.4 personas, made with the generator calls ``build_world``
  makes) replayed in timestamp order through a bare ``LbsnService``.
* ``cheat_storm`` — seeded attack traffic (teleporters, rapid-fire
  bursts, same-venue repeats, GPS-mismatched claims, locatable devices,
  honeypot-landing enumerators) through ``DefendedLbsnService`` over a
  fully wired service: metrics, log, bus, ledger, honeypots, WAL tap.
* ``crawl`` — repeated full-site crawls (users, then venues; one egress,
  one thread, non-blocking transport) of a settled world, with one
  held-back day of check-ins replayed, untimed, between passes.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro.crawler.crawler as crawler_module
import repro.lbsn.service as service_module
from repro.adversary.workload import enumerate_targets
from repro.analysis.detection import DetectorConfig
from repro.crawler.crawler import MultiThreadedCrawler
from repro.crawler.database import CrawlDatabase
from repro.crawler.fetcher import PageFetcher
from repro.crawler.frontier import CrawlMode, IdFrontier
from repro.defense.distance_bounding import DistanceBoundingVerifier
from repro.defense.honeypot import HoneypotRegistry
from repro.defense.integration import DefendedLbsnService, DeviceRegistry
from repro.durable.wal import WalReader, WalWriter
from repro.geo.coordinates import GeoPoint
from repro.lbsn.cheater_code import RuleAction
from repro.lbsn.models import CheckInStatus
from repro.lbsn.service import LbsnService
from repro.obs.log import LogHub, StructuredLogger
from repro.obs.metrics import MetricsRegistry
from repro.simnet.clock import SECONDS_PER_DAY
from repro.stream.bus import EventBus
from repro.stream.ledger import SuspicionLedger
from repro.workload.behavior import (
    DEFAULT_HORIZON_DAYS,
    BehaviorGenerator,
    EventReplayer,
)
from repro.workload.cheaters import CheaterGenerator
from repro.workload.population import FULL_SCALE_USERS, PopulationGenerator
from repro.workload.scenario import FULL_SCALE_VENUES, World, build_web_stack
from repro.workload.social import generate_friend_graph
from repro.workload.venues import VenueGenerator

from tracing import SpanRecorder, Wrapping

#: Seed of the world's shape: its venues and its population's activity
#: targets.  The run's seed drives everything else (itineraries, persona
#: traffic, friendships).  At these scales one heavy user's check-ins
#: form most of the latency tail, so a shape drawn per seed would make
#: the tail a lottery between seeds rather than a property of the code.
SHAPE_SEED = 20_100_801
#: Fraction of the paper's corpus each world_replay round replays.
REPLAY_SCALE = 0.0005
#: World size for the crawl workload, and the days held back from its
#: set-up replay: one is replayed between consecutive passes.
CRAWL_SCALE = 0.0005
CRAWL_PASSES = 12
#: cheat_storm size: venues in the world and attempts per attacking
#: account (the accounts are listed in ``_BEHAVIOURS``).
STORM_VENUES = 4_000
STORM_ATTEMPTS = 200
#: WAL fsync cadence for cheat_storm: one fsync per this many appends
#: (plus rotation and close).  Fixed so both sides of a comparison pay
#: the same durability cost.
WAL_FSYNC_EVERY = 256
#: Honeypot venues seeded as a fraction of the storm world's venues.
HONEYPOT_DENSITY = 0.01
#: The ledger's reporting bar, as in the E26 adversary scoreboard.
LEDGER_MIN_CHECKINS = 100
#: Crawl threads on the one egress.  One, not the machine's two: with two
#: the page rate falls to about half part-way through a process and the
#: page latency turns bimodal from run to run (see README.md, "Open
#: performance lead").
CRAWL_THREADS = 1


class CheckFailed(Exception):
    """An output check failed: the program produced a wrong result."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass
class RoundResult:
    """What one round measured and produced."""

    setup_s: float
    latencies: List[float]
    wall_s: float
    failed: int
    input_digest: str
    output_digest: str
    #: Values checked against ``expected.json`` for the default seed.
    recorded: Dict[str, object] = field(default_factory=dict)
    #: Per-layer counters read from the program after the round.
    layer: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared check-in loop
# ---------------------------------------------------------------------------


def _checkin_loop(call: Callable, ops, recorder: Optional[SpanRecorder]):
    """Closed loop: send each op after the previous one returned."""
    latencies = []
    results = [None] * len(ops)
    failed = 0
    clock = time.perf_counter
    started = clock()
    for index, (user_id, venue_id, location, timestamp) in enumerate(ops):
        if recorder is not None:
            recorder.set_op(index)
        begin = clock()
        try:
            results[index] = call(user_id, venue_id, location, timestamp)
        except Exception:  # noqa: BLE001 - an op that raises is an error
            failed += 1
            continue
        latencies.append(clock() - begin)
    elapsed = clock() - started
    if recorder is not None:
        recorder.set_op(-1)
    return latencies, results, failed, elapsed


def _verdict(result) -> tuple:
    if result is None:
        return ("error",)
    checkin = result.checkin
    return (
        checkin.status.value,
        checkin.flagged_rule,
        result.points,
        tuple(sorted(result.new_badges)),
        result.became_mayor,
        result.lost_mayor_user_id,
        None if result.special_unlocked is None else
        result.special_unlocked.description,
    )


def _ops_digest(ops) -> str:
    return _sha([(u, v, l.latitude, l.longitude, t) for u, v, l, t in ops])


def _check_service_state(service: LbsnService, ops, results) -> None:
    """Seed-independent invariants between op verdicts and end state."""
    points: Counter = Counter()
    valid: Counter = Counter()
    badges: Dict[int, set] = {}
    for (user_id, _, _, _), result in zip(ops, results):
        if result is None or result.checkin.status is not CheckInStatus.VALID:
            continue
        points[user_id] += result.points
        valid[user_id] += 1
        badges.setdefault(user_id, set()).update(result.new_badges)
    mayors: Counter = Counter()
    for venue in service.store.iter_venues():
        if venue.mayor_id is not None:
            mayors[venue.mayor_id] += 1
    for user_id in {op[0] for op in ops}:
        user = service.store.require_user(user_id)
        _require(
            user.points == points[user_id],
            f"user {user_id}: points {user.points} != awarded "
            f"{points[user_id]}",
        )
        _require(
            user.valid_checkins == valid[user_id],
            f"user {user_id}: valid check-ins {user.valid_checkins} != "
            f"{valid[user_id]} valid verdicts",
        )
        _require(
            user.badges == badges.get(user_id, set()),
            f"user {user_id}: badges differ from the badges awarded",
        )
        _require(
            service.mayorship_count(user_id) == mayors[user_id],
            f"user {user_id}: mayorship count "
            f"{service.mayorship_count(user_id)} != {mayors[user_id]} "
            "venues naming them mayor",
        )


def _end_state(service: LbsnService) -> tuple:
    venues = tuple(
        (venue.venue_id, venue.mayor_id)
        for venue in sorted(service.store.iter_venues(), key=_venue_key)
    )
    users = tuple(
        (user.user_id, user.points, tuple(sorted(user.badges)))
        for user in sorted(service.store.iter_users(), key=_user_key)
    )
    return venues, users


def _venue_key(venue) -> int:
    return venue.venue_id


def _user_key(user) -> int:
    return user.user_id


def _wrap_service(wrapping: Wrapping, service: LbsnService) -> None:
    """Wrap the check-in pipeline's layers of ``service``."""
    recorder = wrapping.recorder

    def on_checkin(args, kwargs, result):
        recorder.count(f"service.{result.checkin.status.value}")

    def on_mayor(args, kwargs, decision):
        recorder.count("mayorship.history_len", len(args[0]))
        if decision.changed:
            recorder.count("mayorship.changes")

    def on_badges(args, kwargs, earned):
        if earned:
            recorder.count("badges.awards")

    def on_rules(args, kwargs, verdict):
        recorder.count("cheater_code.history_len", len(kwargs["history"]))
        if verdict.action is not RuleAction.ALLOW:
            recorder.count("cheater_code.denials")

    wrapping.wrap(service, "check_in", "service", on_checkin)
    wrapping.wrap(service_module, "decide_mayor", "mayorship", on_mayor)
    wrapping.wrap(service.badges, "evaluate", "badges", on_badges)
    wrapping.wrap(service.cheater_code, "evaluate", "cheater_code", on_rules)
    wrapping.wrap(service.store, "add_checkin", "store")
    wrapping.wrap(service.store, "add_checkin_committed", "store")


def _corpus(service: LbsnService, scale: float, seed: int):
    """The paper-calibrated corpus, made with the generator calls and seed
    offsets ``build_world`` makes, except that venues and the population's
    activity targets come from :data:`SHAPE_SEED`.

    Returns ``(venues, population, roster, events)``; the events are not
    yet replayed.
    """
    horizon_s = DEFAULT_HORIZON_DAYS * SECONDS_PER_DAY
    venues = VenueGenerator(service, seed=SHAPE_SEED).generate(
        max(30, int(FULL_SCALE_VENUES * scale))
    )
    population_generator = PopulationGenerator(service, seed=SHAPE_SEED + 1)
    population = population_generator.generate(
        max(10, int(FULL_SCALE_USERS * scale))
    )
    behavior = BehaviorGenerator(
        venues, horizon_days=DEFAULT_HORIZON_DAYS, seed=seed + 2
    )
    events = []
    for spec in population.specs:
        events.extend(behavior.events_for(spec))
    roster, persona_events = CheaterGenerator(
        service, population_generator, venues, horizon_s, seed=seed + 3
    ).generate(scale_activity=min(1.0, max(0.02, 100.0 * scale)))
    events.extend(persona_events)
    generate_friend_graph(
        service, population.specs + roster.all_specs(), seed=seed + 4
    )
    return venues, population, roster, events


# ---------------------------------------------------------------------------
# world_replay
# ---------------------------------------------------------------------------


class WorldReplay:
    """The paper-calibrated corpus through a bare service."""

    name = "world_replay"
    round_seconds = 1.6

    def setup(self, seed: int, wrapping: Optional[Wrapping]):
        service = LbsnService()
        _, _, _, events = _corpus(service, REPLAY_SCALE, seed)
        events.sort(key=lambda event: event.timestamp)
        store = service.store
        ops = [
            (
                event.user_id,
                event.venue_id,
                store.require_venue(event.venue_id).location,
                event.timestamp,
            )
            for event in events
        ]
        if wrapping is not None:
            _wrap_service(wrapping, service)
        return service, ops

    def run(self, state, recorder: Optional[SpanRecorder]):
        service, ops = state
        return _checkin_loop(service.check_in, ops, recorder)

    def finish(self, state, results) -> tuple:
        service, ops = state
        _check_service_state(service, ops, results)
        output = _sha([_verdict(result) for result in results], _end_state(service))
        return _ops_digest(ops), output, {"output_digest": output}, {}

    def cleanup(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# cheat_storm
# ---------------------------------------------------------------------------

#: Attacking accounts per behaviour.
_BEHAVIOURS = (
    ("teleporter", 48),
    ("burster", 16),
    ("repeater", 24),
    ("gps_mismatch", 24),
    ("locatable", 24),
    ("enumerator", 24),
)


@dataclass
class _Storm:
    service: LbsnService
    defended: DefendedLbsnService
    bus: EventBus
    wal: WalWriter
    wal_dir: Path
    ledger: SuspicionLedger
    honeypots: HoneypotRegistry
    log: LogHub
    ops: list
    behaviour_of: Dict[int, str]


class CheatStorm:
    """Seeded attack traffic through the fully wired, defended pipeline."""

    name = "cheat_storm"
    round_seconds = 3.0

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self._rounds = 0

    def setup(self, seed: int, wrapping: Optional[Wrapping]) -> _Storm:
        self._rounds += 1
        wal_dir = self.scratch / f"wal-{self._rounds}"
        if wal_dir.exists():
            shutil.rmtree(wal_dir)
        metrics = MetricsRegistry()
        log = LogHub(metrics=metrics)
        service = LbsnService(metrics=metrics, log=log)
        bus = EventBus(metrics=metrics, log=log)
        service.event_bus = bus
        wal = WalWriter(wal_dir, fsync_every=WAL_FSYNC_EVERY, metrics=metrics)
        ledger = SuspicionLedger(
            config=DetectorConfig(min_total_checkins=LEDGER_MIN_CHECKINS),
            metrics=metrics,
            log=log,
        )
        honeypots = HoneypotRegistry(
            service, ledger=ledger, metrics=metrics, log=log
        )
        if wrapping is not None:
            # Subscribers are wrapped before they subscribe.
            wrapping.wrap(wal, "append", "wal")
            wrapping.wrap(ledger, "on_event", "ledger")
            wrapping.wrap(honeypots, "on_event", "honeypot")
        bus.subscribe("wal", wal.append, durable=True)
        ledger.attach(bus)
        honeypots.attach(bus)

        rng = random.Random(seed)
        venues = VenueGenerator(service, seed=SHAPE_SEED).generate(
            STORM_VENUES
        )
        store = service.store
        devices = DeviceRegistry()
        accounts = []
        # Exact behaviour counts, in a seeded order: the mix is part of
        # the workload's shape, not of the seed's luck.
        behaviours = [
            name for name, count in _BEHAVIOURS for _ in range(count)
        ]
        rng.shuffle(behaviours)
        for index, behaviour in enumerate(behaviours):
            user = service.register_user(f"storm {index}")
            home = store.require_venue(rng.choice(venues.venue_ids))
            if behaviour == "locatable":
                devices.place(user.user_id, home.location)
            cluster = [home.venue_id]
            if behaviour == "burster":
                # A food court: three more venues within 60 m of home, so
                # four venues fit the rapid-fire rule's 180 m square.
                cluster += [
                    service.create_venue(
                        f"Food court {index}-{stall}",
                        GeoPoint(
                            latitude=home.location.latitude
                            + rng.uniform(-0.0004, 0.0004),
                            longitude=home.location.longitude
                            + rng.uniform(-0.0004, 0.0004),
                        ),
                    ).venue_id
                    for stall in range(3)
                ]
            accounts.append((behaviour, user.user_id, home, cluster))
        honeypots.seed(density=HONEYPOT_DENSITY, seed=seed + 11)
        targets = [target.venue_id for target in enumerate_targets(service)]
        behaviour_of = {user_id: behaviour for behaviour, user_id, _, _ in accounts}
        per_account = [
            _attempts(
                behaviour, user_id, home, cluster, rng, store,
                venues.venue_ids, targets,
            )
            for behaviour, user_id, home, cluster in accounts
        ]
        ops = sorted(
            (op for attempts in per_account for op in attempts),
            key=lambda op: (op[3], op[0]),
        )
        defended = DefendedLbsnService(
            service,
            DistanceBoundingVerifier(seed=seed + 5),
            physical_locator=devices.locate,
            suspicion_ledger=ledger,
            metrics=metrics,
            log=log,
        )
        if wrapping is not None:
            _wrap_service(wrapping, service)
            wrapping.wrap(defended, "check_in", "defense")
            wrapping.wrap(defended.verifier, "verify", "defense.verify")
            wrapping.wrap(bus, "publish", "bus")
            for method in ("debug", "info", "warning", "error"):
                wrapping.wrap(StructuredLogger, method, "log")
        return _Storm(
            service, defended, bus, wal, wal_dir, ledger, honeypots, log,
            ops, behaviour_of,
        )

    def run(self, state: _Storm, recorder: Optional[SpanRecorder]):
        return _checkin_loop(state.defended.check_in, state.ops, recorder)

    def finish(self, state: _Storm, results) -> tuple:
        service, ledger = state.service, state.ledger
        state.wal.close()
        events = WalReader(state.wal_dir).read_all(strict=True)
        watermark = service.event_watermark()
        seqs = [event.seq for event in events]
        _require(
            state.bus.published == len(events),
            f"WAL holds {len(events)} events, bus published "
            f"{state.bus.published}",
        )
        _require(
            seqs == list(range(watermark)),
            "WAL seqs are not exactly 0..watermark-1 in order "
            f"(watermark {watermark}, {len(seqs)} records)",
        )
        pins = sorted(
            user_id for user_id in state.behaviour_of
            if ledger.pinned_rule(user_id) is not None
        )
        _require(
            pins == state.honeypots.flagged_accounts(),
            "ledger pins differ from the honeypot registry's flags",
        )
        _require(
            all(state.behaviour_of[user_id] == "enumerator" for user_id in pins),
            "an account that never enumerated venues was pinned",
        )
        stats = state.defended.stats
        counters = service.counters
        _require(
            stats.total == len(state.ops),
            f"defense saw {stats.total} claims for {len(state.ops)} ops",
        )
        _require(
            counters.valid + counters.flagged + counters.rejected
            == len(state.ops) - stats.refused - stats.ledger_refused,
            "service outcomes do not add up to the claims it was passed",
        )
        outcomes = Counter(
            "error" if r is None
            else f"{r.checkin.status.value}:{r.checkin.flagged_rule or '-'}"
            for r in results
        )
        suspects = ledger.suspect_ids()
        _check_service_state(service, state.ops, results)
        recorded = {
            "outcomes": dict(sorted(outcomes.items())),
            "suspects": suspects,
            "pins": pins,
        }
        output = _sha(
            [_verdict(result) for result in results],
            sorted(recorded["outcomes"].items()),
            suspects,
            pins,
        )
        recorded["output_digest"] = output
        layer = {
            "ledger.suspects": len(suspects),
            "honeypot.pins": len(pins),
            "defense.refused": stats.refused + stats.ledger_refused,
            "wal.bytes": state.wal.bytes_written,
            "wal.appends": state.wal.appended,
            "wal.fsyncs": state.wal.fsyncs,
            "log.records": state.log.emitted,
        }
        return _ops_digest(state.ops), output, recorded, layer

    def cleanup(self, state: _Storm) -> None:
        state.wal.close()
        state.bus.close()
        shutil.rmtree(state.wal_dir, ignore_errors=True)


def _attempts(behaviour, user_id, home, cluster, rng, store, venue_ids,
              targets) -> list:
    """One account's attempts: (user, venue, reported location, time)."""
    clock = rng.uniform(0.0, 2.0 * SECONDS_PER_DAY)
    attempts = []

    def add(venue_id, location=None):
        venue = store.require_venue(venue_id)
        attempts.append(
            (user_id, venue_id, location or venue.location, clock)
        )

    sweep = rng.sample(targets, min(len(targets), STORM_ATTEMPTS))
    for step in range(STORM_ATTEMPTS):
        if behaviour == "teleporter":
            clock += rng.uniform(120.0, 900.0)
            add(rng.choice(venue_ids))
        elif behaviour == "burster":
            # Twelve check-ins under a minute apart round the food court
            # (the fourth trips rapid-fire, the rest repeat a venue within
            # the hour), then a pause of over an hour.
            clock += (
                rng.uniform(40.0, 55.0) if step % 12
                else rng.uniform(4_000.0, 8_000.0)
            )
            add(cluster[step % len(cluster)])
        elif behaviour == "repeater":
            clock += rng.uniform(60.0, 600.0)
            add(home.venue_id)
        elif behaviour == "gps_mismatch":
            clock += rng.uniform(300.0, 1_800.0)
            venue = store.require_venue(rng.choice(venue_ids))
            add(
                venue.venue_id,
                GeoPoint(
                    latitude=venue.location.latitude + rng.uniform(0.05, 0.3),
                    longitude=venue.location.longitude,
                ),
            )
        elif behaviour == "locatable":
            clock += rng.uniform(900.0, 3_600.0)
            add(home.venue_id if rng.random() < 0.05 else rng.choice(venue_ids))
        else:  # enumerator
            clock += rng.uniform(300.0, 900.0)
            add(sweep[step % len(sweep)])
    return attempts


# ---------------------------------------------------------------------------
# crawl
# ---------------------------------------------------------------------------


class OpClockFrontier(IdFrontier):
    """An ``IdFrontier`` that also times each page, fetch to store.

    A page's op starts when a crawl thread takes its ID and ends when the
    thread reports the hit or miss; a page that fails reports neither and
    is counted by the crawl's own stats.  Present in traced and untraced
    runs alike, so it is part of what the headline numbers measure.
    """

    def __init__(self, mode, latencies, recorder, op_ids) -> None:
        super().__init__(mode)
        self._latencies = latencies
        self._recorder = recorder
        self._op_ids = op_ids
        self._started: Dict[int, float] = {}

    def next_id(self):
        value = super().next_id()
        if self._recorder is not None:
            self._recorder.set_op(next(self._op_ids))
        self._started[threading.get_ident()] = time.perf_counter()
        return value

    def _stop(self) -> None:
        self._latencies.append(
            time.perf_counter() - self._started[threading.get_ident()]
        )

    def report_hit(self, profile_id: int) -> None:
        self._stop()
        super().report_hit(profile_id)

    def report_miss(self, profile_id: int) -> None:
        self._stop()
        super().report_miss(profile_id)


@dataclass
class _Site:
    service: LbsnService
    transport: object
    webserver: object
    egress: object
    database: CrawlDatabase
    held_back: List[list]
    #: Filled by the passes: a digest of the crawl database after each,
    #: and the pages fetched and found.
    digests: List[str] = field(default_factory=list)
    pages: int = 0
    hits: int = 0


class Crawl:
    """Repeated full-site crawls of a settled, slowly changing world."""

    name = "crawl"
    round_seconds = 2.5

    def setup(self, seed: int, wrapping: Optional[Wrapping]) -> _Site:
        service = LbsnService()
        venues, population, roster, events = _corpus(service, CRAWL_SCALE, seed)
        horizon_s = DEFAULT_HORIZON_DAYS * SECONDS_PER_DAY
        cut = horizon_s - (CRAWL_PASSES - 1) * SECONDS_PER_DAY
        settled = [event for event in events if event.timestamp <= cut]
        later = sorted(
            (event for event in events if event.timestamp > cut),
            key=lambda event: event.timestamp,
        )
        held_back = [
            [
                event for event in later
                if cut + day * SECONDS_PER_DAY < event.timestamp
                <= cut + (day + 1) * SECONDS_PER_DAY
            ]
            for day in range(CRAWL_PASSES - 1)
        ]
        replay = EventReplayer(service).replay(settled)
        service.clock.advance_to(max(cut, service.clock.now()))
        service.refresh_all_mayorships()
        world = World(
            service=service,
            venues=venues,
            population=population,
            roster=roster,
            replay=replay,
            horizon_s=horizon_s,
            scale=CRAWL_SCALE,
        )
        stack = build_web_stack(world, seed=seed + 5)
        egress = stack.network.create_egress()
        database = CrawlDatabase()
        if wrapping is not None:
            wrapping.wrap(stack.webserver, "render_user", "web")
            wrapping.wrap(stack.webserver, "render_venue", "web")
            wrapping.wrap(stack.transport, "get", "http")
            wrapping.wrap(PageFetcher, "fetch", "crawler.fetch")
            wrapping.wrap(crawler_module, "parse_user_page", "crawler.parse")
            wrapping.wrap(crawler_module, "parse_venue_page", "crawler.parse")
            wrapping.wrap(database, "upsert_user", "crawler.upsert")
            wrapping.wrap(database, "upsert_venue", "crawler.upsert")
        return _Site(
            service, stack.transport, stack.webserver, egress, database,
            held_back,
        )

    def run(self, site: _Site, recorder: Optional[SpanRecorder]):
        latencies: List[float] = []
        failed = 0
        wall = 0.0
        pages = hits = 0
        op_ids = iter(range(1 << 62))
        for crawl_pass in range(CRAWL_PASSES):
            if crawl_pass:
                EventReplayer(site.service).replay(site.held_back[crawl_pass - 1])
            started = time.perf_counter()
            # crawl_full_site's two passes, with the op-clock frontier.
            for mode in (CrawlMode.USER, CrawlMode.VENUE):
                crawler = MultiThreadedCrawler(
                    site.transport,
                    site.database,
                    mode,
                    [site.egress],
                    threads_per_machine=CRAWL_THREADS,
                )
                crawler.frontier = OpClockFrontier(
                    mode, latencies, recorder, op_ids
                )
                stats = crawler.run()
                failed += stats.failures
                pages += stats.pages_fetched
                hits += stats.hits
            site.database.recompute_derived()
            wall += time.perf_counter() - started
            site.digests.append(_check_crawl(site))
        site.pages, site.hits = pages, hits
        return latencies, [], failed, wall

    def finish(self, site: _Site, results) -> tuple:
        output = _sha(site.digests)
        input_digest = _sha(
            [
                [(e.user_id, e.venue_id, e.timestamp) for e in day]
                for day in site.held_back
            ],
            site.service.store.user_count(),
            site.service.store.venue_count(),
        )
        return input_digest, output, {"output_digest": output}, {
            "crawler.pages": site.pages,
            "crawler.hits": site.hits,
        }

    def cleanup(self, site: _Site) -> None:
        pass


def _check_crawl(site: _Site) -> str:
    """Every crawled user and venue row must match the store."""
    store, database = site.service.store, site.database
    _require(
        database.user_count() == store.user_count(),
        f"crawled {database.user_count()} users of {store.user_count()}",
    )
    _require(
        database.venue_count() == store.venue_count(),
        f"crawled {database.venue_count()} venues of {store.venue_count()}",
    )
    for user in store.iter_users():
        row = database.user(user.user_id)
        _require(
            row is not None
            and row.total_checkins == user.total_checkins
            and row.total_badges == user.badge_count
            and row.points == user.points
            and sorted(row.friend_ids) == sorted(user.friends),
            f"user {user.user_id}: crawled row differs from the store",
        )
    for venue in store.iter_venues():
        row = database.venue(venue.venue_id)
        _require(
            row is not None
            and row.mayor_id == venue.mayor_id
            and row.checkins_here == venue.checkin_count
            and row.unique_visitors == venue.unique_visitor_count
            and database.recent_visitor_list(venue.venue_id)
            == list(venue.recent_visitors),
            f"venue {venue.venue_id}: crawled row differs from the store",
        )
    return _sha(
        [
            (r.user_id, r.total_checkins, r.total_badges, r.points,
             r.recent_checkins, r.total_mayors)
            for r in sorted(database.users(), key=lambda r: r.user_id)
        ],
        [
            (r.venue_id, r.mayor_id, r.checkins_here, r.unique_visitors)
            for r in sorted(database.venues(), key=lambda r: r.venue_id)
        ],
    )


def make(name: str, scratch: Path):
    """The workload object for ``name``."""
    if name == "world_replay":
        return WorldReplay()
    if name == "cheat_storm":
        return CheatStorm(scratch)
    if name == "crawl":
        return Crawl()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("world_replay", "cheat_storm", "crawl")
