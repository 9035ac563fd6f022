"""Command-line interface: ``python -m repro <command>``.

The subcommands walk the paper's arc end to end on freshly built worlds:

* ``demo``          — the E1 spoofed check-in (quickstart).
* ``crawl``         — run the §3.2 crawler and print corpus statistics.
* ``attack``        — spiral tour + mayor-special harvest (§3.3-§3.4).
* ``detect``        — the Chapter-4 three-factor cheater scan (offline).
* ``stream-detect`` — the same three factors, online over the event bus.
* ``defend``        — the Chapter-5 verifier comparison table.
* ``metrics``       — run an instrumented workload, dump the snapshot as
  Prometheus text or JSON (see ``docs/OBSERVABILITY.md``).
* ``top``           — the same workload, watched live: a refreshing
  rate dashboard (plus SLO health panel) over a
  :class:`~repro.obs.TimeSeriesRecorder`.
* ``profile``       — sample the workload with the wall-clock profiler;
  print the hotspot table, optionally dump collapsed stacks.
* ``slo``           — evaluate the default objectives against a workload:
  compliance, error budgets, burn rates, and the health score.

All commands accept ``--scale`` (fraction of the 2010 corpus) and
``--seed``; they build their own world, so runs are independent and
reproducible.  ``repro --version`` prints the library version.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.geo.coordinates import GeoPoint


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=0.0005,
        help="fraction of the 1.89M-user 2010 corpus (default 0.0005)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="world RNG seed (default 42)"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Location Cheating: A Security Challenge to "
            "Location-based Social Network Services' (ICDCS 2011)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the library version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="spoof one remote check-in (E1)")
    _add_common(demo)

    crawl = sub.add_parser("crawl", help="crawl the site, print statistics")
    _add_common(crawl)
    crawl.add_argument(
        "--machines", type=int, default=3, help="crawl machines (default 3)"
    )
    crawl.add_argument(
        "--threads", type=int, default=14, help="threads per machine"
    )

    attack = sub.add_parser("attack", help="tour + harvest (E4/E9)")
    _add_common(attack)
    attack.add_argument(
        "--steps", type=int, default=40, help="spiral steps (default 40)"
    )
    attack.add_argument(
        "--harvest", type=int, default=10, help="special venues to harvest"
    )

    detect = sub.add_parser("detect", help="three-factor cheater scan")
    _add_common(detect)
    detect.add_argument(
        "--min-checkins",
        type=int,
        default=150,
        help="minimum total check-ins to score a user",
    )

    stream = sub.add_parser(
        "stream-detect",
        help="online streaming cheater detection over the live event bus",
    )
    _add_common(stream)
    stream.add_argument(
        "--min-checkins",
        type=int,
        default=150,
        help="minimum total check-ins to score a user",
    )
    stream.add_argument(
        "--top", type=int, default=15, help="suspects to print (default 15)"
    )
    stream.add_argument(
        "--no-parity",
        action="store_true",
        help="skip the offline crawl+detect parity comparison",
    )

    defend = sub.add_parser("defend", help="verifier comparison (E11)")
    _add_common(defend)
    defend.add_argument(
        "--claims", type=int, default=200, help="claims per workload"
    )

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented workload, print the Prometheus snapshot",
    )
    _add_common(metrics)
    metrics.add_argument(
        "--slow-spans",
        type=int,
        default=5,
        help="recent slow spans to list after the snapshot (default 5)",
    )
    metrics.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help=(
            "snapshot format: Prometheus text exposition or the "
            "/debug/vars JSON shape (default text)"
        ),
    )

    top = sub.add_parser(
        "top",
        help="live rate dashboard over an instrumented workload",
    )
    _add_common(top)
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        help="seconds between dashboard refreshes (default 0.5)",
    )
    top.add_argument(
        "--refreshes",
        type=int,
        default=0,
        help="stop after N refreshes (default 0: until the workload ends)",
    )
    top.add_argument(
        "--rows",
        type=int,
        default=12,
        help="series rows per refresh (default 12)",
    )

    profile = sub.add_parser(
        "profile",
        help="sampling-profile an instrumented workload; hotspot table",
    )
    _add_common(profile)
    profile.add_argument(
        "--seconds",
        type=float,
        default=2.0,
        help="max profiling window in seconds (default 2.0; the run ends "
        "early when the workload finishes)",
    )
    profile.add_argument(
        "--hz",
        type=float,
        default=97.0,
        help="sampling frequency (default 97 Hz)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=15,
        help="hotspot rows to print (default 15)",
    )
    profile.add_argument(
        "--collapsed",
        default=None,
        metavar="PATH",
        help="also write Brendan-Gregg collapsed stacks to PATH",
    )

    slo = sub.add_parser(
        "slo",
        help="evaluate the default SLOs against an instrumented workload",
    )
    _add_common(slo)

    figures = sub.add_parser(
        "figures", help="export every figure's data series as CSV"
    )
    _add_common(figures)
    figures.add_argument(
        "--out",
        default="figures_out",
        help="output directory for CSV files (default ./figures_out)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault storm through every layer; resilience report (E22)",
    )
    _add_common(chaos)
    chaos.add_argument(
        "--fault-seed",
        type=int,
        default=1337,
        help="seed of the fault plan's decision streams (default 1337)",
    )
    chaos.add_argument(
        "--checkins",
        type=int,
        default=300,
        help="check-in attempts in the commit storm (default 300)",
    )
    chaos.add_argument(
        "--fetch-failure",
        type=float,
        default=0.20,
        help="per-check crawler fetch failure probability (default 0.20)",
    )
    chaos.add_argument(
        "--subscriber-failure",
        type=float,
        default=0.05,
        help="per-delivery victim-subscriber failure probability "
        "(default 0.05)",
    )
    chaos.add_argument(
        "--no-faults",
        action="store_true",
        help="control run: identical workload with no injector wired",
    )
    chaos.add_argument(
        "--verify",
        action="store_true",
        help="replay the same seeds and assert byte-identical digests",
    )

    snapshot = sub.add_parser(
        "snapshot",
        help="write a partitioned WAL + ledger-snapshot tree (repro.durable)",
    )
    _add_common(snapshot)
    snapshot.add_argument(
        "--out",
        default="durable_out",
        help="output directory for the durable tree (default ./durable_out)",
    )
    snapshot.add_argument(
        "--partitions",
        type=int,
        default=4,
        help="detector worker shards (default 4)",
    )
    snapshot.add_argument(
        "--checkins",
        type=int,
        default=300,
        help="check-in storm length (default 300)",
    )
    snapshot.add_argument(
        "--snapshot-every",
        type=int,
        default=100,
        help="auto-checkpoint every N applied events per shard "
        "(default 100; 0 = final snapshot only)",
    )

    adversary = sub.add_parser(
        "adversary",
        help="coordinated cheater rings vs. the honeypot tier; "
        "catch-rate/false-positive scoreboard (E26)",
    )
    _add_common(adversary)
    adversary.add_argument(
        "--rings",
        type=int,
        default=3,
        help="coordinated rings to run (default 3)",
    )
    adversary.add_argument(
        "--ring-size",
        type=int,
        default=4,
        help="colluding accounts per ring, 2-16 (default 4)",
    )
    adversary.add_argument(
        "--targets-per-ring",
        type=int,
        default=24,
        help="target venues each ring samples from the crawl "
        "enumeration (default 24)",
    )
    adversary.add_argument(
        "--honeypot-density",
        type=float,
        default=0.01,
        help="honeypots seeded as a fraction of the venue count "
        "(default 0.01; 0 disables the tier)",
    )
    adversary.add_argument(
        "--honest-accounts",
        type=int,
        default=50,
        help="honest control-group accounts driven for the "
        "false-positive measurement (default 50)",
    )
    adversary.add_argument(
        "--verify",
        action="store_true",
        help="replay the same seeds and exit non-zero unless the "
        "catch/FP digests are byte-identical",
    )

    walreplay = sub.add_parser(
        "wal-replay",
        help="cold-replay a durable tree from disk; print shard digests",
    )
    walreplay.add_argument(
        "--dir",
        default="durable_out",
        help="durable tree written by `repro snapshot` "
        "(default ./durable_out)",
    )
    walreplay.add_argument(
        "--verify",
        action="store_true",
        help="exit non-zero unless the replayed digests match the "
        "tree's manifest",
    )
    return parser


def _build(args):
    from repro.workload import build_web_stack, build_world

    world = build_world(scale=args.scale, seed=args.seed)
    stack = build_web_stack(world, seed=args.seed + 1)
    return world, stack


def cmd_demo(args) -> int:
    """E1: one spoofed remote check-in."""
    from repro.attack.spoofing import build_emulator_attacker
    from repro.workload import build_world

    world = build_world(scale=args.scale, seed=args.seed)
    service = world.service
    wharf = service.create_venue(
        "Fisherman's Wharf Sign",
        GeoPoint(37.8080, -122.4177),
        city="San Francisco, CA",
    )
    user, emulator, channel = build_emulator_attacker(service)
    emulator.console.execute("geo fix -122.4177 37.8080")
    outcome = channel.check_in(wharf.venue_id)
    print(
        f"spoofed check-in at '{wharf.name}': status={outcome.status.value} "
        f"points={outcome.points} mayor={outcome.became_mayor}"
    )
    return 0 if outcome.rewarded else 1


def cmd_crawl(args) -> int:
    """Crawl a fresh world and print corpus statistics."""
    from repro.analysis.stats import compute_population_stats, format_stats_table
    from repro.crawler import crawl_full_site

    world, stack = _build(args)
    machines = [stack.network.create_egress() for _ in range(args.machines)]
    database, user_stats, venue_stats = crawl_full_site(
        stack.transport,
        machines,
        user_threads_per_machine=args.threads,
    )
    print(
        f"crawled {database.user_count()} users, "
        f"{database.venue_count()} venues "
        f"({user_stats.threads} user-crawl threads)"
    )
    for row in format_stats_table(compute_population_stats(database)):
        print(row)
    return 0


def cmd_attack(args) -> int:
    """Spiral tour plus mayor-special harvest."""
    from repro.attack import (
        CheatingCampaign,
        CheckInScheduler,
        TourPlanner,
        VenueCatalog,
        VenueProfileAnalyzer,
        build_emulator_attacker,
    )
    from repro.crawler import crawl_full_site
    from repro.geo.regions import city_by_name

    world, stack = _build(args)
    database, _, _ = crawl_full_site(
        stack.transport, [stack.network.create_egress()]
    )
    service = world.service
    _, _, channel = build_emulator_attacker(service)
    scheduler = CheckInScheduler(service.clock)
    planner = TourPlanner(VenueCatalog.from_crawl_database(database))
    tour = planner.plan_city_spiral(
        city_by_name("New York, NY").center, steps=args.steps
    )
    report = scheduler.execute(scheduler.build(tour), channel)
    print(
        f"tour: {report.rewarded}/{report.attempts} rewarded, "
        f"{report.detected} detected, {report.points} points"
    )
    targets = VenueProfileAnalyzer(database).easy_mayor_specials()
    if targets:
        campaign = CheatingCampaign(service.clock, channel, scheduler=scheduler)
        harvest = campaign.harvest(targets[: args.harvest])
        print(
            f"harvest: {harvest.mayorships_won} mayorships, "
            f"{len(harvest.specials)} specials, {harvest.detected} detected"
        )
    return 0 if report.detected == 0 else 1


def cmd_detect(args) -> int:
    """Run the three-factor cheater scan."""
    from repro.analysis.detection import CheaterDetector, DetectorConfig
    from repro.crawler import crawl_full_site

    world, stack = _build(args)
    database, _, _ = crawl_full_site(
        stack.transport, [stack.network.create_egress()]
    )
    detector = CheaterDetector(
        database, DetectorConfig(min_total_checkins=args.min_checkins)
    )
    suspects = detector.find_suspects()
    planted = {spec.user_id: spec.persona.value for spec in world.roster.all_specs()}
    print(f"{len(suspects)} suspects:")
    for report in suspects[:15]:
        tag = planted.get(report.user_id, "organic")
        print(
            f"  user {report.user_id:>6} score={report.combined_score:.2f} "
            f"cities={report.city_count:>3} [{tag}]"
        )
    return 0


def cmd_stream_detect(args) -> int:
    """Online cheater detection: suspects straight off the event bus."""
    import time

    from repro.analysis.detection import CheaterDetector, DetectorConfig
    from repro.lbsn.service import LbsnService
    from repro.stream import EventBus, SuspicionLedger
    from repro.workload import build_web_stack, build_world

    config = DetectorConfig(min_total_checkins=args.min_checkins)
    bus = EventBus()
    ledger = SuspicionLedger(config=config).attach(bus)
    service = LbsnService(event_bus=bus)

    started = time.perf_counter()
    world = build_world(scale=args.scale, seed=args.seed, service=service)
    elapsed = time.perf_counter() - started
    rate = bus.published / elapsed if elapsed > 0 else 0.0
    print(
        f"streamed {bus.published} events "
        f"({ledger.events_processed} check-ins) in {elapsed:.1f}s "
        f"— {rate:,.0f} events/s through the live pipeline"
    )

    planted = {
        spec.user_id: spec.persona.value for spec in world.roster.all_specs()
    }
    suspects = ledger.suspects()
    print(f"{len(suspects)} online suspects (no crawl, no re-scan):")
    for report in suspects[: args.top]:
        tag = planted.get(report.user_id, "organic")
        print(
            f"  user {report.user_id:>6} score={report.combined_score:.2f} "
            f"cities={report.city_count:>3} [{tag}]"
        )

    if args.no_parity:
        return 0

    from repro.crawler import crawl_full_site

    stack = build_web_stack(world, seed=args.seed + 1)
    database, _, _ = crawl_full_site(
        stack.transport, [stack.network.create_egress()]
    )
    offline_ids = {
        r.user_id for r in CheaterDetector(database, config).find_suspects()
    }
    online_ids = set(ledger.suspect_ids())
    overlap = offline_ids & online_ids
    parity = len(overlap) / len(offline_ids) if offline_ids else 1.0
    print(
        f"offline parity: {len(overlap)}/{len(offline_ids)} offline suspects "
        f"also flagged online ({parity:.0%}); "
        f"{len(online_ids - offline_ids)} online-only"
    )
    return 0 if parity >= 0.9 else 1


def cmd_defend(args) -> int:
    """Print the location-verifier comparison table."""
    from repro.defense import (
        AddressMappingVerifier,
        ClaimWorkload,
        DistanceBoundingVerifier,
        deploy_routers,
        evaluate_verifiers,
        format_evaluation_table,
    )
    from repro.geo.regions import city_by_name

    world, stack = _build(args)
    workload = ClaimWorkload(world.service, network=stack.network, seed=5)
    honest = workload.honest_claims(args.claims)
    attacker_at = city_by_name("Albuquerque, NM").center
    attacks = workload.spoofed_claims(args.claims, attacker_at=attacker_at)
    verifiers = [
        DistanceBoundingVerifier(seed=1),
        AddressMappingVerifier(stack.network.geoip),
        deploy_routers(world.service),
    ]
    for row in format_evaluation_table(
        evaluate_verifiers(verifiers, honest, attacks)
    ):
        print(row)
    return 0


def run_metrics_workload(
    scale: float,
    seed: int,
    registry=None,
    log=None,
):
    """Run one end-to-end instrumented workload; returns the registry.

    Exercises every instrumented layer so the registry ends up holding the
    full metric catalogue of ``docs/OBSERVABILITY.md`` (a test asserts the
    parity): an event-bus-connected service populated by the world
    builder (lbsn + store + stream + ledger), all of it logging through
    one :class:`~repro.obs.log.LogHub`, a two-pass crawl of its web
    surface (crawler + fetcher), an inline-defense pass (verdict counters
    + check latency + action tally), an Appendix-A-style worker pool, and
    a ``GET /metrics`` scrape over the simulated HTTP transport.

    Returns ``(registry, exposition, tracer)`` where ``exposition`` is the
    text served by the ``/metrics`` route at the end of the run.
    """
    import threading

    from repro.crawler import crawl_full_site
    from repro.crawler.worker import WorkerPool
    from repro.defense import (
        DefendedLbsnService,
        DeviceRegistry,
        DistanceBoundingVerifier,
        registry_locator,
    )
    from repro.geo.distance import destination_point
    from repro.lbsn.service import LbsnService
    from repro.obs import (
        LogHub,
        ProfiledSection,
        SamplingProfiler,
        SloEngine,
        default_registry,
        default_slos,
    )
    from repro.stream import EventBus, SuspicionLedger
    from repro.workload import build_web_stack, build_world

    registry = registry if registry is not None else default_registry()
    hub = log if log is not None else LogHub(metrics=registry)
    bus = EventBus(metrics=registry, log=hub)
    SuspicionLedger(metrics=registry, log=hub).attach(bus)
    service = LbsnService(event_bus=bus, metrics=registry, log=hub)
    world = build_world(scale=scale, seed=seed, service=service)
    stack = build_web_stack(world, seed=seed + 1)
    crawl_full_site(
        stack.transport,
        [stack.network.create_egress()],
        metrics=registry,
    )

    # An inline-defense pass: one honest claim (accepted) and one spoofed
    # claim (device left behind → rejected), so the per-defense verdict
    # counters, check-latency histogram, and action tally all populate.
    devices = DeviceRegistry()
    defended = DefendedLbsnService(
        service,
        DistanceBoundingVerifier(seed=seed + 2),
        registry_locator(devices),
        metrics=registry,
        log=hub,
    )
    venue = service.store.require_venue(world.venues.venue_ids[0])
    user = service.register_user("obs-defense-probe")
    devices.place(user.user_id, venue.location)
    defended.check_in(user.user_id, venue.venue_id, venue.location)
    devices.place(
        user.user_id, destination_point(venue.location, 90.0, 300_000.0)
    )
    defended.check_in(user.user_id, venue.venue_id, venue.location)

    # The Appendix-A worker pool, over a trivial in-memory work source.
    items = list(range(64))
    def drain() -> Optional[bool]:
        try:
            items.pop()
        except IndexError:
            return None
        return True

    WorkerPool(drain, threads=4, metrics=registry).run()

    # A short profiled burst: one helper thread spins inside a tagged
    # section while this thread drives synchronous sampling passes, so
    # the profiler families carry real samples (the catalogue parity
    # test only needs the families, but zero-sample telemetry is a poor
    # advertisement for a profiler).
    profiler = SamplingProfiler(metrics=registry)
    spinning = threading.Event()
    stop_spin = threading.Event()

    def _spin() -> None:
        with ProfiledSection(profiler, "obs.workload"):
            spinning.set()
            while not stop_spin.is_set():
                sum(i * i for i in range(128))

    spinner = threading.Thread(
        target=_spin, name="obs-profile-burst", daemon=True
    )
    spinner.start()
    spinning.wait(timeout=5.0)
    for _ in range(8):
        profiler.sample_once()
    stop_spin.set()
    spinner.join(timeout=5.0)

    # Two SLO evaluation passes (burn windows need at least two points),
    # read straight off the registry the workload just populated.
    engine = SloEngine(registry, default_slos(), metrics=registry, log=hub)
    engine.evaluate()
    engine.evaluate()

    # Scrape the snapshot the way an operator would: over HTTP.
    scrape = stack.transport.get("/metrics", stack.network.create_egress())
    exposition = (
        scrape.body if scrape.ok else registry.render_text()
    )
    return registry, exposition, service.tracer


def cmd_metrics(args) -> int:
    """Dump the snapshot of one instrumented run (text or JSON)."""
    registry, exposition, tracer = run_metrics_workload(
        scale=args.scale, seed=args.seed
    )
    if args.format == "json":
        from repro.obs import registry_to_json

        # The same serializer behind GET /debug/vars: one parser covers
        # the CLI, the web route, and the recorder's exports.
        print(registry_to_json(registry, indent=2))
        return 0
    print(exposition, end="")
    if tracer is not None and args.slow_spans > 0:
        slow = tracer.recent_slow(args.slow_spans)
        if slow:
            print(f"# recent slow spans (worst-case ring, {len(slow)} shown)")
            for record in slow:
                print(f"#   {record}")
    return 0


def _terminal_width(default: int = 100) -> int:
    """Current terminal width (falls back when not a tty)."""
    import shutil

    return shutil.get_terminal_size((default, 24)).columns


def _format_top_rows(
    recorder, limit: int, width: Optional[int] = None
) -> List[str]:
    """The dashboard body: busiest series by current per-second rate.

    Every line is clamped to ``width`` columns so a refresh on a narrow
    terminal never wraps — wrapped rows used to double the frame height
    and scroll earlier refreshes off screen.
    """
    if width is None:
        width = _terminal_width()
    width = max(20, width)
    rows = []
    for name, labelvalues in recorder.series_keys():
        latest = recorder.latest(name, labelvalues)
        if latest is None:
            continue
        rate = recorder.rate_per_s(name, labelvalues)
        label = name if not labelvalues else (
            name + "{" + ",".join(labelvalues) + "}"
        )
        rows.append((rate, latest[1], label))
    rows.sort(key=lambda row: (-row[0], row[2]))
    lines = [f"{'rate/s':>12}  {'value':>14}  series"]
    for rate, value, label in rows[:limit]:
        lines.append(f"{rate:>12.1f}  {value:>14.1f}  {label}")
    return [
        line if len(line) <= width else line[: width - 1] + "…"
        for line in lines
    ]


def _format_health_panel(report, width: Optional[int] = None) -> List[str]:
    """The ``repro top`` SLO panel: health score + the worst objective."""
    if width is None:
        width = _terminal_width()
    width = max(20, width)
    worst = report.status(report.worst) if report.worst else None
    lines = [f"health {report.health_score:5.1f}/100"]
    if worst is not None:
        short = max(worst.burn_rates.values()) if worst.burn_rates else 0.0
        lines[0] += (
            f" | worst {worst.name}: budget "
            f"{worst.budget_remaining:.0%}, burn {short:.1f}x, "
            f"state {worst.state}"
        )
    alerting = [s.name for s in report.statuses if s.state != "ok"]
    if alerting:
        lines.append("alerting: " + ", ".join(alerting))
    return [
        line if len(line) <= width else line[: width - 1] + "…"
        for line in lines
    ]


def cmd_top(args) -> int:
    """Watch an instrumented workload live: rates, not just totals."""
    import threading
    import time as _time

    from repro.obs import (
        MetricsRegistry,
        SloEngine,
        TimeSeriesRecorder,
        default_slos,
    )

    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(registry)
    engine = SloEngine(registry, default_slos(), metrics=registry)
    done = threading.Event()
    failed = []

    def work() -> None:
        try:
            run_metrics_workload(
                scale=args.scale, seed=args.seed, registry=registry
            )
        except Exception as exc:  # pragma: no cover - surfaced below
            failed.append(exc)
        finally:
            done.set()

    worker = threading.Thread(target=work, name="top-workload", daemon=True)
    recorder.sample()
    worker.start()
    refreshes = 0
    width = _terminal_width()
    while not done.is_set() or refreshes == 0:
        done.wait(args.interval)
        recorder.sample()
        report = engine.evaluate()
        refreshes += 1
        print(f"--- repro top: refresh {refreshes} "
              f"({recorder.samples_taken} samples) ---")
        for line in _format_health_panel(report, width):
            print(line)
        for line in _format_top_rows(recorder, args.rows, width):
            print(line)
        if args.refreshes and refreshes >= args.refreshes:
            break
    worker.join(timeout=60.0)
    _time.sleep(0.0)  # yield to let daemon threads settle before exit
    if failed:
        print(f"workload failed: {failed[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    """Sampling-profile the instrumented workload; print the hotspots."""
    import threading

    from repro.obs import MetricsRegistry, SamplingProfiler

    registry = MetricsRegistry()
    profiler = SamplingProfiler(hz=args.hz, metrics=registry)
    done = threading.Event()
    failed = []

    def work() -> None:
        try:
            run_metrics_workload(
                scale=args.scale, seed=args.seed, registry=registry
            )
        except Exception as exc:  # pragma: no cover - surfaced below
            failed.append(exc)
        finally:
            done.set()

    worker = threading.Thread(
        target=work, name="profile-workload", daemon=True
    )
    profiler.start()
    worker.start()
    done.wait(timeout=args.seconds)
    profiler.stop()
    worker.join(timeout=60.0)
    snapshot = profiler.snapshot()
    print(
        f"profiled {snapshot.elapsed_s:.2f}s at {args.hz:g} Hz: "
        f"{snapshot.samples} sampling passes, "
        f"{snapshot.stack_samples} stack samples, "
        f"{len(snapshot.stacks)} unique stacks, "
        f"{snapshot.dropped} dropped"
    )
    top = snapshot.top(args.top)
    if top:
        name_width = max(len(name) for name, _, _ in top)
        print(f"{'self':>8}  {'total':>8}  function")
        for name, self_count, total_count in top:
            print(
                f"{self_count:>8}  {total_count:>8}  "
                f"{name:<{name_width}}"
            )
    if args.collapsed:
        from pathlib import Path

        path = Path(args.collapsed)
        path.write_text(snapshot.collapsed())
        print(f"wrote collapsed stacks to {path}")
    if failed:
        print(f"workload failed: {failed[0]}", file=sys.stderr)
        return 1
    return 0 if snapshot.stack_samples > 0 else 1


def cmd_slo(args) -> int:
    """Evaluate the default objectives against one instrumented run."""
    from repro.obs import MetricsRegistry, SloEngine, default_slos

    registry = MetricsRegistry()
    run_metrics_workload(scale=args.scale, seed=args.seed, registry=registry)
    engine = SloEngine(registry, default_slos(), metrics=registry)
    engine.evaluate()
    report = engine.evaluate()
    name_width = max(len(s.name) for s in report.statuses)
    print(
        f"{'objective':<{name_width}}  {'target':>7}  {'compliance':>10}  "
        f"{'budget':>7}  {'burn':>8}  state"
    )
    for status in report.statuses:
        burn = max(status.burn_rates.values()) if status.burn_rates else 0.0
        print(
            f"{status.name:<{name_width}}  {status.target:>6.1%}  "
            f"{status.compliance:>9.2%}  {status.budget_remaining:>6.0%}  "
            f"{burn:>8.2f}  {status.state}"
        )
    print(
        f"health score: {report.health_score:.1f}/100 "
        f"(worst: {report.worst})"
    )
    return 0


def cmd_figures(args) -> int:
    """Export every figure's data series as CSV files."""
    from pathlib import Path

    from repro.analysis.figures import all_figures, fig_3_5_tour
    from repro.attack.tour import TourPlanner, VenueCatalog
    from repro.crawler import crawl_full_site
    from repro.geo.regions import city_by_name

    world, stack = _build(args)
    database, _, _ = crawl_full_site(
        stack.transport, [stack.network.create_egress()]
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    figures = all_figures(
        database,
        cheater_user_id=(
            world.roster.mega_cheater.user_id
            if world.roster.mega_cheater
            else None
        ),
        normal_user_id=(
            world.roster.power_users[0].user_id
            if world.roster.power_users
            else None
        ),
    )
    planner = TourPlanner(VenueCatalog.from_crawl_database(database))
    tour = planner.plan_city_spiral(
        city_by_name("New York, NY").center, steps=40
    )
    figures.append(fig_3_5_tour(tour))
    for index, figure in enumerate(figures):
        stem = figure.figure.replace("/", "-").replace(".", "_")
        path = out / f"fig_{stem}_{index}.csv"
        path.write_text(figure.to_csv())
        print(f"wrote {path} ({figure.rows} rows) — {figure.title}")
    return 0


def cmd_chaos(args) -> int:
    """E22: the seeded fault storm, with invariant checks."""
    from repro.obs.log import LogHub
    from repro.obs.metrics import MetricsRegistry
    from repro.workload.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        scale=args.scale,
        seed=args.seed,
        fault_seed=args.fault_seed,
        checkins=args.checkins,
        fetch_failure=args.fetch_failure,
        subscriber_failure=args.subscriber_failure,
        faults_enabled=not args.no_faults,
    )
    metrics = MetricsRegistry()
    log = LogHub(metrics=metrics)
    report = run_chaos(config, metrics=metrics, log=log)
    crawl = report.crawl
    print(
        f"chaos seed={config.seed}/{config.fault_seed} "
        f"storm={'off' if args.no_faults else 'on'} "
        f"({report.wall_seconds:.2f}s wall, simulated time throughout)"
    )
    if crawl is not None:
        print(
            f"  crawl: {crawl.hits} hits / {crawl.failures} failures "
            f"({crawl.transient_failures} transient), "
            f"aborted={report.crawl_aborted}, "
            f"breaker opens={report.crawler_breaker_opens}"
        )
    print(
        f"  commits: {report.checkins_returned}/"
        f"{report.checkins_attempted} returned, "
        f"{report.commit_retries} retries, "
        f"{report.commit_exhausted} exhausted"
    )
    print(
        f"  bus: victim errors={report.victim_errors} "
        f"(isolated), ledger suspects={len(report.ledger_suspects)}"
    )
    print(
        f"  breaker drill: opened after "
        f"{report.breaker_failures_to_open} failures, "
        f"half-open={report.breaker_half_opened}, "
        f"re-opened on probe failure="
        f"{report.breaker_reopened_on_probe_failure}, "
        f"closed={report.breaker_closed_after_probe}"
    )
    statuses = ", ".join(
        f"{status}:{count}"
        for status, count in sorted(report.web_statuses.items())
    )
    print(
        f"  web: [{statuses}] metrics_ok={report.metrics_route_ok} "
        f"vars_ok={report.debug_vars_route_ok} "
        f"logs_ok={report.debug_logs_route_ok}"
    )
    fired = ", ".join(
        f"{point}={count}"
        for point, count in sorted(report.faults_fired.items())
    )
    print(f"  faults fired: {fired or '(none)'}")
    print(f"  fault sequence digest: {report.fault_sequence_digest or '-'}")
    print(f"  committed state digest: {report.committed_state_digest}")
    ok = report.commit_exhausted == 0 and not report.crawl_aborted
    if args.verify:
        replay = run_chaos(config)
        seq_ok = (
            replay.fault_sequence_digest == report.fault_sequence_digest
        )
        state_ok = (
            replay.committed_state_digest == report.committed_state_digest
        )
        suspects_ok = replay.ledger_suspects == report.ledger_suspects
        print(
            f"  replay: fault sequence identical={seq_ok}, "
            f"end state identical={state_ok}, "
            f"ledger suspects identical={suspects_ok}"
        )
        if not (seq_ok and state_ok and suspects_ok):
            print("  VERIFY FAILED: replay digests diverged", file=sys.stderr)
        ok = ok and seq_ok and state_ok and suspects_ok
    return 0 if ok else 1


def cmd_snapshot(args) -> int:
    """Write a partitioned WAL + snapshot tree and its manifest."""
    from repro.workload.durable import DurableConfig, write_durable_tree

    config = DurableConfig(
        scale=args.scale,
        seed=args.seed,
        partitions=args.partitions,
        checkins=args.checkins,
        snapshot_every=args.snapshot_every,
    )
    report = write_durable_tree(config, args.out)
    print(
        f"durable tree at {args.out}: {config.partitions} partitions, "
        f"{report.events_published} events "
        f"(watermark {report.watermark}), "
        f"{report.checkins_returned}/{report.checkins_attempted} "
        f"storm check-ins ({report.wall_seconds:.2f}s wall)"
    )
    print(
        f"  wal: {report.wal_appended} records, {report.wal_bytes} bytes, "
        f"{report.wal_segments} segments, {report.wal_fsyncs} fsyncs"
    )
    print(f"  snapshots: {report.snapshots_written} shard checkpoints")
    for partition, digest in enumerate(report.victim_digests):
        print(f"  partition-{partition:02d} digest: {digest}")
    print(f"  combined digest: {report.victim_combined}")
    return 0


def cmd_adversary(args) -> int:
    """E26: coordinated rings vs. honeypots, with the scoreboard."""
    from repro.adversary import AdversaryConfig, run_adversary
    from repro.obs.log import LogHub
    from repro.obs.metrics import MetricsRegistry

    config = AdversaryConfig(
        scale=args.scale,
        seed=args.seed,
        rings=args.rings,
        ring_size=args.ring_size,
        targets_per_ring=args.targets_per_ring,
        honeypot_density=args.honeypot_density,
        honest_accounts=args.honest_accounts,
    )
    metrics = MetricsRegistry()
    log = LogHub(metrics=metrics)
    report = run_adversary(config, metrics=metrics, log=log)
    print(
        f"adversary seed={config.seed} scale={config.scale} "
        f"({report.wall_seconds:.2f}s wall, simulated time throughout)"
    )
    print(
        f"  board: {report.honeypots_seeded} honeypots seeded, "
        f"target pool {report.target_pool} "
        f"({report.honeypot_targets} honeypots in pool)"
    )
    print(
        f"  rings: {config.rings} x {config.ring_size} accounts, "
        f"corroboration {report.ring_corroboration:.2f}, "
        f"{report.honeypot_checkins} honeypot check-ins observed"
    )
    print(
        f"  catch rate: {report.catch_rate:.3f} "
        f"({len(report.flagged_ring_accounts)}/"
        f"{len(report.ring_accounts)} ring accounts flagged)"
    )
    print(
        f"  false positives: {report.false_positive_rate:.3f} "
        f"({len(report.flagged_honest_accounts)}/"
        f"{len(report.honest_accounts)} honest accounts, "
        f"{report.honest_checkins} honest check-ins driven)"
    )
    print(
        f"  inline refusals: {report.post_flag_refusals}/"
        f"{report.post_flag_attempts} post-flag attempts refused"
    )
    print(f"  catch digest: {report.catch_digest}")
    print(f"  fp digest: {report.fp_digest}")
    ok = True
    if args.verify:
        replay = run_adversary(config)
        catch_ok = replay.catch_digest == report.catch_digest
        fp_ok = replay.fp_digest == report.fp_digest
        print(
            f"  replay: catch digest identical={catch_ok}, "
            f"fp digest identical={fp_ok}"
        )
        if not (catch_ok and fp_ok):
            print("  VERIFY FAILED: replay digests diverged", file=sys.stderr)
        ok = catch_ok and fp_ok
    return 0 if ok else 1


def cmd_wal_replay(args) -> int:
    """Cold-replay a durable tree; optionally verify against its manifest."""
    from pathlib import Path

    from repro.durable.snapshot import SnapshotError
    from repro.durable.wal import WalCorruptionError
    from repro.workload.durable import replay_durable_tree

    if not Path(args.dir).is_dir():
        print(f"no durable tree at {args.dir}", file=sys.stderr)
        return 1
    try:
        result = replay_durable_tree(args.dir)
    except (WalCorruptionError, SnapshotError) as exc:
        print(f"REPLAY FAILED: {exc}", file=sys.stderr)
        return 1
    print(
        f"replayed {result['partitions']} partition(s) from {args.dir}"
    )
    for partition, digest in enumerate(result["digests"]):
        print(f"  partition-{partition:02d} digest: {digest}")
    print(f"  combined digest: {result['combined_digest']}")
    if not args.verify:
        return 0
    if result["manifest"] is None:
        print(
            "VERIFY FAILED: tree has no manifest.json "
            "(write one with `repro snapshot`)",
            file=sys.stderr,
        )
        return 1
    if not result["matches_manifest"]:
        print(
            "VERIFY FAILED: replayed combined digest "
            f"{result['combined_digest']} != manifest "
            f"{result['manifest'].get('combined_digest')}",
            file=sys.stderr,
        )
        return 1
    print("  verify: replayed digests match the manifest")
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "crawl": cmd_crawl,
    "attack": cmd_attack,
    "detect": cmd_detect,
    "stream-detect": cmd_stream_detect,
    "defend": cmd_defend,
    "metrics": cmd_metrics,
    "top": cmd_top,
    "profile": cmd_profile,
    "slo": cmd_slo,
    "figures": cmd_figures,
    "chaos": cmd_chaos,
    "snapshot": cmd_snapshot,
    "adversary": cmd_adversary,
    "wal-replay": cmd_wal_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
