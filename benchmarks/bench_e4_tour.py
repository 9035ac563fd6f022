"""E4 — §3.3 / Fig 3.5: the automated cheating tour.

25 consecutive spoofed check-ins along a right-turning spiral (0.005
degrees per step, 5-minute base intervals), snapped to crawled venues, with
ZERO cheater-code detections — plus the ablations DESIGN.md calls out:
which rule binds, and how step size trades against drift.
"""

import pytest
from conftest import ascii_scatter

from repro.attack.scheduler import CheckInScheduler
from repro.attack.spoofing import build_emulator_attacker
from repro.attack.tour import TourPlanner, VenueCatalog
from repro.geo.regions import city_by_name
from repro.lbsn.cheater_code import CheaterCode, CheaterCodeConfig
from repro.lbsn.service import LbsnService
from repro.workload import build_world

TOUR_CITY = "New York, NY"  # densest venue pool in the bench world


@pytest.fixture(scope="module")
def tour_world():
    # A fresh, mutable world for the attacker to roam.
    return build_world(scale=0.001, seed=35)


def run_tour(world, steps=40, step_deg=0.005, cheater_config=None):
    service = world.service
    if cheater_config is not None:
        service.cheater_code = CheaterCode(cheater_config)
    catalog = VenueCatalog.from_service(service)
    planner = TourPlanner(catalog)
    start = city_by_name(TOUR_CITY).center
    tour = planner.plan_city_spiral(start, steps=steps, step_deg=step_deg)
    _, _, channel = build_emulator_attacker(service)
    scheduler = CheckInScheduler(service.clock)
    report = scheduler.execute(scheduler.build(tour), channel)
    return tour, report


def test_e4_spiral_tour_undetected(tour_world, report_out, benchmark):
    tour, report = benchmark.pedantic(
        lambda: run_tour(tour_world), rounds=1, iterations=1
    )
    rows = [
        f"Fig 3.5 — spiral tour through {TOUR_CITY}:",
        f"stops planned: {len(tour.stops)}",
        f"check-ins attempted: {report.attempts}",
        f"rewarded: {report.rewarded}   detected: {report.detected}",
        f"points earned: {report.points}   badges: {len(report.badges)}",
        f"mean intended-vs-actual drift: {tour.mean_drift_m():.0f} m",
        "(paper: 25 check-ins, zero detections, rewards collected; venues "
        "'not very far from the desired location' in a dense city)",
        "",
        "intended (+) vs actual (*) path:",
    ]
    intended = [(s.intended.longitude, s.intended.latitude) for s in tour.stops]
    actual = [
        (s.venue_location.longitude, s.venue_location.latitude)
        for s in tour.stops
    ]
    rows += ascii_scatter(actual + intended, width=60, height=20)
    report_out(
        "E4_tour",
        rows,
        summary={
            "stops_planned_count": len(tour.stops),
            "checkins_attempted_count": report.attempts,
            "checkins_rewarded_count": report.rewarded,
            "checkins_detected_count": report.detected,
            "points_earned_count": report.points,
            "badges_earned_count": len(report.badges),
            "mean_drift_m": round(tour.mean_drift_m(), 1),
        },
    )
    assert report.attempts >= 25
    assert report.detected == 0
    assert report.rewarded == report.attempts


def test_e4_ablation_which_rule_binds(report_out, benchmark):
    """Each cheater-code rule against the attack style it exists to stop:
    a mall blitz (many venues in one 150 m square, 40 s apart), teleport
    hopping (cross-country venues, 10 min apart), and same-venue hammering
    (one venue every 10 min)."""
    from repro.geo.coordinates import GeoPoint
    from repro.geo.distance import destination_point

    def run_style(config, style):
        service = LbsnService()
        service.cheater_code = CheaterCode(config)
        _, _, channel = build_emulator_attacker(service)
        outcomes = {"valid": 0, "flagged": 0, "rejected": 0}
        if style == "mall blitz":
            anchor = GeoPoint(40.75, -73.98)
            venues = [
                service.create_venue(
                    f"Mall Shop {index}",
                    destination_point(anchor, index * 33.0, 60.0),
                )
                for index in range(10)
            ]
            gap = 40.0
        elif style == "teleport":
            from repro.geo.regions import US_CITIES

            venues = [
                service.create_venue(f"City Venue {index}", city.center)
                for index, city in enumerate(US_CITIES[:10])
            ]
            gap = 600.0
        else:  # same-venue hammering
            venue = service.create_venue("Hot Spot", GeoPoint(40.75, -73.98))
            venues = [venue] * 10
            gap = 600.0
        for venue in venues:
            service.clock.advance(gap)
            channel.set_location(venue.location)
            outcome = channel.check_in(venue.venue_id)
            outcomes[outcome.status.value] += 1
        return outcomes

    configs = {
        "all rules on": CheaterCodeConfig(),
        "no rapid-fire": CheaterCodeConfig(enable_rapid_fire=False),
        "no speed rule": CheaterCodeConfig(enable_superhuman=False),
        "no frequent rule": CheaterCodeConfig(enable_frequent=False),
        "no rules at all": CheaterCodeConfig(
            enable_frequent=False,
            enable_superhuman=False,
            enable_rapid_fire=False,
            shadow_ban_threshold=0,
        ),
    }

    def sweep():
        return {
            (style, label): run_style(config, style)
            for style in ("mall blitz", "teleport", "same venue")
            for label, config in configs.items()
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = ["attack style  x  rule config  ->  outcomes of 10 attempts:"]
    for (style, label), outcomes in results.items():
        rows.append(
            f"{style:<12} | {label:<17} valid={outcomes['valid']:>2} "
            f"flagged={outcomes['flagged']:>2} "
            f"rejected={outcomes['rejected']:>2}"
        )
    rows.append(
        "(each rule binds exactly its attack style: rapid-fire stops the "
        "mall blitz, the speed rule stops teleporting, the one-hour rule "
        "stops same-venue hammering; with everything off, all 30 land)"
    )
    summary = {}
    for (style, label), outcomes in results.items():
        summary.setdefault(style.replace(" ", "_"), {})[
            label.replace(" ", "_").replace("-", "_")
        ] = {f"{status}_count": count for status, count in outcomes.items()}
    report_out("E4_ablation_rules", rows, summary=summary)

    assert results[("mall blitz", "all rules on")]["flagged"] > 0
    assert results[("mall blitz", "no rapid-fire")]["flagged"] == 0
    assert results[("teleport", "all rules on")]["flagged"] >= 8
    assert results[("teleport", "no speed rule")]["flagged"] == 0
    # Same-venue hammering at 10-min spacing: one check-in per hour gets
    # through (the rule's exact intent); the rest are refused.
    assert results[("same venue", "all rules on")]["rejected"] >= 7
    assert results[("same venue", "no frequent rule")]["rejected"] == 0
    for style in ("mall blitz", "teleport", "same venue"):
        outcome = results[(style, "no rules at all")]
        assert outcome["valid"] == 10, style


def test_e4_ablation_step_size_vs_drift(report_out, benchmark):
    """§3.3: 'To move across large distances, we should increase the
    moving distance of each step, which will reduce the probability that
    we drift too far from the desired direction.'"""

    def sweep():
        world = build_world(scale=0.001, seed=37)
        results = []
        for step_deg in (0.002, 0.005, 0.01, 0.02):
            catalog = VenueCatalog.from_service(world.service)
            planner = TourPlanner(catalog)
            tour = planner.plan_city_spiral(
                city_by_name(TOUR_CITY).center, steps=30, step_deg=step_deg
            )
            step_m = step_deg * 111_000.0
            results.append(
                (step_deg, tour.mean_drift_m(), tour.mean_drift_m() / step_m)
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = ["step_deg   mean_drift_m   drift/step ratio"]
    for step_deg, drift, ratio in results:
        rows.append(f"{step_deg:8.3f}   {drift:12.0f}   {ratio:16.2f}")
    rows.append("(relative drift falls as the step grows, as §3.3 argues)")
    report_out(
        "E4_ablation_step_size",
        rows,
        summary={
            f"step_{step_deg:.3f}_deg": {
                "mean_drift_m": round(drift, 1),
                "drift_per_step_ratio": round(ratio, 4),
            }
            for step_deg, drift, ratio in results
        },
    )
    assert results[-1][2] < results[0][2]
