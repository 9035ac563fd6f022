"""E5 — §4.1 / Fig 4.1: average recent check-ins vs. total check-ins."""

from repro.analysis.activity import (
    high_ratio_users,
    recent_vs_total_curve,
    trackable_users,
)


def test_e5_recent_vs_total_curve(bench_crawl, bench_world, report_out, benchmark):
    database, _, _ = bench_crawl

    def compute():
        return recent_vs_total_curve(database, bucket_width=50)

    curve = benchmark(compute)
    rows = ["Fig 4.1 — total check-ins (bucket)  avg recent check-ins  users"]
    for point in curve:
        bar = "#" * min(60, int(point.average_recent))
        rows.append(
            f"{point.total_checkins:>10}  {point.average_recent:>8.1f}  "
            f"{point.users:>6}  {bar}"
        )
    count, average = trackable_users(database, min_total=500, max_total=2_000)
    rows.append(
        f"users with 500-2000 totals: {count}, avg recent check-ins "
        f"{average:.0f} (paper: 25,074 users, ~100 recent check-ins)"
    )
    suspects = high_ratio_users(database, min_total=300, min_ratio=0.4)
    rows.append(
        f"high recent/total ratio suspects (>=0.4 at >=300 total): "
        f"{len(suspects)}"
    )
    mega = bench_world.roster.mega_cheater.user_id
    mega_suspected = mega in {u.user_id for u in suspects}
    rows.append(f"mega cheater among them: {mega_suspected}")
    report_out(
        "E5_recent_vs_total",
        rows,
        summary={
            "curve_buckets_count": len(curve),
            "trackable_users_count": count,
            "trackable_mean_recent_checkins": round(average, 1),
            "high_ratio_suspects_count": len(suspects),
            "mega_cheater_suspected": mega_suspected,
        },
    )

    # Shape: the curve rises with totals (heavier users, more list slots).
    assert len(curve) >= 4
    first_third = curve[: len(curve) // 3]
    last_third = curve[-len(curve) // 3 :]
    assert (
        sum(p.average_recent for p in last_third) / len(last_third)
        > sum(p.average_recent for p in first_third) / len(first_third)
    )
    assert mega in {u.user_id for u in suspects}
