"""E6 — §4.2 / Fig 4.2: average badges vs. total check-ins.

The honest curve rises steadily; heavy accounts whose check-ins were
invalidated sit far below it, and the ">= 5000" extreme club splits into
mayored power users and mayorless caught cheaters.
"""

from repro.analysis.reward_rate import (
    badges_vs_total_curve,
    extreme_club,
    low_reward_users,
)


def test_e6_badges_vs_total(bench_crawl, bench_world, report_out, benchmark):
    database, _, _ = bench_crawl

    def compute():
        return badges_vs_total_curve(database, bucket_width=100)

    curve = benchmark(compute)
    rows = ["Fig 4.2 — total check-ins (bucket)  avg badges  users"]
    for point in curve:
        bar = "#" * min(60, int(point.average_badges))
        rows.append(
            f"{point.total_checkins:>10}  {point.average_badges:>8.1f}  "
            f"{point.users:>6}  {bar}"
        )

    low = low_reward_users(database, min_total=500, max_badges=15)
    rows.append(
        f"heavy accounts (>=500) with <=15 badges: {len(low)} "
        "(paper: 'many users with more than 1000 check-ins only have "
        "less than 10 badges')"
    )
    caught_ids = {s.user_id for s in bench_world.roster.caught_cheaters}
    caught_low = len(caught_ids & {u.user_id for u in low})
    rows.append(
        f"caught-cheater personas among them: "
        f"{caught_low}/{len(caught_ids)}"
    )

    # The extreme club at persona volume for this world scale.
    threshold = min(
        database.user(uid).total_checkins for uid in caught_ids
    )
    club = extreme_club(database, min_total=threshold)
    rows.append(
        f"extreme club (>= {threshold} check-ins): {club.size} users, "
        f"{len(club.with_mayorships)} with mayorships / "
        f"{len(club.without_mayorships)} without"
    )
    rows.append(
        "(paper: 11 users >= 5000 check-ins, split 6 with concentrated "
        "mayorships / 5 caught cheaters with none)"
    )
    report_out(
        "E6_badges",
        rows,
        summary={
            "curve_buckets_count": len(curve),
            "peak_mean_badges": round(
                max(p.average_badges for p in curve), 1
            ),
            "low_reward_heavy_users_count": len(low),
            "caught_cheaters_count": len(caught_ids),
            "caught_cheaters_low_reward_count": caught_low,
            "extreme_club_min_checkins": threshold,
            "extreme_club_users_count": club.size,
            "extreme_club_with_mayorships_count": len(club.with_mayorships),
            "extreme_club_without_mayorships_count": len(
                club.without_mayorships
            ),
        },
    )

    # Shape checks: rising early curve; caught cheaters flagged low.
    assert curve[0].average_badges < max(p.average_badges for p in curve)
    assert caught_ids <= {u.user_id for u in low}
