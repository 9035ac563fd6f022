"""E8 — the inline population statistics (§2.1, §3.2, §4.2).

Every number the thesis quotes about its crawled corpus, recomputed from
our crawl at the bench scale, with the paper's value alongside.
"""

from repro.analysis.stats import compute_population_stats, format_stats_table


def test_e8_population_statistics(bench_crawl, bench_world, report_out, benchmark):
    database, _, _ = bench_crawl

    stats = benchmark(lambda: compute_population_stats(database))
    rows = [f"world scale: {bench_world.scale} of the 2010 corpus", ""]
    rows += format_stats_table(stats)
    farmer = bench_world.roster.mayor_farmer
    farmer_row = database.user(farmer.user_id)
    rows.append(
        f"mayor farmer: {farmer_row.total_mayors} mayorships from "
        f"{farmer_row.total_checkins} check-ins "
        "(paper: 865 mayorships from 1,265 check-ins)"
    )
    report_out(
        "E8_population",
        rows,
        summary={
            "users_count": stats.users,
            "venues_count": stats.venues,
            "recent_checkin_records_count": stats.recent_checkin_records,
            "zero_checkin_users_ratio": round(stats.zero_checkin_fraction, 4),
            "light_checkin_users_ratio": round(
                stats.light_checkin_fraction, 4
            ),
            "heavy_users_ratio": round(stats.heavy_user_fraction, 4),
            "users_5000_plus_count": stats.users_with_5000_plus,
            "username_users_ratio": round(stats.username_fraction, 4),
            "venues_one_checkin_count": stats.venues_with_one_checkin,
            "venues_one_visitor_count": stats.venues_with_one_visitor,
            "mayor_only_specials_ratio": round(
                stats.mayor_only_special_fraction, 4
            ),
            "users_with_mayorships_count": stats.users_with_mayorships,
            "venues_with_mayors_count": stats.venues_with_mayors,
            "mayorships_per_mayor_mean": round(
                stats.average_mayorships_per_mayor, 2
            ),
            "mayor_farmer_mayorships_count": farmer_row.total_mayors,
            "mayor_farmer_checkins_count": farmer_row.total_checkins,
        },
    )

    # The anchors the generator is calibrated to.
    assert abs(stats.zero_checkin_fraction - 0.363) < 0.04
    assert abs(stats.light_checkin_fraction - 0.204) < 0.04
    assert stats.under_six_fraction > 0.5
    assert abs(stats.username_fraction - 0.261) < 0.05
    assert stats.mayor_only_special_fraction > 0.9
    assert stats.venues_with_one_visitor > stats.venues_with_one_checkin
    assert 0.0 < stats.heavy_user_fraction < 0.01
    assert farmer_row.total_mayors / max(1, farmer_row.total_checkins) > 0.5
