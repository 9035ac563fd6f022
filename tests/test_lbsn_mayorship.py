"""Unit tests for the 60-day mayorship rule."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coordinates import GeoPoint
from repro.lbsn.mayorship import (
    MAYORSHIP_WINDOW_DAYS,
    MayorWindow,
    checkin_days_by_user,
    decide_mayor,
)
from repro.lbsn.models import CheckIn, CheckInStatus
from repro.simnet.clock import SECONDS_PER_DAY

LOCATION = GeoPoint(40.0, -100.0)
_counter = [0]


def checkin(user_id, day, status=CheckInStatus.VALID, hour=12.0):
    _counter[0] += 1
    return CheckIn(
        checkin_id=_counter[0],
        user_id=user_id,
        venue_id=1,
        timestamp=day * SECONDS_PER_DAY + hour * 3_600.0,
        reported_location=LOCATION,
        status=status,
    )


class TestDayCounting:
    def test_multiple_checkins_one_day_count_once(self):
        # §2.1: "Only the number of days with check-ins ... are counted,
        # without consideration of how many check-ins occurred per day."
        history = [
            checkin(1, 5, hour=9.0),
            checkin(1, 5, hour=12.0),
            checkin(1, 5, hour=18.0),
        ]
        now = 10 * SECONDS_PER_DAY
        assert checkin_days_by_user(history, now) == {1: 1}

    def test_distinct_days_counted(self):
        history = [checkin(1, d) for d in (3, 4, 5)]
        now = 10 * SECONDS_PER_DAY
        assert checkin_days_by_user(history, now) == {1: 3}

    def test_flagged_checkins_do_not_count(self):
        history = [
            checkin(1, 5),
            checkin(1, 6, status=CheckInStatus.FLAGGED),
        ]
        now = 10 * SECONDS_PER_DAY
        assert checkin_days_by_user(history, now) == {1: 1}

    def test_window_excludes_old_checkins(self):
        history = [checkin(1, 0), checkin(1, 100)]
        now = (100 + MAYORSHIP_WINDOW_DAYS + 5) * SECONDS_PER_DAY
        assert checkin_days_by_user(history, now) == {}

    def test_window_boundary_inclusive_inside(self):
        history = [checkin(1, 50)]
        now = (50 + MAYORSHIP_WINDOW_DAYS) * SECONDS_PER_DAY - 3_600.0
        assert checkin_days_by_user(history, now) == {1: 1}


class TestDecideMayor:
    def test_single_checkin_wins_empty_venue(self):
        # §3.4: "only one check-in is enough to get the mayorship" at a
        # venue with no other visitors.
        history = [checkin(1, 5)]
        decision = decide_mayor(history, 6 * SECONDS_PER_DAY, None)
        assert decision.mayor_id == 1
        assert decision.changed

    def test_most_days_wins(self):
        history = [checkin(1, d) for d in (1, 2, 3)] + [
            checkin(2, d) for d in (4, 5)
        ]
        decision = decide_mayor(history, 10 * SECONDS_PER_DAY, None)
        assert decision.mayor_id == 1

    def test_incumbent_retains_on_tie(self):
        # §2.1's vulnerability: a daily-check-in incumbent is unbeatable.
        history = [checkin(1, d) for d in (1, 2)] + [
            checkin(2, d) for d in (3, 4)
        ]
        decision = decide_mayor(history, 10 * SECONDS_PER_DAY, incumbent_id=1)
        assert decision.mayor_id == 1
        assert not decision.changed

    def test_challenger_with_strictly_more_days_takes_over(self):
        history = [checkin(1, 1)] + [checkin(2, d) for d in (2, 3, 4)]
        decision = decide_mayor(history, 10 * SECONDS_PER_DAY, incumbent_id=1)
        assert decision.mayor_id == 2
        assert decision.changed
        assert decision.previous_mayor_id == 1

    def test_no_valid_checkins_no_mayor(self):
        history = [checkin(1, 5, status=CheckInStatus.FLAGGED)]
        decision = decide_mayor(history, 10 * SECONDS_PER_DAY, incumbent_id=None)
        assert decision.mayor_id is None

    def test_mayor_ages_out_of_window(self):
        history = [checkin(1, 0)]
        now = (MAYORSHIP_WINDOW_DAYS + 10) * SECONDS_PER_DAY
        decision = decide_mayor(history, now, incumbent_id=1)
        assert decision.mayor_id is None
        assert decision.changed

    def test_inactive_incumbent_loses_to_active_challenger(self):
        history = [checkin(1, 0)] + [checkin(2, 70)]
        now = 75 * SECONDS_PER_DAY
        decision = decide_mayor(history, now, incumbent_id=1)
        assert decision.mayor_id == 2

    def test_tie_between_new_users_goes_to_lower_id(self):
        history = [checkin(5, 1), checkin(3, 2)]
        decision = decide_mayor(history, 10 * SECONDS_PER_DAY, incumbent_id=None)
        assert decision.mayor_id == 3

    def test_empty_history(self):
        decision = decide_mayor([], 10 * SECONDS_PER_DAY, incumbent_id=None)
        assert decision.mayor_id is None
        assert not decision.changed


WINDOW_S = MAYORSHIP_WINDOW_DAYS * SECONDS_PER_DAY


def window_mayor(window, now, incumbent_id):
    """``window``'s decision at ``now``, checked against the reference."""
    assert window.advance(now)
    mayor_id = window.mayor(incumbent_id)
    assert mayor_id == decide_mayor(window.history, now, incumbent_id).mayor_id
    assert window.day_counts() == checkin_days_by_user(window.history, now)
    return mayor_id


class TestMayorWindow:
    def test_window_start_is_inclusive(self):
        history = [checkin(1, 5)]
        window = MayorWindow(history)
        edge = history[0].timestamp + WINDOW_S
        assert window_mayor(window, edge, None) == 1
        assert window_mayor(window, edge + 0.001, 1) is None

    def test_reads_the_live_history(self):
        history = []
        window = MayorWindow(history)
        assert window_mayor(window, 1 * SECONDS_PER_DAY, None) is None
        history.append(checkin(1, 2))
        assert window_mayor(window, 3 * SECONDS_PER_DAY, None) == 1
        assert window.history is history

    def test_evicting_incumbents_last_day_hands_over(self):
        history = [checkin(1, 0), checkin(1, 1), checkin(2, 30)]
        window = MayorWindow(history)
        assert window_mayor(window, 31 * SECONDS_PER_DAY, None) == 1
        # Day 0 gone: 1 day each, the incumbent keeps the crown.
        assert window_mayor(window, 61 * SECONDS_PER_DAY, 1) == 1
        # Day 1 gone too: the incumbent is out of the window.
        assert window_mayor(window, 62 * SECONDS_PER_DAY, 1) == 2
        assert window.day_counts() == {2: 1}

    def test_tie_keeps_the_crown(self):
        history = [checkin(2, 1), checkin(1, 2)]
        window = MayorWindow(history)
        assert window_mayor(window, 3 * SECONDS_PER_DAY, 2) == 2
        assert window_mayor(window, 3 * SECONDS_PER_DAY, None) == 1

    def test_repeat_checkins_one_day_evict_together(self):
        history = [checkin(1, 4, hour=9.0), checkin(1, 4, hour=20.0)]
        history.append(checkin(2, 10))
        window = MayorWindow(history)
        assert window_mayor(window, 11 * SECONDS_PER_DAY, None) == 1
        # The 09:00 record is out, the 20:00 one still counts day 4.
        now = history[0].timestamp + WINDOW_S + 3_600.0
        assert window_mayor(window, now, 1) == 1
        assert window_mayor(window, now + 12 * 3_600.0, 1) == 2

    def test_flagged_records_are_skipped(self):
        history = [checkin(1, 3, status=CheckInStatus.FLAGGED)]
        window = MayorWindow(history)
        assert window_mayor(window, 4 * SECONDS_PER_DAY, None) is None
        assert window_mayor(window, 90 * SECONDS_PER_DAY, None) is None

    def test_record_out_of_order_marks_stale(self):
        history = [checkin(1, 5)]
        window = MayorWindow(history)
        assert window.advance(6 * SECONDS_PER_DAY)
        history.append(checkin(2, 4))
        assert not window.advance(7 * SECONDS_PER_DAY)
        assert window.stale
        # Stale for good, even once time moves on in order.
        assert not window.advance(8 * SECONDS_PER_DAY)

    def test_time_going_backwards_marks_stale(self):
        window = MayorWindow([checkin(1, 5)])
        assert window.advance(9 * SECONDS_PER_DAY)
        assert not window.advance(8 * SECONDS_PER_DAY)
        assert window.stale

    def test_record_later_than_now_marks_stale(self):
        window = MayorWindow([checkin(1, 5)])
        assert not window.advance(4 * SECONDS_PER_DAY)
        assert window.stale

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=4),
                st.floats(min_value=0.0, max_value=100.0),
                st.booleans(),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_in_order_stream_matches_reference(self, steps):
        history = []
        window = MayorWindow(history)
        now, mayor_id = 0.0, None
        for user_id, gap_hours, valid, append in steps:
            now += gap_hours * 3_600.0
            if append:
                _counter[0] += 1
                history.append(
                    CheckIn(
                        checkin_id=_counter[0],
                        user_id=user_id,
                        venue_id=1,
                        timestamp=now,
                        reported_location=LOCATION,
                        status=(
                            CheckInStatus.VALID
                            if valid
                            else CheckInStatus.FLAGGED
                        ),
                    )
                )
            mayor_id = window_mayor(window, now, mayor_id)
        assert not window.stale
