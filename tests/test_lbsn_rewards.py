"""Unit tests for points and the badge engine."""

import pytest

from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckIn, CheckInStatus, User
from repro.lbsn.rewards import (
    BadgeDefinition,
    BadgeEngine,
    PointsPolicy,
    counter_badge,
    default_badges,
    milestone_badges,
)
from repro.simnet.clock import SECONDS_PER_DAY

LOCATION = GeoPoint(40.0, -100.0)
_counter = [0]


def make_user(**kwargs):
    return User(user_id=1, display_name="Test", **kwargs)


def checkin(venue_id, timestamp, status=CheckInStatus.VALID):
    _counter[0] += 1
    return CheckIn(
        checkin_id=_counter[0],
        user_id=1,
        venue_id=venue_id,
        timestamp=timestamp,
        reported_location=LOCATION,
        status=status,
    )


class TestPointsPolicy:
    def test_base_checkin(self):
        assert PointsPolicy().score(False, False, False) == 1

    def test_first_visit_bonus(self):
        assert PointsPolicy().score(True, False, False) == 3

    def test_first_of_day_bonus(self):
        assert PointsPolicy().score(False, True, False) == 4

    def test_mayor_bonus_stacks(self):
        assert PointsPolicy().score(True, True, True) == 11

    def test_custom_policy(self):
        policy = PointsPolicy(base=2, became_mayor_bonus=10)
        assert policy.score(False, False, True) == 12


class TestNamedBadges:
    def _engine_user_history(self):
        return BadgeEngine(), make_user(), []

    def test_newbie_on_first_checkin(self):
        engine, user, history = self._engine_user_history()
        history.append(checkin(1, 0.0))
        user.valid_checkins = 1
        user.venues_visited = {1}
        earned = engine.evaluate(user, history)
        assert "Newbie" in earned

    def test_adventurer_at_10_distinct_venues(self):
        # §3.1: "Adventurer: You've checked into 10 different venues!"
        engine, user, history = self._engine_user_history()
        for index in range(10):
            history.append(checkin(index + 1, index * 7_200.0))
        user.valid_checkins = 10
        user.venues_visited = set(range(1, 11))
        earned = engine.evaluate(user, history)
        assert "Adventurer" in earned

    def test_adventurer_not_at_9(self):
        engine, user, history = self._engine_user_history()
        user.valid_checkins = 9
        user.venues_visited = set(range(1, 10))
        history.append(checkin(9, 0.0))
        assert "Adventurer" not in engine.evaluate(user, history)

    def test_super_user_30_checkins_in_month(self):
        # §2.1's example: "30 check-ins in a month".
        engine, user, history = self._engine_user_history()
        for index in range(30):
            history.append(checkin(index % 3 + 1, index * SECONDS_PER_DAY))
        user.valid_checkins = 30
        user.venues_visited = {1, 2, 3}
        earned = engine.evaluate(user, history)
        assert "Super User" in earned

    def test_super_user_not_for_spread_out_checkins(self):
        engine, user, history = self._engine_user_history()
        for index in range(30):
            history.append(checkin(1, index * 3 * SECONDS_PER_DAY))
        user.valid_checkins = 30
        user.venues_visited = {1}
        assert "Super User" not in engine.evaluate(user, history)

    def test_bender_four_consecutive_days(self):
        engine, user, history = self._engine_user_history()
        for day in range(4):
            history.append(checkin(1, day * SECONDS_PER_DAY + 3_600.0))
        user.valid_checkins = 4
        user.venues_visited = {1}
        assert "Bender" in engine.evaluate(user, history)

    def test_bender_broken_streak(self):
        engine, user, history = self._engine_user_history()
        for day in (0, 1, 3, 4):
            history.append(checkin(1, day * SECONDS_PER_DAY + 3_600.0))
        user.valid_checkins = 4
        user.venues_visited = {1}
        assert "Bender" not in engine.evaluate(user, history)

    def test_local_three_at_same_venue_in_week(self):
        engine, user, history = self._engine_user_history()
        for day in (0, 2, 4):
            history.append(checkin(9, day * SECONDS_PER_DAY))
        user.valid_checkins = 3
        user.venues_visited = {9}
        assert "Local" in engine.evaluate(user, history)

    def test_crunked_four_stops_one_night(self):
        engine, user, history = self._engine_user_history()
        for index in range(4):
            history.append(checkin(index + 1, index * 1_800.0))
        user.valid_checkins = 4
        user.venues_visited = {1, 2, 3, 4}
        assert "Crunked" in engine.evaluate(user, history)

    def test_overshare_ten_in_twelve_hours(self):
        engine, user, history = self._engine_user_history()
        for index in range(10):
            history.append(checkin(index % 2 + 1, index * 1_800.0))
        user.valid_checkins = 10
        user.venues_visited = {1, 2}
        assert "Overshare" in engine.evaluate(user, history)


class TestMilestoneLadders:
    def test_checkin_milestones_unlock_monotonically(self):
        engine = BadgeEngine()
        user = make_user()
        user.valid_checkins = 100
        user.venues_visited = {1}
        history = [checkin(1, 0.0)]
        earned = set(engine.evaluate(user, history))
        assert "Check-ins x100" in earned
        assert "Check-ins x150" not in earned

    def test_mayor_milestones_follow_counter(self):
        engine = BadgeEngine()
        user = make_user()
        user.valid_checkins = 1
        user.mayorship_count = 10
        user.venues_visited = {1}
        earned = set(engine.evaluate(user, [checkin(1, 0.0)]))
        assert "Mayor x10" in earned
        assert "Mayor x20" not in earned

    def test_day_milestones_follow_active_days(self):
        engine = BadgeEngine()
        user = make_user()
        user.valid_checkins = 5
        user.active_days = set(range(20))
        user.venues_visited = {1}
        earned = set(engine.evaluate(user, [checkin(1, 0.0)]))
        assert "Days x20" in earned
        assert "Days x30" not in earned

    def test_catalogue_is_large(self):
        # Fig 4.2's y-axis reaches ~90 badges; the catalogue must allow it.
        assert len(default_badges()) >= 70
        assert len(milestone_badges()) >= 60

    def test_unique_badge_names(self):
        names = [badge.name for badge in default_badges()]
        assert len(names) == len(set(names))


class TestBadgeEngineMechanics:
    def test_badge_awarded_only_once(self):
        engine = BadgeEngine()
        user = make_user()
        user.valid_checkins = 1
        user.venues_visited = {1}
        history = [checkin(1, 0.0)]
        first = engine.evaluate(user, history)
        second = engine.evaluate(user, history)
        assert "Newbie" in first
        assert "Newbie" not in second

    def test_badges_recorded_on_user(self):
        engine = BadgeEngine()
        user = make_user()
        user.valid_checkins = 1
        user.venues_visited = {1}
        engine.evaluate(user, [checkin(1, 0.0)])
        assert "Newbie" in user.badges

    def test_all_earned_short_circuits(self):
        engine = BadgeEngine()
        user = make_user()
        user.badges = {badge.name for badge in engine.catalogue}
        assert engine.evaluate(user, [checkin(1, 0.0)]) == []

    def test_earned_in_catalogue_order_across_ladders_and_predicates(self):
        engine = BadgeEngine([
            counter_badge("Ten", "", "valid_checkins", 10),
            BadgeDefinition("Always", "", lambda user, history: True),
            counter_badge("Two venues", "", "venues_visited", 2),
            counter_badge("One", "", "valid_checkins", 1),
            counter_badge("Hundred", "", "valid_checkins", 100),
        ])
        user = make_user(valid_checkins=10, venues_visited={1, 2})
        earned = engine.evaluate(user, [checkin(1, 0.0)])
        assert earned == ["Ten", "Always", "Two venues", "One"]
        assert engine.evaluate(user, [checkin(1, 0.0)]) == []

    def test_counter_needs_threshold_and_a_known_name(self):
        never = lambda user, history: False  # noqa: E731
        with pytest.raises(ValueError):
            BadgeDefinition("A", "", never, counter="valid_checkins")
        with pytest.raises(ValueError):
            BadgeDefinition("B", "", never, threshold=3)
        with pytest.raises(ValueError):
            BadgeDefinition("C", "", never, counter="tips", threshold=3)
