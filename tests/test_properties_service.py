"""Stateful property testing of the LBSN service's bookkeeping.

Hypothesis drives random sequences of registrations and check-ins (honest,
teleporting, rapid, backdated) and mayorship refreshes against a live
service, then checks the global invariants after every step: counters
reconcile, mayorship indexes agree from every direction, and flagged
check-ins never produce rewards.  It also checks the incremental reward
stage against the reference rules step by step: every mayor equals what
:func:`decide_mayor` computes from the venue's full history, and every
check-in's new badges equal a naive run of every predicate in the
catalogue.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.geo.coordinates import GeoPoint
from repro.geo.distance import destination_point
from repro.lbsn.mayorship import decide_mayor
from repro.lbsn.models import CheckInStatus
from repro.lbsn.service import LbsnService
from repro.simnet.clock import SECONDS_PER_DAY

ANCHOR = GeoPoint(39.0, -95.0)
FAR = GeoPoint(47.0, -122.0)


class ServiceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.service = LbsnService()
        self.users = []
        self.venues = []
        self.now = 0.0

    @rule(name_suffix=st.integers(min_value=0, max_value=10_000))
    def register_user(self, name_suffix):
        self.users.append(
            self.service.register_user(f"User {name_suffix}")
        )

    @rule(
        bearing=st.floats(min_value=0.0, max_value=360.0),
        distance=st.floats(min_value=0.0, max_value=5_000.0),
    )
    def create_venue(self, bearing, distance):
        location = destination_point(ANCHOR, bearing, distance)
        self.venues.append(
            self.service.create_venue(
                f"Venue {len(self.venues)}", location
            )
        )

    def _advance(self, seconds):
        self.now += seconds
        return self.now

    @rule(
        user_index=st.integers(min_value=0, max_value=5),
        venue_index=st.integers(min_value=0, max_value=5),
        gap_minutes=st.one_of(
            st.floats(min_value=0.5, max_value=300.0),
            # Day-scale gaps, so mayors count distinct days and age out.
            st.floats(min_value=1_440.0, max_value=1_440.0 * 25),
        ),
        teleport=st.booleans(),
    )
    def check_in(self, user_index, venue_index, gap_minutes, teleport):
        if not self.users or not self.venues:
            return
        timestamp = self._advance(gap_minutes * 60.0)
        self._check_in_and_compare(
            user_index, venue_index, timestamp, teleport
        )

    @rule(
        user_index=st.integers(min_value=0, max_value=5),
        venue_index=st.integers(min_value=0, max_value=5),
        back_hours=st.floats(min_value=0.5, max_value=24.0 * 70),
    )
    def backdated_check_in(self, user_index, venue_index, back_hours):
        # Arrives after later ones: the venue's history goes out of time
        # order, which the service must handle with the reference rule.
        if not self.users or not self.venues:
            return
        timestamp = max(0.0, self.now - back_hours * 3_600.0)
        self._check_in_and_compare(user_index, venue_index, timestamp, False)

    def _check_in_and_compare(
        self, user_index, venue_index, timestamp, teleport
    ):
        service = self.service
        user = self.users[user_index % len(self.users)]
        venue = self.venues[venue_index % len(self.venues)]
        location = FAR if teleport else venue.location
        incumbent = venue.mayor_id
        badges_before = set(user.badges)
        result = service.check_in(
            user.user_id, venue.venue_id, location, timestamp=timestamp
        )
        # Local invariants on the single result.
        if result.checkin.status is not CheckInStatus.VALID:
            assert result.points == 0
            assert result.new_badges == []
            assert not result.became_mayor
            assert venue.mayor_id == incumbent
            return
        # The mayor is the reference rule's over the venue's history.
        expected = decide_mayor(
            service.store.checkins_at_venue(venue.venue_id),
            timestamp,
            incumbent,
        )
        assert venue.mayor_id == expected.mayor_id
        assert result.became_mayor == (
            expected.changed and expected.mayor_id == user.user_id
        )
        # The new badges are every catalogue predicate that newly holds.
        history = service.store.checkins_of_user(user.user_id)
        naive = [
            definition.name
            for definition in service.badges.catalogue
            if definition.name not in badges_before
            and definition.predicate(user, history)
        ]
        assert result.new_badges == naive

    @rule(
        gap_days=st.floats(min_value=0.0, max_value=90.0),
        venue_index=st.integers(min_value=0, max_value=5),
        every_venue=st.booleans(),
    )
    def refresh_after_gap(self, gap_days, venue_index, every_venue):
        if not self.venues:
            return
        service = self.service
        now = self._advance(gap_days * SECONDS_PER_DAY)
        service.clock.advance_to(now)
        venues = (
            self.venues
            if every_venue
            else [self.venues[venue_index % len(self.venues)]]
        )
        expected = {
            venue.venue_id: decide_mayor(
                service.store.checkins_at_venue(venue.venue_id),
                now,
                venue.mayor_id,
            )
            for venue in venues
        }
        if every_venue:
            changed = service.refresh_all_mayorships()
            assert changed == sum(d.changed for d in expected.values())
        else:
            service.refresh_mayorship(venues[0].venue_id)
        for venue in venues:
            assert venue.mayor_id == expected[venue.venue_id].mayor_id

    @invariant()
    def totals_reconcile(self):
        if not hasattr(self, "service"):
            return
        recorded = self.service.store.checkin_count()
        counted = sum(u.total_checkins for u in self.service.store.iter_users())
        assert recorded == counted

    @invariant()
    def valid_counts_reconcile(self):
        if not hasattr(self, "service"):
            return
        venue_valid = sum(
            v.checkin_count for v in self.service.store.iter_venues()
        )
        user_valid = sum(
            u.valid_checkins for u in self.service.store.iter_users()
        )
        assert venue_valid == user_valid

    @invariant()
    def mayorship_indexes_agree(self):
        if not hasattr(self, "service"):
            return
        # Venue -> mayor agrees with user.mayorship_count and the
        # service's per-user venue sets.
        by_user = {}
        for venue in self.service.store.iter_venues():
            if venue.mayor_id is not None:
                by_user[venue.mayor_id] = by_user.get(venue.mayor_id, 0) + 1
        for user in self.service.store.iter_users():
            expected = by_user.get(user.user_id, 0)
            assert user.mayorship_count == expected
            assert self.service.mayorship_count(user.user_id) == expected

    @invariant()
    def recent_visitor_lists_bounded_and_valid(self):
        if not hasattr(self, "service"):
            return
        for venue in self.service.store.iter_venues():
            assert len(venue.recent_visitors) <= venue.RECENT_VISITOR_LIMIT
            assert len(set(venue.recent_visitors)) == len(
                venue.recent_visitors
            )
            for user_id in venue.recent_visitors:
                assert user_id in venue.unique_visitors


TestServiceStateMachine = ServiceMachine.TestCase
TestServiceStateMachine.settings = settings(
    max_examples=50, stateful_step_count=50, deadline=None
)
