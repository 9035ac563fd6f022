"""Points and badge engine — the "progressive reward mechanism" of §2.1.

The thesis lists four reward tiers from easiest to hardest: points (every
valid check-in), badges (specific achievements such as "30 check-ins in a
month" or "checked into 10 different venues"), mayorships (competitive), and
real-world rewards (specials).  Points and badges live here; mayorship logic
is in :mod:`repro.lbsn.mayorship`, specials in :mod:`repro.lbsn.specials`.

Only VALID check-ins make badge/point progress: flagged check-ins count
toward the raw total but earn nothing, which is exactly the signature the
Fig 4.2 analysis exploits to spot caught cheaters.

Most of the catalogue is milestone ladders over a counter the service
keeps on the :class:`~repro.lbsn.models.User` ("50 valid check-ins", "25
distinct venues").  Such a badge declares its counter and threshold
(``counter="valid_checkins", threshold=50``; the counters are the keys of
:data:`BADGE_COUNTERS`), and :class:`BadgeEngine` sorts each counter's
thresholds once, so a check-in walks only the thresholds at or below the
counter's value instead of calling one predicate per badge.  The windowed
badges (Super User, Bender, Local, Overshare, Crunked) and any caller's
predicate-only badge run their predicate; those predicates scan history
*backwards from the newest check-in and stop at their time window*, so
evaluating one is O(window activity) rather than O(lifetime activity) —
the workload generator replays hundreds of thousands of check-ins through
this engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lbsn.models import CheckIn, CheckInStatus, User
from repro.simnet.clock import SECONDS_PER_DAY, day_index


@dataclass
class PointsPolicy:
    """How many points each kind of valid check-in earns."""

    base: int = 1
    first_visit_bonus: int = 2
    first_of_day_bonus: int = 3
    became_mayor_bonus: int = 5

    def score(
        self,
        first_visit: bool,
        first_of_day: bool,
        became_mayor: bool,
    ) -> int:
        """Points for one valid check-in with the given attributes."""
        points = self.base
        if first_visit:
            points += self.first_visit_bonus
        if first_of_day:
            points += self.first_of_day_bonus
        if became_mayor:
            points += self.became_mayor_bonus
        return points


def _recent_valid(
    history: Sequence[CheckIn], window_start: float
) -> Iterator[CheckIn]:
    """Valid check-ins at or after ``window_start``, newest first.

    Relies on ``history`` being time-ordered (the store appends in order),
    so the scan stops at the first record older than the window.
    """
    for checkin in reversed(history):
        if checkin.timestamp < window_start:
            return
        if checkin.status is CheckInStatus.VALID:
            yield checkin


#: The user counters a badge may declare, and how each is read.
BADGE_COUNTERS: Dict[str, Callable[[User], int]] = {
    "valid_checkins": lambda user: user.valid_checkins,
    "venues_visited": lambda user: len(user.venues_visited),
    "active_days": lambda user: len(user.active_days),
    "mayorship_count": lambda user: user.mayorship_count,
}


@dataclass(frozen=True)
class BadgeDefinition:
    """One badge: a name, the unlock text, and an unlock predicate.

    The predicate sees the user (whose counters are already updated for the
    triggering check-in) and their full recorded history with the new
    check-in as its last element; it returns True when the badge unlocks.

    A badge that unlocks exactly when a :data:`BADGE_COUNTERS` counter
    reaches a threshold also declares both; :class:`BadgeEngine` then
    decides it from the declaration, and the predicate must agree with it.
    """

    name: str
    description: str
    predicate: Callable[[User, Sequence[CheckIn]], bool]
    counter: Optional[str] = None
    threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.counter is None) != (self.threshold is None):
            raise ValueError(
                f"badge {self.name!r}: counter and threshold go together"
            )
        if self.counter is not None and self.counter not in BADGE_COUNTERS:
            raise ValueError(
                f"badge {self.name!r}: unknown counter {self.counter!r}"
            )


def counter_badge(
    name: str, description: str, counter: str, threshold: int
) -> BadgeDefinition:
    """A badge that unlocks when ``counter`` reaches ``threshold``.

    The service maintains every :data:`BADGE_COUNTERS` counter
    incrementally, so the predicate is O(1).
    """
    read = BADGE_COUNTERS[counter]

    def unlocked(user: User, history: Sequence[CheckIn]) -> bool:
        return read(user) >= threshold

    return BadgeDefinition(name, description, unlocked, counter, threshold)


def _super_user(user: User, history: Sequence[CheckIn]) -> bool:
    """30 valid check-ins within a rolling 30-day window."""
    if not history or user.valid_checkins < 30:
        return False
    window_start = history[-1].timestamp - 30.0 * SECONDS_PER_DAY
    count = 0
    for _ in _recent_valid(history, window_start):
        count += 1
        if count >= 30:
            return True
    return False


def _bender(user: User, history: Sequence[CheckIn]) -> bool:
    """Valid check-ins on 4 consecutive calendar days ending today.

    Scans backwards over distinct days and stops at the first gap, so the
    cost is bounded by the length of the current streak.
    """
    if not history:
        return False
    today = day_index(history[-1].timestamp)
    expected = today
    streak = 0
    for checkin in reversed(history):
        if checkin.status is not CheckInStatus.VALID:
            continue
        day = day_index(checkin.timestamp)
        if day == expected:
            streak += 1
            if streak >= 4:
                return True
            expected -= 1
        elif day < expected:
            return False
        # day == expected + 1 means another check-in on an already-counted
        # day; skip it.
    return False


def _local(user: User, history: Sequence[CheckIn]) -> bool:
    """3 valid check-ins at the same venue within one week."""
    if not history:
        return False
    latest = history[-1]
    window_start = latest.timestamp - 7.0 * SECONDS_PER_DAY
    count = 0
    for checkin in _recent_valid(history, window_start):
        if checkin.venue_id == latest.venue_id:
            count += 1
            if count >= 3:
                return True
    return False


def _overshare(user: User, history: Sequence[CheckIn]) -> bool:
    """10 valid check-ins within 12 hours."""
    if not history or user.valid_checkins < 10:
        return False
    window_start = history[-1].timestamp - 12.0 * 3_600.0
    count = 0
    for _ in _recent_valid(history, window_start):
        count += 1
        if count >= 10:
            return True
    return False


def _crunked(user: User, history: Sequence[CheckIn]) -> bool:
    """4+ distinct valid stops within a 4-hour night out."""
    if not history or user.valid_checkins < 4:
        return False
    window_start = history[-1].timestamp - 4.0 * 3_600.0
    venues = set()
    for checkin in _recent_valid(history, window_start):
        venues.add(checkin.venue_id)
        if len(venues) >= 4:
            return True
    return False


#: Valid-check-in count milestones (the largest badge family).
CHECKIN_MILESTONES = (
    5, 15, 25, 35, 50, 75, 100, 150, 200, 250, 300, 400, 500, 600, 700,
    800, 900, 1_000, 1_250, 1_500, 2_000, 2_500, 3_000, 4_000, 5_000,
)

#: Distinct-venue milestones beyond the four named badges.
VENUE_MILESTONES = (
    3, 5, 15, 20, 30, 40, 60, 70, 80, 90, 125, 150, 200, 250, 300, 400, 500,
)

#: Distinct active-day milestones.
DAY_MILESTONES = (2, 5, 10, 20, 30, 50, 75, 100, 150, 200, 250, 300, 365)

#: Concurrent-mayorship milestones.
MAYOR_MILESTONES = (1, 3, 5, 10, 20, 30, 50, 75, 100, 150, 200, 300, 500)


def milestone_badges() -> List[BadgeDefinition]:
    """The four parametric badge ladders.

    Real Foursquare's catalogue was large enough that heavy legitimate
    users held on the order of 80-90 badges (the Fig 4.2 y-axis); these
    ladders give the simulated catalogue the same dynamic range while
    every unlock stays O(1) against the user's maintained counters.
    """
    ladders = (
        ("valid_checkins", CHECKIN_MILESTONES,
         "Check-ins x{}", "{} lifetime check-ins!"),
        ("venues_visited", VENUE_MILESTONES,
         "Venues x{}", "Checked into {} different venues!"),
        ("active_days", DAY_MILESTONES,
         "Days x{}", "Checked in on {} different days!"),
        ("mayorship_count", MAYOR_MILESTONES,
         "Mayor x{}", "Mayor of {} venues at once!"),
    )
    return [
        counter_badge(
            name.format(threshold), text.format(threshold), counter, threshold
        )
        for counter, thresholds, name, text in ladders
        for threshold in thresholds
    ]


def default_badges() -> List[BadgeDefinition]:
    """The badge catalogue, anchored on the two the thesis names.

    "Adventurer: You've checked into 10 different venues!" is quoted
    directly in §3.1; "30 check-ins in a month" is §2.1's example.  The
    named badges are period-faithful Foursquare badges; the milestone
    ladders give the Fig 4.2 badges-vs-check-ins curve its dynamic range
    (legitimate heavy users reach ~90 badges, caught cheaters stall under
    10).
    """
    return milestone_badges() + [
        counter_badge(
            "Newbie", "Your first check-in!", "valid_checkins", 1
        ),
        counter_badge(
            "Adventurer",
            "You've checked into 10 different venues!",
            "venues_visited",
            10,
        ),
        counter_badge(
            "Explorer",
            "You've checked into 25 different venues!",
            "venues_visited",
            25,
        ),
        counter_badge(
            "Superstar",
            "You've checked into 50 different venues!",
            "venues_visited",
            50,
        ),
        counter_badge(
            "Wanderlust",
            "You've checked into 100 different venues!",
            "venues_visited",
            100,
        ),
        BadgeDefinition("Super User", "30 check-ins in a month!", _super_user),
        BadgeDefinition("Bender", "Checked in 4 days in a row!", _bender),
        BadgeDefinition(
            "Local",
            "3 check-ins at the same venue in one week!",
            _local,
        ),
        BadgeDefinition("Overshare", "10 check-ins in 12 hours!", _overshare),
        BadgeDefinition("Crunked", "4+ stops in one night!", _crunked),
    ]


class BadgeEngine:
    """Awards badges after each valid check-in."""

    def __init__(
        self, definitions: Optional[List[BadgeDefinition]] = None
    ) -> None:
        self._definitions = definitions or default_badges()
        #: Per declared counter: its reader and ``(threshold, catalogue
        #: index, name)`` ascending.
        ladders: Dict[str, List[Tuple[int, int, str]]] = {}
        #: Predicate-only badges: ``(catalogue index, name, predicate)``.
        self._predicated: List[Tuple[int, str, Callable]] = []
        for index, definition in enumerate(self._definitions):
            if definition.counter is None:
                self._predicated.append(
                    (index, definition.name, definition.predicate)
                )
            else:
                ladders.setdefault(definition.counter, []).append(
                    (definition.threshold, index, definition.name)
                )
        self._ladders = [
            (BADGE_COUNTERS[counter], sorted(entries))
            for counter, entries in ladders.items()
        ]

    @property
    def catalogue(self) -> List[BadgeDefinition]:
        """All badge definitions in evaluation order."""
        return list(self._definitions)

    def evaluate(self, user: User, history: Sequence[CheckIn]) -> List[str]:
        """Return names of newly unlocked badges and add them to ``user``.

        ``history`` must already include the triggering check-in as its
        last element.  Declared-counter badges are granted first, so a
        predicate that reads ``user.badges`` sees them; the returned names
        are in catalogue order.
        """
        badges = user.badges
        if len(badges) >= len(self._definitions):
            return []
        earned: List[Tuple[int, str]] = []
        for read, ladder in self._ladders:
            value = read(user)
            for threshold, index, name in ladder:
                if threshold > value:
                    break
                if name not in badges:
                    badges.add(name)
                    earned.append((index, name))
        for index, name, predicate in self._predicated:
            if name not in badges and predicate(user, history):
                badges.add(name)
                earned.append((index, name))
        earned.sort()
        return [name for _, name in earned]
