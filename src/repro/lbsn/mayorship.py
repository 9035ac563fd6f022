"""Mayorship computation (§2.1).

"Mayorship of a venue is granted to the user who checked in to that venue
the most days in the past 60 days. Only the number of days with check-ins to
this venue are counted, without consideration of how many check-ins occurred
per day or the total number of check-ins."

Properties the thesis relies on and which are reproduced here:

* A single check-in suffices at a venue nobody else visits (the
  865-mayorship user of §3.4).
* There is only one mayor per venue, and an incumbent who keeps checking in
  daily cannot be displaced by ties — a challenger must strictly exceed the
  incumbent's day count (§2.1's "if an attacker got the mayorship ... no
  other user can get the mayorship from the attacker").
* Only VALID check-ins count; flagged cheaters earn no mayorships (§4.2's
  second group of heavy users has zero mayorships).

Two implementations of the rule live here.  :func:`decide_mayor` is the
reference: it rescans the venue's window from the full history on every
call.  :class:`MayorWindow` is what the service runs per valid check-in:
one per venue, it keeps a cursor into the store's live venue history (no
check-in is copied), folds newly appended records into a
``user → {day → count}`` map, and evicts records as they fall out of the
60-day window, so a decision costs the new records plus the window's
users rather than the whole window.  The window relies on the history
arriving in time order; the first time it doesn't (a decision time
earlier than the last one, a record out of timestamp order or later than
the decision time) the window turns *stale* for good and the service
decides that venue with :func:`decide_mayor` from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.lbsn.models import CheckIn, CheckInStatus
from repro.simnet.clock import SECONDS_PER_DAY, day_index

#: The competition window, in days.
MAYORSHIP_WINDOW_DAYS = 60


def _window_start_index(checkins: Sequence[CheckIn], window_start: float) -> int:
    """Binary-search the first check-in at or after ``window_start``.

    Venue histories are append-ordered by timestamp, so the 60-day window
    is a suffix; scanning only that suffix keeps mayor recomputation cheap
    on venues with long lifetimes (a daily-check-in mayor accumulates
    hundreds of records, of which the window holds a fraction).
    """
    low, high = 0, len(checkins)
    while low < high:
        mid = (low + high) // 2
        if checkins[mid].timestamp < window_start:
            low = mid + 1
        else:
            high = mid
    return low


def checkin_days_by_user(
    checkins: Sequence[CheckIn], now: float
) -> Dict[int, int]:
    """Distinct check-in days per user at one venue over the last 60 days.

    ``checkins`` is the venue's full recorded history in time order; only
    valid check-ins inside the window are counted, and multiple check-ins
    on one calendar day collapse to a single day.
    """
    window_start = now - MAYORSHIP_WINDOW_DAYS * SECONDS_PER_DAY
    days: Dict[int, set] = {}
    for index in range(_window_start_index(checkins, window_start), len(checkins)):
        checkin = checkins[index]
        if checkin.status is not CheckInStatus.VALID:
            continue
        if checkin.timestamp > now:
            continue
        days.setdefault(checkin.user_id, set()).add(
            day_index(checkin.timestamp)
        )
    return {user_id: len(day_set) for user_id, day_set in days.items()}


@dataclass(frozen=True)
class MayorDecision:
    """Result of recomputing a venue's mayor."""

    mayor_id: Optional[int]
    previous_mayor_id: Optional[int]
    day_counts: Dict[int, int]

    @property
    def changed(self) -> bool:
        """Did the mayorship move to a different user (or appear/vanish)?"""
        return self.mayor_id != self.previous_mayor_id


def decide_mayor(
    checkins: Sequence[CheckIn],
    now: float,
    incumbent_id: Optional[int],
) -> MayorDecision:
    """Recompute a venue's mayor from its check-in history.

    The incumbent retains the title unless a challenger has *strictly more*
    distinct days in the window.  When the incumbent has dropped out of the
    window entirely, the best remaining challenger (ties broken by lower
    user id, i.e. earlier registrant) takes over.  A venue with no valid
    window check-ins has no mayor.
    """
    day_counts = checkin_days_by_user(checkins, now)
    if not day_counts:
        return MayorDecision(None, incumbent_id, day_counts)

    incumbent_days = day_counts.get(incumbent_id, 0) if incumbent_id else 0
    best_id, best_days = None, -1
    for user_id in sorted(day_counts):
        days = day_counts[user_id]
        if days > best_days:
            best_id, best_days = user_id, days

    if incumbent_days > 0 and best_days <= incumbent_days:
        # Incumbent still active and unbeaten (ties keep the crown).
        return MayorDecision(incumbent_id, incumbent_id, day_counts)
    return MayorDecision(best_id, incumbent_id, day_counts)


class MayorWindow:
    """Incremental 60-day mayorship state for one venue.

    ``history`` is the store's live check-in list for the venue; records
    ``[evict, fold)`` are the folded ones still inside the window, and
    ``days`` maps each user with a valid one among them to
    ``{day index: valid check-ins that day}``.  :meth:`advance` brings the
    state to a new decision time and :meth:`mayor` decides with
    :func:`decide_mayor`'s tie rules.
    """

    __slots__ = (
        "history", "stale", "_fold", "_evict", "_last_ts", "_now", "_days"
    )

    def __init__(self, history: List[CheckIn]) -> None:
        self.history = history
        #: Set once the in-order assumption failed; never cleared.
        self.stale = False
        self._fold = 0
        self._evict = 0
        self._last_ts = float("-inf")
        self._now = float("-inf")
        self._days: Dict[int, Dict[int, int]] = {}

    def advance(self, now: float) -> bool:
        """Fold new records and evict expired ones, as of ``now``.

        Returns False, and marks the window stale, when the history or
        ``now`` is out of time order; the caller must then decide with
        :func:`decide_mayor`.
        """
        if self.stale:
            return False
        if now < self._now:
            return self._go_stale()
        history = self.history
        days = self._days
        end = len(history)
        if self._fold < end:
            last_ts = self._last_ts
            for index in range(self._fold, end):
                checkin = history[index]
                timestamp = checkin.timestamp
                if timestamp < last_ts or timestamp > now:
                    return self._go_stale()
                last_ts = timestamp
                if checkin.status is CheckInStatus.VALID:
                    by_day = days.get(checkin.user_id)
                    if by_day is None:
                        by_day = days[checkin.user_id] = {}
                    day = day_index(timestamp)
                    by_day[day] = by_day.get(day, 0) + 1
            self._fold = end
            self._last_ts = last_ts
        self._now = now
        window_start = now - MAYORSHIP_WINDOW_DAYS * SECONDS_PER_DAY
        index = self._evict
        while index < end:
            checkin = history[index]
            if checkin.timestamp >= window_start:
                break
            if checkin.status is CheckInStatus.VALID:
                by_day = days[checkin.user_id]
                day = day_index(checkin.timestamp)
                if by_day[day] == 1:
                    del by_day[day]
                    if not by_day:
                        del days[checkin.user_id]
                else:
                    by_day[day] -= 1
            index += 1
        self._evict = index
        return True

    def _go_stale(self) -> bool:
        self.stale = True
        self._days = {}
        return False

    def mayor(self, incumbent_id: Optional[int]) -> Optional[int]:
        """The mayor after the last :meth:`advance`.

        Same rules as :func:`decide_mayor`: the incumbent keeps the title
        unless strictly beaten, and among challengers the most distinct
        days wins, ties going to the lower user id.
        """
        best_id, best_days = None, 0
        for user_id, by_day in self._days.items():
            days = len(by_day)
            if days > best_days or (days == best_days and user_id < best_id):
                best_id, best_days = user_id, days
        if incumbent_id is not None:
            incumbent = self._days.get(incumbent_id)
            if incumbent is not None and len(incumbent) >= best_days:
                return incumbent_id
        return best_id

    def day_counts(self) -> Dict[int, int]:
        """Distinct window days per user, as :func:`checkin_days_by_user`."""
        return {user_id: len(by_day) for user_id, by_day in self._days.items()}
