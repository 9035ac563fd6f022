"""Property tests (hypothesis) for the seq-allocation contract.

Arbitrary interleavings of single commits, batched commits, and bare
sequence-slot allocations against one :class:`DataStore` must always
yield:

* a dense, duplicate-free global seq order (the union of everything the
  store handed out is exactly ``range(total)``),
* per-user seq subsequences in program order,
* one stored row per committed check-in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.coordinates import GeoPoint
from repro.lbsn.models import CheckIn, CheckInStatus, User, Venue, VenueCategory
from repro.lbsn.store import DataStore

USERS = 9
VENUES = 11

user_keys = st.integers(min_value=1, max_value=USERS)
venue_keys = st.integers(min_value=1, max_value=VENUES)

#: One op: a bare seq slot, a single commit, or a batch of 1..6 commits.
ops = st.one_of(
    st.just(("slot",)),
    st.tuples(st.just("single"), user_keys, venue_keys),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(user_keys, venue_keys), min_size=1, max_size=6),
    ),
)
op_lists = st.lists(ops, min_size=1, max_size=30)

LOCATION = GeoPoint(35.0844, -106.6504)


def _build_store() -> DataStore:
    store = DataStore()
    for user_id in range(1, USERS + 1):
        store.add_user(User(user_id=user_id, display_name=f"u{user_id}"))
    for venue_id in range(1, VENUES + 1):
        store.add_venue(
            Venue(
                venue_id=venue_id,
                name=f"v{venue_id}",
                location=LOCATION,
                category=VenueCategory.OTHER,
            )
        )
    return store


def _apply(store: DataStore, op_list) -> list:
    """Run the ops; returns ``(kind, user_id, seq)`` allocation records."""
    allocations = []
    next_checkin_id = 1
    clock = 0.0

    def checkin(user_id: int, venue_id: int) -> CheckIn:
        nonlocal next_checkin_id, clock
        clock += 60.0
        row = CheckIn(
            checkin_id=next_checkin_id,
            user_id=user_id,
            venue_id=venue_id,
            timestamp=clock,
            reported_location=LOCATION,
            status=CheckInStatus.VALID,
        )
        next_checkin_id += 1
        return row

    for op in op_list:
        if op[0] == "slot":
            allocations.append(("slot", None, store.allocate_event_seq()))
        elif op[0] == "single":
            _, user_id, venue_id = op
            _, seq = store.add_checkin_committed(checkin(user_id, venue_id))
            allocations.append(("commit", user_id, seq))
        else:
            rows = [checkin(u, v) for u, v in op[1]]
            for row, seq in store.add_checkins_committed(rows):
                allocations.append(("commit", row.user_id, seq))
    return allocations


class TestSeqAllocationContract:
    @given(op_list=op_lists)
    @settings(max_examples=60, deadline=None)
    def test_global_seq_order_dense_and_duplicate_free(self, op_list):
        store = _build_store()
        base = store.event_seq_watermark()
        allocations = _apply(store, op_list)
        seqs = sorted(seq for _, _, seq in allocations)
        assert seqs == list(range(base, base + len(seqs)))
        assert store.event_seq_watermark() == base + len(seqs)

    @given(op_list=op_lists)
    @settings(max_examples=60, deadline=None)
    def test_per_user_seq_subsequence_in_program_order(self, op_list):
        store = _build_store()
        allocations = _apply(store, op_list)
        per_user = {}
        for kind, user_id, seq in allocations:
            if kind == "commit":
                per_user.setdefault(user_id, []).append(seq)
        for user_id, seqs in per_user.items():
            assert seqs == sorted(seqs), (
                f"user {user_id} committed out of seq order: {seqs}"
            )
            listed = store.checkins_of_user(user_id)
            assert len(listed) == len(seqs)

    @given(op_list=op_lists)
    @settings(max_examples=40, deadline=None)
    def test_commit_count_matches_rows(self, op_list):
        store = _build_store()
        allocations = _apply(store, op_list)
        commits = [a for a in allocations if a[0] == "commit"]
        assert store.checkin_count() == len(commits)
