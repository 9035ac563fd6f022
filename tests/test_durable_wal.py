"""The write-ahead log: codec round-trips and corruption recovery.

The property suite (hypothesis) pins that ``decode(encode(e)) == e`` for
every event shape the bus can carry, and that the encoding is
byte-stable; golden records pin the ``RWALSEG2`` layout byte for byte.
The unit suite covers the damage matrix docs/DURABILITY.md specifies:
truncated tails (tolerated at the end, fatal mid-log), flipped bits
(checksum reject, fatal when records follow), and empty/short segments.
"""

import dataclasses
import os
import struct
import zlib
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable.wal import (
    MAX_RECORD_BYTES,
    SEGMENT_MAGIC,
    WalCorruptionError,
    WalError,
    WalReader,
    WalWriter,
    _Layout,
    decode_event,
    encode_event,
    encode_record,
)
from repro.geo.coordinates import GeoPoint
from repro.stream.events import (
    CheckInAccepted,
    CheckInFlagged,
    CheckInRejected,
    MayorChanged,
    UserRegistered,
    VenueCreated,
)

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Every int the layout carries, with the int64 bounds drawn often.
int64s = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
seqs = int64s
timestamps = st.floats(allow_nan=False)
ids = int64s
#: Any string JSON could carry, lone surrogates and non-ASCII included.
texts = st.text(st.characters(exclude_categories=()), max_size=20)
traces = st.one_of(st.none(), texts)
points = st.builds(GeoPoint, latitudes, longitudes)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(["user", "venue", "accept", "flag",
                                 "reject", "mayor"]))
    seq, ts = draw(seqs), draw(timestamps)
    if kind == "user":
        return UserRegistered(
            seq, ts, user_id=draw(ids),
            username=draw(st.one_of(st.none(), texts)),
            trace_id=draw(traces),
        )
    if kind == "venue":
        return VenueCreated(
            seq, ts, venue_id=draw(ids),
            location=draw(st.one_of(st.none(), points)),
            trace_id=draw(traces),
        )
    if kind == "mayor":
        return MayorChanged(
            seq, ts, venue_id=draw(ids),
            new_mayor_id=draw(st.one_of(st.none(), ids)),
            previous_mayor_id=draw(st.one_of(st.none(), ids)),
            trace_id=draw(traces),
        )
    common = dict(
        user_id=draw(ids), venue_id=draw(ids),
        venue_location=draw(points), reported_location=draw(points),
        checkin_id=draw(ids), trace_id=draw(traces),
    )
    if kind == "accept":
        return CheckInAccepted(
            seq, ts, points=draw(ids),
            new_badge_count=draw(ids),
            became_mayor=draw(st.booleans()),
            first_visit=draw(st.booleans()),
            **common,
        )
    cls = CheckInFlagged if kind == "flag" else CheckInRejected
    return cls(
        seq, ts, rule=draw(st.one_of(st.none(), texts)),
        **common,
    )


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(event=events())
    def test_round_trip(self, event):
        decoded = decode_event(encode_event(event))
        assert type(decoded) is type(event)
        assert decoded == event

    @settings(max_examples=50, deadline=None)
    @given(event=events())
    def test_encoding_is_byte_stable(self, event):
        assert encode_event(event) == encode_event(event)

    @settings(max_examples=50, deadline=None)
    @given(event=events())
    def test_framed_record_round_trips(self, event):
        record = encode_record(event)
        length, crc = struct.unpack_from("<II", record)
        assert length == len(record) - 8
        assert decode_event(record[8:]) == event


VENUE = GeoPoint(40.0, -74.0)

#: One framed record per event type, hex grouped by field: header
#: (length, crc32), tag, then the fields in declaration order.
GOLDEN_RECORDS = [
    (
        UserRegistered(7, 1.5, user_id=42, username="ann"),
        "22000000 00251c34 01 0700000000000000 000000000000f83f"
        " 2a00000000000000 01 03000000 616e6e 00",
    ),
    (
        VenueCreated(8, 2.0, venue_id=3, location=VENUE, trace_id="t-1"),
        "32000000 5e41dd44 02 0800000000000000 0000000000000040"
        " 0300000000000000 01 0000000000004440 00000000008052c0"
        " 01 03000000 742d31",
    ),
    (
        CheckInAccepted(
            9, 3600.0, user_id=42, venue_id=3, venue_location=VENUE,
            reported_location=GeoPoint(40.5, -74.25), checkin_id=5,
            points=6, new_badge_count=1, became_mayor=True,
            first_visit=False,
        ),
        "5c000000 6673afe5 03 0900000000000000 000000000020ac40"
        " 2a00000000000000 0300000000000000"
        " 0000000000004440 00000000008052c0"
        " 0000000000404440 00000000009052c0 0500000000000000 00"
        " 0600000000000000 0100000000000000 01 00",
    ),
    (
        CheckInFlagged(
            10, 3660.0, user_id=42, venue_id=3, venue_location=VENUE,
            reported_location=VENUE, checkin_id=6, rule="speed",
        ),
        "54000000 bf32d63c 04 0a00000000000000 000000000098ac40"
        " 2a00000000000000 0300000000000000"
        " 0000000000004440 00000000008052c0"
        " 0000000000004440 00000000008052c0 0600000000000000 00"
        " 01 05000000 7370656564",
    ),
    (
        CheckInRejected(
            11, 3720.0, user_id=42, venue_id=3, venue_location=VENUE,
            reported_location=VENUE, checkin_id=0, trace_id="t-2",
        ),
        "52000000 483839fe 05 0b00000000000000 000000000010ad40"
        " 2a00000000000000 0300000000000000"
        " 0000000000004440 00000000008052c0"
        " 0000000000004440 00000000008052c0 0000000000000000"
        " 01 03000000 742d32 00",
    ),
    (
        MayorChanged(12, 3600.0, venue_id=3, new_mayor_id=42),
        "24000000 9dfa19f4 06 0c00000000000000 000000000020ac40"
        " 0300000000000000 01 2a00000000000000 00 00",
    ),
]


class TestGoldenRecords:
    """The on-disk layout, pinned: any change here is a format change."""

    @pytest.mark.parametrize(
        "event, golden",
        GOLDEN_RECORDS,
        ids=[type(event).__name__ for event, _ in GOLDEN_RECORDS],
    )
    def test_record_bytes(self, event, golden):
        assert encode_record(event) == bytes.fromhex(golden)
        assert decode_event(bytes.fromhex(golden)[8:]) == event

    def test_every_event_type_is_pinned(self):
        from repro.durable.wal import _TAG_TO_TYPE

        pinned = {type(event) for event, _ in GOLDEN_RECORDS}
        assert pinned == set(_TAG_TO_TYPE.values())


class TestLayoutDerivation:
    """Layouts come from the dataclass, so no field can be left out."""

    def test_a_new_field_is_encoded(self):
        @dataclasses.dataclass(slots=True)
        class Extended(CheckInFlagged):
            extra: Optional[int] = None

        layout = _Layout(99, Extended)
        event = Extended(
            1, 2.0, user_id=3, venue_id=4, venue_location=VENUE,
            reported_location=VENUE, extra=5,
        )
        assert layout.decode(layout.encode(event)) == event
        base = CheckInFlagged(
            1, 2.0, user_id=3, venue_id=4, venue_location=VENUE,
            reported_location=VENUE,
        )
        assert len(layout.encode(event)) == len(encode_event(base)) + 9

    def test_a_field_type_without_an_encoding_fails_loudly(self):
        @dataclasses.dataclass(slots=True)
        class Tagged(UserRegistered):
            tags: Optional[list] = None

        with pytest.raises(TypeError, match="Tagged.tags"):
            _Layout(99, Tagged)


def _flagged(**overrides):
    fields = dict(
        user_id=1, venue_id=2, venue_location=VENUE,
        reported_location=VENUE, checkin_id=3, trace_id="t", rule="speed",
    )
    fields.update(overrides)
    return CheckInFlagged(4, 5.0, **fields)


class TestCodecErrors:
    def test_unknown_event_type_rejected(self):
        class Rogue:
            pass

        with pytest.raises(WalError):
            encode_event(Rogue())

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(user_id=2**63),
            dict(checkin_id=-(2**63) - 1),
            dict(user_id="1"),
            dict(user_id=1.0),
            dict(venue_location=(40.0, -74.0)),
            dict(venue_location=None),
            dict(trace_id=7),
            dict(rule=b"speed"),
        ],
        ids=repr,
    )
    def test_unencodable_value_raises_before_any_write(
        self, tmp_path, overrides
    ):
        with pytest.raises(WalError) as raised:
            encode_event(_flagged(**overrides))
        assert not isinstance(raised.value, WalCorruptionError)
        with WalWriter(tmp_path) as writer:
            writer.append(_flagged())
            size = writer.bytes_written
            with pytest.raises(WalError):
                writer.append(_flagged(**overrides))
            assert writer.bytes_written == size
            assert writer.appended == 1
        segment = sorted(tmp_path.glob("*.wal"))[0]
        assert segment.stat().st_size == size
        assert WalReader(tmp_path).read_all() == [_flagged()]

    def test_wrong_typed_bool_raises(self):
        event = CheckInAccepted(
            1, 2.0, user_id=1, venue_id=2, venue_location=VENUE,
            reported_location=VENUE, became_mayor=1,
        )
        with pytest.raises(WalError, match="became_mayor"):
            encode_event(event)

    def test_int64_bounds_round_trip(self):
        event = _flagged(user_id=INT64_MIN, checkin_id=INT64_MAX)
        assert decode_event(encode_event(event)) == event

    def test_oversized_record_refused_before_any_write(self, tmp_path):
        huge = UserRegistered(0, 0.0, user_id=1, username="x" * (1 << 20))
        with WalWriter(tmp_path) as writer:
            writer.append(UserRegistered(1, 0.0, user_id=2))
            size = writer.bytes_written
            with pytest.raises(WalError, match="MAX_RECORD_BYTES"):
                writer.append(huge)
            assert writer.bytes_written == size
            writer.append(UserRegistered(2, 0.0, user_id=3))
        events = WalReader(tmp_path).read_all(strict=True)
        assert [event.user_id for event in events] == [2, 3]

    def test_unknown_tag_is_corruption(self):
        payload = bytearray(encode_event(_flagged()))
        payload[0] = 0xEE
        with pytest.raises(WalCorruptionError, match="tag"):
            decode_event(bytes(payload))

    def test_garbage_payload_is_corruption(self):
        with pytest.raises(WalCorruptionError):
            decode_event(b"\xff\xfe not an event")

    def test_empty_payload_is_corruption(self):
        with pytest.raises(WalCorruptionError):
            decode_event(b"")

    def test_truncated_payload_is_corruption(self):
        payload = encode_event(_flagged())
        for cut in (1, 9, 40, len(payload) - 1):
            with pytest.raises(WalCorruptionError):
                decode_event(payload[:cut])

    def test_trailing_payload_bytes_are_corruption(self):
        with pytest.raises(WalCorruptionError, match="trailing"):
            decode_event(encode_event(_flagged()) + b"\x00")

    def test_bad_presence_byte_is_corruption(self):
        payload = encode_event(_flagged(rule=None))
        with pytest.raises(WalCorruptionError, match="presence"):
            decode_event(payload[:-1] + b"\x02")

    def test_valid_crc_over_bad_payload_raises_in_the_reader(self, tmp_path):
        with WalWriter(tmp_path) as writer:
            writer.append(_flagged())
        payload = encode_event(_flagged()) + b"\x00"
        with open(sorted(tmp_path.glob("*.wal"))[0], "ab") as handle:
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            handle.write(payload)
        with pytest.raises(WalCorruptionError, match="trailing"):
            WalReader(tmp_path).read_all()


@pytest.fixture
def sample_events():
    return [
        CheckInAccepted(
            seq, float(seq), user_id=seq % 5, venue_id=seq % 3,
            venue_location=GeoPoint(40.0, -74.0),
            reported_location=GeoPoint(40.0, -74.0),
            checkin_id=seq, points=3,
        )
        for seq in range(40)
    ]


class TestWriterReader:
    def test_append_and_scan(self, tmp_path, sample_events):
        with WalWriter(tmp_path) as writer:
            for event in sample_events:
                writer.append(event)
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert not reader.torn_tail

    def test_after_seq_filters_the_prefix(self, tmp_path, sample_events):
        with WalWriter(tmp_path) as writer:
            for event in sample_events:
                writer.append(event)
        got = WalReader(tmp_path).read_all(after_seq=29)
        assert [event.seq for event in got] == list(range(30, 40))

    def test_segment_rotation(self, tmp_path, sample_events):
        with WalWriter(tmp_path, segment_max_bytes=600) as writer:
            for event in sample_events:
                writer.append(event)
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.segment_count() > 1
        assert writer.segments_opened == reader.segment_count()

    def test_new_writer_never_appends_to_old_segments(
        self, tmp_path, sample_events
    ):
        with WalWriter(tmp_path) as writer:
            for event in sample_events[:20]:
                writer.append(event)
        before = sorted(os.listdir(tmp_path))
        with WalWriter(tmp_path) as writer:
            for event in sample_events[20:]:
                writer.append(event)
        after = sorted(os.listdir(tmp_path))
        assert set(before) < set(after)  # old files untouched, new added
        assert WalReader(tmp_path).read_all() == sample_events

    def test_fsync_batching_knob(self, tmp_path, sample_events):
        eager = WalWriter(tmp_path / "eager", fsync_every=1)
        lazy = WalWriter(tmp_path / "lazy", fsync_every=0)
        for event in sample_events:
            eager.append(event)
            lazy.append(event)
        eager.close()
        lazy.close()
        assert eager.fsyncs == len(sample_events)
        assert lazy.fsyncs == 0

    def test_append_after_close_raises(self, tmp_path, sample_events):
        writer = WalWriter(tmp_path)
        writer.close()
        with pytest.raises(WalError):
            writer.append(sample_events[0])

    def test_bad_knobs_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WalWriter(tmp_path, segment_max_bytes=4)
        with pytest.raises(WalError):
            WalWriter(tmp_path, fsync_every=-1)


class TestCorruptionRecovery:
    """The damage matrix: where the damage sits decides the outcome."""

    def _write(self, directory, events, **kwargs):
        with WalWriter(directory, **kwargs) as writer:
            for event in events:
                writer.append(event)

    def _last_segment(self, directory):
        return sorted(directory.glob("*.wal"))[-1]

    def test_truncated_tail_is_tolerated(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        reader = WalReader(tmp_path)
        got = reader.read_all()
        assert got == sample_events[:-1]
        assert reader.torn_tail
        assert "torn" in reader.tail_error

    def test_torn_header_is_tolerated(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x03")  # 1 byte of a next record's header
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.torn_tail
        assert "header" in reader.tail_error

    def test_strict_mode_promotes_tail_damage(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(WalCorruptionError):
            WalReader(tmp_path).read_all(strict=True)

    def test_flipped_bit_rejected_by_checksum(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x01  # flip one payload bit in the final record
        path.write_bytes(bytes(raw))
        reader = WalReader(tmp_path)
        got = reader.read_all()
        assert got == sample_events[:-1]
        assert reader.torn_tail
        assert "checksum" in reader.tail_error

    def test_mid_log_damage_always_raises(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events, segment_max_bytes=600)
        first = sorted(tmp_path.glob("*.wal"))[0]
        raw = bytearray(first.read_bytes())
        raw[len(SEGMENT_MAGIC) + 10] ^= 0xFF
        first.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="mid-log"):
            WalReader(tmp_path).read_all()

    def test_interior_damage_in_the_final_segment_raises(self, tmp_path):
        events = [
            UserRegistered(seq, float(seq), user_id=seq) for seq in range(100)
        ]
        self._write(tmp_path, events)
        assert len(list(tmp_path.glob("*.wal"))) == 1
        path = self._last_segment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(SEGMENT_MAGIC) + 10] ^= 0xFF  # inside record 0's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="mid-log"):
            WalReader(tmp_path).read_all()

    def test_bad_checksum_before_the_last_record_raises(
        self, tmp_path, sample_events
    ):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        last = len(encode_record(sample_events[-1]))
        raw = bytearray(path.read_bytes())
        raw[-last - 3] ^= 0x01  # the second-to-last record's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="checksum.*mid-log"):
            WalReader(tmp_path).read_all()

    def test_implausible_length_with_bytes_after_it_raises(
        self, tmp_path, sample_events
    ):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(SEGMENT_MAGIC) + 3] = 0x7F  # record 0's length, high byte
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="implausible.*mid-log"):
            WalReader(tmp_path).read_all()

    def test_version_one_segment_raises_naming_the_version(
        self, tmp_path, sample_events
    ):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        path.write_bytes(b"RWALSEG1" + path.read_bytes()[len(SEGMENT_MAGIC):])
        with pytest.raises(WalCorruptionError, match="RWALSEG1.*version 2"):
            WalReader(tmp_path).read_all()

    def test_empty_segment_is_tolerated(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        # A writer that died between open() and writing the magic.
        (tmp_path / "00000001.wal").write_bytes(b"")
        assert WalReader(tmp_path).read_all() == sample_events

    def test_short_magic_in_final_segment_is_a_torn_tail(
        self, tmp_path, sample_events
    ):
        self._write(tmp_path, sample_events)
        (tmp_path / "00000001.wal").write_bytes(SEGMENT_MAGIC[:4])
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.torn_tail

    def test_wrong_magic_always_raises(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WalCorruptionError, match="magic"):
            WalReader(tmp_path).read_all()

    def test_implausible_length_is_a_torn_tail(self, tmp_path, sample_events):
        self._write(tmp_path, sample_events)
        path = self._last_segment(tmp_path)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", MAX_RECORD_BYTES + 1, 0))
        reader = WalReader(tmp_path)
        assert reader.read_all() == sample_events
        assert reader.torn_tail
        assert "implausible" in reader.tail_error

    def test_empty_directory_reads_empty(self, tmp_path):
        reader = WalReader(tmp_path / "nothing-here")
        assert reader.read_all() == []
        assert reader.segment_count() == 0
