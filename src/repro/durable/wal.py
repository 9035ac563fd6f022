"""The write-ahead event log: crash-durable storage for the event stream.

The in-process :class:`~repro.stream.bus.EventBus` is fast and ephemeral:
a detector worker that dies takes its :class:`~repro.stream.ledger.
SuspicionLedger` with it, and the paper's defense silently un-flags every
cheater it had caught.  The WAL closes that gap — every event a durable
subscriber sees is appended here *before* any detector state mutates, so
recovery is a pure function of bytes on disk:

    recovered state = latest snapshot + replay of records with
    ``seq > snapshot.seq``

Record format (little-endian), one record per event::

    +------------+-----------+---------------+
    | length u32 | crc32 u32 | payload bytes |
    +------------+-----------+---------------+

``crc32`` is computed over the payload, so a flipped bit anywhere in the
record is rejected.  The payload is a fixed-layout binary encoding of one
:class:`~repro.stream.events.StreamEvent`: one tag byte naming the event
type, then every field in dataclass declaration order:

    ===================  ==========================================
    field type           bytes
    ===================  ==========================================
    ``int``              ``<q`` (8, signed; outside int64 is refused)
    ``float``            ``<d`` (8)
    ``bool``             1 (``0x00`` / ``0x01``)
    ``GeoPoint``         ``<dd`` latitude, longitude (16)
    ``str``              ``<I`` byte length + UTF-8 (``surrogatepass``)
    ``Optional[T]``      presence byte (``0x00`` = ``None``), then ``T``
    ===================  ==========================================

Each class's layout is derived once from :func:`dataclasses.fields` and
its type hints, so a new event field is encoded automatically (or the
import fails on a type the table lacks) — never silently dropped.  The
encoding is deterministic and byte-stable.  Segments open with an 8-byte
magic (:data:`SEGMENT_MAGIC`, whose last digit is the format version) and
rotate at ``segment_max_bytes``; a writer never appends to a pre-existing
segment (its tail may be torn), it always opens a fresh one.

The reader is torn-tail tolerant by design: a crash mid-``write`` leaves
a truncated header, a short payload, or a corrupt checksum at the very
end of the *final* segment, and :meth:`WalReader.scan` stops cleanly
there (``torn_tail`` reports what it saw).  Damage with more bytes after
it — in a non-final segment, or before the end of the final one — is a
mid-log gap no replay can paper over, so it always raises
:class:`WalCorruptionError`: silently skipping interior records would
desynchronise every seq-ordered consumer downstream.
"""

from __future__ import annotations

import dataclasses
import os
import struct
import time
import types
import typing
import zlib
from operator import attrgetter
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.geo.coordinates import GeoPoint
from repro.obs.metrics import MetricsRegistry
from repro.stream.events import (
    CheckInAccepted,
    CheckInFlagged,
    CheckInRejected,
    MayorChanged,
    StreamEvent,
    UserRegistered,
    VenueCreated,
)

#: First 8 bytes of every segment file; the trailing digit is the format
#: version (docs/DURABILITY.md documents the layout; a parity test keeps
#: the doc and this constant identical).
SEGMENT_MAGIC = b"RWALSEG2"

#: ``<length u32><crc32 u32>`` record header.
_RECORD_HEADER = struct.Struct("<II")

#: Hard ceiling on a single record's payload, far above any real event;
#: larger records are refused at write time, and a length field past
#: this is corruption, not a huge record.
MAX_RECORD_BYTES = 1 << 20


class WalError(ReproError):
    """Misuse of the WAL API (unknown event type, closed writer...)."""


class WalCorruptionError(WalError):
    """A record failed its checksum or framing *inside* the log."""


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------

#: Wire tag ↔ event type.  Tags are part of the on-disk format: never
#: renumber, only append.
_TAG_TO_TYPE = {
    1: UserRegistered,
    2: VenueCreated,
    3: CheckInAccepted,
    4: CheckInFlagged,
    5: CheckInRejected,
    6: MayorChanged,
}

_PRESENT, _ABSENT = b"\x01", b"\x00"
_LENGTH = struct.Struct("<I")

#: Field type → its ``struct`` codes (the layout table in the module
#: docstring); ``None`` marks the one variable-width type, ``str``.
_CODES = {int: "q", float: "d", bool: "?", GeoPoint: "dd", str: None}


class _Run:
    """Adjacent fixed-width fields, packed by one ``struct`` call."""

    __slots__ = ("names", "struct", "values", "checked", "geo_mask")

    def __init__(self, fields: List[Tuple[str, type]]) -> None:
        self.names = [name for name, _ in fields]
        self.struct = struct.Struct(
            "<" + "".join(_CODES[kind] for _, kind in fields)
        )
        flat = []
        for name, kind in fields:
            if kind is GeoPoint:
                flat += [f"{name}.latitude", f"{name}.longitude"]
            else:
                flat.append(name)
        get = attrgetter(*flat)
        self.values = get if len(flat) > 1 else (lambda event: (get(event),))
        # struct refuses a wrong-typed int or float itself, but would
        # pack any object as a bool, and any object with ``latitude`` and
        # ``longitude`` attributes as a point.
        self.checked = tuple(
            (name, kind) for name, kind in fields if kind in (bool, GeoPoint)
        )
        geo_mask = tuple(kind is GeoPoint for _, kind in fields)
        self.geo_mask = geo_mask if any(geo_mask) else None

    def encode(self, event, parts: list) -> None:
        for name, kind in self.checked:
            value = getattr(event, name)
            if not isinstance(value, kind):
                raise WalError(
                    f"{type(event).__name__}.{name}: expected "
                    f"{kind.__name__}, got {value!r}"
                )
        try:
            parts.append(self.struct.pack(*self.values(event)))
        except struct.error as exc:
            raise WalError(
                f"cannot encode {type(event).__name__} fields "
                f"{', '.join(self.names)}: {exc}"
            ) from exc

    def decode(self, buf, offset: int, values: list) -> int:
        raw = self.struct.unpack_from(buf, offset)
        if self.geo_mask is None:
            values.extend(raw)
        else:
            at = 0
            for is_geo in self.geo_mask:
                if is_geo:
                    values.append(GeoPoint(raw[at], raw[at + 1]))
                    at += 2
                else:
                    values.append(raw[at])
                    at += 1
        return offset + self.struct.size


class _Str:
    """One ``str`` field: ``u32`` byte length, then UTF-8."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def encode(self, event, parts: list) -> None:
        value = getattr(event, self.name)
        if not isinstance(value, str):
            raise WalError(
                f"{type(event).__name__}.{self.name}: expected str, "
                f"got {value!r}"
            )
        raw = value.encode("utf-8", "surrogatepass")
        parts.append(_LENGTH.pack(len(raw)))
        parts.append(raw)

    def decode(self, buf, offset: int, values: list) -> int:
        (length,) = _LENGTH.unpack_from(buf, offset)
        start = offset + _LENGTH.size
        end = start + length
        if end > len(buf):
            raise WalCorruptionError(f"truncated string field {self.name}")
        values.append(str(buf[start:end], "utf-8", "surrogatepass"))
        return end


class _Optional:
    """A presence byte, then the wrapped step when the field is not None."""

    __slots__ = ("name", "step")

    def __init__(self, name: str, step) -> None:
        self.name = name
        self.step = step

    def encode(self, event, parts: list) -> None:
        if getattr(event, self.name) is None:
            parts.append(_ABSENT)
        else:
            parts.append(_PRESENT)
            self.step.encode(event, parts)

    def decode(self, buf, offset: int, values: list) -> int:
        present = buf[offset]
        if present == 0:
            values.append(None)
            return offset + 1
        if present != 1:
            raise WalCorruptionError(f"bad presence byte {present}")
        return self.step.decode(buf, offset + 1, values)


class _Layout:
    """One event type's wire layout, derived from its dataclass fields."""

    __slots__ = ("cls", "tag", "steps")

    def __init__(self, tag: int, cls: type) -> None:
        self.cls = cls
        self.tag = bytes([tag])
        self.steps: list = []
        hints = typing.get_type_hints(cls)
        run: List[Tuple[str, type]] = []
        for field in dataclasses.fields(cls):
            kind, optional = _kind_of(cls, field.name, hints[field.name])
            if _CODES[kind] is not None and not optional:
                run.append((field.name, kind))
                continue
            if run:
                self.steps.append(_Run(run))
                run = []
            step = _Str(field.name) if kind is str else _Run([(field.name, kind)])
            self.steps.append(_Optional(field.name, step) if optional else step)
        if run:
            self.steps.append(_Run(run))

    def encode(self, event) -> bytes:
        parts = [self.tag]
        for step in self.steps:
            step.encode(event, parts)
        return b"".join(parts)

    def decode(self, payload) -> StreamEvent:
        values: list = []
        offset = 1
        for step in self.steps:
            offset = step.decode(payload, offset, values)
        if offset != len(payload):
            raise WalCorruptionError(
                f"{len(payload) - offset} trailing payload bytes after "
                f"a {self.cls.__name__}"
            )
        return self.cls(*values)


def _kind_of(cls: type, name: str, hint) -> Tuple[type, bool]:
    """``(type, optional)`` for one field's type hint."""
    optional = False
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        optional = len(args) < len(typing.get_args(hint))
        hint = args[0] if len(args) == 1 else hint
    if hint not in _CODES:
        raise TypeError(
            f"{cls.__name__}.{name}: no WAL encoding for type {hint!r}"
        )
    return hint, optional


_LAYOUT_BY_TAG = {tag: _Layout(tag, cls) for tag, cls in _TAG_TO_TYPE.items()}
_LAYOUT_BY_TYPE = {layout.cls: layout for layout in _LAYOUT_BY_TAG.values()}


def encode_event(event: StreamEvent) -> bytes:
    """Serialize one event to its payload bytes.

    The encoding is deterministic and byte-stable, so the same event
    always produces the same record — which is what lets the chaos-style
    digest comparisons treat WAL bytes as a witness.  A value the layout
    cannot carry (an int outside int64, a wrong type) raises
    :class:`WalError`.
    """
    layout = _LAYOUT_BY_TYPE.get(type(event))
    if layout is None:
        raise WalError(f"unknown event type: {type(event).__name__}")
    return layout.encode(event)


def decode_event(payload: bytes) -> StreamEvent:
    """Rebuild the event a payload encodes (inverse of :func:`encode_event`)."""
    try:
        layout = _LAYOUT_BY_TAG.get(payload[0])
        if layout is None:
            raise WalCorruptionError(f"unknown event tag {payload[0]}")
        return layout.decode(payload)
    except WalError:
        raise
    except Exception as exc:
        raise WalCorruptionError(
            f"undecodable WAL payload ({type(exc).__name__}: {exc})"
        ) from exc


def encode_record(event: StreamEvent) -> bytes:
    """One full framed record: header + payload.

    Raises :class:`WalError` for a payload over :data:`MAX_RECORD_BYTES`,
    which no reader would accept.
    """
    payload = encode_event(event)
    if len(payload) > MAX_RECORD_BYTES:
        raise WalError(
            f"{type(event).__name__} record of {len(payload)} bytes exceeds "
            f"MAX_RECORD_BYTES ({MAX_RECORD_BYTES})"
        )
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class _WalMetrics:
    """Exported WAL telemetry (shared by writer and reader)."""

    __slots__ = ("appends", "bytes_written", "fsyncs", "fsync_seconds",
                 "segments", "replayed", "torn_tails")

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.appends = metrics.counter(
            "repro_wal_appends_total",
            "Events appended to write-ahead log segments.",
        ).child()
        self.bytes_written = metrics.counter(
            "repro_wal_bytes_written_total",
            "Bytes written to write-ahead log segments.",
        ).child()
        self.fsyncs = metrics.counter(
            "repro_wal_fsyncs_total",
            "fsync(2) calls issued by WAL writers (batching knob).",
        ).child()
        self.fsync_seconds = metrics.histogram(
            "repro_wal_fsync_seconds",
            "Wall time per WAL fsync batch (flush + fsync); feeds the "
            "wal-fsync-p99 durability SLO.",
        ).child()
        self.segments = metrics.counter(
            "repro_wal_segments_opened_total",
            "WAL segment files opened for writing.",
        ).child()
        self.replayed = metrics.counter(
            "repro_wal_replayed_events_total",
            "Events decoded and yielded by WAL replay scans.",
        ).child()
        self.torn_tails = metrics.counter(
            "repro_wal_torn_tails_total",
            "Replay scans that stopped at a torn or truncated tail.",
        ).child()


class WalWriter:
    """Append-only, segment-rotating event log writer.

    Parameters
    ----------
    directory:
        Segment directory (created if missing).  An existing log is
        *continued*: the writer opens a fresh segment after the highest
        existing index rather than appending to a possibly-torn tail.
    segment_max_bytes:
        Rotate to a new segment once the current one reaches this size.
    fsync_every:
        Issue ``fsync`` every N appends (and on :meth:`close`).  ``1``
        is full durability per event; ``0`` never fsyncs (OS flush
        only) — the knob the E23 bench sweeps.
    """

    def __init__(
        self,
        directory: os.PathLike,
        segment_max_bytes: int = 1_048_576,
        fsync_every: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if segment_max_bytes < len(SEGMENT_MAGIC) + _RECORD_HEADER.size:
            raise WalError(
                f"segment_max_bytes too small: {segment_max_bytes}"
            )
        if fsync_every < 0:
            raise WalError(f"fsync_every must be >= 0: {fsync_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync_every = fsync_every
        self._metrics = _WalMetrics(metrics) if metrics is not None else None
        self.appended = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.last_seq = -1
        self._since_sync = 0
        self._segment_bytes = 0
        self._file = None
        self.segments_opened = 0
        existing = _segment_indices(self.directory)
        self._next_index = (existing[-1] + 1) if existing else 0
        self._closed = False

    # Segment management ----------------------------------------------

    def _open_segment(self) -> None:
        path = self.directory / _segment_name(self._next_index)
        self._next_index += 1
        self._file = open(path, "xb")
        self._file.write(SEGMENT_MAGIC)
        self._segment_bytes = len(SEGMENT_MAGIC)
        self.bytes_written += len(SEGMENT_MAGIC)
        self.segments_opened += 1
        if self._metrics is not None:
            self._metrics.segments.inc()
            self._metrics.bytes_written.inc(len(SEGMENT_MAGIC))

    # Appending --------------------------------------------------------

    def append(self, event: StreamEvent) -> int:
        """Frame, checksum, and append one event; returns bytes written.

        The append is buffered; durability is governed by the
        ``fsync_every`` batching knob and :meth:`sync`.
        """
        if self._closed:
            raise WalError("append on a closed WalWriter")
        record = encode_record(event)
        if (
            self._file is None
            or self._segment_bytes + len(record) > self.segment_max_bytes
        ):
            self._rotate()
        self._file.write(record)
        self._file.flush()
        self._segment_bytes += len(record)
        self.bytes_written += len(record)
        self.appended += 1
        if event.seq > self.last_seq:
            self.last_seq = event.seq
        if self._metrics is not None:
            self._metrics.appends.inc()
            self._metrics.bytes_written.inc(len(record))
        self._since_sync += 1
        if self.fsync_every and self._since_sync >= self.fsync_every:
            self.sync()
        return len(record)

    def _rotate(self) -> None:
        if self._file is not None:
            if self.fsync_every:
                self.sync()
            self._file.close()
        self._open_segment()

    def sync(self) -> None:
        """Force the current segment to stable storage now.

        Explicit calls always fsync; the ``fsync_every=0`` knob only
        disables the *implicit* syncs (batching, rotation, close).
        """
        if self._file is not None and self._since_sync > 0:
            started = time.perf_counter()
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
            self._since_sync = 0
            if self._metrics is not None:
                self._metrics.fsyncs.inc()
                self._metrics.fsync_seconds.observe(
                    time.perf_counter() - started
                )

    def close(self) -> None:
        """Sync (per the knob) and close; further appends raise."""
        if self._closed:
            return
        if self.fsync_every:
            self.sync()
        if self._file is not None:
            self._file.close()
            self._file = None
        self._closed = True

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def _segment_name(index: int) -> str:
    return f"{index:08d}.wal"


def _segment_indices(directory: Path) -> List[int]:
    if not directory.is_dir():
        return []
    indices = []
    for path in directory.iterdir():
        stem, dot, ext = path.name.partition(".")
        if ext == "wal" and stem.isdigit():
            indices.append(int(stem))
    return sorted(indices)


class WalReader:
    """Sequential scan over every segment of one WAL directory.

    After a :meth:`scan` is exhausted, :attr:`torn_tail` reports whether
    the log ended in a torn/truncated record (and :attr:`tail_error`
    says what exactly was wrong with it).  Interior damage — a bad
    record with more log after it — raises :class:`WalCorruptionError`
    regardless of mode; ``strict=True`` additionally promotes tail
    damage to an error (used by integrity checks, never by recovery).
    """

    def __init__(
        self,
        directory: os.PathLike,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self._metrics = _WalMetrics(metrics) if metrics is not None else None
        self.records_read = 0
        self.torn_tail = False
        self.tail_error: Optional[str] = None

    def scan(
        self, after_seq: int = -1, strict: bool = False
    ) -> Iterator[StreamEvent]:
        """Yield events in log order, skipping ``seq <= after_seq``.

        ``after_seq`` is the snapshot handoff: recovery passes
        ``snapshot.seq`` and receives exactly the suffix it must replay.
        """
        self.records_read = 0
        self.torn_tail = False
        self.tail_error = None
        indices = _segment_indices(self.directory)
        for position, index in enumerate(indices):
            final_segment = position == len(indices) - 1
            path = self.directory / _segment_name(index)
            for event, problem in self._scan_segment(path):
                if problem is not None:
                    if not final_segment or strict:
                        raise WalCorruptionError(
                            f"{path.name}: {problem}"
                            + ("" if final_segment else " (mid-log)")
                        )
                    self.torn_tail = True
                    self.tail_error = f"{path.name}: {problem}"
                    if self._metrics is not None:
                        self._metrics.torn_tails.inc()
                    return
                self.records_read += 1
                if self._metrics is not None:
                    self._metrics.replayed.inc()
                if event.seq > after_seq:
                    yield event

    def _scan_segment(
        self, path: Path
    ) -> Iterator[Tuple[Optional[StreamEvent], Optional[str]]]:
        """Yield ``(event, None)`` per good record, ``(None, problem)`` once
        at a bad record that runs to the end of the file (then stop).

        A bad record with bytes after it is not a torn write: it raises
        :class:`WalCorruptionError` ("mid-log") even in the final segment.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        magic = data[: len(SEGMENT_MAGIC)]
        if len(magic) < len(SEGMENT_MAGIC):
            # A zero-byte or header-short segment: the writer died
            # between creating the file and writing its magic.
            if magic:
                yield None, "short segment header"
            return
        if magic != SEGMENT_MAGIC:
            raise WalCorruptionError(
                f"{path.name}: bad segment magic {magic!r}; this reader "
                f"reads only WAL format version {SEGMENT_MAGIC[-1:].decode()}"
                f" ({SEGMENT_MAGIC.decode()})"
            )
        end = len(data)
        offset = len(SEGMENT_MAGIC)
        while offset < end:
            start = offset
            if end - offset < _RECORD_HEADER.size:
                yield None, "torn record header"
                return
            length, crc = _RECORD_HEADER.unpack_from(data, offset)
            offset += _RECORD_HEADER.size
            if length > MAX_RECORD_BYTES:
                # The length field itself is garbage, so only a header
                # with nothing after it can be a torn write.
                problem = f"implausible record length {length}"
            elif offset + length > end:
                yield None, "torn record payload"
                return
            else:
                payload = data[offset : offset + length]
                offset += length
                if zlib.crc32(payload) == crc:
                    yield decode_event(payload), None
                    continue
                problem = "checksum mismatch"
            if offset < end:
                raise WalCorruptionError(
                    f"{path.name}: {problem} at offset {start} (mid-log)"
                )
            yield None, problem
            return

    def read_all(
        self, after_seq: int = -1, strict: bool = False
    ) -> List[StreamEvent]:
        """Materialised :meth:`scan` for tests and small logs."""
        return list(self.scan(after_seq=after_seq, strict=strict))

    def segment_count(self) -> int:
        """How many segment files the directory currently holds."""
        return len(_segment_indices(self.directory))

    def total_bytes(self) -> int:
        """Total on-disk size of every segment."""
        return sum(
            (self.directory / _segment_name(index)).stat().st_size
            for index in _segment_indices(self.directory)
        )


__all__ = [
    "MAX_RECORD_BYTES",
    "SEGMENT_MAGIC",
    "WalCorruptionError",
    "WalError",
    "WalReader",
    "WalWriter",
    "decode_event",
    "encode_event",
    "encode_record",
]
