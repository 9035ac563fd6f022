"""Span recording from outside the program, for the traced benchmark run.

The traced run wraps the public calls into each layer (module attributes,
instance methods, class methods and bus subscribers) with a recorder that
notes a span per call: name, start, end, parent span and op id.  Spans
live in memory, one buffer per thread, and are written out when the run
ends.  A layer's self time is its span duration minus the union of its
children's intervals.

The untraced run installs nothing: :class:`Wrapping` is only ever built
for a traced round, and :meth:`Wrapping.restore` puts every original
attribute back, so headline numbers never include wrapper cost.
"""

from __future__ import annotations

import gzip
import threading
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: One finished span: (name, start, end, parent index or -1, op id).
Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """Per-thread span buffers plus per-layer counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: List[List[Optional[Span]]] = []
        self._lock = threading.Lock()
        #: Counters recorded at the wrapped boundaries (name -> value).
        self.counts: Dict[str, float] = {}

    def set_op(self, op_id: int) -> None:
        """Stamp later spans on this thread with ``op_id`` (-1: none)."""
        local = self._local
        if not hasattr(local, "buffer"):
            local.buffer = []
            local.stack = []
            with self._lock:
                self._buffers.append(local.buffer)
        local.op = op_id

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a boundary counter.  Unlocked: only the
        single-threaded check-in loops count."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, observe=None) -> Callable:
        """A function that records one ``name`` span around ``fn``.

        Only calls made inside an op (op id >= 0) are recorded, so set-up
        work that goes through a wrapped layer stays out of the trace.
        ``observe(args, kwargs, result)`` runs after the call, outside
        the span, to update boundary counters.
        """
        local = self._local

        def traced(*args, **kwargs):
            op = getattr(local, "op", -1)
            if op < 0:
                return fn(*args, **kwargs)
            buffer = local.buffer
            stack = local.stack
            index = len(buffer)
            buffer.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buffer[index] = (name, start, end, parent, op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> List[List[Span]]:
        """Every thread's finished spans, in call order per thread."""
        with self._lock:
            return [list(buffer) for buffer in self._buffers]

    def write(self, path: Path) -> int:
        """Write all spans as gzip'd TSV; returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("thread\tindex\tname\tstart\tend\tparent\top\n")
            for thread, buffer in enumerate(self.spans()):
                for index, span in enumerate(buffer):
                    if span is None:
                        continue
                    name, start, end, parent, op = span
                    handle.write(
                        f"{thread}\t{index}\t{name}\t{start:.9f}\t"
                        f"{end:.9f}\t{parent}\t{op}\n"
                    )
                    written += 1
        return written


def self_times(recorder: SpanRecorder) -> Dict[str, Tuple[int, float]]:
    """Per span name: (call count, total self seconds).

    Self time is the span's duration minus the union of its direct
    children's intervals (children of one parent may overlap only if a
    callee spawned threads, which no wrapped layer does, but the union
    keeps the arithmetic right regardless).
    """
    totals: Dict[str, List[float]] = {}
    for buffer in recorder.spans():
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in buffer:
            if span is not None and span[3] >= 0:
                children.setdefault(span[3], []).append((span[1], span[2]))
        for index, span in enumerate(buffer):
            if span is None:
                continue
            name, start, end, _, _ = span
            covered = _union_length(children.get(index, ()))
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - covered
    return {name: (int(calls), self_s) for name, (calls, self_s) in totals.items()}


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


class Wrapping:
    """Installs recorder wrappers on attributes and undoes them exactly.

    An attribute the owner holds itself (a module function, a class
    method, an instance's own callable) is replaced and the original
    object is put back; one it inherits (an instance's method) is
    shadowed in the instance ``__dict__`` and deleted on restore.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object, bool]] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Wrap ``owner.attr`` as span ``name``."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        current = getattr(owner, attr)
        setattr(owner, attr, self.recorder.wrap(name, current, observe))
        self._undo.append((owner, attr, original, own))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
