"""Optional event tracing.

Tracers observe interesting machine events (thread switches, message
sends/deliveries, polls).  The default :class:`NullTracer` costs one method
call per event; :class:`RecordingTracer` keeps a bounded in-memory log that
tests and debugging sessions can assert against.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only (machine imports sim)
    from repro.machine.network import PacketRecord

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "RecordingTracer", "TraceRecord"]

_tuple_new = tuple.__new__


class TraceRecord(NamedTuple):
    """One traced machine event.

    A named tuple rather than a dataclass: construction happens once per
    traced event on the simulator's hottest paths, and ``tuple.__new__``
    is several times cheaper than a generated ``__init__``.

    ``detail`` is a ``str``, or, on the network's ``send`` and
    ``deliver`` records, the packet's
    :class:`~repro.machine.network.PacketRecord`: its fields, not yet
    text.  Read it as ``str(r.detail)``: both forms spell the same line.
    """

    time: float
    node: int
    kind: str
    detail: str | PacketRecord


class Tracer:
    """Interface: override :meth:`record`.

    ``wants_spans`` advertises the richer span API of
    :class:`~repro.obs.spans.SpanRecorder` (``begin``/``end``).  Layers
    that emit spans resolve the capability once at construction —
    ``spans = tracer if getattr(tracer, "wants_spans", False) else None``
    — so span sites cost a single ``is not None`` test when off.
    """

    wants_spans: bool = False

    def record(self, time: float, node: int, kind: str, detail: str | PacketRecord = "") -> None:
        """Observe one event.  ``detail`` is text or a
        :class:`~repro.machine.network.PacketRecord`, kept as given: a
        tracer that wants text calls ``str()`` on it."""
        raise NotImplementedError


class NullTracer(Tracer):
    """Discards everything (the default)."""

    def record(self, time: float, node: int, kind: str, detail: str | PacketRecord = "") -> None:
        pass


#: the default tracer of every node and network: it has no state, so one
#: instance serves them all
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Keeps the last ``maxlen`` records in memory.

    ``kinds`` (if given) filters to the event kinds of interest so long
    application runs don't drown the signal.
    """

    def __init__(self, *, maxlen: int = 100_000, kinds: set[str] | None = None):
        self.records: deque[TraceRecord] = deque(maxlen=maxlen)
        self.kinds = kinds
        #: records accepted since the last clear(), retained or not
        self.recorded = 0
        self._append = self.records.append

    @property
    def evicted(self) -> int:
        """Records the bounded deque pushed out (oldest-first eviction);
        renderers surface this so truncation is never silent."""
        maxlen = self.records.maxlen
        return max(0, self.recorded - maxlen) if maxlen is not None else 0

    def record(self, time: float, node: int, kind: str, detail: str | PacketRecord = "") -> None:
        kinds = self.kinds
        if kinds is not None and kind not in kinds:
            return
        self.recorded += 1
        # tuple.__new__ directly: skips the frame of the generated __new__
        self._append(_tuple_new(TraceRecord, (time, node, kind, detail)))

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All retained records of one kind, oldest first."""
        return [r for r in self.records if r.kind == kind]

    def clear(self) -> None:
        self.records.clear()
        self.recorded = 0

    def __len__(self) -> int:
        return len(self.records)
