"""Nested virtual-time spans, recorded through the ``Tracer`` hook.

A :class:`SpanRecorder` is a :class:`~repro.sim.trace.RecordingTracer`
that additionally accepts *spans*: intervals with a name, a node, and an
optional parent.  Instrumented layers (RMI invoke/dispatch, AM handler
execution, Split-C accesses, barrier epochs) call :meth:`begin` /
:meth:`end` only when the attached tracer advertises
``wants_spans = True`` — with the default :class:`~repro.sim.trace.NullTracer`
(or any plain tracer) every span site is a single pre-resolved ``None``
check, so the fast path stays free.

Span identity is the explicit ``sid`` returned by :meth:`begin` (an index
into the span list), **not** an implicit per-node stack: the cooperative
scheduler interleaves threads, so an RMI invoke parks while unrelated
spans open and close on the same node.  Children link to their parent by
passing ``parent=sid``; the Perfetto exporter groups each tree onto one
async track.

Spans observe virtual time; they never advance it, schedule events, or
charge accounts — an instrumented run is bit-identical to a bare one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import RecordingTracer

__all__ = ["Span", "SpanRecorder"]

_new = object.__new__


@dataclass(slots=True)
class Span:
    """One begin/end interval in virtual time (``end < 0`` while open)."""

    sid: int
    parent: int          # sid of the enclosing span, or -1 for a root
    node: int
    name: str
    detail: str
    start: float
    end: float = -1.0

    @property
    def open(self) -> bool:
        return self.end < 0.0

    @property
    def duration(self) -> float:
        """Span length in µs (0.0 while still open)."""
        return self.end - self.start if self.end >= 0.0 else 0.0


class SpanRecorder(RecordingTracer):
    """Records plain trace events *and* nested spans.

    ``max_spans`` bounds memory on long runs: once full, further
    :meth:`begin` calls are counted in ``dropped_spans`` and return -1
    (which :meth:`end` ignores), so instrumentation sites never need to
    care.
    """

    wants_spans = True

    def __init__(
        self,
        *,
        maxlen: int = 100_000,
        kinds: set[str] | None = None,
        max_spans: int = 250_000,
    ):
        super().__init__(maxlen=maxlen, kinds=kinds)
        self.spans: list[Span] = []
        self.max_spans = max_spans
        #: begin() calls refused because the span list was full
        self.dropped_spans = 0

    def begin(
        self, time: float, node: int, name: str, detail: str = "", parent: int = -1
    ) -> int:
        """Open a span; returns its sid (pass to :meth:`end`), or -1 when
        the recorder is full."""
        spans = self.spans
        sid = len(spans)
        if sid >= self.max_spans:
            self.dropped_spans += 1
            return -1
        # the fields stored one by one, not through the generated
        # __init__: one frame less on a call made once per traced access
        s = _new(Span)
        s.sid = sid
        s.parent = parent
        s.node = node
        s.name = name
        s.detail = detail
        s.start = time
        s.end = -1.0
        spans.append(s)
        return sid

    def end(self, sid: int, time: float) -> None:
        """Close the span opened as ``sid``.  A no-op for ``sid < 0``
        (a begin() the recorder refused)."""
        if sid >= 0:
            self.spans[sid].end = time

    # ------------------------------------------------------------- inspection

    def finished(self) -> list[Span]:
        """All closed spans, in begin order."""
        return [s for s in self.spans if s.end >= 0.0]

    def of_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, sid: int) -> list[Span]:
        return [s for s in self.spans if s.parent == sid]

    def clear(self) -> None:
        super().clear()
        self.spans.clear()
        self.dropped_spans = 0
