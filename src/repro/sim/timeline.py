"""Text timeline rendering from a :class:`RecordingTracer`.

Attach a tracer to a cluster, run, then render what happened — thread
dispatches, message sends, deliveries — as a chronological, per-node
aligned log.  Intended for debugging simulated programs and for teaching
what the runtimes actually do; the renderer itself performs no
simulation work.

    tracer = RecordingTracer()
    cluster = Cluster(2, tracer=tracer)
    ...
    print(render_timeline(tracer, n_nodes=2))
"""

from __future__ import annotations

from repro.sim.trace import RecordingTracer, TraceRecord

__all__ = ["render_timeline", "summarize_kinds"]

_GLYPHS = {
    "thread.run": ">",
    "thread.done": ".",
    "send": "~",
    "deliver": "*",
}


def _fmt_record(r: TraceRecord) -> str:
    glyph = _GLYPHS.get(r.kind, "?")
    detail = " " + str(r.detail) if r.detail else ""
    return f"{glyph} {r.kind}{detail}"


def render_timeline(
    tracer: RecordingTracer,
    *,
    n_nodes: int,
    start: float = 0.0,
    end: float | None = None,
    limit: int = 200,
    tail: bool = False,
    col_width: int = 34,
) -> str:
    """Render the trace as one column per node, one row per event.

    ``start``/``end`` bound the virtual-time window; ``limit`` caps the
    rows so a long run stays readable.  By default the *first* ``limit``
    rows of the window are shown; ``tail=True`` shows the *last* ``limit``
    instead — on a long run the interesting part (the stall, the final
    barrier) is the tail, and the tracer's bounded deque has already
    evicted the oldest records anyway.  Either way the truncation is
    explicit: omitted-row counts and tracer evictions are printed, never
    silently dropped.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    window = [
        r
        for r in tracer.records
        if r.time >= start and (end is None or r.time <= end)
    ]
    omitted = max(0, len(window) - limit)
    records = window[-limit:] if tail else window[:limit]

    header = "time (us)".ljust(12) + "".join(
        f"node {nid}".ljust(col_width) for nid in range(n_nodes)
    )
    lines = [header, "-" * len(header.rstrip())]
    evicted = getattr(tracer, "evicted", 0)
    if evicted:
        lines.append(f"... ({evicted} oldest records already evicted by the tracer)")
    if tail and omitted:
        lines.append(f"... ({omitted} earlier records omitted)")
    for r in records:
        cells = [""] * n_nodes
        if 0 <= r.node < n_nodes:
            cells[r.node] = _fmt_record(r)[: col_width - 1]
        lines.append(
            f"{r.time:>10.2f}  " + "".join(c.ljust(col_width) for c in cells)
        )
    if not tail and omitted:
        lines.append(f"... ({omitted} more records)")
    return "\n".join(line.rstrip() for line in lines)


def summarize_kinds(tracer: RecordingTracer) -> dict[str, int]:
    """Event counts by kind (a quick sanity view of a run)."""
    out: dict[str, int] = {}
    for r in tracer.records:
        out[r.kind] = out.get(r.kind, 0) + 1
    return out
