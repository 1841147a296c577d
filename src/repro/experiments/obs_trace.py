"""Trace capture: one EM3D run with span tracing + Perfetto export.

Runs the Figure 6 workload (Split-C EM3D, bulk version) with a
:class:`~repro.obs.spans.SpanRecorder` attached, so the virtual-time
execution — barrier epochs, split-phase reads, AM handler activations,
packet sends and deliveries — can be opened in Chrome's ``about:tracing``
or https://ui.perfetto.dev as a per-node timeline with cross-node flow
arrows on every message.

Because the tracer and metrics registry are passive observers, the traced
run's accounting is bit-identical to an untraced run — the golden-trace
suite holds us to that.  The result is plain data — counts plus the
export as text (:class:`~repro.experiments.results.TraceCaptureResult`) —
so it is cached and served by the daemon like every other artifact.
"""

from __future__ import annotations

from collections import Counter

from repro.experiments.results import TraceCaptureResult

__all__ = ["TraceCaptureResult", "run"]


def run(*, quick: bool = True, version: str = "bulk") -> TraceCaptureResult:
    """Capture one traced EM3D run (deterministic for fixed sizes)."""
    from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d
    from repro.obs import Metrics, SpanRecorder, chrome_trace_text

    params = (
        Em3dParams(n_nodes=80, degree=5, n_procs=4, pct_remote=1.0)
        if quick
        else Em3dParams(n_nodes=320, degree=8, n_procs=8, pct_remote=1.0)
    )
    graph = Em3dGraph(params)
    tracer = SpanRecorder(maxlen=200_000)
    out = run_splitc_em3d(
        graph, steps=1, version=version, tracer=tracer, metrics=Metrics()
    )
    return TraceCaptureResult(
        elapsed_us=out.elapsed_us,
        n_procs=params.n_procs,
        version=version,
        records=len(tracer.records),
        evicted=tracer.evicted,
        spans=len(tracer.spans),
        dropped_spans=tracer.dropped_spans,
        spans_by_name=dict(Counter(s.name for s in tracer.spans)),
        breakdown=out.breakdown,
        perfetto_json=chrome_trace_text(tracer),
    )
