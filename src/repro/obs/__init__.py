"""Observability: span tracing, metrics histograms, Perfetto export.

Everything in this package is *passive*: spans and histogram samples are
taken at existing control points of the simulated machine and never
schedule events, consume sequence numbers, or charge time — an
instrumented run is bit-identical in virtual time to an uninstrumented
one (the determinism suite holds us to that).

* :mod:`repro.obs.spans` — nested begin/end spans in virtual time,
  recorded through the existing :class:`~repro.sim.trace.Tracer` hook.
* :mod:`repro.obs.metrics` — named log-bucket histograms (allocation-free
  on the hot path) and a registry with p50/p90/p99 reporting.
* :mod:`repro.obs.perfetto` — Chrome trace-event / Perfetto JSON export
  with one track per node and flow events linking send → deliver.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "LogHistogram": "repro.obs.metrics",
    "MetricNames": "repro.obs.metrics",
    "Metrics": "repro.obs.metrics",
    "Span": "repro.obs.spans",
    "SpanRecorder": "repro.obs.spans",
    "chrome_trace_events": "repro.obs.perfetto",
    "chrome_trace_text": "repro.obs.perfetto",
    "collect_cluster_gauges": "repro.obs.metrics",
    "write_chrome_trace": "repro.obs.perfetto",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
