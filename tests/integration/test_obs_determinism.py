"""Observability must be free: instrumented runs are bit-identical.

The span recorder and metrics registry are passive — they sample at
existing control points but never schedule events, consume sequence
numbers, or charge time.  These tests run the same workloads with and
without full instrumentation and require *exactly* equal virtual-time
results, then check the instruments actually captured data.
"""

import hashlib
import subprocess
import sys

import pytest

from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d
from repro.experiments.microbench import am_base_rtt, run_cc_microbench
from repro.obs import MetricNames, Metrics, SpanRecorder


def _graph():
    return Em3dGraph(Em3dParams(n_nodes=40, degree=4, n_procs=4, pct_remote=0.5))


class TestInstrumentationIsFree:
    def test_em3d_accounting_identical_with_instruments(self):
        bare = run_splitc_em3d(_graph(), steps=2)
        tracer = SpanRecorder()
        metrics = Metrics()
        traced = run_splitc_em3d(_graph(), steps=2, tracer=tracer, metrics=metrics)
        assert traced.elapsed_us == bare.elapsed_us
        assert traced.breakdown == bare.breakdown
        assert traced.counters == bare.counters
        assert (traced.values == bare.values).all()
        # and the instruments actually observed the run
        assert tracer.spans
        assert not tracer.dropped_spans
        assert metrics.histogram(MetricNames.SC_READ).count > 0
        assert metrics.histogram(MetricNames.MSG_BYTES).count > 0

    def test_cc_microbench_row_identical_with_metrics(self):
        bare = run_cc_microbench("0-Word", iters=20)
        metrics = Metrics()
        metered = run_cc_microbench("0-Word", iters=20, metrics=metrics)
        assert metered == bare  # MicroRow dataclass: field-for-field
        hist = metrics.histogram(MetricNames.RMI_LATENCY)
        # the create() RMI + warmup + measured iterations each complete
        # one invoke()
        assert hist.count == 1 + 4 + 20
        assert hist.vmin > 0.0

    def test_am_rtt_identical_and_histogram_counts_iters(self):
        bare = am_base_rtt(iters=25)
        metrics = Metrics()
        metered = am_base_rtt(iters=25, metrics=metrics)
        assert metered == bare
        hist = metrics.histogram(MetricNames.AM_RTT)
        assert hist.count == 25
        # a clean 2-node ping-pong has a constant RTT: the distribution
        # collapses to a point at the reported mean (up to float ulps in
        # the per-iteration timestamp subtraction)
        assert hist.vmin == pytest.approx(metered)
        assert hist.vmax == pytest.approx(metered)


class TestSpanShape:
    def test_em3d_span_tree(self):
        tracer = SpanRecorder()
        traced = run_splitc_em3d(_graph(), steps=1, tracer=tracer)
        assert traced.elapsed_us > 0
        names = {s.name for s in tracer.spans}
        assert "sc.barrier" in names
        assert "am.handle" in names
        # every finished span is well-formed in virtual time
        for s in tracer.finished():
            assert s.end >= s.start
        # barrier spans carry their epoch
        epochs = {s.detail for s in tracer.of_name("sc.barrier")}
        assert any(d.startswith("epoch ") for d in epochs)


#: the `trace` artifact's Perfetto files, whoever writes them
QUICK_TRACE_SHA256 = "0928e64307b955e80eb0a74c60ebdb797b3309dc8b1bdb4c03a17ebc931680cf"
FULL_TRACE_SHA256 = "8b3416a08157f8722974edf3d969af5c919013615718f00d62e6484976b37b69"


def _obs_trace_sha(out, *flags):
    subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "run", "trace", *flags,
         "--no-cache", "--out", str(out)],
        check=True, capture_output=True, timeout=120,
    )
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_quick_trace_file_is_pinned(tmp_path):
    """sha256 of the `obs_trace.run(quick=True)` Perfetto file, taken on
    the commit before the exporter began writing JSON text itself: any
    byte a rewrite moves shows here.  (A fresh interpreter because the pin
    predates per-network packet ids; since those, an in-process run
    writes the same bytes — ``test_report_and_proc_counts`` checks that.)"""
    assert _obs_trace_sha(tmp_path / "quick.json") == QUICK_TRACE_SHA256


def test_full_trace_file_is_pinned(tmp_path):
    """The `--full` file, taken on the commit before the engine became one
    heap and one run loop."""
    assert _obs_trace_sha(tmp_path / "full.json", "--full") == FULL_TRACE_SHA256
