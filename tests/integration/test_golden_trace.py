"""Golden-trace determinism: the engine with inline advances is
bit-identical to the heap-only engine (``fast_path=False``).

Three levels of evidence, from engine to full application:

* an engine-level trace of ``(time, seq)`` per fired callback for a mixed
  schedule (delays, zero-delay storms, cancellations) — both engines
  must interleave identically;
* every Table 4 micro-benchmark row (CC++ and Split-C): virtual-time
  totals, per-category breakdown, and thread-op counters all equal;
* a traced EM3D run in each communication paradigm (Split-C reads,
  CC++ RMI, one-sided RMA): per-event application trace (time, node,
  kind, detail) plus elapsed time, breakdown, counters and computed
  values.

Packet ids in trace details are normalized away: they come from a
process-wide counter that keeps ticking across runs, so two equal runs
disagree on the absolute ids while agreeing on everything else.
"""

import re

import pytest

from repro.apps.em3d import (
    Em3dGraph,
    Em3dParams,
    run_ccpp_em3d,
    run_rma_em3d,
    run_splitc_em3d,
)
from repro.experiments.microbench import (
    CC_BENCHMARKS,
    SC_BENCHMARKS,
    run_cc_microbench,
    run_sc_microbench,
)
from repro.sim.engine import Simulator
from repro.sim.trace import RecordingTracer

_ITERS = 25


def _engine_trace(fast_path: bool) -> list[tuple[float, int]]:
    """Drive one mixed scenario and record (time, seq) per fire.

    ``seq`` is read off the simulator *after* the fire so inline-advance
    bookkeeping shows up too: if the fast path consumed sequence numbers
    differently from the heap path, the traces would diverge even when
    the firing times happen to agree.
    """
    sim = Simulator(fast_path=fast_path)
    trace: list[tuple[float, int]] = []

    def mark() -> None:
        trace.append((sim.now, sim._seq))

    def storm(n: int):
        def kick() -> None:
            mark()
            if n > 0:
                sim.schedule(0.0, storm(n - 1))

        return kick

    def tick(left: int, delay: float):
        def fire() -> None:
            mark()
            if left > 0:
                sim.schedule(delay, tick(left - 1, delay))
                sim.schedule(0.0, mark)
                sim.schedule(0.0, storm(2))

        return fire

    sim.schedule(1.0, tick(12, 3.0))
    sim.schedule(2.5, tick(9, 2.0))
    doomed = [sim.schedule_event(50.0 + i, mark) for i in range(8)]
    sim.schedule(40.0, lambda: [ev.cancel() for ev in doomed[:6]])
    sim.run()
    trace.append((sim.now, sim._seq, sim.events_fired))
    return trace


def test_engine_event_trace_identical():
    assert _engine_trace(True) == _engine_trace(False)


@pytest.mark.parametrize("name", list(CC_BENCHMARKS))
def test_cc_table4_row_identical(name):
    fast = run_cc_microbench(name, iters=_ITERS, fast_path=True)
    slow = run_cc_microbench(name, iters=_ITERS, fast_path=False)
    assert fast == slow


@pytest.mark.parametrize("name", list(SC_BENCHMARKS))
def test_sc_table4_row_identical(name):
    fast = run_sc_microbench(name, iters=_ITERS, fast_path=True)
    slow = run_sc_microbench(name, iters=_ITERS, fast_path=False)
    assert fast == slow


def _normalized(tracer: RecordingTracer) -> list[tuple[float, int, str, str]]:
    return [
        (r.time, r.node, r.kind, re.sub(r"#\d+", "#", str(r.detail)))
        for r in tracer.records
    ]


@pytest.mark.parametrize(
    "run_em3d",
    [
        pytest.param(run_splitc_em3d, id=pytest.HIDDEN_PARAM),
        run_ccpp_em3d,
        run_rma_em3d,
    ],
)
def test_em3d_run_and_trace_identical(run_em3d):
    graph = Em3dGraph(Em3dParams(n_nodes=80, degree=5, n_procs=4, pct_remote=1.0))
    fast_tr, slow_tr = RecordingTracer(), RecordingTracer()
    fast = run_em3d(graph, steps=2, warmup_steps=0, fast_path=True, tracer=fast_tr)
    slow = run_em3d(graph, steps=2, warmup_steps=0, fast_path=False, tracer=slow_tr)
    assert fast.elapsed_us == slow.elapsed_us
    assert fast.breakdown == slow.breakdown
    assert fast.counters == slow.counters
    assert list(fast.values) == list(slow.values)
    fast_records, slow_records = _normalized(fast_tr), _normalized(slow_tr)
    # a trivial trace would prove nothing (the owner-push RMA version sends
    # one put per reader per phase: 332 records, the others thousands)
    assert len(fast_records) > 300
    assert fast_records == slow_records
