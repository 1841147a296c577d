"""Integration: end-to-end determinism of full application runs.

Every reported number in the harness must reproduce exactly across runs
— the reproduction's analogue of the paper's 10 000-iteration averaging.
"""

import numpy as np
import pytest

from repro.apps.em3d import (
    Em3dGraph,
    Em3dParams,
    run_ccpp_em3d,
    run_rma_em3d,
    run_splitc_em3d,
)
from repro.apps.water import WaterParams, WaterSystem, run_ccpp_water
from repro.experiments.microbench import run_cc_microbench


def test_em3d_splitc_bitwise_reproducible():
    graph = Em3dGraph(Em3dParams(n_nodes=48, degree=4, n_procs=4, pct_remote=0.7))
    a = run_splitc_em3d(graph, steps=1, version="ghost")
    b = run_splitc_em3d(graph, steps=1, version="ghost")
    assert a.elapsed_us == b.elapsed_us
    assert a.breakdown == b.breakdown
    assert a.counters == b.counters
    assert np.array_equal(a.values, b.values)


def test_em3d_ccpp_bitwise_reproducible():
    graph = Em3dGraph(Em3dParams(n_nodes=48, degree=4, n_procs=4, pct_remote=0.7))
    a = run_ccpp_em3d(graph, steps=1, version="base")
    b = run_ccpp_em3d(graph, steps=1, version="base")
    assert a.elapsed_us == b.elapsed_us
    assert a.counters == b.counters


def test_em3d_layout_built_once_per_graph(monkeypatch):
    """Every run on one graph shares the layout the graph built on first
    use, and reads exactly what a run on a fresh equal graph reads."""
    import repro.apps.em3d.graph as graph_mod

    built = []

    class CountingLayout(graph_mod.Em3dLayout):
        def __init__(self, graph):
            built.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(graph_mod, "Em3dLayout", CountingLayout)
    params = Em3dParams(n_nodes=48, degree=4, n_procs=4, pct_remote=0.7)
    runs = [
        (run_splitc_em3d, {"version": "bulk"}),
        (run_splitc_em3d, {"version": "ghost"}),
        (run_ccpp_em3d, {"version": "bulk"}),
        (run_rma_em3d, {}),
    ]
    shared = Em3dGraph(params)
    on_shared = [run(shared, steps=1, **kw) for run, kw in runs]
    assert built == [shared]
    for (run, kw), a in zip(runs, on_shared):
        b = run(Em3dGraph(params), steps=1, **kw)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.elapsed_us == b.elapsed_us
        assert a.breakdown == b.breakdown
        assert a.counters == b.counters
    assert len(built) == 1 + len(runs)


def test_water_ccpp_bitwise_reproducible():
    system = WaterSystem(WaterParams(n_molecules=12, n_procs=4, steps=1))
    a = run_ccpp_water(system, version="atomic")
    b = run_ccpp_water(system, version="atomic")
    assert a.elapsed_us == b.elapsed_us
    assert a.potential == b.potential


def test_microbench_reproducible():
    a = run_cc_microbench("0-Word", iters=10)
    b = run_cc_microbench("0-Word", iters=10)
    assert a.total_us == b.total_us
    assert a.syncs == b.syncs


def test_microbench_zero_variance_across_iterations():
    """Warm iterations are identical: doubling iters must not move the
    per-iteration mean."""
    short = run_cc_microbench("0-Word Simple", iters=10)
    long = run_cc_microbench("0-Word Simple", iters=40)
    assert short.total_us == pytest.approx(long.total_us, rel=1e-9)

