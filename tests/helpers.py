"""Shared test helpers."""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np
import pytest

from repro.machine.cluster import Cluster
from repro.machine.costs import SP2_COSTS, CostModel
from repro.machine.faults import FaultPlan
from repro.obs import Metrics, SpanRecorder
from repro.sim.account import CounterNames

#: machine name -> builder of the keywords an application runner forwards
#: to ``Cluster`` and its runtime (built per run: a recorder or a fault
#: plan carries state).  "flat" is the default contention-free crossbar.
MACHINES = {
    "flat": dict,
    "ring": lambda: dict(topology="ring"),
    "fattree": lambda: dict(topology="fattree:arity=2,fatness=1"),
    "observed": lambda: dict(tracer=SpanRecorder(), metrics=Metrics()),
    "lossy": lambda: dict(
        faults=FaultPlan(seed=5).drop("am.", rate=0.05), reliable=True
    ),
}

#: ``parametrize("machine", MACHINE_PARAMS)``: the flat cell keeps the id
#: the test had before it took a machine
MACHINE_PARAMS = [
    pytest.param(m, id=pytest.HIDDEN_PARAM if m == "flat" else m) for m in MACHINES
]


def run_on_machine(run, workload, machine, arrays, *, bitwise=True, **workload_kw):
    """Run ``run(workload, **workload_kw)`` on ``MACHINES[machine]`` and hold
    it to the same run on the flat machine: observers change nothing and
    record something, a lossy fabric retransmits, contention costs time,
    and the computed ``arrays`` are the flat run's, bit for bit unless the
    caller says why not.  Returns the result for its reference check."""
    kwargs = MACHINES[machine]()
    result = run(workload, **workload_kw, **kwargs)
    flat = run(workload, **workload_kw)
    if machine == "observed":
        assert result.elapsed_us == flat.elapsed_us
        assert result.breakdown == flat.breakdown
        assert kwargs["tracer"].spans
    elif machine == "lossy":
        assert result.counters.get(CounterNames.PKT_RETRANSMIT, 0) > 0
    elif machine != "flat":
        assert result.elapsed_us > flat.elapsed_us
    for name in arrays:
        got, want = np.asarray(getattr(result, name)), np.asarray(getattr(flat, name))
        if bitwise:
            assert got.tobytes() == want.tobytes(), name
        else:
            assert np.allclose(got, want), name
    return result


def run_bodies(
    bodies: list[tuple[int, Generator[Any, Any, Any], str]],
    *,
    n_nodes: int = 2,
    costs: CostModel = SP2_COSTS,
    daemons: list[tuple[int, Generator[Any, Any, Any], str]] | None = None,
) -> tuple[Cluster, list[Any]]:
    """Run generator bodies as threads; returns (cluster, results)."""
    cluster = Cluster(n_nodes, costs=costs)
    for nid, gen, name in daemons or []:
        cluster.launch(nid, gen, name, daemon=True)
    threads = [cluster.launch(nid, gen, name) for nid, gen, name in bodies]
    cluster.run()
    return cluster, [t.result for t in threads]
