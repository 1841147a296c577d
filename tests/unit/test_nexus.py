"""Unit tests for the Nexus baseline runtime."""

import pytest

from repro.ccpp import CCppRuntime, ProcessorObject, processor_class, remote
from repro.errors import CalibrationError
from repro.machine.cluster import Cluster
from repro.machine.costs import NEXUS_COSTS
from repro.nexus import NexusCCppRuntime, make_nexus_runtime


@processor_class
class NexusEcho(ProcessorObject):
    @remote(threaded=True)
    def echo(self, x):
        return x


def test_requires_nexus_cost_profile():
    with pytest.raises(CalibrationError):
        NexusCCppRuntime(Cluster(2))  # default SP2 costs


def test_factory_builds_working_runtime():
    rt = make_nexus_runtime(2)
    assert isinstance(rt, CCppRuntime)
    assert rt.cluster.costs.name == NEXUS_COSTS.name
    assert rt.stub_caching is False
    assert rt.persistent_buffers is False

    def program(ctx):
        gp = yield from ctx.create(1, NexusEcho)
        return (yield from ctx.rmi(gp, "echo", 17))

    t = rt.launch(0, program)
    rt.run()
    assert t.result == 17


def test_nexus_rmi_an_order_of_magnitude_slower():
    def program_factory(out):
        def program(ctx):
            gp = yield from ctx.create(1, NexusEcho)
            # warm (irrelevant for nexus: always cold) then measure
            yield from ctx.rmi(gp, "echo", 0)
            t0 = ctx.node.sim.now
            for _ in range(3):
                yield from ctx.rmi(gp, "echo", 1)
            out["per_rmi"] = (ctx.node.sim.now - t0) / 3

        return program

    tham_rt = CCppRuntime(Cluster(2))
    tham, nexus = {}, {}
    t = tham_rt.launch(0, program_factory(tham))
    tham_rt.run()

    nexus_rt = make_nexus_runtime(2)
    nexus_rt.launch(0, program_factory(nexus))
    nexus_rt.run()

    ratio = nexus["per_rmi"] / tham["per_rmi"]
    assert ratio > 10.0, f"Nexus should be >>10x slower, got {ratio:.1f}x"


def test_factory_forwards_the_machine():
    """``make_nexus_runtime`` takes Cluster's keywords like the ThAM
    builder does; the CC++ application runners used to call it with the
    proc count alone, so a Nexus run on a ring was a flat-crossbar run."""
    from repro.apps.em3d import Em3dGraph, Em3dParams, run_ccpp_em3d
    from repro.apps.lu import LuParams, LuWorkload, run_ccpp_lu
    from repro.apps.water import WaterParams, WaterSystem, run_ccpp_water
    from repro.machine.topology import RingTopology

    assert isinstance(make_nexus_runtime(2, topology="ring").cluster.topology, RingTopology)

    graph = Em3dGraph(Em3dParams(n_nodes=32, degree=4, n_procs=4, pct_remote=1.0))
    system = WaterSystem(WaterParams(n_molecules=8, n_procs=4, steps=1, seed=13))
    work = LuWorkload(LuParams(n=32, block=8, n_procs=4, seed=17))
    for run, workload in (
        (run_ccpp_em3d, graph), (run_ccpp_water, system), (run_ccpp_lu, work)
    ):
        flat = run(workload, runtime_factory=make_nexus_runtime)
        ring = run(workload, runtime_factory=make_nexus_runtime, topology="ring")
        assert ring.elapsed_us > flat.elapsed_us, run.__name__
