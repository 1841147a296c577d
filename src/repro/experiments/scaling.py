"""The §6 scaling remark: "To really observe a significant hit [from
CC++'s extra copies and marshalling on bulk transfers], the problem size
has to be increased by a factor of about 200."

Table 4's bulk rows move 20 doubles, where fixed costs dominate and
CC++'s penalty is a bounded constant.  This experiment sweeps the
transferred array across three orders of magnitude — spanning the
paper's ×200 — and compares a CC++ bulk-read RMI (a user-typed argument,
like Table 4's ARRAYOFDOUBLE) against a Split-C ``bulk_read`` of the same
data.  The elapsed ratio rises from ~2× into "significant hit" territory
as the per-byte serialization and copy costs take over, exactly the
trend the sentence predicts.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator
from typing import Any

from repro.ccpp import CCppRuntime, ProcessorObject, processor_class, remote
from repro.experiments.microbench import ArrayOfDouble
from repro.experiments.results import ScalingPoint, ScalingResult
from repro.machine.cluster import Cluster
from repro.machine.costs import SP2_COSTS, CostModel
from repro.splitc import SplitCRuntime

__all__ = ["ScalingResult", "ScalingPoint", "run"]

#: words (doubles) per transfer: 20 (Table 4's size) up to x1000
DEFAULT_SIZES = (20, 200, 2000, 20000)
_ITERS = 10


class ScaledArray(ArrayOfDouble):
    """User-typed payload (dynamic-dispatch serialization, as in Table 4):
    ARRAYOFDOUBLE under this experiment's own class name, which the wire
    carries with every custom-typed value."""


@processor_class
class ScalingServer(ProcessorObject):
    """Owns one array per configured size."""

    def __init__(self, sizes: list):
        self.arrays = {int(n): array("d", range(int(n))) for n in sizes}

    @remote(threaded=True)
    def get(self, n: int):
        return ScaledArray(self.arrays[int(n)])


def _measure_cc(sizes: tuple[int, ...], costs: CostModel) -> dict[int, float]:
    cluster = Cluster(2, costs=costs)
    rt = CCppRuntime(cluster)
    out: dict[int, float] = {}

    def program(ctx) -> Generator[Any, Any, None]:
        gp = yield from ctx.create(1, ScalingServer, list(sizes))
        for n in sizes:
            yield from ctx.rmi(gp, "get", n)  # warm the stub/buffer path
            t0 = ctx.node.sim.now
            for _ in range(_ITERS):
                got = yield from ctx.rmi(gp, "get", n)
                assert len(got.values) == n
            out[n] = (ctx.node.sim.now - t0) / _ITERS

    rt.launch(0, program, "scaling-cc")
    rt.run()
    return out


def _measure_sc(sizes: tuple[int, ...], costs: CostModel) -> dict[int, float]:
    cluster = Cluster(2, costs=costs)
    rt = SplitCRuntime(cluster)
    for n in sizes:
        rt.memory(1).alloc(f"scale.{n}", n)
    out: dict[int, float] = {}

    def program(proc) -> Generator[Any, Any, None]:
        if proc.my_node == 0:
            for n in sizes:
                yield from proc.bulk_read(proc.gptr(1, f"scale.{n}", 0), n)
                t0 = proc.node.sim.now
                for _ in range(_ITERS):
                    block = yield from proc.bulk_read(proc.gptr(1, f"scale.{n}", 0), n)
                    assert len(block) == n
                out[n] = (proc.node.sim.now - t0) / _ITERS
        yield from proc.barrier()

    rt.run_spmd(program, name="scaling-sc")
    return out


def run(
    *, sizes: tuple[int, ...] = DEFAULT_SIZES, costs: CostModel = SP2_COSTS
) -> ScalingResult:
    """Sweep the bulk-transfer size and compare the languages."""
    cc = _measure_cc(sizes, costs)
    sc = _measure_sc(sizes, costs)
    return ScalingResult(
        points=[ScalingPoint(words=n, sc_us=sc[n], cc_us=cc[n]) for n in sizes]
    )
