"""EM3D with one-sided RMA ghost exchange (``comm=rma``).

The third communication paradigm for the §5 kernel, next to Split-C
split-phase gets (``comm=splitc``) and CC++ RMI (``comm=rmi``): each
value owner *pushes* the block every reader needs straight into the
reader's registered ghost window with one notified ``put`` per
(owner, reader) pair per phase.  The reader's CPU never runs a handler
for the data — it waits on the window's cumulative notification count,
then sweeps locally.

Communication is inverted versus the pull versions (owners write instead
of readers fetching), but the ghost slots receive exactly the same
values, and the sweep is the same arithmetic in the same order — so the
result is bitwise-identical to ``reference_steps``, which the
integration tests assert.

Structure (regions, barriers, measurement window) mirrors
:mod:`repro.apps.em3d.splitc_impl`; the Split-C runtime provides the
SPMD skeleton and barriers while the RMA layer shares its AM endpoints.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from repro.apps.em3d.graph import Em3dGraph
from repro.apps.em3d.layout import PhasePlan
from repro.apps.em3d.splitc_impl import GHOST, VAL, Em3dRunResult
from repro.machine.cluster import Cluster
from repro.rma.runtime import RMAProcess, install_rma
from repro.splitc import SCProcess, SplitCRuntime

__all__ = ["run_rma_em3d"]


def run_rma_em3d(
    graph: Em3dGraph,
    *,
    steps: int = 2,
    warmup_steps: int = 1,
    reliable: bool = False,
    retry: Any = None,
    **machine: Any,
) -> Em3dRunResult:
    """Run EM3D with owner-push RMA ghost exchange and measure it.

    Same harness contract as
    :func:`~repro.apps.em3d.splitc_impl.run_splitc_em3d`: ``machine`` is
    :class:`~repro.machine.cluster.Cluster`'s keywords.
    """
    layout = graph.layout
    p = graph.params
    cluster = Cluster(p.n_procs, **machine)
    rt = SplitCRuntime(cluster, reliable=reliable, retry=retry)
    costs = cluster.costs
    rma = install_rma(cluster, endpoints=rt.endpoints)

    for proc in range(p.n_procs):
        rt.memory(proc).alloc(VAL, graph.local_value_count(proc))

    per_neighbor = costs.cpu.em3d_per_neighbor
    window = cluster.window()

    def push_exports(
        proc: SCProcess, win: RMAProcess, plan: PhasePlan, phase: int
    ) -> Generator[Any, Any, None]:
        """Owner side: one notified put per reader with its whole block."""
        mem = proc.local(VAL)
        for reader, gids in plan.exports.items():
            block = np.empty(len(gids))
            for k, gid in enumerate(gids):
                _, soff = graph.value_slot(gid)
                block[k] = mem[soff]
            yield from proc.charge(len(gids) * costs.runtime.copy_per_byte * 8)
            # the reader's ghost slots for one source are contiguous: the
            # first gid's slot is the base of the whole block (same SPMD
            # image — the owner computes the reader's layout directly)
            base = layout.plans[reader][phase].ghost_slot[gids[0]]
            yield from win.put(reader, GHOST, base, block, notify=True)

    def phase_local(
        proc: SCProcess, ghost: np.ndarray, plan: PhasePlan
    ) -> Generator[Any, Any, None]:
        mem = proc.local(VAL)
        new_vals: list[tuple[int, float]] = []
        for u in plan.updates:
            acc = 0.0
            for w, (is_local, sproc, soff), gid in zip(
                u.weights, u.sources, graph.nodes[u.gid].neighbors
            ):
                if is_local:
                    acc += w * mem[soff]
                else:
                    acc += w * ghost[plan.ghost_slot[gid]]
            yield from proc.charge(len(u.sources) * per_neighbor)
            new_vals.append((u.value_off, acc))
        for off, v in new_vals:
            mem[off] = v

    def one_step(proc: SCProcess, win: RMAProcess, ghost: np.ndarray, state: dict) -> Generator[Any, Any, None]:
        me = proc.my_node
        for phase in (0, 1):
            plan = layout.plans[me][phase]
            yield from push_exports(proc, win, plan, phase)
            # remote completion of our own puts is NOT enough to proceed —
            # we need the puts *into us* to have landed: wait for this
            # phase's share of the cumulative notification count
            state["expected"] += len(plan.by_src)
            yield from win.wait_notify(GHOST, state["expected"])
            yield from phase_local(proc, ghost, plan)
            yield from win.flush()
            yield from proc.barrier()

    def program(proc: SCProcess) -> Generator[Any, Any, None]:
        me = proc.my_node
        win = rma.process(me)
        w = yield from win.register(GHOST, max(1, layout.ghost_region_size(me)))
        ghost = w.array
        mem = proc.local(VAL)
        for e_nodes in (True, False):
            for n in graph.local_nodes(me, e_nodes=e_nodes):
                _, off = graph.value_slot(n.gid)
                mem[off] = graph.initial[n.gid]
        yield from proc.barrier()
        state = {"expected": 0}
        for _ in range(warmup_steps):
            yield from one_step(proc, win, ghost, state)
        if me == 0:
            window.open()
        for _ in range(steps):
            yield from one_step(proc, win, ghost, state)
        if me == 0:
            window.close()

    rt.run_spmd(program, name="em3d-rma")

    values = np.empty(p.n_nodes)
    for n in graph.nodes:
        _, off = graph.value_slot(n.gid)
        values[n.gid] = rt.memory(n.proc).region(VAL)[off]

    return Em3dRunResult(
        values=values,
        elapsed_us=window.elapsed_us,
        breakdown=window.breakdown,
        per_edge_us=window.elapsed_us / (steps * graph.edge_terms_per_step),
        counters=window.counters,
    )
