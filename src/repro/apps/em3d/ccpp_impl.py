"""EM3D in CC++: base / ghost / bulk versions.

Line-by-line parallel to :mod:`repro.apps.em3d.splitc_impl`, but over the
MPMD runtime:

* **base** — every remote neighbour value is a ``gp_read`` RMI; *local*
  accesses still go through opaque global pointers and pay the CC++
  dereference overhead (the cause of the low-remote-fraction gap in
  Figure 5).
* **ghost** — distinct remote neighbours are prefetched with a ``parfor``
  of GP reads (one thread per ghost — CC++'s latency-hiding idiom).
* **bulk** — per-source aggregation via an RMI returning the packed
  export array by value (a bulk reply, with its extra copy).

Synchronization uses :class:`~repro.ccpp.collective.CCBarrier` — CC++
has no language barrier, so one is composed from threaded RMI.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from repro.apps.em3d.graph import Em3dGraph
from repro.apps.em3d.layout import VERSIONS, Em3dLayout, PhasePlan
from repro.apps.em3d.splitc_impl import Em3dRunResult
from repro.ccpp import (
    CCContext,
    DataGlobalPtr,
    ObjectGlobalPtr,
    ProcessorObject,
    make_tham_runtime,
    processor_class,
    remote,
)
from repro.ccpp.collective import CCBarrier
from repro.errors import ReproError
from repro.sim.account import Category
from repro.sim.effects import Charge

__all__ = ["run_ccpp_em3d"]

VAL = "em3d.val"
GHOST = "em3d.ghost"


@processor_class
class Em3dProc(ProcessorObject):
    """Per-node processor object owning this node's slice of the graph."""

    def __init__(self, graph: Em3dGraph, layout: Em3dLayout, version: str):
        self.graph = graph
        self.layout = layout
        self.version = version
        me = self.my_node
        self.alloc_data(VAL, graph.local_value_count(me))
        self.values = self.ctx.mem.region(VAL)
        if version in ("ghost", "bulk"):
            self.alloc_data(GHOST, max(1, layout.ghost_region_size(me)))
            self.ghost = self.ctx.mem.region(GHOST)
        # bulk-version export buffers, packed locally each phase
        self.exports: dict[tuple[int, int], np.ndarray] = {}
        if version == "bulk":
            for phase in (0, 1):
                for reader, gids in layout.plans[me][phase].exports.items():
                    self.exports[(reader, phase)] = np.zeros(len(gids))

    @remote(threaded=True)
    def get_export(self, reader: int, phase: int):
        """Bulk version: return the packed export array by value."""
        return self.exports[(int(reader), int(phase))].copy()


def run_ccpp_em3d(
    graph: Em3dGraph,
    *,
    steps: int = 2,
    version: str = "base",
    warmup_steps: int = 1,
    runtime_factory=make_tham_runtime,
    **machine: Any,
) -> Em3dRunResult:
    """Run one CC++ EM3D configuration and measure it.

    ``runtime_factory(n_procs, **machine)`` builds the cluster and the
    CC++ runtime on it (``make_nexus_runtime`` is the Nexus baseline) —
    application code is identical either way.  ``machine`` is
    :class:`~repro.machine.cluster.Cluster`'s keywords plus the
    runtime's ``reliable`` / ``retry``."""
    if version not in VERSIONS:
        raise ReproError(f"unknown EM3D version {version!r}; pick from {VERSIONS}")
    layout = graph.layout
    p = graph.params
    rt = runtime_factory(p.n_procs, **machine)
    cluster = rt.cluster

    # statically allocated processor objects (deterministic ids: the node
    # manager is 0, so these are 1; the barrier on node 0 is 2)
    proxies: list[ObjectGlobalPtr] = []
    for nid in range(p.n_procs):
        obj_id = rt._create_local(nid, "Em3dProc", (graph, layout, version))
        proxies.append(ObjectGlobalPtr(nid, obj_id, "Em3dProc"))
    barrier_id = rt._create_local(0, "CCBarrier", (p.n_procs,))
    barrier = ObjectGlobalPtr(0, barrier_id, "CCBarrier")

    per_neighbor = cluster.costs.cpu.em3d_per_neighbor
    rc = cluster.costs.runtime
    window = cluster.window()

    def phase_base(ctx: CCContext, me: int, plan: PhasePlan) -> Generator[Any, Any, None]:
        mem = rt.object_table(me).get(1).values
        new_vals: list[tuple[int, float]] = []
        for u in plan.updates:
            acc = 0.0
            n_local = 0
            for w, (is_local, sproc, soff) in zip(u.weights, u.sources):
                if is_local:
                    # local data, but through an opaque global pointer:
                    # pays the CC++ dereference overhead (aggregated)
                    acc += w * mem[soff]
                    n_local += 1
                else:
                    x = yield from ctx.gp_read(DataGlobalPtr(sproc, VAL, soff))
                    acc += w * x
            if n_local:
                yield Charge(n_local * rc.gp_local_access, Category.RUNTIME)
            yield from ctx.charge(len(u.sources) * per_neighbor)
            new_vals.append((u.value_off, acc))
        for off, v in new_vals:
            mem[off] = v

    def fetch_ghosts(ctx: CCContext, me: int, plan: PhasePlan) -> Generator[Any, Any, None]:
        ghost = rt.object_table(me).get(1).ghost

        def body(item):
            gid, slot = item

            def g():
                sproc, soff = graph.value_slot(gid)
                x = yield from ctx.gp_read(DataGlobalPtr(sproc, VAL, soff))
                ghost[slot] = x

            return g()

        items = [(gid, plan.ghost_slot[gid]) for src in sorted(plan.by_src)
                 for gid in plan.by_src[src]]
        yield from ctx.parfor(items, body)

    def fetch_bulk(ctx: CCContext, me: int, plan: PhasePlan, phase: int) -> Generator[Any, Any, None]:
        ghost = rt.object_table(me).get(1).ghost
        for src in sorted(plan.by_src):
            gids = plan.by_src[src]
            block = yield from ctx.rmi(proxies[src], "get_export", me, phase)
            base_slot = plan.ghost_slot[gids[0]]
            ghost[base_slot : base_slot + len(gids)] = block

    def pack_exports(ctx: CCContext, me: int, plan: PhasePlan, phase: int) -> Generator[Any, Any, None]:
        proxy = rt.object_table(me).get(1)
        mem = proxy.values
        for reader, gids in plan.exports.items():
            exp = proxy.exports[(reader, phase)]
            for k, gid in enumerate(gids):
                _, soff = graph.value_slot(gid)
                exp[k] = mem[soff]
            yield from ctx.charge(len(gids) * rc.copy_per_byte * 8)

    def phase_local(ctx: CCContext, me: int, plan: PhasePlan) -> Generator[Any, Any, None]:
        proxy = rt.object_table(me).get(1)
        mem, ghost = proxy.values, proxy.ghost
        new_vals: list[tuple[int, float]] = []
        for u in plan.updates:
            acc = 0.0
            gids = graph.nodes[u.gid].neighbors
            for w, (is_local, _sproc, soff), gid in zip(u.weights, u.sources, gids):
                if is_local:
                    acc += w * mem[soff]
                else:
                    acc += w * ghost[plan.ghost_slot[gid]]
            yield from ctx.charge(len(u.sources) * per_neighbor)
            new_vals.append((u.value_off, acc))
        for off, v in new_vals:
            mem[off] = v

    def one_step(ctx: CCContext) -> Generator[Any, Any, None]:
        me = ctx.my_node
        for phase in (0, 1):
            plan = layout.plans[me][phase]
            if version == "base":
                yield from phase_base(ctx, me, plan)
            elif version == "ghost":
                yield from fetch_ghosts(ctx, me, plan)
                yield from phase_local(ctx, me, plan)
            else:
                yield from pack_exports(ctx, me, plan, phase)
                yield from CCBarrier.wait(ctx, barrier)
                yield from fetch_bulk(ctx, me, plan, phase)
                yield from phase_local(ctx, me, plan)
            yield from CCBarrier.wait(ctx, barrier)

    def program(ctx: CCContext) -> Generator[Any, Any, None]:
        me = ctx.my_node
        mem = rt.object_table(me).get(1).values
        for e_nodes in (True, False):
            for n in graph.local_nodes(me, e_nodes=e_nodes):
                _, off = graph.value_slot(n.gid)
                mem[off] = graph.initial[n.gid]
        yield from CCBarrier.wait(ctx, barrier)
        for _ in range(warmup_steps):
            yield from one_step(ctx)
        if me == 0:
            window.open()
        for _ in range(steps):
            yield from one_step(ctx)
        if me == 0:
            window.close()

    for nid in range(p.n_procs):
        rt.launch(nid, program, f"em3d-{version}@{nid}")
    rt.run()

    values = np.empty(p.n_nodes)
    for n in graph.nodes:
        _, off = graph.value_slot(n.gid)
        values[n.gid] = rt.object_table(n.proc).get(1).values[off]

    return Em3dRunResult(
        values=values,
        elapsed_us=window.elapsed_us,
        breakdown=window.breakdown,
        per_edge_us=window.elapsed_us / (steps * graph.edge_terms_per_step),
        counters=window.counters,
    )
