"""EM3D in Split-C: base / ghost / bulk versions.

The three versions of §5, expressed over :class:`~repro.splitc.SCProcess`:

* **base** — every neighbour value is read through its global pointer at
  use time (blocking reads for remote neighbours; local dereferences pay
  only the cheap local-pointer cost, aggregated per node).
* **ghost** — distinct remote neighbours are fetched once per phase with
  split-phase gets into a ghost region, then the sweep is purely local.
* **bulk** — the owner packs the values each reader needs into a
  per-reader export buffer; readers pull one bulk transfer per source.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.em3d.graph import Em3dGraph
from repro.apps.em3d.layout import VERSIONS, PhasePlan
from repro.errors import ReproError
from repro.machine.cluster import Cluster
from repro.sim.account import Category
from repro.sim.effects import Charge
from repro.splitc import SCProcess, SplitCRuntime

__all__ = ["Em3dRunResult", "run_splitc_em3d"]

VAL = "em3d.val"
GHOST = "em3d.ghost"


@dataclass(slots=True)
class Em3dRunResult:
    """Outcome of one EM3D run."""

    values: np.ndarray              # final node values by global id
    elapsed_us: float               # virtual time for the measured steps
    breakdown: dict[str, float]     # per-category virtual us (all nodes)
    per_edge_us: float              # elapsed / (steps * edge terms)
    counters: dict[str, int]


def run_splitc_em3d(
    graph: Em3dGraph,
    *,
    steps: int = 2,
    version: str = "base",
    warmup_steps: int = 1,
    reliable: bool = False,
    retry: Any = None,
    **machine: Any,
) -> Em3dRunResult:
    """Run one Split-C EM3D configuration and measure it.

    ``machine`` is forwarded untouched to
    :class:`~repro.machine.cluster.Cluster` (``costs``, ``topology``,
    ``tracer``, ``metrics``, ``faults``, ``fast_path``), as in every
    application harness.  ``reliable``/``retry`` select the reliable AM
    sublayer, which a run over a lossy ``faults`` plan needs to finish
    (the drop-rate ablation in :mod:`repro.experiments.faults`).
    """
    if version not in VERSIONS:
        raise ReproError(f"unknown EM3D version {version!r}; pick from {VERSIONS}")
    layout = graph.layout
    p = graph.params
    cluster = Cluster(p.n_procs, **machine)
    rt = SplitCRuntime(cluster, reliable=reliable, retry=retry)
    costs = cluster.costs

    for proc in range(p.n_procs):
        mem = rt.memory(proc)
        mem.alloc(VAL, graph.local_value_count(proc))
        if version in ("ghost", "bulk"):
            mem.alloc(GHOST, max(1, layout.ghost_region_size(proc)))
        if version == "bulk":
            for phase in (0, 1):
                for reader, gids in layout.plans[proc][phase].exports.items():
                    mem.alloc(layout.export_region(proc, reader, phase), len(gids))

    per_neighbor = costs.cpu.em3d_per_neighbor
    window = cluster.window()

    def phase_base(proc: SCProcess, plan: PhasePlan) -> Generator[Any, Any, None]:
        mem = proc.local(VAL)
        new_vals: list[tuple[int, float]] = []
        for u in plan.updates:
            acc = 0.0
            n_local = 0
            for w, (is_local, sproc, soff) in zip(u.weights, u.sources):
                if is_local:
                    # dereferencing a *local* global pointer: cheap, but
                    # aggregated into one charge per node below
                    acc += w * mem[soff]
                    n_local += 1
                else:
                    x = yield from proc.read(proc.gptr(sproc, VAL, soff))
                    acc += w * x
            if n_local:
                yield Charge(n_local * costs.runtime.sc_local_access, Category.RUNTIME)
            yield from proc.charge(len(u.sources) * per_neighbor)
            new_vals.append((u.value_off, acc))
        for off, v in new_vals:
            mem[off] = v

    def fetch_ghosts(proc: SCProcess, plan: PhasePlan) -> Generator[Any, Any, None]:
        ghost = proc.gptr(proc.my_node, GHOST, 0)
        for src, gids in sorted(plan.by_src.items()):
            for gid in gids:
                _, soff = graph.value_slot(gid)
                yield from proc.get(ghost + plan.ghost_slot[gid],
                                    proc.gptr(src, VAL, soff))
        yield from proc.sync()

    def fetch_bulk(proc: SCProcess, plan: PhasePlan, phase: int) -> Generator[Any, Any, None]:
        ghost = proc.local(GHOST)
        for src, gids in sorted(plan.by_src.items()):
            region = layout.export_region(src, proc.my_node, phase)
            block = yield from proc.bulk_read(proc.gptr(src, region, 0), len(gids))
            base_slot = plan.ghost_slot[gids[0]]
            ghost[base_slot : base_slot + len(gids)] = np.asarray(block)

    def pack_exports(proc: SCProcess, plan: PhasePlan, phase: int) -> Generator[Any, Any, None]:
        mem = proc.local(VAL)
        for reader, gids in plan.exports.items():
            exp = proc.local(layout.export_region(proc.my_node, reader, phase))
            for k, gid in enumerate(gids):
                _, soff = graph.value_slot(gid)
                exp[k] = mem[soff]
            yield from proc.charge(len(gids) * costs.runtime.copy_per_byte * 8)

    def phase_local(proc: SCProcess, plan: PhasePlan) -> Generator[Any, Any, None]:
        """Ghost/bulk compute sweep: all operands now local."""
        mem = proc.local(VAL)
        ghost = proc.local(GHOST)
        new_vals: list[tuple[int, float]] = []
        for u in plan.updates:
            acc = 0.0
            for w, (is_local, sproc, soff), gid in zip(u.weights, u.sources, u_gids(u)):
                if is_local:
                    acc += w * mem[soff]
                else:
                    acc += w * ghost[plan.ghost_slot[gid]]
            yield from proc.charge(len(u.sources) * per_neighbor)
            new_vals.append((u.value_off, acc))
        for off, v in new_vals:
            mem[off] = v

    def u_gids(update) -> list[int]:
        return graph.nodes[update.gid].neighbors

    def one_step(proc: SCProcess) -> Generator[Any, Any, None]:
        me = proc.my_node
        for phase in (0, 1):
            plan = layout.plans[me][phase]
            if version == "base":
                yield from phase_base(proc, plan)
            elif version == "ghost":
                yield from fetch_ghosts(proc, plan)
                yield from phase_local(proc, plan)
            else:  # bulk
                yield from pack_exports(proc, plan, phase)
                yield from proc.barrier()
                yield from fetch_bulk(proc, plan, phase)
                yield from phase_local(proc, plan)
            yield from proc.barrier()

    def program(proc: SCProcess) -> Generator[Any, Any, None]:
        mem = proc.local(VAL)
        for e_nodes in (True, False):
            for n in graph.local_nodes(proc.my_node, e_nodes=e_nodes):
                _, off = graph.value_slot(n.gid)
                mem[off] = graph.initial[n.gid]
        yield from proc.barrier()
        for _ in range(warmup_steps):
            yield from one_step(proc)
        if proc.my_node == 0:
            window.open()
        for _ in range(steps):
            yield from one_step(proc)
        if proc.my_node == 0:
            window.close()

    rt.run_spmd(program, name=f"em3d-{version}")

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
