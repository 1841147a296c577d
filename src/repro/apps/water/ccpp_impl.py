"""Water in CC++: atomic and prefetch versions.

Identical structure to :mod:`repro.apps.water.splitc_impl`, but every
remote access is an RMI on the owning processor object:

* **atomic** — ``get_molecule`` is a CC++ ``atomic`` member function (one
  RMI per remote pair read); force contributions go out as *one-sided*
  ``add_force`` atomic RMIs, completion observed through a per-object
  counter + condition variable (CC++-style monitor synchronization).
* **prefetch** — ``get_positions`` returns a whole coordinate block by
  value (bulk reply) and ``add_forces_block`` accumulates a whole block.

The receiving node pays thread creation, context switches and atomicity
locking per service — the interference that widens the gap as N (and so
the access rate) grows, per §6's Water discussion.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from repro.apps.water.splitc_impl import VERSIONS, WaterRunResult
from repro.apps.water.system import WaterSystem, pair_interaction
from repro.ccpp import (
    CCContext,
    ObjectGlobalPtr,
    ProcessorObject,
    make_tham_runtime,
    processor_class,
    remote,
)
from repro.ccpp.collective import CCBarrier
from repro.errors import ReproError
from repro.threads.sync import Condition, Lock

__all__ = ["run_ccpp_water", "WaterProc"]


@processor_class
class WaterProc(ProcessorObject):
    """Owns one processor's block of molecules."""

    def __init__(self, system: WaterSystem, proc: int):
        self.system = system
        self.proc = proc
        nlocal = system.n_local
        lo = proc * nlocal
        self.pos = system.positions[lo : lo + nlocal].ravel().copy()
        self.vel = system.velocities[lo : lo + nlocal].ravel().copy()
        self.frc = np.zeros(3 * nlocal)
        self.pot = 0.0           # node 0's proxy accumulates the potential
        self.adds_seen = 0
        self._lock = Lock(self.ctx.node, f"water-adds-{proc}")
        self._cond = Condition(self._lock)

    # ------------------------------------------------------------- accessors

    @remote(atomic=True)
    def get_molecule(self, j: int):
        """Atomic read of molecule ``j``'s coordinates (by value)."""
        lj = self.system.local_index(int(j))
        return self.pos[3 * lj : 3 * lj + 3].copy()

    @remote(threaded=True)
    def get_positions(self):
        """Prefetch: the whole coordinate block by value (bulk reply)."""
        return self.pos.copy()

    # ----------------------------------------------------------- force sinks

    @remote(atomic=True)
    def add_force(self, j: int, fx: float, fy: float, fz: float) -> Generator[Any, Any, None]:
        lj = self.system.local_index(int(j))
        self.frc[3 * lj : 3 * lj + 3] += (fx, fy, fz)
        yield from self._note_add()

    @remote(atomic=True)
    def add_forces_block(self, block) -> Generator[Any, Any, None]:
        self.frc += block
        yield from self._note_add()

    @remote(atomic=True)
    def add_pot(self, v: float):
        self.pot += v
        return None

    def _note_add(self) -> Generator[Any, Any, None]:
        yield from self._lock.acquire()
        self.adds_seen += 1
        yield from self._cond.broadcast()
        yield from self._lock.release()

    # ------------------------------------------------- owner-side (local use)

    def await_adds(self, expected: int) -> Generator[Any, Any, None]:
        """Block the main thread until ``expected`` accumulations landed
        this step (monitor-style synchronization)."""
        yield from self._lock.acquire()
        while self.adds_seen < expected:
            yield from self._cond.wait()
        self.adds_seen -= expected
        yield from self._lock.release()


def run_ccpp_water(
    system: WaterSystem,
    *,
    version: str = "atomic",
    runtime_factory=make_tham_runtime,
    **machine: Any,
) -> WaterRunResult:
    """Run one CC++ Water configuration and measure it.

    ``runtime_factory`` and ``machine`` as in
    :func:`~repro.apps.em3d.ccpp_impl.run_ccpp_em3d`."""
    if version not in VERSIONS:
        raise ReproError(f"unknown Water version {version!r}; pick from {VERSIONS}")
    p = system.params
    n = p.n_molecules
    nlocal = system.n_local
    rt = runtime_factory(p.n_procs, **machine)
    cluster = rt.cluster

    proxies: list[ObjectGlobalPtr] = []
    for nid in range(p.n_procs):
        obj_id = rt._create_local(nid, "WaterProc", (system, nid))
        proxies.append(ObjectGlobalPtr(nid, obj_id, "WaterProc"))
    barrier_id = rt._create_local(0, "CCBarrier", (p.n_procs,))
    barrier = ObjectGlobalPtr(0, barrier_id, "CCBarrier")

    expected_adds = [
        system.expected_remote_force_updates(q) if version == "atomic" else q
        for q in range(p.n_procs)
    ]
    per_pair = cluster.costs.cpu.water_per_pair
    per_mol = cluster.costs.cpu.water_per_molecule
    window = cluster.window()

    def pair_phase_atomic(ctx: CCContext, me: int) -> Generator[Any, Any, float]:
        proxy: WaterProc = rt.object_table(me).get(1)
        pos, frc = proxy.pos, proxy.frc
        potential = 0.0
        for i in system.local_range(me):
            li = system.local_index(i)
            pi = pos[3 * li : 3 * li + 3]
            for j in range(i + 1, n):
                oj = system.owner(j)
                lj = system.local_index(j)
                if oj == me:
                    pj = pos[3 * lj : 3 * lj + 3]
                else:
                    pj = yield from ctx.rmi(proxies[oj], "get_molecule", j)
                f, pot = pair_interaction(pi, pj)
                yield from ctx.charge(per_pair)
                potential += pot
                frc[3 * li : 3 * li + 3] += f
                if oj == me:
                    frc[3 * lj : 3 * lj + 3] -= f
                else:
                    yield from ctx.rmi_async(
                        proxies[oj], "add_force", j, -f[0], -f[1], -f[2]
                    )
        return potential

    def pair_phase_prefetch(ctx: CCContext, me: int) -> Generator[Any, Any, float]:
        proxy: WaterProc = rt.object_table(me).get(1)
        cache = np.empty(3 * n)
        lo = me * nlocal
        cache[3 * lo : 3 * (lo + nlocal)] = proxy.pos
        for q in range(p.n_procs):
            if q == me:
                continue
            block = yield from ctx.rmi(proxies[q], "get_positions")
            cache[3 * q * nlocal : 3 * (q + 1) * nlocal] = block
        frc = proxy.frc
        frc_out = np.zeros((p.n_procs, 3 * nlocal))
        potential = 0.0
        for i in system.local_range(me):
            li = system.local_index(i)
            pi = cache[3 * i : 3 * i + 3]
            for j in range(i + 1, n):
                pj = cache[3 * j : 3 * j + 3]
                f, pot = pair_interaction(pi, pj)
                yield from ctx.charge(per_pair)
                potential += pot
                frc[3 * li : 3 * li + 3] += f
                oj = system.owner(j)
                lj = system.local_index(j)
                if oj == me:
                    frc[3 * lj : 3 * lj + 3] -= f
                else:
                    frc_out[oj, 3 * lj : 3 * lj + 3] -= f
        for q in range(me + 1, p.n_procs):
            yield from ctx.rmi_async(proxies[q], "add_forces_block", frc_out[q])
        return potential

    def one_step(ctx: CCContext) -> Generator[Any, Any, None]:
        me = ctx.my_node
        proxy: WaterProc = rt.object_table(me).get(1)
        proxy.frc[:] = 0.0
        if me == 0:
            proxy.pot = 0.0
        yield from CCBarrier.wait(ctx, barrier)
        if version == "atomic":
            potential = yield from pair_phase_atomic(ctx, me)
        else:
            potential = yield from pair_phase_prefetch(ctx, me)
        yield from ctx.rmi(proxies[0], "add_pot", potential)
        yield from proxy.await_adds(expected_adds[me])
        yield from CCBarrier.wait(ctx, barrier)
        proxy.vel += p.dt * proxy.frc
        proxy.pos += p.dt * proxy.vel
        yield from ctx.charge(nlocal * per_mol)

    def program(ctx: CCContext) -> Generator[Any, Any, None]:
        me = ctx.my_node
        yield from CCBarrier.wait(ctx, barrier)
        if me == 0:
            window.open()
        for _ in range(p.steps):
            yield from one_step(ctx)
        yield from CCBarrier.wait(ctx, barrier)
        if me == 0:
            window.close()

    for nid in range(p.n_procs):
        rt.launch(nid, program, f"water-{version}@{nid}")
    rt.run()

    positions = np.vstack(
        [rt.object_table(q).get(1).pos.reshape(nlocal, 3) for q in range(p.n_procs)]
    )
    velocities = np.vstack(
        [rt.object_table(q).get(1).vel.reshape(nlocal, 3) for q in range(p.n_procs)]
    )
    potential = float(rt.object_table(0).get(1).pot)

    return WaterRunResult(
        positions=positions,
        velocities=velocities,
        potential=potential,
        elapsed_us=window.elapsed_us,
        breakdown=window.breakdown,
        counters=window.counters,
    )
