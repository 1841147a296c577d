"""Water in Split-C: atomic and prefetch versions.

Owner-computes rule: the owner of molecule *i* evaluates every pair
(i, j) with j > i, accumulates *i*'s force locally and ships −f to *j*'s
owner — one-way atomic accumulates (``store_add``), so only the *reads*
block.  The potential energy is accumulated on node 0 via the Split-C
``atomic`` RPC.

* **atomic** — every remote partner's coordinates are read at use time
  (the redundant quadratic read stream the paper's water-atomic issues).
* **prefetch** — each peer's whole coordinate block is fetched once per
  step with split-phase bulk gets, and force contributions are shipped
  back as one bulk accumulate per peer.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.water.system import WaterSystem, pair_interaction
from repro.errors import ReproError
from repro.machine.cluster import Cluster
from repro.splitc import SCProcess, SplitCRuntime

__all__ = ["WaterRunResult", "run_splitc_water"]

POS = "w.pos"
VEL = "w.vel"
FRC = "w.frc"
POT = "w.pot"
CACHE = "w.cache"

VERSIONS = ("atomic", "prefetch")


@dataclass(slots=True)
class WaterRunResult:
    """Outcome of one Water run."""

    positions: np.ndarray
    velocities: np.ndarray
    potential: float
    elapsed_us: float
    breakdown: dict[str, float]
    counters: dict[str, int]


def run_splitc_water(
    system: WaterSystem,
    *,
    version: str = "atomic",
    reliable: bool = False,
    retry: Any = None,
    **machine: Any,
) -> WaterRunResult:
    """Run one Split-C Water configuration and measure it.

    Machine and reliability keywords as in
    :func:`~repro.apps.em3d.splitc_impl.run_splitc_em3d`."""
    if version not in VERSIONS:
        raise ReproError(f"unknown Water version {version!r}; pick from {VERSIONS}")
    p = system.params
    n = p.n_molecules
    nlocal = system.n_local
    cluster = Cluster(p.n_procs, **machine)
    rt = SplitCRuntime(cluster, reliable=reliable, retry=retry)

    def add_pot(_rt, _nid, v):
        _rt.memory(0).region(POT)[0] += v
        return 0.0

    rt.register_rpc("w.add_pot", add_pot)

    for proc in range(p.n_procs):
        mem = rt.memory(proc)
        mem.alloc(POS, 3 * nlocal)
        mem.alloc(VEL, 3 * nlocal)
        mem.alloc(FRC, 3 * nlocal)
        lo = proc * nlocal
        mem.region(POS)[:] = system.positions[lo : lo + nlocal].ravel()
        mem.region(VEL)[:] = system.velocities[lo : lo + nlocal].ravel()
        if proc == 0:
            mem.alloc(POT, 1)
        if version == "prefetch":
            mem.alloc(CACHE, 3 * n)

    expected_adds = [
        system.expected_remote_force_updates(q) if version == "atomic" else 0
        for q in range(p.n_procs)
    ]
    per_pair = cluster.costs.cpu.water_per_pair
    per_mol = cluster.costs.cpu.water_per_molecule
    window = cluster.window()

    def pair_phase_atomic(proc: SCProcess) -> Generator[Any, Any, float]:
        me = proc.my_node
        pos = proc.local(POS)
        frc = proc.local(FRC)
        potential = 0.0
        for i in system.local_range(me):
            li = system.local_index(i)
            pi = pos[3 * li : 3 * li + 3]
            for j in range(i + 1, n):
                oj = system.owner(j)
                lj = system.local_index(j)
                if oj == me:
                    pj = proc.local(POS)[3 * lj : 3 * lj + 3]
                else:
                    pj = np.asarray(
                        (yield from proc.bulk_read(proc.gptr(oj, POS, 3 * lj), 3))
                    )
                f, pot = pair_interaction(pi, pj)
                yield from proc.charge(per_pair)
                potential += pot
                frc[3 * li : 3 * li + 3] += f
                if oj == me:
                    frc_j = proc.local(FRC)
                    frc_j[3 * lj : 3 * lj + 3] -= f
                else:
                    yield from proc.store_add(proc.gptr(oj, FRC, 3 * lj), -f)
        return potential

    def pair_phase_prefetch(proc: SCProcess) -> Generator[Any, Any, float]:
        me = proc.my_node
        cache = proc.local(CACHE)
        pos = proc.local(POS)
        lo = me * nlocal
        cache[3 * lo : 3 * (lo + nlocal)] = pos
        # bundle-fetch every peer's coordinate block (split-phase)
        for q in range(p.n_procs):
            if q == me:
                continue
            yield from proc.bulk_get(
                proc.gptr(me, CACHE, 3 * q * nlocal),
                proc.gptr(q, POS, 0),
                3 * nlocal,
            )
        yield from proc.sync()
        frc = proc.local(FRC)
        frc_out = np.zeros((p.n_procs, 3 * nlocal))
        potential = 0.0
        for i in system.local_range(me):
            li = system.local_index(i)
            pi = cache[3 * i : 3 * i + 3]
            for j in range(i + 1, n):
                pj = cache[3 * j : 3 * j + 3]
                f, pot = pair_interaction(pi, pj)
                yield from proc.charge(per_pair)
                potential += pot
                frc[3 * li : 3 * li + 3] += f
                oj = system.owner(j)
                lj = system.local_index(j)
                if oj == me:
                    frc[3 * lj : 3 * lj + 3] -= f
                else:
                    frc_out[oj, 3 * lj : 3 * lj + 3] -= f
        # ship one accumulating block per peer that owns partners j > i;
        # with the block distribution those are exactly the peers q > me
        for q in range(me + 1, p.n_procs):
            yield from proc.bulk_store_add(proc.gptr(q, FRC, 0), frc_out[q])
        return potential

    def one_step(proc: SCProcess) -> Generator[Any, Any, None]:
        me = proc.my_node
        proc.local(FRC)[:] = 0.0
        if me == 0:
            proc.local(POT)[0] = 0.0
        yield from proc.barrier()
        if version == "atomic":
            potential = yield from pair_phase_atomic(proc)
            yield from proc.atomic_rpc(0, "w.add_pot", potential)
            yield from proc.await_stores(expected_adds[me])
        else:
            potential = yield from pair_phase_prefetch(proc)
            yield from proc.atomic_rpc(0, "w.add_pot", potential)
            # every peer that owes us a block has sent exactly one
            expected = sum(
                1
                for q in range(p.n_procs)
                if q != me and _peer_sends_forces(system, q, me)
            )
            yield from proc.await_stores(expected)
        yield from proc.barrier()
        pos = proc.local(POS)
        vel = proc.local(VEL)
        frc = proc.local(FRC)
        vel += p.dt * frc
        pos += p.dt * vel
        yield from proc.charge(nlocal * per_mol)

    def program(proc: SCProcess) -> Generator[Any, Any, None]:
        yield from proc.barrier()
        if proc.my_node == 0:
            window.open()
        for _ in range(p.steps):
            yield from one_step(proc)
        yield from proc.barrier()
        if proc.my_node == 0:
            window.close()

    rt.run_spmd(program, name=f"water-{version}")

    positions = np.vstack(
        [rt.memory(q).region(POS).reshape(nlocal, 3) for q in range(p.n_procs)]
    )
    velocities = np.vstack(
        [rt.memory(q).region(VEL).reshape(nlocal, 3) for q in range(p.n_procs)]
    )
    potential = float(rt.memory(0).region(POT)[0])

    return WaterRunResult(
        positions=positions,
        velocities=velocities,
        potential=potential,
        elapsed_us=window.elapsed_us,
        breakdown=window.breakdown,
        counters=window.counters,
    )


def _peer_sends_forces(system: WaterSystem, sender: int, receiver: int) -> bool:
    """Does ``sender`` own any molecule i whose pair (i, j>i) has j owned
    by ``receiver``?  (Block distribution: true iff sender < receiver.)"""
    return sender < receiver
