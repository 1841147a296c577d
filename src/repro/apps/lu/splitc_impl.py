"""sc-lu: blocked LU in Split-C.

Pivot blocks travel by **one-way bulk stores** pushed by their owner;
panel blocks are **prefetched** with split-phase bulk gets before the
interior sub-step (§5's description of the base Split-C version).
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.apps.lu.blocked import LuParams, LuWorkload, lu_nopivot, panel_l, panel_u
from repro.machine.cluster import Cluster
from repro.splitc import SCProcess, SplitCRuntime

__all__ = ["LuRunResult", "run_splitc_lu"]

BLK = "lu.blk"
CACHE = "lu.cache"


@dataclass(slots=True)
class LuRunResult:
    """Outcome of one LU run."""

    packed: np.ndarray          # L\\U packed full matrix
    elapsed_us: float
    breakdown: dict[str, float]
    counters: dict[str, int]


def _cache_slots(params: LuParams) -> int:
    """Cache layout: slot 0 = pivot, 1+i = L_ik, 1+B+j = U_kj."""
    return 1 + 2 * params.n_blocks


def run_splitc_lu(
    work: LuWorkload,
    *,
    reliable: bool = False,
    retry: Any = None,
    **machine: Any,
) -> LuRunResult:
    """Run sc-lu and measure it.

    Machine and reliability keywords as in
    :func:`~repro.apps.em3d.splitc_impl.run_splitc_em3d`."""
    p = work.params
    bs = p.block
    bs2 = bs * bs
    b = p.n_blocks
    cluster = Cluster(p.n_procs, **machine)
    rt = SplitCRuntime(cluster, reliable=reliable, retry=retry)

    for q in range(p.n_procs):
        mem = rt.memory(q)
        mem.alloc(BLK, len(work.owned_blocks(q)) * bs2)
        region = mem.region(BLK)
        for (i, j) in work.owned_blocks(q):
            work.block_of(region, i, j)[:] = work.initial_block(i, j)
        mem.alloc(CACHE, _cache_slots(p) * bs2)

    factor_us = cluster.costs.cpu.lu_block_factor
    update_us = cluster.costs.cpu.lu_block_update
    window = cluster.window()

    def cache_view(proc: SCProcess, slot: int) -> np.ndarray:
        return proc.local(CACHE)[slot * bs2 : (slot + 1) * bs2].reshape(bs, bs)

    def get_pivot(proc: SCProcess, k: int) -> np.ndarray:
        """The pivot block: local view for the owner, cache for others."""
        me = proc.my_node
        if work.owner(k, k) == me:
            return work.block_of(proc.local(BLK), k, k)
        return cache_view(proc, 0)

    def one_step(proc: SCProcess, k: int) -> Generator[Any, Any, None]:
        me = proc.my_node
        region = proc.local(BLK)

        # --- sub-step 1: factor the pivot block, push it one-way ---------
        if work.owner(k, k) == me:
            pivot = work.block_of(region, k, k)
            lu_nopivot(pivot)
            yield from proc.charge(factor_us)
            for q in range(p.n_procs):
                if q != me and work.needs_pivot(q, k):
                    yield from proc.bulk_store(
                        proc.gptr(q, CACHE, 0), pivot.ravel()
                    )
        if work.owner(k, k) != me and work.needs_pivot(me, k):
            yield from proc.await_stores(1)

        # --- sub-step 2: panel computations ------------------------------
        pivot = get_pivot(proc, k)
        for i in work.panel_rows(me, k):
            blk = work.block_of(region, i, k)
            blk[:] = panel_l(blk, pivot)
            yield from proc.charge(update_us)
        for j in work.panel_cols(me, k):
            blk = work.block_of(region, k, j)
            blk[:] = panel_u(blk, pivot)
            yield from proc.charge(update_us)
        yield from proc.barrier()

        # --- sub-step 3: prefetch panels, update interior -----------------
        rows, cols = work.interior_needs(me, k)
        for i in rows:
            owner = work.owner(i, k)
            if owner != me:
                yield from proc.bulk_get(
                    proc.gptr(me, CACHE, (1 + i) * bs2),
                    proc.gptr(owner, BLK, work.block_offset(i, k)),
                    bs2,
                )
        for j in cols:
            owner = work.owner(k, j)
            if owner != me:
                yield from proc.bulk_get(
                    proc.gptr(me, CACHE, (1 + b + j) * bs2),
                    proc.gptr(owner, BLK, work.block_offset(k, j)),
                    bs2,
                )
        yield from proc.sync()

        for (i, j) in work.interior_blocks(me, k):
            l_ik = (
                work.block_of(region, i, k)
                if work.owner(i, k) == me
                else cache_view(proc, 1 + i)
            )
            u_kj = (
                work.block_of(region, k, j)
                if work.owner(k, j) == me
                else cache_view(proc, 1 + b + j)
            )
            blk = work.block_of(region, i, j)
            blk -= l_ik @ u_kj
            yield from proc.charge(update_us)
        yield from proc.barrier()

    def program(proc: SCProcess) -> Generator[Any, Any, None]:
        yield from proc.barrier()
        if proc.my_node == 0:
            window.open()
        for k in range(b):
            yield from one_step(proc, k)
        if proc.my_node == 0:
            window.close()

    rt.run_spmd(program, name="sc-lu")

    packed = np.empty((p.n, p.n))
    for q in range(p.n_procs):
        region = rt.memory(q).region(BLK)
        for (i, j) in work.owned_blocks(q):
            packed[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs] = work.block_of(
                region, i, j
            )

    return LuRunResult(
        packed=packed,
        elapsed_us=window.elapsed_us,
        breakdown=window.breakdown,
        counters=window.counters,
    )
