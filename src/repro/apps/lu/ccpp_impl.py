"""cc-lu: blocked LU in CC++.

The one-way stores and prefetches of sc-lu are replaced by RMIs
returning blocks by value (§5): every pivot/panel acquisition is a
``get_block`` invocation with a bulk reply, paying marshalling and the
extra receive-side copy — the sources of the 3.6× gap Figure 6 shows.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from repro.apps.lu.blocked import LuWorkload, lu_nopivot, panel_l, panel_u
from repro.apps.lu.splitc_impl import LuRunResult
from repro.marshal import Marshallable
from repro.marshal.packer import Packer, Unpacker
from repro.ccpp import (
    CCContext,
    ObjectGlobalPtr,
    ProcessorObject,
    make_tham_runtime,
    processor_class,
    remote,
)
from repro.ccpp.collective import CCBarrier

__all__ = ["run_ccpp_lu", "LuProc"]


class LuBlock(Marshallable):
    """A matrix block as a CC++ user type: crossing address spaces invokes
    its own serialization method (the dynamic-dispatch marshalling path —
    the dominant per-fetch cost the paper attributes cc-lu's gap to)."""

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)

    def cc_pack(self, p: Packer) -> None:
        p.put_ndarray(self.data)

    @classmethod
    def cc_unpack(cls, u: Unpacker) -> "LuBlock":
        return cls(u.get_ndarray())


@processor_class
class LuProc(ProcessorObject):
    """Owns one processor's blocks of the matrix."""

    def __init__(self, work: LuWorkload, proc: int):
        self.work = work
        self.proc = proc
        bs2 = work.params.block ** 2
        self.region = np.empty(len(work.owned_blocks(proc)) * bs2)
        for (i, j) in work.owned_blocks(proc):
            work.block_of(self.region, i, j)[:] = work.initial_block(i, j)

    def block(self, i: int, j: int) -> np.ndarray:
        return self.work.block_of(self.region, i, j)

    @remote(threaded=True)
    def get_block(self, i: int, j: int):
        """Return block (i, j) by value (a user-typed bulk reply)."""
        return LuBlock(self.block(int(i), int(j)).copy())


def run_ccpp_lu(
    work: LuWorkload,
    *,
    runtime_factory=make_tham_runtime,
    **machine: Any,
) -> LuRunResult:
    """Run cc-lu and measure it.

    ``runtime_factory`` and ``machine`` as in
    :func:`~repro.apps.em3d.ccpp_impl.run_ccpp_em3d`."""
    p = work.params
    bs = p.block
    b = p.n_blocks
    rt = runtime_factory(p.n_procs, **machine)
    cluster = rt.cluster

    proxies: list[ObjectGlobalPtr] = []
    for nid in range(p.n_procs):
        obj_id = rt._create_local(nid, "LuProc", (work, nid))
        proxies.append(ObjectGlobalPtr(nid, obj_id, "LuProc"))
    barrier_id = rt._create_local(0, "CCBarrier", (p.n_procs,))
    barrier = ObjectGlobalPtr(0, barrier_id, "CCBarrier")

    factor_us = cluster.costs.cpu.lu_block_factor
    update_us = cluster.costs.cpu.lu_block_update
    window = cluster.window()

    def one_step(ctx: CCContext, k: int) -> Generator[Any, Any, None]:
        me = ctx.my_node
        proxy: LuProc = rt.object_table(me).get(1)

        # --- sub-step 1: factor the pivot --------------------------------
        if work.owner(k, k) == me:
            lu_nopivot(proxy.block(k, k))
            yield from ctx.charge(factor_us)
        yield from CCBarrier.wait(ctx, barrier)

        # --- sub-step 2: obtain the pivot (RMI), compute panels ----------
        pivot: np.ndarray | None = None
        if work.owner(k, k) == me:
            pivot = proxy.block(k, k)
        elif work.needs_pivot(me, k):
            raw = yield from ctx.rmi(proxies[work.owner(k, k)], "get_block", k, k)
            pivot = raw.data.reshape(bs, bs)
        for i in work.panel_rows(me, k):
            blk = proxy.block(i, k)
            blk[:] = panel_l(blk, pivot)
            yield from ctx.charge(update_us)
        for j in work.panel_cols(me, k):
            blk = proxy.block(k, j)
            blk[:] = panel_u(blk, pivot)
            yield from ctx.charge(update_us)
        yield from CCBarrier.wait(ctx, barrier)

        # --- sub-step 3: fetch panel blocks by RMI, update interior ------
        rows, cols = work.interior_needs(me, k)
        l_cache: dict[int, np.ndarray] = {}
        u_cache: dict[int, np.ndarray] = {}
        for i in rows:
            owner = work.owner(i, k)
            if owner == me:
                l_cache[i] = proxy.block(i, k)
            else:
                raw = yield from ctx.rmi(proxies[owner], "get_block", i, k)
                l_cache[i] = raw.data.reshape(bs, bs)
        for j in cols:
            owner = work.owner(k, j)
            if owner == me:
                u_cache[j] = proxy.block(k, j)
            else:
                raw = yield from ctx.rmi(proxies[owner], "get_block", k, j)
                u_cache[j] = raw.data.reshape(bs, bs)
        for (i, j) in work.interior_blocks(me, k):
            blk = proxy.block(i, j)
            blk -= l_cache[i] @ u_cache[j]
            yield from ctx.charge(update_us)
        yield from CCBarrier.wait(ctx, barrier)

    def program(ctx: CCContext) -> Generator[Any, Any, None]:
        me = ctx.my_node
        yield from CCBarrier.wait(ctx, barrier)
        if me == 0:
            window.open()
        for k in range(b):
            yield from one_step(ctx, k)
        if me == 0:
            window.close()

    for nid in range(p.n_procs):
        rt.launch(nid, program, f"cc-lu@{nid}")
    rt.run()

    packed = np.empty((p.n, p.n))
    for q in range(p.n_procs):
        proxy = rt.object_table(q).get(1)
        for (i, j) in work.owned_blocks(q):
            packed[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs] = proxy.block(i, j)

    return LuRunResult(
        packed=packed,
        elapsed_us=window.elapsed_us,
        breakdown=window.breakdown,
        counters=window.counters,
    )
