"""Split-C library collectives: broadcast, reduce, all-reduce, gather,
and ``all_store_sync``.

The Split-C distribution shipped a small library of collectives built on
the language's own primitives (one-way stores + barriers); these are the
same, expressed over :class:`~repro.splitc.process.SCProcess`.  Each
collective uses a runtime-allocated scratch region (``_coll``) with
dedicated arrival-flag slots, so they compose safely with application
one-way stores that may be in flight at the same time (they never touch
the ``await_stores`` counter).

All of them are *synchronous* collectives: every processor must call the
same operation the same number of times (the usual SPMD contract).

Scratch layout (per node): slot 0 broadcast value, 1 broadcast flag,
2 reduce accumulator, 3 reduce arrival count, 4.. gather values followed
by one gather arrival count.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator
from typing import Any

from repro.errors import RuntimeStateError
from repro.splitc.process import SCProcess

__all__ = [
    "SCRATCH_REGION",
    "ensure_scratch",
    "broadcast",
    "reduce_add",
    "all_reduce_add",
    "all_store_sync",
    "all_gather",
]

#: per-node scratch region used by the collectives
SCRATCH_REGION = "_coll"

_BCAST_VAL = 0
_BCAST_FLAG = 1
_REDUCE_ACC = 2
_REDUCE_CNT = 3
_GATHER_BASE = 4


def _scratch_size(nprocs: int) -> int:
    return _GATHER_BASE + nprocs + 1


def ensure_scratch(runtime, size: int | None = None) -> None:
    """Allocate the collectives' scratch region on every node (idempotent).

    An explicit ``size`` below what the collectives index on this many
    processors is rejected here — accepting it would let every
    collective pass allocation and fail (or silently corrupt) later at
    the first gather past the end of the region.
    """
    floor = _scratch_size(runtime.nprocs)
    if size is not None and size < floor:
        raise RuntimeStateError(
            f"collective scratch size {size} < required {floor} for "
            f"{runtime.nprocs} processors"
        )
    need = size if size is not None else floor
    for nid in range(runtime.nprocs):
        mem = runtime.memory(nid)
        if not mem.has_region(SCRATCH_REGION):
            mem.alloc(SCRATCH_REGION, need)
        elif len(mem.words(SCRATCH_REGION)) < need:
            raise RuntimeStateError(
                f"collective scratch on node {nid} too small "
                f"({len(mem.words(SCRATCH_REGION))} < {need})"
            )


def broadcast(proc: SCProcess, root: int, value: float) -> Generator[Any, Any, float]:
    """Every processor returns ``value`` as seen by ``root``.

    Root pushes value and flag to the two adjacent scratch slots with
    ONE accumulating store per receiver: a single message is applied
    atomically at the target, so the flag can never become visible
    before the value.  (Two separate stores raced: an unreliable fabric
    under delay/jitter reorders same-channel packets, and a receiver
    that saw the flag first returned the stale value.)  Receivers spin
    on the flag slot, then clear both slots for the next round — the
    scratch starts each round at zero, so ``+= value`` equals a plain
    store.
    """
    scratch = proc.mem.words(SCRATCH_REGION)
    if proc.my_node == root:
        for q in range(proc.nprocs):
            if q != root:
                yield from proc.store_add(
                    proc.gptr(q, SCRATCH_REGION, _BCAST_VAL), (value, 1.0)
                )
        out = float(value)
    else:
        yield from proc.ep.poll_until(lambda: scratch[_BCAST_FLAG] == 1.0)
        out = float(scratch[_BCAST_VAL])
        scratch[_BCAST_VAL] = 0.0
        scratch[_BCAST_FLAG] = 0.0
    yield from proc.barrier()
    return out


def reduce_add(proc: SCProcess, root: int, value: float) -> Generator[Any, Any, float | None]:
    """Sum every processor's ``value`` at ``root``; others return None.

    Non-roots contribute with one-way accumulating stores; a second
    accumulate bumps the arrival count the root spins on.
    """
    scratch = proc.mem.words(SCRATCH_REGION)
    if proc.my_node == root:
        scratch[_REDUCE_ACC] += value
        yield from proc.ep.poll_until(
            lambda: scratch[_REDUCE_CNT] == float(proc.nprocs - 1)
        )
        total = float(scratch[_REDUCE_ACC])
        scratch[_REDUCE_ACC] = 0.0
        scratch[_REDUCE_CNT] = 0.0
        yield from proc.barrier()
        return total
    yield from proc.store_add(proc.gptr(root, SCRATCH_REGION, _REDUCE_ACC), (value,))
    yield from proc.store_add(proc.gptr(root, SCRATCH_REGION, _REDUCE_CNT), (1.0,))
    yield from proc.barrier()
    return None


def all_reduce_add(proc: SCProcess, value: float) -> Generator[Any, Any, float]:
    """Sum every processor's ``value`` everywhere (reduce to 0 + broadcast)."""
    total = yield from reduce_add(proc, 0, value)
    result = yield from broadcast(proc, 0, total if total is not None else 0.0)
    return result


def all_store_sync(proc: SCProcess) -> Generator[Any, Any, None]:
    """Split-C's ``all_store_sync()``: a global barrier that additionally
    guarantees every one-way store issued *before* the call has landed.

    Implemented the way the real runtime does it — by comparing global
    sent/received store counts until they agree.  Collective traffic of a
    round is excluded from both sides by sampling one consistent local
    cut before the round, so only genuinely in-flight application stores
    make the totals differ.
    """
    while True:
        st = proc.rt.state(proc.my_node)
        sent_local = float(st.stores_sent)
        recv_local = float(st.stores_received)
        sent = yield from all_reduce_add(proc, sent_local)
        received = yield from all_reduce_add(proc, recv_local)
        if sent == received:
            return
        # stores still in flight: service the inbox and try again
        yield from proc.poll()


def all_gather(proc: SCProcess, value: float) -> Generator[Any, Any, array]:
    """Every processor returns the vector of all processors' values,
    indexed by node id, as an ``array("d")`` (one value store + one count
    bump per pair)."""
    me = proc.my_node
    nprocs = proc.nprocs
    scratch = proc.mem.words(SCRATCH_REGION)
    count_slot = _GATHER_BASE + nprocs
    scratch[_GATHER_BASE + me] = value
    for q in range(nprocs):
        if q != me:
            yield from proc.store(
                proc.gptr(q, SCRATCH_REGION, _GATHER_BASE + me), value
            )
            yield from proc.store_add(
                proc.gptr(q, SCRATCH_REGION, count_slot), (1.0,)
            )
    yield from proc.ep.poll_until(lambda: scratch[count_slot] == float(nprocs - 1))
    out = scratch[_GATHER_BASE : _GATHER_BASE + nprocs]
    scratch[count_slot] = 0.0
    yield from proc.barrier()
    return out
