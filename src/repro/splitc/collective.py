"""Split-C's ``all_store_sync`` over a :class:`~repro.rma.tree.TreeComm`.

The collectives themselves (broadcast, reduce, all-reduce, barrier) are
the tree's: build one ``TreeComm(rt.endpoints, radix=k)`` per runtime
and call it from the SPMD program (``radix=rt.nprocs - 1`` is the flat
root-to-every-peer shape).  What Split-C adds on top is the store fence
below.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.splitc.process import SCProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.rma.tree import TreeComm

__all__ = ["all_store_sync"]


def all_store_sync(proc: SCProcess, tree: TreeComm) -> Generator[Any, Any, None]:
    """Split-C's ``all_store_sync()``: a global barrier that additionally
    guarantees every one-way store issued *before* the call has landed.

    Implemented the way the real runtime does it — by summing the global
    sent/received store counts over ``tree`` until they agree.  Tree
    messages are plain AM, not stores, so the counts see application
    stores only.
    """
    me = proc.my_node
    st = proc.rt.state(me)
    while True:
        sent = yield from tree.allreduce(me, float(st.stores_sent))
        received = yield from tree.allreduce(me, float(st.stores_received))
        if sent == received:
            return
        # stores still in flight: service the inbox and try again
        yield from proc.poll()
