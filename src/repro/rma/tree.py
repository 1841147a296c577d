"""Tree-based collectives over the AM layer: the one collective library.

A radix-``k`` tree takes O(log_k P) rounds, each node sending at most
``k`` messages — the shape every modern collectives library (MPI, NCCL,
UCC) settled on.  Radix P−1 is the flat tree: the root sends to every
peer and every peer answers the root directly, O(P) messages through one
NIC; the ``rma`` artifact times it beside the tree.

Usable from any runtime that exposes its AM endpoints (Split-C, CC++,
bare AM): construct one :class:`TreeComm` per endpoint set, then call
``bcast``/``reduce``/``allreduce``/``barrier`` from per-node threads
under the usual SPMD contract (every node calls the same collectives in
the same order; roots may differ per call).  Split-C's
``all_store_sync`` (:mod:`repro.splitc.collective`) runs on one.

Internally each operation gets an *epoch* from a per-node counter, and
all tree state is keyed by epoch and popped when consumed — a late
message for round *r* can never be confused with round *r+1*.
Broadcast relays happen in the AM handler itself (handler sends are
credit-exempt), so an interior node forwards without its application
thread being scheduled.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.errors import RuntimeStateError

__all__ = ["TreeComm"]

#: wire size of one tree message: header + epoch + root + one value word
_TREE_BYTES = 32


class _TreeState:
    """Per-node collective state, all keyed by epoch."""

    __slots__ = ("bc_epoch", "red_epoch", "bc_vals", "red_acc", "red_cnt")

    def __init__(self) -> None:
        self.bc_epoch = 0
        self.red_epoch = 0
        self.bc_vals: dict[int, float] = {}
        self.red_acc: dict[int, float] = {}
        self.red_cnt: dict[int, int] = {}


class TreeComm:
    """Radix-``k`` tree collectives over a set of AM endpoints."""

    def __init__(self, endpoints: list, *, radix: int = 2):
        if radix < 1:
            raise RuntimeStateError(f"tree radix must be >= 1, got {radix}")
        if not endpoints:
            raise RuntimeStateError("TreeComm needs at least one endpoint")
        self.eps = endpoints
        self.radix = radix
        self.n = len(endpoints)
        self._st = [_TreeState() for _ in endpoints]
        handlers = {"tree.bcast": self._h_bcast, "tree.reduce": self._h_reduce}
        for ep in endpoints:
            ep.register_handlers(handlers)

    # ------------------------------------------------------------- geometry
    # Ranks are node ids rotated so the root is rank 0; rank r's parent is
    # (r-1)//radix, its children r*radix+1 .. r*radix+radix.

    def _rank(self, nid: int, root: int) -> int:
        return (nid - root) % self.n

    def _node(self, rank: int, root: int) -> int:
        return (root + rank) % self.n

    def parent(self, nid: int, root: int) -> int:
        r = self._rank(nid, root)
        if r == 0:
            raise RuntimeStateError(f"root {root} has no parent")
        return self._node((r - 1) // self.radix, root)

    def children(self, nid: int, root: int) -> list[int]:
        r = self._rank(nid, root)
        first = r * self.radix + 1
        return [
            self._node(c, root)
            for c in range(first, min(first + self.radix, self.n))
        ]

    # ------------------------------------------------------------- handlers

    def _h_bcast(self, ep, src, frame):
        epoch, root, value = frame.args
        nid = ep.node.nid
        self._st[nid].bc_vals[epoch] = value
        # relay down the tree from inside the handler: interior nodes
        # forward without their application thread being scheduled
        for child in self.children(nid, root):
            yield from ep.send_short(
                child, "tree.bcast", (epoch, root, value), nbytes=_TREE_BYTES
            )

    def _h_reduce(self, ep, src, frame):
        epoch, _root, value = frame.args
        st = self._st[ep.node.nid]
        st.red_acc[epoch] = st.red_acc.get(epoch, 0.0) + value
        st.red_cnt[epoch] = st.red_cnt.get(epoch, 0) + 1
        return
        yield  # pragma: no cover - marks this body as a generator

    # ----------------------------------------------------------- operations

    def bcast(self, nid: int, root: int, value: float) -> Generator[Any, Any, float]:
        """Every node returns ``value`` as seen by ``root``."""
        ep = self.eps[nid]
        st = self._st[nid]
        epoch = st.bc_epoch
        st.bc_epoch += 1
        if self.n == 1:
            return float(value)
        if nid == root:
            for child in self.children(nid, root):
                yield from ep.send_short(
                    child, "tree.bcast", (epoch, root, float(value)), nbytes=_TREE_BYTES
                )
            return float(value)
        yield from ep.poll_until(lambda: epoch in st.bc_vals)
        return float(st.bc_vals.pop(epoch))

    def reduce(self, nid: int, root: int, value: float) -> Generator[Any, Any, float | None]:
        """Sum every node's ``value`` at ``root``; others return None.

        Leaves send immediately; interior nodes wait for their whole
        subtree, fold in their own value, and send one partial up."""
        ep = self.eps[nid]
        st = self._st[nid]
        epoch = st.red_epoch
        st.red_epoch += 1
        kids = self.children(nid, root)
        if kids:
            need = len(kids)
            yield from ep.poll_until(lambda: st.red_cnt.get(epoch, 0) >= need)
        subtotal = float(value) + st.red_acc.pop(epoch, 0.0)
        st.red_cnt.pop(epoch, None)
        if nid == root:
            return subtotal
        yield from ep.send_short(
            self.parent(nid, root), "tree.reduce", (epoch, root, subtotal),
            nbytes=_TREE_BYTES,
        )
        return None

    def allreduce(self, nid: int, value: float, *, root: int = 0) -> Generator[Any, Any, float]:
        """Sum every node's ``value`` everywhere (reduce + bcast)."""
        total = yield from self.reduce(nid, root, value)
        out = yield from self.bcast(nid, root, total if total is not None else 0.0)
        return out

    def barrier(self, nid: int, *, root: int = 0) -> Generator[Any, Any, None]:
        """Tree barrier: an allreduce whose value nobody reads."""
        yield from self.allreduce(nid, 0.0, root=root)
