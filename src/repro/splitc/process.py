"""The per-node Split-C program context.

An :class:`SCProcess` is what a Split-C "program text" manipulates: the
global-access primitives of the language, each a generator to be driven
with ``yield from``.  The API mirrors Split-C's communication taxonomy
(Culler et al.):

==============  =============================  =======================
primitive       Split-C syntax                 here
==============  =============================  =======================
blocking read   ``lx = *gp``                   ``read(gp)``
blocking write  ``*gp = lx``                   ``write(gp, v)``
split-phase     ``lx := *gp; ... sync()``      ``get(dest, gp)`` / ``sync()``
one-way store   ``*gp :- lx``                  ``store(gp, v)`` / ``await_stores(n)``
bulk            ``bulk_read(&l, gp, n)``       ``bulk_read(gp, n)``
barrier         ``barrier()``                  ``barrier()``
==============  =============================  =======================

Local global-pointer dereferences short-circuit the network and cost a
fraction of a microsecond, as in the real runtime.

Values are Python numbers and blocks are ``array.array`` words:
``read`` returns a float, ``bulk_read`` an ``array`` copy in the region's
typecode.  ``bulk_write`` / ``bulk_store`` send an ``array`` as it is and
any other block (an ``ndarray``, a list) through NumPy; only ``local``
hands out a NumPy view.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.am.frames import BULK_HEADER_BYTES
from repro.errors import GlobalPointerError
from repro.obs.metrics import MetricNames
from repro.sim.account import Category
from repro.sim.effects import WAIT_INBOX, Charge
from repro.splitc.gptr import GlobalPtr
from repro.util.words import DTYPE_NAMES

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.splitc.runtime import SplitCRuntime

__all__ = ["SCProcess"]

_READ_REQ_BYTES = 16
_WRITE_REQ_BYTES = 24
_GET_REQ_BYTES = 24
_PUT_REQ_BYTES = 24
_STORE_BYTES = 24
_BARRIER_BYTES = 12


def _block(values) -> tuple[Any, str, int]:
    """A bulk operand as (C-contiguous buffer, dtype name, byte count).
    Words move as they are; anything else goes through NumPy, which infers
    its dtype as before (a caller holding an ``ndarray`` has it loaded)."""
    if type(values) is array:
        return values, DTYPE_NAMES[values.typecode], len(values) * values.itemsize
    import numpy as np

    arr = np.ascontiguousarray(values)
    return arr, str(arr.dtype), arr.nbytes


class SCProcess:
    """Split-C as seen by the program running on one node."""

    def __init__(self, runtime: "SplitCRuntime", nid: int):
        self.rt = runtime
        self.nid = nid
        self.node = runtime.cluster.nodes[nid]
        self.mem = runtime.memories[nid]
        self.ep = runtime.endpoints[nid]
        #: this node's Split-C bookkeeping (``runtime.state(nid)``)
        self._st = runtime.state(nid)
        self._barrier_epoch = 0
        # the runtime's fixed per-op charges, one instance per cost point
        # for every access on every node
        self._chg_issue = runtime._chg_issue
        self._chg_local = runtime._chg_local
        self._chg_sync_check = runtime._chg_sync
        # passive observability (both None by default): remote-read latency
        # histogram plus spans around the remote access paths
        self._spans = self.node._spans
        metrics = self.node.metrics
        self._h_read = (
            None if metrics is None else metrics.histogram(MetricNames.SC_READ)
        )

    # -------------------------------------------------------------- geometry

    @property
    def my_node(self) -> int:
        """``MYPROC`` in Split-C."""
        return self.nid

    @property
    def nprocs(self) -> int:
        """``PROCS`` in Split-C."""
        return self.rt.nprocs

    def local(self, region: str) -> np.ndarray:
        """Direct handle to a local region (free: models ordinary C access):
        a NumPy view of its words, built once per region."""
        return self.mem.region(region)

    def gptr(self, node: int, region: str, offset: int = 0) -> GlobalPtr:
        return GlobalPtr(node, region, offset)

    # ------------------------------------------------------------------ time

    def charge(self, us: float) -> Generator[Any, Any, None]:
        """Account application CPU work (the figures' *cpu* component)."""
        yield Charge(us, Category.CPU)

    # ------------------------------------------------------ blocking accesses

    def read(self, gp: GlobalPtr) -> Generator[Any, Any, Any]:
        """``lx = *gp``: blocking global read."""
        if gp.is_local(self.nid):
            yield self._chg_local
            return self.mem.load(gp)
        sp = self._spans
        hist = self._h_read
        t0 = self.node.sim._now if (sp is not None or hist is not None) else 0.0
        sid = sp.begin(t0, self.nid, "sc.read", str(gp)) if sp is not None else -1
        yield self._chg_issue
        slot, box = self.rt.new_box(self.nid)
        yield from self.ep.send_short(
            gp.node, "sc.read", args=(gp.region, gp.offset, slot), nbytes=_READ_REQ_BYTES
        )
        yield from self.ep.poll_until_done(box)
        if hist is not None:
            hist.record(self.node.sim._now - t0)
        if sp is not None:
            sp.end(sid, self.node.sim._now)
        return box.value

    def write(self, gp: GlobalPtr, value: Any) -> Generator[Any, Any, None]:
        """``*gp = lx``: blocking global write (waits for the ack)."""
        if gp.is_local(self.nid):
            yield self._chg_local
            self.mem.store(gp, value)
            return
        sp = self._spans
        sid = (
            sp.begin(self.node.sim._now, self.nid, "sc.write", str(gp))
            if sp is not None
            else -1
        )
        yield self._chg_issue
        slot, box = self.rt.new_box(self.nid)
        yield from self.ep.send_short(
            gp.node,
            "sc.write",
            args=(gp.region, gp.offset, value, slot),
            nbytes=_WRITE_REQ_BYTES,
        )
        yield from self.ep.poll_until_done(box)
        if sp is not None:
            sp.end(sid, self.node.sim._now)

    # ---------------------------------------------------- split-phase accesses

    def get(self, dest: GlobalPtr, src: GlobalPtr) -> Generator[Any, Any, None]:
        """``dest := *src``: split-phase read into local memory; complete
        with :meth:`sync`."""
        if not dest.is_local(self.nid):
            raise GlobalPointerError(f"get destination {dest!r} is not local to node {self.nid}")
        if src.is_local(self.nid):
            yield self._chg_local
            self.mem.store(dest, self.mem.load(src))
            return
        yield self._chg_issue
        self._st.pending += 1
        yield from self.ep.send_short(
            src.node,
            "sc.get",
            args=(src.region, src.offset, dest.region, dest.offset),
            nbytes=_GET_REQ_BYTES,
        )

    def put(self, dest: GlobalPtr, value: Any) -> Generator[Any, Any, None]:
        """``*dest := lx``: split-phase write; complete with :meth:`sync`."""
        if dest.is_local(self.nid):
            yield self._chg_local
            self.mem.store(dest, value)
            return
        yield self._chg_issue
        self._st.pending += 1
        yield from self.ep.send_short(
            dest.node,
            "sc.put",
            args=(dest.region, dest.offset, value),
            nbytes=_PUT_REQ_BYTES,
        )

    def sync(self) -> Generator[Any, Any, None]:
        """Wait for every outstanding split-phase operation by this node."""
        st = self._st
        sp = self._spans
        sid = (
            sp.begin(self.node.sim._now, self.nid, "sc.sync", f"pending {st.pending}")
            if sp is not None
            else -1
        )
        yield self._chg_sync_check
        yield from self.ep.poll_until(lambda: st.pending == 0)
        if sp is not None:
            sp.end(sid, self.node.sim._now)

    # ------------------------------------------------------------- one-way

    def store(self, dest: GlobalPtr, value: Any) -> Generator[Any, Any, None]:
        """``*dest :- lx``: one-way store; the *target* synchronizes."""
        self._st.stores_sent += 1
        if dest.is_local(self.nid):
            yield self._chg_local
            self.mem.store(dest, value)
            st = self._st
            st.stores_received += 1
            return
        yield self._chg_issue
        yield from self.ep.send_short(
            dest.node,
            "sc.store",
            args=(dest.region, dest.offset, value),
            nbytes=_STORE_BYTES,
        )

    def store_add(self, dest: GlobalPtr, values) -> Generator[Any, Any, None]:
        """One-way remote accumulate of a few contiguous elements
        (``*dest[k] += values[k]``); counts as one store at the target."""
        values = [float(v) for v in values]
        self._st.stores_sent += 1
        if dest.is_local(self.nid):
            yield self._chg_local
            self.mem.add_block(dest, values)
            self._st.stores_received += 1
            return
        yield self._chg_issue
        yield from self.ep.send_short(
            dest.node,
            "sc.store_add",
            args=(dest.region, dest.offset, tuple(values)),
            nbytes=_STORE_BYTES + 8 * (len(values) - 1),
        )

    def bulk_store(self, dest: GlobalPtr, values) -> Generator[Any, Any, None]:
        """One-way bulk store of a contiguous block."""
        data, dtype, nbytes = _block(values)
        self._st.stores_sent += 1
        if dest.is_local(self.nid):
            yield self._chg_local
            self.mem.store_block(dest, values)
            self._st.stores_received += 1
            return
        yield self._chg_issue
        yield from self.ep.send_bulk(
            dest.node,
            "sc.bulk_store",
            args=(dest.region, dest.offset, dtype),
            data=self.node.marshal_pool.take_packed(data),
            nbytes=BULK_HEADER_BYTES + nbytes,
        )

    def bulk_store_add(self, dest: GlobalPtr, values) -> Generator[Any, Any, None]:
        """One-way bulk accumulate of a contiguous block (counts as one
        store at the target) — how water-prefetch ships force blocks."""
        data, dtype, nbytes = _block(values)
        self._st.stores_sent += 1
        if dest.is_local(self.nid):
            yield self._chg_local
            self.mem.add_block(dest, values)
            self._st.stores_received += 1
            return
        yield self._chg_issue
        yield from self.ep.send_bulk(
            dest.node,
            "sc.bulk_store_add",
            args=(dest.region, dest.offset, dtype),
            data=self.node.marshal_pool.take_packed(data),
            nbytes=BULK_HEADER_BYTES + nbytes,
        )

    def await_stores(self, n: int) -> Generator[Any, Any, None]:
        """Block until ``n`` further stores have landed on this node."""
        st = self._st
        target = st.stores_consumed + n
        yield self._chg_sync_check
        yield from self.ep.poll_until(lambda: st.stores_received >= target)
        st.stores_consumed = target

    # ----------------------------------------------------------------- bulk

    def bulk_read(self, src: GlobalPtr, count: int) -> Generator[Any, Any, array]:
        """Blocking bulk read of ``count`` elements starting at ``src``;
        returns a copy as an ``array`` of the region's typecode (wrap it in
        ``np.asarray`` for arithmetic: ``array * k`` repeats the array)."""
        if src.is_local(self.nid):
            yield self._chg_local
            return self.mem.load_block(src, count)
        sp = self._spans
        sid = (
            sp.begin(self.node.sim._now, self.nid, "sc.bulk_read", f"{count} elems")
            if sp is not None
            else -1
        )
        yield self._chg_issue
        slot, box = self.rt.new_box(self.nid)
        yield from self.ep.send_short(
            src.node,
            "sc.bulk_read",
            args=(src.region, src.offset, count, slot),
            nbytes=_READ_REQ_BYTES + 8,
        )
        yield from self.ep.poll_until_done(box)
        if sp is not None:
            sp.end(sid, self.node.sim._now)
        return box.value

    def bulk_write(self, dest: GlobalPtr, values) -> Generator[Any, Any, None]:
        """Blocking bulk write (waits for the ack)."""
        data, dtype, nbytes = _block(values)
        if dest.is_local(self.nid):
            yield self._chg_local
            self.mem.store_block(dest, values)
            return
        sp = self._spans
        sid = (
            sp.begin(self.node.sim._now, self.nid, "sc.bulk_write", f"{nbytes}B")
            if sp is not None
            else -1
        )
        yield self._chg_issue
        slot, box = self.rt.new_box(self.nid)
        yield from self.ep.send_bulk(
            dest.node,
            "sc.bulk_write",
            args=(dest.region, dest.offset, dtype, slot),
            data=self.node.marshal_pool.take_packed(data),
            nbytes=BULK_HEADER_BYTES + nbytes,
        )
        yield from self.ep.poll_until_done(box)
        if sp is not None:
            sp.end(sid, self.node.sim._now)

    # --------------------------------------------------------------- barrier

    def barrier(self) -> Generator[Any, Any, None]:
        """Global SPMD barrier over all processors."""
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        sp = self._spans
        sid = (
            sp.begin(self.node.sim._now, self.nid, "sc.barrier", f"epoch {epoch}")
            if sp is not None
            else -1
        )
        yield self._chg_sync_check
        st = self._st
        ep = self.ep
        if self.nid == 0:
            st.barrier_arrived += 1
            if st.barrier_arrived == self.rt._nprocs:
                yield from self.rt._release_barrier(ep)
        else:
            yield from ep.send_short(
                0, "sc.barrier", args=(epoch,), nbytes=_BARRIER_BYTES
            )
        # ep.poll_until on the release, without the closure and its call
        # per spin (the shape of ep.poll_until_done)
        node = self.node
        while st.barrier_released <= epoch:
            if not node.inbox:
                yield WAIT_INBOX
            yield from ep.poll()
        if sp is not None:
            sp.end(sid, self.node.sim._now)

    def bulk_get(
        self, dest: GlobalPtr, src: GlobalPtr, count: int
    ) -> Generator[Any, Any, None]:
        """Split-phase bulk read of ``count`` elements into local memory;
        complete with :meth:`sync` (how sc-lu prefetches panel blocks)."""
        if not dest.is_local(self.nid):
            raise GlobalPointerError(f"bulk_get destination {dest!r} is not local")
        if src.is_local(self.nid):
            yield self._chg_local
            self.mem.store_block(dest, self.mem.load_block(src, count))
            return
        yield self._chg_issue
        self._st.pending += 1
        yield from self.ep.send_short(
            src.node,
            "sc.bulk_get",
            args=(src.region, src.offset, count, dest.region, dest.offset),
            nbytes=_READ_REQ_BYTES + 16,
        )

    # ------------------------------------------------------------ atomic RPC

    def atomic_rpc(self, node: int, name: str, *args: Any) -> Generator[Any, Any, Any]:
        """Split-C ``atomic(foo, ...)``: run a registered function on
        ``node`` and return its result (Table 4's 0-Word Atomic RPC row)."""
        yield self._chg_issue
        slot, box = self.rt.new_box(self.nid)
        yield from self.ep.send_short(
            node, "sc.rpc", args=(name, args, slot), nbytes=_READ_REQ_BYTES + 8 * len(args)
        )
        yield from self.ep.poll_until_done(box)
        return box.value

    # ----------------------------------------------------------------- misc

    def poll(self) -> Generator[Any, Any, int]:
        """Explicit poll (Split-C programs sprinkle these in compute loops)."""
        return (yield from self.ep.poll())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SCProcess node={self.nid}/{self.nprocs}>"
