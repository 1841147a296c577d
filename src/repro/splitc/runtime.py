"""The Split-C runtime: handlers, reply boxes, barriers, store counters.

One :class:`SplitCRuntime` owns a cluster, installs an AM endpoint and a
:class:`~repro.splitc.memory.Memory` on every node, and registers the
global-access handlers.  Programs run SPMD via :meth:`run_spmd`: the same
generator function is launched on every node with its own
:class:`~repro.splitc.process.SCProcess` context.

Cost structure per remote access (SP2 profile):

* blocking read/write: ``sc_issue`` (RUNTIME) + short AM round trip
  (NET) + ``reply_handling`` (RUNTIME) ≈ 57 µs — Table 4's GP R/W row.
* split-phase get/put: same messages, but the issuing loop overlaps
  them; ``sync()`` spin-polls on the outstanding-operation counter.
* one-way store: no reply at all; the *target* synchronizes via
  ``await_stores``.
* bulk read/write: one bulk AM each way ≈ 70 µs + per-byte costs.

The handlers move words: a region is an ``array.array``
(:mod:`repro.splitc.memory`), a bulk payload is its raw bytes in a pooled
buffer, and a frame names the element type as NumPy does (``"float64"``).
A ``bulk_read`` reply lands as an ``array`` of that typecode.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any

from repro.am import AMEndpoint, AMFrame, install_am
from repro.am.frames import BULK_HEADER_BYTES
from repro.errors import RuntimeStateError
from repro.machine.cluster import Cluster
from repro.sim.account import Category
from repro.sim.effects import Charge
from repro.splitc.memory import Memory
from repro.splitc.process import SCProcess
from repro.util.words import DTYPE_NAMES, from_bytes

__all__ = ["SplitCRuntime", "ReplyBox"]

# wire sizes (bytes) for the short-message protocol frames
_READ_REQ_BYTES = 16    # region id + offset + slot
_WRITE_REQ_BYTES = 24   # + value word
_REPLY_VAL_BYTES = 16   # slot + value
_ACK_BYTES = 12         # slot
_STORE_BYTES = 24       # one-way write: region + offset + value
_BARRIER_BYTES = 12


@dataclass(slots=True)
class ReplyBox:
    """Completion record for one outstanding blocking operation."""

    done: bool = False
    value: Any = None


@dataclass(slots=True)
class _NodeState:
    """Split-C bookkeeping private to one node."""

    boxes: dict[int, ReplyBox] = field(default_factory=dict)
    next_box: int = 0
    pending: int = 0          # outstanding split-phase operations
    stores_received: int = 0  # one-way stores landed here
    stores_consumed: int = 0
    stores_sent: int = 0      # one-way stores issued by this node
    barrier_epoch: int = 0    # epochs this node has completed
    barrier_arrived: int = 0  # (node 0 only) arrivals for current epoch
    barrier_released: int = 0 # highest epoch released


class SplitCRuntime:
    """Installs and drives Split-C on a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        reliable: bool = False,
        retry: Any = None,
    ):
        self.cluster = cluster
        self.endpoints: list[AMEndpoint] = install_am(
            cluster, reliable=reliable, retry=retry
        )
        self._nprocs = cluster.size
        # Fixed Charge effects, built once: every node of the cluster
        # shares its cost model, Charge is immutable, and one instance
        # serves every message on every node.  The memo holds the
        # byte-dependent bulk charges, bounded.
        rc = cluster.costs.runtime
        self._chg_reply = Charge(rc.reply_handling, Category.RUNTIME)
        self._chg_sync = Charge(rc.sc_sync_check, Category.RUNTIME)
        self._chg_issue = Charge(rc.sc_issue, Category.RUNTIME)
        self._chg_local = Charge(rc.sc_local_access, Category.RUNTIME)
        self._chg_memo: dict[float, Charge] = {}
        self.memories: list[Memory] = [Memory(n) for n in cluster.nodes]
        self._state: list[_NodeState] = [_NodeState() for _ in cluster.nodes]
        self._procs: list[SCProcess] = [
            SCProcess(self, node.nid) for node in cluster.nodes
        ]
        handlers = {
            "sc.read": self._h_read,
            "sc.write": self._h_write,
            "sc.get": self._h_get,
            "sc.get_reply": self._h_get_reply,
            "sc.put": self._h_put,
            "sc.reply_val": self._h_reply_val,
            "sc.ack": self._h_ack,
            "sc.put_ack": self._h_put_ack,
            "sc.store": self._h_store,
            "sc.store_add": self._h_store_add,
            "sc.bulk_read": self._h_bulk_read,
            "sc.bulk_data": self._h_bulk_data,
            "sc.bulk_get": self._h_bulk_get,
            "sc.bulk_get_reply": self._h_bulk_get_reply,
            "sc.bulk_write": self._h_bulk_write,
            "sc.bulk_store": self._h_bulk_store,
            "sc.bulk_store_add": self._h_bulk_store_add,
            "sc.barrier": self._h_barrier,
            "sc.barrier_go": self._h_barrier_go,
            "sc.rpc": self._h_rpc,
        }
        for ep in self.endpoints:
            ep.register_handlers(handlers)
        #: registered atomic-RPC functions, shared by all nodes (same
        #: program image everywhere — the SPMD assumption)
        self._rpc_fns: dict[str, Callable[..., Any]] = {}

    # ------------------------------------------------------------ structure

    @property
    def nprocs(self) -> int:
        return self.cluster.size

    def process(self, nid: int) -> SCProcess:
        return self._procs[nid]

    def memory(self, nid: int) -> Memory:
        return self.memories[nid]

    def state(self, nid: int) -> _NodeState:
        return self._state[nid]

    def endpoint(self, nid: int) -> AMEndpoint:
        return self.endpoints[nid]

    # ------------------------------------------------------------ box table

    def new_box(self, nid: int) -> tuple[int, ReplyBox]:
        st = self._state[nid]
        slot = st.next_box
        st.next_box += 1
        box = ReplyBox()
        st.boxes[slot] = box
        return slot, box

    def _take_box(self, nid: int, slot: int) -> ReplyBox:
        try:
            return self._state[nid].boxes.pop(slot)
        except KeyError:
            raise RuntimeStateError(
                f"node {nid}: reply for unknown slot {slot}"
            ) from None

    # -------------------------------------------------------------- handlers
    # All handlers run at poll time on the *destination* node, inside
    # whatever thread polled.  `ep.node` is the servicing node.

    def _rt_charge(self, us: float):
        memo = self._chg_memo
        chg = memo.get(us)
        if chg is None:
            chg = Charge(us, Category.RUNTIME)
            if len(memo) < 256:  # bounded: varying payload sizes can't leak
                memo[us] = chg
        return chg

    def _recycle_payload(self, ep: AMEndpoint, frame: AMFrame) -> None:
        """Return a zero-copy bulk payload view to the buffer pool (no-op
        for plain bytes).  The frame must not be touched afterwards."""
        data = frame.data
        if type(data) is memoryview:
            frame.data = b""
            ep.node.marshal_pool.recycle_view(data)

    def _h_read(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, slot = frame.args
        value = self.memories[ep.node.nid].load_gp(region, offset)
        yield from ep.send_short(
            src, "sc.reply_val", args=(slot, value), nbytes=_REPLY_VAL_BYTES
        )

    def _h_write(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, value, slot = frame.args
        self.memories[ep.node.nid].store_gp(region, offset, value)
        yield from ep.send_short(src, "sc.ack", args=(slot,), nbytes=_ACK_BYTES)

    def _h_reply_val(self, ep: AMEndpoint, src: int, frame: AMFrame):
        slot, value = frame.args
        box = self._take_box(ep.node.nid, slot)
        box.value = value
        box.done = True
        yield self._chg_reply

    def _h_ack(self, ep: AMEndpoint, src: int, frame: AMFrame):
        (slot,) = frame.args
        box = self._take_box(ep.node.nid, slot)
        box.done = True
        yield self._chg_reply

    # split-phase -----------------------------------------------------------

    def _h_get(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, dest_region, dest_offset = frame.args
        value = self.memories[ep.node.nid].load_gp(region, offset)
        yield from ep.send_short(
            src,
            "sc.get_reply",
            args=(dest_region, dest_offset, value),
            nbytes=_REPLY_VAL_BYTES + 8,
        )

    def _h_get_reply(self, ep: AMEndpoint, src: int, frame: AMFrame):
        dest_region, dest_offset, value = frame.args
        nid = ep.node.nid
        self.memories[nid].store_gp(dest_region, dest_offset, value)
        self._state[nid].pending -= 1
        yield self._chg_reply

    def _h_put(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, value = frame.args
        self.memories[ep.node.nid].store_gp(region, offset, value)
        yield from ep.send_short(src, "sc.put_ack", args=(), nbytes=_ACK_BYTES)

    def _h_put_ack(self, ep: AMEndpoint, src: int, frame: AMFrame):
        self._state[ep.node.nid].pending -= 1
        yield self._chg_reply

    def _h_store(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, value = frame.args
        nid = ep.node.nid
        self.memories[nid].store_gp(region, offset, value)
        self._state[nid].stores_received += 1
        # one-way: no reply
        yield self._chg_reply

    def _h_store_add(self, ep: AMEndpoint, src: int, frame: AMFrame):
        """One-way accumulate: ``*gp[k] += v[k]`` for a few values (a node
        is single-threaded, so the read-modify-write is trivially atomic —
        the asymmetry against CC++'s lock-paying atomic methods)."""
        region, offset, values = frame.args
        nid = ep.node.nid
        self.memories[nid].add_block_gp(region, offset, values)
        self._state[nid].stores_received += 1
        yield self._chg_reply

    # bulk ------------------------------------------------------------------

    def _h_bulk_read(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, count, slot = frame.args
        block = self.memories[ep.node.nid].load_block_gp(region, offset, count)
        # region slice -> pooled buffer; the view travels as-is and the
        # requester recycles it after copying out
        payload = ep.node.marshal_pool.take_packed(block)
        yield from ep.send_bulk(
            src,
            "sc.bulk_data",
            args=(slot, DTYPE_NAMES[block.typecode]),
            data=payload,
            nbytes=BULK_HEADER_BYTES + len(payload),
        )

    def _h_bulk_data(self, ep: AMEndpoint, src: int, frame: AMFrame):
        slot, dtype = frame.args
        box = self._take_box(ep.node.nid, slot)
        n = len(frame.data)
        box.value = from_bytes(frame.data, dtype)
        box.done = True
        self._recycle_payload(ep, frame)
        rt = ep.node.costs.runtime
        yield self._rt_charge(rt.reply_handling + 0.01 * n)

    def _h_bulk_get(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, count, dest_region, dest_offset = frame.args
        block = self.memories[ep.node.nid].load_block_gp(region, offset, count)
        payload = ep.node.marshal_pool.take_packed(block)
        yield from ep.send_bulk(
            src,
            "sc.bulk_get_reply",
            args=(dest_region, dest_offset, DTYPE_NAMES[block.typecode]),
            data=payload,
            nbytes=BULK_HEADER_BYTES + len(payload),
        )

    def _h_bulk_get_reply(self, ep: AMEndpoint, src: int, frame: AMFrame):
        dest_region, dest_offset, dtype = frame.args
        nid = ep.node.nid
        n = len(frame.data)
        values = from_bytes(frame.data, dtype)
        self.memories[nid].store_block_gp(dest_region, dest_offset, values)
        self._state[nid].pending -= 1
        self._recycle_payload(ep, frame)
        rt = ep.node.costs.runtime
        yield self._rt_charge(rt.reply_handling + 0.01 * n)

    def _h_bulk_write(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, dtype, slot = frame.args
        values = from_bytes(frame.data, dtype)
        self.memories[ep.node.nid].store_block_gp(region, offset, values)
        self._recycle_payload(ep, frame)
        yield from ep.send_short(src, "sc.ack", args=(slot,), nbytes=_ACK_BYTES)

    def _h_bulk_store_add(self, ep: AMEndpoint, src: int, frame: AMFrame):
        """One-way bulk accumulate: ``region[off:off+n] += values``."""
        region, offset, dtype = frame.args
        nid = ep.node.nid
        n = len(frame.data)
        values = from_bytes(frame.data, dtype)
        self.memories[nid].add_block_gp(region, offset, values)
        self._state[nid].stores_received += 1
        self._recycle_payload(ep, frame)
        rt = ep.node.costs.runtime
        yield self._rt_charge(rt.reply_handling + 0.01 * n)

    def _h_bulk_store(self, ep: AMEndpoint, src: int, frame: AMFrame):
        region, offset, dtype = frame.args
        nid = ep.node.nid
        values = from_bytes(frame.data, dtype)
        self.memories[nid].store_block_gp(region, offset, values)
        self._state[nid].stores_received += 1
        self._recycle_payload(ep, frame)
        yield self._chg_reply

    # atomic RPC ------------------------------------------------------------
    # Split-C's `atomic(foo, ...)`: run a registered function at the remote
    # node.  The node is single-threaded, so atomicity is free — the
    # asymmetry against CC++'s lock-paying atomic RMI is the point.

    def register_rpc(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a function callable via ``SCProcess.atomic_rpc``.

        ``fn(runtime, nid, *args)`` runs at the target; its return value is
        shipped back.  Registration is global (same program image on every
        node, per the SPMD model).
        """
        if name in self._rpc_fns:
            raise RuntimeStateError(f"Split-C RPC {name!r} already registered")
        self._rpc_fns[name] = fn

    def _h_rpc(self, ep: AMEndpoint, src: int, frame: AMFrame):
        name, fn_args, slot = frame.args
        try:
            fn = self._rpc_fns[name]
        except KeyError:
            raise RuntimeStateError(f"no Split-C RPC registered as {name!r}") from None
        value = fn(self, ep.node.nid, *fn_args)
        yield from ep.send_short(
            src, "sc.reply_val", args=(slot, value), nbytes=_REPLY_VAL_BYTES
        )

    # barrier ---------------------------------------------------------------

    def _h_barrier(self, ep: AMEndpoint, src: int, frame: AMFrame):
        (epoch,) = frame.args
        st = self._state[ep.node.nid]
        if ep.node.nid != 0:
            raise RuntimeStateError("barrier arrivals must target node 0")
        if epoch != st.barrier_epoch:
            raise RuntimeStateError(
                f"barrier epoch skew: arrival for {epoch}, node 0 at {st.barrier_epoch}"
            )
        st.barrier_arrived += 1
        # node 0 itself counts too (flagged by SCProcess.barrier)
        if st.barrier_arrived == self._nprocs:
            yield from self._release_barrier(ep)

    def _release_barrier(self, ep: AMEndpoint):
        """The last arrival on node 0 ends the epoch and sends every
        other node its release."""
        st = self._state[0]
        epoch = st.barrier_epoch
        st.barrier_arrived = 0
        st.barrier_epoch += 1
        st.barrier_released = epoch + 1
        for nid in range(1, self._nprocs):
            yield from ep.send_short(
                nid, "sc.barrier_go", args=(epoch,), nbytes=_BARRIER_BYTES
            )

    def _h_barrier_go(self, ep: AMEndpoint, src: int, frame: AMFrame):
        (epoch,) = frame.args
        st = self._state[ep.node.nid]
        st.barrier_released = max(st.barrier_released, epoch + 1)
        yield self._chg_sync

    # --------------------------------------------------------------- running

    def run_spmd(
        self,
        program: Callable[..., Generator[Any, Any, Any]],
        *args: Any,
        name: str = "splitc",
    ) -> list[Any]:
        """Launch ``program(proc, *args)`` on every node and run to
        completion; returns the per-node return values in node order."""
        threads = [
            self.cluster.launch(
                nid, program(self._procs[nid], *args), f"{name}@{nid}"
            )
            for nid in range(self.nprocs)
        ]
        self.cluster.run()
        return [t.result for t in threads]
