"""The RMI engine: initiator-side invoke, callee-side dispatch, replies.

Protocol (all over :mod:`repro.am`):

``cc.rmi``
    request.  Warm: carries the compact stub id (and deposits its payload
    straight into the method's persistent R-buffer).  Cold: carries the
    full method name; the callee resolves it, allocates an R-buffer, pays
    the static-area copy, and sends ``cc.stub_update`` back.
    Requests with marshalled arguments ride the **bulk** path (the 15 µs
    the paper sees on 1-Word/2-Word); zero-argument requests stay short.
``cc.reply``
    marshalled return value; short if small, bulk otherwise.  A bulk
    reply pays the double copy at the initiator (static area → R-buffer →
    object) — the BulkRead asymmetry of Table 4.
``cc.stub_update``
    back-fills the initiator's stub cache.
``cc.gp_read`` / ``cc.gp_write`` / ``cc.gp_val`` / ``cc.gp_ack``
    the optimized small-message path for simple-type accesses through
    data global pointers (GP R/W in Table 4).

Thread-safety: the stub table, reply-slot table, communication port and
buffer pool are guarded by real locks, and a parked initiator waits on a
real condition variable — the (mostly uncontended) sync operations these
generate are exactly what the paper's Sync column counts.
"""

from __future__ import annotations

import enum
import sys
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.am import AMEndpoint, AMFrame
from repro.am.frames import BULK_HEADER_BYTES, SHORT_HEADER_BYTES
from repro.ccpp.gp import DataGlobalPtr, ObjectGlobalPtr
from repro.ccpp.names import MethodName
from repro.ccpp.stubs import CacheEntry
from repro.errors import (
    DeadlineExceededError,
    NodeUnreachableError,
    RemoteInvocationError,
    RuntimeStateError,
    SimulationError,
)
from repro.marshal import Marshallable, marshal_args, unmarshal_args
from repro.obs.metrics import MetricNames
from repro.sim.account import Category, CounterNames
from repro.sim.effects import Charge
from repro.threads.api import spawn
from repro.threads.sync import Condition, Lock
from repro.threads.thread import UThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.ccpp.runtime import CCppRuntime

__all__ = ["RMIEngine", "WaitMode", "RMIBox"]

_RMI_CONTROL_BYTES = 24       # slot + stub/obj ids + flags
_REPLY_CONTROL_BYTES = 12     # slot + status
_STUB_UPDATE_BYTES = 24       # stub id + rbuf id (+ name hash)
_GP_REQ_BYTES = 24
_GP_VAL_BYTES = 16
#: marshalled payloads up to this many bytes ride the short path
_SHORT_PAYLOAD_LIMIT = 16


def _build_marshal_plan(rc: Any, types: tuple[type, ...]) -> tuple[float, tuple]:
    """Classify an argument-type tuple for :meth:`RMIEngine._marshal_charge`.

    Returns ``(fixed_us, simple_spec)``: the fixed portion of the charge
    (accumulated in argument order, matching the pre-plan isinstance
    chain add-for-add) and, for each simple-array argument, its index and
    whether its byte count comes from ``.nbytes`` (ndarray) or ``len``.
    NumPy is looked up, not imported: while it is not loaded, no argument
    can be an ndarray.
    """
    np = sys.modules.get("numpy")
    fixed = rc.marshal_fixed
    simple: list[tuple[int, bool]] = []
    for i, tp in enumerate(types):
        if np is not None and issubclass(tp, np.ndarray):
            fixed += rc.marshal_simple_array_fixed
            simple.append((i, True))
        elif issubclass(tp, (bytes, bytearray)):
            fixed += rc.marshal_simple_array_fixed
            simple.append((i, False))
        elif issubclass(tp, (Marshallable, list, tuple, dict)):
            fixed += rc.marshal_array_fixed
        else:
            fixed += rc.marshal_per_arg
    return fixed, tuple(simple)


class WaitMode(enum.Enum):
    """How the initiating thread waits for the reply."""

    SPIN = "spin"   # poll inline, no thread switch (Table 4 'Simple')
    PARK = "park"   # block on a condition; the polling thread services


@dataclass(slots=True)
class RMIBox:
    """Initiator-side completion record for one outstanding RMI.

    ``status`` is ``"ok"``/``"err"`` for a normal reply, ``"deadline"``
    when the per-call deadline expired first, and ``"unreachable"`` when
    the failure detector declared the target dead mid-call — the latter
    two mean the slot was *abandoned* and any late reply is dropped.
    """

    mode: WaitMode
    done: bool = False
    status: str = "ok"
    payload: bytes | bytearray | memoryview = b""
    value: Any = None          # for the GP fast path (no marshalling)
    via_bulk: bool = False
    lock: Lock | None = None
    cond: Condition | None = None
    #: remote node the call targets (for membership-driven aborts)
    target: int = -1


class _Charges:
    """Precomputed :class:`Charge` effects for the fixed per-call costs.

    Built once per engine: every node of a cluster shares its cost model,
    Charge is immutable, and one instance per cost point serves every RMI
    on every node, keeping the warm path allocation-free."""

    __slots__ = (
        "stub_lookup", "reply_handling", "rmi_dispatch", "name_resolve",
        "stub_install", "gp_local", "gp_read_req", "gp_write_req",
        "gp_read_reply", "gp_thread",
    )

    def __init__(self, rc: Any):
        R = Category.RUNTIME
        self.stub_lookup = Charge(rc.stub_lookup, R)
        self.reply_handling = Charge(rc.reply_handling, R)
        self.rmi_dispatch = Charge(rc.rmi_dispatch, R)
        self.name_resolve = Charge(rc.name_resolve, R)
        self.stub_install = Charge(rc.stub_install, R)
        self.gp_local = Charge(rc.gp_local_access, R)
        self.gp_read_req = Charge(
            rc.gp_remote_overhead + rc.marshal_fixed + 2 * rc.marshal_per_arg, R
        )
        self.gp_write_req = Charge(
            rc.gp_remote_overhead + rc.marshal_fixed + 3 * rc.marshal_per_arg, R
        )
        self.gp_read_reply = Charge(
            rc.reply_handling + rc.marshal_fixed + rc.marshal_per_arg, R
        )
        self.gp_thread = Charge(
            rc.rmi_dispatch + rc.gp_remote_overhead + rc.gp_local_access, R
        )


@dataclass(slots=True)
class _NodeRMIState:
    """Per-node engine state."""

    slots: dict[int, RMIBox] = field(default_factory=dict)
    next_slot: int = 0
    slot_lock: Lock | None = None
    comm_lock: Lock | None = None
    #: recycled (Lock, Condition) pairs for PARK-mode reply boxes
    box_pool: list = field(default_factory=list)
    #: slots retired by deadline/unreachable abandonment whose reply (if
    #: it ever lands) must be dropped instead of faulting the node
    abandoned: set = field(default_factory=set)


class RMIEngine:
    """Shared engine over all nodes of one runtime."""

    def __init__(self, rt: "CCppRuntime"):
        self.rt = rt
        #: per-node membership views once a failure detector is attached
        self._memberships: Any = None
        # observability: pre-resolved latency histogram / span recorder,
        # or None (the default) — invoke() pays one is-None test each
        cluster = rt.cluster
        metrics = getattr(cluster, "metrics", None)
        self._hist_latency = (
            None if metrics is None else metrics.histogram(MetricNames.RMI_LATENCY)
        )
        tracer = getattr(cluster, "tracer", None)
        self._spans = tracer if getattr(tracer, "wants_spans", False) else None
        # per-cluster constants: every node shares the cluster's cost
        # model, so the fixed charges, the marshal-charge plans (keyed by
        # argument-type tuple) and the Charges memoized by amount (bounded;
        # see _marshal_charge) serve every node
        self._rc = cluster.costs.runtime
        self._chgs = _Charges(self._rc)
        self._mplans: dict[tuple[type, ...], tuple[float, tuple]] = {}
        self._chg_memo: dict[float, Charge] = {}
        #: the empty-argument-list marshal charge (the null-RMI fast path)
        self._chg_marshal0 = self._marshal_charge(0, ())
        self._state = [
            _NodeRMIState(
                slot_lock=Lock(node, "rmi-slots"),
                comm_lock=Lock(node, "comm-port"),
            )
            for node in cluster.nodes
        ]
        handlers = {
            "cc.rmi": self._h_rmi,
            "cc.reply": self._h_reply,
            "cc.stub_update": self._h_stub_update,
            "cc.gp_read": self._h_gp_read,
            "cc.gp_write": self._h_gp_write,
            "cc.gp_val": self._h_gp_val,
            "cc.gp_ack": self._h_gp_ack,
        }
        for ep in rt.endpoints:
            ep.register_handlers(handlers)

    # ----------------------------------------------------------- marshalling

    def _marshal_charge(self, nbytes: int, args: tuple) -> Charge:
        """Marshalling cost, dependent on argument *types* (§3): plain
        double/byte arrays take the compiler-inlined memcpy path; user
        classes and generic containers pay a full dynamic dispatch to
        their serialization methods.

        The per-type classification is planned once per argument-type
        tuple (same accumulation order as the original isinstance chain,
        so the float sum is bit-identical), and Charge instances are
        memoized by amount — a monomorphic call site charges without
        allocating."""
        rc = self._rc
        types = tuple(map(type, args))
        plan = self._mplans.get(types)
        if plan is None:
            plan = _build_marshal_plan(rc, types)
            self._mplans[types] = plan
        fixed_us, simple_spec = plan
        us = fixed_us
        simple_bytes = 0
        for i, use_nbytes in simple_spec:
            a = args[i]
            simple_bytes += a.nbytes if use_nbytes else len(a)
        dynamic_bytes = nbytes - simple_bytes
        if dynamic_bytes < 0:
            dynamic_bytes = 0
        if simple_bytes:
            us += simple_bytes * rc.marshal_per_byte_simple
        if dynamic_bytes:
            us += dynamic_bytes * rc.marshal_per_byte
        memo = self._chg_memo
        chg = memo.get(us)
        if chg is None:
            chg = Charge(us, Category.RUNTIME)
            if len(memo) < 512:  # bounded: polymorphic storms can't leak
                memo[us] = chg
        return chg

    # ------------------------------------------------------------ slot table

    def _new_box(self, nid: int, mode: WaitMode) -> Generator[Any, Any, tuple[int, RMIBox]]:
        st = self._state[nid]
        assert st.slot_lock is not None
        yield from st.slot_lock.acquire()
        slot = st.next_slot
        st.next_slot += 1
        box = RMIBox(mode=mode)
        if mode is WaitMode.PARK:
            pool = st.box_pool
            if pool:
                # lock/cond pairs are recycled once a reply wait fully
                # drains them (unowned, no waiters) — see invoke()
                box.lock, box.cond = pool.pop()
            else:
                node = self.rt.cluster.nodes[nid]
                box.lock = Lock(node, "rmi-box")
                box.cond = Condition(box.lock)
        st.slots[slot] = box
        yield from st.slot_lock.release()
        return slot, box

    def _pop_box(self, nid: int, slot: int) -> Generator[Any, Any, RMIBox | None]:
        """Claim the reply slot; ``None`` for a late reply to an abandoned
        call (deadline expiry or unreachable-peer abort got there first)."""
        st = self._state[nid]
        assert st.slot_lock is not None
        yield from st.slot_lock.acquire()
        try:
            box = st.slots.pop(slot, None)
            if box is None:
                if slot not in st.abandoned:
                    raise RuntimeStateError(
                        f"node {nid}: reply for unknown RMI slot {slot}"
                    )
                st.abandoned.discard(slot)
                self.rt.cluster.nodes[nid].counters.inc(CounterNames.RMI_LATE_REPLY)
        finally:
            yield from st.slot_lock.release()
        return box

    def _expire_slot(self, node: Any, slot: int, status: str) -> None:
        """Abandon an outstanding call (event context: a deadline timer or
        a membership listener).  The slot is retired so a late reply is
        dropped, and the initiator is woken with ``box.status`` set —
        through a tiny completer thread for PARK mode, so the lock/cond
        pair is drained exactly like a normal completion and can be
        recycled safely."""
        st = self._state[node.nid]
        box = st.slots.pop(slot, None)
        if box is None or box.done:
            return  # reply won the race; nothing to abandon
        st.abandoned.add(slot)
        box.status = status
        if status == "deadline":
            node.counters.inc(CounterNames.RMI_DEADLINE)
        sched = node.scheduler
        if box.mode is WaitMode.SPIN:
            box.done = True
            if sched is not None:
                # a spinner asleep in WAIT_INBOX must recheck box.done
                sched.wake_all_inbox_waiters()
            return
        assert sched is not None
        sched.make_thread(
            self._complete_box(None, box), f"rmi-abandon-{slot}", daemon=True
        )

    # --------------------------------------------------- failure integration

    def attach_failure_detector(self, fd: Any) -> None:
        """Bind a :class:`~repro.ft.detector.FailureDetector`: an RMI to a
        peer already declared dead fails fast with
        :class:`~repro.errors.NodeUnreachableError`, and outstanding calls
        to a peer declared dead mid-flight are aborted instead of waiting
        on a reply that cannot come."""
        self._memberships = fd.memberships
        for node in self.rt.cluster.nodes:
            fd.memberships[node.nid].on_change(self._on_peer_dead)

    def _on_peer_dead(self, membership: Any, peer: int) -> None:
        node = self.rt.cluster.nodes[membership.nid]
        st = self._state[membership.nid]
        for slot, box in sorted(st.slots.items()):
            if box.target == peer:
                self._expire_slot(node, slot, "unreachable")

    def _check_alive(self, nid: int, target: int, op: str) -> None:
        ms = self._memberships
        if ms is not None and not ms[nid].is_alive(target):
            raise NodeUnreachableError(
                f"node {nid}: {op} targets node {target}, which this node "
                "has declared dead",
                src=nid, dst=target,
            )

    def _raise_abandoned(self, box: RMIBox, nid: int, op: str,
                         deadline_us: float | None) -> None:
        """Map an abandoned box's status to its exception (no-op for
        normal replies)."""
        if box.status == "deadline":
            raise DeadlineExceededError(
                f"node {nid}: {op} to node {box.target} abandoned after "
                f"its {deadline_us:.0f} us deadline",
                node=box.target, op=op,
                deadline_us=deadline_us if deadline_us is not None else 0.0,
            )
        if box.status == "unreachable":
            raise NodeUnreachableError(
                f"node {nid}: {op} to node {box.target} aborted — the peer "
                "was declared dead while the call was in flight",
                src=nid, dst=box.target,
            )

    # -------------------------------------------------------------- initiator

    def invoke(
        self,
        ctx: Any,
        gptr: ObjectGlobalPtr,
        method: str,
        args: tuple[Any, ...] = (),
        *,
        wait: WaitMode = WaitMode.PARK,
        deadline_us: float | None = None,
    ) -> Generator[Any, Any, Any]:
        """Call ``method`` on the remote object; returns its result.

        The full path the paper costs out: stub-cache probe (3 µs),
        argument marshalling, request transmission (short or bulk), wait
        (spin or park), reply unmarshalling.

        ``deadline_us`` bounds the whole call in virtual time: if no
        reply lands within the budget the slot is abandoned and
        :class:`~repro.errors.DeadlineExceededError` raised instead of
        waiting forever.  ``None`` (the default) keeps the original
        unbounded — and byte-identical — behavior.
        """
        node = ctx.node
        if deadline_us is not None and deadline_us <= 0:
            raise SimulationError(f"RMI deadline must be > 0 us, got {deadline_us}")
        self._check_alive(node.nid, gptr.node, "rmi")
        ep: AMEndpoint = ctx.ep
        rc = node.costs.runtime
        name = MethodName.of(gptr.cls, method) if gptr.cls else method
        st = self._state[node.nid]

        # passive observability (both None by default): end-to-end latency
        # histogram plus a nested span tree for the trace view
        sp = self._spans
        hist = self._hist_latency
        t0 = node.sim._now if (sp is not None or hist is not None) else 0.0
        sid = sp.begin(t0, node.nid, "rmi.invoke", name) if sp is not None else -1

        # 1. stub cache probe, under the table lock
        entry = yield from self._probe_stub(node.nid, gptr.node, name)

        # 2. marshal arguments into the S-buffer (leased from the node's
        # buffer pool; the payload travels as a zero-copy view of it)
        msid = (
            sp.begin(node.sim._now, node.nid, "rmi.marshal", parent=sid)
            if sp is not None
            else -1
        )
        pool = node.marshal_pool
        payload, nargs = marshal_args(args, pool=pool)
        if args:
            yield self._marshal_charge(len(payload), args)
        else:
            yield self._chg_marshal0
        if sp is not None:
            sp.end(msid, node.sim._now)

        # 3. completion record; the deadline timer is armed *before*
        # transmission so a credit stall on a sick peer is also bounded
        slot, box = yield from self._new_box(node.nid, wait)
        box.target = gptr.node
        deadline_evt = (
            node.sim.schedule_event(
                deadline_us, lambda: self._expire_slot(node, slot, "deadline")
            )
            if deadline_us is not None
            else None
        )

        # 4. transmit
        yield from self._transmit(node, ep, gptr, name, entry, slot, payload, nargs)

        # 5. wait for the reply
        wsid = (
            sp.begin(node.sim._now, node.nid, "rmi.wait", parent=sid)
            if sp is not None
            else -1
        )
        yield from self._await_box(ep, box)
        if deadline_evt is not None:
            deadline_evt.cancel()
        if sp is not None:
            sp.end(wsid, node.sim._now)
        if box.lock is not None:
            # drained: completer signalled and released, waiter reacquired
            # and released — nothing references the pair any more
            st.box_pool.append((box.lock, box.cond))
        if box.status in ("deadline", "unreachable"):
            if sp is not None:
                sp.end(sid, node.sim._now)
            self._raise_abandoned(box, node.nid, "rmi", deadline_us)

        # 6. unpack the result
        yield self._chgs.reply_handling
        # the payload may be a zero-copy view that unmarshalling recycles;
        # take its length first (len() on a released view raises)
        plen = len(box.payload)
        if box.status != "ok":
            (detail,) = unmarshal_args(box.payload, pool=pool)
            raise RemoteInvocationError(name, gptr.node, str(detail))
        if box.via_bulk:
            # static area -> R-buffer -> CC++ object: the double copy the
            # paper blames for BulkRead > BulkWrite (mostly fixed buffer
            # management, plus the actual memcpy per byte)
            yield Charge(
                rc.bulk_reply_fixed + 2.0 * rc.copy_per_byte * plen,
                Category.RUNTIME,
            )
        (result,) = unmarshal_args(box.payload, pool=pool)
        yield self._marshal_charge(plen, (result,))
        if hist is not None:
            hist.record(node.sim._now - t0)
        if sp is not None:
            sp.end(sid, node.sim._now)
        return result

    def invoke_async(
        self,
        ctx: Any,
        gptr: ObjectGlobalPtr,
        method: str,
        args: tuple[Any, ...] = (),
    ) -> Generator[Any, Any, None]:
        """One-sided RMI: transfer the data, run the method on its own
        thread at the callee, send no reply (§1's one-sided RPC).
        Completion must be observed through application-level
        synchronization (sync variables, counters) — as in CC++."""
        node = ctx.node
        self._check_alive(node.nid, gptr.node, "rmi_async")
        name = MethodName.of(gptr.cls, method) if gptr.cls else method
        entry = yield from self._probe_stub(node.nid, gptr.node, name)
        payload, nargs = marshal_args(args, pool=node.marshal_pool)
        yield self._marshal_charge(len(payload), args)
        yield from self._transmit(node, ctx.ep, gptr, name, entry, None, payload, nargs)

    def _probe_stub(
        self, nid: int, target: int, name: str
    ) -> Generator[Any, Any, CacheEntry | None]:
        """The stub-cache entry for ``name`` at ``target`` (None: a cold
        call), probed under the table lock."""
        stubs = self.rt.stub_tables[nid]
        yield from stubs.lock.acquire()
        yield self._chgs.stub_lookup
        entry = stubs.probe(target, name) if self.rt.stub_caching else None
        yield from stubs.lock.release()
        return entry

    def _transmit(
        self, node: Any, ep: AMEndpoint, gptr: ObjectGlobalPtr, name: str,
        entry: CacheEntry | None, slot: int | None, payload: Any, nargs: int,
    ) -> Generator[Any, Any, None]:
        """Send one ``cc.rmi`` request through the node's communication
        port: warm calls carry the stub id, cold ones the full name; a
        request with marshalled arguments rides the bulk path into the
        persistent R-buffer (or the static area when cold).  ``slot`` is
        None for a one-sided call, which gets no reply."""
        if entry is None:
            node.counters.inc(CounterNames.RMI_COLD)
            control: tuple[Any, ...] = (slot, True, name, gptr.obj_id, None)
            control_bytes = _RMI_CONTROL_BYTES + len(name)
        else:
            node.counters.inc(CounterNames.RMI_WARM)
            control = (slot, False, entry.stub_id, gptr.obj_id, entry.rbuf_id)
            control_bytes = _RMI_CONTROL_BYTES
        comm_lock = self._state[node.nid].comm_lock
        assert comm_lock is not None
        yield from comm_lock.acquire()
        if nargs == 0:
            yield from ep.send_short(
                gptr.node, "cc.rmi", args=control, data=payload,
                nbytes=SHORT_HEADER_BYTES + control_bytes + len(payload),
            )
        else:
            yield from ep.send_bulk(
                gptr.node, "cc.rmi", args=control, data=payload,
                nbytes=BULK_HEADER_BYTES + control_bytes + len(payload),
            )
        yield from comm_lock.release()

    def _await_box(self, ep: AMEndpoint, box: RMIBox) -> Generator[Any, Any, None]:
        if box.mode is WaitMode.SPIN:
            yield from ep.poll_until_done(box)
            return
        assert box.lock is not None and box.cond is not None
        yield from box.lock.acquire()
        while not box.done:
            yield from box.cond.wait()
        yield from box.lock.release()

    def _complete_box(self, ep: AMEndpoint, box: RMIBox) -> Generator[Any, Any, None]:
        """Mark done and wake the initiator (runs in the polling thread)."""
        if box.mode is WaitMode.SPIN:
            box.done = True
            return
        assert box.lock is not None and box.cond is not None
        yield from box.lock.acquire()
        box.done = True
        yield from box.cond.signal()
        yield from box.lock.release()

    # ------------------------------------------------------------ the callee

    def _h_rmi(self, ep: AMEndpoint, src: int, frame: AMFrame):
        node = ep.node
        rc = node.costs.runtime
        slot, cold, key, obj_id, rbuf_id = frame.args
        payload = frame.data
        sp = self._spans
        sid = (
            sp.begin(node.sim._now, node.nid, "rmi.dispatch", str(key))
            if sp is not None
            else -1
        )
        yield self._chgs.rmi_dispatch

        stubs = self.rt.stub_tables[node.nid]
        bufs = self.rt.buffer_managers[node.nid]

        if cold or not self.rt.stub_caching:
            # name-based resolution + stub-update back to the initiator
            yield self._chgs.name_resolve
            stub = stubs.resolve_name(key)
            rbuf = None
            if payload:
                # data landed in the static area; copy into a fresh
                # persistent R-buffer
                yield from bufs.lock.acquire()
                yield Charge(rc.buffer_alloc, Category.RUNTIME)
                rbuf = bufs.alloc_rbuf(stub.name, src, len(payload))
                yield from bufs.lock.release()
                yield Charge(rc.copy_per_byte * len(payload), Category.RUNTIME)
                rbuf.data[:] = payload
                node.counters.inc(CounterNames.RBUF_ALLOC)
            if self.rt.stub_caching:
                yield from ep.send_short(
                    src,
                    "cc.stub_update",
                    args=(node.nid, key, stub.stub_id, rbuf.rbuf_id if rbuf else None),
                    nbytes=_STUB_UPDATE_BYTES + len(key),
                )
        else:
            stub = stubs.by_id(key)
            if payload and rbuf_id is not None and self.rt.persistent_buffers:
                # warm path: sender-managed deposit, no extra copy
                yield from bufs.lock.acquire()
                bufs.deposit(rbuf_id, payload)
                yield from bufs.lock.release()
                node.counters.inc(CounterNames.RBUF_REUSE)
            elif payload:
                # persistent buffers disabled (ablation): pay the copy
                # through the static area every time
                yield Charge(rc.buffer_alloc + rc.copy_per_byte * len(payload), Category.RUNTIME)

        obj = self.rt.object_table(node.nid).get(obj_id)

        if stub.threaded or stub.atomic:
            body = self._method_thread(ep, src, slot, stub, obj, payload)
            yield from spawn(node, body, f"rmi-{stub.name}", daemon=False)
        else:
            # non-threaded RMI: the stub runs directly as the AM handler
            yield from self._run_method(ep, src, slot, stub, obj, payload)
        if sp is not None:
            sp.end(sid, node.sim._now)

    def _method_thread(self, ep, src, slot, stub, obj, payload):
        """Body for threaded / atomic RMIs."""
        if stub.atomic:
            lock = self.rt.atomic_lock(obj)
            yield from lock.acquire()
            yield from self._run_method(ep, src, slot, stub, obj, payload)
            yield from lock.release()
        else:
            yield from self._run_method(ep, src, slot, stub, obj, payload)

    def _run_method(self, ep: AMEndpoint, src: int, slot: int, stub, obj, payload):
        node = ep.node
        sp = self._spans
        sid = (
            sp.begin(node.sim._now, node.nid, "rmi.method", stub.name)
            if sp is not None
            else -1
        )

        # length before unmarshalling: a zero-copy payload view is
        # released and its buffer recycled by unmarshal_args
        plen = len(payload)
        if plen:
            args = unmarshal_args(payload, pool=node.marshal_pool)
            yield self._marshal_charge(plen, args)
        else:
            args = ()
            yield self._chg_marshal0

        method_name = stub.name.rsplit("::", 1)[-1]
        fn = getattr(obj, method_name, None)
        if fn is None:
            raise RuntimeStateError(
                f"object {type(obj).__name__} on node {node.nid} has no method "
                f"{method_name!r} (stub {stub.name})"
            )
        status = "ok"
        try:
            result = fn(*args)
            if hasattr(result, "send") and hasattr(result, "throw"):  # generator body
                result = yield from result
        except RuntimeStateError:
            raise  # runtime misuse stays fatal
        except Exception as exc:  # application-level failure: ship it back
            if slot is None:
                raise  # one-sided: no reply channel, surface at the callee
            status = "err"
            result = f"{type(exc).__name__}: {exc}"

        if slot is None:
            if sp is not None:
                sp.end(sid, node.sim._now)
            return  # one-sided invocation: no reply expected

        rpayload, _ = marshal_args((result,), pool=node.marshal_pool)
        yield self._marshal_charge(len(rpayload), (result,))

        st = self._state[node.nid]
        assert st.comm_lock is not None
        yield from st.comm_lock.acquire()
        if len(rpayload) <= _SHORT_PAYLOAD_LIMIT:
            yield from ep.send_short(
                src,
                "cc.reply",
                args=(slot, status, False),
                data=rpayload,
                nbytes=SHORT_HEADER_BYTES + _REPLY_CONTROL_BYTES + len(rpayload),
            )
        else:
            yield from ep.send_bulk(
                src,
                "cc.reply",
                args=(slot, status, True),
                data=rpayload,
                nbytes=BULK_HEADER_BYTES + _REPLY_CONTROL_BYTES + len(rpayload),
            )
        yield from st.comm_lock.release()
        if sp is not None:
            sp.end(sid, node.sim._now)

    # ---------------------------------------------------------------- replies

    def _h_reply(self, ep: AMEndpoint, src: int, frame: AMFrame):
        slot, status, via_bulk = frame.args
        box = yield from self._pop_box(ep.node.nid, slot)
        if box is None:
            return  # late reply to an abandoned call: dropped
        box.status = status
        box.payload = frame.data
        box.via_bulk = via_bulk
        yield from self._complete_box(ep, box)

    def _h_stub_update(self, ep: AMEndpoint, src: int, frame: AMFrame):
        remote_node, name, stub_id, rbuf_id = frame.args
        node = ep.node
        stubs = self.rt.stub_tables[node.nid]
        yield from stubs.lock.acquire()
        yield self._chgs.stub_install
        stubs.install(remote_node, name, CacheEntry(stub_id=stub_id, rbuf_id=rbuf_id))
        yield from stubs.lock.release()

    # --------------------------------------------------- GP read/write path

    def gp_read(
        self, ctx: Any, gp: DataGlobalPtr, *, wait: WaitMode = WaitMode.PARK
    ) -> Generator[Any, Any, float]:
        """``lx = *gpY``: optimized small-message access (Table 4 GP Read).

        A local dereference still pays the CC++ global-pointer overhead —
        the cause of em3d-base's gap at low remote fractions."""
        node = ctx.node
        st = self._state[node.nid]
        chgs = self._chgs
        if gp.node == node.nid:
            yield chgs.gp_local
            return ctx.mem.load_gp(gp.region, gp.offset)
        self._check_alive(node.nid, gp.node, "gp_read")
        yield chgs.stub_lookup
        # value-semantics request build (2-word address + result slot)
        yield chgs.gp_read_req
        slot, box = yield from self._new_box(node.nid, wait)
        box.target = gp.node
        yield from st.comm_lock.acquire()
        yield from ctx.ep.send_short(
            gp.node, "cc.gp_read", args=(slot, gp.region, gp.offset), nbytes=_GP_REQ_BYTES
        )
        yield from st.comm_lock.release()
        yield from self._await_box(ctx.ep, box)
        if box.status != "ok":
            self._raise_abandoned(box, node.nid, "gp_read", None)
        yield chgs.gp_read_reply
        return box.value

    def gp_write(
        self, ctx: Any, gp: DataGlobalPtr, value: float, *, wait: WaitMode = WaitMode.PARK
    ) -> Generator[Any, Any, None]:
        """``*gpY = lx`` (Table 4 GP Write)."""
        node = ctx.node
        st = self._state[node.nid]
        chgs = self._chgs
        if gp.node == node.nid:
            yield chgs.gp_local
            ctx.mem.store_gp(gp.region, gp.offset, value)
            return
        self._check_alive(node.nid, gp.node, "gp_write")
        yield chgs.stub_lookup
        yield chgs.gp_write_req
        slot, box = yield from self._new_box(node.nid, wait)
        box.target = gp.node
        yield from st.comm_lock.acquire()
        yield from ctx.ep.send_short(
            gp.node,
            "cc.gp_write",
            args=(slot, gp.region, gp.offset, value),
            nbytes=_GP_REQ_BYTES + 8,
        )
        yield from st.comm_lock.release()
        yield from self._await_box(ctx.ep, box)
        if box.status != "ok":
            self._raise_abandoned(box, node.nid, "gp_write", None)
        yield chgs.reply_handling

    def _h_gp_read(self, ep: AMEndpoint, src: int, frame: AMFrame):
        slot, region, offset = frame.args
        node = ep.node
        # the dereference may touch shared object state, so it runs on a
        # fresh thread like any RMI (Table 4 shows Create = 1 for GP R/W)
        body = self._gp_read_thread(ep, src, slot, region, offset)
        yield from spawn(node, body, "gp-read")

    def _gp_read_thread(self, ep, src, slot, region, offset):
        node = ep.node
        yield self._chgs.gp_thread
        value = self.rt.cc_memory(node.nid).load_gp(region, offset)
        st = self._state[node.nid]
        yield from st.comm_lock.acquire()
        yield from ep.send_short(src, "cc.gp_val", args=(slot, value), nbytes=_GP_VAL_BYTES)
        yield from st.comm_lock.release()

    def _h_gp_write(self, ep: AMEndpoint, src: int, frame: AMFrame):
        slot, region, offset, value = frame.args
        body = self._gp_write_thread(ep, src, slot, region, offset, value)
        yield from spawn(ep.node, body, "gp-write")

    def _gp_write_thread(self, ep, src, slot, region, offset, value):
        node = ep.node
        yield self._chgs.gp_thread
        self.rt.cc_memory(node.nid).store_gp(region, offset, value)
        st = self._state[node.nid]
        yield from st.comm_lock.acquire()
        yield from ep.send_short(src, "cc.gp_ack", args=(slot,), nbytes=_GP_VAL_BYTES - 8)
        yield from st.comm_lock.release()

    def _h_gp_val(self, ep: AMEndpoint, src: int, frame: AMFrame):
        slot, value = frame.args
        box = yield from self._pop_box(ep.node.nid, slot)
        if box is None:
            return
        box.value = value
        yield from self._complete_box(ep, box)

    def _h_gp_ack(self, ep: AMEndpoint, src: int, frame: AMFrame):
        (slot,) = frame.args
        box = yield from self._pop_box(ep.node.nid, slot)
        if box is None:
            return
        yield from self._complete_box(ep, box)
