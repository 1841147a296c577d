"""The AM endpoint: sends, polls, and handler dispatch.

Cost accounting (all NET category, from the node's
:class:`~repro.machine.costs.NetworkCosts`):

* ``send_short`` charges ``short_send_cpu`` on the sender; the wire adds
  ``wire_latency + nbytes * per_byte``; servicing the message charges
  ``poll_hit_cpu + short_recv_cpu`` on the receiver at poll time.
  Round trip for a minimal request/reply pair ≈ 53–55 µs — Table 4's AM
  column.
* ``send_bulk`` additionally charges ``bulk_setup_cpu`` (sender) and
  ``bulk_recv_cpu`` (receiver) and rides the cheaper per-byte DMA path;
  a 40-word round trip ≈ 70 µs.
* every send is followed by a **poll** of the sender's own inbox (the
  paper's poll-on-send discipline), except when already inside a handler.

Two further mechanisms of the real SP AM layer are modeled:

* **credit-based flow control** — each (sender, destination) channel has
  ``credit_window`` credits; a sender out of credits spin-polls (thereby
  servicing its own inbox — no deadlock) until the receiver's refill
  message restores half a window.  Handler-issued replies are exempt
  (the request/reply protocol pre-reserves their slots).
* **interrupt-driven reception** (``reception="interrupt"``) — instead of
  poll-on-send, each serviced message pays the software-interrupt cost
  ``interrupt_cpu``; this is the alternative the paper rejects as too
  expensive on the SP, kept here so the choice can be measured.

Reliable delivery
-----------------

``install_am(cluster, reliable=True)`` inserts a **reliability sublayer**
below the poll discipline, the way the SP's AM implementation sat on a
reliable transport.  Every packet on a (sender, destination) channel gets
a sequence number; the receiver acknowledges cumulatively (a standalone
ack per accepted packet, plus a piggybacked ``ack`` field on every
reverse-direction data packet); the sender keeps a retransmit queue with
a timeout, exponential backoff, and capped retries
(:class:`RetryPolicy`); duplicates and stale retransmissions are
suppressed by sequence number and out-of-order arrivals are held until
their gap fills, so the inbox the poll loop sees is exactly the ordered,
exactly-once stream the unreliable fabric used to guarantee for free.

The sublayer runs at *delivery* time (no poll needed to ack or to cancel
a retransmit timer — protocol control traffic is NIC-level, not
thread-level), and its CPU is accounted under NET without occupying the
node's thread, so the reliability overhead shows up in the Figure 5/6
breakdowns.  With ``reliable=False`` (the default) none of this machinery
exists on the path and runs are bit-identical to the original layer.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from repro.am.frames import BULK_HEADER_BYTES, SHORT_HEADER_BYTES, AMFrame
from repro.errors import (
    NodeUnreachableError,
    RetryExhaustedError,
    RuntimeStateError,
    SimulationError,
)
from repro.machine.network import Network, Packet
from repro.obs.metrics import MetricNames
from repro.sim.account import Category, CounterNames
from repro.sim.effects import WAIT_INBOX, Charge

__all__ = ["AMEndpoint", "RetryPolicy", "install_am"]

#: handler signature: (endpoint, src_node_id, frame) -> generator
Handler = Callable[["AMEndpoint", int, AMFrame], Generator[Any, Any, Any]]

KIND_SHORT = "am.short"
KIND_BULK = "am.bulk"
KIND_CREDIT = "am.credit"
KIND_ACK = "am.ack"
_CREDIT_BYTES = 12
_ACK_BYTES = 12


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Retransmission schedule of the reliable-delivery sublayer.

    ``max_retries=0`` disables retransmission entirely (sequencing, acks
    and duplicate suppression stay active) — useful to demonstrate that a
    lost packet then deadlocks the protocol, which the stall watchdog
    turns into a :class:`~repro.errors.DeadlockError`.
    """

    timeout_us: float = 500.0     # first retransmit after this long unacked
    backoff: float = 2.0          # multiplier per successive timeout
    max_timeout_us: float = 8000.0  # backoff cap
    max_retries: int = 10         # per-channel, reset on any ack progress

    def validate(self) -> "RetryPolicy":
        if self.timeout_us <= 0:
            raise SimulationError("RetryPolicy.timeout_us must be > 0")
        if self.backoff < 1.0:
            raise SimulationError("RetryPolicy.backoff must be >= 1")
        if self.max_timeout_us < self.timeout_us:
            raise SimulationError("RetryPolicy.max_timeout_us < timeout_us")
        if self.max_retries < 0:
            raise SimulationError("RetryPolicy.max_retries must be >= 0")
        return self


#: the policy of every endpoint installed without one (frozen, so one
#: instance serves every node of every cluster)
_DEFAULT_RETRY = RetryPolicy()


class _AMCharges:
    """The fixed per-message charges of one cost model and reception mode.

    :func:`install_am` builds one set per cluster (all its nodes share one
    ``CostModel``) and hands it to every endpoint.  Charge is immutable
    and the trampoline only reads it, so one instance per cost point
    serves every message on every node.
    """

    __slots__ = (
        "send_short", "send_bulk", "poll_empty", "hit_credit", "hit_short",
        "hit_bulk",
    )

    def __init__(self, net: Any, reception: str):
        irq = net.interrupt_cpu if reception == "interrupt" else 0.0
        self.send_short = Charge(net.short_send_cpu, Category.NET)
        self.send_bulk = Charge(net.short_send_cpu + net.bulk_setup_cpu, Category.NET)
        self.poll_empty = Charge(net.poll_empty_cpu, Category.NET)
        self.hit_credit = Charge(net.poll_hit_cpu, Category.NET)
        self.hit_short = Charge(
            net.poll_hit_cpu + net.short_recv_cpu + irq, Category.NET
        )
        self.hit_bulk = Charge(net.poll_hit_cpu + net.bulk_recv_cpu + irq, Category.NET)


class AMEndpoint:
    """Per-node AM interface.  Obtain via :func:`install_am`."""

    SERVICE = "am"

    def __init__(
        self,
        node: Any,
        network: Network,
        charges: _AMCharges,
        *,
        reception: str = "polling",
        reliable: bool = False,
        retry: RetryPolicy | None = None,
    ):
        if reception not in ("polling", "interrupt"):
            raise RuntimeStateError(f"unknown reception mode {reception!r}")
        if "msg-layer" in node.services:
            raise RuntimeStateError(
                f"node {node.nid} already has messaging layer "
                f"{type(node.services['msg-layer']).__name__}; exactly one "
                "layer may own the inbox (install_am is not idempotent)"
            )
        self.node = node
        self.network = network
        self.reception = reception
        self.reliable = reliable
        self.retry = (retry if retry is not None else _DEFAULT_RETRY).validate()
        self._handlers: dict[str, Handler] = {}
        self._in_handler = False
        #: flow control: remaining send credits per destination, and how
        #: many messages we have consumed per source since the last refill
        self._credits: dict[int, int] = {}
        self._consumed: dict[int, int] = {}
        #: some source has reached half a window consumed: a refill is owed
        self._refill_due = False
        # ---- reliability sublayer state (unused when reliable=False) ----
        #: next sequence number per destination channel
        self._send_seq: dict[int, int] = {}
        #: per destination: seq -> (kind, payload, nbytes, bulk, first-send
        #: time) to resend
        self._unacked: dict[int, dict[int, tuple[str, Any, int, bool, float]]] = {}
        #: per destination: live retransmit timer / current rto / retries
        self._retx_timer: dict[int, Any] = {}
        self._rto: dict[int, float] = {}
        self._retries: dict[int, int] = {}
        #: failure detector consulted by the retransmit/credit paths, or
        #: None (the default — every guarded site costs one is-None test)
        self._fd: Any = None
        #: next in-order sequence number expected per source
        self._recv_next: dict[int, int] = {}
        #: out-of-order packets held back per source: seq -> packet
        self._recv_buffer: dict[int, dict[int, Packet]] = {}
        # the cluster's per-message fixed charges (see _AMCharges)
        self._chg_send_short = charges.send_short
        self._chg_send_bulk = charges.send_bulk
        self._chg_poll_empty = charges.poll_empty
        self._chg_hit_credit = charges.hit_credit
        self._chg_hit_short = charges.hit_short
        self._chg_hit_bulk = charges.hit_bulk
        # observability: pre-resolved histograms / span recorder, or None
        # (the default) — each guarded site costs one is-None test
        metrics = node.metrics
        if metrics is not None:
            self._h_service = metrics.histogram(MetricNames.AM_SERVICE)
            self._h_retx = metrics.histogram(MetricNames.RETX_DELAY)
        else:
            self._h_service = None
            self._h_retx = None
        self._spans = node._spans
        # hoisted per-send constants (the send path runs per message)
        net = node.costs.net
        self._short_max = net.short_max_bytes
        self._window = net.credit_window
        self._half_window = net.credit_window // 2
        self._polling = reception == "polling"
        node.attach(self.SERVICE, self)
        # exclusive claim on the node's inbox: exactly one messaging layer
        node.attach("msg-layer", self)
        if reliable:
            node.deliver_filter = self._on_delivery

    # ------------------------------------------------------------- handlers

    def register_handler(self, name: str, fn: Handler, *, replace: bool = False) -> None:
        """Bind ``name`` to a handler generator-function on this node."""
        if replace:
            self._handlers[name] = fn
        else:
            self.register_handlers({name: fn})

    def register_handlers(self, table: dict[str, Handler]) -> None:
        """Bind every ``name -> handler`` of ``table`` on this node.

        A runtime builds its table once and hands the same dict to every
        endpoint; each endpoint copies it into its own, so a later
        :meth:`register_handler` on one node does not reach the others.
        """
        handlers = self._handlers
        if not handlers.keys().isdisjoint(table):
            name = next(n for n in table if n in handlers)
            raise RuntimeStateError(f"AM handler {name!r} already registered on node {self.node.nid}")
        handlers.update(table)

    # ----------------------------------------------------------------- sends

    def send_short(
        self,
        dst: int,
        handler: str,
        args: tuple[Any, ...] = (),
        data: bytes | bytearray | memoryview = b"",
        *,
        nbytes: int | None = None,
    ) -> Generator[Any, Any, None]:
        """Send a short active message (request or reply; AM does not
        distinguish at this layer).  Polls own inbox afterwards."""
        frame = AMFrame(handler, args, data)
        size = nbytes if nbytes is not None else SHORT_HEADER_BYTES + frame.payload_bytes()
        if size > self._short_max:
            raise RuntimeStateError(
                f"short AM of {size} bytes exceeds the "
                f"{self._short_max}-byte short frame; "
                "use send_bulk for large payloads"
            )
        # inlined _acquire_credit fast path: one dict probe per warm send
        node = self.node
        in_handler = self._in_handler
        if dst != node.nid and not in_handler:
            credits = self._credits
            c = credits.get(dst)
            if c is None:
                c = self._window
            if c > 0:
                credits[dst] = c - 1
            else:
                yield from self._acquire_credit(dst)
        node.counters.counts[CounterNames.MSG_SHORT] += 1
        yield self._chg_send_short
        self._inject(dst, KIND_SHORT, frame, size)
        # The paper's discipline: reception is based on polling that occurs
        # on a node every time a message is sent.  Handlers themselves must
        # not poll (classic AM restriction), hence the guard.  In interrupt
        # mode there is no poll-on-send at all.
        if self._polling and not in_handler:
            yield from self.poll()

    def send_bulk(
        self,
        dst: int,
        handler: str,
        args: tuple[Any, ...] = (),
        data: bytes | bytearray | memoryview = b"",
        *,
        nbytes: int | None = None,
    ) -> Generator[Any, Any, None]:
        """Send a bulk transfer; the handler runs at the receiver once the
        full payload has landed."""
        frame = AMFrame(handler, args, data)
        size = nbytes if nbytes is not None else BULK_HEADER_BYTES + frame.payload_bytes()
        node = self.node
        in_handler = self._in_handler
        if dst != node.nid and not in_handler:
            credits = self._credits
            c = credits.get(dst)
            if c is None:
                c = self._window
            if c > 0:
                credits[dst] = c - 1
            else:
                yield from self._acquire_credit(dst)
        node.counters.counts[CounterNames.MSG_BULK] += 1
        yield self._chg_send_bulk
        self._inject(dst, KIND_BULK, frame, size, bulk=True)
        if self._polling and not in_handler:
            yield from self.poll()

    def control_send(
        self,
        dst: int,
        handler: str,
        args: tuple[Any, ...] = (),
        data: bytes | bytearray | memoryview = b"",
        *,
        nbytes: int,
        bulk: bool = False,
    ) -> None:
        """NIC-level send (event context — accounts CPU directly, never
        yields effects, never occupies a thread).

        This is how RDMA-style completion notifications and one-sided
        data replies leave a node: the NIC issues them, so they cost NET
        time on this node's account but no thread ever runs them — the
        same discipline as the reliability sublayer's :meth:`_send_ack`.
        Unlike acks they carry a real handler frame and (when reliable)
        ride the sequenced channel, so a lossy fabric retransmits them.
        Exempt from flow control, like all protocol control traffic.
        """
        net = self.node.costs.net
        cost = net.short_send_cpu + (net.bulk_setup_cpu if bulk else 0.0)
        self.node.charge(Category.NET, cost)
        self.node.counters.counts[
            CounterNames.MSG_BULK if bulk else CounterNames.MSG_SHORT
        ] += 1
        self._inject(
            dst,
            KIND_BULK if bulk else KIND_SHORT,
            AMFrame(handler, args, data),
            nbytes,
            bulk=bulk,
        )

    def _inject(
        self, dst: int, kind: str, payload: Any, nbytes: int, *, bulk: bool = False
    ) -> None:
        """Hand one message to the network, sequenced when reliable."""
        if not self.reliable:
            self.network.transmit(
                Packet(src=self.node.nid, dst=dst, kind=kind, payload=payload, nbytes=nbytes),
                bulk=bulk,
            )
            return
        seq = self._send_seq.get(dst, 0)
        self._send_seq[dst] = seq + 1
        self._unacked.setdefault(dst, {})[seq] = (
            kind, payload, nbytes, bulk, self.network.sim._now,
        )
        self._arm_timer(dst)
        self.network.transmit(
            Packet(
                src=self.node.nid, dst=dst, kind=kind, payload=payload,
                nbytes=nbytes, seq=seq, ack=self._recv_next.get(dst, 0) - 1,
            ),
            bulk=bulk,
        )

    def _acquire_credit(self, dst: int) -> Generator[Any, Any, None]:
        """Consume one flow-control credit for ``dst``, spin-polling while
        the channel window is exhausted."""
        if dst == self.node.nid:
            return  # loopback bypasses flow control
        if self._in_handler:
            return  # replies ride pre-reserved request/reply slots
        window = self.node.costs.net.credit_window
        if dst not in self._credits:
            self._credits[dst] = window
        while self._credits[dst] <= 0:
            fd = self._fd
            if fd is not None and fd.is_dead(self.node.nid, dst):
                # the refill will never come: fail the send instead of
                # spinning on a silent channel forever
                raise NodeUnreachableError(
                    f"node {self.node.nid}: send to node {dst} blocked on "
                    "credits, but the peer has been declared dead",
                    src=self.node.nid, dst=dst,
                )
            yield from self.wait_and_poll()
        self._credits[dst] -= 1

    def _refill_credits(self) -> Generator[Any, Any, None]:
        """Receiver side: after consuming half a window from a source,
        send one refill message (exempt from flow control)."""
        half = self._half_window
        refill_to = [src for src, n in self._consumed.items() if n >= half]
        for src in refill_to:
            self._consumed[src] -= half
            yield self._chg_send_short
            self._inject(src, KIND_CREDIT, half, _CREDIT_BYTES)
        self._refill_due = any(n >= half for n in self._consumed.values())

    # ------------------------------------------------- reliability sublayer

    def _on_delivery(self, pkt: Packet) -> tuple[Packet, ...] | list[Packet]:
        """Node delivery filter (event context — accounts CPU directly,
        never yields effects).  Returns the packets that enter the inbox.

        Consumes acks, suppresses duplicates, holds out-of-order packets,
        and acknowledges every sequenced arrival so the sender's
        retransmit timer can stand down without anyone polling.
        """
        if pkt.ack >= 0:
            self._on_ack(pkt.src, pkt.ack)
        if pkt.kind == KIND_ACK:
            return ()
        if pkt.seq < 0:
            return (pkt,)  # unsequenced traffic passes through untouched
        src = pkt.src
        net = self.node.costs.net
        expected = self._recv_next.get(src, 0)
        if pkt.seq < expected:
            # stale retransmission or fault-plan duplicate: drop, re-ack
            # (the sender clearly missed our earlier acknowledgment)
            self.node.charge(Category.NET, net.poll_hit_cpu)
            self.node.counters.inc(CounterNames.PKT_DUP_SUPPRESSED)
            self._send_ack(src)
            return ()
        if pkt.seq > expected:
            buf = self._recv_buffer.setdefault(src, {})
            if pkt.seq in buf:
                self.node.charge(Category.NET, net.poll_hit_cpu)
                self.node.counters.inc(CounterNames.PKT_DUP_SUPPRESSED)
            else:
                buf[pkt.seq] = pkt
            # dup-ack: repeats the cumulative ack so the sender learns
            # which sequence number the channel is actually stuck on
            self._send_ack(src)
            return ()
        accepted = [pkt]
        expected += 1
        buf = self._recv_buffer.get(src)
        if buf:
            while expected in buf:
                accepted.append(buf.pop(expected))
                expected += 1
        self._recv_next[src] = expected
        self._send_ack(src)
        return accepted

    def _send_ack(self, src: int) -> None:
        """Standalone cumulative ack back to ``src`` (NIC-level: charged
        NET, no thread time, no flow control, itself unsequenced)."""
        self.node.charge(Category.NET, self.node.costs.net.short_send_cpu)
        self.node.counters.inc(CounterNames.PKT_ACK)
        self.network.transmit(
            Packet(
                src=self.node.nid, dst=src, kind=KIND_ACK, payload=None,
                nbytes=_ACK_BYTES, ack=self._recv_next.get(src, 0) - 1,
            )
        )

    def _on_ack(self, peer: int, upto: int) -> None:
        """Cumulative ack from ``peer``: retire sequences <= ``upto``."""
        pending = self._unacked.get(peer)
        if not pending:
            return
        acked = [s for s in pending if s <= upto]
        if not acked:
            return
        for s in acked:
            del pending[s]
        # progress: reset the backoff clock for whatever is still unacked
        self._retries[peer] = 0
        self._rto[peer] = self.retry.timeout_us
        timer = self._retx_timer.pop(peer, None)
        if timer is not None:
            timer.cancel()
        if pending:
            self._arm_timer(peer)

    def _arm_timer(self, peer: int) -> None:
        if self.retry.max_retries == 0 or peer in self._retx_timer:
            return
        rto = self._rto.setdefault(peer, self.retry.timeout_us)
        self._retx_timer[peer] = self.network.sim.schedule_event(
            rto, lambda: self._on_timeout(peer)
        )

    def _on_timeout(self, peer: int) -> None:
        """Retransmit timer fired: resend the oldest unacked sequence."""
        self._retx_timer.pop(peer, None)
        pending = self._unacked.get(peer)
        if not pending:
            return
        fd = self._fd
        if fd is not None and fd.is_dead(self.node.nid, peer):
            # the detector got there first: write the channel off quietly
            self.abandon_peer(peer)
            return
        retries = self._retries.get(peer, 0) + 1
        seq = min(pending)
        if retries > self.retry.max_retries:
            if fd is not None:
                # exhaustion IS failure evidence: report it — the death
                # declaration abandons this channel via the membership
                # listener, and the program learns through its own view
                # (NodeUnreachableError on the next guarded operation)
                fd.report_unreachable(self.node.nid, peer)
                return
            first_sent = pending[seq][4]
            raise RetryExhaustedError(
                f"node {self.node.nid}: seq {seq} to node {peer} still "
                f"unacked after {self.retry.max_retries} retransmissions "
                f"(rto reached {self._rto.get(peer, 0.0):.0f} us); "
                "peer presumed dead",
                src=self.node.nid, dst=peer, seq=seq,
                retries=self.retry.max_retries,
                kind=pending[seq][0],
                elapsed_us=self.network.sim._now - first_sent,
            )
        self._retries[peer] = retries
        if self._h_retx is not None:
            # the timeout that just expired — how long the channel sat
            # unacked before this resend (backoff included)
            self._h_retx.record(self._rto.get(peer, self.retry.timeout_us))
        kind, payload, nbytes, bulk, _first = pending[seq]
        net = self.node.costs.net
        cost = net.short_send_cpu + (net.bulk_setup_cpu if bulk else 0.0)
        self.node.charge(Category.NET, cost)
        self.node.counters.inc(CounterNames.PKT_RETRANSMIT)
        self.network.transmit(
            Packet(
                src=self.node.nid, dst=peer, kind=kind, payload=payload,
                nbytes=nbytes, seq=seq, ack=self._recv_next.get(peer, 0) - 1,
                attempt=retries,
            ),
            bulk=bulk,
        )
        self._rto[peer] = min(
            self._rto.get(peer, self.retry.timeout_us) * self.retry.backoff,
            self.retry.max_timeout_us,
        )
        self._arm_timer(peer)

    # --------------------------------------------------- failure integration

    def attach_failure_detector(self, fd: Any) -> None:
        """Bind a :class:`~repro.ft.detector.FailureDetector`: the
        retransmit path stops resending to peers this node has declared
        dead (in-flight channels are abandoned on the membership change),
        and a credit-starved send to a dead peer raises
        :class:`~repro.errors.NodeUnreachableError` instead of spinning.
        Called by ``FailureDetector.start()``."""
        self._fd = fd
        fd.memberships[self.node.nid].on_change(self._on_peer_dead)

    def _on_peer_dead(self, membership: Any, peer: int) -> None:
        self.abandon_peer(peer)

    def abandon_peer(self, peer: int) -> None:
        """Write off the reliable channel to ``peer`` (event context): the
        retransmit timer stands down and every unacked packet is dropped
        from the resend queue.  Receive-side state is kept — a stale
        retransmission from a falsely-suspected peer is still suppressed
        by sequence number."""
        pending = self._unacked.pop(peer, None)
        timer = self._retx_timer.pop(peer, None)
        if timer is not None:
            timer.cancel()
        self._retries.pop(peer, None)
        self._rto.pop(peer, None)
        if pending:
            self.node.counters.inc(CounterNames.PKT_ABANDONED, len(pending))

    # ----------------------------------------------------------------- polls

    def poll(self) -> Generator[Any, Any, int]:
        """Service every delivered message; returns how many were handled.

        Handlers run inline in the calling thread (AM semantics).  A poll
        that finds nothing costs ``poll_empty_cpu``.
        """
        node = self.node
        node.counters.counts[CounterNames.POLLS] += 1
        if self._in_handler:
            return 0
        inbox = node.inbox
        if not inbox:
            yield self._chg_poll_empty
            return 0
        handled = 0
        consumed = self._consumed
        half = self._half_window
        while inbox:
            pkt = inbox.popleft()
            kind = pkt.kind
            if kind == KIND_CREDIT:
                yield self._chg_hit_credit
                self._credits[pkt.src] = (
                    self._credits.get(pkt.src, node.costs.net.credit_window)
                    + pkt.payload
                )
                continue
            yield self._chg_hit_bulk if kind == KIND_BULK else self._chg_hit_short
            sim = node.sim
            h_service = self._h_service
            if h_service is not None:
                # injection -> serviced: wire time + inbox queueing + the
                # receive CPU just charged (the paper's reception delay)
                h_service.record(sim._now - pkt.send_time)
            n = consumed[pkt.src] = consumed.get(pkt.src, 0) + 1
            if n >= half:
                self._refill_due = True
            frame: AMFrame = pkt.payload
            try:
                fn = self._handlers[frame.handler]
            except KeyError:
                raise SimulationError(
                    f"node {node.nid}: no AM handler {frame.handler!r} "
                    f"(message from node {pkt.src})"
                ) from None
            spans = self._spans
            sid = (
                spans.begin(sim._now, node.nid, "am.handle", frame.handler)
                if spans is not None
                else -1
            )
            self._in_handler = True
            try:
                yield from fn(self, pkt.src, frame)
            finally:
                self._in_handler = False
                if spans is not None:
                    spans.end(sid, node.sim._now)
            handled += 1
        # delegate to the refill generator only when a source actually
        # crossed the half-window (the common poll sends no refill)
        if self._refill_due:
            yield from self._refill_credits()
        if handled and node.scheduler is not None:
            # Let every thread blocked on inbox activity recheck its
            # predicate — handlers may have completed their operations.
            node.scheduler.wake_all_inbox_waiters()
        return handled

    def wait_and_poll(self) -> Generator[Any, Any, int]:
        """Block until at least one message is deliverable, then poll."""
        if not self.node.has_mail:
            yield WAIT_INBOX
        return (yield from self.poll())

    def poll_until(self, pred: Callable[[], bool]) -> Generator[Any, Any, None]:
        """Spin-wait: poll until ``pred()`` holds.

        This is Split-C's waiting discipline (and the CC++ 'Simple' RMI
        variant): the waiting thread does NOT context-switch; gaps with no
        mail are idle time on the node.
        """
        # wait_and_poll inlined: a spin iteration must not pay an extra
        # generator frame on top of the poll itself
        node = self.node
        while not pred():
            if not node.has_mail:
                yield WAIT_INBOX
            yield from self.poll()

    def poll_until_done(self, box: Any) -> Generator[Any, Any, None]:
        """Spin-wait on a reply box: ``poll_until(lambda: box.done)``
        without the closure allocation and per-spin indirect call — the
        single hottest waiting shape (every blocking read/write)."""
        node = self.node
        while not box.done:
            if not node.has_mail:
                yield WAIT_INBOX
            yield from self.poll()

    # ------------------------------------------------------------ diagnostics

    def describe(self) -> str:
        """One-line protocol state summary for the deadlock dump."""
        bits = []
        if self._credits:
            bits.append(f"credits={dict(sorted(self._credits.items()))}")
        if self._consumed:
            consumed = {s: n for s, n in sorted(self._consumed.items()) if n}
            if consumed:
                bits.append(f"consumed={consumed}")
        if self.reliable:
            unacked = {
                d: sorted(p) for d, p in sorted(self._unacked.items()) if p
            }
            if unacked:
                bits.append(f"unacked={unacked}")
                bits.append(
                    "rto={%s}" % ", ".join(
                        f"{d}: {self._rto.get(d, self.retry.timeout_us):.0f}us"
                        f"/{self._retries.get(d, 0)} retries"
                        for d in unacked
                    )
                )
            if self._recv_next:
                bits.append(f"recv_next={dict(sorted(self._recv_next.items()))}")
            buffered = {
                s: sorted(b) for s, b in sorted(self._recv_buffer.items()) if b
            }
            if buffered:
                bits.append(f"held-out-of-order={buffered}")
        return " ".join(bits) if bits else "idle"


def install_am(
    cluster: Any,
    *,
    reception: str = "polling",
    reliable: bool = False,
    retry: RetryPolicy | None = None,
) -> list[AMEndpoint]:
    """Create one endpoint per node of ``cluster``; returns them in node
    order.  Idempotent per node is *not* supported — one AM layer per run
    (a duplicate install raises :class:`~repro.errors.RuntimeStateError`).

    ``reliable=True`` activates the sequence/ack/retransmit sublayer on
    every endpoint — required for correct runs under a lossy
    :class:`~repro.machine.faults.FaultPlan`.
    """
    charges = _AMCharges(cluster.costs.net, reception)
    return [
        AMEndpoint(
            node, cluster.network, charges,
            reception=reception, reliable=reliable, retry=retry,
        )
        for node in cluster.nodes
    ]
