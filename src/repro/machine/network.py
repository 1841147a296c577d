"""The interconnect.

Models the SP's switch as a fixed per-packet latency plus a per-byte
serialization cost, with a separate (cheaper) per-byte rate for the bulk
DMA path.  Delivery is deterministic and FIFO per (source, destination)
pair — the engine's tie-break guarantees it, and a property test checks it.

The network charges **no CPU**: sender- and receiver-side CPU overheads are
charged by the messaging layers (:mod:`repro.am`, :mod:`repro.mpl`), which
is exactly the split the paper's AM column vs runtime columns reflect.

A :class:`~repro.machine.faults.FaultPlan` makes the fabric imperfect on
purpose: matching packets can be dropped, duplicated, or delayed, and
whole nodes can go dark for scheduled windows.  With ``faults=None`` (the
default) the delivery path is byte-identical to the original reliable
fabric — the golden-trace suite holds us to that.

A :class:`~repro.machine.topology.Topology` with contention replaces the
fixed per-byte serialization with per-link occupancy accounting: the
packet walks its route's links, queueing behind earlier traffic
(``busy_until`` timestamps), so hotspots slow down instead of
teleporting.  ``topology=None`` or a :class:`FlatTopology` keeps the
legacy formula bit-for-bit.  Either way the contention delay is NET-side
wire time — it widens the send-to-deliver gap, never a CPU charge, so
the paper's AM-vs-runtime cost split is untouched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, NamedTuple

from repro.errors import SimulationError
from repro.machine.faults import DROP, FaultPlan
from repro.obs.metrics import MetricNames
from repro.sim.account import CounterNames
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["Packet", "PacketRecord", "Network"]

_tuple_new = tuple.__new__


class PacketRecord(NamedTuple):
    """What a trace keeps of one injected packet: its fixed fields.

    Only ints and strs, never the :class:`Packet` (whose payload would
    stay reachable from the trace).  One record is built per traced
    packet and shared by its ``send`` and ``deliver`` trace records; it
    becomes text once, when an exporter or a reader calls ``str()``.
    """

    kind: str
    pid: int
    src: int
    dst: int
    nbytes: int
    seq: int
    attempt: int

    def __str__(self) -> str:
        kind, pid, src, dst, nbytes, seq, attempt = self
        text = f"{kind}#{pid} {src}->{dst} ({nbytes}B)"
        if seq >= 0:
            text += f" seq={seq}"
        if attempt:
            text += f" retx={attempt}"
        return text


@dataclass(slots=True)
class Packet:
    """One message in flight or in an inbox.

    ``kind`` is a free-form tag used by the receiving layer to route the
    packet to the right handler ('am.short', 'am.bulk', 'mpl', ...).
    ``payload`` is opaque to the network (the messaging layers put marshalled
    bytes or structured records here).

    ``seq``/``ack`` belong to the reliable-delivery sublayer
    (:mod:`repro.am`): ``seq`` is the per-channel sequence number (-1 =
    unsequenced), ``ack`` a piggybacked cumulative acknowledgment (-1 =
    none), and ``attempt`` counts retransmissions of the same sequence
    number (0 = original send).  ``pid`` numbers the packets of one
    network, assigned at injection (-1 = not sent): no process-wide count.
    A packet is its own arrival event (the engine calls it when the wire
    time is up): in flight it allocates this object and one heap entry.
    """

    src: int
    dst: int
    kind: str
    payload: Any
    nbytes: int
    send_time: float = 0.0
    arrival_time: float = 0.0
    pid: int = -1
    seq: int = -1
    ack: int = -1
    attempt: int = 0
    # the record the ``send`` trace carried, for the ``deliver`` trace to
    # share (set by a traced transmit only)
    _rec: PacketRecord | None = None
    # the network carrying this packet, from injection to arrival only: a
    # packet in an inbox must not keep its network (and so every node,
    # inbox and packet of the cluster) reachable from itself
    _net: Any = field(default=None, compare=False, repr=False)

    def __call__(self) -> None:
        """Land: leave the wire, enter the destination node."""
        net = self._net
        self._net = None
        del net._in_flight[self.pid]
        net.packets_delivered += 1
        net._nodes[self.dst].deliver(self)

    def as_record(self) -> PacketRecord:
        """This packet's fixed fields, as a trace records them."""
        return _tuple_new(PacketRecord, (
            self.kind, self.pid, self.src, self.dst, self.nbytes, self.seq, self.attempt))

    def describe(self) -> str:
        return str(self.as_record())


class Network:
    """Connects the nodes of one cluster."""

    def __init__(
        self,
        sim: Simulator,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        metrics: Any | None = None,
        topology: Any | None = None,
    ):
        self.sim = sim
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = None if type(self.tracer) is NullTracer else self.tracer.record
        # pre-resolved per-packet bytes histogram, or None when metrics
        # are off (one is-None test per transmit)
        self._h_bytes = (
            None if metrics is None else metrics.histogram(MetricNames.MSG_BYTES)
        )
        self._h_queue = (
            None if metrics is None else metrics.histogram(MetricNames.LINK_QUEUE)
        )
        #: the fabric shape (instrumentation; may be a contention-free flat)
        self.topology = topology
        # contended topology or None: None takes the legacy delivery path,
        # which stays byte-identical to the pre-topology network
        self._topo = (
            topology if (topology is not None and topology.contention) else None
        )
        self._nodes: dict[int, Any] = {}
        #: fault-injection plan; None (or an empty plan) = perfect fabric
        self.faults = faults
        #: total packets ever injected (instrumentation)
        self.packets_sent = 0
        self.packets_delivered = 0
        #: packets the fault plan ate / extra copies it minted
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.bytes_carried = 0
        self._pids = itertools.count()
        #: packets scheduled for delivery but not yet landed, by pid
        #: (diagnostics for the deadlock dump; also backs ``in_flight``)
        self._in_flight: dict[int, Packet] = {}

    def register(self, node: Any) -> None:
        """Add a node to the fabric (done by the cluster builder)."""
        if node.nid in self._nodes:
            raise SimulationError(f"node {node.nid} already on the network")
        self._nodes[node.nid] = node

    @property
    def size(self) -> int:
        return len(self._nodes)

    def node(self, nid: int) -> Any:
        try:
            return self._nodes[nid]
        except KeyError:
            raise SimulationError(f"no node {nid} on this network") from None

    @property
    def in_flight(self) -> int:
        """Packets injected (including duplicates) but neither delivered
        nor dropped yet."""
        return len(self._in_flight)

    def transmit(self, packet: Packet, *, bulk: bool = False) -> None:
        """Inject ``packet``; it is delivered to the destination inbox after
        the wire time computed from the source node's cost model.

        Loopback (src == dst) is legal and still pays the wire: the paper's
        runtimes treat local AMs uniformly, and so do we.
        """
        nodes = self._nodes
        try:
            src = nodes[packet.src]
            nodes[packet.dst]  # looked up again on landing; refuse it here
        except KeyError:
            src = self.node(packet.src)  # re-raise with the diagnostic
            self.node(packet.dst)
        net_costs = src.costs.net
        # inlined short/bulk_wire_time: one transmit per simulated message
        nbytes = packet.nbytes
        now = self.sim._now
        topo = self._topo
        if topo is None:
            wire = net_costs.wire_latency + nbytes * (
                net_costs.per_byte_bulk if bulk else net_costs.per_byte
            )
        else:
            # contended fabric: serialization happens link by link along
            # the route, queued behind whatever got there first; the
            # launch latency is still the fixed per-packet cost
            delay, queued = topo.occupy(
                packet.src,
                packet.dst,
                nbytes,
                net_costs.per_byte_bulk if bulk else net_costs.per_byte,
                now,
            )
            wire = net_costs.wire_latency + delay
            if self._h_queue is not None:
                self._h_queue.record(queued)
        packet.pid = next(self._pids)
        packet.send_time = now
        packet.arrival_time = now + wire
        self.packets_sent += 1
        self.bytes_carried += nbytes
        src.counters.counts[CounterNames.BYTES_SENT] += nbytes
        if self._h_bytes is not None:
            self._h_bytes.record(nbytes)
        if self._trace is not None:
            packet._rec = packet.as_record()
            self._trace(now, packet.src, "send", packet._rec)

        faults = self.faults
        if faults is not None:
            verdict = faults.decide(
                packet.src, packet.dst, packet.kind, now, packet.arrival_time
            )
            if verdict.action is DROP:
                self.packets_dropped += 1
                src.counters.inc(CounterNames.PKT_DROPPED)
                if self._trace is not None:
                    self._trace(now, packet.src, "drop", f"{packet._rec}: {verdict.reason}")
                return
            if verdict.extra_delay_us:
                wire += verdict.extra_delay_us
                packet.arrival_time = now + wire
                src.counters.inc(CounterNames.PKT_DELAYED)
            if verdict.duplicate:
                # the copy is a distinct packet (own pid) sharing the
                # payload and reliability fields; it rides the same wire
                # time and, scheduled first, lands just ahead of the
                # original at the same instant (the engine's tie-break
                # keeps the order deterministic)
                self.packets_duplicated += 1
                src.counters.inc(CounterNames.PKT_DUPLICATED)
                payload = packet.payload
                # A payload frame may carry a zero-copy memoryview of a
                # pooled marshalling buffer, which is recycled when the
                # first copy is unmarshalled; snapshot the bytes so the
                # surviving copy stays readable (without reliable AM both
                # copies reach a handler).
                data = getattr(payload, "data", None)
                if type(data) is memoryview:
                    payload = replace(payload, data=bytes(data))
                copy = replace(
                    packet,
                    payload=payload,
                    pid=next(self._pids),
                    _rec=None,
                    _net=None,
                )
                self._schedule_delivery(copy, wire)
        self._schedule_delivery(packet, wire)

    def _schedule_delivery(self, packet: Packet, wire: float) -> None:
        """Put ``packet`` on the wire; it lands by being called."""
        self._in_flight[packet.pid] = packet
        packet._net = self
        self.sim.schedule(wire, packet)

    def quiescent(self) -> bool:
        """True when nothing is in flight and every inbox is empty.

        Counts actual in-flight packets rather than comparing sent vs
        delivered totals, so it stays correct when the fault plan drops
        or duplicates traffic.
        """
        if self._in_flight:
            return False
        return all(not n.has_mail for n in self._nodes.values())

    def describe_in_flight(self) -> list[str]:
        """The packets currently on the wire, oldest first (diagnostics)."""
        return [
            f"{p.describe()} sent t={p.send_time:.1f} due t={p.arrival_time:.1f}"
            for p in sorted(
                self._in_flight.values(), key=lambda p: (p.arrival_time, p.pid)
            )
        ]
