"""A processing node of the simulated multicomputer.

A node owns:

* a :class:`~repro.sim.account.TimeAccount` and
  :class:`~repro.sim.account.Counters` that every charge on this node flows
  through,
* a message **inbox** the network delivers into (reception still requires a
  poll — the queueing delay between delivery and poll is the paper's point),
* attachment slots for the cooperative thread scheduler
  (:mod:`repro.threads`) and for whichever language runtime is running.

Nodes never touch the simulator clock directly; schedulers do.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError
from repro.marshal.pool import BufferPool
from repro.sim.account import Category, Counters, TimeAccount
from repro.sim.effects import Charge
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.machine.costs import CostModel
    from repro.machine.network import Packet
    from repro.threads.scheduler import Scheduler

__all__ = ["Node"]


class Node:
    """One processor + local memory of the simulated machine."""

    def __init__(
        self,
        nid: int,
        sim: Simulator,
        costs: "CostModel",
        *,
        tracer: Tracer | None = None,
        metrics: Any | None = None,
    ):
        if nid < 0:
            raise SimulationError(f"node id must be >= 0, got {nid}")
        self.nid = nid
        self.sim = sim
        self.costs = costs
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self._trace = None if type(self.tracer) is NullTracer else self.tracer.record
        #: span-capable tracer (:class:`~repro.obs.spans.SpanRecorder`) or
        #: None — runtimes resolve this once and guard span sites with it
        self._spans = self.tracer if getattr(self.tracer, "wants_spans", False) else None
        #: optional :class:`~repro.obs.metrics.Metrics` registry shared by
        #: the whole cluster; layers resolve their histograms from it
        self.metrics = metrics
        self.account = TimeAccount()
        self.counters = Counters()
        #: messages delivered by the network, oldest first
        self.inbox: deque["Packet"] = deque()
        #: optional reliability sublayer hook (see :meth:`deliver`): maps an
        #: arriving packet to the packets that actually enter the inbox
        self.deliver_filter: Any = None
        #: set by :class:`repro.threads.scheduler.Scheduler`
        self.scheduler: "Scheduler | None" = None
        #: set by the runtimes (AM endpoint, Split-C memory, CC++ tables...)
        self.services: dict[str, Any] = {}
        #: per-node freelist of marshalling buffers (persistent buffers)
        self.marshal_pool = BufferPool()
        #: the one Charge every sync op yields, set by the
        #: :class:`~repro.machine.cluster.Cluster`: Charge is immutable and
        #: all nodes of a cluster share one cost model, so a single
        #: instance serves every lock/signal/down on every node
        self.sync_charge: Charge | None = None

    # ------------------------------------------------------------- accounting

    def charge(self, category: Category, us: float) -> None:
        """Record ``us`` µs against ``category`` on this node.

        This only *accounts* the time; advancing the clock while the node is
        busy is the scheduler's job (it interprets ``Charge`` effects).
        """
        # inlined TimeAccount.add — this runs once per Charge effect
        if us < 0:
            raise ValueError(f"negative charge: {us} us to {category}")
        self.account._us[category.index] += us

    # ---------------------------------------------------------------- network

    def deliver(self, packet: "Packet") -> None:
        """Called by the network when a packet arrives.

        Appends to the inbox and pokes the scheduler so threads blocked in
        ``WaitInbox`` become runnable.  No receive CPU is charged here —
        that happens when the message is actually polled.

        When a messaging layer installed a ``deliver_filter`` (the AM
        reliable-delivery sublayer), the filter sees every arrival first
        and returns the packets that actually enter the inbox: acks are
        consumed outright, duplicates suppressed, and out-of-order packets
        held back until their gap fills — all below the poll discipline,
        the way the SP's reliability sublayer sat below AM proper.
        """
        filt = self.deliver_filter
        if filt is not None:
            accepted = filt(packet)
            if not accepted:
                return
            trace = self._trace
            for pkt in accepted:
                self.inbox.append(pkt)
                if trace is not None:
                    trace(self.sim._now, self.nid, "deliver", pkt._rec or pkt.as_record())
            if self.scheduler is not None:
                self.scheduler.on_message_arrival()
            return
        self.inbox.append(packet)
        if self._trace is not None:
            self._trace(self.sim._now, self.nid, "deliver", packet._rec or packet.as_record())
        if self.scheduler is not None:
            self.scheduler.on_message_arrival()

    @property
    def has_mail(self) -> bool:
        """True if at least one delivered message awaits a poll."""
        return bool(self.inbox)

    # ---------------------------------------------------------------- services

    def attach(self, name: str, service: Any) -> None:
        """Register a runtime service (e.g. ``"am"``, ``"sc_mem"``).

        Re-attachment under the same name is an error: runtimes must not
        silently clobber one another.
        """
        if name in self.services:
            raise SimulationError(f"service {name!r} already attached to node {self.nid}")
        self.services[name] = service

    def service(self, name: str) -> Any:
        """Look up a previously attached service."""
        try:
            return self.services[name]
        except KeyError:
            raise SimulationError(
                f"service {name!r} not attached to node {self.nid}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.nid} inbox={len(self.inbox)}>"
