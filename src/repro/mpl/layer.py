"""Two-sided matched send/recv with MPL-like costs."""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from repro.errors import RuntimeStateError
from repro.machine.network import Network, Packet
from repro.sim.account import Category, CounterNames
from repro.sim.effects import WAIT_INBOX, Charge

__all__ = ["MPLEndpoint", "install_mpl"]

KIND_MPL = "mpl"
_HEADER_BYTES = 24  # src/dst/tag/len envelope


class MPLEndpoint:
    """Per-node MPL interface: tag-matched blocking send/recv."""

    SERVICE = "mpl"

    def __init__(self, node: Any, network: Network, chg_send: Charge, chg_recv: Charge):
        if "msg-layer" in node.services:
            raise RuntimeStateError(
                f"node {node.nid} already has messaging layer "
                f"{type(node.services['msg-layer']).__name__}; exactly one "
                "layer may own the inbox (install_mpl is not idempotent)"
            )
        self.node = node
        self.network = network
        #: (src, tag) -> queue of payloads, FIFO per matching key
        self._matched: dict[tuple[int, int], deque[Any]] = {}
        # the cluster's fixed charges, built once by install_mpl
        self._chg_send = chg_send
        self._chg_recv = chg_recv
        node.attach(self.SERVICE, self)
        # exclusive claim on the node's inbox: exactly one messaging layer
        node.attach("msg-layer", self)

    # ----------------------------------------------------------------- sends

    def send(
        self, dst: int, tag: int, value: Any, *, nbytes: int | None = None
    ) -> Generator[Any, Any, None]:
        """Asynchronous-buffered send (``mpc_bsend``-like): charges the
        sender-side software overhead and returns once injected."""
        if tag < 0:
            raise RuntimeStateError(f"negative MPL tag {tag}")
        size = nbytes if nbytes is not None else _HEADER_BYTES
        self.node.counters.inc(CounterNames.MSG_SHORT)
        yield self._chg_send
        self.network.transmit(
            Packet(
                src=self.node.nid,
                dst=dst,
                kind=KIND_MPL,
                payload=(tag, value),
                nbytes=size,
            )
        )

    # ------------------------------------------------------------------ recv

    def _drain_inbox(self) -> None:
        """Move delivered packets into the tag-match table (free: matching
        cost is charged per successful receive)."""
        while self.node.inbox:
            pkt = self.node.inbox.popleft()
            if pkt.kind != KIND_MPL:
                raise RuntimeStateError(
                    f"MPL endpoint saw foreign packet kind {pkt.kind!r}; install "
                    "one messaging layer per cluster"
                )
            tag, value = pkt.payload
            self._matched.setdefault((pkt.src, tag), deque()).append(value)

    def recv(self, src: int, tag: int) -> Generator[Any, Any, Any]:
        """Blocking matched receive from ``src`` with ``tag``."""
        key = (src, tag)
        while True:
            self._drain_inbox()
            q = self._matched.get(key)
            if q:
                yield self._chg_recv
                return q.popleft()
            yield WAIT_INBOX

    def probe(self, src: int, tag: int) -> bool:
        """Non-blocking: is a matching message already here?"""
        self._drain_inbox()
        q = self._matched.get((src, tag))
        return bool(q)


def install_mpl(cluster: Any) -> list[MPLEndpoint]:
    """One MPL endpoint per node, in node order.  Every node shares the
    cluster's cost model, so one immutable Charge per fixed cost point
    serves them all."""
    net = cluster.costs.net
    chg_send = Charge(net.mpl_send_cpu, Category.NET)
    chg_recv = Charge(net.mpl_recv_cpu, Category.NET)
    return [
        MPLEndpoint(node, cluster.network, chg_send, chg_recv)
        for node in cluster.nodes
    ]
