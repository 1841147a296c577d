"""Interconnect topologies with per-link contention accounting.

The default :class:`~repro.machine.network.Network` models the SP switch
as a contention-free crossbar: every packet pays a fixed latency plus a
per-byte serialization cost and teleports, no matter what else is on the
wire.  That is faithful to the paper's 4–160-node runs, but above a few
hundred nodes the *shared* links of a real switch hierarchy — not the
per-message cost — dominate.  This module adds that machinery:

* a :class:`Topology` maps ``(src, dst)`` to a **route**: the ordered
  link ids a packet occupies.  Routes are deterministic, computed in
  O(path length) from node ids (no search), and memoized per pair, so
  lookup is O(1) amortized on the sparse traffic matrices real programs
  generate.  Routes and link labels depend on the **shape** alone —
  ``(class, n_nodes, arity)`` — so they are built once in the process and
  shared by every topology of that shape (:data:`SHAPES_KEPT` are kept);
  what traffic writes belongs to one topology object, one per cluster.
* every link keeps a **busy-until timestamp**: a packet's serialization
  on a link starts no earlier than the previous packet's finished, so
  hotspot traffic queues instead of teleporting.  One float max/add per
  link per packet — no per-byte event storm, and the whole thing stays
  deterministic (state is only touched from ``Network.transmit``, whose
  order the engine already fixes).
* per-link counters (bytes, packets, busy µs, queued µs) feed the
  utilization reports and the ``net.link_queue_us`` histogram in
  :mod:`repro.obs`.

Three fabrics:

* :class:`FlatTopology` — the historical crossbar.  ``contention`` is
  False and the network takes its legacy delivery path, **byte-identical**
  to a ``topology=None`` run (the golden-trace suite holds us to that).
* :class:`FatTreeTopology` — nodes in groups of ``arity`` under leaf
  switches, switches grouped ``arity``-at-a-time up to a single root
  (the shape of the SP's multi-stage TB2 switch).  A level-``l`` switch
  link carries ``fatness**(l+1)`` times the access-link bandwidth;
  ``fatness < arity`` leaves the upper levels oversubscribed, which is
  what produces the bandwidth-saturation plateau the HPX+LCI case study
  measures.
* :class:`RingTopology` — per-hop directional links with minimal-path
  routing; the worst bisection of the three, for contrast.

Link-occupancy time composes with the existing cost split exactly like
the crossbar's wire time did: it extends the packet's NET-side delivery
latency (the gap between send and deliver).  Sender/receiver CPU charges
are unchanged — they belong to the messaging layers — so every
accounting claim made on the flat fabric survives verbatim.
"""

from __future__ import annotations

import copy
from functools import lru_cache

from repro.errors import SimulationError

__all__ = [
    "Topology",
    "FlatTopology",
    "FatTreeTopology",
    "RingTopology",
    "make_topology",
    "TOPOLOGY_KINDS",
    "SHAPES_KEPT",
]

#: spec-string kinds accepted by :func:`make_topology`
TOPOLOGY_KINDS = ("flat", "fattree", "ring")

#: fabric shapes whose labels and routes stay built in this process.  A
#: run uses one or two and the widest benchmark unit four; past this many
#: the least recently used shape is rebuilt at its next use.
SHAPES_KEPT = 8


@lru_cache(maxsize=SHAPES_KEPT)
def _shape(cls: type["Topology"], n_nodes: int, arity: int) -> tuple[tuple, dict]:
    """Link labels and the route memo of one fabric shape.

    Neither has traffic, bandwidth or latency in it, so every topology of
    the shape holds these two objects; the memo fills as pairs are first
    routed, by whichever topology routes them.
    """
    return tuple(cls._link_labels(n_nodes, arity)), {}


class Topology:
    """Base class: route lookup + per-link occupancy state.

    Subclasses fill ``kind`` and provide :meth:`_link_labels` and
    :meth:`_route` (called once per distinct ``(src, dst)`` pair of a
    shape, then memoized), both pure functions of ``(n_nodes, arity)``;
    links that are not access-rate replace ``_inv_scale``.
    """

    kind = "abstract"
    #: False only for the flat crossbar: the network then takes the
    #: legacy (contention-free, byte-identical) delivery path
    contention = True
    #: switch fan-in, the one number besides ``n_nodes`` a shape may depend
    #: on (0 = this kind has no switches); set before ``__init__`` runs
    arity = 0

    def __init__(self, n_nodes: int, *, hop_us: float = 5.0):
        if n_nodes < 1:
            raise SimulationError(f"topology needs >= 1 node, got {n_nodes}")
        if not hop_us >= 0.0:
            raise SimulationError(f"hop_us must be >= 0, got {hop_us}")
        self.n_nodes = n_nodes
        #: per-link propagation latency (µs); adds to delivery time but
        #: does not occupy the link
        self.hop_us = hop_us
        self._labels, self._routes = _shape(type(self), n_nodes, self.arity)
        self.n_links = len(self._labels)
        #: per-link inverse bandwidth scale (1.0 = access-link rate)
        self._inv_scale: list[float] = [1.0] * self.n_links
        self._idle_links()

    # -------------------------------------------------------------- wiring

    @staticmethod
    def _link_labels(n_nodes: int, arity: int) -> list[str]:
        """One label per link, in link-id order."""
        raise NotImplementedError

    def _idle_links(self) -> None:
        """Fresh per-link state: what one run's traffic writes."""
        #: earliest time each link is free again
        self.busy_until: list[float] = [0.0] * self.n_links
        #: total serialization µs each link has carried
        self.link_busy_us: list[float] = [0.0] * self.n_links
        #: total µs packets spent queued behind earlier traffic, per link
        self.link_queued_us: list[float] = [0.0] * self.n_links
        self.link_bytes: list[int] = [0] * self.n_links
        self.link_packets: list[int] = [0] * self.n_links

    def fresh(self) -> "Topology":
        """This fabric with every link idle and every counter zero (what a
        :class:`~repro.machine.cluster.Cluster` given this object runs on)."""
        run = copy.copy(self)
        run._idle_links()
        return run

    def _check_node(self, nid: int) -> None:
        if not 0 <= nid < self.n_nodes:
            raise SimulationError(
                f"{self.kind} topology has nodes 0..{self.n_nodes - 1}, got {nid}"
            )

    # ------------------------------------------------------------- routing

    def _route(self, src: int, dst: int) -> tuple[int, ...]:
        raise NotImplementedError

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """The ordered link ids a ``src -> dst`` packet occupies.

        Deterministic and memoized: the first lookup for a pair on any
        topology of this shape computes the path from node ids in O(path
        length), every later one is a dict hit.
        """
        key = (src, dst)
        r = self._routes.get(key)
        if r is None:
            self._check_node(src)
            self._check_node(dst)
            r = self._routes[key] = self._route(src, dst)
        return r

    def hops(self, src: int, dst: int) -> int:
        """Links on the ``src -> dst`` path."""
        return len(self.route(src, dst))

    # ----------------------------------------------------------- occupancy

    def occupy(self, src: int, dst: int, nbytes: int, per_byte: float, now: float):
        """Walk the route, queueing behind earlier traffic on every link.

        Returns ``(delay_us, queued_us)``: the total delivery delay past
        ``now`` (serialization + queueing + per-hop propagation) and the
        queueing component alone.  Mutates the per-link busy-until
        timestamps — call exactly once per transmitted packet, in
        transmit order.
        """
        r = self._routes.get((src, dst))
        if r is None:
            r = self.route(src, dst)
        t = now
        queued = 0.0
        busy = self.busy_until
        busy_us = self.link_busy_us
        queued_us = self.link_queued_us
        bts = self.link_bytes
        pkts = self.link_packets
        inv = self._inv_scale
        hop = self.hop_us
        # hoisted out of the loop and bit-identical to it: the product
        # `nbytes * per_byte * inv[lid]` associates left
        wire = nbytes * per_byte
        for lid in r:
            ser = wire * inv[lid]
            b = busy[lid]
            if b > t:
                queued += b - t
                queued_us[lid] += b - t
                t = b
            t += ser
            busy[lid] = t
            busy_us[lid] += ser
            bts[lid] += nbytes
            pkts[lid] += 1
            t += hop
        return t - now, queued

    # ----------------------------------------------------- instrumentation

    def utilization(self, elapsed_us: float) -> list[float]:
        """Per-link busy fraction over ``elapsed_us`` of virtual time."""
        if elapsed_us <= 0.0:
            return [0.0] * self.n_links
        return [b / elapsed_us for b in self.link_busy_us]

    def max_utilization(self, elapsed_us: float) -> float:
        return max(self.utilization(elapsed_us), default=0.0)

    def total_queued_us(self) -> float:
        return sum(self.link_queued_us)

    def link_stats(self) -> list[dict]:
        """One record per link: label, traffic, occupancy (diagnostics
        and the congestion artifact's CSV)."""
        return [
            {
                "link": self._labels[i],
                "packets": self.link_packets[i],
                "bytes": self.link_bytes[i],
                "busy_us": self.link_busy_us[i],
                "queued_us": self.link_queued_us[i],
            }
            for i in range(self.n_links)
        ]

    def hot_links(self, n: int = 5) -> list[dict]:
        """The ``n`` busiest links by occupancy, busiest first."""
        stats = self.link_stats()
        stats.sort(key=lambda s: (-s["busy_us"], s["link"]))
        return stats[:n]

    def describe(self) -> str:
        return f"{self.kind} n={self.n_nodes} links={self.n_links}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class FlatTopology(Topology):
    """The historical contention-free crossbar, as an explicit object.

    ``contention=False`` routes the network down its legacy delivery
    path, so a ``topology=FlatTopology(n)`` cluster is byte-identical to
    a ``topology=None`` one.  Routes are empty: packets occupy nothing.
    """

    kind = "flat"
    contention = False

    def __init__(self, n_nodes: int):
        super().__init__(n_nodes, hop_us=0.0)

    @staticmethod
    def _link_labels(n_nodes: int, arity: int) -> list[str]:
        return []

    def _route(self, src: int, dst: int) -> tuple[int, ...]:
        return ()


class FatTreeTopology(Topology):
    """A multi-level switch hierarchy with per-level bandwidth scaling.

    Nodes attach ``arity`` at a time to leaf switches; switches group
    ``arity`` at a time per level up to a single root.  Every node has a
    dedicated injection (up) and ejection (down) access link — the pair a
    real NIC serializes through, and what an incast hotspot saturates.
    Each non-root switch has one up/down link pair to its parent whose
    bandwidth is ``fatness**(level+1)`` access links; ``fatness == arity``
    is a full-bisection fat tree, smaller values oversubscribe the upper
    levels.
    """

    kind = "fattree"

    def __init__(
        self,
        n_nodes: int,
        *,
        arity: int = 4,
        fatness: float = 2.0,
        hop_us: float = 5.0,
    ):
        if arity < 2:
            raise SimulationError(f"fat-tree arity must be >= 2, got {arity}")
        if not fatness >= 1.0:
            raise SimulationError(f"fat-tree fatness must be >= 1, got {fatness}")
        self.arity = arity
        super().__init__(n_nodes, hop_us=hop_us)
        self.fatness = fatness
        #: switches per level, leaf level first, root level (1) last
        self.level_counts = self._levels(n_nodes, arity)
        self.n_levels = len(self.level_counts)
        # access links: ids [0, n) up, [n, 2n) down, at the access rate;
        # then the switch->parent link pairs of every level below the root
        self._sw_base: list[int] = []  # first link id of each level's pairs
        inv = [1.0] * (2 * n_nodes)
        for level, count in enumerate(self.level_counts[:-1]):
            self._sw_base.append(len(inv))
            inv += [1.0 / fatness ** (level + 1)] * (2 * count)
        self._inv_scale = inv

    @staticmethod
    def _levels(n_nodes: int, arity: int) -> tuple[int, ...]:
        """Switch counts per level (level 0 = leaves) up to a single root."""
        width = (n_nodes + arity - 1) // arity
        counts = [width]
        while width > 1:
            width = (width + arity - 1) // arity
            counts.append(width)
        return tuple(counts)

    @staticmethod
    def _link_labels(n_nodes: int, arity: int) -> list[str]:
        labels = [f"acc-up[{nid}]" for nid in range(n_nodes)]
        labels += [f"acc-down[{nid}]" for nid in range(n_nodes)]
        for level, count in enumerate(FatTreeTopology._levels(n_nodes, arity)[:-1]):
            for idx in range(count):
                labels += (f"sw-up[L{level}.{idx}]", f"sw-down[L{level}.{idx}]")
        return labels

    def switch_of(self, nid: int, level: int) -> int:
        """Index of the level-``level`` switch above ``nid``."""
        return nid // (self.arity ** (level + 1))

    def _up_link(self, level: int, idx: int) -> int:
        return self._sw_base[level] + 2 * idx

    def _down_link(self, level: int, idx: int) -> int:
        return self._sw_base[level] + 2 * idx + 1

    def _route(self, src: int, dst: int) -> tuple[int, ...]:
        n = self.n_nodes
        path = [src]  # acc-up link id == src by construction
        if src == dst:
            return (src, n + dst)
        # climb until the two sides share a switch
        lca = 0
        while self.switch_of(src, lca) != self.switch_of(dst, lca):
            lca += 1
        # up through src-side switches below the meeting level
        for level in range(lca):
            path.append(self._up_link(level, self.switch_of(src, level)))
        # down through dst-side switches
        for level in range(lca - 1, -1, -1):
            path.append(self._down_link(level, self.switch_of(dst, level)))
        path.append(n + dst)  # acc-down
        return tuple(path)

    def describe(self) -> str:
        return (
            f"fattree n={self.n_nodes} arity={self.arity} "
            f"fatness={self.fatness:g} levels={self.n_levels} links={self.n_links}"
        )


class RingTopology(Topology):
    """A bidirectional ring: per-hop directional links, minimal routing.

    Link ids: ``cw[i]`` (``i -> i+1 mod n``) is ``i``; ``ccw[i]``
    (``i -> i-1 mod n``) is ``n + i``.  Ties between the two directions
    go clockwise, so routing is deterministic.  A loopback packet
    occupies nothing (it never enters the ring).
    """

    kind = "ring"

    @staticmethod
    def _link_labels(n_nodes: int, arity: int) -> list[str]:
        return [f"cw[{i}]" for i in range(n_nodes)] + [
            f"ccw[{i}]" for i in range(n_nodes)
        ]

    def _route(self, src: int, dst: int) -> tuple[int, ...]:
        n = self.n_nodes
        if src == dst:
            return ()
        d_cw = (dst - src) % n
        d_ccw = (src - dst) % n
        if d_cw <= d_ccw:
            return tuple((src + k) % n for k in range(d_cw))
        return tuple(n + (src - k) % n for k in range(d_ccw))

    def describe(self) -> str:
        return f"ring n={self.n_nodes} links={self.n_links}"


# ---------------------------------------------------------------------------
# spec strings
# ---------------------------------------------------------------------------

_KIND_OPTS = {
    "flat": (),
    "fattree": ("arity", "fatness", "hop_us"),
    "ring": ("hop_us",),
}


def make_topology(spec: str, n_nodes: int) -> Topology:
    """Build a topology from a spec string.

    ``"flat"``, ``"ring"``, ``"fattree"``, optionally with ``k=v``
    options after a colon: ``"fattree:arity=8,fatness=2"``,
    ``"ring:hop_us=3"``.  This is the form the experiment registry's
    ``topology`` parameters accept, so ``sweep --axis topology=...`` can
    grid over fabrics.
    """
    kind, _, tail = spec.partition(":")
    kind = kind.strip()
    if kind not in _KIND_OPTS:
        raise SimulationError(
            f"unknown topology {kind!r}; choose from {', '.join(TOPOLOGY_KINDS)}"
        )
    allowed = _KIND_OPTS[kind]
    kwargs: dict[str, float | int] = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in allowed:
                raise SimulationError(
                    f"topology {kind!r} option {item!r} invalid; "
                    f"allowed: {', '.join(allowed) or '(none)'}"
                )
            try:
                kwargs[key] = int(value) if key == "arity" else float(value)
            except ValueError:
                raise SimulationError(
                    f"topology option {key}={value!r} is not a number"
                ) from None
    if kind == "flat":
        return FlatTopology(n_nodes)
    if kind == "fattree":
        return FatTreeTopology(n_nodes, **kwargs)  # type: ignore[arg-type]
    return RingTopology(n_nodes, **kwargs)  # type: ignore[arg-type]
