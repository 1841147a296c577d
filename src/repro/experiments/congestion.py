"""Congestion microbenchmarks on the hierarchical fabrics.

The flat crossbar the paper's 4–160-node runs used cannot congest: every
packet pays latency + serialization and teleports, so offered load never
meets a shared resource.  The HPX+LCI case study (PAPERS.md) identifies
the regimes that matter at real scale — bandwidth saturation and message
rate under hotspot traffic — and this artifact reproduces them on the
:mod:`repro.machine.topology` fabrics:

* **all-to-all saturation** — every node sends ``load`` messages to every
  other node, for a ladder of loads, on the flat crossbar *and* on the
  chosen hierarchical fabric.  On the crossbar achieved aggregate
  bandwidth climbs linearly with offered load forever; on a fat-tree it
  climbs, then **plateaus at link capacity** once the oversubscribed
  upper links saturate.  That contrast is the acceptance gate (a test
  asserts it).
* **incast hotspot** — every node fires at node 0.  The victim's
  ejection access link serializes the entire volume: elapsed grows
  linearly with senders and the hot link shows ~100 % utilization.
* **bisection sweep** — node ``i`` pairs with ``i + n/2``, the classic
  worst case for hierarchical fabrics; exported as CSV for CI.

The traffic is injected straight into :meth:`Network.transmit` (no
threads, no runtimes): packet order is a deterministic loop, so the
whole artifact is cheap enough to sweep.  Virtual throughput in MB/s
uses the simulator's µs clock: ``bytes / elapsed_us`` = B/µs = MB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.experiments import serde
from repro.util.tables import TextTable

if TYPE_CHECKING:
    from repro.machine.cluster import Cluster
    from repro.machine.costs import CostModel

__all__ = [
    "CongestionResult",
    "SaturationPoint",
    "IncastPoint",
    "BisectionPoint",
    "measure_pattern",
    "run",
]

DEFAULT_LOADS = (1, 2, 4, 8, 16)
DEFAULT_TOPOLOGY = "fattree:arity=8,fatness=2"


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SaturationPoint(serde.Codec):
    """One all-to-all load level, measured on both fabrics."""

    load: int                # messages per (src, dst) pair
    offered_bytes: int
    flat_elapsed_us: float
    flat_mbps: float
    topo_elapsed_us: float
    topo_mbps: float
    topo_max_util: float     # busiest link's busy fraction
    topo_queued_us: float    # total time packets sat behind busy links


@dataclass(slots=True)
class IncastPoint(serde.Codec):
    """All nodes fire ``load`` messages each at node 0."""

    load: int
    total_bytes: int
    elapsed_us: float
    mbps: float
    hot_link: str            # busiest link (the victim's ejection port)
    hot_util: float
    queued_us: float


@dataclass(slots=True)
class BisectionPoint(serde.Codec):
    """Pairwise cross-bisection traffic at one load level."""

    load: int
    total_bytes: int
    elapsed_us: float
    mbps: float
    max_util: float
    queued_us: float


@dataclass(slots=True)
class CongestionResult(serde.Codec):
    topology: str = DEFAULT_TOPOLOGY
    nodes: int = 0
    msg_bytes: int = 0
    saturation: list[SaturationPoint] = field(default_factory=list)
    incast: list[IncastPoint] = field(default_factory=list)
    bisection: list[BisectionPoint] = field(default_factory=list)

    # ---------------------------------------------------------- diagnostics

    def saturates(self) -> bool:
        """True when the hierarchical fabric's curve has flattened while
        the crossbar's is still climbing with offered load (the
        bandwidth-saturation signature this artifact exists to show).

        "Flattened" = the last doubling of offered load bought < 25 %
        more achieved bandwidth; the crossbar, with nothing shared, gains
        ~100 % per doubling throughout.
        """
        s = self.saturation
        if len(s) < 3:
            return False
        last, prev = s[-1], s[-2]
        load_growth = last.load / prev.load
        topo_gain = last.topo_mbps / prev.topo_mbps
        flat_gain = last.flat_mbps / prev.flat_mbps
        return topo_gain < 1.0 + 0.25 * (load_growth - 1.0) and flat_gain > topo_gain

    # -------------------------------------------------------------- render

    def render(self) -> str:
        out = []
        t = TextTable(
            ["load", "offered MB", "flat MB/s", f"{self.topology.split(':')[0]} MB/s",
             "max util", "queued ms"],
            title=(
                f"All-to-all saturation — {self.nodes} nodes, "
                f"{self.msg_bytes} B messages, {self.topology}"
            ),
        )
        for p in self.saturation:
            t.add_row([
                str(p.load),
                f"{p.offered_bytes / 1e6:.2f}",
                f"{p.flat_mbps:.1f}",
                f"{p.topo_mbps:.1f}",
                f"{p.topo_max_util:.2f}",
                f"{p.topo_queued_us / 1e3:.2f}",
            ])
        out.append(t.render())
        verdict = (
            "fabric saturates (crossbar keeps climbing)"
            if self.saturates()
            else "no saturation at these loads"
        )
        out.append(f"saturation verdict: {verdict}")

        t = TextTable(
            ["senders x load", "total MB", "elapsed ms", "MB/s", "hot link", "util"],
            title="Incast hotspot — everyone fires at node 0",
        )
        for p in self.incast:
            t.add_row([
                f"{self.nodes - 1} x {p.load}",
                f"{p.total_bytes / 1e6:.2f}",
                f"{p.elapsed_us / 1e3:.2f}",
                f"{p.mbps:.1f}",
                p.hot_link,
                f"{p.hot_util:.2f}",
            ])
        out.append(t.render())

        t = TextTable(
            ["load", "total MB", "elapsed ms", "MB/s", "max util", "queued ms"],
            title="Bisection sweep — node i <-> i + n/2",
        )
        for p in self.bisection:
            t.add_row([
                str(p.load),
                f"{p.total_bytes / 1e6:.2f}",
                f"{p.elapsed_us / 1e3:.2f}",
                f"{p.mbps:.1f}",
                f"{p.max_util:.2f}",
                f"{p.queued_us / 1e3:.2f}",
            ])
        out.append(t.render())
        return "\n\n".join(out)

    def csv(self) -> str:
        """Bisection sweep as CSV (the CI-archived artifact)."""
        lines = ["pattern,load,total_bytes,elapsed_us,mbps,max_util,queued_us"]
        for p in self.bisection:
            lines.append(
                f"bisection,{p.load},{p.total_bytes},{p.elapsed_us:.3f},"
                f"{p.mbps:.3f},{p.max_util:.4f},{p.queued_us:.3f}"
            )
        for p in self.saturation:
            lines.append(
                f"alltoall,{p.load},{p.offered_bytes},{p.topo_elapsed_us:.3f},"
                f"{p.topo_mbps:.3f},{p.topo_max_util:.4f},{p.topo_queued_us:.3f}"
            )
        for p in self.incast:
            lines.append(
                f"incast,{p.load},{p.total_bytes},{p.elapsed_us:.3f},"
                f"{p.mbps:.3f},{p.hot_util:.4f},{p.queued_us:.3f}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# traffic drivers
# ---------------------------------------------------------------------------


def _drive(
    n: int,
    topology: str | None,
    pairs: list[tuple[int, int]],
    msg_bytes: int,
    costs: CostModel,
) -> tuple[float, Cluster]:
    """Inject one packet per (src, dst) pair at t=0 and drain the fabric.

    Raw network traffic — no threads block on anything, so ``run()``
    just delivers everything; elapsed is the last arrival time.
    """
    from repro.machine.cluster import Cluster
    from repro.machine.network import Packet

    cluster = Cluster(n, costs=costs, topology=topology)
    net = cluster.network
    for src, dst in pairs:
        net.transmit(
            Packet(src=src, dst=dst, kind="congest", payload=None, nbytes=msg_bytes),
            bulk=True,
        )
    cluster.run()
    return cluster.sim.now, cluster


def _alltoall_pairs(n: int, load: int) -> list[tuple[int, int]]:
    # round-robin rotation: every round, node i targets i+shift — the
    # deterministic schedule real all-to-alls use, and it spreads load
    # over sources evenly
    return [
        (src, (src + shift) % n)
        for _ in range(load)
        for shift in range(1, n)
        for src in range(n)
    ]


def measure_pattern(
    n: int, topology: str | None, pairs: list[tuple[int, int]],
    msg_bytes: int, costs: CostModel,
) -> tuple[float, float, float, float, str]:
    """elapsed, MB/s, max util, queued µs, hot-link label."""
    elapsed, cluster = _drive(n, topology, pairs, msg_bytes, costs)
    total = len(pairs) * msg_bytes
    mbps = total / elapsed if elapsed > 0 else 0.0
    topo = cluster.topology
    if topo is not None and topo.contention:
        util = topo.max_utilization(elapsed)
        queued = topo.total_queued_us()
        hot = topo.hot_links(1)
        label = hot[0]["link"] if hot else "-"
    else:
        util, queued, label = 0.0, 0.0, "-"
    return elapsed, mbps, util, queued, label


# ---------------------------------------------------------------------------
# the artifact
# ---------------------------------------------------------------------------


def run(
    *,
    nodes: int = 64,
    topology: str = DEFAULT_TOPOLOGY,
    loads: tuple[int, ...] = DEFAULT_LOADS,
    msg_bytes: int = 4096,
    costs: CostModel | None = None,
) -> CongestionResult:
    """Run the three congestion patterns; see the module docstring
    (``costs=None`` is the calibrated SP-2 model)."""
    from repro.machine.costs import SP2_COSTS
    from repro.machine.topology import make_topology

    if costs is None:
        costs = SP2_COSTS
    if nodes < 4 or nodes % 2:
        raise ReproError(f"congestion needs an even node count >= 4, got {nodes}")
    if make_topology(topology, nodes).contention is False:
        raise ReproError(
            "the congestion artifact contrasts a contended fabric against the "
            f"flat crossbar; topology={topology!r} cannot congest"
        )
    result = CongestionResult(topology=topology, nodes=nodes, msg_bytes=msg_bytes)

    for load in loads:
        pairs = _alltoall_pairs(nodes, load)
        offered = len(pairs) * msg_bytes
        f_el, f_mbps, _, _, _ = measure_pattern(nodes, None, pairs, msg_bytes, costs)
        t_el, t_mbps, t_util, t_q, _ = measure_pattern(
            nodes, topology, pairs, msg_bytes, costs
        )
        result.saturation.append(SaturationPoint(
            load=load, offered_bytes=offered,
            flat_elapsed_us=f_el, flat_mbps=f_mbps,
            topo_elapsed_us=t_el, topo_mbps=t_mbps,
            topo_max_util=t_util, topo_queued_us=t_q,
        ))

    for load in loads:
        pairs = [(src, 0) for _ in range(load) for src in range(1, nodes)]
        total = len(pairs) * msg_bytes
        el, mbps, util, queued, label = measure_pattern(
            nodes, topology, pairs, msg_bytes, costs
        )
        result.incast.append(IncastPoint(
            load=load, total_bytes=total, elapsed_us=el, mbps=mbps,
            hot_link=label, hot_util=util, queued_us=queued,
        ))

    half = nodes // 2
    for load in loads:
        pairs = [
            (src, dst)
            for _ in range(load)
            for i in range(half)
            for src, dst in ((i, i + half), (i + half, i))
        ]
        total = len(pairs) * msg_bytes
        el, mbps, util, queued, _ = measure_pattern(nodes, topology, pairs, msg_bytes, costs)
        result.bisection.append(BisectionPoint(
            load=load, total_bytes=total, elapsed_us=el, mbps=mbps,
            max_util=util, queued_us=queued,
        ))
    return result
