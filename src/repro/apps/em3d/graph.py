"""EM3D workload generation.

The benchmark graph of §5: ``n_nodes`` graph nodes (half E, half H)
distributed evenly over ``n_procs`` processors, each node with ``degree``
neighbours of the other kind; the fraction of edges crossing processor
boundaries is a parameter (10–100 % in Figure 5).

Node numbering: E-nodes then H-nodes, assigned round-robin to processors
so every processor holds ``n/2P`` of each kind.  Edges are directed
*dependencies*: node ``u`` reads each of its ``degree`` neighbours every
step (the paper counts these 800 × 20 / 2-per-kind as "4000 edges").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.em3d.layout import Em3dLayout
from repro.errors import ReproError
from repro.util.rng import make_rng

__all__ = ["Em3dParams", "Em3dGraph", "GraphNode"]


@dataclass(frozen=True, slots=True)
class Em3dParams:
    """Workload parameters (defaults = the paper's benchmark run).

    ``chunked=True`` selects the batched graph-build path: neighbour and
    weight draws happen as whole-array RNG calls instead of four Python-
    level draws per edge, which is what makes 1k–4k-processor inputs
    affordable to construct.  The batched stream consumes the generator
    differently, so for a given seed it is a *different* (equally
    deterministic and equally distributed) graph family than the
    sequential build — it's a new workload scale, not a replacement:
    every pre-existing scenario keeps ``chunked=False`` and its exact
    historical graph.
    """

    n_nodes: int = 800       # total graph nodes (half E, half H)
    degree: int = 20         # neighbours per node
    n_procs: int = 4
    pct_remote: float = 1.0  # fraction of edges crossing processors
    seed: int = 1997
    chunked: bool = False    # batched build (large-scale graphs)

    def validate(self) -> "Em3dParams":
        if self.n_nodes % (2 * self.n_procs):
            raise ReproError(
                f"n_nodes={self.n_nodes} must be divisible by 2*n_procs so every "
                "processor holds the same number of E- and H-nodes"
            )
        if self.degree < 1:
            raise ReproError("degree must be >= 1")
        if not 0.0 <= self.pct_remote <= 1.0:
            raise ReproError(f"pct_remote={self.pct_remote} out of [0, 1]")
        return self


@dataclass(slots=True)
class GraphNode:
    """One graph node, in structure-of-arrays-friendly form."""

    gid: int              # global node id
    proc: int             # owning processor
    local: int            # index into the owner's value array
    is_e: bool
    neighbors: list[int] = field(default_factory=list)   # global ids
    weights: list[float] = field(default_factory=list)


class Em3dGraph:
    """The distributed bipartite graph plus layout metadata.

    The structure (adjacency, weights, placement) is plain Python shared
    by the harness; the *values* live in simulated per-node memory — the
    structure is what a real program's load phase would replicate.
    """

    def __init__(self, params: Em3dParams):
        self.params = params.validate()
        p = self.params
        rng = make_rng(p.seed)
        half = p.n_nodes // 2
        per_proc_half = half // p.n_procs

        self.nodes: list[GraphNode] = []
        # E-nodes: gids [0, half); H-nodes: gids [half, n)
        for kind_base, is_e in ((0, True), (half, False)):
            for i in range(half):
                proc = i % p.n_procs
                local = i // p.n_procs
                self.nodes.append(GraphNode(kind_base + i, proc, local, is_e))

        if p.chunked:
            self._build_edges_chunked(rng, half, per_proc_half)
        else:
            # choose neighbours: for node u on proc q, a remote edge picks
            # a partner of the other kind on a different processor
            for u in self.nodes:
                other_base = half if u.is_e else 0
                n_remote = int(round(p.degree * p.pct_remote))
                for k in range(p.degree):
                    remote = k < n_remote
                    if p.n_procs == 1:
                        remote = False
                    if remote:
                        proc = int(rng.integers(p.n_procs - 1))
                        if proc >= u.proc:
                            proc += 1
                    else:
                        proc = u.proc
                    local = int(rng.integers(per_proc_half))
                    v_gid = other_base + proc + local * p.n_procs
                    u.neighbors.append(v_gid)
                    u.weights.append(float(rng.uniform(0.1, 1.0)))

        #: initial node values, by global id (reference + simulated runs
        #: both start from this state)
        self.initial = np.asarray(rng.uniform(-1.0, 1.0, p.n_nodes))

        # (proc, kind) slices in node order, in one pass: value_slot() and
        # local_nodes() sit on the layout construction path, and a scan
        # per call or per slice made it O(nodes x processors)
        self._local: dict[tuple[int, bool], list[GraphNode]] = {}
        for n in self.nodes:
            self._local.setdefault((n.proc, n.is_e), []).append(n)
        self._layout: Em3dLayout | None = None

    def _build_edges_chunked(
        self, rng, half: int, per_proc_half: int
    ) -> None:
        """Batched neighbour selection: one RNG call per quantity per
        kind-half instead of four Python-level draws per edge.

        Statistically matched to the sequential build (same remote-edge
        count per node, same partner/weight distributions), but a
        different draw order, hence a different concrete graph for the
        same seed — see :class:`Em3dParams`.
        """
        p = self.params
        n_remote = int(round(p.degree * p.pct_remote))
        if p.n_procs == 1:
            n_remote = 0
        for kind_base, other_base in ((0, half), (half, 0)):
            # owning processor of row i is i % n_procs (round-robin)
            u_proc = np.arange(half, dtype=np.int64) % p.n_procs
            procs = np.repeat(u_proc[:, None], p.degree, axis=1)
            if n_remote:
                draw = rng.integers(
                    p.n_procs - 1, size=(half, n_remote), dtype=np.int64
                )
                # skip-own-proc shift, vectorized over the whole half
                draw += draw >= u_proc[:, None]
                procs[:, :n_remote] = draw
            locals_ = rng.integers(
                per_proc_half, size=(half, p.degree), dtype=np.int64
            )
            weights = rng.uniform(0.1, 1.0, size=(half, p.degree))
            gids = other_base + procs + locals_ * p.n_procs
            nodes = self.nodes
            for i in range(half):
                u = nodes[kind_base + i]
                u.neighbors = gids[i].tolist()
                u.weights = weights[i].tolist()

    # -------------------------------------------------------------- geometry

    @property
    def layout(self) -> Em3dLayout:
        """The per-processor execution plans, built on first use and kept
        as long as the graph: nothing changes a graph or a plan after
        construction, so every run on this graph shares one layout."""
        layout = self._layout
        if layout is None:
            layout = self._layout = Em3dLayout(self)
        return layout

    @property
    def edge_terms_per_step(self) -> int:
        """Weighted-sum terms evaluated per step (both phases)."""
        return sum(len(n.neighbors) for n in self.nodes)

    def owner(self, gid: int) -> tuple[int, int]:
        """global id -> (proc, local index)."""
        n = self.nodes[gid]
        return n.proc, n.local

    def local_nodes(self, proc: int, *, e_nodes: bool) -> list[GraphNode]:
        """The ``proc``'s E- (or H-) nodes, in global-id order."""
        return self._local.get((proc, e_nodes)) or []

    def local_value_count(self, proc: int) -> int:
        """Elements of the per-processor value region (E then H halves,
        equal in size: ``n_nodes`` divides by ``2 * n_procs``)."""
        return 2 * len(self.local_nodes(proc, e_nodes=True))

    def value_slot(self, gid: int) -> tuple[int, int]:
        """global id -> (proc, offset in the per-proc value region).

        Layout per processor: E-node values first, then H-node values —
        matching a Split-C spread-array declaration per kind.
        """
        node = self.nodes[gid]
        half_local = len(self.local_nodes(node.proc, e_nodes=True))
        off = node.local if node.is_e else half_local + node.local
        return node.proc, off

    def remote_ghosts(self, proc: int, *, for_e_phase: bool) -> dict[int, list[int]]:
        """For the ghost/bulk versions: per source processor, the sorted
        distinct remote gids that ``proc`` reads in the given phase.

        ``for_e_phase=True`` is the phase updating E-nodes (reading H
        neighbours)."""
        needed: set[int] = set()
        for n in self.local_nodes(proc, e_nodes=for_e_phase):
            for v in n.neighbors:
                if self.nodes[v].proc != proc:
                    needed.add(v)
        by_src: dict[int, list[int]] = {}
        for gid in sorted(needed):
            by_src.setdefault(self.nodes[gid].proc, []).append(gid)
        return by_src
