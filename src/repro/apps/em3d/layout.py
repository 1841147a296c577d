"""Shared per-processor execution plans for the EM3D versions.

Both language implementations iterate the same plans, so the comparison
isolates the communication systems — the paper's footnote 1 ("the CC++
version is heavily based on the original Split-C implementation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the graph module imports this one
    from repro.apps.em3d.graph import Em3dGraph

__all__ = ["PhasePlan", "Em3dLayout", "VERSIONS"]

VERSIONS = ("base", "ghost", "bulk")


@dataclass(slots=True)
class NodeUpdate:
    """How one local graph node computes its new value."""

    gid: int
    value_off: int                 # offset of this node in the local region
    weights: list[float]
    #: per neighbour: (is_local, owner proc, offset in owner's region)
    sources: list[tuple[bool, int, int]]


@dataclass(slots=True)
class PhasePlan:
    """Everything one processor does in one half-step (E or H phase)."""

    updates: list[NodeUpdate] = field(default_factory=list)
    #: distinct remote gid -> ghost slot (ghost/bulk versions)
    ghost_slot: dict[int, int] = field(default_factory=dict)
    #: per source proc: ordered gids fetched from it (ghost/bulk)
    by_src: dict[int, list[int]] = field(default_factory=dict)
    #: per reader proc: ordered gids this processor must export (bulk)
    exports: dict[int, list[int]] = field(default_factory=dict)

    @property
    def n_local_terms(self) -> int:
        return sum(1 for u in self.updates for s in u.sources if s[0])

    @property
    def n_remote_terms(self) -> int:
        return sum(1 for u in self.updates for s in u.sources if not s[0])


class Em3dLayout:
    """Precomputed plans: ``plan[proc][phase]`` with phase 0 = E, 1 = H.

    Read-only once built: a graph builds its layout on first use and keeps
    it (:attr:`Em3dGraph.layout`), and every run on that graph shares it.
    """

    def __init__(self, graph: "Em3dGraph"):
        p = graph.params
        self.plans: list[list[PhasePlan]] = [
            [PhasePlan(), PhasePlan()] for _ in range(p.n_procs)
        ]
        for proc in range(p.n_procs):
            for phase, e_phase in ((0, True), (1, False)):
                plan = self.plans[proc][phase]
                by_src = graph.remote_ghosts(proc, for_e_phase=e_phase)
                plan.by_src = by_src
                slot = 0 if phase == 0 else self._ghost_count(proc, 0)
                for src in sorted(by_src):
                    for gid in by_src[src]:
                        plan.ghost_slot[gid] = slot
                        slot += 1
                for n in graph.local_nodes(proc, e_nodes=e_phase):
                    _, off = graph.value_slot(n.gid)
                    sources = []
                    for v in n.neighbors:
                        sproc, soff = graph.value_slot(v)
                        sources.append((sproc == proc, sproc, soff))
                    plan.updates.append(
                        NodeUpdate(n.gid, off, list(n.weights), sources)
                    )
        # export lists: what proc q reads from me is what I must pack.
        # Inverted from the readers' fetch lists so the cost is
        # O(reader-source pairs with traffic), not O(P^2) probes — at 1k+
        # processors the all-pairs scan dominated construction.  Readers
        # ascend, so each owner's exports dict gets the same insertion
        # order the dense scan produced.
        for reader in range(p.n_procs):
            for phase in (0, 1):
                for src, gids in self.plans[reader][phase].by_src.items():
                    if gids:
                        self.plans[src][phase].exports[reader] = gids

    def _ghost_count(self, proc: int, phase: int) -> int:
        return sum(len(v) for v in self.plans[proc][phase].by_src.values())

    def ghost_region_size(self, proc: int) -> int:
        """Slots needed for both phases' ghosts on one processor."""
        return self._ghost_count(proc, 0) + self._ghost_count(proc, 1)

    def export_region(self, src: int, reader: int, phase: int) -> str:
        """Region name of the packed export buffer on ``src``."""
        return f"em3d.exp.{reader}.{'e' if phase == 0 else 'h'}"
