"""§6 "Comparison with CC++/Nexus": ThAM vs the Nexus baseline.

The same CC++ application code runs under both runtimes; the table
reports the elapsed-time ratio (Nexus / ThAM), next to the paper's bands:
5–6× for compute-bound runs, 16–22× for water with 64 molecules, 10× for
em3d-bulk, 29× for em3d-ghost and 35× for em3d-base (all at 100 % remote
edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper, serde
from repro.experiments.scorecard import Check
from repro.util.tables import TextTable

__all__ = ["NexusCompareResult", "run"]

#: workload label -> its ``paper.NEXUS_SPEEDUPS`` row, where they differ
_PAPER_ROW = {
    "water-atomic 64": "water-64",
    "water-prefetch 64": "water-64",
    "lu": "compute-bound (water-512, lu)",
}


@dataclass(slots=True)
class NexusCompareResult(serde.Codec):
    """Per-workload ThAM and Nexus times plus the speedup."""

    tham_us: dict[str, float] = field(default_factory=dict)
    nexus_us: dict[str, float] = field(default_factory=dict)

    def speedup(self, label: str) -> float:
        return self.nexus_us[label] / self.tham_us[label]

    def claims(self) -> list[Check]:
        """The two ends of §6's speedup range, and their order."""
        em3d, lu = self.speedup("em3d-base"), self.speedup("lu")
        return [
            Check.of("ThAM vs Nexus, em3d-base", paper.nexus_band("em3d-base"),
                     em3d, 25.0 <= em3d <= 50.0),
            Check.of("ThAM vs Nexus, compute-bound LU", paper.nexus_band(_PAPER_ROW["lu"]),
                     lu, 3.5 <= lu <= 8.0),
            Check.of("speedup grows with comm/comp ratio", "yes", em3d / lu, em3d > lu),
        ]

    def render(self) -> str:
        t = TextTable(
            ["workload", "ThAM (ms)", "Nexus (ms)", "speedup", "paper band"],
            title="CC++/ThAM vs CC++/Nexus (same application code)",
        )
        for label in self.tham_us:
            row = _PAPER_ROW.get(label, label)
            t.add_row(
                [
                    label,
                    f"{self.tham_us[label] / 1e3:.2f}",
                    f"{self.nexus_us[label] / 1e3:.2f}",
                    f"{self.speedup(label):.1f}x",
                    paper.nexus_band(row) if row in paper.NEXUS_SPEEDUPS else "-",
                ]
            )
        return t.render()


def run(*, quick: bool = True, seed: int = 1997) -> NexusCompareResult:
    """Regenerate the ThAM/Nexus comparison."""
    from repro.apps.em3d import Em3dGraph, Em3dParams, run_ccpp_em3d
    from repro.apps.lu import LuParams, LuWorkload, run_ccpp_lu
    from repro.apps.water import WaterParams, WaterSystem, run_ccpp_water
    from repro.nexus import make_nexus_runtime

    result = NexusCompareResult()

    em3d_params = (
        Em3dParams(n_nodes=160, degree=8, n_procs=4, pct_remote=1.0, seed=seed)
        if quick
        else Em3dParams(n_nodes=800, degree=20, n_procs=4, pct_remote=1.0, seed=seed)
    )
    graph = Em3dGraph(em3d_params)
    for version in ("base", "ghost", "bulk"):
        label = f"em3d-{version}"
        tham = run_ccpp_em3d(graph, steps=1, version=version, warmup_steps=0)
        nexus = run_ccpp_em3d(
            graph, steps=1, version=version, warmup_steps=0,
            runtime_factory=make_nexus_runtime,
        )
        result.tham_us[label] = tham.elapsed_us
        result.nexus_us[label] = nexus.elapsed_us

    water64 = WaterSystem(WaterParams(n_molecules=32 if quick else 64, n_procs=4, steps=1, seed=seed))
    for version in ("atomic", "prefetch"):
        label = f"water-{version} 64"
        tham = run_ccpp_water(water64, version=version)
        nexus = run_ccpp_water(water64, version=version, runtime_factory=make_nexus_runtime)
        result.tham_us[label] = tham.elapsed_us
        result.nexus_us[label] = nexus.elapsed_us

    lu_work = LuWorkload(
        LuParams(n=96, block=16, n_procs=4, seed=seed)
        if quick
        else LuParams(n=256, block=16, n_procs=4, seed=seed)
    )
    tham = run_ccpp_lu(lu_work)
    nexus = run_ccpp_lu(lu_work, runtime_factory=make_nexus_runtime)
    result.tham_us["lu"] = tham.elapsed_us
    result.nexus_us["lu"] = nexus.elapsed_us

    return result
