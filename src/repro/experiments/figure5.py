"""Figure 5: EM3D per-edge execution-time breakdown.

Three versions × four remote-edge fractions × two languages, normalized
per configuration against Split-C, with the five-component stacks.
``quick=True`` (default) runs a reduced-but-same-shape graph so the whole
figure regenerates in seconds; ``quick=False`` uses the paper's 800-node,
degree-20 graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper, serde
from repro.experiments.breakdown import CSV_COLUMNS, BreakdownRow, render_rows
from repro.experiments.scorecard import Check

__all__ = ["Figure5Result", "run"]

PCTS = (0.1, 0.4, 0.7, 1.0)
VERSIONS = ("base", "ghost", "bulk")


@dataclass(slots=True)
class Figure5Result(serde.Codec):
    """All bars of Figure 5, keyed by (version, pct, language)."""

    rows: dict[tuple[str, float, str], BreakdownRow] = field(default_factory=dict)
    per_edge_us: dict[tuple[str, float, str], float] = field(default_factory=dict)

    def ratio(self, version: str, pct: float) -> float:
        """CC++ / Split-C per-edge time for one configuration."""
        return (
            self.per_edge_us[(version, pct, "ccpp")]
            / self.per_edge_us[(version, pct, "splitc")]
        )

    def claims(self) -> list[Check]:
        """The ratios at 100 % remote edges, the gap's trend from 10 %,
        and what the ghost nodes buy (needs those two fractions)."""
        base, ghost = self.ratio("base", 1.0), self.ratio("ghost", 1.0)
        low = self.ratio("base", 0.1)
        cut = 1.0 - (self.per_edge_us[("ghost", 1.0, "splitc")]
                     / self.per_edge_us[("base", 1.0, "splitc")])
        lo, hi = paper.FIGURE5_GHOST_CUT_PCT
        return [
            Check.of("em3d-base ratio @100% remote",
                     f"~{paper.FIGURE5_RATIO['base']:g}x", base, 1.4 <= base <= 2.6),
            Check.of("em3d-ghost ratio @100% remote",
                     f"~{paper.FIGURE5_RATIO['ghost']:g}x", ghost, 1.8 <= ghost <= 3.2),
            Check.of("em3d-base gap biggest at low remote %", "decreasing",
                     low - base, low > base),
            Check.of("ghost cuts base (Split-C)", f"{lo:g}-{hi:g}%", 100 * cut, cut > 0.6),
        ]

    def render(self) -> str:
        ordered = [
            self.rows[(v, pct, lang)]
            for v in VERSIONS
            for pct in sorted({k[1] for k in self.rows if k[0] == v})
            for lang in ("splitc", "ccpp")
            if (v, pct, lang) in self.rows
        ]
        return render_rows(
            "Figure 5 — EM3D per-edge breakdown (normalized vs Split-C)", ordered
        )

    def csv(self) -> str:
        """One row per (version, pct, language) bar."""
        import csv
        import io

        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["version", "pct_remote", *CSV_COLUMNS])
        for (version, pct, _lang), row in sorted(self.rows.items()):
            w.writerow([version, pct] + row.csv_cells())
        return out.getvalue()


def run(
    *,
    quick: bool = True,
    pcts: tuple[float, ...] = PCTS,
    versions: tuple[str, ...] = VERSIONS,
    steps: int = 1,
    seed: int = 1997,
    topology: str = "flat",
) -> Figure5Result:
    """Regenerate Figure 5.

    ``topology`` shapes the interconnect ("flat" = the paper's
    contention-free crossbar, bit-identical to the historical figure;
    "ring" / "fattree:..." re-runs the same workload over a contended
    fabric — an axis the sweep CLI can grid over).
    """
    from repro.apps.em3d import Em3dGraph, Em3dParams, run_ccpp_em3d, run_splitc_em3d

    if quick:
        base_params = dict(n_nodes=160, degree=8, n_procs=4, seed=seed)
    else:
        base_params = dict(n_nodes=800, degree=20, n_procs=4, seed=seed)
    # None (not a FlatTopology) for "flat", so the cluster build is the
    # exact historical call — byte-identity is checked by CI
    topo = None if topology == "flat" else topology

    result = Figure5Result()
    for pct in pcts:
        graph = Em3dGraph(Em3dParams(pct_remote=pct, **base_params))
        for version in versions:
            sc = run_splitc_em3d(
                graph, steps=steps, version=version, warmup_steps=1, topology=topo
            )
            cc = run_ccpp_em3d(
                graph, steps=steps, version=version, warmup_steps=1, topology=topo
            )
            for lang, res in (("splitc", sc), ("ccpp", cc)):
                key = (version, pct, lang)
                result.per_edge_us[key] = res.per_edge_us
                result.rows[key] = BreakdownRow(
                    label=f"em3d-{version} {int(pct * 100)}%",
                    language=lang,
                    elapsed_us=res.elapsed_us,
                    breakdown=res.breakdown,
                    normalized=res.elapsed_us / sc.elapsed_us,
                )
    return result
