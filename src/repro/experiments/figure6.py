"""Figure 6: Water and LU execution-time breakdowns.

Water with 64 and 512 molecules (atomic + prefetch) and blocked LU of a
512×512 matrix, each in both languages, normalized against Split-C.
``quick=True`` shrinks the inputs (32/96 molecules, 128×128 matrix) while
keeping every code path; ``quick=False`` runs the paper's sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper, serde
from repro.experiments.breakdown import CSV_COLUMNS, BreakdownRow, render_rows
from repro.experiments.scorecard import Check

__all__ = ["Figure6Result", "run"]


@dataclass(slots=True)
class Figure6Result(serde.Codec):
    """All bars of Figure 6, keyed by (app-label, language)."""

    rows: dict[tuple[str, str], BreakdownRow] = field(default_factory=dict)

    def ratio(self, label: str) -> float:
        return (
            self.rows[(label, "ccpp")].elapsed_us
            / self.rows[(label, "splitc")].elapsed_us
        )

    def labels(self) -> list[str]:
        return sorted({k[0] for k in self.rows})

    def claims(self) -> list[Check]:
        """Every bar's ratio inside a band just above the paper's, and
        prefetching narrowing the atomic gap at the largest Water size."""
        band = "{:g}-{:g}x band".format(*paper.FIGURE6_RATIO_BAND)
        checks = []
        for label in self.labels():
            ratio = self.ratio(label)
            checks.append(Check.of(f"F6 {label} CC++/SC ratio", band, ratio,
                                   1.0 <= ratio <= 7.0))
        big = max(
            int(label.rsplit(" ", 1)[1])
            for label in self.labels() if label.startswith("water-atomic")
        )
        atomic = self.ratio(f"water-atomic {big}")
        prefetch = self.ratio(f"water-prefetch {big}")
        return checks + [Check.of(
            "water prefetch narrows the atomic gap", "yes",
            atomic - prefetch, prefetch < atomic,
        )]

    def render(self) -> str:
        ordered = []
        for label in self.labels():
            for lang in ("splitc", "ccpp"):
                if (label, lang) in self.rows:
                    ordered.append(self.rows[(label, lang)])
        return render_rows(
            "Figure 6 — Water and LU breakdown (normalized vs Split-C)", ordered
        )

    def csv(self) -> str:
        """One row per (app-label, language) bar."""
        import csv
        import io

        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["app", *CSV_COLUMNS])
        for (label, _lang), row in sorted(self.rows.items()):
            w.writerow([label] + row.csv_cells())
        return out.getvalue()


def _add(result: Figure6Result, label: str, sc, cc) -> None:
    for lang, res in (("splitc", sc), ("ccpp", cc)):
        result.rows[(label, lang)] = BreakdownRow(
            label=label,
            language=lang,
            elapsed_us=res.elapsed_us,
            breakdown=res.breakdown,
            normalized=res.elapsed_us / sc.elapsed_us,
        )


def run(
    *,
    quick: bool = True,
    water_versions: tuple[str, ...] = ("atomic", "prefetch"),
    include_lu: bool = True,
    seed: int = 1997,
) -> Figure6Result:
    """Regenerate Figure 6."""
    from repro.apps.lu import LuParams, LuWorkload, run_ccpp_lu, run_splitc_lu
    from repro.apps.water import WaterParams, WaterSystem, run_ccpp_water, run_splitc_water

    water_sizes = (32, 96) if quick else (64, 512)
    lu_config = LuParams(n=128, block=16, n_procs=4, seed=seed) if quick else LuParams(
        n=512, block=16, n_procs=4, seed=seed
    )

    result = Figure6Result()
    for n_mol in water_sizes:
        system = WaterSystem(WaterParams(n_molecules=n_mol, n_procs=4, steps=1, seed=seed))
        for version in water_versions:
            sc = run_splitc_water(system, version=version)
            cc = run_ccpp_water(system, version=version)
            _add(result, f"water-{version} {n_mol}", sc, cc)
    if include_lu:
        work = LuWorkload(lu_config)
        sc = run_splitc_lu(work)
        cc = run_ccpp_lu(work)
        _add(result, f"lu {lu_config.n}", sc, cc)
    return result
