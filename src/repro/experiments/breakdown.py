"""Shared rendering for the stacked-bar figures (5 and 6).

A figure bar becomes one table row: absolute time, the CC++/Split-C
ratio, and the five component shares the paper stacks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import serde
from repro.util.tables import TextTable
from repro.util.units import us_to_s

__all__ = ["BreakdownRow", "CSV_COLUMNS", "render_rows"]

_COMPONENTS = ("cpu", "net", "thread mgmt", "thread sync", "runtime")

#: header of the cells :meth:`BreakdownRow.csv_cells` returns
CSV_COLUMNS = ("language", "elapsed_us", "normalized") + tuple(
    c.replace(" ", "_") for c in _COMPONENTS
)


@dataclass(slots=True)
class BreakdownRow(serde.Codec):
    """One bar of a breakdown figure."""

    label: str
    language: str            # 'splitc' | 'ccpp'
    elapsed_us: float
    breakdown: dict[str, float]
    normalized: float        # elapsed / Split-C elapsed for the same config

    def component_fractions(self) -> dict[str, float]:
        """Per-component share of the charged time (idle folded into net,
        as the paper's *net* bars include wait time)."""
        folded = dict(self.breakdown)
        folded["net"] = folded.get("net", 0.0) + folded.pop("idle", 0.0)
        total = sum(folded.get(c, 0.0) for c in _COMPONENTS)
        if total <= 0:
            return {c: 0.0 for c in _COMPONENTS}
        return {c: folded.get(c, 0.0) / total for c in _COMPONENTS}

    def csv_cells(self) -> list[str]:
        """This bar's share of a figure's CSV row (see ``CSV_COLUMNS``)."""
        frac = self.component_fractions()
        return [
            self.language, f"{self.elapsed_us:.3f}", f"{self.normalized:.4f}"
        ] + [f"{frac[c]:.4f}" for c in _COMPONENTS]


def render_rows(title: str, rows: list[BreakdownRow]) -> str:
    """Text rendering of a breakdown figure."""
    t = TextTable(
        ["bar", "lang", "time (s)", "vs split-c"] + [f"{c} %" for c in _COMPONENTS],
        title=title,
    )
    for r in rows:
        frac = r.component_fractions()
        t.add_row(
            [
                r.label,
                r.language,
                f"{us_to_s(r.elapsed_us):.4f}",
                f"{r.normalized:.2f}",
            ]
            + [f"{100 * frac[c]:.0f}" for c in _COMPONENTS]
        )
    return t.render()
