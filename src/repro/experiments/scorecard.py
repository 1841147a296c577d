"""The reproduction scorecard: every paper claim, machine-checked.

``run()`` executes the whole harness and grades each headline claim of
the evaluation section against an explicit band.  This is EXPERIMENTS.md
as executable code — the bands encode how close "reproduced" must be,
and the render shows paper vs measured vs verdict in one table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import serde
from repro.util.tables import TextTable

__all__ = ["Check", "Scorecard", "run"]


@dataclass(slots=True)
class Check(serde.Codec):
    """One graded claim."""

    claim: str
    paper_value: str
    measured: str
    ok: bool


@dataclass(slots=True)
class Scorecard(serde.Codec):
    checks: list[Check] = field(default_factory=list)

    def add(self, claim: str, paper_value: str, measured: float | str, ok: bool) -> None:
        shown = f"{measured:.2f}" if isinstance(measured, float) else str(measured)
        self.checks.append(Check(claim, paper_value, shown, bool(ok)))

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def all_ok(self) -> bool:
        return self.passed == len(self.checks)

    def render(self) -> str:
        t = TextTable(
            ["claim", "paper", "measured", "verdict"],
            title="Reproduction scorecard",
        )
        for c in self.checks:
            t.add_row([c.claim, c.paper_value, c.measured, "ok" if c.ok else "MISS"])
        return (
            t.render()
            + f"\n\n{self.passed}/{len(self.checks)} claims reproduced within band"
        )


def run(*, quick: bool = True, iters: int = 30) -> Scorecard:
    """Grade the reproduction.  ``quick`` selects the reduced workloads
    (same shape); micro-benchmark absolutes are size-independent."""
    from repro.experiments import (
        ablations,
        figure5,
        figure6,
        nexus_compare,
        paper,
        scaling,
        table4,
    )

    card = Scorecard()

    # ---- Table 4 ---------------------------------------------------------
    t4 = table4.run(iters=iters)
    card.add(
        "AM base round trip", "55 us", t4.am_rtt_us,
        abs(t4.am_rtt_us - paper.AM_BASE_RTT_US) <= 3.0,
    )
    card.add(
        "IBM MPL round trip", "88 us", t4.mpl_rtt_us,
        abs(t4.mpl_rtt_us - paper.MPL_RTT_US) <= 4.0,
    )
    for name, ref in paper.TABLE4.items():
        row = t4.cc[name]
        card.add(
            f"T4 {name} (CC++)", f"{ref.cc_total:g} us", row.total_us,
            abs(row.total_us - ref.cc_total) <= 0.2 * ref.cc_total,
        )
        if ref.sc_total is not None and name in t4.sc:
            sc_row = t4.sc[name]
            card.add(
                f"T4 {name} (Split-C)", f"{ref.sc_total:g} us", sc_row.total_us,
                abs(sc_row.total_us - ref.sc_total) <= 0.2 * ref.sc_total,
            )
    null_gap = t4.cc["0-Word Simple"].total_us - t4.am_rtt_us
    card.add("null RMI minus AM RTT", "~12 us", null_gap, 5.0 <= null_gap <= 20.0)
    card.add(
        "null RMI beats MPL", "21 us faster",
        t4.mpl_rtt_us - t4.cc["0-Word Simple"].total_us,
        t4.cc["0-Word Simple"].total_us < t4.mpl_rtt_us,
    )
    card.add(
        "BulkRead pays double copy over BulkWrite", "+23 us runtime",
        t4.cc["BulkRead 40-Word"].runtime_us - t4.cc["BulkWrite 40-Word"].runtime_us,
        t4.cc["BulkRead 40-Word"].runtime_us
        > t4.cc["BulkWrite 40-Word"].runtime_us + 5.0,
    )

    # ---- Figure 5 --------------------------------------------------------
    f5 = figure5.run(quick=quick, pcts=(0.1, 1.0), steps=1)
    card.add(
        "em3d-base ratio @100% remote", f"~{paper.FIGURE5_RATIO['base']:g}x",
        f5.ratio("base", 1.0),
        1.4 <= f5.ratio("base", 1.0) <= 2.6,
    )
    card.add(
        "em3d-ghost ratio @100% remote", f"~{paper.FIGURE5_RATIO['ghost']:g}x",
        f5.ratio("ghost", 1.0),
        1.8 <= f5.ratio("ghost", 1.0) <= 3.2,
    )
    card.add(
        "em3d-base gap biggest at low remote %", "decreasing",
        f5.ratio("base", 0.1) - f5.ratio("base", 1.0),
        f5.ratio("base", 0.1) > f5.ratio("base", 1.0),
    )
    ghost_cut = 1.0 - (
        f5.per_edge_us[("ghost", 1.0, "splitc")]
        / f5.per_edge_us[("base", 1.0, "splitc")]
    )
    card.add("ghost cuts base (Split-C)", "87-89%", 100 * ghost_cut, ghost_cut > 0.6)

    # ---- Figure 6 --------------------------------------------------------
    f6 = figure6.run(quick=quick)
    for label in f6.labels():
        ratio = f6.ratio(label)
        card.add(f"F6 {label} CC++/SC ratio", "1-6x band", ratio, 1.0 <= ratio <= 7.0)
    sizes = sorted(
        int(l.rsplit(" ", 1)[1]) for l in f6.labels() if l.startswith("water-atomic")
    )
    big = max(sizes)
    card.add(
        "water prefetch narrows the atomic gap", "yes",
        f6.ratio(f"water-atomic {big}") - f6.ratio(f"water-prefetch {big}"),
        f6.ratio(f"water-prefetch {big}") < f6.ratio(f"water-atomic {big}"),
    )

    # ---- Nexus comparison -------------------------------------------------
    nx = nexus_compare.run(quick=quick)
    card.add(
        "ThAM vs Nexus, em3d-base", paper.nexus_band("em3d-base"), nx.speedup("em3d-base"),
        25.0 <= nx.speedup("em3d-base") <= 50.0,
    )
    card.add(
        "ThAM vs Nexus, compute-bound LU",
        paper.nexus_band("compute-bound (water-512, lu)"), nx.speedup("lu"),
        3.5 <= nx.speedup("lu") <= 8.0,
    )
    card.add(
        "speedup grows with comm/comp ratio", "yes",
        nx.speedup("em3d-base") / nx.speedup("lu"),
        nx.speedup("em3d-base") > nx.speedup("lu"),
    )

    # ---- Ablations & scaling ---------------------------------------------
    ab = ablations.run(iters=max(10, iters // 2))
    card.add(
        "lock acquisitions contention-less", ">=95%",
        100 * ab.contentionless_fraction, ab.contentionless_fraction >= 0.90,
    )
    by_name = {row[0]: row for row in ab.rows}
    card.add(
        "polling beats 50us interrupts", "motivates polling thread",
        by_name["interrupt reception"][3] - by_name["interrupt reception"][2],
        by_name["interrupt reception"][3] > by_name["interrupt reception"][2],
    )

    sc = scaling.run(sizes=(20, 2000))
    card.add(
        "bulk-copy hit appears at ~200x volume", "grows",
        sc.ratios()[-1] / sc.ratios()[0], sc.ratios()[-1] > 1.8 * sc.ratios()[0],
    )
    return card
