"""Table 4: the communication micro-benchmarks.

``run()`` executes every CC++ and Split-C micro-benchmark plus the raw AM
and MPL round-trip references, and returns a :class:`Table4Result` whose
``render()`` mirrors the paper's layout with the published numbers
alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper, serde
from repro.experiments.results import MicroRow
from repro.experiments.scorecard import Check
from repro.util.tables import TextTable

__all__ = ["Table4Result", "run"]


@dataclass(slots=True)
class Table4Result(serde.Codec):
    """Measured Table 4, with the raw-layer references."""

    cc: dict[str, MicroRow] = field(default_factory=dict)
    sc: dict[str, MicroRow] = field(default_factory=dict)
    am_rtt_us: float | None = None
    mpl_rtt_us: float | None = None

    def render(self) -> str:
        t = TextTable(
            [
                "Benchmark",
                "CC++ total",
                "(paper)",
                "AM",
                "threads",
                "runtime",
                "yield",
                "create",
                "sync",
                "SC total",
                "(paper)",
            ],
            title="Table 4 — micro-benchmarks (virtual us, per iteration)",
        )
        for name, ref in paper.TABLE4.items():
            cc = self.cc.get(name)
            sc = self.sc.get(name)
            if cc is None and sc is None and (self.cc or self.sc):
                continue  # filtered out via run(scenarios=...)
            t.add_row(
                [
                    name,
                    f"{cc.total_us:.1f}" if cc else "-",
                    f"{ref.cc_total:.0f}",
                    f"{cc.am_us:.1f}" if cc else "-",
                    f"{cc.threads_us:.1f}" if cc else "-",
                    f"{cc.runtime_us:.1f}" if cc else "-",
                    f"{cc.yields:.1f}" if cc else "-",
                    f"{cc.creates:.1f}" if cc else "-",
                    f"{cc.syncs:.1f}" if cc else "-",
                    f"{sc.total_us:.1f}" if sc else "-",
                    f"{ref.sc_total:.0f}" if ref.sc_total else "-",
                ]
            )
        if self.am_rtt_us is not None or self.mpl_rtt_us is not None:
            t.add_separator()
        if self.am_rtt_us is not None:
            t.add_row(
                ["AM base RTT", f"{self.am_rtt_us:.1f}", f"{paper.AM_BASE_RTT_US:.0f}"]
                + ["-"] * 8
            )
        if self.mpl_rtt_us is not None:
            t.add_row(
                ["IBM MPL RTT", f"{self.mpl_rtt_us:.1f}", f"{paper.MPL_RTT_US:.0f}"]
                + ["-"] * 8
            )
        return t.render()

    def claims(self) -> list[Check]:
        """Every row within 20 % of the paper's total, the raw layers
        within a few µs, and the §6 comparisons the null RMI anchors."""
        am, mpl = paper.AM_BASE_RTT_US, paper.MPL_RTT_US
        checks = [
            Check.of("AM base round trip", f"{am:g} us", self.am_rtt_us,
                     abs(self.am_rtt_us - am) <= 3.0),
            Check.of("IBM MPL round trip", f"{mpl:g} us", self.mpl_rtt_us,
                     abs(self.mpl_rtt_us - mpl) <= 4.0),
        ]
        for name, ref in paper.TABLE4.items():
            for lang, rows, total in (("CC++", self.cc, ref.cc_total),
                                      ("Split-C", self.sc, ref.sc_total)):
                if total is not None and name in rows:
                    measured = rows[name].total_us
                    checks.append(Check.of(
                        f"T4 {name} ({lang})", f"{total:g} us", measured,
                        abs(measured - total) <= 0.2 * total,
                    ))
        null = self.cc["0-Word Simple"].total_us
        null_ref = paper.TABLE4["0-Word Simple"].cc_total
        read, write = self.cc["BulkRead 40-Word"], self.cc["BulkWrite 40-Word"]
        copy_ref = (paper.TABLE4["BulkRead 40-Word"].cc_runtime
                    - paper.TABLE4["BulkWrite 40-Word"].cc_runtime)
        return checks + [
            Check.of("null RMI minus AM RTT", f"~{null_ref - am:g} us",
                     null - self.am_rtt_us, 5.0 <= null - self.am_rtt_us <= 20.0),
            Check.of("null RMI beats MPL", f"{mpl - null_ref:g} us faster",
                     self.mpl_rtt_us - null, null < self.mpl_rtt_us),
            Check.of("BulkRead pays double copy over BulkWrite",
                     f"+{copy_ref:g} us runtime", read.runtime_us - write.runtime_us,
                     read.runtime_us > write.runtime_us + 5.0),
        ]

    def csv(self) -> str:
        """One row per benchmark per language."""
        import csv
        import io

        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(
            ["benchmark", "language", "total_us", "am_us", "threads_us",
             "runtime_us", "yields", "creates", "syncs"]
        )
        for language, rows in (("ccpp", self.cc), ("splitc", self.sc)):
            for name, row in rows.items():
                w.writerow(
                    [name, language, f"{row.total_us:.3f}", f"{row.am_us:.3f}",
                     f"{row.threads_us:.3f}", f"{row.runtime_us:.3f}",
                     f"{row.yields:.3f}", f"{row.creates:.3f}", f"{row.syncs:.3f}"]
                )
        if self.am_rtt_us is not None:
            w.writerow(["am_base_rtt", "-", f"{self.am_rtt_us:.3f}"] + [""] * 6)
        if self.mpl_rtt_us is not None:
            w.writerow(["mpl_rtt", "-", f"{self.mpl_rtt_us:.3f}"] + [""] * 6)
        return out.getvalue()


#: names accepted by ``run(scenarios=...)`` beyond the Table 4 rows
_EXTRA_SCENARIOS = ("am-rtt", "mpl-rtt")


def scenario_names() -> tuple[str, ...]:
    """Every name ``run(scenarios=...)`` accepts (for ``--scenario`` help)."""
    from repro.experiments.microbench import CC_BENCHMARKS, SC_BENCHMARKS

    return tuple(dict.fromkeys([*CC_BENCHMARKS, *SC_BENCHMARKS])) + _EXTRA_SCENARIOS


def run(*, iters: int = 50, scenarios: list[str] | None = None) -> Table4Result:
    """Regenerate Table 4.

    With ``scenarios``, only the named rows are measured — a benchmark
    name from the paper's Table 4 (e.g. ``0-Word``) runs its CC++ and/or
    Split-C variant, and the pseudo-names ``am-rtt`` / ``mpl-rtt`` run the
    raw-layer round-trip references.  Unknown names raise ``ValueError``.
    """
    from repro.experiments.microbench import (
        CC_BENCHMARKS,
        SC_BENCHMARKS,
        am_base_rtt,
        mpl_rtt,
        run_cc_microbench,
        run_sc_microbench,
    )

    if scenarios is not None:
        known = set(scenario_names())
        unknown = [s for s in scenarios if s not in known]
        if unknown:
            raise ValueError(
                f"unknown scenario(s) {unknown}; choose from {sorted(known)}"
            )
        wanted = set(scenarios)
    else:
        wanted = None

    result = Table4Result()
    for name in CC_BENCHMARKS:
        if wanted is None or name in wanted:
            result.cc[name] = run_cc_microbench(name, iters=iters)
    for name in SC_BENCHMARKS:
        if wanted is None or name in wanted:
            result.sc[name] = run_sc_microbench(name, iters=iters)
    if wanted is None or "am-rtt" in wanted:
        result.am_rtt_us = am_base_rtt(iters=iters)
    if wanted is None or "mpl-rtt" in wanted:
        result.mpl_rtt_us = mpl_rtt(iters=iters)
    return result
