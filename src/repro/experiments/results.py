"""Result types of the artifacts whose own modules need the simulator.

Every artifact module keeps its result dataclasses, ``from_json`` and
``render`` importable without the simulated machine, so a cached rerun
loads a result at the price of reading it.  :mod:`.microbench` and
:mod:`.scaling` cannot: they define ``@processor_class`` /
``Marshallable`` types at module scope, which needs the CC++ runtime at
import time.  Their result types live here instead (both modules
re-export them), and ``ExperimentSpec.result_module`` points the cache
and the daemon client at this module.  :mod:`.obs_trace`'s result lives
here for the same reason one step removed: its ``run()`` needs the
recorders, its result is the text they exported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import serde
from repro.experiments.scorecard import Check
from repro.util.tables import TextTable

__all__ = ["MicroRow", "ScalingPoint", "ScalingResult", "TraceCaptureResult"]


@dataclass(slots=True)
class MicroRow(serde.Codec):
    """Per-iteration means for one micro-benchmark."""

    name: str
    total_us: float
    am_us: float
    threads_us: float
    runtime_us: float
    cpu_us: float
    yields: float
    creates: float
    syncs: float

    def scaled(self, factor: float) -> "MicroRow":
        """Per-element view (used by the Prefetch rows)."""
        return MicroRow(
            self.name,
            self.total_us * factor,
            self.am_us * factor,
            self.threads_us * factor,
            self.runtime_us * factor,
            self.cpu_us * factor,
            self.yields * factor,
            self.creates * factor,
            self.syncs * factor,
        )


@dataclass(slots=True)
class ScalingPoint(serde.Codec):
    words: int
    sc_us: float
    cc_us: float

    @property
    def nbytes(self) -> int:
        return 8 * self.words

    @property
    def ratio(self) -> float:
        return self.cc_us / self.sc_us


@dataclass(slots=True)
class ScalingResult(serde.Codec):
    points: list[ScalingPoint] = field(default_factory=list)

    def ratios(self) -> list[float]:
        return [p.ratio for p in self.points]

    def claims(self) -> list[Check]:
        """The CC++/Split-C ratio grows with volume: the bulk-copy hit
        that appears at the largest transfer, against the smallest."""
        ratios = self.ratios()
        return [Check.of(
            "bulk-copy hit appears at ~200x volume", "grows",
            ratios[-1] / ratios[0], ratios[-1] > 1.8 * ratios[0],
        )]

    def render(self) -> str:
        t = TextTable(
            ["transfer", "split-c us", "cc++ us", "ratio"],
            title=(
                "Bulk-read scaling — the paper's 'factor of about 200' remark"
            ),
        )
        for p in self.points:
            t.add_row(
                [
                    f"{p.words} doubles ({p.nbytes} B)",
                    f"{p.sc_us:.1f}",
                    f"{p.cc_us:.1f}",
                    f"{p.ratio:.2f}",
                ]
            )
        return t.render()


@dataclass(slots=True)
class TraceCaptureResult(serde.Codec):
    """One traced run: its stats, what the recorder held, and the
    Perfetto export of it as text (123 KB quick, 466 KB full)."""

    elapsed_us: float
    n_procs: int
    version: str
    records: int
    evicted: int
    spans: int
    dropped_spans: int
    spans_by_name: dict[str, int]
    breakdown: dict[str, float]
    #: what ``repro.obs.write_chrome_trace`` writes for the run's recorder
    perfetto_json: str

    def render(self) -> str:
        lines = [
            f"Trace capture — em3d-{self.version} on {self.n_procs} nodes, "
            f"{self.elapsed_us:.0f} virtual us measured",
            f"  {self.records} trace records "
            f"({self.evicted} evicted), {self.spans} spans "
            f"({self.dropped_spans} dropped)",
        ]
        for name in sorted(self.spans_by_name):
            lines.append(f"    {name}: {self.spans_by_name[name]}")
        lines.append(
            "  write the Perfetto JSON with "
            "`repro-experiments run trace --out trace.json` and open it at "
            "https://ui.perfetto.dev"
        )
        return "\n".join(lines)

    def extra_files(self) -> dict[str, str]:
        """Beside the summary: the Chrome trace-event JSON of this run,
        as the exporter wrote it."""
        return {"trace.json": self.perfetto_json}
