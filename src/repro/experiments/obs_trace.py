"""Trace capture: one EM3D run with span tracing + Perfetto export.

Runs the Figure 6 workload (Split-C EM3D, bulk version) with a
:class:`~repro.obs.spans.SpanRecorder` attached, so the virtual-time
execution — barrier epochs, split-phase reads, AM handler activations,
packet sends and deliveries — can be opened in Chrome's ``about:tracing``
or https://ui.perfetto.dev as a per-node timeline with cross-node flow
arrows on every message.

Because the tracer and metrics registry are passive observers, the traced
run's accounting is bit-identical to an untraced run — the golden-trace
suite holds us to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs import Metrics, SpanRecorder

__all__ = ["TraceCaptureResult", "run", "main"]


@dataclass(slots=True)
class TraceCaptureResult:
    """One traced run: the recorder (records + spans) plus run stats."""

    tracer: SpanRecorder
    metrics: Metrics
    elapsed_us: float
    n_procs: int
    version: str
    breakdown: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        spans = self.tracer.spans
        by_name: dict[str, int] = {}
        for s in spans:
            by_name[s.name] = by_name.get(s.name, 0) + 1
        lines = [
            f"Trace capture — em3d-{self.version} on {self.n_procs} nodes, "
            f"{self.elapsed_us:.0f} virtual us measured",
            f"  {len(self.tracer.records)} trace records "
            f"({self.tracer.evicted} evicted), {len(spans)} spans "
            f"({self.tracer.dropped_spans} dropped)",
        ]
        for name in sorted(by_name):
            lines.append(f"    {name}: {by_name[name]}")
        lines.append(
            "  write the Perfetto JSON with "
            "`repro-experiments trace --out trace.json` and open it at "
            "https://ui.perfetto.dev"
        )
        return "\n".join(lines)

    def write(self, path: str | Path) -> Path:
        """Write the Chrome trace-event JSON for this run."""
        from repro.obs import write_chrome_trace

        return write_chrome_trace(self.tracer, path)


def run(*, quick: bool = True, version: str = "bulk") -> TraceCaptureResult:
    """Capture one traced EM3D run (deterministic for fixed sizes)."""
    from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d
    from repro.obs import Metrics, SpanRecorder

    params = (
        Em3dParams(n_nodes=80, degree=5, n_procs=4, pct_remote=1.0)
        if quick
        else Em3dParams(n_nodes=320, degree=8, n_procs=8, pct_remote=1.0)
    )
    graph = Em3dGraph(params)
    tracer = SpanRecorder(maxlen=200_000)
    metrics = Metrics()
    out = run_splitc_em3d(
        graph, steps=1, version=version, tracer=tracer, metrics=metrics
    )
    return TraceCaptureResult(
        tracer=tracer,
        metrics=metrics,
        elapsed_us=out.elapsed_us,
        n_procs=params.n_procs,
        version=version,
        breakdown=out.breakdown,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI shim: ``python -m repro.experiments.obs_trace [--out trace.json]``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="FILE", help="write Perfetto JSON here")
    parser.add_argument("--full", action="store_true", help="full workload size")
    parser.add_argument("--version", default="bulk", help="EM3D version to trace")
    args = parser.parse_args(argv)
    result = run(quick=not args.full, version=args.version)
    print(result.render())
    if args.out:
        print(f"wrote {result.write(args.out)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
