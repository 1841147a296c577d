"""The ``metrics`` artifact: latency distributions for the headline paths.

Where the paper's tables report means, this artifact reports the full
shape: log-bucket histograms (p50/p90/p99) of

* the CC++ RMI end-to-end latency (0-Word and BulkRead 40-Word),
* the bare AM round trip, clean and over a 5%-drop fabric with reliable
  delivery (the tail shows the retransmit stalls directly),
* Split-C blocking reads inside an EM3D step,
* per-message sizes, run-queue depth at dispatch, and the retransmit
  delays themselves,

plus pool/engine gauges folded in via
:func:`~repro.obs.metrics.collect_cluster_gauges`.  On the deterministic
simulator a distribution is exactly reproducible, so the percentiles are
stable artifacts, not samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import serde
from repro.util.tables import TextTable

__all__ = ["MetricsReport", "run"]


@dataclass(slots=True)
class MetricsReport(serde.Codec):
    """Histogram snapshots per workload, plus gauges."""

    #: workload label -> histogram name -> snapshot dict
    sections: dict[str, dict[str, dict]] = field(default_factory=dict)
    #: gauge name -> value (from the EM3D cluster)
    gauges: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        t = TextTable(
            ["workload", "histogram", "n", "mean", "p50", "p90", "p99", "max"],
            title="Metrics — latency and size distributions (virtual us / bytes)",
        )
        first = True
        for workload, hists in self.sections.items():
            if not first:
                t.add_separator()
            first = False
            for name, snap in sorted(hists.items()):
                if not snap["count"]:
                    continue
                t.add_row(
                    [
                        workload,
                        name,
                        str(int(snap["count"])),
                        f"{snap['mean']:.1f}",
                        f"{snap['p50']:.1f}",
                        f"{snap['p90']:.1f}",
                        f"{snap['p99']:.1f}",
                        f"{snap['max']:.1f}",
                    ]
                )
        lines = [t.render()]
        if self.gauges:
            lines.append("\ngauges (em3d run):")
            for name in sorted(self.gauges):
                lines.append(f"  {name} = {self.gauges[name]:g}")
        return "\n".join(lines)

    def csv(self) -> str:
        rows = ["workload,histogram,count,mean,p50,p90,p99,min,max"]
        for workload, hists in self.sections.items():
            for name, snap in sorted(hists.items()):
                rows.append(
                    f"{workload},{name},{int(snap['count'])},{snap['mean']:.3f},"
                    f"{snap['p50']:.3f},{snap['p90']:.3f},{snap['p99']:.3f},"
                    f"{snap['min']:.3f},{snap['max']:.3f}"
                )
        for name in sorted(self.gauges):
            rows.append(f"gauge,{name},,,,,,,{self.gauges[name]:g}")
        return "\n".join(rows) + "\n"


def _snapshot_all(metrics) -> dict[str, dict]:
    return {name: h.snapshot() for name, h in metrics.histograms().items()}


def run(*, iters: int = 50, quick: bool = True) -> MetricsReport:
    """Collect every distribution; deterministic for fixed (iters, sizes)."""
    import numpy as np

    from repro.am import RetryPolicy
    from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d
    from repro.experiments.faults import RETRY_SCHEDULE  # same as the faults sweep
    from repro.experiments.microbench import am_base_rtt, run_cc_microbench
    from repro.machine.cluster import Cluster
    from repro.machine.faults import FaultPlan
    from repro.obs import Metrics, collect_cluster_gauges
    from repro.splitc import SplitCRuntime

    report = MetricsReport()

    m = Metrics()
    run_cc_microbench("0-Word", iters=iters, metrics=m)
    report.sections["cc 0-Word"] = _snapshot_all(m)

    m = Metrics()
    run_cc_microbench("BulkRead 40-Word", iters=iters, metrics=m)
    report.sections["cc BulkRead 40-Word"] = _snapshot_all(m)

    m = Metrics()
    am_base_rtt(iters=iters, metrics=m)
    report.sections["am rtt clean"] = _snapshot_all(m)

    m = Metrics()
    plan = FaultPlan(seed=7)
    plan.drop("am.", rate=0.05)
    retry = RetryPolicy(**RETRY_SCHEDULE)
    am_base_rtt(iters=iters, faults=plan, reliable=True, retry=retry, metrics=m)
    report.sections["am rtt 5% drop"] = _snapshot_all(m)

    m = Metrics()
    params = (
        Em3dParams(n_nodes=64, degree=6, n_procs=4, pct_remote=0.4)
        if quick
        else Em3dParams(n_nodes=320, degree=8, n_procs=8, pct_remote=0.4)
    )
    out = run_splitc_em3d(Em3dGraph(params), steps=2, metrics=m)
    report.sections["em3d base"] = _snapshot_all(m)
    report.gauges["em3d.elapsed_us"] = out.elapsed_us

    # a bulk workload whose cluster we own end-to-end, so the pool hit
    # rate and engine fast-path gauges can be folded into the report
    m = Metrics()
    cluster = Cluster(2, metrics=m)
    rt = SplitCRuntime(cluster)
    for nid in range(2):
        rt.memory(nid).alloc("obs.A", 64)
    values = np.arange(64, dtype=np.float64)

    def program(proc):
        if proc.my_node == 0:
            for _ in range(max(8, iters // 4)):
                yield from proc.bulk_write(proc.gptr(1, "obs.A", 0), values)
                block = yield from proc.bulk_read(proc.gptr(1, "obs.A", 0), 64)
                assert len(block) == 64
        yield from proc.barrier()

    rt.run_spmd(program)
    collect_cluster_gauges(m, cluster)
    report.sections["sc bulk loop"] = _snapshot_all(m)
    report.gauges.update(m.gauges)
    return report
