"""Drop-rate ablation: what reliability costs when the fabric misbehaves.

The paper's measurements assume the SP switch delivers every packet; the
AM layer's low latency is partly *bought* by that assumption.  This
ablation re-runs the two headline measurements over a lossy fabric —
seeded :class:`~repro.machine.faults.FaultPlan` drops at 0%, 1%, and 10%
— with the reliable-delivery sublayer (sequence numbers, acks,
retransmit + backoff) keeping the runs correct:

* the bare AM round trip (Table 4's 55 µs reference), where each drop
  stalls the ping-pong for a full retransmit timeout, and
* the Split-C EM3D inner loop (Figure 6's workload), where independent
  in-flight reads overlap retransmit stalls.

Reported per cell: mean latency / runtime, the retransmit and ack
counts, and the NET time — the reliability overhead is charged where the
paper's breakdown figures would show it.  Every cell is deterministic
from (seed, drop rate); the same pair reproduces the same faulty run
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import serde
from repro.util.tables import TextTable

__all__ = ["FaultAblationResult", "run"]

#: (drop probability, label) cells of the sweep
DEFAULT_DROPS = (0.0, 0.01, 0.10)
DEFAULT_SEEDS = (1, 2)

#: retransmit schedule used for every faulty cell — tighter than the
#: library default so a 10% cell finishes in reasonable wall time while
#: still dwarfing the 55 us clean RTT on every drop.  ``RetryPolicy``
#: keyword arguments: the policy itself is built in ``run()``, so this
#: module imports without the AM layer
RETRY_SCHEDULE = dict(timeout_us=200.0, backoff=2.0, max_timeout_us=3200.0, max_retries=20)


@dataclass(slots=True)
class FaultAblationResult(serde.Codec):
    """One row per (drop rate, seed) cell, plus the clean baselines."""

    #: drop -> seed -> dict of measurements
    rtt_cells: dict[float, dict[int, dict]] = field(default_factory=dict)
    em3d_cells: dict[float, dict[int, dict]] = field(default_factory=dict)
    clean_rtt_us: float = 0.0
    clean_em3d_us: float = 0.0

    def render(self) -> str:
        t = TextTable(
            ["drop", "seed", "AM RTT (us)", "retx", "acks", "EM3D (us)", "retx", "NET (us)"],
            title="Fault ablation — drop rate vs latency with reliable AM delivery",
        )
        for drop in sorted(self.rtt_cells):
            for seed in sorted(self.rtt_cells[drop]):
                r = self.rtt_cells[drop][seed]
                e = self.em3d_cells[drop][seed]
                t.add_row(
                    [
                        f"{100 * drop:.0f}%",
                        str(seed),
                        f"{r['rtt_us']:.1f}",
                        str(r["retransmits"]),
                        str(r["acks"]),
                        f"{e['elapsed_us']:.0f}",
                        str(e["retransmits"]),
                        f"{e['net_us']:.0f}",
                    ]
                )
        note = (
            f"\nUnreliable-fabric baselines (no reliability sublayer): "
            f"AM RTT {self.clean_rtt_us:.1f} us, EM3D {self.clean_em3d_us:.0f} us. "
            "The 0% rows price the protocol itself (acks + sequencing); "
            "the lossy rows add retransmit stalls on top."
        )
        return t.render() + note


def _em3d_graph(seed: int):
    from repro.apps.em3d import Em3dGraph, Em3dParams

    return Em3dGraph(
        Em3dParams(n_nodes=64, degree=6, n_procs=4, pct_remote=0.4, seed=seed)
    )


def run(
    *,
    drops: tuple[float, ...] = DEFAULT_DROPS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    iters: int = 30,
    steps: int = 2,
) -> FaultAblationResult:
    """Run the full sweep; deterministic for fixed (drops, seeds, sizes)."""
    from repro.am import RetryPolicy
    from repro.apps.em3d import run_splitc_em3d
    from repro.experiments.microbench import am_base_rtt
    from repro.machine.faults import FaultPlan

    retry = RetryPolicy(**RETRY_SCHEDULE)
    result = FaultAblationResult()
    result.clean_rtt_us = am_base_rtt(iters=iters)
    result.clean_em3d_us = run_splitc_em3d(_em3d_graph(seeds[0]), steps=steps).elapsed_us

    for drop in drops:
        result.rtt_cells[drop] = {}
        result.em3d_cells[drop] = {}
        for seed in seeds:
            plan = FaultPlan(seed=seed)
            if drop:
                plan.drop("am.", rate=drop)
            stats: dict = {}
            rtt = am_base_rtt(
                iters=iters, faults=plan, reliable=True, retry=retry, stats_out=stats
            )
            result.rtt_cells[drop][seed] = {"rtt_us": rtt, **stats}

            em3d_plan = FaultPlan(seed=seed)
            if drop:
                em3d_plan.drop("am.", rate=drop)
            out = run_splitc_em3d(
                _em3d_graph(seed),
                steps=steps,
                faults=em3d_plan,
                reliable=True,
                retry=retry,
            )
            result.em3d_cells[drop][seed] = {
                "elapsed_us": out.elapsed_us,
                "retransmits": out.counters.get("net.pkt.retransmit", 0),
                "acks": out.counters.get("net.pkt.ack", 0),
                "net_us": out.breakdown.get("net", 0.0),
            }
    return result
