"""Ablations of the design choices §6's Discussion calls out.

1. **Method stub caching** — with the cache disabled, every RMI takes
   the cold path: name on the wire, callee-side string resolution, no
   persistent-buffer addressing.
2. **Persistent buffers** — disabled, every payload pays the static-area
   copy and a buffer allocation.
3. **Lock cost** — the paper: "synchronization incurs significant
   overhead ... 95 % of lock acquisitions are contention-less", and
   thread-management "can be prohibitively high if a more heavyweight or
   preemptive threads package is used".  Sweeping ``sync_op`` and
   ``context_switch`` quantifies both sentences.
4. **Interrupt-driven reception** — the polling thread exists because SP
   software interrupts were expensive; running the runtime with
   ``reception="interrupt"`` (a real mode of the AM layer) shows what
   reception would cost without polling.
5. **Lock contention census** — measured contended vs uncontended
   acquisitions in a real application run (the "95 %" observation).
6. **Future work, §6** — "This overhead may be alleviated in the future
   by reducing the cost of software interrupts, which eliminates the
   need for the polling thread": a sweep of ``interrupt_cpu`` finds the
   cost below which interrupt-driven reception beats the polling
   discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments import paper, serde
from repro.experiments.scorecard import Check
from repro.util.tables import TextTable

__all__ = ["AblationResult", "run"]


@dataclass(slots=True)
class AblationResult(serde.Codec):
    """Per-ablation micro-benchmark outcomes and the contention census."""

    rows: list[tuple[str, str, float, float]] = field(default_factory=list)
    contended: int = 0
    uncontended: int = 0
    #: interrupt-cost -> 0-Word RMI time under interrupt reception
    interrupt_sweep: dict[float, float] = field(default_factory=dict)
    polling_baseline_us: float = 0.0

    @property
    def contentionless_fraction(self) -> float:
        total = self.contended + self.uncontended
        return self.uncontended / total if total else 1.0

    def claims(self) -> list[Check]:
        """The lock census near the paper's share, and polling beating
        interrupt-driven reception."""
        frac = self.contentionless_fraction
        _, _, polling, interrupt = next(
            row for row in self.rows if row[0] == "interrupt reception"
        )
        return [
            Check.of("lock acquisitions contention-less",
                     f">={paper.LOCK_CONTENTIONLESS_PCT:g}%", 100 * frac, frac >= 0.90),
            Check.of("polling beats 50us interrupts", "motivates polling thread",
                     interrupt - polling, interrupt > polling),
        ]

    def render(self) -> str:
        t = TextTable(
            ["ablation", "benchmark", "on (us)", "off/alt (us)"],
            title="Ablations — what each ThAM design choice buys",
        )
        for row in self.rows:
            t.add_row([row[0], row[1], f"{row[2]:.1f}", f"{row[3]:.1f}"])
        census = (
            f"\nLock contention census (water-atomic run): "
            f"{self.uncontended} uncontended / {self.contended} contended "
            f"acquisitions = {100 * self.contentionless_fraction:.1f}% contention-less "
            f"(paper: ~{paper.LOCK_CONTENTIONLESS_PCT:g}%)"
        )
        return t.render() + census


def run(*, iters: int = 30) -> AblationResult:
    """Run every ablation."""
    from repro.apps.water import WaterParams, WaterSystem, run_ccpp_water
    from repro.experiments.microbench import run_cc_microbench
    from repro.machine.costs import SP2_COSTS
    from repro.sim.account import CounterNames

    result = AblationResult()

    # 1. stub caching: warm-path 0-Word vs perpetual cold path
    on = run_cc_microbench("0-Word", iters=iters)
    off = run_cc_microbench("0-Word", iters=iters, stub_caching=False)
    result.rows.append(("stub caching", "0-Word RMI", on.total_us, off.total_us))

    # 2. persistent buffers: warm bulk write vs static-area copies forever
    on = run_cc_microbench("BulkWrite 40-Word", iters=iters)
    off = run_cc_microbench("BulkWrite 40-Word", iters=iters, persistent_buffers=False)
    result.rows.append(("persistent buffers", "BulkWrite 40-Word", on.total_us, off.total_us))

    # 3a. lock cost sweep: free locks vs heavyweight (preemptive) locks
    cheap = run_cc_microbench("0-Word", iters=iters, costs=SP2_COSTS.with_threads(sync_op=0.0))
    heavy = run_cc_microbench("0-Word", iters=iters, costs=SP2_COSTS.with_threads(sync_op=4.0))
    result.rows.append(("lock cost 0 vs 4 us", "0-Word RMI", cheap.total_us, heavy.total_us))

    # 3b. context-switch sweep: ThAM's 6 us vs a preemptive package's ~25 us
    light = run_cc_microbench("0-Word Threaded", iters=iters)
    heavy = run_cc_microbench(
        "0-Word Threaded", iters=iters,
        costs=SP2_COSTS.with_threads(context_switch=25.0, create=40.0),
    )
    result.rows.append(("preemptive threads", "0-Word Threaded", light.total_us, heavy.total_us))

    # 4. polling vs interrupt-driven reception: the real mechanism — each
    # serviced message pays the SP's ~50 us software-interrupt cost and
    # the poll-on-send discipline disappears
    polled = run_cc_microbench("0-Word", iters=iters)
    interrupt = run_cc_microbench("0-Word", iters=iters, reception="interrupt")
    result.rows.append(("interrupt reception", "0-Word RMI", polled.total_us, interrupt.total_us))

    # 5. contention census from a real application run
    system = WaterSystem(WaterParams(n_molecules=32, n_procs=4, steps=1))
    res = run_ccpp_water(system, version="atomic")
    result.contended = res.counters.get(CounterNames.LOCK_CONTENDED, 0)
    result.uncontended = res.counters.get(CounterNames.LOCK_UNCONTENDED, 0)

    # 6. the paper's future-work scenario: how cheap must a software
    # interrupt become before interrupt reception beats polling?
    polled = run_cc_microbench("0-Word", iters=iters)
    for int_cost in (50.0, 10.0, 2.0):
        alt = run_cc_microbench(
            "0-Word",
            iters=iters,
            costs=SP2_COSTS.with_net(interrupt_cpu=int_cost),
            reception="interrupt",
        )
        result.rows.append(
            (
                f"interrupt @ {int_cost:.0f} us",
                "0-Word RMI",
                polled.total_us,
                alt.total_us,
            )
        )
        result.interrupt_sweep[int_cost] = alt.total_us
    result.polling_baseline_us = polled.total_us
    return result
