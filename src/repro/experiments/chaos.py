"""Chaos matrix: seeded random fault plans vs the recovery layer.

The fault ablation (:mod:`repro.experiments.faults`) sweeps *chosen*
drop rates; this artifact instead generates **randomized** fault plans
from a seed — drop/duplicate/delay rules over the AM data plane plus
node failures and pauses — and runs the fault-tolerant EM3D
(:mod:`repro.apps.em3d.recovery`) under each, checking four invariants
per scenario:

* **no hang** — every run terminates; a stall-watchdog
  :class:`~repro.errors.DeadlockError` counts as a hang;
* **conservation** — after the drain,
  ``delivered == sent - dropped + duplicated`` on the fabric counters
  (and full quiescence on attempts that saw no death);
* **correctness** — final values equal the sequential reference
  *bitwise*, failures or not;
* **replay** — running the same scenario seed twice reproduces the same
  attempts, deaths, virtual times, counters and values exactly.

The survival matrix reports, per scenario, what was injected and whether
the run survived in one attempt or recovered via checkpoint/restart.
Everything derives from the one top-level seed; plans only perturb
``am.``-prefixed packets, so the heartbeat control plane stays clean and
a *pause* shorter than the detection threshold never kills a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import DeadlockError
from repro.experiments import serde
from repro.util.tables import TextTable

if TYPE_CHECKING:
    from repro.machine.faults import FaultPlan

__all__ = ["ChaosResult", "run", "build_plan"]

DEFAULT_PLANS = 25
DEFAULT_SEED = 1997

#: detection parameters used for every scenario (threshold = phi * interval)
INTERVAL_US = 500.0
PHI = 8.0
_THRESHOLD_US = PHI * INTERVAL_US

#: CSV header of the survival matrix (``chaos.csv``, the CI artifact)
CSV_COLUMNS = (
    "plan", "seed", "drop", "dup", "delay", "fail_node", "fail_at",
    "pause_node", "attempts", "dead", "restart_step", "elapsed_us",
    "hung", "conserved", "correct", "replay_ok",
)


def build_plan(scenario_seed: int, n_procs: int, horizon_us: float) -> FaultPlan:
    """The randomized plan for one scenario seed (rebuildable: the same
    seed always yields the same plan, so a replay just calls this again).

    Fault rules target only ``am.`` packet kinds — data-plane chaos, not
    control-plane: heartbeats must flow or every scenario trivially
    degenerates into mass false-positive death.  Pauses stay below half
    the detection threshold for the same reason.  ``horizon_us`` is the
    fault-free job time: node failures land inside ``[0.1, 0.9]`` of it,
    so a kill actually interrupts the run instead of outliving it.
    """
    from repro.machine.faults import FaultPlan
    from repro.util.rng import derive_seed, make_rng

    rng = make_rng(derive_seed(scenario_seed, "chaos-plan"))
    plan = FaultPlan(seed=scenario_seed)
    if rng.random() < 0.7:
        plan.drop("am.", rate=float(rng.uniform(0.005, 0.08)))
    if rng.random() < 0.4:
        plan.duplicate("am.", rate=float(rng.uniform(0.005, 0.05)))
    if rng.random() < 0.4:
        plan.delay(
            "am.",
            rate=float(rng.uniform(0.01, 0.10)),
            delay_us=float(rng.uniform(50.0, 400.0)),
            jitter_us=float(rng.uniform(0.0, 50.0)),
        )
    r = rng.random()
    if r < 0.5:
        plan.fail_node(
            int(rng.integers(n_procs)),
            at=float(rng.uniform(0.1, 0.9)) * horizon_us,
        )
    elif r < 0.7:
        plan.pause_node(
            int(rng.integers(n_procs)),
            at=float(rng.uniform(0.1, 0.7)) * horizon_us,
            duration=float(rng.uniform(100.0, _THRESHOLD_US / 2 - 200.0)),
        )
    return plan


def _describe(plan: FaultPlan) -> dict:
    """Compact, JSON-able summary of what a plan injects."""
    out = {"drop": 0.0, "dup": 0.0, "delay": 0.0,
           "fail_node": -1, "fail_at": 0.0, "pause_node": -1}
    for rule in plan.rules:
        if rule.drop:
            out["drop"] = round(rule.drop, 4)
        if rule.duplicate:
            out["dup"] = round(rule.duplicate, 4)
        if rule.delay:
            out["delay"] = round(rule.delay, 4)
    for nf in plan.node_faults:
        if nf.duration == float("inf"):
            out["fail_node"] = nf.nid
            out["fail_at"] = round(nf.start, 1)
        else:
            out["pause_node"] = nf.nid
    return out


@dataclass(slots=True)
class ChaosResult(serde.Codec):
    """The survival/recovery matrix plus invariant totals."""

    #: one JSON-able record per scenario (see CSV_COLUMNS)
    scenarios: list[dict] = field(default_factory=list)
    plans: int = 0
    survived: int = 0      # completed (with or without restarts)
    recovered: int = 0     # needed at least one checkpoint restart
    hangs: int = 0
    conservation_failures: int = 0
    mismatches: int = 0
    replay_failures: int = 0

    @property
    def all_ok(self) -> bool:
        """Every invariant held on every plan."""
        return not (
            self.hangs or self.conservation_failures
            or self.mismatches or self.replay_failures
        )

    def render(self) -> str:
        t = TextTable(
            ["plan", "drop", "dup", "delay", "fault", "attempts",
             "restart", "t (us)", "verdict"],
            title="Chaos matrix — randomized fault plans vs checkpoint/restart recovery",
        )
        for s in self.scenarios:
            if s["fail_node"] >= 0:
                fault = f"kill {s['fail_node']}@{s['fail_at']:.0f}"
            elif s["pause_node"] >= 0:
                fault = f"pause {s['pause_node']}"
            else:
                fault = "-"
            if s["hung"]:
                verdict = "HUNG"
            elif not s["correct"]:
                verdict = "WRONG VALUES"
            elif not s["conserved"]:
                verdict = "LEAKED PACKETS"
            elif not s["replay_ok"]:
                verdict = "REPLAY DIVERGED"
            else:
                verdict = "recovered" if s["attempts"] > 1 else "survived"
            t.add_row([
                str(s["plan"]),
                f"{100 * s['drop']:.1f}%" if s["drop"] else "-",
                f"{100 * s['dup']:.1f}%" if s["dup"] else "-",
                f"{100 * s['delay']:.1f}%" if s["delay"] else "-",
                fault,
                str(s["attempts"]),
                str(s["restart_step"]) if s["attempts"] > 1 else "-",
                f"{s['elapsed_us']:.0f}",
                verdict,
            ])
        note = (
            f"\n{self.plans} seeded plans: {self.survived} survived "
            f"({self.recovered} via checkpoint restart) | invariants: "
            f"{self.hangs} hangs, {self.conservation_failures} conservation "
            f"failures, {self.mismatches} value mismatches, "
            f"{self.replay_failures} replay divergences. "
            "Values are compared bitwise against the sequential reference."
        )
        return t.render() + note

    def csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for s in self.scenarios:
            lines.append(",".join(str(s[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def _fingerprint(out) -> tuple:
    """Everything a bit-identical replay must reproduce."""
    return (
        out.attempts,
        tuple(out.dead_procs),
        tuple(out.restart_steps),
        out.elapsed_us,
        out.values.tobytes(),
        tuple(sorted(out.counters.items())),
    )


def run(
    *,
    plans: int = DEFAULT_PLANS,
    seed: int = DEFAULT_SEED,
    steps: int = 4,
    n_nodes: int = 32,
    degree: int = 4,
    n_procs: int = 4,
) -> ChaosResult:
    """Run the chaos matrix; fully deterministic from the arguments."""
    from repro.apps.em3d.graph import Em3dGraph, Em3dParams
    from repro.apps.em3d.recovery import DEFAULT_RETRY, run_recovering_em3d
    from repro.apps.em3d.reference import reference_steps
    from repro.util.rng import derive_seed

    graph = Em3dGraph(
        Em3dParams(
            n_nodes=n_nodes, degree=degree, n_procs=n_procs,
            pct_remote=0.4, seed=seed,
        )
    )
    reference = reference_steps(graph, steps)
    ref_bytes = reference.tobytes()
    result = ChaosResult(plans=plans)
    # the fault-free job time anchors every plan's failure instants
    # (deterministic: the clean run is itself reproducible)
    horizon_us = run_recovering_em3d(graph, steps=steps).elapsed_us

    for k in range(plans):
        scenario_seed = derive_seed(seed, "chaos", k)
        record: dict = {"plan": k, "seed": scenario_seed}
        record.update(_describe(build_plan(scenario_seed, n_procs, horizon_us)))
        outs = []
        hung = False
        for _replay in (0, 1):
            try:
                outs.append(
                    run_recovering_em3d(
                        graph,
                        steps=steps,
                        faults=build_plan(scenario_seed, n_procs, horizon_us),
                        retry=DEFAULT_RETRY,
                        interval_us=INTERVAL_US,
                        phi=PHI,
                    )
                )
            except DeadlockError:
                hung = True
                break
        if hung:
            result.hangs += 1
            record.update(
                attempts=0, dead="", restart_step=-1, elapsed_us=0.0,
                hung=True, conserved=False, correct=False, replay_ok=False,
            )
            result.scenarios.append(record)
            continue
        out, out2 = outs
        conserved = out.conserved and out.quiescent
        correct = out.values.tobytes() == ref_bytes
        replay_ok = _fingerprint(out) == _fingerprint(out2)
        record.update(
            attempts=out.attempts,
            dead=";".join(map(str, out.dead_procs)),
            restart_step=out.restart_steps[-1] if out.restart_steps else -1,
            elapsed_us=out.elapsed_us,
            hung=False,
            conserved=conserved,
            correct=correct,
            replay_ok=replay_ok,
        )
        result.scenarios.append(record)
        result.survived += 1
        if out.attempts > 1:
            result.recovered += 1
        if not conserved:
            result.conservation_failures += 1
        if not correct:
            result.mismatches += 1
        if not replay_ok:
            result.replay_failures += 1
    return result
