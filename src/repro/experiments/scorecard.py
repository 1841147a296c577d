"""The reproduction scorecard: every paper claim, machine-checked.

Each graded result type carries its own claims beside the numbers they
grade: ``Table4Result``, ``Figure5Result``, ``Figure6Result``,
``NexusCompareResult``, ``AblationResult`` and ``ScalingResult`` each
have a ``claims() -> list[Check]`` that reads its paper values from
:mod:`.paper` and holds the band "reproduced" must fall in.  The
scorecard is :func:`grade`, a pure function joining those lists — it
simulates nothing.  The registry spec names its inputs
(``ExperimentSpec.inputs``); under ``run all`` the job queue grades the
run's own results of those six artifacts, so the scorecard and
``figure5.txt`` print numbers from one run.  :func:`run` is the
stand-alone form: compute the same inputs, then grade them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.experiments import serde
from repro.util.tables import TextTable

__all__ = ["Check", "Scorecard", "grade", "run"]


@dataclass(slots=True)
class Check(serde.Codec):
    """One graded claim."""

    claim: str
    paper_value: str
    measured: str
    ok: bool

    @classmethod
    def of(cls, claim: str, paper_value: str, measured: float | str, ok: bool) -> "Check":
        """A check with its measured value shown as the scorecard prints it."""
        shown = f"{measured:.2f}" if isinstance(measured, float) else str(measured)
        return cls(claim, paper_value, shown, bool(ok))


@dataclass(slots=True)
class Scorecard(serde.Codec):
    checks: list[Check] = field(default_factory=list)

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


def grade(*results: Any) -> Scorecard:
    """The scorecard of ``results`` (the registry spec's ``inputs``, in
    that order): their claims joined, nothing re-run."""
    return Scorecard([check for result in results for check in result.claims()])


def run(*, quick: bool = True, iters: int = 30) -> Scorecard:
    """Grade the reproduction stand-alone: run the scorecard's inputs at
    their registry defaults plus ``quick`` and ``iters``, then
    :func:`grade` them."""
    from repro.experiments import registry

    inputs = registry.get("scorecard").input_tasks({"quick": quick, "iters": iters})
    return grade(*(spec.run(**params) for spec, params in inputs))
