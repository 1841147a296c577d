"""Integration: the reproduction scorecard grades every claim green.

Stand-alone (``scorecard.run``) it computes its inputs; under ``run all``
it grades the run's own results of them, each computed once.
"""

import contextlib
import io

import pytest

from repro.experiments import registry, scorecard
from repro.experiments.cli import main

#: the artifacts the scorecard grades, by the module holding each entry
GRADED = {
    "table4": "repro.experiments.table4",
    "figure5": "repro.experiments.figure5",
    "figure6": "repro.experiments.figure6",
    "nexus": "repro.experiments.nexus_compare",
    "ablations": "repro.experiments.ablations",
    "scaling": "repro.experiments.scaling",
}


@pytest.fixture(scope="module")
def card():
    return scorecard.run(quick=True, iters=15)


def test_every_claim_reproduced(card):
    misses = [c.claim for c in card.checks if not c.ok]
    assert not misses, f"claims outside band: {misses}"


def test_scorecard_covers_all_artifacts(card):
    text = card.render()
    for marker in ("T4 ", "em3d-", "F6 ", "Nexus", "contention", "200x"):
        assert marker in text, marker


def test_scorecard_counts(card):
    assert card.passed == len(card.checks) >= 30
    assert card.all_ok


def test_the_spec_names_the_graded_artifacts():
    spec = registry.get("scorecard")
    assert spec.inputs == tuple(GRADED)
    assert [s.module for s, _ in spec.input_tasks(spec.defaults())] == list(GRADED.values())


def test_run_all_computes_each_graded_artifact_once(monkeypatch, capsys):
    """A cold ``run all`` grades the results its own tasks computed: each
    graded artifact's entry runs once and ``scorecard.run`` never does."""
    import importlib

    calls = {name: 0 for name in GRADED}
    for name, module in GRADED.items():
        mod = importlib.import_module(module)

        def counted(*args, _name=name, _run=mod.run, **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(mod, "run", counted)
    monkeypatch.setattr(scorecard, "run", None)  # must not be called
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(["run", "all", "--iters", "5", "--no-cache"])
    out = capsys.readouterr().out
    assert rc == 0
    assert calls == {name: 1 for name in GRADED}
    section = out.split("=== scorecard ===\n", 1)[1]
    assert "\n36/36 claims reproduced within band\n" in section
