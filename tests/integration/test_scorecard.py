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


def _counted_run_all(monkeypatch, capsys, *flags):
    """A cold ``run all --iters 5`` with ``flags``: its exit status, the
    keyword arguments each graded artifact's entry was called with, and
    its stdout.  ``scorecard.run`` must not be called."""
    import importlib

    calls = {name: [] for name in GRADED}
    for name, module in GRADED.items():
        mod = importlib.import_module(module)

        def counted(*args, _name=name, _run=mod.run, **kwargs):
            calls[_name].append(kwargs)
            return _run(*args, **kwargs)

        monkeypatch.setattr(mod, "run", counted)
    monkeypatch.setattr(scorecard, "run", None)
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(["run", "all", "--iters", "5", "--no-cache", *flags])
    return rc, calls, capsys.readouterr().out


def test_run_all_computes_each_graded_artifact_once(monkeypatch, capsys):
    """A cold ``run all`` grades the results its own tasks computed: each
    graded artifact's entry runs once and ``scorecard.run`` never does."""
    rc, calls, out = _counted_run_all(monkeypatch, capsys)
    assert rc == 0
    assert {name: len(kw) for name, kw in calls.items()} == {name: 1 for name in GRADED}
    section = out.split("=== scorecard ===\n", 1)[1]
    assert "\n36/36 claims reproduced within band\n" in section


def test_seeded_run_all_grades_its_own_results(monkeypatch, capsys):
    """Under ``--seed 7`` the scorecard's inputs are the job's own seed-7
    tasks, so it is graded inline from them: nothing runs twice and no
    input falls back to the default seed."""
    rc, calls, out = _counted_run_all(monkeypatch, capsys, "--seed", "7")
    assert rc == 0
    assert {name: len(kw) for name, kw in calls.items()} == {name: 1 for name in GRADED}
    seeds = {name: kw[0]["seed"] for name, kw in calls.items() if "seed" in kw[0]}
    assert seeds == {"figure5": 7, "figure6": 7, "nexus": 7}
    section = out.split("=== scorecard ===\n", 1)[1]
    assert "\n36/36 claims reproduced within band\n" in section


def test_stand_alone_scorecard_passes_its_seed_to_the_inputs_that_declare_one():
    spec = registry.get("scorecard")
    params = spec.validate({"seed": 7})
    seeds = {s.name: p.get("seed") for s, p in spec.input_tasks(params)}
    assert seeds == {"table4": None, "figure5": 7, "figure6": 7, "nexus": 7,
                     "ablations": None, "scaling": None}
