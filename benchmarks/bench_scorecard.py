"""Benchmark: the full reproduction scorecard (every artifact, graded)."""

import pytest

from repro.experiments import scorecard


@pytest.mark.benchmark(group="scorecard")
def test_scorecard(benchmark, artifact_sink):
    card = benchmark.pedantic(
        lambda: scorecard.run(quick=True, iters=20), rounds=1, iterations=1
    )
    artifact_sink("scorecard", card.render())
    assert card.all_ok, card.render()
