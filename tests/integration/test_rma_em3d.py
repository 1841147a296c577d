"""EM3D over one-sided RMA, end to end.

The owner-push variant inverts the communication direction (owners put
into readers' ghost windows instead of readers fetching), but the ghost
slots receive the same values and the sweep runs the same arithmetic in
the same order — so the check is *bitwise* equality with the sequential
reference, including under a faulty fabric with the reliable sublayer
and through the registry CLI with ``comm`` as a typed axis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.em3d import (
    Em3dGraph,
    Em3dParams,
    reference_steps,
    run_rma_em3d,
    run_splitc_em3d,
)
from repro.machine.faults import FaultPlan
from repro.sim.account import CounterNames


def _graph(pct=0.5, seed=7):
    return Em3dGraph(
        Em3dParams(n_nodes=120, degree=6, n_procs=4, pct_remote=pct, seed=seed)
    )


class TestBitwiseReference:
    @pytest.mark.parametrize("pct", [0.0, 0.5, 1.0])
    def test_values_match_reference(self, pct):
        graph = _graph(pct=pct)
        out = run_rma_em3d(graph, steps=2, warmup_steps=1)
        ref = reference_steps(graph, 3)
        assert out.values.tobytes() == ref.tobytes()

    def test_matches_pull_version_bitwise(self):
        """Push (RMA) and pull (split-phase ghost gets) are the same
        computation: identical values, different communication."""
        graph = _graph()
        push = run_rma_em3d(graph, steps=2, warmup_steps=1)
        pull = run_splitc_em3d(graph, steps=2, warmup_steps=1, version="ghost")
        assert push.values.tobytes() == pull.values.tobytes()
        # and it actually used the one-sided path
        assert push.counters.get(CounterNames.RMA_PUT, 0) > 0
        assert push.counters.get(CounterNames.RMA_NOTIFY, 0) > 0

    def test_correct_over_lossy_fabric(self):
        graph = _graph()
        plan = (
            FaultPlan(seed=3)
            .drop("am.", rate=0.02)
            .delay("am.", rate=0.2, delay_us=2.0, jitter_us=20.0)
        )
        out = run_rma_em3d(graph, steps=2, warmup_steps=1, faults=plan, reliable=True)
        assert out.values.tobytes() == reference_steps(graph, 3).tobytes()

    def test_deterministic_replay(self):
        graph = _graph()
        a = run_rma_em3d(graph, steps=2)
        b = run_rma_em3d(graph, steps=2)
        assert a.elapsed_us == b.elapsed_us
        assert a.breakdown == b.breakdown
        assert np.array_equal(a.values, b.values)


class TestArtifactCli:
    def test_run_with_typed_params(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "run", "rma", "--no-cache", "--iters", "3",
            "--param", "procs=2", "--param", "threads=1,2",
            "--param", "comm=rma", "--param", "radix=3",
        ]) == 0
        out = capsys.readouterr().out
        assert "rma_put" in out
        assert "bitwise vs reference" in out
        assert "MISMATCH" not in out

    def test_sweep_over_comm_axis(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "sweep", "rma", "--no-cache", "--iters", "3",
            "--param", "procs=2", "--param", "threads=1",
            "--axis", "comm=rma,splitc",
        ]) == 0
        out = capsys.readouterr().out
        assert "rma" in out and "splitc" in out

    def test_bad_typed_params_rejected(self):
        from repro.experiments.registry import ExperimentParamError, get

        spec = get("rma")
        with pytest.raises(ExperimentParamError, match="comm"):
            spec.validate({"comm": "carrier-pigeon"})
        with pytest.raises(ExperimentParamError, match="radix"):
            spec.validate({"radix": 0})
        with pytest.raises(ExperimentParamError, match="threads"):
            spec.validate({"threads": (0,)})


class TestTreeVsFlat:
    """The baseline column is a ``TreeComm`` at radix P−1: where the
    measured radix is at least P−1 the two are one tree shape, so the
    columns are equal to the bit."""

    @pytest.mark.parametrize("radix", [2, 4])
    def test_flat_equals_tree_where_the_shapes_agree(self, radix):
        from repro.experiments import rma

        result = rma.run(iters=1, procs=(1, 2, 3, 4, 5, 6), radix=radix, threads=(1,))
        assert result.tree_matches()
        same = [p for p in result.tree if p.radix >= p.nprocs - 1]
        assert {p.nprocs for p in same} == {n for n in range(1, 7) if n - 1 <= radix}
        assert all(p.flat_us == p.tree_us for p in same)
        assert any(p.flat_us != p.tree_us for p in result.tree if p not in same)
