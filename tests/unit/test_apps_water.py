"""Unit tests for the Water application."""

import numpy as np
import pytest

from repro.apps.water import (
    WaterParams,
    WaterSystem,
    reference_water,
    run_ccpp_water,
    run_splitc_water,
)
from repro.apps.water.system import pair_interaction
from repro.errors import ReproError
from tests.helpers import MACHINE_PARAMS, run_on_machine


@pytest.fixture(scope="module")
def system():
    return WaterSystem(WaterParams(n_molecules=16, n_procs=4, steps=2, seed=13))


class TestSystem:
    def test_params_validation(self):
        with pytest.raises(ReproError):
            WaterParams(n_molecules=10, n_procs=4).validate()
        with pytest.raises(ReproError):
            WaterParams(steps=0).validate()

    def test_block_distribution(self, system):
        assert system.owner(0) == 0
        assert system.owner(15) == 3
        assert system.n_local == 4
        assert list(system.local_range(1)) == [4, 5, 6, 7]
        assert system.local_index(6) == 2

    def test_pair_owner_is_first_owner(self, system):
        assert system.pair_owner(0, 5) == 0
        assert system.pair_owner(5, 9) == 1
        with pytest.raises(ReproError):
            system.pair_owner(5, 5)

    def test_no_overlapping_molecules(self, system):
        n = system.params.n_molecules
        for i in range(n):
            for j in range(i + 1, n):
                d = np.linalg.norm(system.positions[i] - system.positions[j])
                assert d > 0.5

    def test_expected_updates_consistent(self, system):
        """Every cross-processor pair produces exactly one remote update."""
        total = sum(
            system.expected_remote_force_updates(q) for q in range(4)
        )
        n = system.params.n_molecules
        cross = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if system.owner(i) != system.owner(j)
        )
        assert total == cross


class TestPhysics:
    def test_forces_antisymmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pi, pj = rng.uniform(0, 3, 3), rng.uniform(4, 6, 3)
            f_ij, pot_ij = pair_interaction(pi, pj)
            f_ji, pot_ji = pair_interaction(pj, pi)
            assert np.allclose(f_ij, -f_ji)
            assert pot_ij == pytest.approx(pot_ji)

    def test_force_along_separation(self):
        pi, pj = np.array([0.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])
        f, _ = pair_interaction(pi, pj)
        assert f[1] == 0.0 and f[2] == 0.0

    def test_repulsive_at_short_range(self):
        pi, pj = np.zeros(3), np.array([0.9, 0.0, 0.0])
        f, _ = pair_interaction(pi, pj)
        assert f[0] < 0  # pushes i away from j

    def test_attractive_at_long_range(self):
        pi, pj = np.zeros(3), np.array([2.0, 0.0, 0.0])
        f, _ = pair_interaction(pi, pj)
        assert f[0] > 0  # pulls i toward j


class TestReference:
    def test_momentum_conserved(self, system):
        _, vel, _ = reference_water(system, 3)
        initial = system.velocities.sum(axis=0)
        assert np.allclose(vel.sum(axis=0), initial, atol=1e-9)

    def test_steps_progress_positions(self, system):
        p1, _, _ = reference_water(system, 1)
        p2, _, _ = reference_water(system, 2)
        assert not np.allclose(p1, p2)


class TestExecution:
    @pytest.mark.parametrize("machine", MACHINE_PARAMS)
    @pytest.mark.parametrize("version", ["atomic", "prefetch"])
    def test_splitc_matches_reference(self, system, version, machine):
        ref_pos, ref_vel, ref_pot = reference_water(system, system.params.steps)
        res = run_on_machine(
            run_splitc_water, system, machine,
            ("positions", "velocities", "potential"), version=version,
        )
        assert np.allclose(res.positions, ref_pos)
        assert np.allclose(res.velocities, ref_vel)
        assert res.potential == pytest.approx(ref_pot)

    @pytest.mark.parametrize("machine", MACHINE_PARAMS)
    @pytest.mark.parametrize("version", ["atomic", "prefetch"])
    def test_ccpp_matches_reference(self, system, version, machine):
        ref_pos, _, ref_pot = reference_water(system, system.params.steps)
        # add_forces_block accumulates whole force blocks in arrival order,
        # and float addition does not associate: a machine that reorders
        # arrivals (drops, fat-tree queueing) moves the last bits
        reorders = version == "prefetch" and machine in ("lossy", "fattree")
        res = run_on_machine(
            run_ccpp_water, system, machine,
            ("positions", "velocities", "potential"),
            bitwise=not reorders, version=version,
        )
        assert np.allclose(res.positions, ref_pos)
        assert res.potential == pytest.approx(ref_pot)

    def test_unknown_version_rejected(self, system):
        with pytest.raises(ReproError):
            run_splitc_water(system, version="magic")
        with pytest.raises(ReproError):
            run_ccpp_water(system, version="magic")

    def test_unknown_machine_keyword_rejected(self, system):
        """Machine keywords are Cluster's: a typo fails there, as it does
        for a direct caller."""
        with pytest.raises(TypeError, match="bogus"):
            run_splitc_water(system, bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            run_ccpp_water(system, bogus=1)

    def test_prefetch_reduces_messages_an_order_of_magnitude(self, system):
        """The paper's '10-fold reduction in remote accesses'."""
        from repro.sim.account import CounterNames

        atomic = run_splitc_water(system, version="atomic")
        prefetch = run_splitc_water(system, version="prefetch")
        msgs = CounterNames.MSG_SHORT
        atomic_msgs = atomic.counters.get(msgs, 0) + atomic.counters.get(
            CounterNames.MSG_BULK, 0
        )
        prefetch_msgs = prefetch.counters.get(msgs, 0) + prefetch.counters.get(
            CounterNames.MSG_BULK, 0
        )
        assert prefetch_msgs < atomic_msgs / 3

    def test_prefetch_faster_in_both_languages(self, system):
        sc_a = run_splitc_water(system, version="atomic").elapsed_us
        sc_p = run_splitc_water(system, version="prefetch").elapsed_us
        cc_a = run_ccpp_water(system, version="atomic").elapsed_us
        cc_p = run_ccpp_water(system, version="prefetch").elapsed_us
        assert sc_p < sc_a
        assert cc_p < cc_a

    def test_ccpp_gap_in_paper_band(self, system):
        sc = run_splitc_water(system, version="atomic").elapsed_us
        cc = run_ccpp_water(system, version="atomic").elapsed_us
        assert 1.2 < cc / sc < 7.0
