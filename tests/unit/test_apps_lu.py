"""Unit tests for the blocked LU application."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.lu import (
    LuParams,
    LuWorkload,
    check_factorization,
    lu_nopivot,
    reference_lu,
    run_ccpp_lu,
    run_splitc_lu,
)
from repro.apps.lu.blocked import panel_l, panel_u
from repro.apps.lu.reference import assemble
from repro.errors import ReproError
from tests.helpers import MACHINE_PARAMS, run_on_machine


@pytest.fixture(scope="module")
def work():
    return LuWorkload(LuParams(n=32, block=8, n_procs=4, seed=17))


@pytest.fixture(scope="module")
def work64():
    return LuWorkload(LuParams(n=64, block=8, n_procs=4, seed=17))


class TestParams:
    def test_block_must_divide_n(self):
        with pytest.raises(ReproError):
            LuParams(n=100, block=16).validate()

    def test_proc_grid_square_for_4(self):
        assert LuParams(n_procs=4).proc_grid == (2, 2)

    def test_proc_grid_for_2(self):
        assert LuParams(n_procs=2).proc_grid == (1, 2)


class TestKernels:
    def test_lu_nopivot_reconstructs(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
        packed = a.copy()
        lu_nopivot(packed)
        lower = np.tril(packed, -1) + np.eye(8)
        upper = np.triu(packed)
        assert np.allclose(lower @ upper, a)

    def test_lu_nopivot_zero_pivot_rejected(self):
        with pytest.raises(ReproError):
            lu_nopivot(np.zeros((4, 4)))

    def test_panel_solves(self):
        rng = np.random.default_rng(2)
        pivot = rng.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
        lu_nopivot(pivot)
        lower = np.tril(pivot, -1) + np.eye(8)
        upper = np.triu(pivot)
        a_ik = rng.uniform(-1, 1, (8, 8))
        a_kj = rng.uniform(-1, 1, (8, 8))
        assert np.allclose(panel_l(a_ik, pivot) @ upper, a_ik)
        assert np.allclose(lower @ panel_u(a_kj, pivot), a_kj)


#: entries of the random blocks, as ``LuWorkload`` draws its matrix
_ENTRIES = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def _panel_case(draw):
    """(panel block as a view, factored pivot block): the pivot comes from
    a diagonally dominant block, the panel block is a view into a larger
    array, laid out the way the LU programs see their blocks."""
    bs = draw(st.integers(1, 32))
    pivot = draw(arrays(np.float64, (bs, bs), elements=_ENTRIES))
    pivot += (bs + 1) * np.eye(bs)
    lu_nopivot(pivot)
    block = draw(arrays(np.float64, (bs, bs), elements=_ENTRIES))
    layout = draw(st.sampled_from(("block_of", "submatrix", "column-strided")))
    if layout == "block_of":  # `LuWorkload.block_of`: a reshaped slice of a flat region
        region = np.zeros(3 * bs * bs)
        view = region[bs * bs : 2 * bs * bs].reshape(bs, bs)
    elif layout == "submatrix":  # `LuWorkload.initial_block`: rows strided by the matrix
        view = np.zeros((3 * bs, 3 * bs))[bs : 2 * bs, bs : 2 * bs]
    else:  # columns strided too
        view = np.zeros((bs, 2 * bs))[:, ::2]
    view[:] = block
    return view, pivot


class TestPanelKernels:
    """``panel_l`` / ``panel_u`` against ``scipy.linalg.solve_triangular``,
    which is a test-only oracle: the program itself does not use SciPy."""

    @staticmethod
    def _check(kernel, oracle, view, pivot):
        before = view.copy(), pivot.copy()
        got = kernel(view, pivot)
        # an element that cancels to ~0 carries the rounding of the large
        # ones (seen: 1.1e-18 apart on a 7.8e-19 element), so the error is
        # bounded relative to the element and to the result's scale
        scale = np.abs(oracle).max(initial=0.0)
        np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12 * scale)
        # the inputs are not mutated, and the result does not alias the
        # block it overwrites (`blk[:] = panel_l(blk, pivot)`)
        assert np.array_equal(view, before[0]) and np.array_equal(pivot, before[1])
        assert not np.shares_memory(got, view)

    @settings(max_examples=150, deadline=None)
    @given(_panel_case())
    def test_panel_l_matches_solve_triangular(self, case):
        view, pivot = case
        oracle = scipy.linalg.solve_triangular(pivot, view.T, lower=False, trans="T").T
        self._check(panel_l, oracle, view, pivot)

    @settings(max_examples=150, deadline=None)
    @given(_panel_case())
    def test_panel_u_matches_solve_triangular(self, case):
        view, pivot = case
        oracle = scipy.linalg.solve_triangular(pivot, view, lower=True, unit_diagonal=True)
        self._check(panel_u, oracle, view, pivot)

    @pytest.mark.parametrize("seed", [1997, 2026])
    def test_both_languages_factor_bitwise_alike(self, seed):
        """The perfbench ``paper_apps`` LU at both of its seeds: Split-C and
        CC++ apply the same kernels to the same blocks in the same order."""
        work = LuWorkload(LuParams(n=128, block=16, n_procs=4, seed=seed))
        sc, cc = run_splitc_lu(work).packed, run_ccpp_lu(work).packed
        assert sc.tobytes() == cc.tobytes()


class TestGeometry:
    def test_owner_2d_cyclic(self, work):
        assert work.owner(0, 0) == 0
        assert work.owner(0, 1) == 1
        assert work.owner(1, 0) == 2
        assert work.owner(1, 1) == 3
        assert work.owner(2, 2) == 0

    def test_every_block_owned_once(self, work):
        b = work.params.n_blocks
        counted = sum(len(work.owned_blocks(q)) for q in range(4))
        assert counted == b * b

    def test_needs_pivot_matches_panel_work(self, work):
        b = work.params.n_blocks
        for k in range(b):
            for q in range(4):
                has_panel = bool(work.panel_rows(q, k) or work.panel_cols(q, k))
                assert work.needs_pivot(q, k) == has_panel

    def test_interior_needs_cover_blocks(self, work):
        for k in range(work.params.n_blocks):
            for q in range(4):
                rows, cols = work.interior_needs(q, k)
                for (i, j) in work.interior_blocks(q, k):
                    assert i in rows and j in cols


class TestExecution:
    def test_reference_matches_scipy_shape(self, work):
        packed = reference_lu(work)
        assert check_factorization(work, packed)
        lower, upper = assemble(packed)
        x = scipy.linalg.solve_triangular(
            upper,
            scipy.linalg.solve_triangular(
                lower, np.ones(work.params.n), lower=True, unit_diagonal=True
            ),
            lower=False,
        )
        assert np.allclose(work.matrix @ x, np.ones(work.params.n))

    @pytest.mark.parametrize("machine", MACHINE_PARAMS)
    def test_splitc_matches_reference(self, work64, machine):
        res = run_on_machine(run_splitc_lu, work64, machine, ("packed",))
        assert np.allclose(res.packed, reference_lu(work64))
        assert check_factorization(work64, res.packed)

    @pytest.mark.parametrize("machine", MACHINE_PARAMS)
    def test_ccpp_matches_reference(self, work64, machine):
        res = run_on_machine(run_ccpp_lu, work64, machine, ("packed",))
        assert np.allclose(res.packed, reference_lu(work64))
        assert check_factorization(work64, res.packed)

    def test_ccpp_gap_in_paper_direction(self, work):
        sc = run_splitc_lu(work)
        cc = run_ccpp_lu(work)
        ratio = cc.elapsed_us / sc.elapsed_us
        assert 1.0 < ratio < 5.0

    def test_breakdowns_populated(self, work):
        sc = run_splitc_lu(work)
        cc = run_ccpp_lu(work)
        assert sc.breakdown["cpu"] > 0
        assert cc.breakdown["thread sync"] > 0
        # equal computational work is charged in both languages
        assert sc.breakdown["cpu"] == pytest.approx(cc.breakdown["cpu"])
