"""Unit tests for the EM3D application."""

import numpy as np
import pytest

from repro.apps.em3d import (
    Em3dGraph,
    Em3dParams,
    reference_steps,
    run_ccpp_em3d,
    run_splitc_em3d,
)
from repro.apps.em3d.layout import Em3dLayout
from repro.errors import ReproError


@pytest.fixture(scope="module")
def small_graph():
    return Em3dGraph(Em3dParams(n_nodes=48, degree=4, n_procs=4, pct_remote=0.5, seed=11))


class TestGraph:
    def test_params_validation(self):
        with pytest.raises(ReproError):
            Em3dParams(n_nodes=10, n_procs=4).validate()  # not divisible
        with pytest.raises(ReproError):
            Em3dParams(pct_remote=1.5).validate()
        with pytest.raises(ReproError):
            Em3dParams(degree=0).validate()

    def test_bipartite(self, small_graph):
        half = small_graph.params.n_nodes // 2
        for n in small_graph.nodes:
            for v in n.neighbors:
                assert small_graph.nodes[v].is_e != n.is_e

    def test_degree_uniform(self, small_graph):
        for n in small_graph.nodes:
            assert len(n.neighbors) == small_graph.params.degree
            assert len(n.weights) == small_graph.params.degree

    def test_even_distribution(self, small_graph):
        p = small_graph.params
        per_proc = p.n_nodes // p.n_procs
        for q in range(p.n_procs):
            count = sum(1 for n in small_graph.nodes if n.proc == q)
            assert count == per_proc

    def test_remote_fraction_honored(self):
        for pct in (0.0, 0.5, 1.0):
            g = Em3dGraph(Em3dParams(n_nodes=80, degree=10, n_procs=4, pct_remote=pct))
            remote = sum(
                1
                for n in g.nodes
                for v in n.neighbors
                if g.nodes[v].proc != n.proc
            )
            total = sum(len(n.neighbors) for n in g.nodes)
            assert remote / total == pytest.approx(pct, abs=0.01)

    def test_value_slot_bijective(self, small_graph):
        seen = set()
        for n in small_graph.nodes:
            slot = small_graph.value_slot(n.gid)
            assert slot not in seen
            seen.add(slot)

    @pytest.mark.parametrize("chunked", [False, True])
    def test_local_slices_equal_the_filtered_scan(self, chunked):
        g = Em3dGraph(Em3dParams(n_nodes=60, degree=4, n_procs=5, pct_remote=0.5,
                                 seed=3, chunked=chunked))
        for proc in range(g.params.n_procs + 1):  # the last one owns no node
            for e_nodes in (True, False):
                scan = [n for n in g.nodes if n.proc == proc and n.is_e == e_nodes]
                got = g.local_nodes(proc, e_nodes=e_nodes)
                assert [n.gid for n in got] == [n.gid for n in scan]
                assert all(a is b for a, b in zip(got, scan))

    def test_deterministic_generation(self):
        p = Em3dParams(n_nodes=48, degree=4, n_procs=4, pct_remote=0.5, seed=5)
        a, b = Em3dGraph(p), Em3dGraph(p)
        assert np.array_equal(a.initial, b.initial)
        assert all(
            x.neighbors == y.neighbors and x.weights == y.weights
            for x, y in zip(a.nodes, b.nodes)
        )


class TestLayout:
    def test_ghost_slots_unique_per_proc(self, small_graph):
        layout = Em3dLayout(small_graph)
        for q in range(small_graph.params.n_procs):
            slots = []
            for phase in (0, 1):
                slots.extend(layout.plans[q][phase].ghost_slot.values())
            assert len(slots) == len(set(slots))

    def test_exports_mirror_imports(self, small_graph):
        layout = Em3dLayout(small_graph)
        for q in range(small_graph.params.n_procs):
            for phase in (0, 1):
                for reader, gids in layout.plans[q][phase].exports.items():
                    assert layout.plans[reader][phase].by_src[q] == gids

    def test_term_counts_consistent(self, small_graph):
        layout = Em3dLayout(small_graph)
        total_terms = sum(
            layout.plans[q][ph].n_local_terms + layout.plans[q][ph].n_remote_terms
            for q in range(4)
            for ph in (0, 1)
        )
        assert total_terms == small_graph.edge_terms_per_step


class TestExecution:
    @pytest.mark.parametrize("version", ["base", "ghost", "bulk"])
    def test_splitc_matches_reference(self, small_graph, version):
        ref = reference_steps(small_graph, 2)
        res = run_splitc_em3d(small_graph, steps=1, version=version, warmup_steps=1)
        assert np.allclose(res.values, ref)

    @pytest.mark.parametrize("version", ["base", "ghost", "bulk"])
    def test_ccpp_matches_reference(self, small_graph, version):
        ref = reference_steps(small_graph, 2)
        res = run_ccpp_em3d(small_graph, steps=1, version=version, warmup_steps=1)
        assert np.allclose(res.values, ref)

    def test_unknown_version_rejected(self, small_graph):
        with pytest.raises(ReproError):
            run_splitc_em3d(small_graph, version="turbo")
        with pytest.raises(ReproError):
            run_ccpp_em3d(small_graph, version="turbo")

    def test_optimizations_help_both_languages(self, small_graph):
        """ghost dramatically beats base; both languages benefit (§6)."""
        sc = {
            v: run_splitc_em3d(small_graph, steps=1, version=v).per_edge_us
            for v in ("base", "ghost")
        }
        cc = {
            v: run_ccpp_em3d(small_graph, steps=1, version=v).per_edge_us
            for v in ("base", "ghost")
        }
        assert sc["ghost"] < 0.6 * sc["base"]
        assert cc["ghost"] < 0.6 * cc["base"]

    def test_ccpp_slower_but_bounded(self, small_graph):
        """CC++ within the paper's 1-3x envelope on this workload."""
        for version in ("base", "ghost"):
            sc = run_splitc_em3d(small_graph, steps=1, version=version)
            cc = run_ccpp_em3d(small_graph, steps=1, version=version)
            ratio = cc.per_edge_us / sc.per_edge_us
            assert 1.0 < ratio < 3.5

    def test_breakdown_accounts_are_positive(self, small_graph):
        res = run_ccpp_em3d(small_graph, steps=1, version="base")
        assert res.breakdown["cpu"] > 0
        assert res.breakdown["net"] > 0
        assert res.breakdown["thread mgmt"] > 0
        assert res.breakdown["runtime"] > 0

    def test_splitc_has_no_thread_components(self, small_graph):
        res = run_splitc_em3d(small_graph, steps=1, version="base")
        assert res.breakdown["thread mgmt"] == 0.0
        assert res.breakdown["thread sync"] == 0.0
