"""Tree collectives: O(log P) bcast/reduce/allreduce/barrier.

The correctness bar is the closed-form value over the whole
(P, radix, root) grid — every node must see the root's broadcast value
and the exact global sum (contributions are small integers, so float
equality is exact); radix P−1 and above is the flat tree — plus the
geometry invariants the rounds rest on, and a ``TreeComm`` over either
runtime's endpoints (Split-C and CC++).
"""

from __future__ import annotations

import pytest

from repro.ccpp import CCppRuntime
from repro.errors import RuntimeStateError
from repro.machine.cluster import Cluster
from repro.rma.tree import TreeComm
from repro.splitc import SplitCRuntime


class TestGeometry:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    @pytest.mark.parametrize("radix", [1, 2, 3, 4])
    @pytest.mark.parametrize("root", [0, 3])
    def test_parent_child_consistency(self, n, radix, root):
        """Every non-root has exactly one parent that lists it as a
        child; the union of all child lists covers every non-root once."""
        root = root % n
        tree = TreeComm(install_endpoints(n), radix=radix)
        seen = []
        for nid in range(n):
            kids = tree.children(nid, root)
            assert len(kids) <= radix
            for k in kids:
                assert tree.parent(k, root) == nid
            seen.extend(kids)
        assert sorted(seen) == sorted(set(range(n)) - {root})

    def test_invalid_construction(self):
        with pytest.raises(RuntimeStateError, match="radix"):
            TreeComm(install_endpoints(2), radix=0)
        with pytest.raises(RuntimeStateError, match="endpoint"):
            TreeComm([])


def install_endpoints(n: int):
    from repro.am import install_am

    return install_am(Cluster(n))


def _run_tree_splitc(n: int, radix: int, root: int):
    """One bcast + one allreduce + a barrier per node; returns
    {nid: (bcast_result, allreduce_result)}."""
    cluster = Cluster(n)
    rt = SplitCRuntime(cluster)
    tree = TreeComm(rt.endpoints, radix=radix)
    outs: dict[int, tuple[float, float]] = {}

    def prog(proc):
        me = proc.my_node
        got_bc = yield from tree.bcast(me, root, 42.0)
        got_ar = yield from tree.allreduce(me, float(me + 1))
        yield from tree.barrier(me)
        outs[me] = (got_bc, got_ar)

    rt.run_spmd(prog)
    return outs


class TestGridEqualsLinear:
    """Closed-form values are the oracle: bcast returns the root's value
    everywhere, allreduce the global sum everywhere, at every radix from
    the chain (1) to the flat tree (P−1 and above)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("radix", [1, 2, 3, 4])
    def test_all_roots(self, n, radix):
        total = float(n * (n + 1) // 2)
        for root in range(n):
            outs = _run_tree_splitc(n, radix, root)
            assert outs == {nid: (42.0, total) for nid in range(n)}

    def test_multiple_rounds_pipeline_cleanly(self):
        """Epoch state must isolate successive operations: a message for
        round r is never read as round r+1's."""
        cluster = Cluster(5)
        rt = SplitCRuntime(cluster)
        tree = TreeComm(rt.endpoints, radix=2)
        outs: dict[int, list[float]] = {}

        def prog(proc):
            seen = []
            for r in range(6):
                got = yield from tree.bcast(proc.my_node, r % 5, float(100 + r))
                seen.append(got)
                got = yield from tree.allreduce(proc.my_node, float(r))
                seen.append(got)
            outs[proc.my_node] = seen

        rt.run_spmd(prog)
        expect = [v for r in range(6) for v in (float(100 + r), float(5 * r))]
        assert all(seen == expect for seen in outs.values()), outs

    def test_reduce_only_root_gets_total(self):
        cluster = Cluster(6)
        rt = SplitCRuntime(cluster)
        tree = TreeComm(rt.endpoints, radix=3)
        outs: dict[int, float | None] = {}

        def prog(proc):
            outs[proc.my_node] = yield from tree.reduce(
                proc.my_node, 2, float(proc.my_node)
            )

        rt.run_spmd(prog)
        assert outs[2] == 15.0
        assert all(outs[nid] is None for nid in range(6) if nid != 2)


class TestCcppAdapter:
    """A ``TreeComm`` over a CC++ runtime's endpoints, called from RMI
    contexts."""

    def test_allreduce_and_barrier_from_rmi_contexts(self):
        cluster = Cluster(4)
        rt = CCppRuntime(cluster)
        tree = TreeComm(rt.endpoints, radix=2)
        outs: dict[int, float] = {}

        def worker(ctx):
            outs[ctx.nid] = yield from tree.allreduce(ctx.nid, float(ctx.nid))
            yield from tree.barrier(ctx.nid)

        for nid in range(4):
            rt.launch(nid, worker, f"w{nid}")
        rt.run()
        assert outs == {nid: 6.0 for nid in range(4)}
