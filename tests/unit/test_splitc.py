"""Unit tests for the Split-C runtime, global pointers and memory."""

import numpy as np
import pytest

from repro.errors import GlobalPointerError, RuntimeStateError
from repro.machine.cluster import Cluster
from repro.sim.account import Category
from repro.splitc import GlobalPtr, Memory, SCProcess, SplitCRuntime, SpreadArray


def _runtime(n=2):
    cluster = Cluster(n)
    rt = SplitCRuntime(cluster)
    return cluster, rt


class TestGlobalPtr:
    def test_offset_arithmetic(self):
        gp = GlobalPtr(1, "r", 5)
        assert (gp + 3).offset == 8
        assert (gp - 2).offset == 3
        assert (gp + 3).node == 1

    def test_node_arithmetic(self):
        gp = GlobalPtr(0, "r", 5)
        assert gp.on_node(3) == GlobalPtr(3, "r", 5)

    def test_is_local(self):
        assert GlobalPtr(2, "r").is_local(2)
        assert not GlobalPtr(2, "r").is_local(0)

    def test_invalid_construction(self):
        with pytest.raises(GlobalPointerError):
            GlobalPtr(-1, "r")
        with pytest.raises(GlobalPointerError):
            GlobalPtr(0, "r", -2)

    def test_non_int_arithmetic_not_supported(self):
        with pytest.raises(TypeError):
            GlobalPtr(0, "r") + 1.5


class TestMemory:
    def test_alloc_and_access(self):
        cluster, rt = _runtime(1)
        mem = rt.memory(0)
        mem.alloc("x", 4)
        arr = mem.region("x")  # a NumPy view of the region's words
        arr[:] = [1, 2, 3, 4]
        assert mem.load(GlobalPtr(0, "x", 2)) == 3.0
        mem.store(GlobalPtr(0, "x", 0), 9.0)
        assert arr[0] == 9.0

    def test_double_alloc_rejected(self):
        _, rt = _runtime(1)
        rt.memory(0).alloc("x", 4)
        with pytest.raises(RuntimeStateError):
            rt.memory(0).alloc("x", 4)

    def test_out_of_bounds_rejected(self):
        _, rt = _runtime(1)
        rt.memory(0).alloc("x", 4)
        with pytest.raises(GlobalPointerError):
            rt.memory(0).load(GlobalPtr(0, "x", 4))

    def test_remote_pointer_not_dereferenceable_locally(self):
        _, rt = _runtime(2)
        rt.memory(0).alloc("x", 4)
        with pytest.raises(GlobalPointerError):
            rt.memory(0).load(GlobalPtr(1, "x", 0))

    def test_block_access(self):
        _, rt = _runtime(1)
        mem = rt.memory(0)
        mem.alloc("x", 8)
        mem.store_block(GlobalPtr(0, "x", 2), np.array([5.0, 6.0, 7.0]))
        out = mem.load_block(GlobalPtr(0, "x", 2), 3)
        assert list(out) == [5.0, 6.0, 7.0]

    def test_missing_region_rejected(self):
        _, rt = _runtime(1)
        with pytest.raises(GlobalPointerError):
            rt.memory(0).region("ghost")


class TestSpreadArray:
    def test_cyclic_layout(self):
        sp = SpreadArray("s", 10, 4, layout="cyclic")
        assert sp.locate(0) == (0, 0)
        assert sp.locate(1) == (1, 0)
        assert sp.locate(4) == (0, 1)
        assert sp.locate(9) == (1, 2)

    def test_block_layout(self):
        sp = SpreadArray("s", 10, 4, layout="block")
        # 10 over 4 -> sizes 3,3,2,2
        assert [sp.local_size(q) for q in range(4)] == [3, 3, 2, 2]
        assert sp.locate(0) == (0, 0)
        assert sp.locate(2) == (0, 2)
        assert sp.locate(3) == (1, 0)
        assert sp.locate(9) == (3, 1)

    def test_sizes_sum_to_total(self):
        for layout in ("cyclic", "block"):
            for total in (0, 1, 7, 16, 23):
                sp = SpreadArray("s", total, 4, layout=layout)
                assert sum(sp.local_size(q) for q in range(4)) == total

    def test_out_of_range_index(self):
        sp = SpreadArray("s", 4, 2)
        with pytest.raises(GlobalPointerError):
            sp.locate(4)

    def test_unknown_layout_rejected(self):
        with pytest.raises(RuntimeStateError):
            SpreadArray("s", 4, 2, layout="diagonal")


class TestAccesses:
    def _run(self, program, n=2, setup=None):
        cluster, rt = _runtime(n)
        for q in range(n):
            rt.memory(q).alloc("x", 8)
        if setup:
            setup(rt)
        results = rt.run_spmd(program)
        return cluster, rt, results

    def test_blocking_read_write(self):
        def program(proc: SCProcess):
            if proc.my_node == 0:
                yield from proc.write(proc.gptr(1, "x", 3), 42.0)
                value = yield from proc.read(proc.gptr(1, "x", 3))
                yield from proc.barrier()
                return value
            yield from proc.barrier()

        _, rt, results = self._run(program)
        assert results[0] == 42.0
        assert rt.memory(1).region("x")[3] == 42.0

    def test_local_read_write_skip_network(self):
        def program(proc):
            yield from proc.write(proc.gptr(proc.my_node, "x", 0), 7.0)
            value = yield from proc.read(proc.gptr(proc.my_node, "x", 0))
            yield from proc.barrier()
            return value

        cluster, rt, results = self._run(program, n=1)
        assert results == [7.0]
        # only barrier traffic, no read/write messages
        assert cluster.network.packets_sent == 0

    def test_split_phase_get_put_with_sync(self):
        def program(proc):
            me = proc.my_node
            if me == 0:
                for k in range(4):
                    yield from proc.put(proc.gptr(1, "x", k), float(10 + k))
                yield from proc.sync()
            yield from proc.barrier()
            if me == 1:
                local = proc.local("x")
                assert list(local[:4]) == [10.0, 11.0, 12.0, 13.0]
                for k in range(4):
                    yield from proc.get(proc.gptr(1, "x", 4 + k), proc.gptr(0, "x", k))
                yield from proc.sync()
            yield from proc.barrier()

        def setup(rt):
            rt.memory(0).region("x")[:4] = [1.0, 2.0, 3.0, 4.0]

        _, rt, _ = self._run(program, setup=setup)
        assert list(rt.memory(1).region("x")[4:8]) == [1.0, 2.0, 3.0, 4.0]

    def test_one_way_store_and_await(self):
        def program(proc):
            me = proc.my_node
            if me == 0:
                yield from proc.store(proc.gptr(1, "x", 0), 5.0)
                yield from proc.store(proc.gptr(1, "x", 1), 6.0)
            else:
                yield from proc.await_stores(2)
                assert list(proc.local("x")[:2]) == [5.0, 6.0]
            yield from proc.barrier()

        self._run(program)

    def test_store_add_accumulates(self):
        def program(proc):
            if proc.my_node == 0:
                yield from proc.store_add(proc.gptr(1, "x", 0), (1.0, 2.0))
                yield from proc.store_add(proc.gptr(1, "x", 0), (10.0, 20.0))
            else:
                yield from proc.await_stores(2)
            yield from proc.barrier()

        _, rt, _ = self._run(program)
        assert list(rt.memory(1).region("x")[:2]) == [11.0, 22.0]

    def test_bulk_read_write(self):
        data = np.linspace(1.0, 8.0, 8)

        def program(proc):
            if proc.my_node == 0:
                yield from proc.bulk_write(proc.gptr(1, "x", 0), data)
                out = yield from proc.bulk_read(proc.gptr(1, "x", 0), 8)
                yield from proc.barrier()
                return out
            yield from proc.barrier()

        _, _, results = self._run(program)
        assert np.array_equal(results[0], data)

    def test_bulk_get_split_phase(self):
        def program(proc):
            if proc.my_node == 0:
                yield from proc.bulk_get(proc.gptr(0, "x", 0), proc.gptr(1, "x", 0), 4)
                yield from proc.sync()
            yield from proc.barrier()

        def setup(rt):
            rt.memory(1).region("x")[:4] = [9.0, 8.0, 7.0, 6.0]

        _, rt, _ = self._run(program, setup=setup)
        assert list(rt.memory(0).region("x")[:4]) == [9.0, 8.0, 7.0, 6.0]

    def test_get_remote_destination_rejected(self):
        def program(proc):
            if proc.my_node == 0:
                yield from proc.get(proc.gptr(1, "x", 0), proc.gptr(1, "x", 1))
            yield from proc.barrier()

        with pytest.raises(Exception):
            self._run(program)

    def test_barrier_synchronizes_all(self):
        after = {}

        def program(proc):
            yield from proc.charge(float(proc.my_node) * 100.0)
            yield from proc.barrier()
            after[proc.my_node] = proc.node.sim.now

        self._run(program, n=4)
        # nobody leaves the barrier before the slowest arrival (t=300)
        assert all(t >= 300.0 for t in after.values())

    def test_repeated_barriers(self):
        def program(proc):
            for _ in range(5):
                yield from proc.barrier()

        self._run(program, n=4)

    def test_atomic_rpc(self):
        def bump(rt, nid, amount):
            arr = rt.memory(nid).region("x")
            arr[0] += amount
            return float(arr[0])

        def program(proc):
            if proc.my_node == 0:
                v1 = yield from proc.atomic_rpc(1, "bump", 5.0)
                v2 = yield from proc.atomic_rpc(1, "bump", 2.0)
                yield from proc.barrier()
                return (v1, v2)
            yield from proc.barrier()

        def setup(rt):
            rt.register_rpc("bump", bump)

        _, _, results = self._run(program, setup=setup)
        assert results[0] == (5.0, 7.0)

    def test_rpc_duplicate_registration_rejected(self):
        _, rt = _runtime(1)
        rt.register_rpc("f", lambda *a: None)
        with pytest.raises(RuntimeStateError):
            rt.register_rpc("f", lambda *a: None)

    def test_read_costs_runtime_and_net(self):
        def program(proc):
            if proc.my_node == 0:
                yield from proc.read(proc.gptr(1, "x", 0))
            yield from proc.barrier()

        cluster, _, _ = self._run(program)
        assert cluster.aggregate_account().get(Category.RUNTIME) > 0
        assert cluster.aggregate_account().get(Category.NET) > 0

    def test_single_thread_per_node(self):
        """Split-C never creates threads (the paper's key asymmetry)."""
        from repro.sim.account import CounterNames

        def program(proc):
            if proc.my_node == 0:
                yield from proc.read(proc.gptr(1, "x", 0))
                yield from proc.bulk_write(proc.gptr(1, "x", 0), np.ones(4))
            yield from proc.barrier()

        cluster, _, _ = self._run(program)
        counters = cluster.aggregate_counters()
        assert counters.get(CounterNames.THREAD_CREATE) == 0
        assert counters.get(CounterNames.THREAD_SYNC_OP) == 0
