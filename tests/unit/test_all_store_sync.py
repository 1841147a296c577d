"""Unit tests for Split-C ``all_store_sync`` over a ``TreeComm`` and tree
collective composition with in-flight application stores."""

from repro.machine.cluster import Cluster
from repro.rma.tree import TreeComm
from repro.splitc import SplitCRuntime, collective


def _runtime(n=4, region_size=16):
    rt = SplitCRuntime(Cluster(n))
    for q in range(n):
        rt.memory(q).alloc("x", region_size)
    return rt, TreeComm(rt.endpoints, radix=2)


def test_all_store_sync_guarantees_delivery():
    rt, tree = _runtime()

    def program(proc):
        me = proc.my_node
        for q in range(proc.nprocs):
            if q != me:
                yield from proc.store(proc.gptr(q, "x", me), float(me + 1))
        yield from collective.all_store_sync(proc, tree)
        arr = proc.local("x")
        return all(
            arr[q] == float(q + 1) for q in range(proc.nprocs) if q != me
        )

    assert rt.run_spmd(program) == [True] * 4


def test_all_store_sync_with_no_outstanding_stores():
    rt, tree = _runtime()

    def program(proc):
        yield from collective.all_store_sync(proc, tree)
        return True

    assert rt.run_spmd(program) == [True] * 4


def test_all_store_sync_repeated_rounds():
    rt, tree = _runtime()

    def program(proc):
        me = proc.my_node
        target = (me + 1) % proc.nprocs
        for round_no in range(3):
            yield from proc.store(
                proc.gptr(target, "x", round_no), float(me + 10 * round_no)
            )
            yield from collective.all_store_sync(proc, tree)
            src = (me - 1) % proc.nprocs
            assert proc.local("x")[round_no] == float(src + 10 * round_no)
        return True

    assert rt.run_spmd(program) == [True] * 4


def test_collectives_compose_with_bulk_app_stores():
    """Many application stores in flight must not corrupt a concurrent
    collective round: tree messages and stores share the fabric, not
    any state."""
    rt, tree = _runtime(region_size=64)

    def program(proc):
        me = proc.my_node
        # burst of one-way stores to everyone, never awaited directly
        for k in range(10):
            for q in range(proc.nprocs):
                if q != me:
                    yield from proc.store(proc.gptr(q, "x", me * 10 + k), 1.0)
        total = yield from tree.allreduce(me, float(me))
        yield from collective.all_store_sync(proc, tree)
        landed = sum(
            proc.local("x")[q * 10 + k] == 1.0
            for q in range(proc.nprocs)
            if q != me
            for k in range(10)
        )
        return (total, landed)

    results = rt.run_spmd(program)
    assert all(t == 6.0 for t, _ in results)   # 0+1+2+3
    assert all(landed == 30 for _, landed in results)


def test_collective_traffic_is_not_counted_as_stores():
    """The store counts ``all_store_sync`` compares see application
    stores only: tree rounds (its own included) leave them unchanged."""
    rt, tree = _runtime()

    def program(proc):
        me = proc.my_node
        st = proc.rt.state(me)
        yield from proc.store(proc.gptr((me + 1) % proc.nprocs, "x", 0), 1.0)
        yield from collective.all_store_sync(proc, tree)
        before = (st.stores_sent, st.stores_received)
        for _ in range(3):
            yield from tree.bcast(me, 1, 5.0)
            yield from tree.allreduce(me, float(me))
            yield from collective.all_store_sync(proc, tree)
        return before, (st.stores_sent, st.stores_received)

    assert rt.run_spmd(program) == [((1, 1), (1, 1))] * 4
