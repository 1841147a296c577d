"""Unit tests for the CC++ RMI engine, contexts and collectives."""

import numpy as np
import pytest

from repro.ccpp import (
    CCppRuntime,
    ObjectGlobalPtr,
    ProcessorObject,
    WaitMode,
    processor_class,
    remote,
)
from repro.ccpp.collective import CCBarrier
from repro.errors import SimulationError
from repro.machine.cluster import Cluster
from repro.sim.account import CounterNames
from repro.sim.effects import Charge
from repro.sim.account import Category


@processor_class
class Target(ProcessorObject):
    """Remote-side fixture used across these tests."""

    def __init__(self, base=0.0):
        self.value = float(base)
        self.calls = []
        self.data = self.alloc_data(f"tgt.{self.obj_id}.{self.my_node}", 8)

    @remote
    def plain(self, x=0):
        self.calls.append(("plain", x))
        return self.value + x

    @remote(threaded=True)
    def slow_add(self, x):
        self.calls.append(("slow_add", x))
        yield Charge(10.0, Category.CPU)
        self.value += x
        return self.value

    @remote(atomic=True)
    def atomic_add(self, x):
        old = self.value
        yield Charge(5.0, Category.CPU)
        self.value = old + x
        return self.value

    @remote(threaded=True)
    def echo_array(self, arr):
        return np.asarray(arr) * 2.0

    @remote(threaded=True)
    def boom(self):
        raise ValueError("remote failure")


def _rt(n=2, **kw):
    return CCppRuntime(Cluster(n), **kw)


def _run(rt, program):
    thread = rt.launch(0, program)
    rt.run()
    return thread.result


class TestBasicRMI:
    def test_create_and_invoke(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target, 10.0)
            value = yield from ctx.rmi(gp, "plain", 5)
            return value

        assert _run(rt, program) == 15.0

    def test_local_create(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(0, Target, 3.0)
            assert gp.node == 0
            return (yield from ctx.rmi(gp, "plain"))

        assert _run(rt, program) == 3.0

    def test_threaded_rmi_runs_method_body(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target, 0.0)
            a = yield from ctx.rmi(gp, "slow_add", 4.0)
            b = yield from ctx.rmi(gp, "slow_add", 6.0)
            return (a, b)

        assert _run(rt, program) == (4.0, 10.0)

    def test_spin_and_park_same_result(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target, 1.0)
            a = yield from ctx.rmi(gp, "plain", 1, wait=WaitMode.SPIN)
            b = yield from ctx.rmi(gp, "plain", 1, wait=WaitMode.PARK)
            return (a, b)

        assert _run(rt, program) == (2.0, 2.0)

    def test_array_args_and_results(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            out = yield from ctx.rmi(gp, "echo_array", np.arange(5.0))
            return out

        out = _run(rt, program)
        assert np.array_equal(out, np.arange(5.0) * 2.0)

    def test_remote_exception_propagates_to_caller(self):
        """A raising method body is marshalled back and re-raised at the
        initiator as RemoteInvocationError — the callee keeps running."""
        from repro.errors import RemoteInvocationError

        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            try:
                yield from ctx.rmi(gp, "boom")
            except RemoteInvocationError as exc:
                # the callee survives: issue another RMI over the same path
                ok = yield from ctx.rmi(gp, "plain", 1)
                return (exc.node, "remote failure" in exc.detail, ok)

        assert _run(rt, program) == (1, True, 1.0)

    def test_unknown_method_rejected(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            yield from ctx.rmi(gp, "missing_method")

        with pytest.raises(SimulationError):
            _run(rt, program)


class TestStubCache:
    def test_cold_then_warm(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            for _ in range(5):
                yield from ctx.rmi(gp, "plain")

        _run(rt, program)
        counters = rt.cluster.aggregate_counters()
        # one cold miss for create + one for plain; rest warm
        assert counters.get(CounterNames.RMI_COLD) == 2
        assert counters.get(CounterNames.RMI_WARM) == 4

    def test_cold_slower_than_warm(self):
        rt = _rt()
        times = []

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            for _ in range(3):
                t0 = ctx.node.sim.now
                yield from ctx.rmi(gp, "plain", wait=WaitMode.SPIN)
                times.append(ctx.node.sim.now - t0)

        _run(rt, program)
        assert times[0] > times[1]
        assert times[1] == pytest.approx(times[2])

    def test_caching_disabled_every_call_cold(self):
        rt = _rt(stub_caching=False)

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            for _ in range(3):
                yield from ctx.rmi(gp, "plain")

        _run(rt, program)
        counters = rt.cluster.aggregate_counters()
        assert counters.get(CounterNames.RMI_WARM) == 0
        assert counters.get(CounterNames.RMI_COLD) == 4

    def test_per_destination_cache_entries(self):
        rt = _rt(3)

        def program(ctx):
            gp1 = yield from ctx.create(1, Target)
            gp2 = yield from ctx.create(2, Target)
            yield from ctx.rmi(gp1, "plain")
            yield from ctx.rmi(gp2, "plain")  # different node: cold again

        _run(rt, program)
        assert rt.cluster.aggregate_counters().get(CounterNames.RMI_COLD) == 4


class TestPersistentBuffers:
    def test_warm_invocations_reuse_rbuf(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            for i in range(4):
                yield from ctx.rmi(gp, "slow_add", float(i))

        _run(rt, program)
        counters = rt.cluster.aggregate_counters()
        assert counters.get(CounterNames.RBUF_REUSE) >= 3

    def test_disabled_buffers_never_reuse(self):
        rt = _rt(persistent_buffers=True)
        rt2 = _rt(persistent_buffers=False)

        def program(ctx):
            gp = yield from ctx.create(1, Target)
            for i in range(4):
                yield from ctx.rmi(gp, "slow_add", float(i))

        _run(rt2, program)
        assert rt2.cluster.aggregate_counters().get(CounterNames.RBUF_REUSE) == 0


class TestGPAccess:
    def test_gp_read_write_roundtrip(self):
        rt = _rt()

        def program(ctx):
            gp_obj = yield from ctx.create(1, Target)
            target = rt.object_table(1).get(gp_obj.obj_id)
            dgp = target.data_ptr(target.data_region_name())
            yield from ctx.gp_write(dgp + 2, 7.5)
            return (yield from ctx.gp_read(dgp + 2))

        # helper for region name
        def region_name(self):
            return f"tgt.{self.obj_id}.{self.my_node}"

        Target.data_region_name = region_name
        try:
            assert _run(rt, program) == 7.5
        finally:
            del Target.data_region_name

    def test_gp_local_access_cheap(self):
        rt = _rt()

        def program(ctx):
            gp_obj = yield from ctx.create(0, Target)
            dgp = ctx.data_ptr(f"tgt.{gp_obj.obj_id}.0")
            t0 = ctx.node.sim.now
            yield from ctx.gp_write(dgp, 1.0)
            value = yield from ctx.gp_read(dgp)
            return (value, ctx.node.sim.now - t0)

        value, elapsed = _run(rt, program)
        assert value == 1.0
        assert elapsed < 10.0  # no round trips

    def test_gp_remote_read_creates_service_thread(self):
        rt = _rt()

        def program(ctx):
            gp_obj = yield from ctx.create(1, Target)
            dgp = ctx.data_ptr(f"tgt.{gp_obj.obj_id}.1").__class__(
                1, f"tgt.{gp_obj.obj_id}.1", 0
            )
            before = rt.cluster.aggregate_counters().get(CounterNames.THREAD_CREATE)
            yield from ctx.gp_read(dgp)
            after = rt.cluster.aggregate_counters().get(CounterNames.THREAD_CREATE)
            return after - before

        assert _run(rt, program) == 1


class TestAsyncRMI:
    def test_one_sided_invocation_runs(self):
        rt = _rt()

        def program(ctx):
            gp = yield from ctx.create(1, Target, 0.0)
            yield from ctx.rmi_async(gp, "slow_add", 5.0)
            # observe completion via a subsequent synchronous call
            yield from ctx.rmi(gp, "plain")
            return rt.object_table(1).get(gp.obj_id).value

        assert _run(rt, program) == 5.0


class TestCollectives:
    def test_barrier_holds_until_all_arrive(self):
        rt = _rt(4)
        release_times = {}
        barrier_id = rt._create_local(0, "CCBarrier", (4,))
        gp = ObjectGlobalPtr(0, barrier_id, "CCBarrier")

        def program_factory(delay):
            def program(ctx):
                yield Charge(delay, Category.CPU)
                yield from CCBarrier.wait(ctx, gp)
                release_times[ctx.my_node] = ctx.node.sim.now

            return program

        for nid in range(4):
            rt.launch(nid, program_factory(100.0 * nid))
        rt.run()
        assert all(t >= 300.0 for t in release_times.values())

    def test_barrier_reusable_across_epochs(self):
        rt = _rt(2)
        barrier_id = rt._create_local(0, "CCBarrier", (2,))
        gp = ObjectGlobalPtr(0, barrier_id, "CCBarrier")
        epochs = []

        def program(ctx):
            for _ in range(3):
                e = yield from CCBarrier.wait(ctx, gp)
                if ctx.my_node == 0:
                    epochs.append(e)

        rt.launch(0, program)
        rt.launch(1, program)
        rt.run()
        assert epochs == [1, 2, 3]


class TestPar:
    def test_parfor_results_in_order(self):
        rt = _rt(1)

        def program(ctx):
            def body(i):
                def g():
                    yield Charge(float(10 - i), Category.CPU)
                    return i * i

                return g()

            return (yield from ctx.parfor(range(5), body))

        assert _run(rt, program) == [0, 1, 4, 9, 16]

    def test_par_runs_bodies_concurrently(self):
        rt = _rt(1)

        def program(ctx):
            t0 = ctx.node.sim.now

            def body():
                yield Charge(50.0, Category.CPU)

            yield from ctx.par([body() for _ in range(3)])
            return ctx.node.sim.now - t0

        # serial on one CPU: 3 x 50 + thread overheads; concurrency here
        # means overlap of *waiting*, not CPU — so just check completion
        assert _run(rt, program) >= 150.0

    def test_spawn_returns_handle(self):
        rt = _rt(1)

        def program(ctx):
            def child():
                yield Charge(5.0, Category.CPU)
                return "done"

            t = yield from ctx.spawn(child())
            from repro.threads.api import join

            return (yield from join(ctx.node, t))

        assert _run(rt, program) == "done"
