"""Unit tests for Split-C programs' tree collectives, CC++ futures, and
AM flow control / interrupt reception."""

import pytest

from repro.am import install_am
from repro.ccpp import CCppRuntime, ProcessorObject, processor_class, remote
from repro.machine.cluster import Cluster
from repro.machine.costs import SP2_COSTS
from repro.sim.account import Category, CounterNames
from repro.rma.tree import TreeComm
from repro.sim.effects import Charge
from repro.splitc import SplitCRuntime


def _sc_runtime(n=4):
    rt = SplitCRuntime(Cluster(n))
    return rt, TreeComm(rt.endpoints, radix=2)


class TestSplitCCollectives:
    """Values the grid tests in ``test_tree_collectives`` do not use:
    non-roots hold a different value than the root, and contributions
    are distinct powers of two, so a dropped or doubled one shows."""

    def test_broadcast(self):
        rt, tree = _sc_runtime()

        def program(proc):
            value = 42.5 if proc.my_node == 1 else -1.0
            return (yield from tree.bcast(proc.my_node, 1, value))

        assert rt.run_spmd(program) == [42.5] * 4

    def test_reduce_add(self):
        rt, tree = _sc_runtime()

        def program(proc):
            return (yield from tree.reduce(proc.my_node, 0, float(2 ** proc.my_node)))

        assert rt.run_spmd(program) == [15.0, None, None, None]

    def test_all_reduce_add(self):
        rt, tree = _sc_runtime()

        def program(proc):
            return (yield from tree.allreduce(proc.my_node, float(2 ** proc.my_node)))

        assert rt.run_spmd(program) == [15.0] * 4

    def test_repeated_collectives(self):
        rt, tree = _sc_runtime()

        def program(proc):
            total = 0.0
            for round_no in range(3):
                total += yield from tree.allreduce(
                    proc.my_node, float(proc.my_node + round_no)
                )
            return total

        # round sums: 0+1+2+3=6, then 10, then 14 -> 30
        assert rt.run_spmd(program) == [30.0] * 4


@processor_class
class FutureTarget(ProcessorObject):
    @remote(threaded=True)
    def slow_double(self, x):
        yield Charge(100.0, Category.CPU)
        return 2 * x


class TestRMIFutures:
    def test_future_resolves(self):
        rt = CCppRuntime(Cluster(2))

        def program(ctx):
            gp = yield from ctx.create(1, FutureTarget)
            fut = yield from ctx.rmi_future(gp, "slow_double", 21)
            return (yield from fut.get())

        t = rt.launch(0, program)
        rt.run()
        assert t.result == 42

    def test_futures_overlap_requests(self):
        """Two futures in flight take ~one method's latency, not two."""
        rt = CCppRuntime(Cluster(3))

        def program(ctx):
            gp1 = yield from ctx.create(1, FutureTarget)
            gp2 = yield from ctx.create(2, FutureTarget)
            t0 = ctx.node.sim.now
            f1 = yield from ctx.rmi_future(gp1, "slow_double", 1)
            f2 = yield from ctx.rmi_future(gp2, "slow_double", 2)
            a = yield from f1.get()
            b = yield from f2.get()
            return (a, b, ctx.node.sim.now - t0)

        t = rt.launch(0, program)
        rt.run()
        a, b, elapsed = t.result
        assert (a, b) == (2, 4)
        # serial would be >= 2 x (100 method + ~80 RMI); overlapped is less
        assert elapsed < 320.0

    def test_done_flag(self):
        rt = CCppRuntime(Cluster(2))

        def program(ctx):
            gp = yield from ctx.create(1, FutureTarget)
            fut = yield from ctx.rmi_future(gp, "slow_double", 3)
            before = fut.done
            value = yield from fut.get()
            return (before, fut.done, value)

        t = rt.launch(0, program)
        rt.run()
        assert t.result == (False, True, 6)


class TestFlowControl:
    def test_outstanding_messages_bounded_by_window(self):
        costs = SP2_COSTS.with_net(credit_window=4)
        cluster = Cluster(2, costs=costs)
        eps = install_am(cluster)
        in_flight_max = {"v": 0}

        def sink(ep, src, frame):
            return
            yield

        for ep in eps:
            ep.register_handler("sink", sink)

        def sender(node):
            ep = node.service("am")
            for _ in range(20):
                yield from ep.send_short(1, "sink", nbytes=12)
                outstanding = (
                    cluster.network.packets_sent - cluster.network.packets_delivered
                )
                in_flight_max["v"] = max(in_flight_max["v"], outstanding)

        def server(node):
            ep = node.service("am")
            while True:
                yield from ep.wait_and_poll()

        cluster.launch(1, server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.run()
        # all 20 delivered despite the tiny window
        handled = cluster.nodes[1].counters.get(CounterNames.POLLS)
        assert handled > 0
        assert cluster.network.quiescent() or not cluster.nodes[1].has_mail

    def test_tiny_window_still_completes_bidirectional(self):
        """Both directions saturated: flow control must not deadlock
        (senders service their own inboxes while waiting)."""
        costs = SP2_COSTS.with_net(credit_window=2)
        cluster = Cluster(2, costs=costs)
        eps = install_am(cluster)
        counts = {0: 0, 1: 0}

        def sink(ep, src, frame):
            counts[ep.node.nid] += 1
            return
            yield

        for ep in eps:
            ep.register_handler("sink", sink)

        def pump(node, dst):
            ep = node.service("am")
            for _ in range(15):
                yield from ep.send_short(dst, "sink", nbytes=12)
            yield from ep.poll_until(lambda: counts[node.nid] >= 15)

        cluster.launch(0, pump(cluster.nodes[0], 1))
        cluster.launch(1, pump(cluster.nodes[1], 0))
        cluster.run()
        assert counts == {0: 15, 1: 15}

    def test_window_must_be_at_least_two(self):
        from repro.errors import CalibrationError

        with pytest.raises(CalibrationError):
            SP2_COSTS.with_net(credit_window=1)


class TestInterruptReception:
    def test_interrupt_mode_charges_per_message(self):
        results = {}
        for mode in ("polling", "interrupt"):
            rt = CCppRuntime(Cluster(2), reception=mode)

            def program(ctx):
                gp = ctx.rt.manager_ptr(1)
                yield from ctx.rmi(gp, "ping")
                t0 = ctx.node.sim.now
                for _ in range(5):
                    yield from ctx.rmi(gp, "ping")
                results[ctx.rt.reception] = (ctx.node.sim.now - t0) / 5

            rt.launch(0, program)
            rt.run()
        assert results["interrupt"] > results["polling"] + 1.5 * SP2_COSTS.net.interrupt_cpu

    def test_unknown_reception_mode_rejected(self):
        from repro.errors import RuntimeStateError

        with pytest.raises(RuntimeStateError):
            install_am(Cluster(1), reception="telepathy")
