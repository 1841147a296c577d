"""Unit tests for the cooperative scheduler and thread services."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.machine.cluster import Cluster
from repro.sim.account import Category, CounterNames
from repro.sim.effects import Charge, Park, Switch
from repro.threads.api import join, spawn, yield_now
from repro.threads.thread import ThreadState

from tests.helpers import run_bodies


def test_charge_advances_clock_and_accounts():
    def body(node):
        yield Charge(25.0, Category.CPU)

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]))
    cluster.run()
    assert cluster.sim.now == 25.0
    assert cluster.nodes[0].account.get(Category.CPU) == 25.0


def test_zero_charge_costs_nothing():
    def body(node):
        for _ in range(10):
            yield Charge(0.0, Category.CPU)

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]))
    cluster.run()
    assert cluster.sim.now == 0.0


def test_spawn_charges_creation_cost():
    def child(node):
        yield Charge(1.0, Category.CPU)

    def main(node):
        yield from spawn(node, child(node), "child")

    cluster = Cluster(1)
    cluster.launch(0, main(cluster.nodes[0]))
    cluster.run()
    create = cluster.costs.threads.create
    assert cluster.nodes[0].account.get(Category.THREAD_MGMT) == create
    assert cluster.nodes[0].counters.get(CounterNames.THREAD_CREATE) == 1


def test_join_returns_child_result():
    def child(node):
        yield Charge(5.0, Category.CPU)
        return "payload"

    def main(node):
        t = yield from spawn(node, child(node), "child")
        return (yield from join(node, t))

    cluster = Cluster(1)
    main_thread = cluster.launch(0, main(cluster.nodes[0]))
    cluster.run()
    assert main_thread.result == "payload"


def test_join_already_finished_thread():
    def child(node):
        return 42
        yield

    def main(node):
        t = yield from spawn(node, child(node), "child")
        yield Charge(50.0, Category.CPU)  # child certainly done by now
        return (yield from join(node, t))

    cluster = Cluster(1)
    thread = cluster.launch(0, main(cluster.nodes[0]))
    cluster.run()
    assert thread.result == 42


def test_switch_charges_context_switch_and_counts_yield():
    def body(node):
        yield Switch()

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]))
    cluster.run()
    cs = cluster.costs.threads.context_switch
    assert cluster.nodes[0].account.get(Category.THREAD_MGMT) == cs
    assert cluster.nodes[0].counters.get(CounterNames.THREAD_YIELD) == 1


def test_yield_now_interleaves_two_threads():
    order = []

    def body(node, tag):
        for i in range(3):
            order.append((tag, i))
            yield from yield_now(node)

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0], "a"))
    cluster.launch(0, body(cluster.nodes[0], "b"))
    cluster.run()
    # round-robin interleave, not serial execution
    assert order[:4] == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


def test_nonpreemption_charge_is_atomic():
    """No other thread runs on the node while a charge elapses."""
    trace = []

    def long_runner(node):
        trace.append(("long-start", node.sim.now))
        yield Charge(100.0, Category.CPU)
        trace.append(("long-end", node.sim.now))

    def other(node):
        trace.append(("other", node.sim.now))
        yield Charge(1.0, Category.CPU)

    cluster = Cluster(1)
    cluster.launch(0, long_runner(cluster.nodes[0]))
    cluster.launch(0, other(cluster.nodes[0]))
    cluster.run()
    assert trace == [("long-start", 0.0), ("long-end", 100.0), ("other", 100.0)]


def test_park_without_waker_deadlocks():
    def body(node):
        yield Park()

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]))
    with pytest.raises(DeadlockError, match="blocked non-daemon"):
        cluster.run()


def test_parked_daemon_does_not_deadlock():
    def body(node):
        yield Park()

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]), daemon=True)
    cluster.run()  # drains cleanly


def test_wake_requires_parked_state():
    cluster = Cluster(1)

    def body(node):
        yield Charge(1.0, Category.CPU)

    thread = cluster.launch(0, body(cluster.nodes[0]))
    sched = cluster.nodes[0].scheduler
    with pytest.raises(SimulationError):
        sched.wake(thread)  # it is READY, not PARKED


def test_thread_exception_surfaces_as_simulation_error():
    def body(node):
        yield Charge(1.0, Category.CPU)
        raise RuntimeError("app bug")

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]))
    with pytest.raises(SimulationError, match="raised"):
        cluster.run()


def test_non_effect_yield_rejected():
    def body(node):
        yield "not an effect"

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]))
    with pytest.raises(SimulationError):
        cluster.run()


def test_idle_time_accounted_between_work():
    """A node waiting on the network accumulates IDLE charge."""
    from repro.am import install_am

    cluster = Cluster(2)
    eps = install_am(cluster)
    got = []

    def noop(ep, src, frame):
        got.append(src)
        return
        yield

    for ep in eps:
        ep.register_handler("noop", noop)

    def sender(node):
        ep = node.service("am")
        yield Charge(10.0, Category.CPU)
        yield from ep.send_short(1, "noop", nbytes=12)

    def receiver(node):
        ep = node.service("am")
        yield from ep.wait_and_poll()

    cluster.launch(0, sender(cluster.nodes[0]))
    cluster.launch(1, receiver(cluster.nodes[1]))
    cluster.run()
    assert got == [0]
    # node 1 idled from t=0 until the message was deliverable
    assert cluster.nodes[1].account.get(Category.IDLE) > 10.0


def test_states_reach_done():
    def body(node):
        yield Charge(1.0, Category.CPU)

    cluster = Cluster(1)
    t = cluster.launch(0, body(cluster.nodes[0]))
    assert t.state is ThreadState.READY
    cluster.run()
    assert t.state is ThreadState.DONE
    assert not t.alive


def test_join_self_rejected():
    def main(node):
        me = node.scheduler.current
        yield from join(node, me)

    cluster = Cluster(1)
    cluster.launch(0, main(cluster.nodes[0]))
    with pytest.raises(SimulationError):
        cluster.run()


def test_blocked_threads_listed_in_deadlock_error():
    def body(node):
        yield Park()

    cluster = Cluster(1)
    cluster.launch(0, body(cluster.nodes[0]), name="stuck-thread")
    with pytest.raises(DeadlockError) as excinfo:
        cluster.run()
    assert any("stuck-thread" in b for b in excinfo.value.blocked)


# --- voluntary switch delay vs same-instant arrivals


def test_switch_delay_survives_same_instant_arrival():
    """A voluntary Switch pays its full context-switch dispatch delay even
    when a message arrival with no inbox waiters lands at the same
    instant.

    The reference discipline used to schedule a zero-delay kick for that
    arrival; while the kick was queued, ``_dispatch_pending`` silently
    swallowed the Switch's *delayed* dispatch, so the next thread started
    with zero gap despite the switch having charged ``context_switch`` µs
    of THREAD_MGMT — accounting and timeline disagreed.  The kick elision
    removes that accident; this pins the consistent behaviour.
    """
    ran_at = {}

    def switcher(node):
        yield Charge(4.0, Category.CPU)
        yield Switch()
        ran_at["switcher_back"] = node.sim.now

    def other(node):
        ran_at["other"] = node.sim.now
        yield Charge(0.0, Category.CPU)

    cluster = Cluster(1)
    node = cluster.nodes[0]
    cluster.launch(0, switcher(node))
    cluster.launch(0, other(node))
    # lands exactly when switcher's charge ends and it yields Switch;
    # scheduled before the charge resume exists, so it fires first at 4.0
    cluster.sim.schedule(4.0, node.scheduler.on_message_arrival)
    cluster.run()

    switch_us = cluster.costs.threads.context_switch
    assert ran_at["other"] == 4.0 + switch_us
    assert ran_at["switcher_back"] == 4.0 + switch_us
    assert node.account.get(Category.THREAD_MGMT) == switch_us
