"""Unit tests for the Active Messages layer."""

import pytest

from repro.am import AMEndpoint, install_am
from repro.errors import RuntimeStateError, SimulationError
from repro.machine.cluster import Cluster
from repro.machine.costs import SP2_COSTS
from repro.sim.account import Category, CounterNames
from repro.sim.effects import Charge


def _cluster_with_am(n=2, **cluster_kw):
    cluster = Cluster(n, **cluster_kw)
    eps = install_am(cluster)
    return cluster, eps


def _poll_server(node):
    ep = node.service("am")
    while True:
        yield from ep.wait_and_poll()


class TestHandlers:
    def test_register_and_dispatch(self):
        cluster, eps = _cluster_with_am()
        seen = []

        def h(ep, src, frame):
            seen.append((src, frame.args))
            return
            yield

        eps[1].register_handler("h", h)

        def sender(node):
            yield from node.service("am").send_short(1, "h", args=(1, 2), nbytes=16)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.run()
        assert seen == [(0, (1, 2))]

    def test_duplicate_handler_rejected(self):
        _, eps = _cluster_with_am()
        eps[0].register_handler("x", lambda *a: None)
        with pytest.raises(RuntimeStateError):
            eps[0].register_handler("x", lambda *a: None)
        eps[0].register_handler("x", lambda *a: None, replace=True)

    @pytest.mark.parametrize("runtime", ["splitc", "tham", "rma", "tree"])
    def test_runtime_table_is_per_endpoint(self, runtime):
        """A runtime builds its handler table once and hands it to every
        endpoint: each answers the same names, a later registration on
        one node reaches no other, and a duplicate name still raises."""
        from repro.ccpp import make_tham_runtime
        from repro.rma import install_rma
        from repro.rma.tree import TreeComm
        from repro.splitc import SplitCRuntime

        if runtime == "tham":
            eps = make_tham_runtime(3).endpoints
        elif runtime == "rma":
            eps = install_rma(Cluster(3)).endpoints
        else:
            eps = SplitCRuntime(Cluster(3)).endpoints
            if runtime == "tree":
                TreeComm(eps)
        names = set(eps[0]._handlers)
        assert names and all(set(ep._handlers) == names for ep in eps)
        some = "tree.bcast" if runtime == "tree" else min(names)
        assert len({ep._handlers[some] for ep in eps}) == 1

        def h(ep, src, frame):
            return
            yield

        eps[1].register_handler("extra", h)
        eps[2].register_handler(some, h, replace=True)
        assert "extra" not in eps[0]._handlers and "extra" not in eps[2]._handlers
        assert eps[0]._handlers[some] is not h and eps[1]._handlers[some] is not h
        with pytest.raises(RuntimeStateError, match="already registered"):
            eps[0].register_handler(some, h)
        with pytest.raises(RuntimeStateError, match="already registered"):
            eps[1].register_handlers({"fresh": h, "extra": h})
        assert "fresh" not in eps[1]._handlers

    def test_replaced_runtime_handler_is_the_one_dispatched(self):
        """``replace=True`` on a handler a language runtime registered
        must take effect on a plain run, not only with a recorder
        attached: ``poll`` has one dispatch table."""
        from repro.splitc import SplitCRuntime

        rt = SplitCRuntime(Cluster(2))
        for nid in range(2):
            rt.memory(nid).alloc("r", 4)
        seen = []

        def spy(ep, src, frame):
            seen.append(frame.args)
            yield from rt._h_store(ep, src, frame)

        rt.endpoint(1).register_handler("sc.store", spy, replace=True)

        def prog(proc):
            if proc.my_node == 0:
                yield from proc.store(proc.gptr(1, "r", 2), 7.0)
            else:
                yield from proc.await_stores(1)

        rt.run_spmd(prog)
        assert seen == [("r", 2, 7.0)]
        assert rt.memory(1).region("r")[2] == 7.0

    def test_oversize_short_rejected_uniformly(self):
        """Any short frame past short_max_bytes is rejected — with or
        without a data payload (the old guard only fired with data and at
        ten times the limit)."""
        cluster, eps = _cluster_with_am()
        limit = cluster.costs.net.short_max_bytes

        def data_heavy(node):
            yield from node.service("am").send_short(1, "h", data=b"x" * (limit + 1))

        def args_heavy(node):
            # no data at all; nbytes override says the frame is too big
            yield from node.service("am").send_short(1, "h", nbytes=limit + 1)

        for body in (data_heavy, args_heavy):
            gen = body(cluster.nodes[0])
            with pytest.raises(RuntimeStateError, match="short frame"):
                next(gen)

    def test_short_limit_sizes_memoryview_payload_by_nbytes(self):
        """The 64-byte short-frame guard must size zero-copy memoryview
        payloads by ``nbytes``: ``len()`` of a multi-dimensional view
        counts the first axis only and would let oversize frames through."""
        import numpy as np

        from repro.am.frames import AMFrame

        cluster, eps = _cluster_with_am()
        limit = cluster.costs.net.short_max_bytes

        # 2 x 16 float64 view: len() == 2 but nbytes == 256 > limit
        wide = memoryview(np.zeros((2, 16), dtype=np.float64))
        assert len(wide) == 2 and wide.nbytes > limit
        assert AMFrame("h", (), wide).payload_bytes() == wide.nbytes

        def sender(node):
            yield from node.service("am").send_short(1, "h", data=wide)

        gen = sender(cluster.nodes[0])
        with pytest.raises(RuntimeStateError, match="short frame"):
            next(gen)

    def test_short_memoryview_within_limit_accepted(self):
        """A flat view whose nbytes fit the short frame goes through, and
        the handler reads the payload zero-copy."""
        cluster, eps = _cluster_with_am()
        got = []

        def h(ep, src, frame):
            got.append(bytes(frame.data))
            return
            yield

        eps[1].register_handler("h", h)
        payload = memoryview(bytearray(b"0123456789abcdef"))

        def sender(node):
            yield from node.service("am").send_short(1, "h", data=payload)

        def drain(node):
            yield from node.service("am").wait_and_poll()

        cluster.launch(1, drain(cluster.nodes[1]))
        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.run()
        assert got == [b"0123456789abcdef"]

    def test_short_at_exact_limit_accepted(self):
        cluster, eps = _cluster_with_am()
        eps[1].register_handler("h", lambda *a: iter(()))
        limit = cluster.costs.net.short_max_bytes

        def sender(node):
            yield from node.service("am").send_short(1, "h", nbytes=limit)

        def drain(node):
            yield from node.service("am").wait_and_poll()

        cluster.launch(1, drain(cluster.nodes[1]))
        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.run()
        assert cluster.network.packets_delivered == 1

    def test_unknown_handler_is_loud(self):
        cluster, eps = _cluster_with_am()

        def sender(node):
            yield from node.service("am").send_short(1, "ghost", nbytes=12)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        with pytest.raises(SimulationError):
            cluster.run()


class TestRoundTrip:
    def test_short_rtt_matches_calibration(self):
        """Minimal request/reply lands in the paper's 53-55 us band."""
        cluster, eps = _cluster_with_am()
        state = {"got": 0}

        def echo(ep, src, frame):
            yield from ep.send_short(src, "ack", nbytes=12)

        def ack(ep, src, frame):
            state["got"] += 1
            return
            yield

        for ep in eps:
            ep.register_handler("echo", echo)
            ep.register_handler("ack", ack)

        times = []

        def main(node):
            ep = node.service("am")
            for _ in range(3):
                t0 = node.sim.now
                want = state["got"] + 1
                yield from ep.send_short(1, "echo", nbytes=16)
                yield from ep.poll_until(lambda: state["got"] >= want)
                times.append(node.sim.now - t0)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, main(cluster.nodes[0]))
        cluster.run()
        for t in times:
            assert 50.0 <= t <= 58.0

    def test_bulk_carries_real_payload(self):
        cluster, eps = _cluster_with_am()
        landed = {}

        def sink(ep, src, frame):
            landed["data"] = frame.data
            return
            yield

        eps[1].register_handler("sink", sink)
        payload = bytes(range(256)) * 4

        def sender(node):
            yield from node.service("am").send_bulk(1, "sink", data=payload)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.run()
        assert landed["data"] == payload

    def test_bulk_slower_than_short_for_setup(self):
        """The bulk path costs ~15 us more in sender-side setup."""
        cluster, _ = _cluster_with_am()
        node = cluster.nodes[0]
        net = node.costs.net

        def sender(n):
            ep = n.service("am")
            t0 = n.sim.now
            yield from ep.send_short(1, "x", nbytes=16)
            t1 = n.sim.now
            yield from ep.send_bulk(1, "x", nbytes=16)
            t2 = n.sim.now
            assert (t2 - t1) - (t1 - t0) == pytest.approx(net.bulk_setup_cpu)

        # register no-op handler so unknown-handler check doesn't fire
        for ep in (node.service("am"), cluster.nodes[1].service("am")):
            ep.register_handler("x", lambda *a: iter(()))
        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(node))
        cluster.run()


class TestPolling:
    def test_empty_poll_charges_poll_cost(self):
        cluster, eps = _cluster_with_am(1)

        def body(node):
            yield from node.service("am").poll()

        cluster.launch(0, body(cluster.nodes[0]))
        cluster.run()
        assert cluster.nodes[0].account.get(Category.NET) == pytest.approx(
            cluster.costs.net.poll_empty_cpu
        )
        assert cluster.nodes[0].counters.get(CounterNames.POLLS) == 1

    def test_poll_drains_all_deliverable(self):
        cluster, eps = _cluster_with_am()
        count = {"n": 0}

        def h(ep, src, frame):
            count["n"] += 1
            return
            yield

        eps[1].register_handler("h", h)

        def sender(node):
            ep = node.service("am")
            for _ in range(4):
                yield from ep.send_short(1, "h", nbytes=12)
            yield Charge(1000.0, Category.CPU)  # let them all land

        def receiver(node):
            yield Charge(500.0, Category.CPU)  # everything queued meanwhile
            n = yield from node.service("am").poll()
            assert n == 4

        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.launch(1, receiver(cluster.nodes[1]))
        cluster.run()
        assert count["n"] == 4

    def test_queuing_delay_until_poll(self):
        """Messages wait in the inbox until the receiver polls — the
        queuing delay the paper identifies as a latency component."""
        cluster, eps = _cluster_with_am()
        handled_at = {}

        def h(ep, src, frame):
            handled_at["t"] = ep.node.sim.now
            return
            yield

        eps[1].register_handler("h", h)

        def sender(node):
            yield from node.service("am").send_short(1, "h", nbytes=12)

        def busy_receiver(node):
            yield Charge(400.0, Category.CPU)  # compute, no polling
            yield from node.service("am").poll()

        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.launch(1, busy_receiver(cluster.nodes[1]))
        cluster.run()
        assert handled_at["t"] >= 400.0

    def test_poll_on_send_services_inbox(self):
        """A send triggers a poll of the sender's own inbox."""
        cluster, eps = _cluster_with_am()
        seen = []

        def h(ep, src, frame):
            seen.append(ep.node.nid)
            return
            yield

        for ep in eps:
            ep.register_handler("h", h)

        def node0(node):
            ep = node.service("am")
            yield from ep.send_short(1, "h", nbytes=12)
            yield Charge(200.0, Category.CPU)  # node 1's message lands now
            # this send must service the queued message via poll-on-send
            yield from ep.send_short(1, "h", nbytes=12)

        def node1(node):
            ep = node.service("am")
            yield from ep.wait_and_poll()
            yield from ep.send_short(0, "h", nbytes=12)
            yield from ep.wait_and_poll()

        cluster.launch(0, node0(cluster.nodes[0]))
        cluster.launch(1, node1(cluster.nodes[1]))
        cluster.run()
        assert 0 in seen and seen.count(1) == 2

    def test_handlers_do_not_poll_recursively(self):
        """A handler's own send must not recursively dispatch handlers."""
        cluster, eps = _cluster_with_am()
        depth = {"now": 0, "max": 0}

        def h(ep, src, frame):
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            yield from ep.send_short(src, "ack", nbytes=12)
            depth["now"] -= 1

        def ack(ep, src, frame):
            return
            yield

        for ep in eps:
            ep.register_handler("h", h)
            ep.register_handler("ack", ack)

        def sender(node):
            ep = node.service("am")
            for _ in range(3):
                yield from ep.send_short(1, "h", nbytes=12)
            yield from ep.poll_until(lambda: False if cluster.network.packets_sent < 6 else True)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.run()
        assert depth["max"] == 1


class TestCreditFlowControl:
    """Edge cases of the credit window (the paper's AM flow control)."""

    def _stream(self, n_msgs, *, window, reception="polling", final_polls=0):
        """``final_polls`` lets the sender absorb trailing credit refills
        (refills are applied at poll time, not delivery time)."""
        cluster = Cluster(2, costs=SP2_COSTS.with_net(credit_window=window))
        eps = install_am(cluster, reception=reception)
        handled = []

        def h(ep, src, frame):
            handled.append(frame.args[0])
            return
            yield

        eps[1].register_handler("h", h)

        def sender(node):
            ep = node.service("am")
            for i in range(n_msgs):
                yield from ep.send_short(1, "h", args=(i,), nbytes=16)
            for _ in range(final_polls):
                yield from ep.wait_and_poll()

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        cluster.run()
        return cluster, eps, handled

    def test_refill_at_exactly_half_window(self):
        """Consuming exactly half the window triggers one refill that
        restores the sender to a full window."""
        cluster, eps, handled = self._stream(2, window=4, final_polls=1)
        assert handled == [0, 1]
        # receiver sent one refill of window//2 = 2 -> sender back at 4
        assert eps[0]._credits[1] == 4
        assert eps[1]._consumed[0] == 0

    def test_below_half_window_no_refill(self):
        cluster, eps, handled = self._stream(1, window=4)
        assert handled == [0]
        assert eps[0]._credits[1] == 3  # one consumed, nothing refilled
        assert eps[1]._consumed[0] == 1

    def test_exhaustion_stalls_then_recovers(self):
        """More messages than the window: the sender must stall on
        credits and resume on refills, and every message still lands."""
        cluster, eps, handled = self._stream(9, window=2)
        assert handled == list(range(9))
        # conservation: consumed credits match refills minus outstanding
        assert 0 <= eps[0]._credits[1] <= 2

    def test_exhaustion_with_interrupt_reception(self):
        """Same exhaustion pattern under interrupt-mode reception (no
        poll-on-send; the spin in _acquire_credit does the polling)."""
        cluster, eps, handled = self._stream(9, window=2, reception="interrupt")
        assert handled == list(range(9))
        net = cluster.costs.net
        # each handled message paid the software-interrupt surcharge
        assert cluster.nodes[1].account.get(Category.NET) >= 9 * net.interrupt_cpu

    def test_loopback_bypasses_credits(self):
        """Self-sends never consume window credits (no refill protocol
        with yourself) — more sends than the window must not stall."""
        cluster, eps = _cluster_with_am(1, costs=SP2_COSTS.with_net(credit_window=2))
        handled = []

        def h(ep, src, frame):
            handled.append(frame.args[0])
            return
            yield

        eps[0].register_handler("h", h)

        def body(node):
            ep = node.service("am")
            for i in range(6):  # 3x the window
                yield from ep.send_short(0, "h", args=(i,), nbytes=16)
            yield from ep.poll_until(lambda: len(handled) >= 6)

        cluster.launch(0, body(cluster.nodes[0]))
        cluster.run()
        assert handled == list(range(6))
        assert 0 not in eps[0]._credits  # the bypass never touched the table

    def test_handler_replies_exempt_from_credits(self):
        """A handler's reply must not consume window credits (the
        request/reply protocol pre-reserves its slot) — otherwise a full
        window of requests could deadlock both sides."""
        cluster, eps = _cluster_with_am(2, costs=SP2_COSTS.with_net(credit_window=2))
        got = {"n": 0}

        def echo(ep, src, frame):
            yield from ep.send_short(src, "ack", nbytes=12)

        def ack(ep, src, frame):
            got["n"] += 1
            return
            yield

        for ep in eps:
            ep.register_handler("echo", echo)
            ep.register_handler("ack", ack)

        def main(node):
            ep = node.service("am")
            for i in range(6):
                want = got["n"] + 1
                yield from ep.send_short(1, "echo", nbytes=16)
                yield from ep.poll_until(lambda: got["n"] >= want)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, main(cluster.nodes[0]))
        cluster.run()
        assert got["n"] == 6  # 3x the window of round trips, no stall
        # replies rode reserved slots: node 1's balance never went below
        # its initial window (it only grows, from refills for the acks)
        assert eps[1]._credits.get(0, 2) >= 2
