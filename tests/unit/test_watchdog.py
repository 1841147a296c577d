"""Unit tests for the stall watchdog and the DeadlockError diagnostics.

Two distinct failure shapes:

* **drain deadlock** — the event queue empties while non-daemon threads
  are still blocked (a lost credit refill with retries disabled);
  caught by ``Cluster._check_deadlock`` after ``run()`` returns.
* **virtual-time livelock** — events keep firing (a retransmit timer
  whose packets the fault plan keeps eating) but no packet is delivered
  and no thread takes a step; only the watchdog can catch this one.

Both raise :class:`DeadlockError` carrying the full diagnostic dump.
"""

import pytest

from repro.am import RetryPolicy, install_am
from repro.errors import DeadlockError, SimulationError
from repro.machine.cluster import Cluster
from repro.machine.costs import SP2_COSTS
from repro.machine.faults import FaultPlan
from repro.sim.engine import Simulator, Watchdog


class TestWatchdogEngine:
    def test_window_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Watchdog(sim, lambda: 0, window_us=0.0, on_stall=lambda: False)

    def test_detects_livelock(self):
        """Self-rescheduling events with a frozen metric trip the dog."""
        sim = Simulator()

        def spin():
            sim.schedule(10.0, spin)

        sim.schedule(10.0, spin)

        class Boom(Exception):
            pass

        def on_stall():
            raise Boom

        Watchdog(sim, lambda: 0, window_us=100.0, on_stall=on_stall).start()
        with pytest.raises(Boom):
            sim.run()
        assert sim.now == pytest.approx(100.0)

    def test_progress_resets_the_stall_count(self):
        sim = Simulator()
        beat = {"n": 0}

        def pulse():
            beat["n"] += 1
            if beat["n"] < 5:
                sim.schedule(60.0, pulse)

        sim.schedule(60.0, pulse)
        stalls = []
        dog = Watchdog(
            sim, lambda: beat["n"], window_us=100.0, on_stall=lambda: stalls.append(1) or True
        ).start()
        sim.run()
        assert not stalls  # a pulse landed inside every window
        assert dog.ticks >= 2

    def test_does_not_keep_simulation_alive(self):
        """With nothing else pending, the watchdog stands down by itself."""
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        dog = Watchdog(sim, lambda: 0, window_us=50.0, on_stall=lambda: True).start()
        sim.run()  # must terminate
        assert dog.ticks == 1  # fired once, found nothing pending, stopped
        assert sim.now == pytest.approx(50.0)

    def test_stop_cancels(self):
        sim = Simulator()
        sim.schedule(200.0, lambda: None)
        dog = Watchdog(sim, lambda: 0, window_us=50.0, on_stall=lambda: True).start()
        dog.stop()
        sim.run()
        assert dog.ticks == 0


def _poll_server(node):
    ep = node.service("am")
    while True:
        yield from ep.wait_and_poll()


class TestDrainDeadlock:
    def test_lost_refill_with_retries_disabled(self):
        """ISSUE acceptance case: a 2-credit window, the refill eaten by
        the fault plan, retransmissions off — the sender blocks forever
        and the drained queue turns into a diagnosed DeadlockError."""
        cluster = Cluster(
            2,
            costs=SP2_COSTS.with_net(credit_window=2),
            faults=FaultPlan().drop("am.credit", rate=1.0),
        )
        eps = install_am(cluster, reliable=True, retry=RetryPolicy(max_retries=0))
        eps[1].register_handler("h", lambda *a: iter(()))

        def sender(node):
            ep = node.service("am")
            for i in range(4):  # needs refills after the first two
                yield from ep.send_short(1, "h", nbytes=16)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        with pytest.raises(DeadlockError) as excinfo:
            cluster.run()
        err = excinfo.value
        assert "blocked non-daemon" in str(err)
        assert err.blocked  # the sender, by name and state
        # the dump pinpoints the credit spin and the protocol state
        assert "_acquire_credit" in err.diagnostics
        assert "credits=" in err.diagnostics
        assert "unacked=" in err.diagnostics  # the receiver's lost refill

    def test_diagnose_lists_generator_stacks(self):
        cluster = Cluster(2)
        install_am(cluster)

        def waiter(node):
            yield from node.service("am").wait_and_poll()  # nothing ever comes

        cluster.launch(0, waiter(cluster.nodes[0]))
        with pytest.raises(DeadlockError) as excinfo:
            cluster.run()
        assert "wait_and_poll" in excinfo.value.diagnostics


class TestLivelockWatchdog:
    def _stuck_cluster(self):
        """Sender spins for a reply while every packet to node 1 is eaten
        and an effectively-uncapped retry policy retransmits forever."""
        cluster = Cluster(2, faults=FaultPlan().drop("am.", rate=1.0, dst=1))
        eps = install_am(
            cluster,
            reliable=True,
            retry=RetryPolicy(timeout_us=100.0, backoff=2.0, max_timeout_us=500.0, max_retries=10**9),
        )
        eps[1].register_handler("h", lambda *a: iter(()))
        got = []

        def sender(node):
            ep = node.service("am")
            yield from ep.send_short(1, "h", nbytes=16)
            yield from ep.poll_until(lambda: bool(got))  # reply never comes

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        return cluster

    def test_retransmit_storm_is_caught(self):
        cluster = self._stuck_cluster()
        with pytest.raises(DeadlockError) as excinfo:
            cluster.run(watchdog_us=5_000.0)
        err = excinfo.value
        assert "stall watchdog" in str(err)
        assert err.blocked
        assert "unacked=" in err.diagnostics
        assert "retries" in err.diagnostics
        # without the watchdog this run would spin in virtual time forever
        assert cluster.sim.now <= 20_000.0

    def test_without_watchdog_it_really_is_a_livelock(self):
        cluster = self._stuck_cluster()
        with pytest.raises(SimulationError, match="max_events"):
            cluster.run(max_events=20_000)

    def test_healthy_run_unaffected_by_watchdog(self):
        def run(watchdog_us):
            cluster = Cluster(2)
            eps = install_am(cluster)
            got = []

            def h(ep, src, frame):
                got.append(frame.args[0])
                return
                yield

            eps[1].register_handler("h", h)

            def sender(node):
                ep = node.service("am")
                for i in range(20):
                    yield from ep.send_short(1, "h", args=(i,), nbytes=16)

            cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
            cluster.launch(0, sender(cluster.nodes[0]))
            cluster.run(watchdog_us=watchdog_us)
            return cluster.sim.now, got

        t_plain, got_plain = run(None)
        t_dog, got_dog = run(50.0)  # many windows inside the run
        assert got_plain == got_dog == list(range(20))
        # the trailing tick rounds the end time up to its window boundary
        # (the dog's only observable footprint on a healthy run)
        assert t_plain <= t_dog <= t_plain + 50.0

    def test_long_compute_is_not_a_stall(self):
        """A thread mid-charge spans windows without a trampoline step;
        the watchdog must treat a running thread as progress."""
        from repro.sim.account import Category
        from repro.sim.effects import Charge

        cluster = Cluster(1)

        def cruncher(node):
            yield Charge(1_000_000.0, Category.CPU)  # 1 simulated second

        cluster.launch(0, cruncher(cluster.nodes[0]))
        elapsed = cluster.run(watchdog_us=10_000.0)
        # finishes (no false DeadlockError); at most one trailing window
        assert 1_000_000.0 <= elapsed <= 1_010_000.0


class TestDiagnosticsDump:
    def _deadlock(self, **cluster_kw):
        """The lost-refill drain deadlock, parameterized over extras."""
        cluster = Cluster(
            2,
            costs=SP2_COSTS.with_net(credit_window=2),
            faults=FaultPlan().drop("am.credit", rate=1.0),
            **cluster_kw,
        )
        eps = install_am(cluster, reliable=True, retry=RetryPolicy(max_retries=0))
        eps[1].register_handler("h", lambda *a: iter(()))

        def sender(node):
            ep = node.service("am")
            for i in range(4):
                yield from ep.send_short(1, "h", nbytes=16)

        cluster.launch(1, _poll_server(cluster.nodes[1]), daemon=True)
        cluster.launch(0, sender(cluster.nodes[0]))
        with pytest.raises(DeadlockError) as excinfo:
            cluster.run()
        return excinfo.value

    def test_unmetered_dump_has_no_gauges(self):
        err = self._deadlock()
        assert "gauge " not in err.diagnostics

    def test_metered_dump_includes_gauge_snapshot(self):
        """With metrics installed, the deadlock dump folds in the same
        end-of-run gauge snapshot a clean run reports — one line per
        gauge, sorted, so dumps diff cleanly across runs."""
        from repro.obs.metrics import Metrics

        err = self._deadlock(metrics=Metrics())
        lines = [l for l in err.diagnostics.splitlines() if l.startswith("gauge ")]
        assert lines, "metered dump carried no gauges"
        names = [l.split("=")[0] for l in lines]
        assert names == sorted(names)
        for line in lines:
            assert "=" in line

    def test_dump_includes_membership_when_detector_installed(self):
        """diagnose() — the text every DeadlockError carries — must show
        the failure detector's degraded views (a deadlock right after a
        death declaration is exactly when you want to see who was
        blamed).  Checked on diagnose() directly: a cluster with both a
        detector and a hang never drains on its own, the watchdog path
        is covered above, and the dump builder is shared by both."""
        from repro.ft import install_detector

        cluster = Cluster(2)
        install_am(cluster)
        fd = install_detector(cluster, interval_us=100.0, phi=4.0)
        assert "membership: all views intact" in cluster.diagnose()
        fd.memberships[0].declare_dead(1)
        assert "membership: node 0: epoch=1 alive=[0]" in cluster.diagnose()
