"""Cluster builder: one call to get a runnable simulated multicomputer."""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.errors import DeadlockError, SimulationError
from repro.machine.costs import SP2_COSTS, CostModel
from repro.machine.faults import FaultPlan
from repro.machine.network import Network
from repro.machine.node import Node
from repro.machine.topology import Topology, make_topology
from repro.sim.account import Category, Counters, TimeAccount
from repro.sim.effects import Charge
from repro.sim.engine import Simulator, Watchdog
from repro.sim.trace import Tracer
from repro.threads.scheduler import Scheduler
from repro.threads.thread import UThread

__all__ = ["Cluster", "Window"]

#: default stall-watchdog window (virtual µs) when ``watchdog_us=True``
DEFAULT_WATCHDOG_US = 100_000.0


class Window:
    """One measured interval on a cluster: what Figures 5/6 and Table 4
    report for it.

    A program opens the window when its warm-up is over and closes it
    when the measured work is done; ``close`` fixes ``elapsed_us``.
    ``breakdown`` and ``counters`` are deltas from ``open`` to the moment
    they are read — the application harnesses read them after
    ``Cluster.run`` has returned, so what the other nodes charge while
    leaving the last barrier is counted.
    """

    def __init__(self, cluster: "Cluster"):
        self._cluster = cluster
        self.elapsed_us = 0.0

    def open(self) -> None:
        cluster = self._cluster
        self._t0 = cluster.sim.now
        self._acct0 = [list(n.account._us) for n in cluster.nodes]
        self._cnt0 = cluster.aggregate_counters().snapshot()

    def close(self) -> None:
        self.elapsed_us = self._cluster.sim.now - self._t0

    @property
    def breakdown(self) -> dict[str, float]:
        """Virtual µs per category (``idle`` kept apart), summed node by
        node in node order."""
        out: dict[str, float] = {}
        pairs = [
            (n.account._us, snap) for n, snap in zip(self._cluster.nodes, self._acct0)
        ]
        for cat in Category:
            i = cat.index
            total = 0.0
            for us, snap in pairs:
                total += us[i] - snap[i]
            out[str(cat)] = total
        return out

    @property
    def counters(self) -> dict[str, int]:
        return self._cluster.aggregate_counters().since(self._cnt0)


class Cluster:
    """A simulator + network + ``n`` nodes with schedulers attached.

    Typical use::

        cluster = Cluster(4)
        cluster.launch(0, my_program(cluster.nodes[0]))
        cluster.run()
        print(cluster.sim.now, "virtual us elapsed")

    ``faults`` takes a :class:`~repro.machine.faults.FaultPlan` to make the
    interconnect lossy on purpose (pair it with
    ``install_am(..., reliable=True)`` for runs that should still finish).
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        costs: CostModel = SP2_COSTS,
        tracer: Tracer | None = None,
        fast_path: bool = True,
        faults: FaultPlan | None = None,
        metrics: Any | None = None,
        topology: Topology | str | None = None,
    ):
        if n_nodes < 1:
            raise SimulationError(f"cluster needs >= 1 node, got {n_nodes}")
        costs.validate()
        self.costs = costs
        # topology accepts a spec string ("flat", "ring",
        # "fattree:arity=8,fatness=2") or a Topology sized to this cluster;
        # None keeps the historical contention-free crossbar.  Either form
        # describes the fabric: the cluster runs on links of its own, so
        # one Topology object can be given to any number of clusters
        if isinstance(topology, str):
            topology = make_topology(topology, n_nodes)
        elif topology is not None:
            if topology.n_nodes != n_nodes:
                raise SimulationError(
                    f"topology sized for {topology.n_nodes} nodes on a "
                    f"{n_nodes}-node cluster"
                )
            topology = topology.fresh()
        #: this run's interconnect (None = legacy flat crossbar): the object
        #: link occupancy and the per-link counters are read from
        self.topology = topology
        #: the tracer shared by every node/network (None = untraced);
        #: runtimes probe it for the span capability
        self.tracer = tracer
        #: optional :class:`~repro.obs.metrics.Metrics` registry shared by
        #: every layer of this cluster (None = unmetered)
        self.metrics = metrics
        # fast_path=False makes the engine refuse inline advances (every
        # charge through the heap); results are bit-identical (the
        # golden-trace suite holds us to that)
        self.sim = Simulator(fast_path=fast_path)
        self.network = Network(
            self.sim, tracer=tracer, faults=faults, metrics=metrics, topology=topology
        )
        self.nodes: list[Node] = []
        sync_charge = Charge(costs.threads.sync_op, Category.THREAD_SYNC)
        for nid in range(n_nodes):
            node = Node(nid, self.sim, costs, tracer=tracer, metrics=metrics)
            node.sync_charge = sync_charge
            self.network.register(node)
            Scheduler(node)
            self.nodes.append(node)

    @property
    def size(self) -> int:
        return len(self.nodes)

    # ---------------------------------------------------------------- running

    def launch(
        self,
        nid: int,
        body: Generator[Any, Any, Any],
        name: str = "",
        *,
        daemon: bool = False,
    ) -> UThread:
        """Create a thread on node ``nid`` at time zero (no creation charge;
        this is program startup, not a simulated ``spawn``)."""
        node = self.network.node(nid)
        assert node.scheduler is not None
        return node.scheduler.make_thread(body, name or f"main@{nid}", daemon=daemon)

    def run(
        self,
        *,
        until: float | None = None,
        max_events: int | None = None,
        check_deadlock: bool = True,
        watchdog_us: float | bool | None = None,
    ) -> float:
        """Run to quiescence (or ``until``); returns the final virtual time.

        After a full drain, any live non-daemon thread still blocked means
        the simulated program deadlocked (lost reply, missing barrier
        partner...) — raise :class:`DeadlockError` with a per-thread
        diagnosis instead of silently returning.

        ``watchdog_us`` additionally arms a stall watchdog
        (:class:`~repro.sim.engine.Watchdog`) that catches virtual-time
        *livelock*: events still firing (retransmit timers, polling
        daemons) while no packet gets delivered and no thread takes a
        step for a full window.  Pass a window in virtual µs, or ``True``
        for the default; the same :class:`DeadlockError` dump results.
        On a healthy run the only footprint is the final tick rounding
        the end time up to its window boundary (results are unchanged),
        so measured runs should leave the watchdog off.
        """
        dog: Watchdog | None = None
        if watchdog_us:
            window = DEFAULT_WATCHDOG_US if watchdog_us is True else float(watchdog_us)
            dog = Watchdog(
                self.sim, self._progress, window_us=window, on_stall=self._on_stall
            ).start()
        try:
            self.sim.run(until=until, max_events=max_events)
        finally:
            if dog is not None:
                dog.stop()
        if check_deadlock and until is None:
            self._check_deadlock()
        return self.sim.now

    # ------------------------------------------------------------- diagnostics

    def _progress(self) -> tuple:
        """The stall watchdog's metric: anything a program would call
        forward motion.  Event counts are deliberately excluded — a
        retransmit loop fires events forever without progressing."""
        return (
            self.network.packets_delivered,
            tuple(n.scheduler.steps for n in self.nodes),  # type: ignore[union-attr]
        )

    def _on_stall(self) -> bool:
        """Watchdog verdict on a frozen window.

        A thread mid-charge (a long compute block spans many windows
        without a trampoline step) is still progress — keep watching.
        A quiet window with nothing blocked (stray timer ticks after the
        program finished) is not a deadlock either.  Otherwise every
        thread is blocked while the event loop spins: diagnose and raise.
        """
        for node in self.nodes:
            sched = node.scheduler
            assert sched is not None
            if sched.current is not None or sched.ready_count:
                return True  # somebody is actually running; keep watching
        stuck = self._blocked_summary()
        if not stuck:
            return True  # idle, not deadlocked; re-arms only if events remain
        raise DeadlockError(
            "stall watchdog: no packet delivery or thread step for a full "
            "window, with blocked non-daemon threads",
            blocked=stuck,
            diagnostics=self.diagnose(),
        )

    def _blocked_summary(self) -> list[str]:
        stuck: list[str] = []
        for node in self.nodes:
            sched = node.scheduler
            assert sched is not None
            for thr in sched.blocked_threads():
                if not thr.daemon:
                    stuck.append(f"node {node.nid}: {thr.name} [{thr.state.value}]")
        return stuck

    def diagnose(self) -> str:
        """The full state dump attached to every :class:`DeadlockError`:
        per-node blocked-thread stacks, messaging-layer protocol state
        (credits, unacked sequences, retransmit timers), inbox depths,
        and the packets still on the wire."""
        lines: list[str] = [f"t={self.sim.now:.1f}us"]
        for node in self.nodes:
            sched = node.scheduler
            assert sched is not None
            lines.append(
                f"node {node.nid}: inbox={len(node.inbox)} "
                f"ready={sched.ready_count} steps={sched.steps}"
            )
            running = sched.current
            if running is not None:
                lines.append(f"  running: {running.name} at {running.where()}")
            for entry in sched.describe_blocked():
                lines.append(f"  blocked: {entry}")
            layer = node.services.get("msg-layer")
            describe = getattr(layer, "describe", None)
            if describe is not None:
                lines.append(f"  protocol: {describe()}")
        in_flight = self.network.describe_in_flight()
        if in_flight:
            lines.append(f"in flight ({len(in_flight)}):")
            lines.extend(f"  {entry}" for entry in in_flight)
        faults = self.network.faults
        if faults is not None and not faults.empty:
            lines.append(f"faults: {faults!r}")
        if self.topology is not None and self.topology.contention:
            lines.append(f"topology: {self.topology.describe()}")
            for s in self.topology.hot_links(3):
                lines.append(
                    f"  hot link {s['link']}: busy={s['busy_us']:.1f}us "
                    f"queued={s['queued_us']:.1f}us pkts={s['packets']}"
                )
        detector = self.nodes[0].services.get("ft-detector") if self.nodes else None
        if detector is not None:
            lines.append(f"membership: {detector.describe()}")
        if self.metrics is not None:
            # fold the end-of-run pool/engine gauges in so a deadlock dump
            # carries the same observability snapshot a clean run reports
            from repro.obs.metrics import collect_cluster_gauges

            collect_cluster_gauges(self.metrics, self)
            for name, value in sorted(self.metrics.gauges.items()):
                lines.append(f"gauge {name}={value:g}")
        return "\n".join(lines)

    def _check_deadlock(self) -> None:
        stuck = self._blocked_summary()
        if stuck:
            raise DeadlockError(
                "simulation drained with blocked non-daemon threads:\n  "
                + "\n  ".join(stuck),
                blocked=stuck,
                diagnostics=self.diagnose(),
            )

    # ------------------------------------------------------------- aggregates

    def window(self) -> Window:
        """A fresh measurement :class:`Window` over this cluster."""
        return Window(self)

    def aggregate_account(self) -> TimeAccount:
        """Sum of all per-node time accounts (for breakdown figures)."""
        total = TimeAccount()
        for node in self.nodes:
            total.merge(node.account)
        return total

    def aggregate_counters(self) -> Counters:
        """Sum of all per-node counters."""
        total = Counters()
        for node in self.nodes:
            total.merge(node.counters)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster n={self.size} costs={self.costs.name} t={self.sim.now:.1f}us>"
