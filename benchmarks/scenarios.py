"""Named simulator-throughput scenarios.

One callable per scenario, shared by two consumers so they can never
drift apart:

* ``bench_simulator.py`` wraps each in pytest-benchmark for the full
  statistics (and ``extra_info`` attribution);
* ``smoke_check.py`` times a min-over-repetitions of the same callables
  and compares against the committed ``BENCH_simulator.json`` floors.

Every scenario takes an optional ``stats_out`` dict that receives the
engine's ``fastpath_stats()`` counters, and returns a value the caller
can sanity-assert on (events fired, RTT µs, ...).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

__all__ = ["SCENARIOS", "scenario"]

#: scenario name -> callable(stats_out=None) -> sanity value
SCENARIOS: dict[str, Callable[..., Any]] = {}


def scenario(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a scenario under the name used in BENCH_simulator.json."""

    def deco(fn: Callable[..., Any]) -> Callable[..., Any]:
        SCENARIOS[name] = fn
        return fn

    return deco


@scenario("engine_event_chain")
def engine_event_chain(stats_out: dict | None = None) -> int:
    """Raw engine: schedule/fire chains of dependent events."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    state = {"left": 20_000}

    def tick():
        if state["left"] > 0:
            state["left"] -= 1
            sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run()
    if stats_out is not None:
        stats_out.update(sim.fastpath_stats())
    return sim.events_fired


@scenario("zero_delay_storm")
def zero_delay_storm(stats_out: dict | None = None) -> int:
    """Cascades of same-instant callbacks (the shape of dispatch kicks
    and message-arrival wakes)."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    state = {"left": 20_000}

    def kick():
        if state["left"] > 0:
            state["left"] -= 1
            sim.schedule(0.0, kick)

    sim.schedule(0.0, kick)
    sim.run()
    if stats_out is not None:
        stats_out.update(sim.fastpath_stats())
    return sim.events_fired


@scenario("trampoline_charge_switch")
def trampoline_charge_switch(stats_out: dict | None = None) -> int:
    """Pure trampoline: long Charge/Switch chains, no network at all."""
    from repro.machine.cluster import Cluster
    from repro.sim.account import Category
    from repro.sim.effects import SWITCH, Charge

    def body(n):
        def gen(_node):
            for _ in range(n):
                yield Charge(1.5, Category.CPU)
                yield Charge(0.5, Category.RUNTIME)
                yield SWITCH

        return gen

    cluster = Cluster(1)
    node = cluster.nodes[0]
    cluster.launch(0, body(2_000)(node), "spin-a")
    cluster.launch(0, body(2_000)(node), "spin-b")
    cluster.run()
    if stats_out is not None:
        stats_out.update(cluster.sim.fastpath_stats())
    return cluster.sim.events_fired


@scenario("ccpp_rmi_0word_100iters")
def ccpp_rmi_0word(stats_out: dict | None = None) -> Any:
    """Full CC++ RMI path, 100 warm null round trips."""
    from repro.experiments.microbench import run_cc_microbench

    return run_cc_microbench("0-Word", iters=100, stats_out=stats_out)


@scenario("splitc_gp_rw_100iters")
def splitc_gp_rw(stats_out: dict | None = None) -> Any:
    """Split-C global-pointer read/write pair, 100 warm iterations."""
    from repro.experiments.microbench import run_sc_microbench

    return run_sc_microbench("GP 2-Word R/W", iters=100, stats_out=stats_out)


_EM3D_GRAPH = None


def _em3d_graph():
    from repro.apps.em3d import Em3dGraph, Em3dParams

    global _EM3D_GRAPH
    if _EM3D_GRAPH is None:
        _EM3D_GRAPH = Em3dGraph(
            Em3dParams(n_nodes=160, degree=8, n_procs=4, pct_remote=1.0)
        )
    return _EM3D_GRAPH


@scenario("em3d_step_160nodes")
def em3d_step(stats_out: dict | None = None) -> Any:
    """One EM3D step on a 160-node graph: the application-scale workload.

    The graph (shared immutable structure) is built once and reused, as
    the historical benchmark did — the scenario times the simulated run."""
    from repro.apps.em3d import run_splitc_em3d

    return run_splitc_em3d(_em3d_graph(), steps=1, version="base", warmup_steps=0)


@scenario("traced_em3d_step")
def traced_em3d_step(stats_out: dict | None = None) -> Any:
    """The em3d_step workload with full observability attached (span
    recorder + metrics registry) — prices the instrumented path so a
    regression in the guard idiom (hooks resolved to None when off,
    one is-None test when on) shows up in CI."""
    from repro.apps.em3d import run_splitc_em3d
    from repro.obs import Metrics, SpanRecorder

    tracer = SpanRecorder(maxlen=500_000)
    metrics = Metrics()
    out = run_splitc_em3d(
        _em3d_graph(),
        steps=1,
        version="base",
        warmup_steps=0,
        tracer=tracer,
        metrics=metrics,
    )
    assert tracer.spans and len(metrics)
    return out


_EM3D_1024_GRAPH = None


def _em3d_1024_graph():
    from repro.apps.em3d import Em3dGraph, Em3dParams

    global _EM3D_1024_GRAPH
    if _EM3D_1024_GRAPH is None:
        _EM3D_1024_GRAPH = Em3dGraph(
            Em3dParams(
                n_nodes=2048, degree=4, n_procs=1024, pct_remote=0.25, chunked=True
            )
        )
    return _EM3D_1024_GRAPH


@scenario("em3d_step_1024nodes")
def em3d_step_1024nodes(stats_out: dict | None = None) -> Any:
    """One EM3D step on a 1024-processor cluster over an oversubscribed
    fat-tree — the two-orders-of-magnitude scale target.  Uses the
    chunked graph build (the sequential builder would dominate the
    scenario) and the bulk version (one aggregated transfer per ghost
    source, the only sane protocol at this scale)."""
    from repro.apps.em3d import run_splitc_em3d

    return run_splitc_em3d(
        _em3d_1024_graph(),
        steps=1,
        version="bulk",
        warmup_steps=0,
        topology="fattree:arity=16,fatness=4",
    )


_CONGESTION_TOPO = "fattree:arity=8,fatness=2"


@scenario("congestion_incast_hotspot")
def congestion_incast_hotspot(stats_out: dict | None = None) -> float:
    """63 senders x 16 messages each into node 0 on a fat-tree: the
    victim's ejection link serializes everything (hot-link utilization
    ~1.0).  Prices the contended transmit path under maximal queueing."""
    from repro.experiments.congestion import measure_pattern
    from repro.machine.costs import SP2_COSTS

    pairs = [(src, 0) for _ in range(16) for src in range(1, 64)]
    elapsed, _, util, _, _ = measure_pattern(64, _CONGESTION_TOPO, pairs, 4096, SP2_COSTS)
    assert util > 0.9
    return elapsed


@scenario("congestion_alltoall")
def congestion_alltoall(stats_out: dict | None = None) -> float:
    """All-to-all (32 nodes x 4 rounds) on the fat-tree: the saturation
    workload's contended half, ~4k packets through route lookup and
    per-link occupancy."""
    from repro.experiments.congestion import _alltoall_pairs, measure_pattern
    from repro.machine.costs import SP2_COSTS

    pairs = _alltoall_pairs(32, 4)
    elapsed, _, util, _, _ = measure_pattern(32, _CONGESTION_TOPO, pairs, 4096, SP2_COSTS)
    assert util > 0.5
    return elapsed


@scenario("congestion_bisection")
def congestion_bisection(stats_out: dict | None = None) -> float:
    """Cross-bisection pairs (64 nodes x 32 rounds) on the fat-tree —
    every packet climbs to the root level, the longest routes the fabric
    has."""
    from repro.experiments.congestion import measure_pattern
    from repro.machine.costs import SP2_COSTS

    half = 32
    pairs = [
        (src, dst)
        for _ in range(32)
        for i in range(half)
        for src, dst in ((i, i + half), (i + half, i))
    ]
    elapsed, _, util, _, _ = measure_pattern(64, _CONGESTION_TOPO, pairs, 4096, SP2_COSTS)
    assert util > 0.5
    return elapsed


@scenario("reliable_am_roundtrip")
def reliable_am_roundtrip(stats_out: dict | None = None) -> float:
    """Bare-AM ping-pong with the reliable-delivery sublayer on (seq
    stamping, acks, retransmit timers) over a clean fabric — the cost of
    reliability bookkeeping on the hot path."""
    from repro.experiments.microbench import am_base_rtt

    return am_base_rtt(iters=100, reliable=True, stats_out=stats_out)


class NoopResult:
    """Minimal result honouring the render/to_json/from_json contract."""

    def __init__(self, n: int) -> None:
        self.n = n

    def render(self) -> str:
        return f"noop {self.n}"

    def to_json(self) -> dict:
        return {"n": self.n}

    @classmethod
    def from_json(cls, payload: dict) -> "NoopResult":
        return cls(payload["n"])


def run_noop(*, n: int = 0) -> NoopResult:
    return NoopResult(n)


@scenario("runner_overhead")
def runner_overhead(stats_out: dict | None = None) -> int:
    """Orchestration overhead of the experiment runner, isolated from the
    experiments themselves: one 200-task no-op job driven through the job
    queue in this thread against a fresh content-addressed cache — schema
    validation, the pick, per-task seed hashing, cache keying, store, the
    event log.  This is the fixed per-task cost the registry/queue/cache
    stack adds on top of every artifact run (inline path; spawn start-up
    is priced by the machine, not by this code, so it is deliberately out
    of scope)."""
    import shutil
    import tempfile

    from repro.experiments.cache import ResultCache
    from repro.experiments.registry import ExperimentSpec, ParamSpec
    from repro.experiments.runner import JobQueue, Task

    spec = ExperimentSpec(
        name="noop", title="noop", module="scenarios", entry="run_noop",
        result_type="NoopResult", params=(ParamSpec("n", "int", 0),),
    )
    root = tempfile.mkdtemp(prefix="runner-overhead-")
    try:
        cache = ResultCache(root, version="bench")
        tasks = [Task(spec, spec.validate({"n": i})) for i in range(200)]
        queue = JobQueue(cache=cache)
        job = queue.enqueue(tasks, client="bench", artifact="noop")
        queue.drive(job)
        if stats_out is not None:
            stats_out.update(
                hits=cache.hits, misses=cache.misses, stores=cache.stores
            )
        return len(queue.results(job))
    finally:
        shutil.rmtree(root, ignore_errors=True)


@scenario("bulk_payload")
def bulk_payload(stats_out: dict | None = None) -> int:
    """Bulk-transfer hot loop: 30 iterations of a 4096-float64
    bulk_write + bulk_read pair between two Split-C nodes — exercises the
    pooled one-copy payload path end to end."""
    from repro.machine.cluster import Cluster
    from repro.splitc import SplitCRuntime

    n = 4096
    iters = 30
    cluster = Cluster(2)
    rt = SplitCRuntime(cluster)
    for nid in range(2):
        rt.memory(nid).alloc("bulk.X", n)
    values = np.arange(n, dtype=np.float64)
    done = {"reads": 0}

    def program(proc):
        if proc.my_node == 0:
            remote = proc.gptr(1, "bulk.X")
            for _ in range(iters):
                yield from proc.bulk_write(remote, values)
                back = yield from proc.bulk_read(remote, n)
                assert len(back) == n
                done["reads"] += 1
        yield from proc.barrier()

    rt.run_spmd(program, name="bulk-payload")
    if stats_out is not None:
        stats_out.update(cluster.sim.fastpath_stats())
    return done["reads"]


@scenario("rma_put_roundtrip")
def rma_put_roundtrip(stats_out: dict | None = None) -> float:
    """100 put + wait-for-remote-completion round trips against a
    registered window: the full one-sided path (issue charge, short
    frame, NIC-level placement at the target, ``rma.done`` control
    notification back) with a pure-polling daemon target."""
    from repro.machine.cluster import Cluster
    from repro.rma import install_rma

    cluster = Cluster(2)
    rt = install_rma(cluster)
    out: dict = {}

    def target(proc):
        yield from proc.register("bench.win", 8)
        while True:
            yield from proc.ep.wait_and_poll()

    def main(proc):
        for _ in range(100):
            h = yield from proc.put(1, "bench.win", 0, [1.0, 2.0])
            yield from proc.wait_remote(h)
        out["now"] = proc.node.sim.now

    cluster.launch(1, target(rt.process(1)), daemon=True)
    cluster.launch(0, main(rt.process(0)))
    cluster.run()
    if stats_out is not None:
        stats_out.update(cluster.sim.fastpath_stats())
    return out["now"]


@scenario("tree_allreduce")
def tree_allreduce(stats_out: dict | None = None) -> float:
    """20 tree-allreduce rounds on 8 processors (radix 2): prices the
    epoch-keyed fan-in/fan-out where interior relays run inside AM
    handlers rather than on application threads."""
    from repro.machine.cluster import Cluster
    from repro.splitc import SplitCRuntime
    from repro.splitc.collective import make_tree

    cluster = Cluster(8)
    rt = SplitCRuntime(cluster)
    tree = make_tree(rt, radix=2)
    sums: list = []

    def prog(proc):
        for r in range(20):
            got = yield from tree.allreduce(proc.my_node, float(proc.my_node + r))
            if proc.my_node == 0:
                sums.append(got)

    rt.run_spmd(prog, name="bench-tree")
    assert len(sums) == 20 and sums[0] == 28.0
    if stats_out is not None:
        stats_out.update(cluster.sim.fastpath_stats())
    return cluster.sim.now


@scenario("service_submit_roundtrip")
def service_submit_roundtrip(stats_out: dict | None = None) -> int:
    """Submit -> stream -> result through the experiment daemon's unix
    socket with inline workers: three jobs for the same cheap artifact
    (one executes, two resolve from the result cache), so the number
    prices the queue/protocol layer — daemon start, JSONL framing,
    scheduling, event fan-out, cache resolution, stop — not the
    simulation.  (Until ``stop()`` learned to wake its listener this was
    212 ms, all of it the accept thread sitting out its 0.2 s timeout;
    the protocol's share is the ~9 ms left.)"""
    import tempfile

    from repro.experiments.cache import ResultCache
    from repro.service import ExperimentClient, ExperimentService
    from repro.service.server import ServiceConfig

    events = 0
    with tempfile.TemporaryDirectory() as tmp:
        service = ExperimentService(
            f"{tmp}/svc.sock",
            config=ServiceConfig(workers=0),
            cache=ResultCache(f"{tmp}/cache", version="bench"),
        )
        service.start()
        try:
            client = ExperimentClient.connect(f"{tmp}/svc.sock")
            for _ in range(3):
                job = client.submit("scaling", {"sizes": (20,)})
                events += sum(1 for _ in client.stream(job))
                assert client.result(job)[0].points  # live-object round trip
            counts = service.stats()["counts"]
            assert counts["tasks_executed"] == 1  # the cache served the rest
            assert counts["cache_hits"] == 2
            if stats_out is not None:
                stats_out.update({k: float(v) for k, v in counts.items()})
        finally:
            service.stop(drain=True)
    assert events == 15  # 5 per job, each stream ending terminally
    return events
