"""Micro-benchmark infrastructure and the Table 4 workloads.

Each micro-benchmark builds a fresh 2-node cluster, performs warm-up
iterations (populating the stub cache and persistent buffers — the paper
averages 10 000 iterations, so its numbers are warm numbers), then runs
``iters`` measured iterations and reports per-iteration means.

Component attribution: ``threads`` and ``runtime`` are the per-category
charges summed across both nodes (everything is on the critical path of a
ping-pong); the AM column is the residual ``total − threads − runtime −
cpu``, i.e. wire time + send/receive overheads + queuing delay, matching
what the paper's instrumented AM layer reports.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Generator
from typing import Any

from repro.am import install_am
from repro.ccpp import (
    CCContext,
    CCppRuntime,
    ProcessorObject,
    WaitMode,
    processor_class,
    remote,
)
from repro.experiments.results import MicroRow
from repro.machine.cluster import Cluster, Window
from repro.marshal import Marshallable
from repro.marshal.packer import Packer, Unpacker
from repro.mpl import install_mpl
from repro.obs.metrics import MetricNames
from repro.sim.account import Category, CounterNames
from repro.splitc import SCProcess, SplitCRuntime

__all__ = [
    "MicroRow",
    "CCBench",
    "run_cc_microbench",
    "run_sc_microbench",
    "am_base_rtt",
    "mpl_rtt",
    "CC_BENCHMARKS",
    "SC_BENCHMARKS",
]

_WARMUP = 4
_DEFAULT_ITERS = 50


def _micro_row(name: str, iters: int, window: Window) -> MicroRow:
    """Per-iteration Table 4 row from a closed measurement window."""
    breakdown, counters = window.breakdown, window.counters
    threads = breakdown[str(Category.THREAD_MGMT)] + breakdown[str(Category.THREAD_SYNC)]
    runtime = breakdown[str(Category.RUNTIME)]
    cpu = breakdown[str(Category.CPU)]
    total = window.elapsed_us / iters
    return MicroRow(
        name=name,
        total_us=total,
        am_us=total - (threads + runtime + cpu) / iters,
        threads_us=threads / iters,
        runtime_us=runtime / iters,
        cpu_us=cpu / iters,
        yields=counters.get(CounterNames.THREAD_YIELD, 0) / iters,
        creates=counters.get(CounterNames.THREAD_CREATE, 0) / iters,
        syncs=counters.get(CounterNames.THREAD_SYNC_OP, 0) / iters,
    )


# --------------------------------------------------------------------- CC++


@processor_class
class CCBench(ProcessorObject):
    """The remote target of the CC++ micro-benchmarks (the paper's
    ``OBJ *global gpObj`` with ``foo``/``get``/``put`` and the data array
    behind ``gpY``/``gpA``)."""

    def __init__(self):
        self.alloc_data("bench.Y", 32)
        self.alloc_data("bench.A", 20)

    @remote
    def foo0(self):
        return None

    @remote
    def foo1(self, x):
        return None

    @remote
    def foo2(self, x, y):
        return None

    @remote(threaded=True)
    def foo0_threaded(self):
        return None

    @remote(atomic=True)
    def foo0_atomic(self):
        return None

    @remote(threaded=True)
    def get(self):
        """Bulk read: returns the 20-double ARRAYOFDOUBLE by value."""
        return ArrayOfDouble(self.ctx.mem.load_block_gp("bench.A", 0, 20))

    @remote(threaded=True)
    def put(self, values):
        """Bulk write: stores the 20-double ARRAYOFDOUBLE passed by value."""
        self.ctx.mem.store_block_gp("bench.A", 0, values.values)
        return None


class ArrayOfDouble(Marshallable):
    """Figure 3's ``ARRAYOFDOUBLE``: a user class with its own
    serialization methods — the dynamic-dispatch marshalling case.

    ``values`` is an ``array("d")``; it packs to the bytes of the float64
    ``ndarray`` of the same values."""

    def __init__(self, values: array):
        self.values = values

    def cc_pack(self, p: Packer) -> None:
        p.put_array(self.values)

    @classmethod
    def cc_unpack(cls, u: Unpacker) -> "ArrayOfDouble":
        return cls(u.get_array())

    def __len__(self) -> int:
        return len(self.values)


#: one CC++ micro-benchmark: (ctx, bench_ptr) -> generator for ONE iteration
CCOp = Callable[[CCContext, Any], Generator[Any, Any, Any]]


def _cc_0word_simple(ctx, gp):
    yield from ctx.rmi(gp, "foo0", wait=WaitMode.SPIN)


def _cc_0word(ctx, gp):
    yield from ctx.rmi(gp, "foo0", wait=WaitMode.PARK)


def _cc_1word(ctx, gp):
    yield from ctx.rmi(gp, "foo1", 7, wait=WaitMode.PARK)


def _cc_2word(ctx, gp):
    yield from ctx.rmi(gp, "foo2", 7, 9, wait=WaitMode.PARK)


def _cc_0word_threaded(ctx, gp):
    yield from ctx.rmi(gp, "foo0_threaded", wait=WaitMode.PARK)


def _cc_0word_atomic(ctx, gp):
    yield from ctx.rmi(gp, "foo0_atomic", wait=WaitMode.PARK)


def _cc_gp_rw(ctx, gp):
    # one read and one write, averaged by halving afterwards (the paper
    # reports a single combined GP R/W row)
    from repro.ccpp.gp import DataGlobalPtr

    y0 = DataGlobalPtr(1, "bench.Y", 0)
    lx = yield from ctx.gp_read(y0)
    yield from ctx.gp_write(y0, lx + 1.0)


def _cc_bulk_write(ctx, gp):
    values = ArrayOfDouble(array("d", range(20)))
    yield from ctx.rmi(gp, "put", values, wait=WaitMode.PARK)


def _cc_bulk_read(ctx, gp):
    values = yield from ctx.rmi(gp, "get", wait=WaitMode.PARK)
    assert len(values) == 20


def _cc_prefetch(ctx, gp):
    # parfor (i = 0; i < 20; i++) lx = *gpY;  -- one thread per element
    from repro.ccpp.gp import DataGlobalPtr

    def body(i):
        def g():
            yield from ctx.gp_read(DataGlobalPtr(1, "bench.Y", i))

        return g()

    yield from ctx.parfor(range(20), body)


#: name -> (op, per-iteration scale factor for per-element rows)
CC_BENCHMARKS: dict[str, tuple[CCOp, float]] = {
    "0-Word Simple": (_cc_0word_simple, 1.0),
    "0-Word": (_cc_0word, 1.0),
    "1-Word": (_cc_1word, 1.0),
    "2-Word": (_cc_2word, 1.0),
    "0-Word Threaded": (_cc_0word_threaded, 1.0),
    "0-Word Atomic": (_cc_0word_atomic, 1.0),
    "GP 2-Word R/W": (_cc_gp_rw, 0.5),       # read + write per iteration
    "BulkWrite 40-Word": (_cc_bulk_write, 1.0),
    "BulkRead 40-Word": (_cc_bulk_read, 1.0),
    "Prefetch 20-Word": (_cc_prefetch, 1.0 / 20.0),  # per element
}


def run_cc_microbench(
    name: str,
    *,
    iters: int = _DEFAULT_ITERS,
    stub_caching: bool = True,
    persistent_buffers: bool = True,
    reception: str = "polling",
    stats_out: dict | None = None,
    **machine: Any,
) -> MicroRow:
    """Run one CC++ micro-benchmark on a fresh 2-node cluster.

    ``machine`` is :class:`Cluster`'s keywords (``costs``, ``metrics``,
    ``fast_path`` …), here and in the three harnesses below.  Pass a
    dict as ``stats_out`` to receive the engine's ``fastpath_stats()``
    (wall-clock instrumentation for the throughput benchmarks).
    """
    op, scale = CC_BENCHMARKS[name]
    cluster = Cluster(2, **machine)
    rt = CCppRuntime(
        cluster,
        stub_caching=stub_caching,
        persistent_buffers=persistent_buffers,
        reception=reception,
    )
    window = cluster.window()
    out: dict[str, MicroRow] = {}

    def main(ctx):
        gp = yield from ctx.create(1, CCBench)
        for _ in range(_WARMUP):
            yield from op(ctx, gp)
        window.open()
        for _ in range(iters):
            yield from op(ctx, gp)
        window.close()
        out["row"] = _micro_row(name, iters, window).scaled(scale)

    rt.launch(0, main, f"bench:{name}")
    rt.run()
    if stats_out is not None:
        stats_out.update(cluster.sim.fastpath_stats())
    return out["row"]


# -------------------------------------------------------------------- Split-C

SCOp = Callable[[SCProcess, Any], Generator[Any, Any, Any]]


def _sc_atomic(proc, env):
    yield from proc.atomic_rpc(1, "foo")


def _sc_gp_rw(proc, env):
    gp = proc.gptr(1, "bench.Y", 0)
    lx = yield from proc.read(gp)
    yield from proc.write(gp, lx + 1.0)


def _sc_bulk_read(proc, env):
    values = yield from proc.bulk_read(proc.gptr(1, "bench.A", 0), 20)
    assert len(values) == 20


def _sc_bulk_write(proc, env):
    yield from proc.bulk_write(proc.gptr(1, "bench.A", 0), env["values"])


def _sc_prefetch(proc, env):
    # for (i...) lx := *gpY (split-phase); sync();
    for i in range(20):
        yield from proc.get(proc.gptr(0, "bench.L", i), proc.gptr(1, "bench.Y", i))
    yield from proc.sync()


SC_BENCHMARKS: dict[str, tuple[SCOp, float]] = {
    "0-Word Atomic": (_sc_atomic, 1.0),
    "GP 2-Word R/W": (_sc_gp_rw, 0.5),
    "BulkWrite 40-Word": (_sc_bulk_write, 1.0),
    "BulkRead 40-Word": (_sc_bulk_read, 1.0),
    "Prefetch 20-Word": (_sc_prefetch, 1.0 / 20.0),
}


def run_sc_microbench(
    name: str,
    *,
    iters: int = _DEFAULT_ITERS,
    stats_out: dict | None = None,
    **machine: Any,
) -> MicroRow:
    """Run one Split-C micro-benchmark on a fresh 2-node cluster.

    Node 0 drives; node 1 sits in the closing barrier, spin-polling — and
    therefore servicing node 0's requests, as an SPMD program would.
    """
    op, scale = SC_BENCHMARKS[name]
    cluster = Cluster(2, **machine)
    rt = SplitCRuntime(cluster)
    rt.register_rpc("foo", lambda _rt, _nid: 0)
    for nid in range(2):
        rt.memory(nid).alloc("bench.Y", 32)
        rt.memory(nid).alloc("bench.A", 20)
        rt.memory(nid).alloc("bench.L", 32)
    window = cluster.window()
    env = {"values": array("d", range(20))}
    out: dict[str, MicroRow] = {}

    def program(proc):
        if proc.my_node == 0:
            for _ in range(_WARMUP):
                yield from op(proc, env)
            window.open()
            for _ in range(iters):
                yield from op(proc, env)
            window.close()
            out["row"] = _micro_row(name, iters, window).scaled(scale)
        yield from proc.barrier()

    rt.run_spmd(program)
    if stats_out is not None:
        stats_out.update(cluster.sim.fastpath_stats())
    return out["row"]


# ------------------------------------------------------------- raw references


def am_base_rtt(
    *,
    iters: int = _DEFAULT_ITERS,
    reliable: bool = False,
    retry: Any = None,
    stats_out: dict | None = None,
    **machine: Any,
) -> float:
    """Round-trip time of the bare AM layer (the 55 µs reference).

    ``faults``/``reliable``/``retry`` measure the same ping-pong over a
    lossy fabric with the reliable-delivery sublayer: the drop-rate
    ablation of :mod:`repro.experiments.faults`.  ``stats_out`` receives
    protocol counters (retransmits, acks, drops) and the summed NET µs.
    """
    cluster = Cluster(2, **machine)
    eps = install_am(cluster, reliable=reliable, retry=retry)
    metrics = cluster.metrics
    # per-iteration RTT distribution (None when metrics are off); under a
    # fault plan the tail shows the retransmission delays directly
    h_rtt = None if metrics is None else metrics.histogram(MetricNames.AM_RTT)
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

    def server(node):
        ep = node.service("am")
        while True:
            yield from ep.wait_and_poll()

    out = {}

    def main(node):
        ep = node.service("am")
        for _ in range(_WARMUP):
            want = state["got"] + 1
            yield from ep.send_short(1, "echo", nbytes=12)
            yield from ep.poll_until(lambda: state["got"] >= want)
        t0 = node.sim.now
        for _ in range(iters):
            want = state["got"] + 1
            t1 = node.sim.now if h_rtt is not None else 0.0
            yield from ep.send_short(1, "echo", nbytes=12)
            yield from ep.poll_until(lambda: state["got"] >= want)
            if h_rtt is not None:
                h_rtt.record(node.sim.now - t1)
        out["rtt"] = (node.sim.now - t0) / iters

    cluster.launch(1, server(cluster.nodes[1]), daemon=True)
    cluster.launch(0, main(cluster.nodes[0]))
    cluster.run()
    if stats_out is not None:
        counters = cluster.aggregate_counters()
        stats_out.update(
            {
                "packets_sent": cluster.network.packets_sent,
                "packets_dropped": cluster.network.packets_dropped,
                "retransmits": counters.get(CounterNames.PKT_RETRANSMIT),
                "acks": counters.get(CounterNames.PKT_ACK),
                "dup_suppressed": counters.get(CounterNames.PKT_DUP_SUPPRESSED),
                "net_us": cluster.aggregate_account().get(Category.NET),
            }
        )
    return out["rtt"]


def mpl_rtt(*, iters: int = _DEFAULT_ITERS, **machine: Any) -> float:
    """Round-trip time of the MPL layer (the 88 µs vendor reference)."""
    cluster = Cluster(2, **machine)
    eps = install_mpl(cluster)
    out = {}

    def pinger(ep):
        for _ in range(_WARMUP):
            yield from ep.send(1, 1, b"x", nbytes=16)
            yield from ep.recv(1, 2)
        t0 = ep.node.sim.now
        for _ in range(iters):
            yield from ep.send(1, 1, b"x", nbytes=16)
            yield from ep.recv(1, 2)
        out["rtt"] = (ep.node.sim.now - t0) / iters

    def ponger(ep):
        for _ in range(_WARMUP + iters):
            yield from ep.recv(0, 1)
            yield from ep.send(0, 2, b"y", nbytes=16)

    cluster.launch(0, pinger(eps[0]))
    cluster.launch(1, ponger(eps[1]))
    cluster.run()
    return out["rtt"]
