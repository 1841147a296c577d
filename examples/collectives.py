#!/usr/bin/env python3
"""Collectives in both languages: a distributed dot product.

Split-C side: each processor holds a slice of two vectors, computes its
partial dot product locally, and combines with a tree all-reduce
(`TreeComm` over the runtime's AM endpoints); one-way stores ship a halo
element to the left neighbour and `all_store_sync` fences them — the
classic Split-C idioms.  CC++ side: the same sum over RMI futures that
overlap the partial computations.

Run:  python examples/collectives.py
"""

import numpy as np

from repro.ccpp import CCppRuntime, ProcessorObject, processor_class, remote
from repro.machine import Cluster
from repro.rma import TreeComm
from repro.splitc import SplitCRuntime, collective
from repro.util.units import fmt_time_us

N = 64
P = 4


def splitc_dot() -> tuple[float, float]:
    cluster = Cluster(P)
    rt = SplitCRuntime(cluster)
    tree = TreeComm(rt.endpoints, radix=2)
    rng = np.random.default_rng(11)
    xs, ys = rng.uniform(-1, 1, N), rng.uniform(-1, 1, N)
    chunk = N // P
    for q in range(P):
        rt.memory(q).alloc_like("x", xs[q * chunk : (q + 1) * chunk])
        rt.memory(q).alloc_like("y", ys[q * chunk : (q + 1) * chunk])
        rt.memory(q).alloc("halo", 1)

    results = {}

    def program(proc):
        me = proc.my_node
        x, y = proc.local("x"), proc.local("y")
        # ship my first x element to my left neighbour's halo slot
        yield from proc.store(proc.gptr((me - 1) % P, "halo", 0), float(x[0]))
        partial = float(x @ y)
        yield from proc.charge(len(x) * 0.06)  # 2 flops per element
        total = yield from tree.allreduce(me, partial)
        # every processor now has the global dot product; the fence
        # guarantees every halo store has landed
        yield from collective.all_store_sync(proc, tree)
        assert proc.local("halo")[0] == xs[((me + 1) % P) * chunk]
        results[me] = total

    rt.run_spmd(program)
    assert len(set(results.values())) == 1
    return results[0], cluster.sim.now, float(xs @ ys)


@processor_class
class DotWorker(ProcessorObject):
    def __init__(self, x, y):
        self.x, self.y = np.asarray(x), np.asarray(y)

    @remote(threaded=True)
    def partial_dot(self):
        yield from self.ctx.charge(len(self.x) * 0.06)
        return float(self.x @ self.y)


def ccpp_dot() -> tuple[float, float]:
    cluster = Cluster(P)
    rt = CCppRuntime(cluster)
    rng = np.random.default_rng(11)
    xs, ys = rng.uniform(-1, 1, N), rng.uniform(-1, 1, N)
    chunk = N // P
    out = {}

    def master(ctx):
        workers = []
        for q in range(P):
            gp = yield from ctx.create(
                q, DotWorker, xs[q * chunk : (q + 1) * chunk], ys[q * chunk : (q + 1) * chunk]
            )
            workers.append(gp)
        # overlap all partials with futures, then sum
        futures = []
        for gp in workers:
            fut = yield from ctx.rmi_future(gp, "partial_dot")
            futures.append(fut)
        total = 0.0
        for fut in futures:
            total += yield from fut.get()
        out["total"] = total

    rt.launch(0, master)
    rt.run()
    return out["total"], cluster.sim.now


def main() -> None:
    sc_total, sc_time, exact = splitc_dot()
    cc_total, cc_time = ccpp_dot()
    print(f"exact dot product : {exact:.10f}")
    print(f"split-c tree      : {sc_total:.10f}  in {fmt_time_us(sc_time)}")
    print(f"cc++ futures      : {cc_total:.10f}  in {fmt_time_us(cc_time)}")
    assert np.isclose(sc_total, exact) and np.isclose(cc_total, exact)
    print("both language runtimes agree with the exact result.")


if __name__ == "__main__":
    main()
