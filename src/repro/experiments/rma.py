"""One-sided RMA artifact: microbenchmarks, tree vs flat collectives,
multithreaded injection, and the EM3D ghost exchange over three
communication paradigms.

Four sections, all in the simulator's virtual microseconds:

* **micro** — Table-4-style rows for ``put``/``get``/``accumulate``
  against a registered window, reporting both completion events the RMA
  layer distinguishes: *local* (source buffer reusable — synchronous at
  issue) and *remote* (data visible in the target window, signalled by
  the NIC-level ``rma.done`` notification);
* **tree** — radix-``k`` tree collectives (:mod:`repro.rma.tree`)
  against the flat tree (radix P−1: the root talks to every peer
  directly) at each processor count: O(log_k P) rounds versus O(P)
  messages through the root, with an exact-equality check that both
  produce the same values on every node (contributions are
  integer-valued, so float equality is meaningful);
* **inject** — N concurrent sender uthreads sharing one NIC
  (:func:`repro.rma.inject.run_injection`): the rate climbs while issue
  CPU overlaps completion waits, then saturates at the NIC;
* **em3d** — the EM3D ghost exchange under the ``comm`` parameter:
  ``rma`` (owner-push notified puts), ``splitc`` (split-phase ghost
  gets) or ``rmi`` (CC++ remote-method reads), each checked bitwise
  against :func:`~repro.apps.em3d.reference.reference_steps`.  ``comm``
  is a typed choice axis, so ``sweep rma --param comm=rma,rmi,splitc``
  grids the paradigms.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.experiments import serde
from repro.util.tables import TextTable

if TYPE_CHECKING:
    from repro.machine.costs import CostModel

__all__ = [
    "RmaMicroRow",
    "TreePoint",
    "InjectPoint",
    "Em3dCommRow",
    "RmaResult",
    "run",
]

_WARMUP = 4
_WINDOW = "micro.win"
#: (row name, operation, doubles) — the put/get pairs cover both the
#: short-frame path (<= 4 doubles) and the bulk path
_MICRO_ROWS = (
    ("rma_put", "put", 1),
    ("rma_put_4", "put", 4),
    ("rma_put_bulk", "put", 64),
    ("rma_get", "get", 1),
    ("rma_get_bulk", "get", 64),
    ("rma_acc", "acc", 4),
)
_COMMS = ("rma", "rmi", "splitc")


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class RmaMicroRow(serde.Codec):
    """One micro row: mean per-op latency to each completion event."""

    name: str
    words: int
    local_us: float
    remote_us: float


@dataclass(slots=True)
class TreePoint(serde.Codec):
    """Tree vs flat latency for one (op, nprocs) cell."""

    op: str
    nprocs: int
    radix: int
    flat_us: float
    tree_us: float
    #: every node's results identical between the two tree shapes
    match: bool

    @property
    def speedup(self) -> float:
        return self.flat_us / self.tree_us if self.tree_us > 0 else 0.0


@dataclass(slots=True)
class InjectPoint(serde.Codec):
    """Achieved injection rate with N concurrent sender uthreads."""

    threads: int
    msgs: int
    elapsed_us: float
    rate_per_ms: float


@dataclass(slots=True)
class Em3dCommRow(serde.Codec):
    """EM3D ghost exchange under one communication paradigm."""

    comm: str
    elapsed_us: float
    per_edge_us: float
    bitwise_ok: bool


@dataclass(slots=True)
class RmaResult(serde.Codec):
    micro: list[RmaMicroRow] = field(default_factory=list)
    tree: list[TreePoint] = field(default_factory=list)
    inject: list[InjectPoint] = field(default_factory=list)
    em3d: list[Em3dCommRow] = field(default_factory=list)

    def tree_matches(self) -> bool:
        return all(p.match for p in self.tree)

    @property
    def all_ok(self) -> bool:
        """Tree equals flat on every cell, EM3D bitwise on every row."""
        return self.tree_matches() and all(e.bitwise_ok for e in self.em3d)

    def render(self) -> str:
        micro = TextTable(
            ["row", "words", "local us", "remote us"],
            title="One-sided RMA micro-benchmarks (pMR-style completions)",
        )
        for r in self.micro:
            micro.add_row(
                [r.name, str(r.words), f"{r.local_us:.2f}", f"{r.remote_us:.2f}"]
            )
        tree = TextTable(
            ["op", "P", "radix", "flat us", "tree us", "speedup", "match"],
            title="Tree vs flat collectives (per completed operation)",
        )
        for p in self.tree:
            tree.add_row(
                [
                    p.op, str(p.nprocs), str(p.radix),
                    f"{p.flat_us:.1f}", f"{p.tree_us:.1f}",
                    f"{p.speedup:.2f}", "yes" if p.match else "NO",
                ]
            )
        inject = TextTable(
            ["threads", "msgs", "elapsed us", "msgs/ms"],
            title="Multithreaded injection (senders sharing one NIC)",
        )
        for i in self.inject:
            inject.add_row(
                [str(i.threads), str(i.msgs), f"{i.elapsed_us:.1f}",
                 f"{i.rate_per_ms:.2f}"]
            )
        em3d = TextTable(
            ["comm", "elapsed us", "per-edge us", "bitwise vs reference"],
            title="EM3D ghost exchange by communication paradigm",
        )
        for e in self.em3d:
            em3d.add_row(
                [e.comm, f"{e.elapsed_us:.1f}", f"{e.per_edge_us:.3f}",
                 "ok" if e.bitwise_ok else "MISMATCH"]
            )
        return "\n\n".join(
            t.render() for t in (micro, tree, inject, em3d)
        )

    def csv(self) -> str:
        """Flat CSV, one line per row of every section.

        ``a_us``/``b_us`` are section-specific: local/remote for micro,
        flat/tree for tree, elapsed/rate for inject, elapsed/per-edge
        for em3d.
        """
        lines = ["section,name,nprocs,radix,n,a_us,b_us,flag"]
        for r in self.micro:
            lines.append(
                f"micro,{r.name},2,,{r.words},{r.local_us:.4f},{r.remote_us:.4f},"
            )
        for p in self.tree:
            lines.append(
                f"tree,{p.op},{p.nprocs},{p.radix},,{p.flat_us:.4f},"
                f"{p.tree_us:.4f},{'match' if p.match else 'MISMATCH'}"
            )
        for i in self.inject:
            lines.append(
                f"inject,threads,2,,{i.threads},{i.elapsed_us:.4f},"
                f"{i.rate_per_ms:.4f},"
            )
        for e in self.em3d:
            lines.append(
                f"em3d,{e.comm},4,,,{e.elapsed_us:.4f},{e.per_edge_us:.6f},"
                f"{'ok' if e.bitwise_ok else 'MISMATCH'}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# section: RMA micro-benchmarks
# ---------------------------------------------------------------------------

def _measure_micro(iters: int, costs: CostModel) -> list[RmaMicroRow]:
    """All micro rows on one 2-node cluster: node 1 is a pure RMA target
    (a daemon that registers the window and polls), node 0 times both
    completion events of every operation."""
    from repro.machine.cluster import Cluster
    from repro.rma import install_rma

    cluster = Cluster(2, costs=costs)
    rt = install_rma(cluster)
    sums: dict[str, tuple[float, float]] = {}

    def target(proc) -> Generator[Any, Any, None]:
        yield from proc.register(_WINDOW, 64)
        while True:
            yield from proc.ep.wait_and_poll()

    def main(proc) -> Generator[Any, Any, None]:
        probe = yield from proc.put(1, _WINDOW, 0, [0.0])
        yield from proc.wait_remote(probe)
        for name, op, words in _MICRO_ROWS:
            payload = [1.0] * words
            local = remote = 0.0
            for i in range(_WARMUP + iters):
                t0 = proc.node.sim.now
                if op == "put":
                    handle = yield from proc.put(1, _WINDOW, 0, payload)
                elif op == "acc":
                    handle = yield from proc.accumulate(1, _WINDOW, 0, payload)
                else:
                    handle = yield from proc.get_async(1, _WINDOW, 0, words)
                t_local = proc.node.sim.now
                yield from proc.wait_remote(handle)
                if i >= _WARMUP:
                    local += t_local - t0
                    remote += proc.node.sim.now - t0
            sums[name] = (local / iters, remote / iters)

    cluster.launch(1, target(rt.process(1)), daemon=True)
    cluster.launch(0, main(rt.process(0)))
    cluster.run()
    return [
        RmaMicroRow(name=name, words=words,
                    local_us=sums[name][0], remote_us=sums[name][1])
        for name, _, words in _MICRO_ROWS
    ]


# ---------------------------------------------------------------------------
# section: tree vs flat collectives
# ---------------------------------------------------------------------------

def _collective_program(rounds: int, tree, cluster, marks, outs):
    """SPMD body shared by both tree shapes: ``rounds`` broadcasts, then
    ``rounds`` all-reduces, each section fenced so node 0's marks bound
    completed operations on *every* node.  Contributions are small
    integers — both shapes must produce exactly equal floats."""

    def prog(proc) -> Generator[Any, Any, None]:
        me = proc.my_node
        bc: list[float] = []
        ar: list[float] = []
        yield from tree.barrier(me)
        if me == 0:
            marks["t0"] = cluster.sim.now
        for r in range(rounds):
            bc.append((yield from tree.bcast(me, 0, float(r + 1))))
        yield from tree.barrier(me)
        if me == 0:
            marks["t1"] = cluster.sim.now
        for r in range(rounds):
            ar.append((yield from tree.allreduce(me, float(me + r))))
        yield from tree.barrier(me)
        if me == 0:
            marks["t2"] = cluster.sim.now
        outs[me] = {"bcast": bc, "allreduce": ar}

    return prog


def _measure_collectives(
    nprocs: int, radix: int, rounds: int, costs: CostModel
) -> list[TreePoint]:
    """The same program over a flat tree (radix P−1) and a radix-``radix``
    tree, each on a fresh cluster; where ``radix >= P−1`` the two shapes
    are one and the columns are equal."""
    from repro.machine.cluster import Cluster
    from repro.rma.tree import TreeComm
    from repro.splitc import SplitCRuntime

    results: dict[str, dict] = {}
    timings: dict[str, dict[str, float]] = {}
    for shape, k in (("flat", max(1, nprocs - 1)), ("tree", radix)):
        cluster = Cluster(nprocs, costs=costs)
        rt = SplitCRuntime(cluster)
        marks: dict[str, float] = {}
        outs: dict[int, dict] = {}
        rt.run_spmd(
            _collective_program(rounds, TreeComm(rt.endpoints, radix=k),
                                cluster, marks, outs),
            name=f"coll-{shape}-{nprocs}",
        )
        results[shape] = outs
        timings[shape] = {
            "bcast": (marks["t1"] - marks["t0"]) / rounds,
            "allreduce": (marks["t2"] - marks["t1"]) / rounds,
        }
    return [
        TreePoint(
            op=op,
            nprocs=nprocs,
            radix=radix,
            flat_us=timings["flat"][op],
            tree_us=timings["tree"][op],
            match=all(
                results["flat"][nid][op] == results["tree"][nid][op]
                for nid in range(nprocs)
            ),
        )
        for op in ("bcast", "allreduce")
    ]


# ---------------------------------------------------------------------------
# section: EM3D by communication paradigm
# ---------------------------------------------------------------------------

def _measure_em3d(comm: str, quick: bool, seed: int, costs: CostModel) -> Em3dCommRow:
    import numpy as np

    from repro.apps.em3d import (
        Em3dGraph,
        Em3dParams,
        reference_steps,
        run_ccpp_em3d,
        run_rma_em3d,
        run_splitc_em3d,
    )

    if quick:
        params = Em3dParams(n_nodes=120, degree=6, n_procs=4, pct_remote=0.5, seed=seed)
    else:
        params = Em3dParams(n_nodes=800, degree=20, n_procs=4, pct_remote=1.0, seed=seed)
    graph = Em3dGraph(params)
    steps, warmup = 2, 1
    if comm == "rma":
        res = run_rma_em3d(graph, steps=steps, warmup_steps=warmup, costs=costs)
    elif comm == "splitc":
        res = run_splitc_em3d(
            graph, steps=steps, warmup_steps=warmup, version="ghost", costs=costs
        )
    else:
        res = run_ccpp_em3d(
            graph, steps=steps, warmup_steps=warmup, version="ghost", costs=costs
        )
    ref = reference_steps(graph, steps + warmup)
    return Em3dCommRow(
        comm=comm,
        elapsed_us=res.elapsed_us,
        per_edge_us=res.per_edge_us,
        bitwise_ok=bool(np.array_equal(res.values, ref)),
    )


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def run(
    *,
    iters: int = 30,
    procs: tuple[int, ...] = (2, 4, 8),
    radix: int = 2,
    comm: str = "rma",
    threads: tuple[int, ...] = (1, 2, 4, 8),
    quick: bool = True,
    seed: int = 1997,
    costs: CostModel | None = None,
) -> RmaResult:
    """Regenerate the RMA artifact (all four sections; ``costs=None`` is
    the calibrated SP-2 model)."""
    from repro.machine.costs import SP2_COSTS
    from repro.rma import run_injection

    if costs is None:
        costs = SP2_COSTS
    rounds = 3 if quick else 8
    msgs = 64 if quick else 256
    result = RmaResult(micro=_measure_micro(iters, costs))
    for nprocs in procs:
        result.tree.extend(_measure_collectives(nprocs, radix, rounds, costs))
    for t in threads:
        stats = run_injection(t, msgs=msgs, costs=costs)
        result.inject.append(
            InjectPoint(
                threads=int(stats["threads"]),
                msgs=int(stats["msgs"]),
                elapsed_us=stats["elapsed_us"],
                rate_per_ms=stats["rate_per_ms"],
            )
        )
    result.em3d.append(_measure_em3d(comm, quick, seed, costs))
    return result
