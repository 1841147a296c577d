"""Fault-tolerant EM3D: checkpoint/restart over reliable AM + detection.

The paper's EM3D variants assume every node survives the run.  This
module drops that assumption: the same bipartite E/H sweep runs as a
push-based exchange over the reliable AM sublayer with a heartbeat
:class:`~repro.ft.detector.FailureDetector` watching the fabric, and a
host-side driver that survives node failures:

* every ``ckpt_every`` steps each rank snapshots its owned values to a
  host-side :class:`CheckpointStore` (a checkpoint *commits* once every
  participant has written that step);
* when the detector declares a peer dead, every surviving worker aborts
  its attempt promptly (membership listeners flip a shared flag and the
  declaration wakes all inbox waiters — nobody spins on a reply that
  cannot come);
* the driver takes a majority vote over the per-node membership views to
  identify who actually died, re-partitions the dead rank's graph nodes
  round-robin across the survivors, restores the latest committed
  checkpoint, and re-runs from there on a fresh, smaller cluster.

Correctness is bitwise: values are exchanged exactly (no rounding in
transport), each node's weighted sum accumulates in neighbor-list order
— an order fixed by the graph, not the partition — and the E-then-H
half-step split matches :func:`~repro.apps.em3d.reference.reference_steps`.
So a run that loses a node mid-flight still lands on *exactly* the
fault-free reference values.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.am import AMEndpoint, AMFrame, RetryPolicy, install_am
from repro.apps.em3d.graph import Em3dGraph
from repro.errors import NodeUnreachableError, SimulationError
from repro.ft import install_detector
from repro.machine.cluster import Cluster
from repro.machine.faults import FaultPlan, NodeFault
from repro.sim.account import Category, CounterNames
from repro.sim.effects import Charge
from repro.util.rng import DEFAULT_SEED, derive_seed

__all__ = ["CheckpointStore", "RecoveryResult", "run_recovering_em3d"]

VALS_HANDLER = "em3d.vals"
#: wire size of one (gid, value) pair plus the (step, phase) header
_PAIR_BYTES = 16
_MSG_HEADER_BYTES = 16

#: retransmit schedule tuned so the failure detector (default threshold
#: 8 * 500 us = 4 ms) always wins the race against retry exhaustion
DEFAULT_RETRY = RetryPolicy(
    timeout_us=200.0, backoff=2.0, max_timeout_us=3200.0, max_retries=25
)


class CheckpointStore:
    """Host-side checkpoint storage (the simulated cluster's stable disk).

    Ranks write their *owned* slice of the values per step; a step's
    checkpoint commits once every participant of the attempt has written
    it.  Partial checkpoints (a rank died mid-interval) never commit and
    are discarded by the next restore.
    """

    def __init__(self, initial: dict[int, float]):
        #: step -> proc -> {gid: value} (uncommitted fragments)
        self._parts: dict[int, dict[int, dict[int, float]]] = {}
        #: step -> merged {gid: value} for fully committed checkpoints
        self.committed: dict[int, dict[int, float]] = {0: dict(initial)}
        self.writes = 0
        self.restores = 0

    def write(
        self, step: int, proc: int, vals: dict[int, float], participants: list[int]
    ) -> None:
        parts = self._parts.setdefault(step, {})
        parts[proc] = dict(vals)
        self.writes += 1
        if all(q in parts for q in participants):
            merged: dict[int, float] = {}
            for q in participants:
                merged.update(parts[q])
            self.committed[step] = merged
            del self._parts[step]

    def latest(self) -> tuple[int, dict[int, float]]:
        """Most recent committed checkpoint as ``(step, values)``."""
        step = max(self.committed)
        self.restores += 1
        return step, dict(self.committed[step])


@dataclass(slots=True)
class RecoveryResult:
    """Outcome of a fault-tolerant EM3D run."""

    values: np.ndarray              # final node values by global id
    attempts: int                   # clusters run (1 = no failure seen)
    dead_procs: list[int]           # original proc ids declared dead
    restart_steps: list[int]        # checkpoint step each restart resumed from
    ckpt_writes: int
    ckpt_restores: int
    elapsed_us: float               # summed virtual time across attempts
    counters: dict[str, int] = field(default_factory=dict)
    #: packet conservation held in every attempt:
    #: delivered == sent - dropped + duplicated after the full drain
    conserved: bool = True
    #: the fabric was fully quiescent (no unread mail) after every
    #: attempt that saw no death — failure attempts legitimately leave
    #: unread inboxes behind when workers abort
    quiescent: bool = True


@dataclass(slots=True)
class _RankState:
    """Shared between one rank's worker, its AM handler and the
    membership listener (all on the same simulated node)."""

    vals: dict[int, float]
    ghosts: dict[tuple[int, int], dict[int, float]] = field(default_factory=dict)
    arrived: dict[tuple[int, int], set[int]] = field(default_factory=dict)
    aborted: bool = False
    finished: bool = False
    #: virtual time this rank's worker stopped (finished or aborted)
    done_at: float = 0.0


def _remap_plan(
    plan: FaultPlan | None, attempt: int, participants: list[int]
) -> FaultPlan | None:
    """The fault plan for attempt ``attempt`` (1-based).

    Attempt 1 runs the caller's plan verbatim.  Restarts rebuild it with
    a derived seed (a fresh random stream — the retry is a different
    execution) and with node faults remapped from original proc ids to
    the surviving cluster's ranks; faults pinned to dead procs drop out.
    """
    if plan is None:
        return None
    if attempt == 1:
        return plan
    rank_of = {proc: r for r, proc in enumerate(participants)}
    node_faults = [
        NodeFault(rank_of[nf.nid], nf.start, nf.duration)
        for nf in plan.node_faults
        if nf.nid in rank_of
    ]
    rules = [r for r in plan.rules if r.src is None and r.dst is None]
    return FaultPlan(
        seed=derive_seed(plan.seed, "attempt", attempt),
        rules=rules,
        node_faults=node_faults,
    )


def _build_exchange(
    graph: Em3dGraph, owner: list[int], participants: list[int]
) -> tuple[list[dict], list[list[int]], list[list[list[Any]]]]:
    """Static exchange plan for one partition.

    Returns ``(sends, expected, my_nodes)``: per phase, which gids each
    rank pushes to each peer, how many peer messages each rank awaits,
    and which graph nodes each rank updates.
    """
    rank_of = {proc: r for r, proc in enumerate(participants)}
    n_ranks = len(participants)
    sends: list[dict] = [{}, {}]
    expected: list[list[int]] = [[0] * n_ranks for _ in (0, 1)]
    my_nodes: list[list[list[Any]]] = [
        [[] for _ in range(n_ranks)] for _ in (0, 1)
    ]
    for ph in (0, 1):
        need: list[dict[int, set[int]]] = [dict() for _ in range(n_ranks)]
        for t in graph.nodes:
            if t.is_e != (ph == 0):
                continue
            tr = rank_of[owner[t.gid]]
            my_nodes[ph][tr].append(t)
            for s in t.neighbors:
                sr = rank_of[owner[s]]
                if sr != tr:
                    need[tr].setdefault(sr, set()).add(s)
        for tr in range(n_ranks):
            for sr, gids in need[tr].items():
                sends[ph][(sr, tr)] = sorted(gids)
                expected[ph][tr] += 1
    return sends, expected, my_nodes


def _vote_dead(fd: Any, n_ranks: int) -> list[int]:
    """Ranks declared dead by a strict majority of membership views.

    A genuinely dead node hears nothing and eventually declares *every*
    peer dead; the survivors each declare only the dead node.  A strict
    majority separates the two as long as failures stay a minority.
    """
    votes = [0] * n_ranks
    for m in fd.memberships:
        for peer in range(n_ranks):
            if peer != m.nid and not m.is_alive(peer):
                votes[peer] += 1
    return [r for r, v in enumerate(votes) if v > n_ranks / 2]


def _run_attempt(
    graph: Em3dGraph,
    owner: list[int],
    participants: list[int],
    start_step: int,
    start_vals: dict[int, float],
    steps: int,
    ckpt_every: int,
    store: CheckpointStore,
    retry: RetryPolicy,
    interval_us: float,
    phi: float,
    watchdog_us: float | bool,
    machine: dict[str, Any],
) -> tuple[list[int], list[_RankState], dict[str, int], float, bool, bool]:
    """One cluster lifetime.  Returns ``(dead_ranks, states, counters,
    elapsed, conserved, quiescent)``; an empty dead list means the
    attempt completed."""
    n_ranks = len(participants)
    cluster = Cluster(n_ranks, **machine)
    costs = cluster.costs
    eps = install_am(cluster, reliable=True, retry=retry)
    fd = install_detector(cluster, interval_us=interval_us, phi=phi)
    sends, expected, my_nodes = _build_exchange(graph, owner, participants)
    per_neighbor = costs.cpu.em3d_per_neighbor
    short_max = costs.net.short_max_bytes
    ckpt_per_value_us = costs.runtime.copy_per_byte * 8

    states = [
        _RankState(
            vals={
                g: start_vals[g]
                for g in range(graph.params.n_nodes)
                if owner[g] == proc
            }
        )
        for proc in participants
    ]

    for r in range(n_ranks):
        st = states[r]

        def handler(ep: AMEndpoint, src: int, frame: AMFrame, st=st):
            step, ph, pairs = frame.args
            ghosts = st.ghosts.setdefault((step, ph), {})
            for gid, v in pairs:
                ghosts[gid] = v
            st.arrived.setdefault((step, ph), set()).add(src)
            # deposit cost: one copy per received (gid, value) pair
            yield Charge(
                _PAIR_BYTES * len(pairs) * ckpt_per_value_us / 8.0,
                Category.RUNTIME,
            )

        eps[r].register_handler(VALS_HANDLER, handler)

        def on_death(membership: Any, peer: int, st=st) -> None:
            st.aborted = True

        fd.memberships[r].on_change(on_death)

    def worker(r: int) -> Generator[Any, Any, None]:
        ep = eps[r]
        st = states[r]
        node = cluster.nodes[r]
        if start_step > 0:
            # restoring the checkpoint pays the same copy the write did
            node.counters.inc(CounterNames.CKPT_RESTORE)
            yield Charge(len(st.vals) * ckpt_per_value_us, Category.RUNTIME)
        for s in range(start_step, steps):
            for ph in (0, 1):
                for dst in range(n_ranks):
                    gids = sends[ph].get((r, dst))
                    if gids is None:
                        continue
                    pairs = tuple((g, st.vals[g]) for g in gids)
                    nbytes = _MSG_HEADER_BYTES + _PAIR_BYTES * len(pairs)
                    try:
                        if nbytes <= short_max:
                            yield from ep.send_short(
                                dst, VALS_HANDLER, args=(s, ph, pairs), nbytes=nbytes
                            )
                        else:
                            yield from ep.send_bulk(
                                dst, VALS_HANDLER, args=(s, ph, pairs), nbytes=nbytes
                            )
                    except NodeUnreachableError:
                        st.aborted = True
                    if st.aborted:
                        return
                exp = expected[ph][r]
                key = (s, ph)
                yield from ep.poll_until(
                    lambda st=st, key=key, exp=exp: st.aborted
                    or len(st.arrived.get(key, ())) >= exp
                )
                if st.aborted:
                    return
                ghosts = st.ghosts.pop(key, {})
                st.arrived.pop(key, None)
                vals = st.vals
                new: list[tuple[int, float]] = []
                for t in my_nodes[ph][r]:
                    acc = 0.0
                    for v, w in zip(t.neighbors, t.weights):
                        x = vals.get(v)
                        acc += w * (ghosts[v] if x is None else x)
                    new.append((t.gid, acc))
                    yield Charge(len(t.neighbors) * per_neighbor, Category.CPU)
                for gid, acc in new:
                    vals[gid] = acc
            done = s + 1
            if done % ckpt_every == 0 or done == steps:
                node.counters.inc(CounterNames.CKPT_WRITE)
                yield Charge(len(st.vals) * ckpt_per_value_us, Category.RUNTIME)
                store.write(done, participants[r], st.vals, participants)
        st.finished = True

    def timed_worker(r: int) -> Generator[Any, Any, None]:
        try:
            yield from worker(r)
        finally:
            states[r].done_at = cluster.sim.now

    for r in range(n_ranks):
        cluster.launch(r, timed_worker(r), f"em3d-ft@{r}")
    cluster.run(watchdog_us=watchdog_us)
    # job time = when the last worker stopped, not when the fabric
    # finished draining (nor the stall watchdog's final window tick)
    elapsed = max(st.done_at for st in states)
    counters = cluster.aggregate_counters().snapshot()
    net = cluster.network
    conserved = (
        net.packets_delivered
        == net.packets_sent - net.packets_dropped + net.packets_duplicated
    )
    return (
        _vote_dead(fd, n_ranks), states, counters, elapsed,
        conserved, net.quiescent(),
    )


def run_recovering_em3d(
    graph: Em3dGraph,
    *,
    steps: int = 4,
    ckpt_every: int = 1,
    retry: RetryPolicy | None = None,
    interval_us: float = 500.0,
    phi: float = 8.0,
    watchdog_us: float | bool = True,
    **machine: Any,
) -> RecoveryResult:
    """Run EM3D to completion *through* node failures.

    ``machine`` is :class:`~repro.machine.cluster.Cluster`'s keywords;
    its ``faults`` plan is the scenario, re-based onto the surviving
    ranks for every restart.

    The returned values match :func:`reference_steps(graph, steps)
    <repro.apps.em3d.reference.reference_steps>` bitwise whether or not
    anything failed.  Raises if every node dies, or if membership views
    diverge without a majority (a split-brain the vote cannot resolve).
    """
    if steps < 1:
        raise SimulationError(f"steps must be >= 1, got {steps}")
    if ckpt_every < 1:
        raise SimulationError(f"ckpt_every must be >= 1, got {ckpt_every}")
    p = graph.params
    owner = [n.proc for n in graph.nodes]
    participants = list(range(p.n_procs))
    store = CheckpointStore(
        {g: float(graph.initial[g]) for g in range(p.n_nodes)}
    )
    retry = retry or DEFAULT_RETRY

    start_step = 0
    start_vals = dict(store.committed[0])
    dead_procs: list[int] = []
    restart_steps: list[int] = []
    elapsed = 0.0
    counters: dict[str, int] = {}
    conserved = True
    quiescent = True
    attempts = 0
    while True:
        attempts += 1
        if attempts > p.n_procs:
            raise SimulationError(
                f"em3d recovery did not converge in {p.n_procs} attempts"
            )
        plan = _remap_plan(machine.get("faults"), attempts, participants)
        dead_ranks, states, cnts, t, att_conserved, att_quiescent = _run_attempt(
            graph, owner, participants, start_step, start_vals, steps,
            ckpt_every, store, retry, interval_us, phi, watchdog_us,
            dict(machine, faults=plan),
        )
        elapsed += t
        conserved = conserved and att_conserved
        if not dead_ranks:
            quiescent = quiescent and att_quiescent
        for k, v in cnts.items():
            counters[k] = counters.get(k, 0) + v
        if all(st.finished for st in states):
            # success — even with a death declared: a node that fails
            # *after* its last send and checkpoint costs nobody anything
            values = np.empty(p.n_nodes)
            for st in states:
                for gid, v in st.vals.items():
                    values[gid] = v
            return RecoveryResult(
                values=values,
                attempts=attempts,
                dead_procs=dead_procs,
                restart_steps=restart_steps,
                ckpt_writes=store.writes,
                ckpt_restores=store.restores,
                elapsed_us=elapsed,
                counters=counters,
                conserved=conserved,
                quiescent=quiescent,
            )
        if not dead_ranks:
            raise SimulationError(
                "em3d attempt aborted but no failure won a majority vote"
            )
        newly_dead = sorted(participants[r] for r in dead_ranks)
        dead_procs.extend(newly_dead)
        participants = [q for q in participants if q not in newly_dead]
        if not participants:
            raise SimulationError("every node failed; nothing left to recover on")
        # round-robin the dead procs' graph nodes across the survivors
        orphans = sorted(
            g for g in range(p.n_nodes) if owner[g] not in participants
        )
        for i, g in enumerate(orphans):
            owner[g] = participants[i % len(participants)]
        start_step, start_vals = store.latest()
        restart_steps.append(start_step)
