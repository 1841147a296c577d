"""Properties of the tree collectives over a faulted fabric.

Over a lossy/jittery fabric with the reliable AM sublayer on, every
collective still produces the exact linear-oracle values (reliability
restores ordered exactly-once delivery; the collectives sit entirely
above it), and the same seed replays to the same virtual time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cluster import Cluster
from repro.machine.faults import FaultPlan
from repro.splitc import SplitCRuntime
from repro.splitc.collective import make_tree


def _tree_workload(n: int, radix: int, *, faults=None, reliable=False):
    """Rounds of bcast + allreduce + barrier; returns (outs, final virtual
    time)."""
    cluster = Cluster(n, faults=faults)
    rt = SplitCRuntime(cluster, reliable=reliable)
    tree = make_tree(rt, radix=radix)
    outs: dict[int, list[float]] = {}

    def prog(proc):
        me = proc.my_node
        seen = []
        for r in range(3):
            seen.append((yield from tree.bcast(me, r % n, float(r + 1))))
            seen.append((yield from tree.allreduce(me, float(me + r))))
            yield from tree.barrier(me)
        outs[me] = seen

    rt.run_spmd(prog)
    return outs, cluster.sim.now


def _expected(n: int) -> list[float]:
    return [v for r in range(3) for v in (float(r + 1), float(sum(range(n)) + n * r))]


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=5),
    radix=st.integers(min_value=1, max_value=3),
)
def test_tree_correct_over_lossy_fabric_with_reliable_am(seed, n, radix):
    """Drops + delay/jitter reorder and eat tree messages; the reliable
    sublayer must make the collectives' values exact anyway."""
    plan = (
        FaultPlan(seed=seed)
        .drop("am.", rate=0.05)
        .delay("am.", rate=0.3, delay_us=3.0, jitter_us=25.0)
    )
    outs, _ = _tree_workload(n, radix, faults=plan, reliable=True)
    assert outs == {nid: _expected(n) for nid in range(n)}


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tree_deterministic_replay(seed):
    """Same seed, same fault plan -> identical results and virtual time."""
    plan = lambda: FaultPlan(seed=seed).delay(
        "am.", rate=0.5, delay_us=2.0, jitter_us=15.0
    )
    a = _tree_workload(4, 2, faults=plan(), reliable=True)
    b = _tree_workload(4, 2, faults=plan(), reliable=True)
    assert a == b
