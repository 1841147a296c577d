"""Property tests: contended-fabric invariants.

Link contention changes *when* packets land, but two things must
survive any traffic pattern:

* per-(src, dst) FIFO — two packets on the same channel never reorder,
  because they take the same deterministic route and per-link busy-until
  timestamps are monotone in transmit order;
* determinism — the same workload over a fresh identical topology gives
  bit-equal delivery schedules and link statistics.

And under a seeded :class:`FaultPlan` whose delay rules *can* reorder a
raw channel (that is their documented semantics), the reliable AM
sublayer must restore per-channel in-order processing on a contended
fabric exactly as it does on the flat one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.am import install_am
from repro.machine.cluster import Cluster
from repro.machine.faults import FaultPlan
from repro.machine.network import Packet

TOPOLOGIES = ("fattree:arity=4,fatness=2", "ring", "fattree:arity=8")

# raw traffic: (src, dst, nbytes) triples on a 8-node cluster
traffic = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=4096),
    ),
    min_size=1,
    max_size=40,
)

topology_specs = st.sampled_from(TOPOLOGIES)


def _inject(spec, ops):
    """Send raw packets through a contended fabric; returns the cluster
    and the delivery log [(src, dst, pid, arrival)] in delivery order."""
    cluster = Cluster(8, topology=spec)
    log = []
    for node in cluster.nodes:
        def filt(packet, _node=node):
            log.append((packet.src, packet.dst, packet.pid, packet.arrival_time))
            return (packet,)
        node.deliver_filter = filt
    sent = []
    for src, dst, nbytes in ops:
        pkt = Packet(src=src, dst=dst, kind="prop", payload=None, nbytes=nbytes)
        cluster.network.transmit(pkt)
        sent.append(pkt.pid)  # the network numbers a packet at injection
    cluster.run()
    return cluster, sent, log


@settings(max_examples=40, deadline=None)
@given(topology_specs, traffic)
def test_per_channel_fifo_under_contention(spec, ops):
    """Packets on one (src, dst) channel are delivered in send order,
    no matter how much cross-traffic queues on shared links."""
    _, sent, log = _inject(spec, ops)
    assert len(log) == len(ops)
    order = {pid: i for i, (_, _, pid, _) in enumerate(log)}
    by_channel: dict[tuple[int, int], list[int]] = {}
    for pid, (src, dst, _) in zip(sent, ops):
        by_channel.setdefault((src, dst), []).append(order[pid])
    for positions in by_channel.values():
        assert positions == sorted(positions)


@settings(max_examples=40, deadline=None)
@given(topology_specs, traffic)
def test_arrivals_monotone_per_channel(spec, ops):
    """Later sends on a channel never arrive earlier (busy-until is
    monotone along a fixed route)."""
    _, sent, log = _inject(spec, ops)
    arrivals = {pid: t for (_, _, pid, t) in log}
    last: dict[tuple[int, int], float] = {}
    for pid, (src, dst, _) in zip(sent, ops):
        t = arrivals[pid]
        assert t >= last.get((src, dst), 0.0)
        last[(src, dst)] = t


@settings(max_examples=25, deadline=None)
@given(topology_specs, traffic)
def test_contended_runs_are_deterministic(spec, ops):
    """Identical workload + fresh identical fabric = bit-equal schedule,
    link occupancy, and route tables."""
    a_cluster, _, a_log = _inject(spec, ops)
    b_cluster, _, b_log = _inject(spec, ops)
    # pids differ across runs (global counter); compare order and times
    assert [(s, d, t) for s, d, _, t in a_log] == [(s, d, t) for s, d, _, t in b_log]
    assert a_cluster.sim.now == b_cluster.sim.now
    a_topo, b_topo = a_cluster.topology, b_cluster.topology
    assert a_topo.link_stats() == b_topo.link_stats()
    assert a_topo.busy_until == b_topo.busy_until


@settings(max_examples=25, deadline=None)
@given(topology_specs, traffic)
def test_routes_deterministic_across_instances(spec, ops):
    a = Cluster(8, topology=spec).topology
    b = Cluster(8, topology=spec).topology
    for src, dst, _ in ops:
        assert a.route(src, dst) == b.route(src, dst)


# AM workload for the fault/reliable case: (sender, receiver, payload
# bytes — short AMs cap at the 64-byte frame)
am_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=8, max_value=64),
    ),
    min_size=1,
    max_size=12,
)


def _run_reliable(spec, ops, fault_seed):
    """AM traffic with reliable delivery over a delaying FaultPlan on a
    contended fabric; returns the per-receiver handling log."""
    plan = FaultPlan(seed=fault_seed).delay(
        "am.", rate=0.5, delay_us=200.0, jitter_us=150.0
    )
    cluster = Cluster(4, topology=spec, faults=plan)
    eps = install_am(cluster, reliable=True)
    handled = []

    def h(ep, src, frame):
        handled.append((src, ep.node.nid, frame.args[0]))
        return
        yield

    for ep in eps:
        ep.register_handler("h", h)

    def server(node):
        ep = node.service("am")
        while True:
            yield from ep.wait_and_poll()

    by_sender: dict[int, list] = {}
    chan_seq: dict[tuple[int, int], int] = {}
    for sender, receiver, nbytes in ops:
        seq = chan_seq.get((sender, receiver), 0)
        chan_seq[(sender, receiver)] = seq + 1
        by_sender.setdefault(sender, []).append((receiver, nbytes, seq))

    def sender_body(node, plan_ops):
        ep = node.service("am")
        for receiver, nbytes, seq in plan_ops:
            yield from ep.send_short(receiver, "h", args=(seq,), nbytes=nbytes)

    for nid in range(4):
        cluster.launch(nid, server(cluster.nodes[nid]), daemon=True)
    for sender, plan_ops in by_sender.items():
        cluster.launch(sender, sender_body(cluster.nodes[sender], plan_ops))
    cluster.run()
    return cluster, handled


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(("fattree:arity=4,fatness=2", "ring")),
    am_ops,
    st.integers(min_value=1, max_value=5),
)
def test_reliable_am_restores_fifo_under_faultplan_delays(spec, ops, seed):
    """FaultPlan delay+jitter may reorder the raw channel (documented);
    the reliable sublayer must hand messages to handlers in per-channel
    send order anyway — also on a contended hierarchical fabric."""
    cluster, handled = _run_reliable(spec, ops, seed)
    assert len(handled) == len(ops)
    # per-channel sequence numbers must be handled 0,1,2,... in order
    seen: dict[tuple[int, int], list[int]] = {}
    for src, dst, seq in handled:
        seen.setdefault((src, dst), []).append(seq)
    for positions in seen.values():
        assert positions == list(range(len(positions)))
    # determinism: re-running the identical seeded setup reproduces the
    # exact handling sequence
    _, handled2 = _run_reliable(spec, ops, seed)
    assert handled == handled2
