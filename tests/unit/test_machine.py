"""Unit tests for Node, Network, Cluster."""

import pytest

from repro.errors import SimulationError
from repro.machine.cluster import Cluster
from repro.machine.costs import SP2_COSTS
from repro.machine.network import Network, Packet
from repro.machine.node import Node
from repro.sim.engine import Simulator


def _fabric(n=2):
    cluster = Cluster(n)
    return cluster, cluster.network


class TestNode:
    def test_negative_id_rejected(self):
        with pytest.raises(SimulationError):
            Node(-1, Simulator(), SP2_COSTS)

    def test_attach_and_lookup_service(self):
        cluster, _ = _fabric(1)
        node = cluster.nodes[0]
        node.attach("svc", "payload")
        assert node.service("svc") == "payload"

    def test_reattach_rejected(self):
        cluster, _ = _fabric(1)
        node = cluster.nodes[0]
        node.attach("svc", 1)
        with pytest.raises(SimulationError):
            node.attach("svc", 2)

    def test_missing_service_rejected(self):
        cluster, _ = _fabric(1)
        with pytest.raises(SimulationError):
            cluster.nodes[0].service("ghost")


class TestNetwork:
    def test_delivery_after_wire_time(self):
        cluster, net = _fabric()
        pkt = Packet(src=0, dst=1, kind="t", payload=None, nbytes=100)
        net.transmit(pkt)
        cluster.sim.run()
        expected = SP2_COSTS.net.short_wire_time(100)
        assert pkt.arrival_time == pytest.approx(expected)
        assert list(cluster.nodes[1].inbox) == [pkt]

    def test_bulk_path_is_cheaper_per_byte(self):
        cluster, net = _fabric()
        a = Packet(src=0, dst=1, kind="t", payload=None, nbytes=1000)
        b = Packet(src=0, dst=1, kind="t", payload=None, nbytes=1000)
        net.transmit(a)
        net.transmit(b, bulk=True)
        cluster.sim.run()
        assert b.arrival_time < a.arrival_time

    def test_fifo_per_pair(self):
        cluster, net = _fabric()
        pkts = [Packet(src=0, dst=1, kind="t", payload=i, nbytes=8) for i in range(5)]
        for p in pkts:
            net.transmit(p)
        cluster.sim.run()
        assert [p.payload for p in cluster.nodes[1].inbox] == [0, 1, 2, 3, 4]

    def test_loopback_still_pays_wire(self):
        cluster, net = _fabric(1)
        pkt = Packet(src=0, dst=0, kind="t", payload=None, nbytes=8)
        net.transmit(pkt)
        cluster.sim.run()
        assert cluster.sim.now > 0
        assert cluster.nodes[0].has_mail

    def test_unknown_destination_rejected(self):
        _, net = _fabric(1)
        with pytest.raises(SimulationError):
            net.transmit(Packet(src=0, dst=7, kind="t", payload=None, nbytes=8))

    def test_quiescent_tracks_in_flight_and_inboxes(self):
        cluster, net = _fabric()
        assert net.quiescent()
        pkt = Packet(src=0, dst=1, kind="t", payload=None, nbytes=8)
        net.transmit(pkt)
        assert not net.quiescent()  # in flight
        cluster.sim.run()
        assert not net.quiescent()  # delivered but unread
        cluster.nodes[1].inbox.clear()
        assert net.quiescent()

    def test_byte_accounting(self):
        cluster, net = _fabric()
        net.transmit(Packet(src=0, dst=1, kind="t", payload=None, nbytes=64))
        net.transmit(Packet(src=1, dst=0, kind="t", payload=None, nbytes=36))
        cluster.sim.run()
        assert net.bytes_carried == 100
        assert net.packets_sent == net.packets_delivered == 2

    def test_duplicate_registration_rejected(self):
        cluster, net = _fabric(1)
        with pytest.raises(SimulationError):
            net.register(cluster.nodes[0])


class TestCluster:
    def test_size_and_node_ids(self):
        cluster = Cluster(4)
        assert cluster.size == 4
        assert [n.nid for n in cluster.nodes] == [0, 1, 2, 3]

    def test_at_least_one_node(self):
        with pytest.raises(SimulationError):
            Cluster(0)

    def test_aggregates_merge_all_nodes(self):
        from repro.sim.account import Category

        cluster = Cluster(2)
        cluster.nodes[0].charge(Category.CPU, 2.0)
        cluster.nodes[1].charge(Category.CPU, 3.0)
        assert cluster.aggregate_account().get(Category.CPU) == 5.0

    def test_run_returns_final_time(self):
        from repro.sim.account import Category
        from repro.sim.effects import Charge

        cluster = Cluster(1)

        def body():
            yield Charge(12.5, Category.CPU)

        cluster.launch(0, body())
        assert cluster.run() == 12.5

    def test_invalid_costs_rejected(self):
        from repro.machine.costs import NetworkCosts
        from dataclasses import replace

        bad = replace(SP2_COSTS, net=NetworkCosts(wire_latency=-1.0))
        with pytest.raises(Exception):
            Cluster(1, costs=bad)


class TestOwnership:
    """What a packet in flight allocates, and who frees a finished cluster.

    Both counts are taken with the collector switched off inside the test
    (and back on in ``finally``), so what is counted is what the code
    allocates and releases, not when a collection happened to run.
    """

    N = 1000

    @staticmethod
    def _tracked_growth(faults):
        import gc

        cluster = Cluster(8, topology="ring", faults=faults)
        net = cluster.network
        for src in range(8):  # route-warm: the memo is not a per-packet cost
            for dst in range(8):
                cluster.topology.route(src, dst)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for i in range(TestOwnership.N):
                net.transmit(
                    Packet(src=i % 8, dst=i * 3 % 8, kind="x", payload=None, nbytes=64)
                )
            return len(gc.get_objects()) - before, net.in_flight
        finally:
            gc.enable()

    def test_packet_in_flight_is_two_tracked_objects(self):
        # the Packet and its heap entry; a callable built per packet adds 5
        grown, in_flight = self._tracked_growth(None)
        assert in_flight == self.N
        assert grown / in_flight < 2.05

    def test_duplicated_packet_in_flight_is_two_tracked_objects(self):
        from repro.machine.faults import FaultPlan

        grown, in_flight = self._tracked_growth(
            FaultPlan(seed=1).duplicate("x", rate=1.0)
        )
        assert in_flight == 2 * self.N
        assert grown / in_flight < 2.05

    def test_duplicate_does_not_share_delivery_state(self):
        from repro.machine.faults import FaultPlan

        cluster = Cluster(2, faults=FaultPlan(seed=1).duplicate("x", rate=1.0))
        sent = Packet(src=0, dst=1, kind="x", payload=None, nbytes=64)
        cluster.network.transmit(sent)
        cluster.run()
        first, second = cluster.nodes[1].inbox
        assert second is sent and first is not sent and first.pid != sent.pid
        # landed packets hold nothing of the fabric, copies included
        assert first._net is None and second._net is None
        assert cluster.network.in_flight == 0

    def test_dropped_cluster_is_freed_by_reference_count(self):
        import gc
        import weakref

        class Payload:  # Packet has no __weakref__ slot; its payload stands in
            pass

        cluster = Cluster(8, topology="ring")
        for i in range(100):
            cluster.network.transmit(
                Packet(src=i % 8, dst=i * 3 % 8, kind="x", payload=Payload(), nbytes=64),
                bulk=True,
            )
        cluster.run()
        node = cluster.nodes[3]
        refs = [
            weakref.ref(node),
            weakref.ref(node.scheduler),
            weakref.ref(node.inbox[0].payload),
            weakref.ref(cluster.network),
        ]
        del node
        gc.collect()
        gc.disable()
        try:
            del cluster
            assert [ref() for ref in refs] == [None] * len(refs)
            # nothing was left for the cyclic collector
            assert gc.collect() == 0
        finally:
            gc.enable()
