"""Topology construction, routing, and occupancy-accounting unit tests,
including the edge cases the fabrics must not mishandle: a 1-node
cluster, non-power-of-two fat-tree node counts, ring wraparound, and
route symmetry."""

import pytest

from repro.errors import SimulationError
from repro.machine.cluster import Cluster
from repro.machine.topology import (
    SHAPES_KEPT,
    TOPOLOGY_KINDS,
    FatTreeTopology,
    FlatTopology,
    RingTopology,
    make_topology,
)


class TestConstruction:
    def test_one_node_cluster_every_kind(self):
        # degenerate but legal: loopback still routes
        for spec in ("flat", "ring", "fattree"):
            topo = make_topology(spec, 1)
            assert topo.n_nodes == 1
            route = topo.route(0, 0)
            assert all(0 <= lid < topo.n_links for lid in route)

    def test_zero_or_negative_nodes_rejected(self):
        for kind in (FlatTopology, RingTopology, FatTreeTopology):
            with pytest.raises(SimulationError):
                kind(0)

    def test_fat_tree_bad_arity_and_fatness(self):
        with pytest.raises(SimulationError):
            FatTreeTopology(8, arity=1)
        with pytest.raises(SimulationError):
            FatTreeTopology(8, fatness=0.5)

    def test_out_of_range_endpoint_rejected(self):
        topo = RingTopology(4)
        with pytest.raises(SimulationError):
            topo.route(0, 4)
        with pytest.raises(SimulationError):
            topo.route(-1, 0)

    def test_fat_tree_levels(self):
        # 64 nodes at arity 4: 16 leaves -> 4 -> 1 root
        ft = FatTreeTopology(64, arity=4)
        assert ft.level_counts == (16, 4, 1)
        # every non-root switch owns an up/down pair + 2 access links/node
        expected = 2 * 64 + 2 * (16 + 4)
        assert ft.n_links == expected

    def test_fat_tree_non_power_of_two_nodes(self):
        # 10 nodes, arity 4 -> 3 leaf switches (4+4+2), then 1 root
        ft = FatTreeTopology(10, arity=4)
        assert ft.level_counts == (3, 1)
        # all pairs route without error and stay within the link table
        for src in range(10):
            for dst in range(10):
                assert all(0 <= lid < ft.n_links for lid in ft.route(src, dst))

    def test_make_parses_options(self):
        ft = make_topology("fattree:arity=8,fatness=2", 64)
        assert isinstance(ft, FatTreeTopology)
        assert ft.arity == 8 and ft.fatness == 2.0
        ring = make_topology("ring:hop_us=3", 8)
        assert isinstance(ring, RingTopology)
        assert ring.hop_us == 3.0

    def test_make_rejects_unknown_kind_and_options(self):
        with pytest.raises(SimulationError):
            make_topology("torus", 8)
        with pytest.raises(SimulationError):
            make_topology("ring:arity=4", 8)
        with pytest.raises(SimulationError):
            make_topology("fattree:arity=huge", 8)
        assert set(TOPOLOGY_KINDS) == {"flat", "fattree", "ring"}


class TestRouting:
    def test_ring_wraparound_prefers_short_way(self):
        ring = RingTopology(8)
        # 7 -> 0 is one clockwise hop across the wrap, not 7 ccw hops
        assert ring.route(7, 0) == (7,)
        # 0 -> 7 is one counter-clockwise hop (link id n + 0)
        assert ring.route(0, 7) == (8,)
        assert ring.route(0, 0) == ()

    def test_ring_tie_goes_clockwise(self):
        ring = RingTopology(8)
        route = ring.route(0, 4)
        assert route == (0, 1, 2, 3)  # cw links, deterministic tie-break

    def test_route_symmetry_hops(self):
        # hop *counts* are symmetric on every fabric (paths mirror)
        for topo in (
            FatTreeTopology(24, arity=4),
            RingTopology(9),
            FlatTopology(6),
        ):
            for src in range(topo.n_nodes):
                for dst in range(topo.n_nodes):
                    assert topo.hops(src, dst) == topo.hops(dst, src)

    def test_fat_tree_route_shape(self):
        ft = FatTreeTopology(16, arity=4)
        # same leaf: up + down access only
        assert len(ft.route(0, 1)) == 2
        # cross-leaf: climbs one level
        assert len(ft.route(0, 5)) == 4
        # route is memoized to the same tuple object, for the shape: a
        # second fabric of it (any bandwidth, any latency) never routes
        assert ft.route(0, 5) is ft.route(0, 5)
        thin = FatTreeTopology(16, arity=4, fatness=1.0, hop_us=0.0)
        assert thin.route(0, 5) is ft.route(0, 5)
        assert FatTreeTopology(16, arity=2).route(0, 5) != ft.route(0, 5)

    def test_shape_table_is_bounded(self):
        from repro.machine.topology import _shape

        for n in range(2, 2 + 2 * SHAPES_KEPT):
            RingTopology(n).route(0, 1)
        assert _shape.cache_info().currsize == SHAPES_KEPT

    def test_flat_routes_are_empty(self):
        flat = FlatTopology(4)
        assert flat.route(1, 2) == ()
        assert not flat.contention


class TestOccupancy:
    def test_uncontended_packet_pays_serialization_plus_hops(self):
        ring = RingTopology(4, hop_us=5.0)
        delay, queued = ring.occupy(0, 1, 100, 0.02, now=0.0)
        assert queued == 0.0
        assert delay == pytest.approx(100 * 0.02 + 5.0)

    def test_second_packet_queues_behind_first(self):
        ft = FatTreeTopology(8, arity=4, hop_us=0.0)
        d1, q1 = ft.occupy(0, 1, 1000, 0.02, now=0.0)
        d2, q2 = ft.occupy(2, 1, 1000, 0.02, now=0.0)
        assert q1 == 0.0
        # both packets share acc-down[1]: the second waits for the first
        assert q2 == pytest.approx(1000 * 0.02)
        assert d2 > d1

    def test_fatter_links_serialize_faster(self):
        thin = FatTreeTopology(16, arity=4, fatness=1.0, hop_us=0.0)
        fat = FatTreeTopology(16, arity=4, fatness=4.0, hop_us=0.0)
        d_thin, _ = thin.occupy(0, 5, 1000, 0.02, now=0.0)
        d_fat, _ = fat.occupy(0, 5, 1000, 0.02, now=0.0)
        assert d_fat < d_thin

    def test_same_shape_shares_no_occupancy(self):
        a, b = RingTopology(4, hop_us=0.0), RingTopology(4, hop_us=0.0)
        a.occupy(0, 1, 500, 0.02, now=0.0)
        assert a.route(0, 1) is b.route(0, 1)
        assert b.busy_until == [0.0] * b.n_links
        assert all(s["packets"] == 0 for s in b.link_stats())
        # ... nor bandwidth or latency: same routes, different delays
        thin = FatTreeTopology(16, arity=4, fatness=1.0, hop_us=0.0)
        fat = FatTreeTopology(16, arity=4, fatness=4.0, hop_us=2.0)
        assert thin.occupy(0, 5, 1000, 0.02, now=0.0)[0] == pytest.approx(4 * 20.0)
        assert fat.occupy(0, 5, 1000, 0.02, now=0.0)[0] == pytest.approx(
            2 * 20.0 + 2 * 5.0 + 4 * 2.0
        )

    def test_link_stats_accumulate(self):
        ring = RingTopology(4, hop_us=0.0)
        ring.occupy(0, 1, 500, 0.02, now=0.0)
        ring.occupy(0, 1, 500, 0.02, now=0.0)
        stats = {s["link"]: s for s in ring.link_stats()}
        assert stats["cw[0]"]["packets"] == 2
        assert stats["cw[0]"]["bytes"] == 1000
        assert stats["cw[0]"]["queued_us"] == pytest.approx(500 * 0.02)
        assert ring.total_queued_us() == pytest.approx(500 * 0.02)
        assert ring.max_utilization(ring.busy_until[0]) == pytest.approx(1.0)
        assert ring.hot_links(1)[0]["link"] == "cw[0]"


class TestClusterIntegration:
    def test_cluster_accepts_spec_string(self):
        cluster = Cluster(8, topology="fattree:arity=4")
        assert isinstance(cluster.topology, FatTreeTopology)
        assert cluster.network.topology is cluster.topology

    def test_cluster_rejects_mis_sized_topology(self):
        with pytest.raises(SimulationError):
            Cluster(8, topology=RingTopology(4))

    def test_topology_object_describes_any_number_of_clusters(self):
        # 64 x 4 KB incast on one prebuilt ring: the second cluster given
        # the object must not start behind the first one's traffic
        from repro.machine.network import Packet

        ring = make_topology("ring", 8)
        elapsed = []
        for _ in range(2):
            cluster = Cluster(8, topology=ring)
            for i in range(64):
                cluster.network.transmit(
                    Packet(src=1 + i % 7, dst=0, kind="x", payload=None, nbytes=4096),
                    bulk=True,
                )
            elapsed.append(cluster.run())
            assert cluster.topology.total_queued_us() > 0.0
            assert cluster.network.topology is cluster.topology
        assert elapsed[0] == elapsed[1]
        # the description itself carried no traffic
        assert ring.total_queued_us() == 0.0 and not any(ring.busy_until)

    def test_flat_topology_runs_byte_identical_to_none(self):
        # the byte-identity contract: an explicit flat fabric must
        # produce exactly the run a topology-free cluster does
        from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d

        graph = Em3dGraph(Em3dParams(n_nodes=40, degree=4, n_procs=4))
        base = run_splitc_em3d(graph, steps=1, warmup_steps=0)
        flat = run_splitc_em3d(graph, steps=1, warmup_steps=0, topology="flat")
        assert base.elapsed_us == flat.elapsed_us
        assert (base.values == flat.values).all()
        assert base.breakdown == flat.breakdown
        assert base.counters == flat.counters

    def test_contended_run_slower_and_counted(self):
        from repro.apps.em3d import Em3dGraph, Em3dParams, run_splitc_em3d

        graph = Em3dGraph(Em3dParams(n_nodes=40, degree=4, n_procs=4))
        base = run_splitc_em3d(graph, steps=1, warmup_steps=0)
        ring = run_splitc_em3d(graph, steps=1, warmup_steps=0, topology="ring")
        # the same program, values identical, but wire time now includes
        # hop latency and link queueing -> strictly slower
        assert (ring.values == base.values).all()
        assert ring.elapsed_us > base.elapsed_us

    def test_deadlock_dump_names_hot_links(self):
        cluster = Cluster(4, topology="ring")
        from repro.machine.network import Packet

        cluster.network.transmit(
            Packet(src=0, dst=1, kind="x", payload=None, nbytes=64)
        )
        cluster.run()
        assert "topology: ring" in cluster.diagnose()
