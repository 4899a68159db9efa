"""Tests for the NoC: topology, routing, router timing, contention."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.perfsim.noc import (
    DEFAULT_ROUTER,
    MeshNetwork,
    MeshTopology,
    NodeId,
    RouterParams,
    expected_noc_cycles,
    vc_for_class,
    xy_route,
)
from repro.perfsim.noc.routing import links_of


def _pair_walk_mean(topo: MeshTopology) -> float:
    """Mean hop distance by walking every unordered node pair: the
    reference for :meth:`MeshNetwork.mean_hop_distance`."""
    nodes = topo.all_nodes()
    if len(nodes) == 1:
        return 0.0
    total = 0
    count = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            total += topo.hop_distance(a, b)
            count += 1
    return total / count


class TestTopology:
    def test_table1_mesh(self):
        topo = MeshTopology()
        assert topo.width == 4 and topo.height == 4
        assert topo.nodes_per_chip == 16

    def test_stacked_node_count(self):
        assert MeshTopology(4, 4, 6).num_nodes == 96

    def test_node_validation(self):
        topo = MeshTopology(4, 4, 2)
        assert topo.node(1, 3, 3) == NodeId(1, 3, 3)
        with pytest.raises(ConfigurationError):
            topo.node(2, 0, 0)
        with pytest.raises(ConfigurationError):
            topo.node(0, 4, 0)

    def test_hop_distance_manhattan_plus_z(self):
        topo = MeshTopology(4, 4, 4)
        assert topo.hop_distance(NodeId(0, 0, 0), NodeId(3, 3, 3)) == 9

    def test_all_nodes_unique(self):
        topo = MeshTopology(3, 3, 2)
        nodes = topo.all_nodes()
        assert len(nodes) == len(set(nodes)) == 18

    def test_tile_index_row_major(self):
        topo = MeshTopology()
        assert topo.tile_index(NodeId(0, 2, 1)) == 6

    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            MeshTopology(0, 4, 1)


class TestRouting:
    def test_route_endpoints(self):
        topo = MeshTopology(4, 4, 2)
        path = xy_route(topo, NodeId(0, 0, 0), NodeId(1, 3, 2))
        assert path[0] == NodeId(0, 0, 0)
        assert path[-1] == NodeId(1, 3, 2)

    def test_route_x_then_y_then_z(self):
        topo = MeshTopology(4, 4, 2)
        path = xy_route(topo, NodeId(0, 0, 0), NodeId(1, 2, 1))
        # X moves first...
        assert path[1] == NodeId(0, 1, 0)
        # ...then Y, then the tier crossing is last.
        assert path[-2].chip == 0

    def test_self_route(self):
        topo = MeshTopology()
        assert xy_route(topo, NodeId(0, 1, 1), NodeId(0, 1, 1)) == (
            NodeId(0, 1, 1),)

    def test_outside_node_rejected(self):
        topo = MeshTopology()
        with pytest.raises(SimulationError):
            xy_route(topo, NodeId(0, 0, 0), NodeId(1, 0, 0))

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
           st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    @settings(max_examples=80)
    def test_route_length_property(self, x1, y1, c1, x2, y2, c2):
        topo = MeshTopology(4, 4, 3)
        src, dst = NodeId(c1, x1, y1), NodeId(c2, x2, y2)
        path = xy_route(topo, src, dst)
        assert len(path) - 1 == topo.hop_distance(src, dst)
        # Every step is one hop.
        for a, b in links_of(path):
            assert topo.hop_distance(a, b) == 1

    def test_vc_assignment(self):
        assert vc_for_class("request") == 0
        assert vc_for_class("forward") == 1
        assert vc_for_class("response") == 2
        with pytest.raises(SimulationError):
            vc_for_class("gossip")


class TestRouterParams:
    def test_table1_defaults(self):
        r = DEFAULT_ROUTER
        assert r.pipeline_stages == 3       # [RC][VSA][ST/LT]
        assert r.num_vcs == 3
        assert r.vc_buffer_flits == 5
        assert r.control_flits == 1
        assert r.data_flits == 5

    def test_zero_load_formula(self):
        r = DEFAULT_ROUTER
        # 2 hops, 5-flit data packet: 2*3 + 4 = 10 cycles.
        assert r.zero_load_cycles(2, 5) == 10
        # control packet, 1 hop: 3 cycles.
        assert r.zero_load_cycles(1, 1) == 3

    def test_zero_hops_zero_cycles(self):
        assert DEFAULT_ROUTER.zero_load_cycles(0, 5) == 0

    def test_negative_hops_rejected(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_ROUTER.zero_load_cycles(-1, 5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            RouterParams(pipeline_stages=0)
        with pytest.raises(ConfigurationError):
            RouterParams(num_vcs=0)
        with pytest.raises(ConfigurationError):
            RouterParams(data_flits=0)


class TestMeshNetwork:
    def test_zero_load_delivery(self):
        net = MeshNetwork(MeshTopology())
        src, dst = NodeId(0, 0, 0), NodeId(0, 3, 0)
        t = net.deliver(src, dst, is_data=True, depart_cycle=0.0)
        assert t == net.zero_load_cycles(src, dst, is_data=True)

    def test_self_delivery_instant(self):
        net = MeshNetwork(MeshTopology())
        assert net.deliver(NodeId(0, 1, 1), NodeId(0, 1, 1), is_data=True,
                           depart_cycle=5.0) == 5.0

    def test_contention_serializes(self):
        net = MeshNetwork(MeshTopology())
        src, dst = NodeId(0, 0, 0), NodeId(0, 1, 0)
        t1 = net.deliver(src, dst, is_data=True, depart_cycle=0.0)
        t2 = net.deliver(src, dst, is_data=True, depart_cycle=0.0)
        assert t2 > t1
        assert net.stats.total_queue_cycles > 0

    def test_disjoint_paths_no_contention(self):
        net = MeshNetwork(MeshTopology())
        t1 = net.deliver(NodeId(0, 0, 0), NodeId(0, 1, 0), is_data=True,
                         depart_cycle=0.0)
        t2 = net.deliver(NodeId(0, 0, 3), NodeId(0, 1, 3), is_data=True,
                         depart_cycle=0.0)
        assert t1 == t2

    def test_vertical_link_extra_latency(self):
        net = MeshNetwork(MeshTopology(4, 4, 2), vertical_link_cycles=4)
        flat = net.zero_load_cycles(NodeId(0, 0, 0), NodeId(0, 1, 0),
                                    is_data=False)
        vert = net.zero_load_cycles(NodeId(0, 0, 0), NodeId(1, 0, 0),
                                    is_data=False)
        assert vert == flat + 4

    def test_stats_accumulate(self):
        net = MeshNetwork(MeshTopology())
        net.deliver(NodeId(0, 0, 0), NodeId(0, 2, 2), is_data=True,
                    depart_cycle=0.0)
        net.deliver(NodeId(0, 0, 0), NodeId(0, 2, 2), is_data=False,
                    depart_cycle=100.0)
        assert net.stats.packets == 2
        assert net.stats.flits == 6
        assert net.stats.mean_latency_cycles > 0
        assert net.stats.max_latency_cycles >= net.stats.mean_latency_cycles

    def test_reset(self):
        net = MeshNetwork(MeshTopology())
        net.deliver(NodeId(0, 0, 0), NodeId(0, 1, 0), is_data=True,
                    depart_cycle=0.0)
        net.reset()
        assert net.stats.packets == 0
        t = net.deliver(NodeId(0, 0, 0), NodeId(0, 1, 0), is_data=True,
                        depart_cycle=0.0)
        assert t == net.zero_load_cycles(NodeId(0, 0, 0), NodeId(0, 1, 0),
                                         is_data=True)

    def test_mean_hop_distance_mesh4x4(self):
        # Mean Manhattan distance over distinct 4x4-mesh pairs: per axis
        # E|dx| = 1.25 including ties; excluding self pairs scales by
        # 16/15, so 2 * 1.25 * 16/15 = 8/3.
        net = MeshNetwork(MeshTopology(4, 4, 1))
        assert net.mean_hop_distance() == pytest.approx(8.0 / 3.0)

    @pytest.mark.parametrize("chips", range(1, 13))
    def test_mean_hop_distance_matches_the_pair_walk(self, chips):
        """The closed form equals the pair-by-pair mean it replaced,
        float for float."""
        for w in range(1, 7):
            for h in range(1, 7):
                topo = MeshTopology(w, h, chips)
                net = MeshNetwork(topo)
                assert net.mean_hop_distance() == _pair_walk_mean(topo), \
                    (w, h, chips)

    def test_expected_cycles_3leg_exceeds_2leg(self):
        topo = MeshTopology(4, 4, 2)
        assert (expected_noc_cycles(topo, legs=3)
                > expected_noc_cycles(topo, legs=2))

    def test_expected_cycles_invalid_legs(self):
        with pytest.raises(SimulationError):
            expected_noc_cycles(MeshTopology(), legs=4)

    def test_deeper_stack_longer_paths(self):
        short = expected_noc_cycles(MeshTopology(4, 4, 1), legs=2)
        tall = expected_noc_cycles(MeshTopology(4, 4, 8), legs=2)
        assert tall > short
