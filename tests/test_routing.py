"""Tests for BFS routing tables."""

import pytest

from repro import RoutingTable, clique, hypercube, ring
from repro.errors import RoutingError
from repro.network.routing import shortest_path, shortest_path_trie
from repro.network.topology import (
    apply_link_model,
    link_id,
    random_topology,
    torus2d,
)


class TestRoutingTable:
    def test_ring_paths(self):
        table = RoutingTable(ring(8))
        assert table.path(0, 0) == [0]
        assert table.path(0, 2) == [0, 1, 2]
        assert table.hop_distance(0, 4) == 4
        # the short way around
        assert table.path(0, 6) == [0, 7, 6]

    def test_clique_one_hop(self):
        table = RoutingTable(clique(6))
        for a in range(6):
            for b in range(6):
                if a != b:
                    assert table.path(a, b) == [a, b]

    def test_hypercube_distance_is_popcount(self):
        table = RoutingTable(hypercube(16))
        for a in range(16):
            for b in range(16):
                if a != b:
                    assert table.hop_distance(a, b) == bin(a ^ b).count("1")

    def test_links_on_path(self):
        table = RoutingTable(ring(6))
        assert table.links_on_path(0, 2) == [(0, 1), (1, 2)]

    def test_next_hop_self_rejected(self):
        table = RoutingTable(ring(4))
        with pytest.raises(RoutingError):
            table.next_hop(1, 1)

    def test_paths_are_shortest_on_random_topologies(self):
        for seed in range(3):
            topo = random_topology(12, 2, 5, seed=seed)
            table = RoutingTable(topo)
            for a in topo.processors:
                for b in topo.processors:
                    if a == b:
                        continue
                    assert table.hop_distance(a, b) == len(shortest_path(topo, a, b)) - 1

    def test_deterministic(self):
        t1 = RoutingTable(ring(8))
        t2 = RoutingTable(ring(8))
        for a in range(8):
            for b in range(8):
                if a != b:
                    assert t1.path(a, b) == t2.path(a, b)


class TestShortestPath:
    def test_endpoints(self):
        topo = hypercube(8)
        path = shortest_path(topo, 0, 7)
        assert path[0] == 0 and path[-1] == 7
        assert len(path) == 4  # 3 hops
        for a, b in zip(path, path[1:]):
            assert topo.has_link(a, b)

    def test_same_node(self):
        assert shortest_path(ring(4), 2, 2) == [2]


class TestShortestPathTrie:
    TOPOLOGIES = {
        "ring8": lambda: ring(8),
        "hypercube16": lambda: hypercube(16),
        "random12": lambda: random_topology(12, 2, 5, seed=1),
        "torus_full_duplex": lambda: apply_link_model(
            torus2d(3, 3), duplex="full"),
    }

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_replays_every_shortest_path(self, name):
        """Walking a destination's terminal node back to the root gives
        exactly the BFS shortest path: its channels and canonical links."""
        topo = self.TOPOLOGIES[name]()
        for src in topo.processors:
            parents, chans, lids, dst_node = shortest_path_trie(topo, src)
            assert dst_node[src] == -1
            for dst in topo.processors:
                if dst == src:
                    continue
                hops = []
                node = dst_node[dst]
                while node >= 0:
                    hops.append((chans[node], lids[node]))
                    node = parents[node]
                path = shortest_path(topo, src, dst)
                assert hops[::-1] == [
                    (topo._channel[(a, b)], link_id(a, b))
                    for a, b in zip(path, path[1:])
                ]

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_routes_form_a_tree(self, name):
        """BFS paths from one source share their prefixes, so merging
        them leaves one trie node per other processor."""
        topo = self.TOPOLOGIES[name]()
        for src in topo.processors:
            parents = shortest_path_trie(topo, src)[0]
            assert len(parents) == topo.n_procs - 1
            assert all(p < k for k, p in enumerate(parents))

    def test_memoized_per_topology_and_counted(self):
        from repro import obs

        topo = ring(6)
        obs.enable()
        obs.reset()
        try:
            first = shortest_path_trie(topo, 2)
            assert shortest_path_trie(topo, 2) is first
            assert shortest_path_trie(ring(6), 2) is not first
            snap = obs.snapshot()
        finally:
            obs.reset()
            obs.disable()
        assert snap["route.trie_misses"] == 2
        assert snap["route.trie_hits"] == 1
