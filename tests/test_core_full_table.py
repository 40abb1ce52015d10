"""Tests for the full-table baseline scheme."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import FullTableScheme, route_message, verify_scheme
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import (
    LabeledGraph,
    PortAssignment,
    cycle_graph,
    gnp_random_graph,
    path_graph,
)
from repro.models import Knowledge, Labeling, RoutingModel


class TestCorrectness:
    def test_shortest_paths_on_random_graph(self, random_graph_32, model_ia_alpha):
        scheme = FullTableScheme(random_graph_32, model_ia_alpha)
        report = verify_scheme(scheme)
        assert report.ok()
        assert report.max_stretch == 1.0

    def test_works_on_any_connected_graph(self, model_ia_alpha):
        for graph in (path_graph(9), cycle_graph(7)):
            report = verify_scheme(FullTableScheme(graph, model_ia_alpha))
            assert report.ok()

    def test_disconnected_rejected(self, model_ia_alpha):
        with pytest.raises(SchemeBuildError):
            FullTableScheme(LabeledGraph(4, [(1, 2)]), model_ia_alpha)

    def test_route_trace_is_shortest(self, model_ia_alpha):
        graph = path_graph(6)
        scheme = FullTableScheme(graph, model_ia_alpha)
        trace = route_message(scheme, 1, 6)
        assert trace.path == (1, 2, 3, 4, 5, 6)


class TestPorts:
    def test_respects_adversarial_ports_under_ia(self, model_ia_alpha):
        graph = gnp_random_graph(16, seed=2)
        ports = PortAssignment.shuffled(graph, random.Random(5))
        scheme = FullTableScheme(graph, model_ia_alpha, ports=ports)
        assert scheme.port_assignment is ports
        assert verify_scheme(scheme).ok()

    def test_normalises_ports_under_ib(self, model_ib_alpha):
        graph = gnp_random_graph(16, seed=2)
        ports = PortAssignment.shuffled(graph, random.Random(5))
        scheme = FullTableScheme(graph, model_ib_alpha, ports=ports)
        assert scheme.port_assignment.is_identity()

    def test_neighbor_entries_use_direct_port(self, model_ia_alpha):
        """Shortest path to a neighbour is the direct edge (Theorem 8's hook)."""
        graph = gnp_random_graph(14, seed=8)
        ports = PortAssignment.shuffled(graph, random.Random(1))
        scheme = FullTableScheme(graph, model_ia_alpha, ports=ports)
        for u in graph.nodes:
            function = scheme.function(u)
            for nb in graph.neighbors(u):
                assert function.port_for(nb) == ports.port(u, nb)


class TestEncoding:
    def test_round_trip(self, random_graph_32, model_ia_alpha):
        scheme = FullTableScheme(random_graph_32, model_ia_alpha)
        for u in (1, 16, 32):
            decoded = scheme.decode_function(u, scheme.encode_function(u))
            original = scheme.function(u)
            for w in random_graph_32.nodes:
                if w != u:
                    assert decoded.port_for(w) == original.port_for(w)

    def test_size_is_n_minus_one_entries(self, random_graph_32, model_ia_alpha):
        scheme = FullTableScheme(random_graph_32, model_ia_alpha)
        n = random_graph_32.n
        for u in (3, 20):
            width = scheme.entry_width(u)
            assert len(scheme.encode_function(u)) == (n - 1) * width

    def test_total_size_is_n_squared_log(self, model_ia_alpha):
        """The trivial upper bound the paper quotes: O(n² log n)."""
        graph = gnp_random_graph(64, seed=4)
        total = FullTableScheme(graph, model_ia_alpha).space_report().total_bits
        n = 64
        assert total <= n * n * math.log2(n)
        assert total >= 0.5 * n * (n - 1) * math.log2(n / 2 - 8)

    def test_degree_one_entries_are_free(self, model_ia_alpha):
        graph = path_graph(3)
        scheme = FullTableScheme(graph, model_ia_alpha)
        assert len(scheme.encode_function(1)) == 0  # only one port to name

    def test_missing_entry_raises(self, model_ia_alpha):
        scheme = FullTableScheme(path_graph(3), model_ia_alpha)
        with pytest.raises(RoutingError):
            scheme.function(1).port_for(1)


class TestProperties:
    def test_stretch_bound(self, random_graph_32, model_ia_alpha):
        assert FullTableScheme(random_graph_32, model_ia_alpha).stretch_bound() == 1.0

    def test_least_neighbor_tie_break(self, model_ia_alpha):
        """Among equal shortest next hops the least neighbour is chosen."""
        graph = LabeledGraph(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
        scheme = FullTableScheme(graph, model_ia_alpha)
        assert scheme.function(1).next_hop(4).next_node == 2


def _reference_table(scheme, u):
    """The per-(u, w) build: least neighbour on a shortest path to w."""
    dist = scheme._dist
    table = {}
    for w in scheme.graph.nodes:
        if w == u or dist[u - 1, w - 1] < 0:
            continue
        for v in scheme.graph.neighbors(u):
            if dist[v - 1, w - 1] == dist[u - 1, w - 1] - 1:
                table[w] = scheme.port_assignment.port(u, v)
                break
    return table


class TestBuildAgainstReference:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_graph_tables(self, seed, model_ia_alpha):
        graph = gnp_random_graph(40, seed=seed)
        ports = PortAssignment.shuffled(graph, random.Random(seed))
        scheme = FullTableScheme(graph, model_ia_alpha, ports=ports)
        for u in graph.nodes:
            assert scheme._tables[u] == _reference_table(scheme, u)

    def test_unreachable_and_isolated_nodes(self, model_ia_alpha):
        graph = LabeledGraph(7, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6)])
        scheme = FullTableScheme(graph, model_ia_alpha, allow_unreachable=True)
        for u in graph.nodes:
            assert scheme._tables[u] == _reference_table(scheme, u)
        assert scheme._tables[7] == {}
        assert sorted(scheme._tables[4]) == [5, 6]

    def test_inconsistent_distances_name_the_first_destination(
        self, model_ia_alpha
    ):
        scheme = FullTableScheme(cycle_graph(8), model_ia_alpha)
        scheme._dist = scheme._dist.copy()
        scheme._dist[0, 4] = 9  # no neighbour of 1 sits at distance 8 from 5
        scheme._dist[0, 5] = 9
        with pytest.raises(SchemeBuildError, match="from 1 to 5$"):
            scheme._build_table(1)
