"""Tests for port assignments (the IA/IB substrate)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PortAssignmentError
from repro.graphs import LabeledGraph, PortAssignment, gnp_random_graph, path_graph


class TestValidation:
    def test_rejects_missing_neighbor(self):
        graph = LabeledGraph(3, [(1, 2), (1, 3)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(graph, {1: {2: 1}, 2: {1: 1}, 3: {1: 1}})

    def test_rejects_non_bijection(self):
        graph = LabeledGraph(3, [(1, 2), (1, 3)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(
                graph, {1: {2: 1, 3: 1}, 2: {1: 1}, 3: {1: 1}}
            )

    def test_rejects_port_out_of_range(self):
        graph = LabeledGraph(2, [(1, 2)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(graph, {1: {2: 2}, 2: {1: 1}})

    def test_rejects_stranger(self):
        graph = LabeledGraph(3, [(1, 2)])
        with pytest.raises(PortAssignmentError):
            PortAssignment(graph, {1: {2: 1, 3: 2}, 2: {1: 1}, 3: {}})


class TestIdentity:
    def test_identity_port_order(self):
        graph = LabeledGraph(4, [(2, 1), (2, 3), (2, 4)])
        ports = PortAssignment.identity(graph)
        assert ports.port(2, 1) == 1
        assert ports.port(2, 3) == 2
        assert ports.port(2, 4) == 3

    def test_identity_is_identity(self):
        graph = gnp_random_graph(12, seed=5)
        assert PortAssignment.identity(graph).is_identity()

    def test_identity_permutations_trivial(self):
        graph = path_graph(5)
        ports = PortAssignment.identity(graph)
        for u in graph.nodes:
            assert ports.permutation_at(u) == tuple(range(graph.degree(u)))


class TestShuffled:
    def test_shuffled_is_valid_and_deterministic(self):
        graph = gnp_random_graph(10, seed=3)
        a = PortAssignment.shuffled(graph, random.Random(7))
        b = PortAssignment.shuffled(graph, random.Random(7))
        for u in graph.nodes:
            assert a.permutation_at(u) == b.permutation_at(u)

    def test_shuffled_usually_not_identity(self):
        graph = gnp_random_graph(16, seed=3)
        ports = PortAssignment.shuffled(graph, random.Random(0))
        assert not ports.is_identity()

    @given(st.integers(min_value=0, max_value=1000))
    def test_port_neighbor_inverse(self, seed):
        graph = gnp_random_graph(9, seed=11)
        ports = PortAssignment.shuffled(graph, random.Random(seed))
        for u in graph.nodes:
            for nb in graph.neighbors(u):
                assert ports.neighbor(u, ports.port(u, nb)) == nb
            by_port = ports.neighbors_by_port(u)
            assert by_port == tuple(
                ports.neighbor(u, p) for p in range(1, graph.degree(u) + 1)
            )


class TestLookups:
    def test_port_rejects_non_neighbor(self):
        graph = LabeledGraph(3, [(1, 2)])
        ports = PortAssignment.identity(graph)
        with pytest.raises(PortAssignmentError):
            ports.port(1, 3)

    def test_neighbor_rejects_bad_port(self):
        graph = LabeledGraph(3, [(1, 2)])
        ports = PortAssignment.identity(graph)
        with pytest.raises(PortAssignmentError):
            ports.neighbor(1, 2)

    def test_neighbors_by_port_rejects_unknown_node(self):
        ports = PortAssignment.identity(LabeledGraph(3, [(1, 2)]))
        assert ports.neighbors_by_port(3) == ()
        with pytest.raises(PortAssignmentError):
            ports.neighbors_by_port(4)

    def test_graph_property(self):
        graph = path_graph(3)
        assert PortAssignment.identity(graph).graph is graph
