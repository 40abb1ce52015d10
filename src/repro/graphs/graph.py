"""Labelled undirected graphs with nodes ``{1, ..., n}``.

The paper's networks are simple undirected graphs whose nodes carry the
minimal label set ``1..n`` (model assumptions α/β) unless a scheme buys
larger labels and is charged for them (model γ).  :class:`LabeledGraph` is
immutable after construction: the routing schemes, codecs and simulator all
treat the topology as static, matching the paper's static-network setting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["LabeledGraph"]


class LabeledGraph:
    """An immutable simple undirected graph on nodes ``1..n``."""

    __slots__ = ("_n", "_adj_sets", "_adj_sorted", "_edge_count", "_matrix")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if n < 1:
            raise GraphError(f"graph needs at least one node, got n={n}")
        self._n = n
        adj: list[set[int]] = [set() for _ in range(n + 1)]
        count = 0
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge ({u}, {v}) outside node range 1..{n}")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                count += 1
        self._adj_sets = tuple(frozenset(s) for s in adj)
        self._adj_sorted = tuple(tuple(sorted(s)) for s in adj)
        self._edge_count = count
        self._matrix: np.ndarray | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return self._edge_count

    @property
    def nodes(self) -> range:
        """The node labels ``1..n``."""
        return range(1, self._n + 1)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """All edges ``(u, v)`` with ``u < v`` in lexicographic order."""
        for u in self.nodes:
            for v in self._adj_sorted[u]:
                if u < v:
                    yield (u, v)

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return len(self._adj_sets[u])

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Neighbours of ``u`` in increasing label order.

        The paper's constructions repeatedly refer to the "least" adjacent
        nodes; this sorted tuple is that order.
        """
        self._check_node(u)
        return self._adj_sorted[u]

    def neighbor_set(self, u: int) -> frozenset[int]:
        """Neighbours of ``u`` as a set for O(1) membership tests."""
        self._check_node(u)
        return self._adj_sets[u]

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        self._check_node(u)
        self._check_node(v)
        return v in self._adj_sets[u]

    def non_neighbors(self, u: int) -> Tuple[int, ...]:
        """Nodes other than ``u`` not adjacent to ``u``, in increasing order.

        This is the set ``A₀`` of Theorem 1.
        """
        self._check_node(u)
        adjacent = self._adj_sets[u]
        return tuple(
            w for w in self.nodes if w != u and w not in adjacent
        )

    def _check_node(self, u: int) -> None:
        if not 1 <= u <= self._n:
            raise GraphError(f"node {u} outside range 1..{self._n}")

    # -- dense representation ----------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix indexed ``[0..n-1]`` (node ``u`` ↦ row ``u-1``).

        Cached; used by the fast diameter/distance routines.
        """
        if self._matrix is None:
            matrix = np.zeros((self._n, self._n), dtype=bool)
            for u, v in self.edges():
                matrix[u - 1, v - 1] = True
                matrix[v - 1, u - 1] = True
            self._matrix = matrix
        return self._matrix

    # -- transformations -----------------------------------------------------

    def relabel(self, mapping: Dict[int, int]) -> "LabeledGraph":
        """Return a copy with nodes renamed by a bijection ``old ↦ new``.

        The mapping must be a permutation of ``1..n`` (model β's label
        permutations and Theorem 9's outer relabellings are both of this
        form).
        """
        if sorted(mapping) != list(self.nodes) or sorted(
            mapping.values()
        ) != list(self.nodes):
            raise GraphError("mapping must be a permutation of the node set")
        return LabeledGraph(
            self._n, ((mapping[u], mapping[v]) for u, v in self.edges())
        )

    def without_edge(self, u: int, v: int) -> "LabeledGraph":
        """Return a copy with one edge removed (used for failure injection)."""
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge")
        drop = frozenset((u, v))
        return LabeledGraph(
            self._n,
            (e for e in self.edges() if frozenset(e) != drop),
        )

    def with_edge(self, u: int, v: int) -> "LabeledGraph":
        """Return a copy with one edge added (used for live topology churn).

        The inverse of :meth:`without_edge`: the graph stays immutable and
        a mutated *successor* graph is returned, so every derivation keyed
        on the old structure stays valid for the old object.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        if self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is already an edge")
        return LabeledGraph(self._n, list(self.edges()) + [(u, v)])

    def without_node_edges(self, u: int) -> "LabeledGraph":
        """Return a copy with every edge incident to ``u`` removed.

        Models a node *leaving* the network under churn: the label stays
        (the node set is fixed ``1..n``) but the node becomes isolated.
        """
        self._check_node(u)
        return LabeledGraph(
            self._n, (e for e in self.edges() if u not in e)
        )

    def complement(self) -> "LabeledGraph":
        """The complement graph — every bit of ``E(G)`` flipped.

        ``G(n, 1/2)`` is closed under complement, and so is the Lemma 1
        degree band; handy for symmetry checks in tests and experiments.
        """
        return LabeledGraph(
            self._n,
            (
                (u, v)
                for u in self.nodes
                for v in range(u + 1, self._n + 1)
                if v not in self._adj_sets[u]
            ),
        )

    # -- connectivity --------------------------------------------------------

    def is_connected(self) -> bool:
        """True when the graph is connected (n = 1 counts as connected)."""
        seen = {1}
        stack = [1]
        while stack:
            u = stack.pop()
            for v in self._adj_sets[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self._n

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._n == other._n and self._adj_sets == other._adj_sets

    def __hash__(self) -> int:
        return hash((self._n, self._adj_sets))

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self._n}, edges={self._edge_count})"
