"""Port assignments — the paper's local edge labels.

Edges incident to a node ``v`` of degree ``d(v)`` are connected to ports
labelled ``1..d(v)``.  Whether this assignment is an adversarial given
(model IA), freely re-assignable (model IB), or irrelevant because
neighbours are known (model II) is what separates the knowledge models.

Theorem 8's adversary exploits exactly this object: a random port
assignment is a random permutation of each node's neighbours, and any
shortest-path routing function must reproduce it.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Tuple

from repro.errors import PortAssignmentError
from repro.graphs.graph import LabeledGraph

__all__ = ["PortAssignment"]


class PortAssignment:
    """A per-node bijection from neighbours to ports ``1..d(v)``."""

    __slots__ = ("_graph", "_port_of", "_neighbor_at")

    def __init__(
        self, graph: LabeledGraph, port_of: Mapping[int, Mapping[int, int]]
    ) -> None:
        self._graph = graph
        frozen_ports: Dict[int, Dict[int, int]] = {}
        frozen_neighbors: Dict[int, Dict[int, int]] = {}
        for u in graph.nodes:
            local = dict(port_of.get(u, {}))
            neighbors = graph.neighbors(u)
            if sorted(local) != sorted(neighbors):
                raise PortAssignmentError(
                    f"node {u}: ports must be assigned to exactly the "
                    f"neighbours {neighbors}"
                )
            if sorted(local.values()) != list(range(1, len(neighbors) + 1)):
                raise PortAssignmentError(
                    f"node {u}: ports must be a bijection onto 1..{len(neighbors)}"
                )
            frozen_ports[u] = local
            frozen_neighbors[u] = {port: nb for nb, port in local.items()}
        self._port_of = frozen_ports
        self._neighbor_at = frozen_neighbors

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, graph: LabeledGraph) -> "PortAssignment":
        """The canonical assignment: the i-th least neighbour sits on port i.

        This is the assignment a model-IB scheme chooses for itself — with it
        the port map is derivable from the neighbour set alone, so knowing
        the interconnection vector (``n - 1`` bits) suffices to route to any
        neighbour.
        """
        return cls(
            graph,
            {
                u: {nb: i + 1 for i, nb in enumerate(graph.neighbors(u))}
                for u in graph.nodes
            },
        )

    @classmethod
    def shuffled(cls, graph: LabeledGraph, rng: random.Random) -> "PortAssignment":
        """A uniformly random assignment (the Theorem 8 adversary)."""
        port_of = {}
        for u in graph.nodes:
            ports = list(range(1, graph.degree(u) + 1))
            rng.shuffle(ports)
            port_of[u] = dict(zip(graph.neighbors(u), ports))
        return cls(graph, port_of)

    # -- accessors -------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The underlying topology."""
        return self._graph

    def port(self, u: int, neighbor: int) -> int:
        """Port at ``u`` leading to ``neighbor``."""
        try:
            return self._port_of[u][neighbor]
        except KeyError as exc:
            raise PortAssignmentError(
                f"{neighbor} is not a neighbour of {u}"
            ) from exc

    def neighbor(self, u: int, port: int) -> int:
        """Neighbour of ``u`` reached through ``port``."""
        try:
            return self._neighbor_at[u][port]
        except KeyError as exc:
            raise PortAssignmentError(
                f"node {u} has no port {port}"
            ) from exc

    def neighbors_by_port(self, u: int) -> Tuple[int, ...]:
        """Neighbours of ``u`` in port order: entry ``p - 1`` sits on port ``p``."""
        try:
            at = self._neighbor_at[u]
        except KeyError as exc:
            raise PortAssignmentError(f"node {u} has no ports") from exc
        return tuple(at[port] for port in range(1, len(at) + 1))

    def permutation_at(self, u: int) -> tuple[int, ...]:
        """Ports as a permutation relative to the sorted neighbour order.

        Entry ``i`` is ``port(u, i-th least neighbour) - 1``, a permutation
        of ``0..d(u)-1``.  Its Lehmer rank is the minimal description of the
        assignment, which is the quantity Theorem 8 charges for.
        """
        return tuple(
            self._port_of[u][nb] - 1 for nb in self._graph.neighbors(u)
        )

    def is_identity(self) -> bool:
        """True when every node's i-th least neighbour sits on port i."""
        return all(
            self.permutation_at(u) == tuple(range(self._graph.degree(u)))
            for u in self._graph.nodes
        )
