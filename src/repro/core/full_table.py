"""The classical full routing table — the paper's trivial upper bound.

Every node stores, for every destination, the outgoing *port* of a shortest
path: ``(n - 1) ⌈log d(u)⌉ ≈ n log n`` bits per node and ``O(n² log n)``
total.  It works in every one of the nine models (ports are whatever the
network gives us, no neighbour knowledge or relabelling needed), which is
exactly why the paper uses it as the baseline that Theorem 8 shows to be
optimal under ``IA ∧ α``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph, PortAssignment
from repro.models import RoutingModel
from repro.observability import profile_section
from repro.core.scheme import HopDecision, LocalRoutingFunction, RoutingScheme

__all__ = ["FullTableScheme", "PortTableFunction"]


class PortTableFunction(LocalRoutingFunction):
    """Destination → port table; the network resolves port → link."""

    def __init__(
        self, node: int, ports: Dict[int, int], assignment: PortAssignment
    ) -> None:
        super().__init__(node)
        self._ports = dict(ports)
        self._assignment = assignment

    def port_for(self, destination: int) -> int:
        """The stored port for a destination (1-based)."""
        try:
            return self._ports[destination]
        except KeyError as exc:
            raise RoutingError(
                f"node {self.node}: no table entry for destination {destination}"
            ) from exc

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        port = self.port_for(int(destination))
        return HopDecision(self._assignment.neighbor(self.node, port))


class FullTableScheme(RoutingScheme):
    """Shortest-path routing with one explicit port entry per destination."""

    scheme_name = "full-table"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ports: Optional[PortAssignment] = None,
        ctx: Optional[GraphContext] = None,
        allow_unreachable: bool = False,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        if ports is None:
            ports = self._ctx.port_table()
        if model.ports_reassignable and not ports.is_identity():
            # A model-IB strategy would always normalise its ports first.
            ports = self._ctx.port_table()
        self._ports = ports
        with profile_section("build.full-table.distances"):
            self._dist = self._ctx.distances()
        if not allow_unreachable and (self._dist < 0).any():
            raise SchemeBuildError("full-table scheme requires a connected graph")
        with profile_section("build.full-table.tables"):
            self._tables: Dict[int, Dict[int, int]] = {
                u: self._build_table(u) for u in graph.nodes
            }

    @property
    def port_assignment(self) -> PortAssignment:
        """The port assignment the tables are expressed against."""
        return self._ports

    def _build_table(self, u: int) -> Dict[int, int]:
        """Least-neighbour-on-a-shortest-path table for one node.

        Unreachable destinations (possible only under
        ``allow_unreachable``, e.g. after a churn node-leave isolated a
        node) simply have no entry: a lookup raises
        :class:`~repro.errors.RoutingError` and the walker records a
        NO_ROUTE drop.
        """
        neighbors = self._graph.neighbors(u)
        if not neighbors:
            return {}
        own_row = self._dist[u - 1, :]
        # One (deg x n) block: which neighbours lie on a shortest path to
        # each destination; argmax down each column picks the least one.
        on_shortest = self._dist[np.array(neighbors) - 1, :] == own_row - 1
        first = on_shortest.argmax(axis=0)
        reachable = own_row > 0
        missing = np.flatnonzero(reachable & ~on_shortest.any(axis=0))
        if missing.size:
            raise SchemeBuildError(
                f"no shortest-path neighbour from {u} to {int(missing[0]) + 1}"
            )
        ports = [self._ports.port(u, v) for v in neighbors]
        columns = np.flatnonzero(reachable).tolist()
        return {
            col + 1: ports[index]
            for col, index in zip(columns, first[reachable].tolist())
        }

    # -- RoutingScheme interface ----------------------------------------------

    def _build_function(self, u: int) -> PortTableFunction:
        return PortTableFunction(u, self._tables[u], self._ports)

    def entry_width(self, u: int) -> int:
        """Fixed width of one port entry at ``u``: ``⌈log₂ d(u)⌉`` bits."""
        return max(self._graph.degree(u) - 1, 0).bit_length()

    def encode_function(self, u: int) -> BitArray:
        """Fixed-width port entries, one per reachable destination, in
        destination order (``n - 1`` of them on a connected graph)."""
        width = self.entry_width(u)
        writer = BitWriter()
        own_row = self._dist[u - 1, :]
        for w in self._graph.nodes:
            if w != u and own_row[w - 1] >= 0:
                writer.write_uint(self._tables[u][w] - 1, width)
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> PortTableFunction:
        # The decoder skips the same unreachable destinations the encoder
        # skipped — reachability comes from the scheme's own distance
        # knowledge, mirroring the encode order exactly.
        width = self.entry_width(u)
        reader = BitReader(bits)
        ports = {}
        own_row = self._dist[u - 1, :]
        for w in self._graph.nodes:
            if w != u and own_row[w - 1] >= 0:
                ports[w] = reader.read_uint(width) + 1
        return PortTableFunction(u, ports, self._ports)

    def stretch_bound(self) -> float:
        return 1.0

    # -- repair (live topology churn) -----------------------------------------

    def rebuild(
        self, graph: LabeledGraph, ctx: Optional[GraphContext] = None
    ) -> "FullTableScheme":
        """Rebuild over a mutated successor graph.

        Tolerates unreachable pairs (a left node is isolated until it
        rejoins) and re-derives the identity port table for the new
        adjacency — a custom :class:`PortAssignment` cannot survive a
        topology change.
        """
        return FullTableScheme(
            graph, self._model, ctx=ctx, allow_unreachable=True
        )

    def supports_incremental_repair(self) -> bool:
        """Table entries read only N(u), row(u) and the neighbour rows."""
        return True
