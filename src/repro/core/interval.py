"""Interval routing — the related-work scheme of Flammini/van Leeuwen [1].

An extension to the paper's core constructions: nodes are renumbered by a
DFS traversal of a spanning tree (this needs relabelling, so models β/γ),
and each node stores one DFS-number interval per tree edge.  Messages
follow the unique tree path: downward when the destination falls in a
child's subtree interval, upward otherwise.

On trees this is exact shortest-path routing with ``O(d log n)`` bits per
node; on general graphs it routes along the spanning tree and the measured
stretch is whatever the tree imposes (reported by the benches, contrasting
with the paper's Theorem 3–5 trade-offs).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import RoutingError, SchemeBuildError
from repro.graphs import GraphContext, LabeledGraph
from repro.models import RoutingModel, minimal_label_bits
from repro.observability import profile_section
from repro.core.scheme import (
    HopDecision,
    LocalRoutingFunction,
    RoutingScheme,
    exact_int_array,
)

__all__ = ["IntervalRoutingScheme", "IntervalFunction"]


class IntervalFunction(LocalRoutingFunction):
    """Per-node interval table over tree edges."""

    def __init__(
        self,
        node: int,
        own_number: int,
        child_intervals: List[Tuple[int, Tuple[int, int]]],
        parent: Optional[int],
    ) -> None:
        super().__init__(node)
        self._own = own_number
        self._children = list(child_intervals)
        self._parent = parent

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        number = int(destination)
        if number == self._own:
            raise RoutingError(f"node {self.node}: message already delivered")
        for child, (lo, hi) in self._children:
            if lo <= number <= hi:
                return HopDecision(child)
        if self._parent is None:
            raise RoutingError(
                f"root {self.node}: destination number {number} outside all "
                f"subtree intervals"
            )
        return HopDecision(self._parent)

    def next_hop_row(self, addresses: np.ndarray) -> Optional[np.ndarray]:
        """The parent by default, child intervals over it, ``-1`` at the root.

        Children are assigned last to first, so where intervals overlap
        the first matching child wins, as in :meth:`next_hop`.
        """
        n = len(addresses)
        int64 = np.iinfo(np.int64)
        hops = [child for child, _ in self._children]
        if self._parent is not None:
            hops.append(self._parent)
        numbers = [bound for _, interval in self._children for bound in interval]
        numbers.append(self._own)
        if (
            exact_int_array(hops, 1, n) is None
            or exact_int_array(numbers, int(int64.min), int(int64.max)) is None
        ):
            return None
        parent = -1 if self._parent is None else self._parent
        row = np.full(n, parent, dtype=np.int64)
        for child, (lo, hi) in reversed(self._children):
            row[(addresses >= lo) & (addresses <= hi)] = child
        row[addresses == self._own] = -1
        return row


class IntervalRoutingScheme(RoutingScheme):
    """DFS-numbered interval routing over a spanning tree."""

    scheme_name = "interval"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        root: int = 1,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        super().__init__(graph, model, ctx=ctx)
        model.require(relabeling=True)
        if not graph.is_connected():
            raise SchemeBuildError("interval routing requires a connected graph")
        self._root = root
        self._parent: Dict[int, Optional[int]] = {root: None}
        self._children: Dict[int, List[int]] = {u: [] for u in graph.nodes}
        self._dfs_number: Dict[int, int] = {}
        self._subtree_end: Dict[int, int] = {}
        with profile_section("build.interval.dfs"):
            self._run_dfs(root)
        self._node_of_number = {
            number: node for node, number in self._dfs_number.items()
        }
        self._is_tree = graph.edge_count == graph.n - 1
        self._depth: Dict[int, int] = {root: 0}
        for u in self._dfs_order:
            for child in self._children[u]:
                self._depth[child] = self._depth[u] + 1

    def _run_dfs(self, root: int) -> None:
        """Iterative DFS assigning preorder numbers and subtree extents."""
        graph = self._graph
        counter = 0
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(root, False)]
        seen = {root}
        while stack:
            node, processed = stack.pop()
            if processed:
                self._subtree_end[node] = counter
                continue
            counter += 1
            self._dfs_number[node] = counter
            order.append(node)
            stack.append((node, True))
            for neighbor in reversed(graph.neighbors(node)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    self._parent[neighbor] = node
                    self._children[node].append(neighbor)
                    stack.append((neighbor, False))
        self._dfs_order = order

    # -- addressing ---------------------------------------------------------

    def address_of(self, node: int) -> int:
        """Destination addresses are DFS preorder numbers (model β labels)."""
        return self._dfs_number[node]

    def node_of_address(self, address: Hashable) -> int:
        try:
            return self._node_of_number[int(address)]
        except (KeyError, TypeError, ValueError) as exc:
            raise RoutingError(f"invalid DFS address {address!r}") from exc

    def tree_parent(self, u: int) -> Optional[int]:
        """Parent of ``u`` in the spanning tree (None at the root)."""
        return self._parent[u]

    def tree_depth(self, u: int) -> int:
        """Depth of ``u`` below the root."""
        return self._depth[u]

    # -- RoutingScheme interface ------------------------------------------------

    def _interval_of(self, child: int) -> Tuple[int, int]:
        return (self._dfs_number[child], self._subtree_end[child])

    def _build_function(self, u: int) -> IntervalFunction:
        return IntervalFunction(
            u,
            self._dfs_number[u],
            [(child, self._interval_of(child)) for child in self._children[u]],
            self._parent[u],
        )

    def encode_function(self, u: int) -> BitArray:
        """Child count, then per child: (neighbour index, interval) triple."""
        graph = self._graph
        width = minimal_label_bits(graph.n)
        position = {nb: i for i, nb in enumerate(graph.neighbors(u))}
        writer = BitWriter()
        writer.write_gamma(len(self._children[u]))
        for child in self._children[u]:
            lo, hi = self._interval_of(child)
            writer.write_gamma(position[child])
            writer.write_uint(lo, width)
            writer.write_uint(hi, width)
        parent = self._parent[u]
        if parent is not None:
            writer.write_gamma(position[parent])
        return writer.getvalue()

    def decode_function(self, u: int, bits: BitArray) -> IntervalFunction:
        graph = self._graph
        width = minimal_label_bits(graph.n)
        neighbors = graph.neighbors(u)
        reader = BitReader(bits)
        child_count = reader.read_gamma()
        children = []
        for _ in range(child_count):
            child = neighbors[reader.read_gamma()]
            lo = reader.read_uint(width)
            hi = reader.read_uint(width)
            children.append((child, (lo, hi)))
        parent = None
        if u != self._root:
            parent = neighbors[reader.read_gamma()]
        return IntervalFunction(u, self._dfs_number[u], children, parent)

    def stretch_bound(self) -> float:
        """Exact on trees; bounded by twice the tree depth otherwise."""
        if self._is_tree:
            return 1.0
        max_depth = max(self._depth.values(), default=0)
        return float(max(2 * max_depth, 1))
