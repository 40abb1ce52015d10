"""Routing-scheme abstractions.

A *routing scheme* for a graph comprises a *local routing function* per
node: given a destination (and, for the stateful Theorem 5 scheme, the
message's header state) it names the neighbour to forward to.  Schemes also
serialise every local function to a real bit string — the paper's space
requirement is the measured length of those strings, never a formula.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Collection, Dict, Hashable, Optional

import numpy as np

from repro.bitio import BitArray
from repro.errors import RoutingError
from repro.graphs import GraphContext, LabeledGraph, get_context
from repro.models import NodeSpace, RoutingModel, SpaceReport

__all__ = [
    "HopDecision",
    "LocalRoutingFunction",
    "RoutingScheme",
    "StaticFunction",
    "exact_int_array",
]


def exact_int_array(
    values: Collection[Any], low: int, high: int
) -> Optional[np.ndarray]:
    """``values`` as an ``int64`` array if each is an ``int`` in ``low..high``.

    None otherwise.  The guard :meth:`LocalRoutingFunction.next_hop_row` implementations
    put on their decoded data.  Only exact ``int`` objects pass: a float,
    a bool or a numpy scalar behaves differently under the scalar
    ``next_hop`` path's ``isinstance``/hash rules, so a row holding one is
    left to that path, which handles it exactly.
    """
    if not set(map(type, values)) <= {int}:
        return None
    if values and not (low <= min(values) and max(values) <= high):
        return None
    return np.fromiter(values, dtype=np.int64, count=len(values))


@dataclass(frozen=True)
class HopDecision:
    """The output of a local routing function for one message."""

    next_node: int
    """Label of the neighbour to forward to."""
    state: Any = None
    """Replacement header state carried with the message (None = stateless)."""


class LocalRoutingFunction(abc.ABC):
    """The routing function F(u) of a single node."""

    def __init__(self, node: int) -> None:
        self._node = node

    @property
    def node(self) -> int:
        """The node this function is installed on."""
        return self._node

    @abc.abstractmethod
    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        """Choose the outgoing edge for a message addressed to ``destination``.

        ``destination`` is the destination's *address* — its plain label in
        models α/β, or the scheme's complex label under model γ.  Raises
        :class:`~repro.errors.RoutingError` when the function has no entry
        (which on a correctly built scheme never happens for valid
        addresses; the paper's model γ explicitly assumes only valid labels
        are presented).
        """

    def next_hop_row(self, addresses: np.ndarray) -> Optional[np.ndarray]:
        """Every destination's next node at once, or None to decline.

        ``addresses`` is an ``int64`` array of length ``n`` whose entry
        ``d - 1`` is the address of node ``d`` (every entry an address in
        ``1..n``).  The answer is an integer array of the same length
        whose entry ``d - 1`` is what :meth:`next_hop` would return for
        ``addresses[d - 1]``: the ``next_node`` of its decision, or ``-1``
        where it raises :class:`~repro.errors.RoutingError`.  The entry
        for the function's own node is ignored.  An implementation answers
        only when that holds exactly for every entry — every decision
        stateless, every ``next_node`` a plain ``int`` in ``1..n``, no
        other exception — and returns None otherwise (a port past the
        degree, a key outside ``1..n``).

        :meth:`~repro.graphs.context.GraphContext.next_hop_matrix` takes
        an answered row as one array and asks :meth:`next_hop` per
        destination only for rows answered None, so declining is always
        correct, only slower.  The default declines.
        """
        return None


class RoutingScheme(abc.ABC):
    """A full routing scheme: one local function per node, plus accounting."""

    scheme_name: str = "abstract"

    def __init__(
        self,
        graph: LabeledGraph,
        model: RoutingModel,
        ctx: Optional[GraphContext] = None,
    ) -> None:
        self._graph = graph
        self._model = model
        self._ctx = ctx if ctx is not None else get_context(graph)
        self._function_cache: Dict[int, LocalRoutingFunction] = {}

    # -- identity ------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The static network the scheme was generated for."""
        return self._graph

    @property
    def model(self) -> RoutingModel:
        """The model the scheme was built (and is charged) under."""
        return self._model

    @property
    def ctx(self) -> GraphContext:
        """The shared derived-computation context of :attr:`graph`.

        Builders pull distances, BFS trees, port tables and degree
        statistics from here instead of recomputing them; composite
        schemes hand the same context to their inner schemes so one
        pipeline derives each object exactly once.
        """
        return self._ctx

    # -- repair (live topology churn) -----------------------------------------

    def rebuild(self, graph: LabeledGraph, ctx: Optional[GraphContext] = None) -> "RoutingScheme":
        """A same-configuration scheme over a mutated successor graph.

        The churn repair path (:mod:`repro.core.repair`) calls this after
        a topology mutation to obtain the converged target scheme.  The
        default rebuilds from the constructor with the same model; schemes
        carrying extra configuration (ports, parameters) override it.
        """
        return type(self)(graph, self._model, ctx=ctx)

    def supports_incremental_repair(self) -> bool:
        """Whether F(u) depends only on ``u``'s immediate neighbourhood.

        True means each node's table (and its encoding) is a function of
        exactly: ``u``'s adjacency, ``u``'s distance row, and the distance
        rows of ``u``'s neighbours.  Under that locality the repair layer
        can prove a node untouched by a mutation keeps bit-identical
        tables and skip re-encoding it.  Schemes with global structure
        (hubs, landmark sets, interval labellings) return False and are
        repaired by full rebuild.
        """
        return False

    # -- addressing ----------------------------------------------------------

    def address_of(self, node: int) -> Hashable:
        """The label used to address messages to ``node``.

        Plain-label schemes return the node itself; model-γ schemes return
        their complex labels.
        """
        return node

    def node_of_address(self, address: Hashable) -> int:
        """Map an address back to the node it names (for bookkeeping)."""
        if isinstance(address, int):
            return address
        raise RoutingError(f"cannot resolve address {address!r}")

    # -- routing ---------------------------------------------------------------

    def function(self, u: int) -> LocalRoutingFunction:
        """The local routing function installed at ``u`` (cached)."""
        if u not in self._function_cache:
            self._function_cache[u] = self._build_function(u)
        return self._function_cache[u]

    @abc.abstractmethod
    def _build_function(self, u: int) -> LocalRoutingFunction:
        """Construct the local function for one node."""

    # -- serialisation -----------------------------------------------------------

    @abc.abstractmethod
    def encode_function(self, u: int) -> BitArray:
        """Serialise F(u) to the bits actually charged for it."""

    @abc.abstractmethod
    def decode_function(self, u: int, bits: BitArray) -> LocalRoutingFunction:
        """Rebuild F(u) from its serialised form.

        The decoder may use exactly the knowledge the model grants for free
        (neighbour labels under II, the identity port convention under IB)
        and nothing else.
        """

    # -- accounting ----------------------------------------------------------------

    def label_bits(self, u: int) -> int:
        """Charged label bits for ``u`` (0 except under model γ)."""
        return 0

    def aux_bits(self, u: int) -> int:
        """Charged auxiliary knowledge for ``u`` (e.g. neighbour vectors)."""
        return 0

    def integrity_bits(self, u: int) -> int:
        """Checksum framing bits protecting F(u)'s encoding (0 unframed).

        Integrity wrappers override this with their per-node checksum
        width; :meth:`space_report` then charges those bits on an explicit
        line instead of smuggling them into ``routing_bits``.
        """
        return 0

    def space_report(self) -> SpaceReport:
        """Measure the scheme: every node's serialised function length.

        As a side effect the measured totals are published to the
        process-wide metrics registry (``repro_scheme_table_bits``), so a
        build run ends with per-scheme table sizes scrapable next to the
        phase timings.
        """
        from repro.observability import get_registry, profile_section

        report = SpaceReport(
            model=self._model, scheme_name=self.scheme_name, n=self._graph.n
        )
        with profile_section(f"encode.{self.scheme_name}"):
            for u in self._graph.nodes:
                encoded_bits = len(self.encode_function(u))
                checksum_bits = self.integrity_bits(u)
                report.add(
                    NodeSpace(
                        node=u,
                        routing_bits=encoded_bits - checksum_bits,
                        label_bits=self.label_bits(u),
                        aux_bits=self.aux_bits(u),
                        integrity_bits=checksum_bits,
                    )
                )
        registry = get_registry()
        labels = {"scheme": self.scheme_name, "n": self._graph.n}
        registry.gauge("repro_scheme_table_bits", **labels).set(
            report.total_bits
        )
        registry.gauge("repro_scheme_max_node_bits", **labels).set(
            report.max_node_bits
        )
        return report

    # -- guarantees -------------------------------------------------------------------

    @abc.abstractmethod
    def stretch_bound(self) -> float:
        """The stretch factor this scheme advertises."""

    def hop_limit(self) -> int:
        """Upper bound on hops before the walker declares a routing loop."""
        return 4 * self._graph.n + 8

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self._graph.n}, model={self._model}, "
            f"stretch<= {self.stretch_bound()})"
        )


class StaticFunction(LocalRoutingFunction):
    """A stateless function backed by an explicit destination → hop map."""

    def __init__(
        self,
        node: int,
        table: Dict[Hashable, int],
        default: Optional[int] = None,
    ) -> None:
        super().__init__(node)
        self._table = dict(table)
        self._default = default

    def next_hop(self, destination: Hashable, state: Any = None) -> HopDecision:
        if destination in self._table:
            return HopDecision(self._table[destination])
        if self._default is not None:
            return HopDecision(self._default)
        raise RoutingError(
            f"node {self.node}: no routing entry for destination {destination!r}"
        )

    def as_table(self) -> Dict[Hashable, int]:
        """A copy of the underlying destination → next-hop map."""
        return dict(self._table)
