"""GraphContext — the shared derived-computation layer.

The paper's constructions (Theorems 1–5), the verifier, the simulator and
the lower-bound machinery all consume the same few derived objects:
all-pairs distances, per-root BFS trees, degree statistics, the identity
port table.  Before this layer existed every consumer recomputed them
independently — a build→verify→simulate pipeline paid for the ``O(n·m)``
distance matrix three times on the *same* immutable graph.  Compact-routing
practice (Thorup–Zwick landmark schemes and their descendants) hoists that
shared preprocessing into one reusable stage; :class:`GraphContext` is that
stage here.

One context exists per graph (see :func:`get_context`), keyed on a cheap
structural fingerprint so that *equal* graphs — not just the same object —
share their derivations.  Every accessor is memoised with hit/miss
counters in the process-wide :class:`~repro.observability.registry.
MetricsRegistry` (``repro_graph_ctx_total``) and an optional
:class:`~repro.observability.tracer.Tracer` receives ``ctx`` spans for
every fresh computation, so reuse is observable, not assumed.  The
corruption/heal path additionally sources its pristine table knowledge
from :meth:`GraphContext.pristine_bits` and can drop every memo with
:meth:`GraphContext.invalidate`.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import LabeledGraph
from repro.graphs.ports import PortAssignment
from repro.graphs.properties import (
    DegreeStatistics,
    degree_statistics,
    distance_matrix,
)
from repro.observability.profiling import profile_section
from repro.observability.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports graphs)
    from repro.bitio import BitArray
    from repro.core.scheme import RoutingScheme
    from repro.observability.tracer import Tracer

__all__ = [
    "GraphContext",
    "Fingerprint",
    "structural_fingerprint",
    "get_context",
    "clear_context_cache",
    "context_cache_size",
]

Fingerprint = Tuple[int, int, int]

CTX_COUNTER = "repro_graph_ctx_total"
"""Counter name for per-accessor cache traffic (labels: ``kind``, ``op``)."""
CTX_INVALIDATIONS = "repro_graph_ctx_invalidations_total"
"""Counter name for explicit :meth:`GraphContext.invalidate` calls.

Full flushes increment the plain (unlabelled) counter; selective drops
increment it once per derivation ``kind`` actually dropped, labelled with
that kind, so dashboards can tell a targeted churn invalidation from an
all-or-nothing flush.
"""
CTX_STORE_COUNTER = "repro_graph_ctx_store_total"
"""Counter name for the process-wide context store (label: ``op``)."""

_NODE_OF_KEY: Dict[str, Callable[[Any], int]] = {
    "bfs_tree": lambda key: key,
    "eccentricity": lambda key: key,
    "sorted_adjacency": lambda key: key,
    "pristine_bits": lambda key: key[1],
}
"""Node-scoped derivation kinds and how to read the node out of their key.

Kinds absent here (``distances``, ``degree_stats``, ``port_table``) are
whole-graph derivations: a node-scoped invalidation only drops them when
their kind is requested explicitly.
"""


def structural_fingerprint(graph: LabeledGraph) -> Fingerprint:
    """A cheap structural key: ``(n, edge_count, crc32 of the adjacency bits)``.

    The CRC runs over the packed boolean adjacency matrix (which
    :class:`LabeledGraph` caches anyway), so the fingerprint costs
    ``O(n²/8)`` bytes of hashing — negligible next to any derivation it
    guards.  Equal graphs always produce equal fingerprints; the store in
    :func:`get_context` additionally confirms graph equality before
    aliasing two objects onto one context, so a CRC collision can never
    alias two *different* graphs.
    """
    packed = np.packbits(graph.adjacency_matrix())
    return (graph.n, graph.edge_count, zlib.crc32(packed.tobytes()))


class GraphContext:
    """Per-graph memoisation of every derivation the stack shares.

    Accessors (all memoised, all counted):

    * :meth:`distances` — all-pairs hop distances (optionally truncated);
    * :meth:`bfs_tree` / :meth:`ball` — per-root BFS parents and hop-balls;
    * :meth:`eccentricity` — single-source eccentricities;
    * :meth:`degree_stats` — the Lemma 1 degree band summary;
    * :meth:`sorted_adjacency` — the "least neighbour" order;
    * :meth:`port_table` — the canonical identity
      :class:`~repro.graphs.ports.PortAssignment` of model IB;
    * :meth:`pristine_bits` — a scheme's serialised local functions (the
      corruption self-healer's knowledge source).

    The context never observes graph mutation (graphs are immutable); the
    explicit :meth:`invalidate` exists for the corruption/heal path and for
    tests that must force recomputation.
    """

    __slots__ = ("_graph", "_fingerprint", "_cache", "_tracer", "_stats", "_aliases")

    def __init__(
        self,
        graph: LabeledGraph,
        fingerprint: Optional[Fingerprint] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self._graph = graph
        self._fingerprint = (
            fingerprint if fingerprint is not None else structural_fingerprint(graph)
        )
        self._cache: Dict[Hashable, Any] = {}
        self._tracer: Optional["Tracer"] = None
        self._stats: Dict[str, int] = {"hits": 0, "misses": 0, "invalidations": 0}
        self._aliases: List[LabeledGraph] = []
        self.set_tracer(tracer)

    # -- identity ------------------------------------------------------------

    @property
    def graph(self) -> LabeledGraph:
        """The graph every derivation belongs to."""
        return self._graph

    @property
    def fingerprint(self) -> Fingerprint:
        """The structural key this context is stored under."""
        return self._fingerprint

    def matches(self, graph: LabeledGraph) -> bool:
        """Whether ``graph`` is (structurally) the graph of this context."""
        return graph is self._graph or (
            structural_fingerprint(graph) == self._fingerprint
            and graph == self._graph
        )

    # -- observability -------------------------------------------------------

    def set_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach a tracer for ``ctx`` spans (disabled tracers normalise to None)."""
        if tracer is not None and tracer.enabled:
            self._tracer = tracer
        elif tracer is None:
            # Explicit detach only on None; a disabled tracer is ignored so
            # simulators can pass their (possibly disabled) tracer blindly.
            self._tracer = None

    def cache_stats(self) -> Dict[str, int]:
        """Local hit/miss/invalidation counts (registry-independent view)."""
        return dict(self._stats)

    def cached_kinds(self) -> Set[str]:
        """The derivation kinds currently memoised (first key component)."""
        return {key[0] for key in self._cache}  # type: ignore[index]

    @property
    def has_cached_distances(self) -> bool:
        """Whether the full all-pairs matrix is memoised right now."""
        return ("distances", None) in self._cache

    # -- memoisation core ----------------------------------------------------

    def _memo(self, kind: str, key: Hashable, compute: Callable[[], Any]) -> Any:
        full_key = (kind, key)
        if full_key in self._cache:
            self._stats["hits"] += 1
            get_registry().counter(CTX_COUNTER, kind=kind, op="hit").inc()
            return self._cache[full_key]
        self._stats["misses"] += 1
        get_registry().counter(CTX_COUNTER, kind=kind, op="miss").inc()
        with profile_section(f"ctx.{kind}"):
            value = compute()
        self._cache[full_key] = value
        tracer = self._tracer
        if tracer is not None:
            tracer.ctx(kind=kind, op="miss")
        return value

    def invalidate(
        self,
        nodes: Optional[Iterable[int]] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> int:
        """Drop memoised derivations — wholesale or selectively.

        With no arguments every memo is dropped (the corruption/heal
        escape hatch, unchanged semantics).  With ``nodes`` and/or
        ``kinds`` only the matching entries go: a topology mutation that
        touches three nodes dirties their BFS trees, eccentricities,
        adjacency orders and pristine table bits while the rest of the
        cache survives.  Whole-graph derivations (``distances``,
        ``degree_stats``, ``port_table``) are dropped by a node-scoped
        call only when their kind is named explicitly in ``kinds``.

        Returns the number of cache entries dropped.  Selective drops
        increment the invalidation counter once per affected ``kind``
        (labelled), full flushes increment the unlabelled counter —
        see :data:`CTX_INVALIDATIONS`.
        """
        if nodes is None and kinds is None:
            dropped = len(self._cache)
            self._cache.clear()
            self._stats["invalidations"] += 1
            get_registry().counter(CTX_INVALIDATIONS).inc()
            tracer = self._tracer
            if tracer is not None:
                tracer.ctx(kind="*", op="invalidate")
            return dropped
        node_set = None if nodes is None else {int(v) for v in nodes}
        kind_set = None if kinds is None else set(kinds)
        doomed = [
            full_key
            for full_key in self._cache
            if self._invalidation_selects(full_key, node_set, kind_set)
        ]
        dropped_kinds: Dict[str, int] = {}
        for full_key in doomed:
            del self._cache[full_key]
            kind = full_key[0]  # type: ignore[index]
            dropped_kinds[kind] = dropped_kinds.get(kind, 0) + 1
        if doomed:
            self._stats["invalidations"] += 1
            registry = get_registry()
            tracer = self._tracer
            for kind in sorted(dropped_kinds):
                registry.counter(CTX_INVALIDATIONS, kind=kind).inc()
                if tracer is not None:
                    tracer.ctx(kind=kind, op="invalidate")
        return len(doomed)

    @staticmethod
    def _invalidation_selects(
        full_key: Hashable,
        node_set: Optional[Set[int]],
        kind_set: Optional[Set[str]],
    ) -> bool:
        """Whether a selective :meth:`invalidate` call drops ``full_key``."""
        kind, key = full_key  # type: ignore[misc]
        if kind_set is not None and kind not in kind_set:
            return False
        if node_set is None:
            return True
        node_of = _NODE_OF_KEY.get(kind)
        if node_of is None:
            # Whole-graph derivation: a node-scoped call drops it only
            # when the caller asked for the kind by name.
            return kind_set is not None
        return node_of(key) in node_set

    # -- churn carry-forward --------------------------------------------------

    def adopt_pristine_bits(
        self, scheme: "RoutingScheme", node: int, bits: "BitArray"
    ) -> None:
        """Seed the pristine-bits memo for ``(scheme, node)`` without encoding.

        The incremental repair path carries the serialised tables of nodes
        a topology mutation did *not* dirty into the successor graph's
        context, so the heal machinery's knowledge source stays warm and
        the untouched tables are provably the same bits — no re-encode
        ever happens for them.
        """
        self._cache[("pristine_bits", (id(scheme), node))] = (scheme, bits)
        get_registry().counter(CTX_COUNTER, kind="pristine_bits", op="adopt").inc()

    def inherit(self, other: "GraphContext", dirty: Iterable[int]) -> int:
        """Carry still-valid per-node derivations over from a predecessor.

        ``other`` is the context of the graph a topology mutation started
        from and ``dirty`` the nodes the mutation affected.  Entries are
        copied only when provably unchanged on *this* graph:

        * ``sorted_adjacency`` — revalidated against the new adjacency;
        * ``eccentricity`` — carried for clean nodes (a clean node's
          distance row is unchanged by the dirty-set closure rule);
        * ``bfs_tree`` — carried only when every tree edge still exists
          and the depth map equals the new distance row (validated).

        Whole-graph derivations and pristine bits are never inherited here
        (pristine bits are scheme-keyed; the repair layer adopts them per
        target scheme via :meth:`adopt_pristine_bits`).  Returns the
        number of entries carried; each carried entry counts as an
        ``op="adopt"`` on the cache-traffic counter.
        """
        dirty_set = {int(v) for v in dirty}
        graph = self._graph
        new_dist = self.distances()
        registry = get_registry()
        carried = 0
        for full_key, value in other._cache.items():
            kind, key = full_key  # type: ignore[misc]
            if full_key in self._cache:
                continue
            if kind == "sorted_adjacency":
                if value != graph.neighbors(key):
                    continue
            elif kind == "eccentricity":
                if key in dirty_set:
                    continue
            elif kind == "bfs_tree":
                if not self._bfs_tree_still_valid(key, value, new_dist):
                    continue
            else:
                continue
            self._cache[full_key] = value
            registry.counter(CTX_COUNTER, kind=kind, op="adopt").inc()
            carried += 1
        return carried

    def _bfs_tree_still_valid(
        self,
        root: int,
        value: Tuple[Dict[int, int], Dict[int, int]],
        new_dist: np.ndarray,
    ) -> bool:
        """Whether a predecessor graph's BFS tree is a BFS tree here too.

        True iff the tree covers exactly the nodes reachable from the
        root, every parent edge still exists, and every depth equals the
        new distance row — i.e. the memo is indistinguishable from a
        fresh traversal.
        """
        parent, depth = value
        row = new_dist[root - 1]
        if len(parent) != int((row >= 0).sum()):
            return False
        graph = self._graph
        for v, p in parent.items():
            if depth[v] != row[v - 1]:
                return False
            if v != root and not graph.has_edge(v, p):
                return False
        return True

    # -- derivations ---------------------------------------------------------

    def distances(self, max_distance: Optional[int] = None) -> np.ndarray:
        """All-pairs hop distances (``-1`` for unreached pairs), memoised.

        A bounded request (``max_distance=k``) is derived from the full
        matrix for free whenever the full matrix is already cached — the
        common case in a pipeline that builds a shortest-path scheme first.
        The returned array is marked read-only: it is shared by every
        consumer of this graph.
        """

        def _freeze(matrix: np.ndarray) -> np.ndarray:
            matrix.setflags(write=False)
            return matrix

        if max_distance is None:
            return self._memo(
                "distances", None, lambda: _freeze(distance_matrix(self._graph))
            )
        if self.has_cached_distances:
            # Truncating the cached full matrix is O(n²) masking — count it
            # as a derivation of its own so the reuse stays visible.
            def _truncate() -> np.ndarray:
                full = self._cache[("distances", None)]
                bounded = full.copy()
                bounded[(full > max_distance) | (full < 0)] = -1
                return _freeze(bounded)

            return self._memo("distances", max_distance, _truncate)
        return self._memo(
            "distances",
            max_distance,
            lambda: _freeze(distance_matrix(self._graph, max_distance=max_distance)),
        )

    def _bfs(self, root: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Parents and depths of the BFS tree rooted at ``root`` (memoised).

        Covers the reachable component only; callers needing connectivity
        check ``len(parents) == graph.n`` themselves.
        """

        def _compute() -> Tuple[Dict[int, int], Dict[int, int]]:
            graph = self._graph
            parent = {root: root}
            depth = {root: 0}
            frontier = [root]
            level = 0
            while frontier:
                level += 1
                next_frontier: List[int] = []
                for u in frontier:
                    for v in graph.neighbors(u):
                        if v not in parent:
                            parent[v] = u
                            depth[v] = level
                            next_frontier.append(v)
                frontier = next_frontier
            return parent, depth

        return self._memo("bfs_tree", root, _compute)

    def bfs_tree(self, root: int) -> Dict[int, int]:
        """Parent pointers of the BFS tree at ``root`` (``parent[root] = root``).

        Returns a copy — BFS trees are handed to callers that decorate
        them; the memoised original stays pristine.
        """
        parent, _ = self._bfs(root)
        return dict(parent)

    def ball(self, center: int, radius: int) -> Set[int]:
        """Nodes within hop distance ``radius`` of ``center``.

        Derived from the memoised BFS depths, so regional fault generators
        probing several radii around one epicentre pay for one traversal.
        """
        if radius < 0:
            raise GraphError(f"radius must be >= 0, got {radius}")
        _, depth = self._bfs(center)
        return {v for v, d in depth.items() if d <= radius}

    def eccentricity(self, u: int) -> int:
        """Largest hop distance from ``u`` (raises on disconnected graphs).

        Served from the full distance matrix when it is already cached;
        otherwise one BFS from ``u``.
        """

        def _compute() -> int:
            if self.has_cached_distances:
                row = self._cache[("distances", None)][u - 1]
                if (row < 0).any():
                    raise GraphError(
                        "eccentricity undefined: graph is disconnected"
                    )
                return int(row.max())
            parent, depth = self._bfs(u)
            if len(parent) != self._graph.n:
                raise GraphError("eccentricity undefined: graph is disconnected")
            return max(depth.values())

        return self._memo("eccentricity", u, _compute)

    def degree_stats(self, deficiency: Optional[float] = None) -> DegreeStatistics:
        """The Lemma 1 degree-band summary (memoised per deficiency)."""
        return self._memo(
            "degree_stats",
            deficiency,
            lambda: degree_statistics(self._graph, deficiency=deficiency),
        )

    def sorted_adjacency(self, u: int) -> Tuple[int, ...]:
        """Neighbours of ``u`` in increasing label order (the "least" order)."""
        return self._memo(
            "sorted_adjacency", u, lambda: self._graph.neighbors(u)
        )

    def port_table(self) -> PortAssignment:
        """The canonical identity port assignment of model IB (memoised).

        Every scheme that normalises its ports builds this same object;
        sharing it collapses ``O(Σ d(v))`` of per-scheme setup into one.
        """
        return self._memo(
            "port_table", None, lambda: PortAssignment.identity(self._graph)
        )

    def pristine_bits(self, scheme: "RoutingScheme", node: int) -> "BitArray":
        """``node``'s serialised pristine function under ``scheme`` (memoised).

        This is the graph+model knowledge the corruption self-healer
        rebuilds from (:meth:`~repro.simulator.network.Network.heal_table`):
        the first corruption of a node pays for the encode, every repeat
        corruption or heal of that node is a context hit.  Keyed on the
        scheme *instance* (two same-named schemes may encode differently,
        e.g. under different port assignments); a strong reference pins the
        instance so its id cannot be recycled while memoised.
        """

        def _compute() -> Tuple["RoutingScheme", "BitArray"]:
            return (scheme, scheme.encode_function(node))

        held, bits = self._memo("pristine_bits", (id(scheme), node), _compute)
        if held is not scheme:  # pragma: no cover - defensive (id collision)
            raise GraphError("pristine-bits cache keyed a recycled scheme id")
        return bits

    def next_hop_matrix(self, scheme: "RoutingScheme") -> Optional[np.ndarray]:
        """A dense next-hop lookup for ``scheme``, or None if not derivable.

        ``matrix[u - 1, d - 1]`` is the next node on ``scheme``'s route
        from ``u`` towards destination ``d`` whenever the scheme's local
        function at ``u`` answers with a stateless single-neighbour
        decision; ``-1`` marks a :class:`~repro.errors.RoutingError`
        ("no route"), ``-2`` marks entries a vectorised consumer must
        resolve through the scalar path (self-routing, non-neighbour or
        non-integer decisions).  The whole matrix degrades to ``None``
        when any decision carries header state, the scheme wraps detour
        functions, or evaluation fails in a scheme-specific way — batch
        consumers then fall back to scalar routing wholesale.

        Each row is derived in one of two ways with the same result.  The
        destinations' addresses are computed once; when they are all
        ``int`` labels in ``1..n`` the local function at ``u`` is offered
        them whole through
        :meth:`~repro.core.scheme.LocalRoutingFunction.next_hop_row`, and
        an answered row becomes ``u``'s matrix row under one adjacency
        mask (a next node that is ``u`` itself or not a neighbour becomes
        ``-2``).  A row answered None — and every row of a function type
        without a row method — is derived by one scalar ``next_hop`` call
        and one edge test per destination, as above.

        Keyed on the scheme *instance* (like :meth:`pristine_bits`) with a
        strong reference pinning it against id recycling; the array is
        C-contiguous ``int32`` and frozen read-only.
        """

        def _compute() -> Tuple["RoutingScheme", Optional[np.ndarray]]:
            # Imported lazily: core imports graphs, so graphs cannot import
            # core at module scope.
            from repro.core.detour import DetourFunction
            from repro.core.scheme import exact_int_array
            from repro.errors import ReproError, RoutingError

            graph = self._graph
            n = graph.n
            matrix = np.full((n, n), -2, dtype=np.int32)
            address_list = [scheme.address_of(d) for d in graph.nodes]
            addresses = exact_int_array(address_list, 1, n)
            for u in graph.nodes:
                try:
                    function = scheme.function(u)
                except (ReproError, KeyError, IndexError, TypeError, ValueError):
                    return (scheme, None)
                if isinstance(function, DetourFunction):
                    return (scheme, None)
                if addresses is not None:
                    row = _masked_row(
                        u, function.next_hop_row(addresses), scheme.graph
                    )
                    if row is not None:
                        matrix[u - 1] = row
                        continue
                for d in graph.nodes:
                    if d == u:
                        continue
                    address = address_list[d - 1]
                    try:
                        decision = function.next_hop(address)
                    except RoutingError:
                        matrix[u - 1, d - 1] = -1
                        continue
                    except (ReproError, KeyError, IndexError, TypeError, ValueError):
                        return (scheme, None)
                    if decision.state is not None:
                        return (scheme, None)
                    nxt = decision.next_node
                    if (
                        isinstance(nxt, int)
                        and nxt != u
                        and scheme.graph.has_edge(u, nxt)
                    ):
                        matrix[u - 1, d - 1] = nxt
            matrix = np.ascontiguousarray(matrix)
            matrix.setflags(write=False)
            return (scheme, matrix)

        held, matrix = self._memo("next_hop_matrix", id(scheme), _compute)
        if held is not scheme:  # pragma: no cover - defensive (id collision)
            raise GraphError("next-hop cache keyed a recycled scheme id")
        return matrix

    def __repr__(self) -> str:
        return (
            f"GraphContext(n={self._graph.n}, edges={self._graph.edge_count}, "
            f"cached={sorted(self.cached_kinds())})"
        )


def _masked_row(
    u: int, row: Optional[np.ndarray], graph: LabeledGraph
) -> Optional[np.ndarray]:
    """``u``'s next-hop matrix row from an answered ``next_hop_row``.

    Entries that name ``u`` or a non-neighbour become ``-2``, ``-1`` stays
    ``-1``, the diagonal is ``-2``.  None when there is no answer or it
    breaks the row contract (wrong shape, a value outside ``-1`` and
    ``1..n``), so the caller derives the row per destination instead.
    """
    n = graph.n
    if row is None or row.shape != (n,) or row.dtype.kind not in "iu":
        return None
    if row.min() < -1 or row.max() > n or not row.all():
        return None
    # No self-loops, so the mask also turns a hop back to ``u`` into -2;
    # "wrap" keeps the -1 entries' index in range, (row > 0) drops them.
    usable = (row > 0) & graph.adjacency_matrix()[u - 1].take(row - 1, mode="wrap")
    masked = np.where(usable, row, -2)
    masked[row == -1] = -1
    masked[u - 1] = -2
    return masked


# -- process-wide store -------------------------------------------------------
#
# One context per structurally-distinct graph, LRU-bounded.  Strong refs are
# deliberate: LabeledGraph uses __slots__ without __weakref__, and pinning
# the handful of live graphs is exactly what makes identity keys safe.

_CTX_CACHE: "OrderedDict[Fingerprint, GraphContext]" = OrderedDict()
_CTX_BY_ID: Dict[int, GraphContext] = {}
_CTX_CACHE_SIZE = 8


def context_cache_size() -> int:
    """The LRU capacity of the process-wide context store."""
    return _CTX_CACHE_SIZE


def get_context(graph: LabeledGraph) -> GraphContext:
    """The shared :class:`GraphContext` of ``graph`` (created on first use).

    Keyed on :func:`structural_fingerprint`, so two equal graph objects
    (e.g. the same seeded sample drawn twice) share one context; an
    identity fast path skips the fingerprint for the overwhelmingly common
    same-object case.
    """
    registry = get_registry()
    ctx = _CTX_BY_ID.get(id(graph))
    if ctx is not None and (ctx.graph is graph or any(g is graph for g in ctx._aliases)):
        _CTX_CACHE.move_to_end(ctx.fingerprint)
        registry.counter(CTX_STORE_COUNTER, op="hit").inc()
        return ctx
    fingerprint = structural_fingerprint(graph)
    ctx = _CTX_CACHE.get(fingerprint)
    if ctx is not None and ctx.graph == graph:
        # A structurally-equal graph object: alias it onto the shared
        # context (the strong ref keeps its id stable while cached).
        ctx._aliases.append(graph)
        _CTX_BY_ID[id(graph)] = ctx
        _CTX_CACHE.move_to_end(fingerprint)
        registry.counter(CTX_STORE_COUNTER, op="hit").inc()
        return ctx
    ctx = GraphContext(graph, fingerprint=fingerprint)
    _CTX_CACHE[fingerprint] = ctx
    _CTX_BY_ID[id(graph)] = ctx
    registry.counter(CTX_STORE_COUNTER, op="miss").inc()
    while len(_CTX_CACHE) > _CTX_CACHE_SIZE:
        _, evicted = _CTX_CACHE.popitem(last=False)
        for key in [k for k, v in _CTX_BY_ID.items() if v is evicted]:
            del _CTX_BY_ID[key]
        registry.counter(CTX_STORE_COUNTER, op="eviction").inc()
    return ctx


def clear_context_cache() -> None:
    """Empty the process-wide store (tests and fresh experiment runs)."""
    _CTX_CACHE.clear()
    _CTX_BY_ID.clear()
