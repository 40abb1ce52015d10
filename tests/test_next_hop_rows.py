"""Row-at-a-time next hops against per-pair oracles.

:meth:`GraphContext.next_hop_matrix` takes a node's whole row from
:meth:`LocalRoutingFunction.next_hop_row` when the function answers one,
and asks ``next_hop`` destination by destination only for rows it
declines.  Two oracles check the result:

* :func:`per_pair_matrix` is the plain definition: one ``next_hop`` call
  and one edge test per (u, d) pair under the matrix's rules.  Every
  registered scheme, built and restored, must give the same matrix,
  ``None`` included, and so must hand-made malformed functions.
* networkx distances, for the stretch-1 schemes: every entry is a
  neighbour one hop closer to the destination.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DetourFunction,
    IntervalFunction,
    PortTableFunction,
    StaticFunction,
    TwoLevelFunction,
    available_schemes,
    build_scheme,
)
from repro.core.persistence import pack_scheme, restore_scheme
from repro.core.scheme import RoutingScheme
from repro.errors import ReproError, RoutingError
from repro.graphs import (
    LabeledGraph,
    get_context,
    gnp_random_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.models import Knowledge, Labeling, RoutingModel

LABELINGS = (Labeling.ALPHA, Labeling.BETA)
ROW_SCHEMES = (
    ("full-table", Labeling.ALPHA),
    ("thm1-two-level", Labeling.ALPHA),
    ("interval", Labeling.BETA),
)
_EVAL_ERRORS = (ReproError, KeyError, IndexError, TypeError, ValueError)


def per_pair_matrix(scheme: RoutingScheme) -> Optional[np.ndarray]:
    """The next-hop matrix by definition, one ``next_hop`` call per pair."""
    graph = scheme.graph
    n = graph.n
    matrix = np.full((n, n), -2, dtype=np.int32)
    for u in graph.nodes:
        try:
            function = scheme.function(u)
        except _EVAL_ERRORS:
            return None
        if isinstance(function, DetourFunction):
            return None
        for d in graph.nodes:
            if d == u:
                continue
            try:
                decision = function.next_hop(scheme.address_of(d))
            except RoutingError:
                matrix[u - 1, d - 1] = -1
                continue
            except _EVAL_ERRORS:
                return None
            if decision.state is not None:
                return None
            nxt = decision.next_node
            if isinstance(nxt, int) and nxt != u and graph.has_edge(u, nxt):
                matrix[u - 1, d - 1] = nxt
    return matrix


def assert_matches_oracle(scheme: RoutingScheme) -> Optional[np.ndarray]:
    matrix = get_context(scheme.graph).next_hop_matrix(scheme)
    expected = per_pair_matrix(scheme)
    if expected is None:
        assert matrix is None
    else:
        assert matrix is not None
        assert matrix.dtype == np.int32
        np.testing.assert_array_equal(matrix, expected)
    return matrix


def restored(scheme: RoutingScheme) -> RoutingScheme:
    return restore_scheme(pack_scheme(scheme), scheme.graph, scheme.model)


def try_build(name: str, graph: LabeledGraph, labeling: Labeling):
    try:
        return build_scheme(name, graph, RoutingModel(Knowledge.II, labeling))
    except ReproError:
        return None


def addresses_of(scheme: RoutingScheme) -> np.ndarray:
    return np.array([scheme.address_of(d) for d in scheme.graph.nodes])


# -- every registered scheme, built and restored ------------------------------

FIXED_GRAPHS = {
    "gnp": gnp_random_graph(32, seed=101),
    "path": path_graph(12),
    "tree": random_tree(20, seed=3),
    "grid": grid_graph(4, 5),
}


@pytest.mark.parametrize("labeling", LABELINGS, ids=lambda lab: lab.name)
@pytest.mark.parametrize("name", available_schemes())
def test_every_scheme_matches_per_pair_oracle(name, labeling):
    built = 0
    for graph in FIXED_GRAPHS.values():
        scheme = try_build(name, graph, labeling)
        if scheme is None:
            continue
        built += 1
        assert_matches_oracle(scheme)
        assert_matches_oracle(restored(scheme))
    if not built:
        pytest.skip(f"{name} builds on none of the graphs under {labeling.name}")


@st.composite
def graphs(draw) -> LabeledGraph:
    family = draw(st.sampled_from(["gnp", "path", "star", "tree", "grid"]))
    if family == "gnp":
        return gnp_random_graph(
            draw(st.integers(12, 40)), seed=draw(st.integers(0, 10**6))
        )
    if family == "path":
        return path_graph(draw(st.integers(2, 24)))
    if family == "star":
        return star_graph(draw(st.integers(2, 24)))
    if family == "tree":
        return random_tree(draw(st.integers(2, 30)), seed=draw(st.integers(0, 10**6)))
    return grid_graph(draw(st.integers(1, 5)), draw(st.integers(2, 6)))


@given(
    name=st.sampled_from(available_schemes()),
    labeling=st.sampled_from(LABELINGS),
    graph=graphs(),
    restore=st.booleans(),
)
def test_next_hop_matrix_equals_per_pair_oracle(name, labeling, graph, restore):
    scheme = try_build(name, graph, labeling)
    if scheme is None:
        return
    assert_matches_oracle(restored(scheme) if restore else scheme)


@pytest.mark.parametrize("restore", [False, True], ids=["built", "restored"])
@pytest.mark.parametrize("name,labeling", ROW_SCHEMES, ids=[s for s, _ in ROW_SCHEMES])
def test_pipeline_functions_answer_rows(name, labeling, restore):
    # The pipeline's three function types must take the row path, not
    # fall back to per-destination calls.
    scheme = try_build(name, gnp_random_graph(48, seed=9), labeling)
    assert scheme is not None
    if restore:
        scheme = restored(scheme)
    addresses = addresses_of(scheme)
    expected = per_pair_matrix(scheme)
    for u in scheme.graph.nodes:
        row = scheme.function(u).next_hop_row(addresses)
        assert row is not None
        off_diagonal = np.arange(scheme.graph.n) != u - 1
        # On these schemes every answered hop is a real neighbour.
        np.testing.assert_array_equal(
            row[off_diagonal], expected[u - 1][off_diagonal]
        )


def test_default_row_declines():
    function = StaticFunction(1, {2: 2})
    assert function.next_hop_row(np.array([1, 2], dtype=np.int64)) is None


# -- hand-made malformed functions ----------------------------------------------


def _install(scheme: RoutingScheme, function) -> RoutingScheme:
    scheme._function_cache[function.node] = function
    return scheme


def test_port_past_degree_degrades_whole_matrix():
    graph = FIXED_GRAPHS["gnp"]
    scheme = try_build("full-table", graph, Labeling.ALPHA)
    original = scheme.function(1)
    ports = {d: original.port_for(d) for d in graph.nodes if d != 1}
    ports[graph.non_neighbors(1)[0]] = graph.degree(1) + 1
    function = PortTableFunction(1, ports, scheme.port_assignment)
    _install(scheme, function)
    assert function.next_hop_row(addresses_of(scheme)) is None
    assert assert_matches_oracle(scheme) is None


def test_non_neighbour_intermediate_marks_minus_two():
    graph = FIXED_GRAPHS["gnp"]
    scheme = try_build("thm1-two-level", graph, Labeling.ALPHA)
    original = scheme.function(1)
    far = graph.non_neighbors(1)
    intermediate = {w: original.intermediate_for(w) for w in far}
    intermediate[far[0]] = far[1]
    function = TwoLevelFunction(1, graph.neighbors(1), intermediate)
    _install(scheme, function)
    assert function.next_hop_row(addresses_of(scheme)) is not None
    matrix = assert_matches_oracle(scheme)
    assert matrix[0, far[0] - 1] == -2
    assert matrix[0, far[1] - 1] == original.intermediate_for(far[1])


def test_uncovered_number_at_root_is_no_route():
    scheme = try_build("interval", path_graph(6), Labeling.BETA)
    assert [scheme.address_of(d) for d in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    _install(scheme, IntervalFunction(1, 1, [(2, (2, 4))], None))
    matrix = assert_matches_oracle(scheme)
    assert matrix[0].tolist() == [-2, 2, 2, 2, -1, -1]


def test_overlapping_child_intervals_take_first_child():
    scheme = try_build("interval", star_graph(6), Labeling.BETA)
    assert [scheme.address_of(d) for d in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    children = [(3, (2, 3)), (4, (3, 5)), (2, (2, 6))]
    _install(scheme, IntervalFunction(1, 1, children, None))
    matrix = assert_matches_oracle(scheme)
    assert matrix[0].tolist() == [-2, 3, 3, 4, 4, 2]


def test_declined_row_falls_back_per_destination():
    graph = FIXED_GRAPHS["gnp"]
    scheme = try_build("full-table", graph, Labeling.ALPHA)
    pristine = get_context(graph).next_hop_matrix(scheme)
    rebuilt = try_build("full-table", graph, Labeling.ALPHA)
    table = {d: scheme.function(5).next_hop(d).next_node for d in graph.nodes if d != 5}
    _install(rebuilt, StaticFunction(5, table))
    np.testing.assert_array_equal(assert_matches_oracle(rebuilt), pristine)


def test_float_ports_are_left_to_the_scalar_path():
    # 2.0 finds port 2 through the scalar dict lookup; a row must not guess.
    graph = FIXED_GRAPHS["gnp"]
    scheme = try_build("full-table", graph, Labeling.ALPHA)
    original = scheme.function(1)
    ports = {d: float(original.port_for(d)) for d in graph.nodes if d != 1}
    function = PortTableFunction(1, ports, scheme.port_assignment)
    _install(scheme, function)
    assert function.next_hop_row(addresses_of(scheme)) is None
    assert assert_matches_oracle(scheme) is not None


# -- independent oracle: networkx distances ----------------------------------------


def assert_shortest_path_hops(scheme: RoutingScheme) -> None:
    nx = pytest.importorskip("networkx")
    from repro.graphs.nxadapter import to_networkx

    graph = scheme.graph
    dist = dict(nx.all_pairs_shortest_path_length(to_networkx(graph)))
    matrix = get_context(graph).next_hop_matrix(scheme)
    assert matrix is not None
    for u in graph.nodes:
        for d in graph.nodes:
            if d == u:
                continue
            hop = int(matrix[u - 1, d - 1])
            assert graph.has_edge(u, hop), (u, d, hop)
            assert dist[hop][d] == dist[u][d] - 1, (u, d, hop)


@pytest.mark.parametrize("seed", [101, 202, 303])
@pytest.mark.parametrize("name", ["full-table", "thm1-two-level"])
def test_stretch_one_hops_follow_networkx_distances_on_gnp(name, seed):
    scheme = try_build(name, gnp_random_graph(40, seed=seed), Labeling.ALPHA)
    if scheme is None:
        pytest.skip(f"{name} does not build on G(40, 1/2) seed {seed}")
    assert_shortest_path_hops(scheme)
    assert_shortest_path_hops(restored(scheme))


@pytest.mark.parametrize(
    "graph", [path_graph(15), grid_graph(4, 6)], ids=["path", "grid"]
)
def test_full_table_hops_follow_networkx_distances(graph):
    scheme = try_build("full-table", graph, Labeling.ALPHA)
    assert_shortest_path_hops(scheme)
    assert_shortest_path_hops(restored(scheme))
