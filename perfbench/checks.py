"""Correctness checks applied to every run's outputs.

Each check raises :class:`CheckFailed` with a message naming what was
wrong; the runner then exits non-zero without printing a result.  The
checks compare the program against independent facts (graph edges,
distances, the built scheme's own encodings) or against a second lane
of the program itself (kernel against engine, one repeat against the
next).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core import RoutingScheme, SchemeBlob, VerificationReport
from repro.errors import RoutingError
from repro.graphs import GraphContext, LabeledGraph, RandomnessCertificate
from repro.simulator import DeliveryRecord


class CheckFailed(Exception):
    """A run produced a wrong output."""


def certified(cert: RandomnessCertificate) -> None:
    if not cert.certified:
        raise CheckFailed(f"G({cert.n}, 1/2) sample does not certify: {cert}")


def cold(ctx: GraphContext) -> None:
    """The pass starts from an empty context, as a fresh CLI process does."""
    if ctx.cached_kinds():
        raise CheckFailed(f"context already holds {sorted(ctx.cached_kinds())}")


def packed_bits(scheme: RoutingScheme, blob: SchemeBlob) -> None:
    """The unpacked per-node bits equal the built scheme's own encodings."""
    if blob.scheme_name != scheme.scheme_name or blob.n != scheme.graph.n:
        raise CheckFailed(
            f"blob is {blob.scheme_name}/n={blob.n}, scheme is "
            f"{scheme.scheme_name}/n={scheme.graph.n}"
        )
    for u in scheme.graph.nodes:
        if blob.functions[u] != scheme.encode_function(u):
            raise CheckFailed(
                f"{scheme.scheme_name}: unpacked bits of node {u} differ "
                "from the packed function"
            )


def _decision(scheme: RoutingScheme, u: int, d: int) -> object:
    try:
        decision = scheme.function(u).next_hop(scheme.address_of(d))
    except RoutingError as exc:
        return ("no route", str(exc))
    return (decision.next_node, decision.state)


def restored_next_hops(
    built: RoutingScheme,
    restored: RoutingScheme,
    matrix: "np.ndarray | None",
    rows: Iterable[int],
) -> None:
    """The restored scheme routes as the built one does.

    Over every destination of each sampled source row, the restored and
    the built local functions make the same decision, and the restored
    next-hop matrix names that decision's next node wherever it holds
    one.  Every matrix entry, sampled or not, must be a neighbour.
    """
    name = built.scheme_name
    if matrix is None:
        raise CheckFailed(f"{name}: restored scheme has no next-hop matrix")
    graph = built.graph
    n = graph.n
    adjacency = graph.adjacency_matrix()
    named = matrix > 0
    src, dst = np.nonzero(named)
    if not adjacency[src, matrix[src, dst] - 1].all():
        raise CheckFailed(f"{name}: next-hop matrix names a non-neighbour")
    for u in rows:
        for d in range(1, n + 1):
            if d == u:
                continue
            want = _decision(built, u, d)
            got = _decision(restored, u, d)
            if got != want:
                raise CheckFailed(
                    f"{name}: restored decision at {u} for {d} is {got}, "
                    f"built is {want}"
                )
            entry = int(matrix[u - 1, d - 1])
            if entry > 0 and entry != want[0]:
                raise CheckFailed(
                    f"{name}: matrix[{u}, {d}] = {entry}, decision is {want[0]}"
                )


def verified(name: str, report: VerificationReport) -> None:
    if not report.ok():
        raise CheckFailed(
            f"{name}: verify_scheme failed {len(report.failures)} pairs and "
            f"broke the stretch bound on {len(report.violations)}"
        )


def delivered_paths(
    records: Sequence[DeliveryRecord],
    graph: LabeledGraph,
    distances: np.ndarray,
    stretch_bound: float,
) -> None:
    """Every delivered path walks graph edges from source to destination,
    within the scheme's stretch bound."""
    neighbours = [frozenset()] + [frozenset(graph.neighbors(u)) for u in graph.nodes]
    for record in records:
        if not record.delivered:
            continue
        path = record.path
        if path[0] != record.source or path[-1] != record.destination:
            raise CheckFailed(f"message {record.msg_id}: path {path} has wrong ends")
        if record.hops != len(path) - 1:
            raise CheckFailed(f"message {record.msg_id}: hops {record.hops} != path")
        for a, b in zip(path, path[1:]):
            if b not in neighbours[a]:
                raise CheckFailed(
                    f"message {record.msg_id}: path {path} uses non-edge {a}-{b}"
                )
        shortest = int(distances[record.source - 1, record.destination - 1])
        if record.hops > stretch_bound * shortest + 1e-9:
            raise CheckFailed(
                f"message {record.msg_id}: {record.hops} hops over distance "
                f"{shortest} breaks stretch {stretch_bound}"
            )


def digest(records: Iterable[DeliveryRecord]) -> str:
    """SHA-256 over every field of every record, in ``msg_id`` order."""
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: r.msg_id):
        reason = None if r.drop_reason is None else r.drop_reason.value
        h.update(repr((
            r.msg_id, r.source, r.destination, r.delivered, r.hops, r.path,
            r.latency, reason, r.drop_detail, r.retries, r.injected_at,
            r.completed_at, r.stale,
        )).encode())
    return h.hexdigest()


def same(what: str, first: str, second: str) -> None:
    if first != second:
        raise CheckFailed(f"{what}: {first[:16]} != {second[:16]}")


def repeats(passes: Sequence[Mapping[str, str]]) -> None:
    """Every pass of a run produced the same digests."""
    for later in passes[1:]:
        for key, value in passes[0].items():
            same(f"{key} across repeats", value, later[key])
