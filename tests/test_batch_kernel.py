"""Scalar/batch equivalence for the vectorised routing kernel.

The batch boundary's contract is *bit identity*: for any fixed seed the
``BatchKernel`` must emit exactly the ``DeliveryRecord`` stream the
scalar per-message walk emits — across every scheme, with chaos,
corruption and churn enabled, with tracing on or off.  These tests pin
that contract with a hypothesis property over all 11 schemes, check the
kernel against ``EventDrivenSimulator`` itself, pin the sweep driver's
worker-count independence, and regression-test that the untraced kernel
pays nothing for the (disabled) tracer hooks.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import available_schemes, build_scheme
from repro.errors import RoutingError
from repro.graphs import gnp_random_graph, path_graph
from repro.models import Knowledge, Labeling, RoutingModel
from repro.observability import NULL_TRACER, RecordingTracer, SamplingTracer
from repro.simulator import (
    BatchKernel,
    EventDrivenSimulator,
    Network,
    RetryPolicy,
    SweepTask,
    run_sweep,
)
from repro.simulator.chaos import renewal_faults, table_corruption
from repro.simulator.churn import random_churn
from repro.simulator.failures import sample_link_failures, sample_node_failures

II_GAMMA = RoutingModel(Knowledge.II, Labeling.GAMMA)
II_ALPHA = RoutingModel(Knowledge.II, Labeling.ALPHA)

ALL_SCHEMES = available_schemes()

# Churn repairs reinstall tables against live addresses, so the churn
# property restricts itself to plain-label schemes (address == node id).
CHURN_SCHEMES = ("full-table", "full-information")


@lru_cache(maxsize=None)
def _scheme(name):
    """One cached (scheme, graph) per name; built on a graph it accepts.

    chain-comparison requires an actual chain and thm1-two-level a dense
    Lemma-3-like graph; G(28, 1/2) satisfies every other construction.
    """
    if name == "chain-comparison":
        graph = path_graph(12)
    else:
        graph = gnp_random_graph(28, seed=43)
    return build_scheme(name, graph, II_GAMMA), graph


def _injections(graph, messages, seed, horizon=30.0, burst=False):
    """Random pairs at uniform times, or (``burst``) at times 0..3 only,
    so cohorts are large enough for the vectorised lanes."""
    clock = random.Random(seed)
    nodes = sorted(graph.nodes)
    return [
        (
            *clock.sample(nodes, 2),
            float(clock.randrange(4)) if burst else clock.uniform(0.0, horizon),
        )
        for _ in range(messages)
    ]


def _run(scheme, injections, batch, **kwargs):
    kernel = BatchKernel(scheme, batch=batch, **kwargs)
    for source, destination, at_time in injections:
        kernel.inject(source, destination, at_time)
    return kernel.run()


# -- the tentpole property ----------------------------------------------------


@st.composite
def fault_cases(draw):
    scheme_name = draw(st.sampled_from(ALL_SCHEMES))
    seed = draw(st.integers(0, 3))
    # "quiet": no faults and no queues, so the batched lane takes the
    # quiescent drain (one clock per row for distinct float arrivals).
    variant = draw(
        st.sampled_from(("static", "chaos", "corruption", "quiet"))
    )
    burst = draw(st.booleans())
    messages = draw(st.integers(1, 40 if burst else 20))
    retries = draw(st.integers(0, 2))
    latency = draw(st.sampled_from((0.5, 1.0, 1.5)))
    # (node_service_time, queue_capacity): no queues, FIFO queues, and
    # FIFO queues that overflow.
    queues = draw(st.sampled_from(((0.0, None), (0.4, None), (0.4, 1))))
    if variant == "quiet":
        queues = (0.0, None)
    return (
        scheme_name, seed, variant, burst, messages, retries, latency, queues
    )


@given(fault_cases())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_matches_scalar_under_faults(case):
    """Bit-identical records and forward counts, all 11 schemes, faults,
    retries, latency and queues on, or no faults at all."""
    (
        scheme_name, seed, variant, burst, messages, retries, latency, queues
    ) = case
    scheme, graph = _scheme(scheme_name)
    service, capacity = queues
    kwargs = {
        "retry_policy": (
            RetryPolicy(max_attempts=retries + 1, base_delay=0.5)
            if retries
            else None
        ),
        "retry_seed": seed,
        "link_latency": latency,
        "node_service_time": service,
        "queue_capacity": capacity,
    }
    if variant == "static":
        # keep_connected=False: a chain has no expendable links, and the
        # equivalence must hold on partitioned graphs anyway.
        kwargs["failed_links"] = sample_link_failures(
            graph, 3, seed=seed, keep_connected=False
        )
        kwargs["failed_nodes"] = sample_node_failures(
            graph, 1, seed=seed, keep_connected=False
        )
    elif variant == "chaos":
        kwargs["fault_schedule"] = renewal_faults(
            graph,
            horizon=40.0,
            seed=seed,
            link_count=graph.edge_count // 3,
            node_count=2,
        )
    elif variant == "corruption":
        kwargs["fault_schedule"] = table_corruption(
            graph, max(graph.n // 4, 1), horizon=40.0, seed=seed
        )
        kwargs["repair_delay"] = 6.0
    injections = _injections(graph, messages, seed, burst=burst)
    results = {}
    for batch in (True, False):
        kernel = BatchKernel(scheme, batch=batch, **kwargs)
        for source, destination, at_time in injections:
            kernel.inject(source, destination, at_time)
        results[batch] = (kernel.run(), kernel.forward_counts)
    assert results[True] == results[False]
    assert len(results[True][0]) == messages


@pytest.mark.parametrize("scheme_name", ("thm5-probe", "tree-cover"))
def test_quiescent_drain_hands_back_rows_when_state_moves(scheme_name):
    """A scalar step that moves the state epoch mid-drain sends the rest
    of the drain back to the heap; with no real state change the records
    must not move."""
    scheme, graph = _scheme(scheme_name)
    injections = _injections(graph, 60, seed=2, horizon=40.0)

    def run(bump_at):
        kernel = BatchKernel(scheme)
        step_one = kernel._step_one
        calls = []

        def step(batch, i, now):
            arrival = step_one(batch, i, now)
            calls.append(i)
            if len(calls) in bump_at:
                kernel.network._state_epoch += 1
            return arrival

        kernel._step_one = step
        for source, destination, at_time in injections:
            kernel.inject(source, destination, at_time)
        return kernel.run(), kernel.forward_counts, len(calls)

    records, counts, steps = run(set())
    assert steps > 0
    assert run({1, 5, steps // 2}) == (records, counts, steps)


@pytest.mark.parametrize("scheme_name", CHURN_SCHEMES)
def test_batch_matches_scalar_under_churn(scheme_name):
    graph = gnp_random_graph(18, seed=11)
    scheme = build_scheme(scheme_name, graph, II_ALPHA)
    kwargs = {
        "retry_policy": RetryPolicy(max_attempts=3, base_delay=0.5),
        "retry_seed": 5,
        "churn_repair_delay": 4.0,
    }
    # Instant installs, and installs staggered at 400 bits per time unit,
    # under spread and (vectorised lanes) burst arrivals.
    for repair_rate, burst in ((None, False), (400.0, False), (400.0, True)):
        injections = _injections(graph, 80, seed=5, horizon=35.0, burst=burst)
        results = {}
        for batch in (True, False):
            kernel = BatchKernel(
                scheme,
                batch=batch,
                churn_schedule=random_churn(graph, 6, horizon=30.0, seed=7),
                churn_repair_rate=repair_rate,
                **kwargs,
            )
            for source, destination, at_time in injections:
                kernel.inject(source, destination, at_time)
            results[batch] = (kernel.run(), kernel.churn_summary())
        assert results[True] == results[False]


# -- inject validation ---------------------------------------------------------


@pytest.mark.parametrize("pair", [(0, 5), (5, 0), (5, 17), (-1, 3)])
def test_inject_rejects_nodes_outside_the_graph(pair):
    """Out-of-range ids raise RoutingError naming the node.

    numpy would otherwise wrap a negative id onto a real row (a bogus
    delivery from node 0) or leak a bare IndexError past ``n``.
    """
    graph = gnp_random_graph(16, seed=5)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    bad = next(node for node in pair if not 1 <= node <= graph.n)
    for sim in (BatchKernel(scheme), EventDrivenSimulator(scheme)):
        with pytest.raises(RoutingError, match=f"node {bad} outside"):
            sim.inject(*pair)
    with pytest.raises(RoutingError, match=f"node {bad} outside"):
        Network(scheme).route_batch([pair])
    with pytest.raises(RoutingError, match=f"node {bad} outside"):
        Network(scheme).route(*pair)


# -- kernel vs. the event-driven engine ---------------------------------------


def test_kernel_matches_event_driven_engine():
    """Both kernel lanes reproduce the engine's records exactly."""
    graph = gnp_random_graph(20, seed=3)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    failed_links = tuple(sample_link_failures(graph, 4, seed=9))
    failed_nodes = tuple(sample_node_failures(graph, 2, seed=9))
    injections = _injections(graph, 60, seed=9)
    engine = EventDrivenSimulator(
        scheme, failed_links=failed_links, failed_nodes=failed_nodes
    )
    for source, destination, at_time in injections:
        engine.inject(source, destination, at_time)
    reference = sorted(engine.run(), key=lambda r: r.msg_id)
    for batch in (True, False):
        records = _run(
            scheme,
            injections,
            batch,
            failed_links=failed_links,
            failed_nodes=failed_nodes,
        )
        assert sorted(records, key=lambda r: r.msg_id) == reference


def test_tracing_is_preserved_behind_the_boundary():
    """Full tracing: identical records AND identical span streams."""
    graph = gnp_random_graph(16, seed=21)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    injections = _injections(graph, 40, seed=13)
    schedule = renewal_faults(
        graph, horizon=40.0, seed=13, link_count=6, node_count=1
    )
    streams = {}
    for batch in (True, False):
        tracer = RecordingTracer()
        records = _run(
            scheme,
            injections,
            batch,
            fault_schedule=schedule,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
            retry_seed=13,
            tracer=tracer,
        )
        streams[batch] = (records, tracer.events)
    assert streams[True] == streams[False]
    assert len(streams[True][1]) > 0


def test_sampled_tracing_promotion_matches_scalar():
    """Sampled tracing (with anomaly promotion) stays bit-identical."""
    graph = gnp_random_graph(16, seed=21)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    schedule = renewal_faults(
        graph, horizon=40.0, seed=17, link_count=6, node_count=1
    )
    for burst in (False, True):
        injections = _injections(graph, 60, seed=17, burst=burst)
        streams = {}
        for batch in (True, False):
            tracer = SamplingTracer(RecordingTracer(), rate=0.1, seed=3)
            records = _run(
                scheme,
                injections,
                batch,
                fault_schedule=schedule,
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5),
                retry_seed=17,
                tracer=tracer,
            )
            streams[batch] = (records, tracer._sink.events)
        assert streams[True] == streams[False]


# -- sweep driver determinism -------------------------------------------------


def _sweep_tasks(batch=True):
    return [
        SweepTask(
            scheme="full-table",
            n=14,
            graph_seed=2,
            seed=seed,
            messages=24,
            variant=variant,
            retries=1,
            batch=batch,
            failures=3,
            node_failures=1,
        )
        for seed in (0, 1)
        for variant in ("plain", "chaos", "corruption", "churn")
    ]


def test_sweep_digests_independent_of_worker_count():
    one = run_sweep(_sweep_tasks(), workers=1)
    many = run_sweep(_sweep_tasks(), workers=3)
    assert [r.record_digest for r in one] == [r.record_digest for r in many]
    assert [r.task for r in one] == [r.task for r in many]


def test_sweep_digests_independent_of_batch_flag():
    batched = run_sweep(_sweep_tasks(batch=True), workers=1)
    scalar = run_sweep(_sweep_tasks(batch=False), workers=1)
    for fast, slow in zip(batched, scalar):
        assert fast.record_digest == slow.record_digest
        assert replace(fast.task, batch=False) == slow.task


# -- disabled-tracing overhead ------------------------------------------------


def test_disabled_tracing_kernel_overhead():
    """A NULL_TRACER kernel run must cost the same as tracer=None.

    Mirrors the BENCH_observability acceptance budget (≤5%), widened to
    the bench's own smoke budget of 1.25x because short CI timings run
    noisy; the structural claim is that a disabled tracer collapses to
    `None` at construction so the kernel's fast lane pays zero per-hop.
    """
    graph = gnp_random_graph(48, seed=83)
    scheme = build_scheme("full-table", graph, II_ALPHA)
    injections = _injections(graph, 600, seed=29, horizon=0.0)
    timings = {"untraced": [], "disabled": []}
    baseline = None
    for _ in range(5):
        start = time.perf_counter()
        records = _run(scheme, injections, True)
        timings["untraced"].append(time.perf_counter() - start)
        baseline = records
        start = time.perf_counter()
        records = _run(scheme, injections, True, tracer=NULL_TRACER)
        timings["disabled"].append(time.perf_counter() - start)
        assert records == baseline
    ratio = min(timings["disabled"]) / min(timings["untraced"])
    assert ratio <= 1.25, (
        f"disabled tracing cost {ratio:.3f}x the untraced kernel"
    )
