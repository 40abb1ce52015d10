"""The benchmark's workloads and the metric names they report.

Every workload is built from one seed, set up several times, then
measured in whole passes.  Each pass checks its own outputs (see
:mod:`perfbench.checks`) and returns an :class:`Outcome`; the runner
turns outcomes and spans into metrics.

Set-up and checks sit outside every timed window except ``setup_s``.
Inputs (graph seeds, pairs and arrival times)
are generated from the workload seed before the program routes them.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    RoutingScheme,
    build_scheme,
    pack_scheme,
    restore_scheme,
    unpack_blob,
    verify_scheme,
)
from repro.graphs import (
    LabeledGraph,
    certify_random_graph,
    clear_context_cache,
    get_context,
    gnp_random_graph,
)
from repro.models import Knowledge, Labeling, RoutingModel
from repro.simulator import (
    BatchKernel,
    DeliveryRecord,
    EventDrivenSimulator,
    summarize,
    uniform_pairs,
)

from perfbench import checks

GNP_SCHEMES = ("full-table", "thm1-two-level", "interval")
SPREAD_SCHEMES = ("thm1-two-level", "thm5-probe")
WARM_SEED = 7
"""Graph seed of the small warm-up pass that sets up ``gnp-pipeline``."""

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("bits_total", "bits"),
    ("delivered_frac", "fraction"),
    ("peak_rss_mb", "MiB"),
)

_LAYER_TIMES = (
    "graphs.sample_s",
    "graphs.certify_s",
    "graphs.distances_s",
    "graphs.next_hop_s",
    *(f"graphs.next_hop_s.{s}" for s in GNP_SCHEMES),
    *(f"core.{layer}_s{suffix}"
      for layer in ("build", "pack", "unpack", "verify")
      for suffix in ("", *(f".{s}" for s in GNP_SCHEMES))),
    "simulator.inject_s",
    "simulator.drain_s",
    *(f"simulator.drain_s.{s}" for s in SPREAD_SCHEMES),
    "simulator.records_s",
    "simulator.summarize_s",
    "simulator.engine_inject_s",
    "simulator.engine_run_s",
    *(f"simulator.engine_run_s.{s}" for s in SPREAD_SCHEMES),
    "simulator.engine_summarize_s",
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *((name, "s") for name in _LAYER_TIMES),
    ("kernel_msgs_per_s", "msg/s"),
    ("engine_msgs_per_s", "msg/s"),
    ("graphs.ctx_hits", "count"),
    ("graphs.ctx_misses", "count"),
    *((f"core.bits.{s}", "bits") for s in GNP_SCHEMES),
    ("simulator.hops", "count"),
    ("trace.unattributed_frac", "fraction"),
    ("trace_overhead_frac", "fraction"),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`FULL` for measuring, :data:`SMOKE` for tests."""

    gnp_n: int = 256
    warm_n: int = 64
    verify_pairs: int = 2048
    gnp_route_msgs: int = 2048
    next_hop_rows: int = 64
    route_n: int = 512
    spread_msgs: int = 4096
    spread_horizon: float = 40.0
    setup_reps: int = 3


FULL = Sizes()
SMOKE = Sizes(
    gnp_n=96, warm_n=48, verify_pairs=200, gnp_route_msgs=256,
    next_hop_rows=4, route_n=96, spread_msgs=512, setup_reps=2,
)


def model_for(scheme: str) -> RoutingModel:
    """The routing model the CLI uses by default for ``scheme``."""
    labeling = Labeling.BETA if scheme == "interval" else Labeling.ALPHA
    return RoutingModel(Knowledge.II, labeling)


@dataclass
class Outcome:
    """What one measured pass did, with its checks already passed."""

    wall_s: float = 0.0
    """The pass's wall time, checks excluded."""
    pipeline_s: float = 0.0
    kernel_s: float = 0.0
    kernel_msgs: int = 0
    engine_s: float = 0.0
    engine_msgs: int = 0
    attempted: int = 0
    failed: int = 0
    bits: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)

    def add_lanes(self, kernel: "Lane", engine: "Lane") -> None:
        for lane in (kernel, engine):
            self.attempted += len(lane.records)
            self.failed += sum(not r.delivered for r in lane.records)
        self.kernel_s += kernel.seconds
        self.kernel_msgs += len(kernel.records)
        self.engine_s += engine.seconds
        self.engine_msgs += len(engine.records)
        counts = self.counts
        counts["simulator.hops"] = counts.get("simulator.hops", 0) + sum(
            r.hops for r in kernel.records)


class _PassClock:
    """Wall time of one pass, less checks, collections and set-aside stages."""

    def __init__(self, rec) -> None:
        self._rec = rec
        self._start = time.perf_counter()
        self.excluded = 0.0
        self.aside = 0.0

    @contextlib.contextmanager
    def _excluding(self, kind: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            with self._rec.span(kind):
                yield
        finally:
            self.excluded += time.perf_counter() - start

    def check(self) -> "contextlib.AbstractContextManager[None]":
        return self._excluding("check")

    def collect(self) -> None:
        """Start the next lane from a collected heap.

        Otherwise the cyclic collector's first full pass over what set-up
        or the pipeline left behind lands in whichever lane window
        crosses its threshold.
        """
        with self._excluding("gc"):
            gc.collect()

    @contextlib.contextmanager
    def set_aside(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.aside += time.perf_counter() - start

    def wall(self) -> float:
        return time.perf_counter() - self._start - self.excluded


@dataclass
class Lane:
    records: List[DeliveryRecord]
    seconds: float
    """From the first ``inject`` to ``summarize``."""


Injection = Tuple[int, int, float]


def kernel_lane(scheme: RoutingScheme, injections: Sequence[Injection],
                rec) -> Lane:
    name = scheme.scheme_name
    start = time.perf_counter()
    with rec.span("simulator.inject", name):
        kernel = BatchKernel(scheme)
        for source, destination, at in injections:
            kernel.inject(source, destination, at)
    with rec.span("simulator.drain", name):
        batch = kernel.drain()
    with rec.span("simulator.records", name):
        records = batch.records()
    with rec.span("simulator.summarize", name):
        summarize(records, kernel.network.live_graph)
    return Lane(records, time.perf_counter() - start)


def engine_lane(scheme: RoutingScheme, injections: Sequence[Injection],
                rec) -> Lane:
    name = scheme.scheme_name
    start = time.perf_counter()
    with rec.span("simulator.engine_inject", name):
        engine = EventDrivenSimulator(scheme)
        for source, destination, at in injections:
            engine.inject(source, destination, at)
    with rec.span("simulator.engine_run", name):
        records = engine.run()
    with rec.span("simulator.engine_summarize", name):
        summarize(records, engine.network.live_graph)
    return Lane(records, time.perf_counter() - start)


def certified_graph(n: int, seed: int, rec, clock: Optional[_PassClock] = None
                    ) -> LabeledGraph:
    with rec.span("graphs.sample"):
        graph = gnp_random_graph(n, seed=seed)
    with rec.span("graphs.certify"):
        cert = certify_random_graph(graph)
    with clock.check() if clock else contextlib.nullcontext():
        checks.certified(cert)
    return graph


def build(name: str, graph: LabeledGraph, rec) -> RoutingScheme:
    """``build_scheme`` plus every node's local function (built lazily)."""
    with rec.span("core.build", name):
        scheme = build_scheme(name, graph, model_for(name))
        for u in graph.nodes:
            scheme.function(u)
    return scheme


class Workload:
    name = ""

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.sizes = sizes
        rng = random.Random(f"{self.name}:{seed}")
        self.seeds = [rng.randrange(1 << 31) for _ in range(4)]

    def setup(self, rec) -> object:
        raise NotImplementedError

    def measure(self, state: Any, rec) -> Outcome:
        raise NotImplementedError


class GnpPipeline(Workload):
    """Cold ``G(n, 1/2)`` pipeline: sample to verify, three schemes."""

    name = "gnp-pipeline"

    def setup(self, rec) -> object:
        # One small pass through the same code warms imports and
        # first-call paths, so the measured pass times the n-node work.
        self._pass(self.sizes.warm_n, WARM_SEED, 256, rec)
        return None

    def measure(self, state: object, rec) -> Outcome:
        sizes = self.sizes
        return self._pass(sizes.gnp_n, self.seeds[0], sizes.gnp_route_msgs, rec)

    def _pass(self, n: int, graph_seed: int, messages: int, rec) -> Outcome:
        sizes = self.sizes
        clock = _PassClock(rec)
        out = Outcome()
        # Cold as a fresh CLI process: no memoised derivations survive
        # from an earlier repeat, and every scheme object is new.
        clear_context_cache()
        graph = certified_graph(n, graph_seed, rec, clock)
        ctx = get_context(graph)
        with clock.check():
            checks.cold(ctx)
        with rec.span("graphs.distances"):
            distances = ctx.distances()
        with clock.set_aside():
            pick = random.Random(self.seeds[1])
            rows = sorted(pick.sample(range(1, n + 1), min(n, sizes.next_hop_rows)))
            injections = [(s, d, 0.0) for s, d in
                          uniform_pairs(graph, messages, seed=self.seeds[2])]
        for name in GNP_SCHEMES:
            with rec.span("stage", name):
                built = build(name, graph, rec)
                with rec.span("core.pack", name):
                    blob = pack_scheme(built)
                with rec.span("core.unpack", name):
                    unpacked = unpack_blob(blob)
                    restored = restore_scheme(blob, graph, model_for(name))
                with rec.span("graphs.next_hop", name):
                    matrix = ctx.next_hop_matrix(restored)
                with rec.span("core.verify", name):
                    report = verify_scheme(restored, sample_pairs=sizes.verify_pairs,
                                           seed=self.seeds[3])
                with clock.check():
                    checks.packed_bits(built, unpacked)
                    checks.restored_next_hops(built, restored, matrix, rows)
                    checks.verified(name, report)
                out.attempted += report.pairs_checked
                out.failed += len(report.failures) + len(report.violations)
                bits = 8 * len(blob)
                out.bits += bits
                out.counts[f"core.bits.{name}"] = bits
                # Routing over the restored scheme lies outside pipeline_s:
                # it feeds only the two lane throughputs.
                clock.collect()
                with clock.set_aside():
                    kernel = kernel_lane(restored, injections, rec)
                clock.collect()
                with clock.set_aside():
                    engine = engine_lane(restored, injections, rec)
                with clock.check():
                    checks.delivered_paths(kernel.records, graph, distances,
                                           restored.stretch_bound())
                    out.digests[f"{name}.kernel"] = checks.digest(kernel.records)
                    checks.same(f"{name}: kernel against engine records",
                                out.digests[f"{name}.kernel"],
                                checks.digest(engine.records))
                out.add_lanes(kernel, engine)
        out.wall_s = clock.wall()
        out.pipeline_s = out.wall_s - clock.aside
        stats = ctx.cache_stats()
        out.counts["graphs.ctx_hits"] = stats["hits"]
        out.counts["graphs.ctx_misses"] = stats["misses"]
        return out


@dataclass
class RouteState:
    graph: LabeledGraph
    distances: np.ndarray
    schemes: List[RoutingScheme]
    bits: Dict[str, int]
    """Packed size of each scheme, in bits."""
    injections: List[Injection]


class RouteSpread(Workload):
    """Arrivals spread over simulated time, on a stateless and a stateful scheme.

    The certified ``G(n, 1/2)`` and both schemes are provisioned in
    set-up; a pass routes the same messages through both lanes.
    """

    name = "route-spread"

    def setup(self, rec) -> RouteState:
        sizes = self.sizes
        clear_context_cache()
        graph = certified_graph(sizes.route_n, self.seeds[0], rec)
        ctx = get_context(graph)
        with rec.span("graphs.distances"):
            distances = ctx.distances()
        schemes, bits = [], {}
        for name in SPREAD_SCHEMES:
            scheme = build(name, graph, rec)
            with rec.span("core.pack", name):
                bits[name] = 8 * len(pack_scheme(scheme))
            with rec.span("graphs.next_hop", name):
                ctx.next_hop_matrix(scheme)
            schemes.append(scheme)
        clock = random.Random(self.seeds[1])
        injections = [(s, d, clock.uniform(0.0, sizes.spread_horizon))
                      for s, d in uniform_pairs(graph, sizes.spread_msgs,
                                                seed=self.seeds[1])]
        return RouteState(graph, distances, schemes, bits, injections)

    def measure(self, state: RouteState, rec) -> Outcome:
        clock = _PassClock(rec)
        out = Outcome(bits=sum(state.bits.values()))
        out.counts.update((f"core.bits.{name}", b) for name, b in state.bits.items())
        ctx = get_context(state.graph)
        before = ctx.cache_stats()
        for scheme in state.schemes:
            name = scheme.scheme_name
            with rec.span("stage", name):
                clock.collect()
                kernel = kernel_lane(scheme, state.injections, rec)
                clock.collect()
                engine = engine_lane(scheme, state.injections, rec)
                with clock.check():
                    checks.delivered_paths(kernel.records, state.graph,
                                           state.distances, scheme.stretch_bound())
                    out.digests[f"{name}.kernel"] = checks.digest(kernel.records)
                    checks.same(f"{name}: kernel against engine records",
                                out.digests[f"{name}.kernel"],
                                checks.digest(engine.records))
            out.add_lanes(kernel, engine)
        out.wall_s = out.pipeline_s = clock.wall()
        after = ctx.cache_stats()
        out.counts["graphs.ctx_hits"] = after["hits"] - before["hits"]
        out.counts["graphs.ctx_misses"] = after["misses"] - before["misses"]
        return out


WORKLOADS: Dict[str, type] = {w.name: w for w in (GnpPipeline, RouteSpread)}
