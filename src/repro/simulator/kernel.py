"""The timed routing engine: a vectorised batch kernel with a scalar lane.

:class:`BatchKernel` is the only engine that routes messages through
simulated time (:class:`EventDrivenSimulator` is the same class under
its historical name).  Messages live as rows of the struct-of-arrays
:class:`~repro.simulator.message.MessageBatch`; fault, corruption and
churn events sit on a separate control heap and run before any message
due at the same time.

Messages are scheduled on a heap of ``(ready time, entry, rows)``
entries.  Every row carries the sequence number of its last push, so the
rows due at one time (a *cohort*) are taken in push order: injection
order first, then the order in which earlier cohorts moved them.

While nothing outside a row can change its route — no tracer, churn
schedule, pending event, node service time, failure or overlay — every
route is fixed at injection and arrival times only shift timestamps.
The drain then takes the **whole heap** at once into the quiescent drain
(:meth:`BatchKernel._drain_quiescent`), which carries one clock per row
(one float for a same-time burst) and walks every row to completion:
lockstep gather/scatter steps through the next-hop matrix, and the
scalar step at each row's own clock for rows that leave the lockstep.
This holds from the start of a fault-free run, and again once the last
control event has run and left the network clear.

Otherwise the heap is stepped one cohort at a time.  A cohort of fewer
than :data:`SCALAR_COHORT` rows, or any cohort while
``node_service_time`` is positive (nodes then share a FIFO processor),
runs row by row through the scalar step.  A larger cohort splits into
two lanes:

* the **fast lane** — messages whose next step is provably a clean
  advance or a clean delivery.  Eligibility is decided by pure numpy mask
  algebra over precomputed lookups: the scheme's dense next-hop matrix
  (:meth:`~repro.graphs.context.GraphContext.next_hop_matrix`), the
  failure masks (:func:`~repro.simulator.chaos.failure_masks`), the live
  adjacency under churn (:func:`~repro.simulator.churn.adjacency_mask`)
  and overlay masks for corrupted/quarantined/healed/updated tables.
  Fast rows gather their next hop from the matrix, scatter it back in
  one vector operation and go back on the heap as one entry.
* the **slow lane** — everything else: traced messages (span emission),
  arrivals needing promotion, anything adjacent to a failure, overlay or
  churn boundary, stateful headers, hop-limit and loop candidates.  Slow
  rows take the scalar step (:meth:`BatchKernel._step_one`: the fixed
  check order, :meth:`~repro.simulator.network.Network._choose_hop`, drop
  details, spans and counters) in push order.

Because fast-lane eligibility is deliberately conservative — a row is
fast only when no shared state it touches can change within its cohort —
and quiescent rows share no state at all, ``batch=True`` and
``batch=False`` (every row through the scalar step, one cohort at a
time) produce **bit-identical**
:class:`~repro.simulator.message.DeliveryRecord` streams and span
streams.  That equivalence is the batch boundary's contract, enforced by
hypothesis properties over every registered scheme with chaos, churn,
corruption, link latency and queues enabled or with distinct float
arrivals and no faults, and by traced runs that compare span streams.

Retry backoff jitter draws from a *per-message* :class:`random.Random`
seeded as ``retry_seed * 1_000_003 + msg_id``, so a message's backoffs do
not depend on what other messages did.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core import RoutingScheme
from repro.core.full_information import FullInformationFunction
from repro.core.repair import RepairPlan, plan_repair
from repro.errors import IntegrityError, RoutingError
from repro.observability.registry import get_registry
from repro.observability.tracer import Tracer, link_subject, node_subject
from repro.simulator.chaos import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    failure_masks,
)
from repro.simulator.churn import (
    ChurnSchedule,
    TopologyMutation,
    adjacency_mask,
)
from repro.simulator.message import (
    DeliveryRecord,
    DropReason,
    Message,
    MessageBatch,
)
from repro.simulator.network import Network, _live_tracer, _mutation_subject
from repro.simulator.recovery import RetryPolicy

__all__ = ["BatchKernel", "EventDrivenSimulator", "run_batch"]

SCALAR_COHORT = 8
"""Cohorts with fewer rows skip the mask algebra and run row by row."""

# Drops worth retrying: the condition that caused them can heal as the
# fault schedule advances (ROUTING_LOOP: as churn repair converges).  A
# scheme bug (INVALID_FORWARD) cannot.
_RETRYABLE = frozenset(
    {
        DropReason.ENDPOINT_DOWN,
        DropReason.LINK_DOWN,
        DropReason.NODE_DOWN,
        DropReason.HOP_LIMIT,
        DropReason.NO_ROUTE,
        DropReason.QUEUE_OVERFLOW,
        DropReason.TABLE_CORRUPT,
        DropReason.ROUTING_LOOP,
    }
)


@dataclass(frozen=True)
class _RepairTick:
    """Internal event: start planning a repair for one churn generation."""

    generation: int


@dataclass(frozen=True)
class _TableInstall:
    """Internal event: one staggered table install of the active plan."""

    generation: int
    node: int
    final: bool
    """Last install of the plan — convergence finalises after it."""


_Event = Union[FaultEvent, TopologyMutation, _RepairTick, _TableInstall]
_EventEntry = Tuple[float, int, _Event]
_Rows = Union[int, np.ndarray]
"""One heap entry's rows: a single row index or an array in push order."""
_Clock = Union[float, np.ndarray]
"""Ready time of a set of rows: one shared float, or one float per row."""


def _take(clock: _Clock, mask: np.ndarray) -> _Clock:
    """The clock of the rows ``mask`` selects; a shared clock is kept."""
    return clock[mask] if isinstance(clock, np.ndarray) else clock


class BatchKernel:
    """Timed execution of one routing scheme over a message batch.

    Each hop costs ``link_latency`` time units on the wire.  When
    ``node_service_time`` is positive every node also serialises its
    forwarding work (one message at a time, FIFO), so traffic
    concentrating on a node queues up; ``queue_capacity`` (in messages of
    backlog) turns overload into ``QUEUE_OVERFLOW`` drops.

    ``fault_schedule`` interleaves timed link/node failures and table
    corruptions with the traffic; a detected corruption quarantines its
    node and, with ``repair_delay``, heals it that long after detection.
    ``retry_policy`` re-injects retryable drops at their source after a
    backoff.  A ``churn_schedule`` mutates the live topology: after
    ``churn_repair_delay`` a repair plan rebuilds the dirtied tables
    (``incremental_repair=False`` rebuilds all of them), installed at
    once or, with ``churn_repair_rate`` (bits per time unit), one by one.
    Traffic forwarded before convergence is marked ``stale`` and watched
    for routing loops; :meth:`churn_summary` reports the episodes.

    :meth:`inject` schedules messages and :meth:`run` drains them,
    returning one record per message **in injection order**.  An enabled
    tracer receives every span with simulated timestamps; ``tracer=None``
    keeps the untraced lanes free of span calls.  ``batch=False`` routes
    every row through the scalar step — the reference stream the
    vectorised mode must reproduce bit-for-bit.
    """

    def __init__(
        self,
        scheme: Optional[RoutingScheme] = None,
        *,
        network: Optional[Network] = None,
        link_latency: float = 1.0,
        failed_links: Iterable[Tuple[int, int]] = (),
        node_service_time: float = 0.0,
        queue_capacity: Optional[int] = None,
        failed_nodes: Iterable[int] = (),
        fault_schedule: Optional[FaultSchedule] = None,
        retry_policy: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        tracer: Optional[Tracer] = None,
        repair_delay: Optional[float] = None,
        churn_schedule: Optional[ChurnSchedule] = None,
        churn_repair_delay: float = 5.0,
        churn_repair_rate: Optional[float] = None,
        incremental_repair: bool = True,
        batch: bool = True,
    ) -> None:
        if link_latency <= 0:
            raise RoutingError(f"link latency must be positive, got {link_latency}")
        if node_service_time < 0:
            raise RoutingError(
                f"service time must be non-negative, got {node_service_time}"
            )
        if queue_capacity is not None and queue_capacity < 1:
            raise RoutingError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        if repair_delay is not None and repair_delay <= 0:
            raise RoutingError(
                f"repair delay must be positive, got {repair_delay}"
            )
        if churn_repair_delay <= 0:
            raise RoutingError(
                f"churn repair delay must be positive, got {churn_repair_delay}"
            )
        if churn_repair_rate is not None and churn_repair_rate <= 0:
            raise RoutingError(
                f"churn repair rate must be positive, got {churn_repair_rate}"
            )
        if network is not None:
            self._network = network
        elif scheme is not None:
            self._network = Network(scheme, failed_links, failed_nodes)
        else:
            raise RoutingError("BatchKernel needs a scheme or a network")
        if (
            churn_schedule is not None
            and self._network.scheme.address_of(1) != 1
        ):
            # Repaired schemes re-derive their own labels; only plain-label
            # addressing survives a table swap mid-flight.
            raise RoutingError(
                "live topology churn requires a plain-label scheme "
                "(address_of(u) == u)"
            )
        self._batch = batch
        self._latency = link_latency
        self._service = node_service_time
        self._capacity = queue_capacity
        self._schedule = fault_schedule
        self._retry = retry_policy
        self._retry_seed = retry_seed
        self._retry_rngs: Dict[int, random.Random] = {}
        self._repair_delay = repair_delay
        self._tracer = _live_tracer(tracer)
        self._pending: List[Tuple[int, int, int, float, bool]] = []
        self._events: List[_EventEntry] = []
        self._sequence = itertools.count()
        self._control_events = 0
        self._limit = 0
        self._corrupted_at: Dict[int, float] = {}
        self._reacted: Set[int] = set()
        self._hop_sets: Dict[Tuple[int, int], Set[Tuple[int, Any]]] = {}
        self._addresses: Dict[int, Any] = {}
        self._forward_counts: Dict[int, int] = {}
        self._busy_until: Dict[int, float] = {}
        # Live topology churn state.
        self._churn = churn_schedule
        self._churn_delay = churn_repair_delay
        self._churn_rate = churn_repair_rate
        self._incremental = incremental_repair
        self._base_scheme = self._network.scheme
        self._generation = 0
        self._pending_mutations: List[TopologyMutation] = []
        self._stale_since: Optional[float] = None
        self._active_plan: Optional[RepairPlan] = None
        self._plan_installed: Set[int] = set()
        self._aborted_installs: Set[int] = set()
        self._convergence_times: List[float] = []
        self._churn_stats: Dict[str, int] = {
            "mutations": 0,
            "repairs": 0,
            "tables_rebuilt": 0,
            "tables_reused": 0,
            "bits_rewritten": 0,
            "bits_reused": 0,
        }
        # Open trace spans for causal links: corrupt span per damaged
        # node, the latest mutate span (repairs link to it) and the first
        # mutate span of the current churn episode (converged links to it).
        self._corrupt_spans: Dict[int, int] = {}
        self._mutate_span: Optional[int] = None
        self._episode_root_span: Optional[int] = None
        # Vectorised state caches, keyed on Network.state_epoch.
        self._mask_epoch = -1
        self._mask_scheme: Optional[RoutingScheme] = None
        self._matrix: Optional[np.ndarray] = None
        self._scheme_adj: Optional[np.ndarray] = None
        self._fa_nodes: Optional[np.ndarray] = None
        self._fa_any = False
        self._fa_guard = False
        self._link_down: Optional[np.ndarray] = None
        self._node_down: Optional[np.ndarray] = None
        self._quar_like: Optional[np.ndarray] = None
        self._override: Optional[np.ndarray] = None
        self._live_adj: Optional[np.ndarray] = None
        self._node_clear: Optional[np.ndarray] = None
        self._all_clear = False
        self._matrix_complete = False
        self._fwd_vec: Optional[np.ndarray] = None
        self._fwd_pending: List[np.ndarray] = []
        # Message schedule and per-row bookkeeping (sized at drain()).
        self._heap: List[Tuple[float, int, _Rows]] = []
        self._entries = itertools.count()
        self._push_seq = np.zeros(0, dtype=np.int64)
        self._next_seq = 0
        self._has_state = np.zeros(0, dtype=bool)
        self.batch: Optional[MessageBatch] = None

    # -- public surface -------------------------------------------------------

    @property
    def network(self) -> Network:
        """The underlying failure-state holder (live during a run)."""
        return self._network

    @property
    def forward_counts(self) -> Dict[int, int]:
        """Messages forwarded per node in the last :meth:`run`."""
        if self._fwd_pending:
            # The quiescent drain defers its (0-based) hop sources here;
            # one bincount on first read replaces a per-step accumulate.
            vec = self._fwd_vec
            if vec is None:
                n = self._network.scheme.graph.n
                vec = self._fwd_vec = np.zeros(n + 1, dtype=np.int64)
            hop0 = np.concatenate(self._fwd_pending)
            self._fwd_pending = []
            vec[1:] += np.bincount(hop0, minlength=vec.size - 1)
        counts = dict(self._forward_counts)
        if self._fwd_vec is not None:
            for node, count in enumerate(self._fwd_vec.tolist()):
                if count:
                    counts[node] = counts.get(node, 0) + count
        return counts

    def churn_summary(self) -> Dict[str, object]:
        """Episode accounting of the last run's churn convergence.

        ``bits_full`` is what full rebuilds would have pushed over the
        same episodes; ``converged`` reports whether every mutation's
        repair completed before the run drained.
        """
        stats = self._churn_stats
        return {
            "mutations": stats["mutations"],
            "repairs": stats["repairs"],
            "tables_rebuilt": stats["tables_rebuilt"],
            "tables_reused": stats["tables_reused"],
            "bits_rewritten": stats["bits_rewritten"],
            "bits_reused": stats["bits_reused"],
            "bits_full": stats["bits_rewritten"] + stats["bits_reused"],
            "convergence_times": list(self._convergence_times),
            "converged": self._stale_since is None,
        }

    def inject(self, source: int, destination: int, at_time: float = 0.0) -> None:
        """Schedule one message (call before :meth:`run`).

        Raises :class:`RoutingError` when either endpoint is not a node
        ``1..n`` of the scheme's graph.
        """
        self._network.check_endpoints(source, destination)
        msg_id = next(self._network._counter)
        traced = False
        tracer = self._tracer
        if tracer is not None:
            if tracer.wants(msg_id):
                tracer.inject(msg_id, source, destination, time=at_time)
                traced = True
        self._pending.append((msg_id, source, destination, at_time, traced))

    def run(self) -> List[DeliveryRecord]:
        """Drain every injected message; one record per row, row order."""
        return self.drain().records()

    def drain(self) -> MessageBatch:
        """Route every injected message, leaving outcomes in SoA form.

        Returns the finished :class:`MessageBatch` with every row
        inactive.  :meth:`run` is this plus the per-row
        ``DeliveryRecord`` materialisation; consumers that aggregate
        straight from the arrays (the throughput bench's batched lane)
        can stay on the vector side of the boundary.
        """
        nw = self._network
        self._limit = nw.scheme.hop_limit()
        self._hop_sets = {}
        self._retry_rngs = {}
        self._forward_counts = {}
        self._busy_until = {}
        self._fwd_vec = None
        self._fwd_pending = []
        pending, self._pending = self._pending, []
        batch = MessageBatch(
            [p[0] for p in pending],
            [p[1] for p in pending],
            [p[2] for p in pending],
            [p[3] for p in pending],
            self._limit,
        )
        batch.traced[:] = [p[4] for p in pending]
        self._has_state = np.zeros(batch.size, dtype=bool)
        # Injection order is the first push order.
        self._push_seq = np.arange(batch.size, dtype=np.int64)
        self._next_seq = batch.size
        self._heap = self._injection_entries(batch.injected)
        self.batch = batch
        if self._schedule is not None:
            for event in self._schedule:
                heapq.heappush(
                    self._events,
                    (event.time, next(self._sequence), event),
                )
        if self._churn is not None:
            for mutation in self._churn:
                self._push_control(mutation, mutation.time)
        heap = self._heap
        events = self._events
        # Control events (mutations, repair ticks, installs) keep the loop
        # alive past the last message so convergence always completes.
        while heap or self._control_events:
            if heap:
                if self._quiescent():
                    rows, clock = self._pop_all()
                    self._drain_quiescent(batch, rows, clock)
                    continue
                now = heap[0][0]
                while events and events[0][0] <= now:
                    time, _, payload = heapq.heappop(events)
                    self._dispatch_event(payload, time)
                self._step_cohort(batch, self._pop_cohort(now), now)
            else:
                time, _, payload = heapq.heappop(events)
                self._dispatch_event(payload, time)
        events.clear()
        self._control_events = 0
        return batch

    # -- message schedule -----------------------------------------------------

    def _injection_entries(
        self, times: np.ndarray
    ) -> List[Tuple[float, int, _Rows]]:
        """One heap entry per distinct injection time, rows in row order.

        Built from a stable sort, so the list is already a valid heap and
        a burst injected at one time costs one entry, not one per row.
        """
        if not times.size:
            return []
        order = np.argsort(times, kind="stable")
        ordered = times[order]
        cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
        starts = [0, *cuts]
        rows = order.tolist()
        entries: List[Tuple[float, int, _Rows]] = []
        for at, start, end in zip(
            ordered[starts].tolist(), starts, [*cuts, times.size]
        ):
            entries.append((
                at,
                next(self._entries),
                rows[start] if end - start == 1 else order[start:end],
            ))
        return entries

    def _push(self, at_time: float, rows: _Rows) -> None:
        heapq.heappush(self._heap, (at_time, next(self._entries), rows))

    def _pop_cohort(self, now: float) -> _Rows:
        """Pop every entry due at ``now``; rows come back in push order."""
        heap = self._heap
        rows = heapq.heappop(heap)[2]
        if not heap or heap[0][0] != now:
            return rows
        parts = [np.atleast_1d(rows)]
        while heap and heap[0][0] == now:
            parts.append(np.atleast_1d(heapq.heappop(heap)[2]))
        merged = np.concatenate(parts)
        return merged[np.argsort(self._push_seq[merged], kind="stable")]

    def _pop_all(self) -> Tuple[np.ndarray, _Clock]:
        """Empty the heap: every row with its ready time, in heap order.

        The clock is one float when every entry is due at the same time
        (a burst), else a float64 array aligned with the rows.
        """
        heap = self._heap
        times = [entry[0] for entry in heap]
        parts = [entry[2] for entry in heap]
        heap.clear()
        if all(isinstance(part, int) for part in parts):
            rows = np.array(parts, dtype=np.intp)
        else:
            rows = np.concatenate([np.atleast_1d(part) for part in parts])
        if min(times) == max(times):
            return rows, times[0]
        sizes = [1 if isinstance(part, int) else part.size for part in parts]
        return rows, np.repeat(np.array(times), sizes)

    def _number(self, rows: _Rows) -> None:
        """Give ``rows`` the next push sequence numbers, in their order.

        Rows are numbered when their cohort is taken, before any of them
        moves, so a row that is pushed again keeps its place in the
        cohort relative to every other row pushed from it.
        """
        if isinstance(rows, int):
            self._push_seq[rows] = self._next_seq
            self._next_seq += 1
            return
        end = self._next_seq + rows.size
        self._push_seq[rows] = np.arange(self._next_seq, end)
        self._next_seq = end

    # -- event plumbing -------------------------------------------------------

    def _push_control(self, payload: _Event, at_time: float) -> None:
        """Queue a churn control event; keeps the drain loop alive."""
        heapq.heappush(
            self._events, (at_time, next(self._sequence), payload)
        )
        self._control_events += 1

    def _dispatch_event(self, payload: _Event, now: float) -> None:
        if isinstance(payload, FaultEvent):
            self._apply_timed_fault(payload, now)
            return
        self._control_events -= 1
        if isinstance(payload, TopologyMutation):
            self._apply_mutation_event(payload, now)
        elif isinstance(payload, _RepairTick):
            self._start_repair(payload, now)
        else:
            self._apply_install(payload, now)

    def _apply_timed_fault(self, event: FaultEvent, now: float) -> None:
        """Apply one scheduled fault, with corruption-lifecycle tracing.

        The kernel's own network is untraced, so corruption spans are
        emitted here with simulated timestamps; when the kernel adopts an
        externally traced network (:meth:`Network.route_batch`) span
        emission stays with the network and is skipped here.
        """
        tracer = self._tracer
        network_traced = self._network._tracer is not None
        if event.kind is FaultKind.TABLE_CORRUPT:
            node = event.subject[0]
            self._network.apply_fault(event)
            self._corrupted_at[node] = now
            # Fresh damage re-arms detection for this node.
            self._reacted.discard(node)
            if tracer is not None:
                if not network_traced:
                    detail = (
                        event.mutation.describe()
                        if event.mutation is not None
                        else None
                    )
                    self._corrupt_spans[node] = tracer.corrupt(
                        node=node, time=now, detail=detail
                    )
            return
        if event.kind is FaultKind.TABLE_REPAIR:
            node = event.subject[0]
            healed = self._network.heal_table(node)
            self._corrupted_at.pop(node, None)
            self._reacted.discard(node)
            if healed and tracer is not None:
                if not network_traced:
                    tracer.heal(
                        node=node, time=now,
                        cause=self._corrupt_spans.pop(node, None),
                    )
            return
        if tracer is not None:
            subject = (
                link_subject(*event.subject)
                if len(event.subject) == 2
                else node_subject(event.subject[0])
            )
            tracer.fault(kind=event.kind.value, subject=subject, time=now)
        self._network.apply_fault(event)

    def _on_detection(self, node: int, now: float) -> None:
        """React once per corruption episode: record latency, plan the heal."""
        if node in self._reacted:
            return
        self._reacted.add(node)
        tracer = self._tracer
        if tracer is not None:
            if self._network._tracer is None:
                tracer.quarantine(
                    node=node, time=now, cause=self._corrupt_spans.get(node)
                )
        corrupted_since = self._corrupted_at.pop(node, None)
        if corrupted_since is not None:
            get_registry().histogram(
                "repro_corruption_detection_latency"
            ).observe(now - corrupted_since)
        if self._repair_delay is not None:
            heal_time = now + self._repair_delay
            heapq.heappush(
                self._events,
                (
                    heal_time,
                    next(self._sequence),
                    FaultEvent.table_repair(heal_time, node),
                ),
            )

    # -- live topology churn --------------------------------------------------

    def _apply_mutation_event(
        self, mutation: TopologyMutation, now: float
    ) -> None:
        """Mutate the live topology and (re)arm the repair reaction."""
        self._network.apply_mutation(mutation)
        self._pending_mutations.append(mutation)
        self._churn_stats["mutations"] += 1
        if self._stale_since is None:
            self._stale_since = now
        if self._active_plan is not None:
            # A newer mutation invalidates the in-flight repair; whatever
            # it already installed describes neither the old nor the next
            # converged graph, so those nodes are forced dirty next plan.
            self._aborted_installs |= self._plan_installed
            self._active_plan = None
            self._plan_installed = set()
        self._generation += 1
        tracer = self._tracer
        if tracer is not None:
            if self._network._tracer is None:
                self._mutate_span = tracer.mutate(
                    kind=mutation.kind.value,
                    subject=_mutation_subject(mutation),
                    time=now,
                    detail=mutation.describe(),
                )
            else:
                # Adopted traced network: apply_mutation already emitted
                # the span; reuse it as the episode cause.
                self._mutate_span = self._network._mutate_span
            if self._episode_root_span is None:
                self._episode_root_span = self._mutate_span
        self._push_control(
            _RepairTick(self._generation), now + self._churn_delay
        )

    def _start_repair(self, tick: _RepairTick, now: float) -> None:
        """Plan the repair for the current generation and begin installs."""
        if tick.generation != self._generation or self._active_plan is not None:
            return  # superseded by a newer mutation
        plan = plan_repair(
            self._base_scheme,
            self._network.live_graph,
            full=not self._incremental,
            extra_dirty=self._aborted_installs,
        )
        self._active_plan = plan
        self._plan_installed = set()
        stats = self._churn_stats
        stats["repairs"] += 1
        stats["tables_rebuilt"] += len(plan.dirty)
        stats["tables_reused"] += len(plan.clean)
        stats["bits_rewritten"] += plan.bits_rewritten
        stats["bits_reused"] += plan.bits_reused
        get_registry().counter("repro_churn_repairs_total").inc()
        if not plan.table_bits or self._churn_rate is None:
            for node, _bits in plan.table_bits:
                self._install_node(plan, node, now)
            self._finalize_convergence(now)
            return
        elapsed = 0.0
        last = len(plan.table_bits) - 1
        for index, (node, bits) in enumerate(plan.table_bits):
            # Deliberate ratio: bits over a bits-per-time rate is a time.
            elapsed += bits / self._churn_rate  # repro-lint: disable=R001
            self._push_control(
                _TableInstall(tick.generation, node, index == last),
                now + elapsed,
            )

    def _install_node(self, plan: RepairPlan, node: int, now: float) -> None:
        """Install one repaired table, decoded from its pristine bits.

        Going through ``decode_function`` on the memoised pristine
        encoding — the heal machinery's re-install path — rather than the
        scheme's in-memory function keeps repaired tables on the same
        serialised-knowledge footing as corruption heals.
        """
        scheme = plan.new_scheme
        bits = scheme.ctx.pristine_bits(scheme, node)
        self._network.install_table(node, scheme.decode_function(node, bits))
        self._plan_installed.add(node)
        tracer = self._tracer
        if tracer is not None:
            tracer.repair(
                node=node, time=now,
                detail=f"{len(bits)} bits reinstalled",
                cause=self._mutate_span,
            )

    def _apply_install(self, install: _TableInstall, now: float) -> None:
        """Apply one staggered install; the final one converges."""
        if install.generation != self._generation or self._active_plan is None:
            return  # superseded by a newer mutation
        self._install_node(self._active_plan, install.node, now)
        if install.final:
            self._finalize_convergence(now)

    def _finalize_convergence(self, now: float) -> None:
        """Swap in the converged scheme and close the churn episode."""
        plan = self._active_plan
        assert plan is not None
        self._network.install_scheme(plan.new_scheme)
        self._base_scheme = plan.new_scheme
        histogram = get_registry().histogram("repro_churn_convergence_time")
        for mutation in self._pending_mutations:
            histogram.observe(now - mutation.time)
        duration = (
            now - self._stale_since if self._stale_since is not None else 0.0
        )
        self._convergence_times.append(duration)
        tracer = self._tracer
        if tracer is not None:
            tracer.converged(
                time=now, duration=duration, detail=plan.describe(),
                cause=self._episode_root_span,
            )
            self._episode_root_span = None
        self._pending_mutations = []
        self._stale_since = None
        self._active_plan = None
        self._plan_installed = set()
        self._aborted_installs = set()

    # -- vectorised masks -----------------------------------------------------

    def _quiescent(self) -> bool:
        """Whether no row's route can change from here on.

        True in batch mode with no tracer, churn schedule, pending event
        or node service time, on a network with no failure or overlay
        (checked last: it may rebuild the cached masks).
        """
        if (
            not self._batch
            or self._tracer is not None
            or self._churn is not None
            or self._events
            or self._service > 0
        ):
            return False
        self._refresh_state()
        return self._all_clear

    def _refresh_state(self) -> None:
        """Rebuild the cached masks when the network's state epoch moved."""
        nw = self._network
        scheme = nw.scheme
        if nw.state_epoch == self._mask_epoch and scheme is self._mask_scheme:
            return
        n = scheme.graph.n
        if scheme is not self._mask_scheme:
            self._mask_scheme = scheme
            self._matrix = scheme.ctx.next_hop_matrix(scheme)
            if self._matrix is not None:
                # Complete off the diagonal means the quiescent drain can
                # skip the per-step no-route check entirely.
                off_diag = self._matrix.copy()
                np.fill_diagonal(off_diag, 1)
                self._matrix_complete = bool((off_diag >= 1).all())
            else:
                self._matrix_complete = False
            fa = np.zeros(n + 1, dtype=bool)
            if self._matrix is not None:
                for u in scheme.graph.nodes:
                    if isinstance(scheme.function(u), FullInformationFunction):
                        fa[u] = True
            self._fa_nodes = fa
            self._fa_any = bool(fa.any())
            self._scheme_adj = adjacency_mask(scheme.graph)
        self._link_down, self._node_down = failure_masks(
            n, nw._failed, nw._failed_nodes
        )
        quar_like = np.zeros(n + 1, dtype=bool)
        for u in nw._quarantined:
            quar_like[u] = True
        override = quar_like.copy()
        # Corrupted tables count as quarantine-like: a mid-cohort detection
        # can only quarantine an already-corrupted node, so excluding them
        # up front keeps fast advances independent of slow-lane ordering.
        for u in nw._corrupt_tables:
            quar_like[u] = True
            override[u] = True
        for u in nw._healed_functions:
            override[u] = True
        for u in nw._updated_functions:
            override[u] = True
        self._quar_like = quar_like
        self._override = override
        if nw.churned:
            self._live_adj = adjacency_mask(nw.live_graph)
        self._all_clear = not (
            nw._failed
            or nw._failed_nodes
            or nw._quarantined
            or nw._corrupt_tables
            or nw._healed_functions
            or nw._updated_functions
            or nw.churned
        )
        blocked_now = bool(
            nw._failed or nw._failed_nodes or nw._quarantined or nw._churned
        )
        self._fa_guard = self._fa_any and (
            blocked_now or bool(nw._corrupt_tables)
        )
        if self._fa_guard:
            assert self._scheme_adj is not None
            bad = self._node_down | quar_like
            adjacency = self._scheme_adj
            if nw.churned and self._live_adj is not None:
                adjacency = adjacency | self._live_adj
                blocked_edge = adjacency & (
                    self._link_down | bad[None, :] | ~self._live_adj
                )
            else:
                blocked_edge = adjacency & (self._link_down | bad[None, :])
            self._node_clear = ~blocked_edge.any(axis=1)
        self._mask_epoch = nw.state_epoch

    # -- cohort stepping ------------------------------------------------------

    def _step_cohort(self, batch: MessageBatch, rows: _Rows, now: float) -> None:
        """Move every row due at ``now``; ``rows`` is in push order."""
        self._number(rows)
        if (
            isinstance(rows, int)
            or rows.size < SCALAR_COHORT
            or not self._batch
            or self._service > 0
        ):
            self._step_rows(batch, rows, now)
            return
        self._refresh_state()
        node_down = self._node_down
        quar_like = self._quar_like
        override = self._override
        link_down = self._link_down
        assert node_down is not None and quar_like is not None
        assert override is not None and link_down is not None
        cur = batch.current[rows]
        dst = batch.destination[rows]
        arrived = cur == dst
        traced = batch.traced[rows]
        deliver = arrived & ~node_down[dst]
        if self._tracer is not None:
            # Traced and stale deliveries emit spans (or a promotion):
            # exact scalar path.
            deliver &= ~traced & ~batch.stale[rows]
        fast = np.zeros(rows.size, dtype=bool)
        nxt = np.ones(rows.size, dtype=np.int32)
        matrix = self._matrix
        if matrix is not None:
            fast = ~arrived
            fast &= ~traced
            fast &= ~self._has_state[rows]
            fast &= (batch.plen[rows] - 1) < self._limit
            fast &= ~override[cur]
            fast &= ~node_down[cur]
            nxt = matrix[cur - 1, dst - 1]
            fast &= nxt >= 1
            nxt = np.where(fast, nxt, 1).astype(np.int32)
            fast &= ~quar_like[nxt]
            fast &= ~node_down[nxt]
            fast &= ~link_down[cur, nxt]
            if self._network.churned and self._live_adj is not None:
                fast &= self._live_adj[cur, nxt]
            if self._fa_guard:
                assert self._fa_nodes is not None
                assert self._node_clear is not None
                fast &= ~self._fa_nodes[cur] | self._node_clear[cur]
            if self._churn is not None and bool(fast.any()):
                # Routing-loop candidates drop through the scalar path.
                span = int(batch.plen[rows].max())
                prefix = batch.path[rows, :span]
                cols = np.arange(span)[None, :]
                revisit = (prefix == cur[:, None]) & (
                    cols < (batch.plen[rows] - 1)[:, None]
                )
                fast &= ~revisit.any(axis=1)
        deliver_rows = rows[deliver]
        fast_rows = rows[fast]
        slow = ~deliver & ~fast
        if deliver_rows.size:
            batch.delivered[deliver_rows] = True
            batch.completed[deliver_rows] = now
            batch.active[deliver_rows] = False
        if fast_rows.size:
            self._advance_fast(batch, fast_rows, nxt[fast], now)
        self._step_rows(batch, rows[slow], now)

    def _step_rows(self, batch: MessageBatch, rows: _Rows, now: float) -> None:
        """The scalar step for each of ``rows``, in their order.

        Without service time every row that forwards arrives at the same
        time, so they go back on the heap as one entry, in this order.
        """
        moved: List[int] = []
        arrival = now
        for i in [rows] if isinstance(rows, int) else rows.tolist():
            forwarded = self._step_one(batch, i, now)
            if forwarded is None:
                continue
            arrival = forwarded
            if self._service > 0:
                self._push(arrival, i)
            else:
                moved.append(i)
        if moved:
            self._push(arrival, moved[0] if len(moved) == 1 else np.array(moved))

    def _drain_quiescent(
        self, batch: MessageBatch, rows: np.ndarray, clock: _Clock
    ) -> None:
        """Walk every row to completion, each at its own clock.

        Entered only when nothing outside a row can perturb it (see
        :meth:`_quiescent`), so rows are mutually independent and each
        route is fixed: arrival times only shift timestamps.  ``clock``
        is one float when all rows share a ready time, else one float per
        row; either advances by ``link_latency`` per step — the repeated
        addition the scalar step does, so completion times are
        bit-identical to the scalar lane.

        Rows advance in lockstep: one arrival compare plus one next-hop
        matrix gather per step — the untraced hot path the throughput
        bench measures; arrivals deliver unconditionally.  Rows that
        carry header state, hit the hop limit or lack a matrix entry —
        every row, for a scheme without a matrix — leave the lockstep
        and walk to completion through the scalar step (:meth:`_walk`)
        without a heap round trip; only a retry goes back on the heap.
        """
        matrix = self._matrix
        if matrix is None:
            self._walk(batch, rows, clock)
            return
        limit = self._limit
        idx = rows
        # Row position is kept in compacted local copies; the shared
        # arrays are scattered to only when a row delivers, leaves for
        # the scalar lane, or the drain hands control back.
        cur0 = batch.current[idx] - 1
        dst0 = batch.destination[idx] - 1
        plen = batch.plen[idx]
        state_any = bool(self._has_state[idx].any())
        # Steps every row can take before any could trip the hop limit
        # (hops = plen - 1 grows by one per step); until then the limit
        # check is provably redundant.
        safe_steps = limit - int(plen.max())
        needed = int(plen.max()) + 1
        complete = self._matrix_complete
        # Deliveries and forward counts are deferred and flushed in one
        # shot after the loop; nothing inside the drain reads them back.
        done_idx: List[np.ndarray] = []
        done_plen: List[np.ndarray] = []
        done_time: List[_Clock] = []
        while True:
            arrived = cur0 == dst0
            if arrived.any():
                done_idx.append(idx[arrived])
                done_plen.append(plen[arrived])
                done_time.append(_take(clock, arrived))
                keep = ~arrived
                idx = idx[keep]
                if not idx.size:
                    break
                cur0 = cur0[keep]
                dst0 = dst0[keep]
                plen = plen[keep]
                clock = _take(clock, keep)
            nxt = matrix[cur0, dst0]
            if state_any or safe_steps <= 0 or not complete:
                ok = nxt >= 1
                if state_any:
                    ok &= ~self._has_state[idx]
                if safe_steps <= 0:
                    ok &= (plen - 1) < limit
                if not ok.all():
                    leave = ~ok
                    out = idx[leave]
                    batch.current[out] = cur0[leave] + 1
                    batch.plen[out] = plen[leave]
                    out_clock = _take(clock, leave)
                    idx = idx[ok]
                    cur0 = cur0[ok]
                    dst0 = dst0[ok]
                    plen = plen[ok]
                    nxt = nxt[ok]
                    clock = _take(clock, ok)
                    if not self._walk(batch, out, out_clock):
                        # A slow row touched shared network state; hand
                        # the rest back to the mask-checked path.
                        batch.current[idx] = cur0 + 1
                        batch.plen[idx] = plen
                        self._push_back(idx, clock)
                        break
                    if not idx.size:
                        break
                    if state_any:
                        state_any = bool(self._has_state[idx].any())
            self._fwd_pending.append(cur0)
            batch.ensure_path_capacity(needed)
            batch.path[idx, plen] = nxt
            plen = plen + 1
            cur0 = nxt - 1
            clock += self._latency
            safe_steps -= 1
            needed += 1
        if done_idx:
            done = np.concatenate(done_idx)
            batch.delivered[done] = True
            batch.active[done] = False
            batch.current[done] = batch.destination[done]
            batch.plen[done] = np.concatenate(done_plen)
            batch.completed[done] = np.concatenate([
                np.broadcast_to(times, part.shape)
                for times, part in zip(done_time, done_idx)
            ])

    def _walk(
        self, batch: MessageBatch, rows: np.ndarray, clock: _Clock
    ) -> bool:
        """Scalar-step each of ``rows`` to completion at its own clock.

        A retry goes back on the heap (:meth:`_finish` pushes it).
        Returns False when a step moved the network's state epoch; the
        rows not yet walked are then back on the heap at their own times.
        """
        nw = self._network
        times = np.broadcast_to(clock, rows.shape)
        ready = times.tolist()
        for k in range(rows.size):
            i = rows.item(k)
            at: Optional[float] = ready[k]
            while at is not None:
                at = self._step_one(batch, i, at)
                if nw.state_epoch != self._mask_epoch:
                    rest, rest_times = rows[k + 1:], times[k + 1:]
                    if at is not None:
                        rest = np.concatenate(([i], rest))
                        rest_times = np.concatenate(([at], rest_times))
                    self._push_back(rest, rest_times)
                    return False
        return True

    def _push_back(self, rows: np.ndarray, clock: _Clock) -> None:
        """Return ``rows`` to the heap at their own times, in this order."""
        self._number(rows)
        times = np.broadcast_to(clock, rows.shape).tolist()
        for i, at in zip(rows.tolist(), times):
            self._push(at, i)

    def _count_forwards(self, hop_from: np.ndarray) -> None:
        """Accumulate per-node forward counts without a Python loop."""
        vec = self._fwd_vec
        if vec is None:
            n = self._network.scheme.graph.n
            vec = self._fwd_vec = np.zeros(n + 1, dtype=np.int64)
        vec += np.bincount(hop_from, minlength=vec.size)

    def _advance_fast(
        self,
        batch: MessageBatch,
        fast_rows: np.ndarray,
        next_nodes: np.ndarray,
        now: float,
    ) -> None:
        """Scatter one clean hop for every fast-lane row; one heap entry."""
        self._count_forwards(batch.current[fast_rows])
        batch.ensure_path_capacity(int(batch.plen[fast_rows].max()) + 1)
        batch.path[fast_rows, batch.plen[fast_rows]] = next_nodes
        batch.plen[fast_rows] += 1
        batch.current[fast_rows] = next_nodes
        arrival = now + self._latency
        if self._churn is not None and self._stale_since is not None:
            batch.stale[fast_rows] = True
        self._push(arrival, fast_rows)

    # -- scalar step ----------------------------------------------------------

    def _address_of(self, destination: int) -> Any:
        address = self._addresses.get(destination)
        if address is None:
            address = self._network.scheme.address_of(destination)
            self._addresses[destination] = address
        return address

    def _step_one(
        self, batch: MessageBatch, i: int, now: float
    ) -> Optional[float]:
        """One scalar step for row ``i``: deliver, drop, retry or forward.

        Returns the arrival time when the row forwarded; the caller puts
        it back on the heap.
        """
        nw = self._network
        current = batch.current.item(i)
        destination = batch.destination.item(i)
        hops = batch.plen.item(i) - 1
        if current == destination:
            if current in nw._failed_nodes:
                self._finish(
                    batch, i, now,
                    DropReason.ENDPOINT_DOWN,
                    f"destination {current} crashed before arrival",
                    subject=node_subject(current),
                )
            else:
                self._finish(batch, i, now, None)
            return
        if current in nw._failed_nodes:
            reason = (
                DropReason.ENDPOINT_DOWN if hops == 0 else DropReason.NODE_DOWN
            )
            self._finish(
                batch, i, now, reason,
                f"node {current} holding the message is down",
                subject=node_subject(current),
            )
            return
        if current in nw._quarantined:
            self._finish(
                batch, i, now,
                DropReason.TABLE_CORRUPT,
                f"node {current} is quarantined with a corrupt table",
                subject=node_subject(current),
            )
            return
        if hops >= self._limit:
            self._finish(
                batch, i, now,
                DropReason.HOP_LIMIT,
                f"hop limit {self._limit} exceeded",
            )
            return
        state = batch.state[i]
        if self._churn is not None:
            if self._stale_since is not None:
                batch.stale[i] = True
            if self._looped(batch, i, current, state):
                get_registry().counter("repro_routing_loops_total").inc()
                self._finish(
                    batch, i, now,
                    DropReason.ROUTING_LOOP,
                    f"revisited node {current} with identical header "
                    f"state during churn convergence",
                    subject=node_subject(current),
                )
                return
        message = Message(
            msg_id=batch.msg_id.item(i),
            source=batch.source.item(i),
            destination=destination,
            address=self._address_of(destination),
            state=state,
            attempt=batch.attempt.item(i),
        )
        try:
            decision = nw._choose_hop(current, message)
        except IntegrityError as exc:
            self._on_detection(current, now)
            self._finish(
                batch, i, now,
                DropReason.TABLE_CORRUPT,
                str(exc),
                subject=node_subject(current),
            )
            return
        except RoutingError as exc:
            self._finish(batch, i, now, DropReason.NO_ROUTE, str(exc))
            return
        next_node = decision.next_node
        if next_node in nw._quarantined and next_node != destination:
            self._finish(
                batch, i, now,
                DropReason.TABLE_CORRUPT,
                f"next hop {next_node} is quarantined with a corrupt table",
                subject=node_subject(next_node),
            )
            return
        if (
            nw.churned
            and next_node != current
            and not nw.live_graph.has_edge(current, next_node)
        ):
            if nw.scheme.graph.has_edge(current, next_node):
                # Stale table forwarding over a mutated-away edge.
                self._finish(
                    batch, i, now,
                    DropReason.LINK_DOWN,
                    f"link {current}-{next_node} was removed by a "
                    f"topology mutation",
                    subject=link_subject(current, next_node),
                )
            else:
                self._finish(
                    batch, i, now,
                    DropReason.INVALID_FORWARD,
                    f"{current} forwarded to non-adjacent {next_node}",
                )
            return
        if nw._failed and frozenset((current, next_node)) in nw._failed:
            self._finish(
                batch, i, now,
                DropReason.LINK_DOWN,
                f"link {current}-{next_node} is down",
                subject=link_subject(current, next_node),
            )
            return
        if next_node in nw._failed_nodes:
            self._finish(
                batch, i, now,
                DropReason.NODE_DOWN,
                f"node {next_node} is down",
                subject=node_subject(next_node),
            )
            return
        # Serialise forwarding through the node's processor.
        departure = now
        if self._service > 0:
            busy = self._busy_until.get(current, 0.0)
            backlog = max(busy - now, 0.0)
            if (
                self._capacity is not None
                and backlog / self._service >= self._capacity
            ):
                self._finish(
                    batch, i, now,
                    DropReason.QUEUE_OVERFLOW,
                    f"queue overflow at node {current}",
                    subject=node_subject(current),
                )
                return
            departure = max(now, busy) + self._service
            self._busy_until[current] = departure
        self._forward_counts[current] = (
            self._forward_counts.get(current, 0) + 1
        )
        arrival = departure + self._latency
        tracer = self._tracer
        if tracer is not None and batch.traced.item(i):
            tracer.hop(
                batch.msg_id.item(i),
                node=current,
                next_node=next_node,
                hop=hops,
                time=now,
                duration=arrival - now,
                attempt=batch.attempt.item(i),
            )
        batch.state[i] = decision.state
        if decision.state is not None:
            self._has_state[i] = True
        batch.append_hop(i, next_node)
        return arrival

    def _looped(
        self, batch: MessageBatch, i: int, current: int, state: Any
    ) -> bool:
        """The per-attempt ``(node, state)`` revisit check.

        While every header state of the attempt has been ``None`` the
        seen-set is exactly the previously visited nodes, so the
        path prefix answers membership without a side table.  Once a
        non-``None`` state appears the row is pinned to the slow lane and
        an explicit seen-set takes over, seeded from the (all-``None``)
        path prefix.
        """
        if not self._has_state[i]:
            plen = batch.plen.item(i)
            for j in range(plen - 1):
                if batch.path.item(i, j) == current:
                    return True
            return False
        key = (batch.msg_id.item(i), batch.attempt.item(i))
        seen = self._hop_sets.get(key)
        if seen is None:
            seen = {
                (batch.path.item(i, j), None)
                for j in range(batch.plen.item(i) - 1)
            }
            self._hop_sets[key] = seen
        entry = (current, state)
        try:
            looped = entry in seen
            if not looped:
                seen.add(entry)
        except TypeError:
            # Unhashable header state: loop detection skipped; the hop
            # limit still bounds the walk.
            looped = False
        return looped

    def _finish(
        self,
        batch: MessageBatch,
        i: int,
        now: float,
        reason: Optional[DropReason],
        detail: Optional[str] = None,
        subject: Optional[Tuple[str, ...]] = None,
    ) -> None:
        """Record a final outcome or re-arm the row for a retry."""
        tracer = self._tracer
        msg_id = batch.msg_id.item(i)
        source = batch.source.item(i)
        destination = batch.destination.item(i)
        attempt = batch.attempt.item(i)
        traced = batch.traced.item(i)
        stale = batch.stale.item(i)
        hops = batch.plen.item(i) - 1
        injected_at = batch.injected.item(i)
        if reason is None:
            if tracer is not None and (traced or stale):
                if not traced:
                    tracer.promote(msg_id, source, destination, injected_at)
                tracer.deliver(
                    msg_id,
                    node=destination,
                    time=now,
                    hop=hops,
                    attempt=attempt,
                    detail="stale" if stale else None,
                )
            batch.finish_delivered(i, now)
            return
        if (
            self._retry is not None
            and reason in _RETRYABLE
            and attempt < self._retry.max_retries
        ):
            rng = self._retry_rngs.get(msg_id)
            if rng is None:
                rng = random.Random(self._retry_seed * 1_000_003 + msg_id)
                self._retry_rngs[msg_id] = rng
            backoff = self._retry.delay(attempt, rng)
            if tracer is not None:
                if not traced:
                    tracer.promote(msg_id, source, destination, injected_at)
                tracer.retry(
                    msg_id,
                    source=source,
                    attempt=attempt + 1,
                    time=now,
                    reason=reason.name,
                    duration=backoff,
                )
            batch.reset_for_retry(i)
            self._push(now + backoff, i)
            self._has_state[i] = False
            if tracer is not None:
                # A retry is traced again, whatever the sampler decided.
                batch.traced[i] = True
            return
        if tracer is not None:
            if not traced:
                tracer.promote(msg_id, source, destination, injected_at)
            tracer.drop(
                msg_id,
                node=batch.current.item(i),
                reason=reason.name,
                time=now,
                detail=detail,
                subject=subject,
                attempt=attempt,
                hop=hops,
            )
        batch.finish_dropped(i, reason, detail, now)


def run_batch(
    scheme: RoutingScheme,
    pairs: Iterable[Tuple[int, int]],
    *,
    batch: bool = True,
    **kwargs: Any,
) -> List[DeliveryRecord]:
    """Route ``pairs`` through a fresh :class:`BatchKernel` at time 0.

    Convenience wrapper for the common all-at-once workload; keyword
    arguments pass through to the kernel constructor.
    """
    kernel = BatchKernel(scheme, batch=batch, **kwargs)
    for source, destination in pairs:
        kernel.inject(source, destination)
    return kernel.run()


EventDrivenSimulator = BatchKernel
"""The timed engine under its historical name (one class, two names)."""
