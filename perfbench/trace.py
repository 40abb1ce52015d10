"""In-memory spans around the benchmark's calls into each layer.

A traced run wraps every public call it makes into the program in a
span: name, start, end, parent span, and the id of the workload pass it
belongs to (``setup-0``, ``measure-1``, ...).  Spans stay in memory and
are written out as JSON lines when the run ends.

Three kinds of span:

* **layer** spans, named ``<package>.<stage>`` (``core.pack``,
  ``simulator.drain``, ...), optionally tagged with a scheme; they never
  nest inside one another;
* **excluded** spans around correctness checks (``check``) and the
  heap collections that start each lane (``gc``), which are not part of
  the measured work and are subtracted from the pass's wall time;
* **structural** spans (``pass`` and ``stage``), whose self time is the
  benchmark's own glue: the *unattributed* share of wall time.

An untraced run uses :data:`NULL`, whose ``span`` returns one shared
no-op context manager, so the instrumented code paths are identical in
both modes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

STRUCTURAL = ("pass", "stage")
EXCLUDED = ("check", "gc")


@dataclass
class Span:
    span_id: int
    name: str
    scheme: Optional[str]
    pass_id: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_layer(self) -> bool:
        return self.name not in STRUCTURAL and self.name not in EXCLUDED


class Recorder:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self._pass_id = ""

    @contextlib.contextmanager
    def span(self, name: str, scheme: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(next(self._ids), name, scheme, self._pass_id, parent,
                      time.perf_counter())
        self._stack.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    @contextlib.contextmanager
    def workload_pass(self, pass_id: str) -> Iterator[None]:
        """Root span of one set-up or measured pass."""
        previous, self._pass_id = self._pass_id, pass_id
        try:
            with self.span("pass"):
                yield
        finally:
            self._pass_id = previous

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")


class _NullRecorder:
    """The untraced mode: every span is the same no-op context manager."""

    _noop = contextlib.nullcontext()

    def span(self, name: str, scheme: Optional[str] = None) -> contextlib.nullcontext:
        return self._noop

    def workload_pass(self, pass_id: str) -> contextlib.nullcontext:
        return self._noop


NULL = _NullRecorder()


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    The benchmark is single-threaded, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered: Dict[int, float] = {}
    for record in spans:
        if record.parent is not None:
            covered[record.parent] = covered.get(record.parent, 0.0) + record.duration
    return {s.span_id: s.duration - covered.get(s.span_id, 0.0) for s in spans}


def layer_seconds(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per pass id, the self time of every layer, in seconds.

    Keys are ``<layer>_s`` (summed over schemes) and, for spans tagged
    with a scheme, also ``<layer>_s.<scheme>``.
    """
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for record in spans:
        if not record.is_layer:
            continue
        per_pass = out.setdefault(record.pass_id, {})
        keys = [f"{record.name}_s"]
        if record.scheme is not None:
            keys.append(f"{record.name}_s.{record.scheme}")
        for key in keys:
            per_pass[key] = per_pass.get(key, 0.0) + own[record.span_id]
    return out


def unattributed_share(spans: List[Span], pass_id: str) -> float:
    """Share of one pass's wall time (excluded spans aside) outside layer spans."""
    own = self_times(spans)
    members = [s for s in spans if s.pass_id == pass_id]
    wall = sum(own[s.span_id] for s in members if s.name not in EXCLUDED)
    glue = sum(own[s.span_id] for s in members if s.name in STRUCTURAL)
    if wall <= 0.0:
        raise ValueError(f"pass {pass_id!r} recorded no time")
    return glue / wall
