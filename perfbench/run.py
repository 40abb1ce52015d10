"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is imported from ``./src``; there is nothing to build.  A run
imports the package, sets the workload up ``setup_reps`` times, makes
one discarded warm-up pass, then measures whole passes for ``--seconds``
(at least one) and reports medians over them.  Every pass checks its
outputs, and all passes of a run must produce the same record digests.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

whose metrics are the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  A traced run alternates untraced and
traced passes: the untraced ones give the lane throughputs and the
reference for ``trace_overhead_frac``.  It writes its spans to
``.perfbench/`` under the checkout root.  One line per measured pass
goes to standard error.

Exit status: 0 with a result line; 1 when a correctness check fails;
2 on bad arguments or a checkout without ``src/repro``.  Neither failure
prints a result line.  ``--smoke`` swaps in tiny inputs, for tests.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NAMES = ("gnp-pipeline", "route-spread")


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks the harness, not the program")
    return parser.parse_args(argv)


def _median_where(times: Dict[str, Dict[str, float]], passes: List[str],
                  name: str) -> Optional[float]:
    values = [times[p][name] for p in passes if name in times.get(p, {})]
    return statistics.median(values) if values else None


def _summary(outcome: "workloads.Outcome") -> str:
    return (f"wall {outcome.wall_s:.4f} s, pipeline {outcome.pipeline_s:.4f} s, "
            f"kernel {outcome.kernel_msgs / outcome.kernel_s:.1f} msg/s, "
            f"engine {outcome.engine_msgs / outcome.engine_s:.1f} msg/s")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, import_s: float = 0.0) -> dict:
    """One run: set-up, measured passes, checks; returns the result object.

    Raises :class:`perfbench.checks.CheckFailed` on a wrong output.
    """
    from perfbench import checks, trace as tracing, workloads

    sizes = workloads.SMOKE if smoke else workloads.FULL
    workload = workloads.WORKLOADS[workload_name](sizes, seed)
    rec = tracing.Recorder() if trace else tracing.NULL

    setups = []
    state = None
    for i in range(sizes.setup_reps):
        start = time.perf_counter()
        with rec.workload_pass(f"setup-{i}"):
            state = workload.setup(rec)
        setups.append(time.perf_counter() - start)

    # A discarded first pass takes first-call costs (lazy imports, the
    # allocator's growth) out of the measured ones.
    warm_up = workload.measure(state, tracing.NULL)
    timed: List["workloads.Outcome"] = []
    untraced: List["workloads.Outcome"] = []
    measured: List[str] = []
    start = time.perf_counter()
    last = 0.0
    # Whole passes until the next one would end past ``seconds``.  A
    # traced run alternates an untraced pass with a traced one, so that
    # both see the same stretch of host load.
    while not measured or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if trace:
            untraced.append(workload.measure(state, tracing.NULL))
        pass_id = f"measure-{len(measured)}"
        with rec.workload_pass(pass_id):
            timed.append(workload.measure(state, rec))
        measured.append(pass_id)
        last = time.perf_counter() - began
        print(f"pass {len(measured)}: {_summary(timed[-1])}", file=sys.stderr)
    checks.repeats([p.digests for p in [warm_up, *untraced, *timed]])

    attempted = sum(p.attempted for p in timed)
    failed = sum(p.failed for p in timed)
    if trace:
        times = tracing.layer_seconds(rec.spans)
        setup_ids = [f"setup-{i}" for i in range(sizes.setup_reps)]
        metrics: Dict[str, float] = {}
        for name, unit in workloads.PER_LAYER:
            if unit == "s":
                value = _median_where(times, measured, name)
                if value is None:
                    value = _median_where(times, setup_ids, name)
                metrics[name] = 0.0 if value is None else value
            else:
                metrics[name] = statistics.median(p.counts.get(name, 0) for p in timed)
        # Lane throughputs come from the untraced passes, as a user sees them.
        metrics["kernel_msgs_per_s"] = statistics.median(
            p.kernel_msgs / p.kernel_s for p in untraced)
        metrics["engine_msgs_per_s"] = statistics.median(
            p.engine_msgs / p.engine_s for p in untraced)
        metrics["trace.unattributed_frac"] = statistics.median(
            tracing.unattributed_share(rec.spans, p) for p in measured)
        metrics["trace_overhead_frac"] = (
            statistics.median(p.wall_s for p in timed)
            / statistics.median(p.wall_s for p in untraced) - 1.0)
        units = dict(workloads.PER_LAYER)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(out_dir, f"spans-{workload_name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "pipeline_s": statistics.median(p.pipeline_s for p in timed),
            "bits_total": timed[-1].bits,
            "delivered_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(workloads.END_TO_END)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    # One process and one thread: keep BLAS from starting a pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [SRC, ROOT]
    start = time.perf_counter()
    from perfbench import checks, workloads  # noqa: F401  (imports the program)
    import_s = time.perf_counter() - start

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     smoke=args.smoke, import_s=import_s)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
