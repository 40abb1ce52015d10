"""Tests of the benchmark harness itself.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
Smoke-sized runs of every workload must emit every metric BENCHMARK.json
names, with its unit; a seeded wrong output must trip each check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, run, workloads
from repro.core import VerificationReport, build_scheme, pack_scheme, unpack_blob
from repro.graphs import (
    GraphContext,
    certify_random_graph,
    clear_context_cache,
    get_context,
    gnp_random_graph,
    path_graph,
)
from repro.simulator import BatchKernel

ROOT = run.ROOT
SEED = 3


def _declared(key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec, [(m["name"], m["unit"]) for m in spec[key]]


def test_declared_metrics_match_the_code():
    spec, end_to_end = _declared("end_to_end")
    _, per_layer = _declared("per_layer")
    assert end_to_end == list(workloads.END_TO_END)
    assert per_layer == list(workloads.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.NAMES)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace):
    result = run.run(name, SEED, 0.0, trace, smoke=True)
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for key in ("setup_s", "pipeline_s", "bits_total", "delivered_frac",
                    "peak_rss_mb"):
            assert result["metrics"][key]["value"] > 0, key
    else:
        for key in ("kernel_msgs_per_s", "engine_msgs_per_s"):
            assert result["metrics"][key]["value"] > 0, key


def test_same_seed_same_inputs_and_outputs():
    first = run.run("route-spread", SEED, 0.0, False, smoke=True)
    second = run.run("route-spread", SEED, 0.0, False, smoke=True)
    assert first["metrics"]["bits_total"] == second["metrics"]["bits_total"]
    assert first["attempted"] == second["attempted"]


def test_gnp_pipeline_is_cold_on_every_repeat():
    result = run.run("gnp-pipeline", SEED, 0.0, True, smoke=True)
    assert result["metrics"]["graphs.ctx_misses"]["value"] > 0


# -- seeded wrong outputs -----------------------------------------------------


@pytest.fixture(scope="module")
def small():
    clear_context_cache()
    graph = gnp_random_graph(48, seed=SEED)
    scheme = build_scheme("full-table", graph, workloads.model_for("full-table"))
    blob = pack_scheme(scheme)
    kernel = BatchKernel(scheme)
    for s, d in [(1, 2), (3, 40), (7, 9), (20, 11)]:
        kernel.inject(s, d, 0.0)
    records = kernel.run()
    return graph, scheme, blob, records


def test_uncertified_graph_trips():
    with pytest.raises(checks.CheckFailed):
        checks.certified(certify_random_graph(path_graph(32)))


def test_warm_context_trips(small):
    graph = small[0]
    ctx = GraphContext(graph)
    checks.cold(ctx)
    ctx.distances()
    with pytest.raises(checks.CheckFailed):
        checks.cold(ctx)


def test_flipped_packed_bit_trips(small):
    _, scheme, blob, _ = small
    checks.packed_bits(scheme, unpack_blob(blob))
    bit_length = int.from_bytes(blob[:4], "big")
    last = bit_length - 1  # the final payload bit of node n's function
    data = bytearray(blob)
    data[4 + last // 8] ^= 0x80 >> (last % 8)
    with pytest.raises(checks.CheckFailed, match=f"node {scheme.graph.n}"):
        checks.packed_bits(scheme, unpack_blob(bytes(data)))


def test_wrong_next_hop_entry_trips(small):
    graph, scheme, _, _ = small
    matrix = get_context(graph).next_hop_matrix(scheme)
    checks.restored_next_hops(scheme, scheme, matrix, [1, 2])
    bad = matrix.copy()
    d = 5
    right = int(bad[0, d - 1])
    other = next(v for v in graph.neighbors(1) if v != right)
    bad[0, d - 1] = other
    with pytest.raises(checks.CheckFailed, match=r"matrix\[1, 5\]"):
        checks.restored_next_hops(scheme, scheme, bad, [1])
    non_neighbour = next(v for v in graph.nodes if v != 1 and not graph.has_edge(1, v))
    bad[0, d - 1] = non_neighbour
    with pytest.raises(checks.CheckFailed, match="non-neighbour"):
        checks.restored_next_hops(scheme, scheme, bad, [])
    with pytest.raises(checks.CheckFailed):
        checks.restored_next_hops(scheme, scheme, None, [1])


def test_failed_verification_trips():
    checks.verified("x", VerificationReport(pairs_checked=1, delivered=1))
    report = VerificationReport(pairs_checked=1, delivered=1,
                                violations=[(1, 2, 3.0)])
    with pytest.raises(checks.CheckFailed):
        checks.verified("x", report)


def _corrupt(records, **changes):
    return [dataclasses.replace(records[0], **changes)] + list(records[1:])


def test_corrupted_record_path_trips(small):
    graph, scheme, _, records = small
    dist = get_context(graph).distances()
    checks.delivered_paths(records, graph, dist, scheme.stretch_bound())
    r = records[0]
    far = next(v for v in graph.nodes
               if v not in (r.source, r.destination) and not graph.has_edge(r.source, v))
    bad_paths = [
        (r.source, far, r.destination),                       # non-edge hop
        (r.source,) + r.path[1:-1] + (far,),                  # wrong end
    ]
    for path in bad_paths:
        with pytest.raises(checks.CheckFailed):
            checks.delivered_paths(_corrupt(records, path=path, hops=len(path) - 1),
                                   graph, dist, scheme.stretch_bound())
    # A valid walk that is longer than the stretch bound allows.
    detour = next(v for v in graph.neighbors(r.source)
                  if graph.has_edge(v, r.destination) and v != r.destination)
    long_path = (r.source, detour, r.source, detour, r.destination)
    with pytest.raises(checks.CheckFailed, match="stretch"):
        checks.delivered_paths(_corrupt(records, path=long_path, hops=4),
                               graph, dist, scheme.stretch_bound())


def test_cross_lane_and_repeat_digests_trip(small):
    records = small[3]
    good = checks.digest(records)
    assert checks.digest(list(reversed(records))) == good  # msg_id order
    bad = checks.digest(_corrupt(records, latency=records[0].latency + 1e-12))
    checks.same("lanes", good, good)
    with pytest.raises(checks.CheckFailed):
        checks.same("lanes", good, bad)
    checks.repeats([{"k": good}, {"k": good}])
    with pytest.raises(checks.CheckFailed, match="across repeats"):
        checks.repeats([{"k": good}, {"k": bad}])


# -- the command line ---------------------------------------------------------


def test_failed_check_exits_nonzero_without_result(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise checks.CheckFailed("seeded")

    monkeypatch.setattr(checks, "delivered_paths", broken)
    code = run.main(["--workload", "route-spread", "--seed", "1", "--seconds", "0",
                     "--smoke"])
    out = capsys.readouterr()
    assert code == 1
    assert "seeded" in out.err
    assert '"correct"' not in out.out


def test_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "route-spread",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
