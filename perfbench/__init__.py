"""End-to-end and per-layer benchmark of the routing-scheme pipeline.

Run it from the root of a source checkout::

    python3 perfbench/run.py --workload gnp-pipeline --seed 1 --seconds 5 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and the
metrics; :mod:`perfbench.workloads` defines them, :mod:`perfbench.checks`
holds the correctness checks every run applies to its outputs, and
:mod:`perfbench.trace` the in-memory span recorder the traced run uses.
"""
