"""Benchmark for latscat: end-to-end workloads and a traced per-layer run.

Run from the repository root with ``python3 perfbench/run.py --workload NAME``;
see ``perfbench/README.md``.
"""

DEFAULT_SEED = 24301
WORKLOADS = ("propagation", "local-decay", "short-recipes", "resolvent-d2")
