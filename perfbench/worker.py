"""One benchmark process: set up a workload, run passes, report as JSON.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker`` from the
repository root with ``src`` on ``PYTHONPATH``. Protocol on stdout: a line
``READY`` when set-up (imports, config parse, input construction) is done,
then, unless ``--seconds`` is 0 (set-up only), one line ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import checks, workloads
from .instrument import Instrumentation
from .metrics import layer_metrics
from .spans import SPAN_FIELDS, Tracer

TAIL_WARNING = "op_h: xi Fourier tail"


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    return ap.parse_args(argv)


def run_pass(ops, warning_log: dict) -> dict:
    """Run every operation once; a failure is an exception or a problem."""
    failed, problems, n_warn, n_tail = 0, [], 0, 0
    for name, op in ops:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                found = op()
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                found = [f"{type(exc).__name__}: {exc}"]
                traceback.print_exc(file=sys.stderr)
        for w in caught:
            n_warn += 1
            n_tail += str(w.message).startswith(TAIL_WARNING)
            key = f"{w.category.__name__}: {w.message}"
            warning_log[key] = warning_log.get(key, 0) + 1
        if found:
            failed += 1
            problems += [f"{name}: {p}" for p in found]
    return {"attempted": len(ops), "failed": failed, "problems": problems,
            "warnings": n_warn, "tail_warnings": n_tail}


def run_passes(ops, seconds: float, warning_log: dict, tracer=None) -> list:
    """Passes back to back for about ``seconds``: at least one, and none that
    would, at the mean pass time so far, end half a pass or more after
    ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run_id += 1
            sid = tracer.open("pass")
        t0 = time.perf_counter()
        rec = run_pass(ops, warning_log)
        rec["seconds"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(sid)
            tracer.count("warnings.count", rec["warnings"])
            tracer.count("quantize.tail_warnings", rec["tail_warnings"])
        passes.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def environment() -> dict:
    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    out_dir = Path(args.out_dir)
    reference = checks.load_json()
    tracer = Tracer()  # run id 0 while setting up, then the pass number
    if args.trace:
        with Instrumentation(tracer):
            ops = workloads.build(args.workload, args.seed, out_dir / "work", reference)
    else:
        ops = workloads.build(args.workload, args.seed, out_dir / "work", reference)
    print("READY", flush=True)
    if args.seconds <= 0:
        return 0

    warning_log = {}
    passes = run_passes(ops, args.seconds, warning_log)
    result = {"passes": passes, "env": environment()}
    if args.trace:
        with Instrumentation(tracer):
            traced = run_passes(ops, args.seconds, warning_log, tracer)
        result["traced_passes"] = traced
        result["layers"] = layer_metrics(
            tracer.spans, tracer.counters,
            statistics.fmean(p["seconds"] for p in traced),
            statistics.fmean(p["seconds"] for p in passes))
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, s))) + "\n")
        result["spans_file"] = str(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["warnings"] = warning_log
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
