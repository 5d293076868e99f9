#!/usr/bin/env python3
"""latscat benchmark: one workload per invocation, every metric by name.

    python3 perfbench/run.py --workload propagation [--seed 24301]
                             [--seconds 15] [--trace 0|1]

Run from the repository root. The workload runs in fresh worker processes
(``perfbench/worker.py``) with BLAS threads set to the CPU count, ``jobs=1``.
``--trace 0`` reports the end-to-end metrics: ``run_s`` (mean wall time of
one checked pass over the run), ``setup_s`` (median over the workers of
interpreter start up to ready inputs) and ``peak_rss_mb`` (the measuring
worker's peak resident memory).
``--trace 1`` reports the per-layer metrics of ``perfbench/metrics.py`` from
a traced run. The failure ratio is printed and carried by ``attempted`` and
``failed``. The last stdout line is the JSON result; artifacts (records,
spans, recipe outputs) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Worker processes per untraced run: one measures, and each one's set-up is
# a setup_s sample.
WORKERS = 3
WORKER_TIMEOUT_S = 170.0   # the whole invocation must end within 180 s
OUT_DIR = ROOT / ".bench_out"


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_worker(args, seconds: float, deadline: float):
    """Start a worker that measures for ``seconds`` (0: set up only); return
    (set-up seconds, RESULT payload or None)."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    setup_s, payload = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                payload = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (payload is None and seconds > 0):
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited with code {code}")
    return setup_s, payload


def measure(args, deadline: float):
    """(set-up samples, RESULT payload) of one run.

    The first worker measures for ``--seconds``; untraced, WORKERS - 1 more
    workers start one after another and only set up.
    """
    setup_s, res = run_worker(args, args.seconds, deadline)
    setups = [setup_s]
    if not args.trace:
        setups += [run_worker(args, 0.0, deadline)[0] for _ in range(WORKERS - 1)]
    return setups, res


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, trace: int, res: dict, setups: list):
    """(human-readable lines, result object) for one worker's RESULT payload.

    The result's metrics are the end-to-end metrics for trace 0 and the
    per-layer metrics for trace 1; the lines name each with its unit, then
    the sample counts and the failure ratio.
    """
    passes = res["passes"] + res.get("traced_passes", [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    run_times = [p["seconds"] for p in res["passes"]]
    if trace:
        values = res["layers"]
        declared = [(name, unit, f"moves {moves}") for name, unit, _, moves in PER_LAYER]
    else:
        values = {"run_s": statistics.fmean(run_times),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        declared = [(name, unit, f"bound {bound}") for name, unit, _, bound in END_TO_END]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in declared}
    lines = [f"  {name:36s} {_fmt(values[name]):>14s} {unit:6s} {note}"
             for name, unit, note in declared]
    lines.append(f"  {len(run_times)} untraced passes of {workload} "
                 f"(mean {_fmt(statistics.fmean(run_times))} s, "
                 f"median {_fmt(statistics.median(run_times))} s), "
                 f"{len(res.get('traced_passes', []))} traced, {len(setups)} set-ups")
    lines.append(f"  fail_ratio {_fmt(failed / attempted)} ({failed} of {attempted} operations)")
    lines += [f"FAIL {p}" for p in sorted({p for ps in passes for p in ps["problems"]})]
    return lines, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "latscat" / "__init__.py").is_file():
        print(f"perfbench: no latscat sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        setups, res = measure(args, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    lines, result = report(args.workload, args.trace, res, setups)
    env = dict(res["env"], commit=git_commit(ROOT))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    for msg, count in sorted(res["warnings"].items()):
        print(f"warning x{count}: {msg}", file=sys.stderr)

    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env,
                  setup_samples=setups, run_samples=[p["seconds"] for p in res["passes"]],
                  warnings=res["warnings"], spans_file=res.get("spans_file"))
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
