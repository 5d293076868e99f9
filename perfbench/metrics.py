"""Metric declarations and the per-layer metrics computed from a trace.

``PER_LAYER`` lists (name, unit, better, what it should move); the last field
names the end-to-end metric and workloads where a change to that layer is
expected to show. ``BENCHMARK.json`` declares the same names and units.
"""

from __future__ import annotations

import re
import statistics

from .spans import self_times, summarize

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("run_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PROP, LD, SHORT, D2 = "propagation", "local-decay", "short-recipes", "resolvent-d2"

PER_LAYER = (
    ("model.matvec.calls", "count", "lower", f"run_s on {PROP}"),
    ("model.matvec.cols", "count", "lower", f"run_s on {PROP}"),
    ("model.matvec.self_s", "s", "lower", f"run_s on {PROP}"),
    ("model.matvec.bytes_computed", "B", "lower", f"run_s on {PROP}"),
    ("model.hamiltonian.builds", "count", "lower", f"run_s on {D2}"),
    ("model.assemble.s", "s", "lower", f"run_s on {D2}"),
    ("model.dense.calls", "count", "lower", f"run_s on {LD}, {D2}"),
    ("model.dense.s", "s", "lower", f"run_s on {LD}, {D2}"),
    ("model.banded.calls", "count", "lower", f"run_s on {SHORT}"),
    ("model.banded.s", "s", "lower", f"run_s on {SHORT}"),
    ("quantize.op_h.calls", "count", "lower", f"run_s on {SHORT}, {D2}"),
    ("quantize.op_h.s", "s", "lower", f"run_s on {SHORT}, {D2}"),
    ("quantize.op_h_apply.calls", "count", "lower", f"run_s on {SHORT}, {D2}"),
    ("quantize.op_h_apply.self_s", "s", "lower", f"run_s on {SHORT}, {D2}"),
    ("quantize.operator_norm.calls", "count", "lower", f"run_s on {SHORT}, {D2}"),
    ("quantize.operator_norm.iterations", "count", "lower", f"run_s on {SHORT}, {D2}"),
    ("quantize.operator_norm.s", "s", "lower", f"run_s on {SHORT}, {D2}"),
    ("quantize.tail_warnings", "count", "lower", "none (resolution evidence)"),
    ("warnings.count", "count", "lower", "none (every warning captured in a pass)"),
    ("resolvent.ladder.calls", "count", "lower", f"run_s on {D2}, {SHORT}"),
    ("resolvent.ladder.s", "s", "lower", f"run_s on {D2}, {SHORT}"),
    ("resolvent.rungs", "count", "lower", f"run_s on {D2}, {SHORT}"),
    ("resolvent.rung_yield", "ratio", "higher", f"run_s on {D2}, {SHORT}"),
    ("resolvent.solves", "count", "lower", f"run_s on {D2}, {SHORT}"),
    ("resolvent.solve.self_s", "s", "lower", f"run_s on {D2}, {SHORT}"),
    ("resolvent.lu_factor.calls", "count", "lower", f"run_s on {D2}"),
    ("resolvent.lu_factor.s", "s", "lower", f"run_s on {D2}"),
    ("resolvent.gmres.calls", "count", "lower", f"run_s on {D2}"),
    ("resolvent.gmres.s", "s", "lower", f"run_s on {D2}"),
    ("resolvent.sandwich.calls", "count", "lower", f"run_s on {D2}, {SHORT}"),
    ("resolvent.sandwich.s", "s", "lower", f"run_s on {D2}, {SHORT}"),
    ("propagate.cheb.calls", "count", "lower", f"run_s on {PROP}"),
    ("propagate.cheb.terms", "count", "lower", f"run_s on {PROP}"),
    ("propagate.cheb.matvec_cols", "count", "lower", f"run_s on {PROP}"),
    ("propagate.cheb.self_s", "s", "lower", f"run_s on {PROP}"),
    ("propagate.fH.terms", "count", "lower", f"run_s on {PROP}"),
    ("propagate.evolution_plan.calls", "count", "lower", f"run_s on {PROP}"),
    ("propagate.evolution_plan.s", "s", "lower", f"run_s on {PROP}"),
    ("propagate.dense_eigh.calls", "count", "lower", f"run_s on {LD}"),
    ("propagate.dense_eigh.s", "s", "lower", f"run_s on {LD}"),
    ("propagate.dense_svd.calls", "count", "lower", f"run_s on {LD}"),
    ("propagate.dense_svd.s", "s", "lower", f"run_s on {LD}"),
    ("geometry.classify.calls", "count", "lower", f"run_s on {SHORT}, {PROP}"),
    ("geometry.classify.s", "s", "lower", f"run_s on {SHORT}, {PROP}"),
    ("escape.transport.s", "s", "lower", f"run_s on {SHORT}"),
    ("escape.energy.s", "s", "lower", f"run_s on {SHORT}"),
    ("escape.monotonicity.s", "s", "lower", f"run_s on {SHORT}"),
    ("config.parse.s", "s", "lower", "setup_s on all workloads"),
    ("cli.run.self_s", "s", "lower", "run_s on all workloads"),
    ("trace.run_s", "s", "lower", "none (traced pass wall time)"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced run_s)"),
    ("trace.uncovered_share", "ratio", "lower", "none (share of run_s no layer covers)"),
    ("trace.spans", "count", "lower", "none (spans recorded per pass)"),
)

# spans whose self time is orchestration, not a named layer
GLUE_SPANS = ("pass", "cli.run")

# per-layer metric -> (span name, field); "calls", "total_s" or "self_s"
_FROM_SPANS = {
    "model.matvec.calls": ("model.matvec", "calls"),
    "model.matvec.self_s": ("model.matvec", "self_s"),
    "model.hamiltonian.builds": ("model.hamiltonian.build", "calls"),
    "model.assemble.s": ("model.assemble", "total_s"),
    "model.dense.calls": ("model.dense", "calls"),
    "model.dense.s": ("model.dense", "total_s"),
    "model.banded.calls": ("model.banded", "calls"),
    "model.banded.s": ("model.banded", "total_s"),
    "quantize.op_h.calls": ("quantize.op_h", "calls"),
    "quantize.op_h.s": ("quantize.op_h", "total_s"),
    "quantize.op_h_apply.calls": ("quantize.op_h_apply", "calls"),
    "quantize.op_h_apply.self_s": ("quantize.op_h_apply", "self_s"),
    "quantize.operator_norm.calls": ("quantize.operator_norm", "calls"),
    "quantize.operator_norm.s": ("quantize.operator_norm", "total_s"),
    "resolvent.ladder.calls": ("resolvent.ladder", "calls"),
    "resolvent.ladder.s": ("resolvent.ladder", "total_s"),
    "resolvent.solve.self_s": ("resolvent.solve", "self_s"),
    "resolvent.lu_factor.calls": ("resolvent.lu_factor", "calls"),
    "resolvent.lu_factor.s": ("resolvent.lu_factor", "total_s"),
    "resolvent.gmres.calls": ("resolvent.gmres", "calls"),
    "resolvent.gmres.s": ("resolvent.gmres", "total_s"),
    "resolvent.sandwich.calls": ("resolvent.sandwich", "calls"),
    "resolvent.sandwich.s": ("resolvent.sandwich", "total_s"),
    "propagate.cheb.calls": ("propagate.cheb", "calls"),
    "propagate.cheb.self_s": ("propagate.cheb", "self_s"),
    "propagate.evolution_plan.calls": ("propagate.evolution_plan", "calls"),
    "propagate.evolution_plan.s": ("propagate.evolution_plan", "total_s"),
    "propagate.dense_eigh.calls": ("propagate.dense_eigh", "calls"),
    "propagate.dense_eigh.s": ("propagate.dense_eigh", "total_s"),
    "propagate.dense_svd.calls": ("propagate.dense_svd", "calls"),
    "propagate.dense_svd.s": ("propagate.dense_svd", "total_s"),
    "geometry.classify.calls": ("geometry.classify", "calls"),
    "geometry.classify.s": ("geometry.classify", "total_s"),
    "escape.transport.s": ("escape.transport", "total_s"),
    "escape.energy.s": ("escape.energy", "total_s"),
    "escape.monotonicity.s": ("escape.monotonicity", "total_s"),
    "cli.run.self_s": ("cli.run", "self_s"),
}

# per-layer metric -> tracer counter summed over the traced passes
_FROM_COUNTERS = {
    "model.matvec.cols": "model.matvec.cols",
    "model.matvec.bytes_computed": "model.matvec.bytes",
    "quantize.operator_norm.iterations": "quantize.operator_norm.iterations",
    "quantize.tail_warnings": "quantize.tail_warnings",
    "warnings.count": "warnings.count",
    "resolvent.rungs": "resolvent.rungs",
    "propagate.cheb.terms": "propagate.cheb.terms",
    "propagate.cheb.matvec_cols": "propagate.cheb.matvec_cols",
}


def uncovered_share(spans) -> float:
    """Mean over passes of the share of a pass's wall time spent outside
    every named layer (self time of the pass and cli.run spans)."""
    selfs = self_times(spans)
    glue, wall = {}, {}
    for sid, _, name, start, end, run in spans:
        if name in GLUE_SPANS:
            glue[run] = glue.get(run, 0.0) + selfs[sid]
        if name == "pass":
            wall[run] = end - start
    return statistics.fmean(glue[r] / wall[r] for r in wall) if wall else 0.0


def layer_metrics(spans, counters, traced_run_s, untraced_run_s) -> dict:
    """Every PER_LAYER metric, per pass (counts and seconds are means over
    the traced passes; ratios are taken over all of them). Spans with run id
    0 belong to the set-up phase."""
    setup_spans = [s for s in spans if s[5] == 0]
    pass_spans = [s for s in spans if s[5] != 0]
    n = len({s[5] for s in pass_spans if s[2] == "pass"})
    agg = summarize(pass_spans)
    out = {}
    for metric, (span, field) in _FROM_SPANS.items():
        out[metric] = agg.get(span, {}).get(field, 0) / n
    for metric, key in _FROM_COUNTERS.items():
        out[metric] = counters.get(key, 0) / n
    rungs = counters.get("resolvent.rungs", 0)
    ladders = counters.get("resolvent.ladders_walked", 0)
    out["resolvent.rung_yield"] = ladders / rungs if rungs else 0.0
    out["resolvent.solves"] = (agg.get("resolvent.solve", {}).get("calls", 0) + rungs) / n
    plans = counters.get("propagate.fH.plans", 0)
    out["propagate.fH.terms"] = counters.get("propagate.fH.terms", 0) / plans if plans else 0.0
    out["config.parse.s"] = summarize(setup_spans).get("config.parse", {}).get("total_s", 0.0)
    out["trace.run_s"] = traced_run_s
    out["trace.overhead_s"] = traced_run_s - untraced_run_s
    out["trace.uncovered_share"] = uncovered_share(pass_spans)
    out["trace.spans"] = len(pass_spans) / n
    return out
