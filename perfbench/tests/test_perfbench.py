"""Tests of the benchmark's own arithmetic, declarations and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import copy
import json
import types
from pathlib import Path

import pytest

from perfbench import WORKLOADS, checks, metrics
from perfbench.spans import Tracer, self_times, summarize, union_length

ROOT = Path(__file__).resolve().parents[2]


def _span(sid, parent, name, start, end, run=1):
    return (sid, parent, name, start, end, run)


# -- self-time arithmetic ---------------------------------------------------

NESTED = [
    _span(1, 0, "pass", 0.0, 10.0),
    _span(2, 1, "cli.run", 0.5, 9.5),
    _span(3, 2, "propagate.cheb", 1.0, 6.0),
    _span(4, 3, "model.matvec", 1.0, 2.0),
    _span(5, 3, "model.matvec", 3.0, 4.5),
    _span(6, 2, "model.dense", 7.0, 9.0),
    _span(7, 6, "model.matvec", 7.5, 8.0),
]


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert union_length([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)


def test_self_time_is_duration_minus_children():
    st = self_times(NESTED)
    assert st[1] == pytest.approx(10.0 - 9.0)
    assert st[2] == pytest.approx(9.0 - 5.0 - 2.0)
    assert st[3] == pytest.approx(5.0 - 1.0 - 1.5)
    assert st[4] == pytest.approx(1.0)
    assert st[6] == pytest.approx(2.0 - 0.5)
    # self times of a tree partition the root's duration
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [_span(1, 0, "a", 0.0, 4.0), _span(2, 1, "b", 1.0, 3.0),
             _span(3, 1, "c", 2.0, 3.5), _span(4, 1, "d", 3.8, 4.5)]
    assert self_times(spans)[1] == pytest.approx(4.0 - 2.5 - 0.2)


def test_summarize_groups_by_name():
    agg = summarize(NESTED)
    assert agg["model.matvec"]["calls"] == 3
    assert agg["model.matvec"]["total_s"] == pytest.approx(3.0)
    assert agg["model.matvec"]["self_s"] == pytest.approx(3.0)
    assert agg["propagate.cheb"]["self_s"] == pytest.approx(2.5)


def test_uncovered_share_is_glue_self_time_over_pass():
    # glue: pass self 1.0 + cli.run self 2.0 out of a 10 s pass
    assert metrics.uncovered_share(NESTED) == pytest.approx(0.3)


def test_tracer_records_nesting_and_run_ids():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.run_id = 3
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    (i_sid, i_parent, i_name, *_), (o_sid, o_parent, _, o_start, o_end, o_run) = tr.spans
    assert (i_name, i_parent, o_parent, o_run) == ("inner", outer, 0, 3)
    assert self_times(tr.spans)[outer] == pytest.approx((o_end - o_start) - 1.0)
    with pytest.raises(RuntimeError):
        a = tr.open("a")
        tr.open("b")
        tr.close(a)


# -- metric names -----------------------------------------------------------


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_benchmark_json():
    bench = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    ours = {name: unit for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER}
    assert ours == declared
    assert {m["name"]: m["bound"] for m in bench["end_to_end"]} == {
        name: bound for name, _, _, bound in metrics.END_TO_END}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in declared:
        assert metrics.NAME_RE.fullmatch(name), name


def test_layer_metrics_prints_exactly_the_declared_names():
    tr = Tracer()
    tr.count("resolvent.rungs", 9)
    tr.count("resolvent.ladders_walked", 1)
    out = metrics.layer_metrics(NESTED + [_span(8, 0, "config.parse", -1.0, -0.5, run=0)],
                                tr.counters, traced_run_s=10.0, untraced_run_s=9.5)
    declared = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(out) == declared
    assert all(metrics.NAME_RE.fullmatch(name) for name in out)
    assert out["model.matvec.calls"] == 3
    assert out["resolvent.rung_yield"] == pytest.approx(1 / 9)
    assert out["trace.overhead_s"] == pytest.approx(0.5)
    assert out["config.parse.s"] == pytest.approx(0.5)
    assert out["trace.spans"] == len(NESTED)


def _payload(layers=None):
    p = {"attempted": 4, "failed": 0, "problems": [], "seconds": 2.0}
    res = {"passes": [p, dict(p, seconds=3.0), dict(p, seconds=7.0)], "peak_rss_mb": 90.5,
           "warnings": {}}
    if layers is not None:
        res.update(traced_passes=[dict(p, failed=1, problems=["x: bad"])], layers=layers)
    return res


@pytest.mark.parametrize("trace", [0, 1])
def test_report_prints_declared_metrics_with_units(trace):
    from perfbench.run import report

    bench = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    layers = {name: 1.5 for name in declared} if trace else None
    lines, result = report("propagation", trace, _payload(layers), [0.5, 0.7, 0.6])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert metrics.NAME_RE.fullmatch(name)
        assert any(ln.split()[:3:2] == [name, unit] for ln in lines), name
    if trace:
        assert (result["attempted"], result["failed"], result["correct"]) == (16, 1, False)
        assert "FAIL x: bad" in lines
    else:
        # run_s is the mean pass (not the median, 3.0); setup_s the median set-up
        assert result["metrics"]["run_s"]["value"] == 4.0
        assert result["metrics"]["setup_s"]["value"] == 0.6
        assert (result["attempted"], result["failed"], result["correct"]) == (12, 0, True)


@pytest.mark.parametrize("pass_s, seconds, expected", [
    (1.0, 10.0, 10),   # the 10th pass ends on time
    (4.0, 10.0, 2),    # a 3rd pass would end 2 s = half a pass late
    (3.0, 10.0, 3),    # a 4th pass would end 2 s late, more than half a pass
    (25.0, 10.0, 1),   # a pass longer than the run: measured once
])
def test_passes_end_nearest_to_the_measuring_time(monkeypatch, pass_s, seconds, expected):
    from perfbench import worker

    clock = [0.0]
    monkeypatch.setattr(worker, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))

    def op():
        clock[0] += pass_s
        return []

    passes = worker.run_passes([("op", op)], seconds, {})
    assert len(passes) == expected
    assert all(p["seconds"] == pass_s for p in passes)


def test_instrumented_recipe_reports_layers_and_restores_originals():
    from latscat import cli, model, quantize
    from perfbench.instrument import Instrumentation

    originals = (cli.run, quantize.op_h, model.LatticeHamiltonian.__dict__.get("__call__"))
    tr = Tracer()
    tr.run_id = 1
    with Instrumentation(tr):
        assert cli.run is not originals[0]
        sid = tr.open("pass")
        H = model.ModelConfig().assemble(40, with_cap=False)
        quantize.operator_norm(H, seed=1)
        tr.close(sid)
    assert (cli.run, quantize.op_h, model.LatticeHamiltonian.__dict__.get("__call__")) == originals
    out = metrics.layer_metrics(tr.spans, tr.counters, 1.0, 1.0)
    assert out["model.hamiltonian.builds"] == 1
    assert out["quantize.operator_norm.calls"] == 1
    assert out["model.matvec.calls"] == 2 * out["quantize.operator_norm.iterations"] > 0


# -- correctness check ------------------------------------------------------


def _manifest(results, passed=True):
    return {"results": results,
            "criteria": [{"name": "fitted slope >= 3.0", "passed": passed, "detail": "x"}]}


def test_reference_check_accepts_parent_values_and_rejects_a_perturbed_one():
    ref = checks.load_json()["recipes"]["free-wf-offset"]
    results = {"fit": {"slope": ref["fit.slope"], "intercept": ref["fit.intercept"],
                       "max_residual": ref["fit.max_residual"]},
               "box_radius": ref["box_radius"],
               "distances": {k.split(".", 1)[1]: v for k, v in ref.items()
                             if k.startswith("distances.")}}
    assert checks.check_manifest(_manifest(results), ref) == []
    bad = copy.deepcopy(results)
    bad["fit"]["slope"] += 2e-3
    problems = checks.check_manifest(_manifest(bad), ref)
    assert len(problems) == 1 and problems[0].startswith("fit.slope")
    # other seeds check only the recipe's own gates
    assert checks.check_manifest(_manifest(bad), None) == []
    assert checks.check_manifest(_manifest(results, passed=False), None) != []


def test_small_values_are_compared_relatively():
    assert checks.within(1.45e-4 * (1 + 5e-4), 1.45e-4)
    assert not checks.within(1.45e-4 * (1 + 2e-3), 1.45e-4)
    assert not checks.within(float("nan"), 1.0)


def test_sandwich_and_residual_checks():
    assert checks.check_sandwich(5.44, 5.44 * 1.005, 1e-2) == []
    assert checks.check_sandwich(5.44, 5.44 * 1.02, 1e-2) != []
    assert checks.check_sandwich(float("inf"), 5.44, 1e-2) != []
    assert checks.check_residual(1e-10, 1e-6) == []
    assert checks.check_residual(float("nan"), 1e-6) != []
