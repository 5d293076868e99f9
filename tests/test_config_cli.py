import csv
import hashlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from latscat import cli
from latscat.cli import (EXIT_CRITERION, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                         list_recipes, main, run)
from latscat.config import ConfigError, parse_config
from latscat.recipes import RECIPES, recipe_config


# the canned free recipe runs in about a second and resolves its bumps
MINIMAL_WF = recipe_config("free-wf-offset")


def test_parse_minimal_and_resolved_echo():
    cfg = parse_config(MINIMAL_WF)
    assert cfg.probe_kind == "wf"
    resolved = cfg.resolved()
    # every schema key is echoed, and no other
    assert set(resolved["model"]) == {"dim", "potential", "amplitude", "mu"}
    assert set(resolved["numerics"]) == {"seed", "convergence_tol", "eps_k_max"}
    assert set(resolved["output"]) == {"directory"}
    assert resolved["probe"]["expect"] == "decay"


# configs that once ran to a vacuous pass, a minimum-norm fit, a crash, an
# invalid manifest or a duplicate row: (text, message, id)
_EXIT_2_CASES = [
    # an empty monotonicity list passes vacuously
    ("[probe]\nkind = escape\nmono_t_list =", "mono_t_list needs at least 1",
     "escape-no-mono-t"),
    # one h is no fit: lstsq gives its minimum-norm exponent
    ("[probe]\nkind = escape\nh_list = 0.125", "h_list needs at least 2 distinct",
     "escape-one-h"),
    ("[probe]\nkind = escape\nh_list = 0.125,0.125", "h_list needs at least 2 distinct",
     "escape-repeated-h"),
    # no t sample leaves no CSV row
    ("[probe]\nkind = escape\nt_samples =", "t_samples needs at least 1",
     "escape-no-t-samples"),
    # both escape checks are statements about t >= 0
    ("[probe]\nkind = escape\nt_samples = -1.0,2.0", "t_samples needs times t >= 0",
     "escape-negative-t-sample"),
    ("[probe]\nkind = escape\nmono_t_list = -5.0", "mono_t_list needs times t >= 0",
     "escape-negative-mono-t"),
    # a negative inner_frac compares no sites; 0.95 reaches into the CAP
    ("[model]\npotential = none\n[probe]\nkind = free-kernel\ninner_frac = -0.1",
     "inner_frac", "free-kernel-negative-inner-frac"),
    ("[model]\npotential = none\n[probe]\nkind = free-kernel\nbox_radius = 64\n"
     "inner_frac = 0.95", "inner_frac", "free-kernel-inner-frac-in-cap"),
    # a repeated radius runs the same box twice
    ("[probe]\nkind = ik\nl_list = 128,128,256", "none repeated", "ik-repeated-l"),
    ("[probe]\nkind = one-sided\nl_list = 128,256,256", "none repeated",
     "one-sided-repeated-l"),
    # a repeated h computes its row twice and counts twice in the slope fit
    ("[probe]\nkind = wf\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57\n"
     "h_list = 0.125,0.0625,0.03125,0.015625,0.015625", "none repeated", "wf-repeated-h"),
    ("[probe]\nkind = prop31\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57\n"
     "h_list = 0.125,0.0625,0.0625,0.03125", "none repeated", "prop31-repeated-h"),
    # a non-finite float overflows the box rule, or fails late with the wrong cause
    ("[probe]\nkind = wf\nx1 = inf\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57", "bad value",
     "wf-infinite-x1"),
    ("[probe]\nkind = wf\nlambda = nan\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57",
     "bad value", "wf-nan-lambda"),
    ("[probe]\nkind = ik\nweight_n = nan", "bad value", "ik-nan-weight"),
    ("[probe]\nkind = escape\nt_samples = 0.5,-inf", "bad value", "escape-infinite-t"),
    # a tolerance <= 0 is never met: the ladder walks every rung and exits 3
    ("[model]\npotential = none\n[numerics]\nconvergence_tol = 0\n[probe]\n"
     "kind = free-kernel", "convergence_tol", "zero-convergence-tol"),
    ("[numerics]\nconvergence_tol = -1\n[probe]\nkind = calculus", "convergence_tol",
     "negative-convergence-tol"),
    # a bump radius or box radius <= 0 fails later in a check on another key
    ("[probe]\nkind = wf\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57\ndelta1 = 0",
     r"\[probe\] delta1 must be positive", "wf-zero-delta1"),
    ("[probe]\nkind = prop31\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57\ndelta1 = 0",
     r"\[probe\] delta1 must be positive", "prop31-zero-delta1"),
    ("[probe]\nkind = prop31\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57\ndelta2 = -0.1",
     r"\[probe\] delta2 must be positive", "prop31-negative-delta2"),
    ("[model]\npotential = none\n[probe]\nkind = free-kernel\nbox_radius = 0",
     r"\[probe\] box_radius must be positive", "free-kernel-zero-box-radius"),
    ("[probe]\nkind = escape\nbox_radius = 0", r"\[probe\] box_radius must be positive",
     "escape-zero-box-radius"),
    ("[probe]\nkind = escape\nmono_box_radius = -1",
     r"\[probe\] mono_box_radius must be positive", "escape-negative-mono-box-radius"),
    # the closed-form free kernel exists inside the band only: 0 and 2 walk
    # every rung and exit 3, 2.5 fails only after the LAP solve
    ("[model]\npotential = none\n[probe]\nkind = free-kernel\nlambda = 0",
     "0 < lambda < 2", "free-kernel-band-bottom"),
    ("[model]\npotential = none\n[probe]\nkind = free-kernel\nlambda = 2",
     "0 < lambda < 2", "free-kernel-band-top"),
    ("[model]\npotential = none\n[probe]\nkind = free-kernel\nlambda = 2.5",
     "0 < lambda < 2", "free-kernel-above-band"),
    # mu = 0 zeroes every rung j >= 1 (a vacuous pass); mu < 0 flips their sign
    ("[probe]\nkind = escape\ndepth = 2\nmu = 0", r"\[probe\] mu must be positive",
     "escape-zero-mu"),
    ("[probe]\nkind = escape\ndepth = 2\nmu = -0.5", r"\[probe\] mu must be positive",
     "escape-negative-mu"),
    # a negative depth leaves no rung, so no transport criterion: a vacuous pass
    ("[probe]\nkind = escape\ndepth = -1", r"\[probe\] depth must be >= 0",
     "escape-negative-depth"),
    # numpy refuses a negative seed mid-run, or the manifest records it
    ("[numerics]\nseed = -1\n[probe]\nkind = calculus", r"\[numerics\] seed must be >= 0",
     "negative-seed"),
    # the other precondition checks of the schema
    ("[probe]\nkind = wf\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57\nexpect = maybe",
     "expect must be decay or control", "wf-unknown-expect"),
    ("[probe]\nkind = wf\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57",
     r"\[probe\] x1 is required for wf", "wf-no-x1"),
    ("[probe]\nkind = one-sided\nsign = 2", "sign must be 1 or -1", "one-sided-sign-2"),
    ("[probe]\nkind = one-sided\nnu = 1.0", "needs nu > 1", "one-sided-nu-1"),
    ("[probe]\nkind = local-decay\nt_min = 200\nt_max = 10", "need 0 < t_min < t_max",
     "local-decay-reversed-t"),
    ("[probe]\nkind = local-decay\nn_t = 4", "n_t >= 8", "local-decay-n-t-4"),
    ("[numerics]\neps_k_max = 3\n[probe]\nkind = calculus", "eps_k_max must be above 3",
     "eps-k-max-3"),
]


@pytest.mark.parametrize("mutation,match", [
    ("[probe]\nkind = wf\nbogus_key = 1\nx1=1\nxi1=1\nx2=1\nxi2=1", "unknown key"),
    ("[probe]\nkind = nosuch", "unknown probe kind"),
    ("[probe]\nkind =", "probe"),
    ("[weird]\nk = 1\n[probe]\nkind = calculus", "unknown section"),
    ("[probe]\nkind = one-sided\nnu = 3.0\ns = 2.5", "s < nu - 1"),
    ("[probe]\nkind = wf\nx1 = 1.0\nxi1 = 1.0\nx2 = 1.0\nxi2 = 1.0\nh_list = 0.5,0.25",
     "at least 4"),
    # the closed-form free kernel is the 1-d one
    ("[model]\ndim = 2\n[probe]\nkind = free-kernel", "dim = 1"),
    ("[model]\npotential = power_law\n[probe]\nkind = free-kernel", "potential = none"),
    # the propagation probe and the escape ladder are d = 1 constructions
    ("[model]\ndim = 2\n[probe]\nkind = prop31\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\n"
     "xi2 = -1.57", "dim = 1"),
    ("[model]\ndim = 2\n[probe]\nkind = escape", "dim = 1"),
    # so are the wave-front pair and the cone symbols
    ("[model]\ndim = 2\n[probe]\nkind = wf\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\nxi2 = -1.57",
     "dim = 1"),
    ("[model]\ndim = 2\n[probe]\nkind = ik", "dim = 1"),
    ("[model]\ndim = 2\n[probe]\nkind = one-sided", "dim = 1"),
    # the energy check reports its fitted exponent; criterion_exponent gates it
    ("[probe]\nkind = escape\nn_target = 1.0", "unknown key"),
    ("[probe]\nkind = local-decay\nbox_radius = 0", "box_radius must be positive"),
    # the box sweeps compare norms across at least two box sizes
    ("[probe]\nkind = one-sided\nl_list = 64", "at least 2 distinct radii"),
    ("[probe]\nkind = ik\nl_list =", "at least 2 distinct radii"),
    # values that no config changed are constants of the code, not keys
    ("[model]\nstencil = laplacian\n[probe]\nkind = calculus", "unknown key"),
    ("[model]\ncap_width_frac = 0.125\n[probe]\nkind = calculus", "unknown key"),
    ("[model]\ncap_strength = 1.0\n[probe]\nkind = calculus", "unknown key"),
    ("[numerics]\nnorm_tol = 1e-2\n[probe]\nkind = calculus", "unknown key"),
    ("[numerics]\neps_k_min = 3\n[probe]\nkind = calculus", "unknown key"),
    ("[numerics]\nclassify_grid = 4096\n[probe]\nkind = calculus", "unknown key"),
    ("[output]\nformats = csv,json\n[probe]\nkind = calculus", "unknown key"),
    # a d = 1 cone is a half-line: no aperture acts on it
    ("[probe]\nkind = ik\ngamma_minus = -0.3", "unknown key"),
    ("[probe]\nkind = ik\ngamma_plus = 0.3", "unknown key"),
    ("[probe]\nkind = one-sided\ngamma = -0.4", "unknown key"),
    # a [model] block that cannot build its model fails at parse time
    ("[model]\npotential = table\n[probe]\nkind = calculus", "unknown potential form"),
    ("[model]\npotential = power_law\nmu = 1.5\n[probe]\nkind = calculus", "mu must lie"),
    ("[model]\ndim = 0\n[probe]\nkind = calculus", "dim must be >= 1"),
    # the calculus boxes hold 2,146,689 and 912,673 sites at d = 3
    ("[model]\ndim = 3\n[probe]\nkind = calculus", "dim <= 2"),
] + [(text, match) for text, match, _ in _EXIT_2_CASES],
    ids=["unknown-key", "unknown-kind", "empty-kind", "unknown-section",
        "one-sided-s", "short-h-list", "free-kernel-dim",
        "free-kernel-potential", "prop31-dim", "escape-dim", "wf-dim", "ik-dim",
        "one-sided-dim", "escape-n-target",
        "local-decay-box-radius",
        "one-sided-single-box", "ik-empty-l-list",
        "removed-stencil", "removed-cap-width-frac", "removed-cap-strength",
        "removed-norm-tol", "removed-eps-k-min", "removed-classify-grid",
        "removed-formats", "removed-gamma-minus", "removed-gamma-plus", "removed-gamma",
        "model-unknown-potential", "model-mu-range", "model-dim-0",
        "calculus-dim-3"]
    + [name for _, _, name in _EXIT_2_CASES])
def test_schema_rejections(mutation, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(mutation)


@pytest.mark.parametrize("text", [text for text, _, _ in _EXIT_2_CASES],
                         ids=[name for _, _, name in _EXIT_2_CASES])
def test_schema_holes_exit_2(tmp_path, text):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA


def test_missing_probe_block():
    with pytest.raises(ConfigError, match="probe"):
        parse_config("[model]\npotential = none\n")


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[probe]\nkind = one-sided\nnu = 3.0\ns = 2.5\n")
    assert main(["run", str(bad)]) == EXIT_SCHEMA
    assert main(["run", str(tmp_path / "missing.ini")]) == EXIT_SCHEMA
    assert main(["run", "--recipe", "no-such-recipe"]) == EXIT_SCHEMA
    assert main(["show-recipe", "calculus-invariants"]) == EXIT_OK
    assert main(["list-recipes"]) == EXIT_OK
    # probes run serially: --jobs is no flag, and run() takes jobs=1 only
    with pytest.raises(SystemExit) as exc:
        main(["run", "--recipe", "calculus-invariants", "--jobs", "2"])
    assert exc.value.code == EXIT_SCHEMA
    with pytest.raises(ValueError, match="jobs"):
        run(parse_config(recipe_config("calculus-invariants")), out_dir=tmp_path, jobs=2)


def test_probe_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    # a KeyError from a bug inside a probe must not exit 2 as a config mistake
    import latscat.cli as cli

    def broken(cfg):
        raise KeyError("bug inside the probe")

    monkeypatch.setitem(cli._RUNNERS, "calculus", broken)
    with pytest.raises(KeyError, match="bug inside the probe"):
        main(["run", "--recipe", "calculus-invariants", "--out", str(tmp_path)])


@pytest.mark.parametrize("recipe", ["free-wf-offset", "prop31-offset"])
def test_kernel_point_h_outside_unit_interval_exits_2(tmp_path, capsys, recipe):
    # h = 0 is refused before any box is sized from 4 span / h
    text = re.sub(r"(?m)^h_list = .*$", "h_list = 0.125,0.0625,0.03125,0.0",
                  recipe_config(recipe))
    path = tmp_path / "h0.ini"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert "every h must lie in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("recipe, expect, solver", [
    ("free-wf-offset", "control", "latscat.resolvent._lap_iterate"),
    ("wf-onset-control", "decay", "latscat.resolvent._lap_iterate"),
    ("prop31-offset", "control", "latscat.propagate._window_eigenpairs"),
])
def test_expect_against_classify_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                                          recipe, expect, solver):
    # the runner classifies the kernel point once: an expect that the
    # classification contradicts is a broken premise, refused before the
    # first ladder walk or window eigensolve
    def refuse(*args, **kwargs):
        raise AssertionError(f"{solver} ran")

    monkeypatch.setattr(solver, refuse)
    text = recipe_config(recipe)
    assert f"expect = {expect}" not in text
    path = tmp_path / "expect.ini"
    path.write_text(re.sub(r"(?m)^expect = .*$", f"expect = {expect}", text))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert f"expect = {expect} contradicts classify for R^+1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_numerical_error_exit(tmp_path):
    # an epsilon ladder too shallow to stabilize raises a numerical error
    cfg = parse_config("""
[model]
potential = none

[probe]
kind = free-kernel
lambda = 1.0
box_radius = 64

[numerics]
eps_k_max = 5
convergence_tol = 1e-9
""")
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_NUMERICAL


def test_violated_enclosure_exits_numerical(tmp_path, monkeypatch):
    # an enclosure that misses the spectrum makes the short evolve plans of
    # the calculus checks diverge: exit 3 names it, not a failed criterion
    from latscat.propagate import ChebyshevPlan

    # (center, radius) of the interval [0.9, 1.1]
    monkeypatch.setattr(ChebyshevPlan, "enclosure_for", classmethod(lambda cls, H: (1.0, 0.1)))
    assert main(["run", "--recipe", "calculus-invariants", "--out", str(tmp_path)]) \
        == EXIT_NUMERICAL


def test_escape_self_check_failure_exits_numerical(tmp_path, monkeypatch):
    # a non-hermitian H breaks the energy operator's hermiticity self-check:
    # exit 3 names it, not a failed criterion or a traceback
    import latscat.escape as escape

    dense_h = escape.periodic_dense_h

    def skewed(model_cfg, box):
        # an imaginary position ramp: i[H, F] picks up an anti-hermitian part
        return dense_h(model_cfg, box) + 0.1j * np.diag(box.sites()[:, 0])

    monkeypatch.setattr(escape, "periodic_dense_h", skewed)
    assert main(["run", "--recipe", "escape-ladder", "--out", str(tmp_path)]) == EXIT_NUMERICAL


def test_escape_near_threshold_drift_exits_numerical(tmp_path, monkeypatch):
    # a skew i s diag(n) adds -2 s [diag(n), F] to M - M*: at s = 4e-10 the
    # first (h, t) of the recipe drifts by ~1e-9, above the 1e-10 gate and
    # below 1e-8
    import latscat.escape as escape

    dense_h = escape.periodic_dense_h

    def skewed(model_cfg, box):
        return dense_h(model_cfg, box) + 4e-10j * np.diag(box.sites()[:, 0])

    monkeypatch.setattr(escape, "periodic_dense_h", skewed)
    cfg = parse_config(recipe_config("escape-ladder"))
    model, p = cfg.model_config(), cfg.probe
    ladder = escape.EscapeLadder(stencil=model.stencil, x2=p["x2"], xi2=p["xi2"],
                                 delta1=p["delta1"], delta2=p["delta2"], h=p["h"],
                                 depth=p["depth"], mu=p["mu"])
    with pytest.raises(escape.HermiticityDriftError) as err:
        escape.energy_inequality_check(model, ladder, p["t_samples"], p["h_list"],
                                       p["box_radius"])
    drift = float(re.search(r"drift (\S+)", str(err.value)).group(1))
    assert 1e-10 < drift < 1e-8
    assert main(["run", "--recipe", "escape-ladder", "--out", str(tmp_path)]) == EXIT_NUMERICAL


def test_local_decay_outside_the_band_is_a_config_error(tmp_path):
    # supp f = [4.5, 5.5] misses the band [0, 2]: no shell speed, no run
    cfg = tmp_path / "outside.ini"
    cfg.write_text("[probe]\nkind = local-decay\nbox_radius = 128\n"
                   "lambda = 5.0\nnu = 3.0\neps_f = 0.25\nt_min = 10\nt_max = 50\n"
                   "n_t = 8\ncriterion_kappa = 1.5\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert not (tmp_path / "out" / "manifest.json").exists()


# supp f meets the band but holds no eigenvalue of the box: without the
# guard every norm reads 0, the fit is nan and the run exits 1
@pytest.mark.parametrize("recipe, edits", [
    ("local-decay", [("eps_f = 0.25", "eps_f = 0.002"), ("box_radius = 512", "box_radius = 8"),
                     ("t_min = 10", "t_min = 1"), ("t_max = 200", "t_max = 6"),
                     ("n_t = 16", "n_t = 8")]),
    ("prop31-offset", [("[probe]\n", "[probe]\neps_f = 0.0005\n")]),
])
def test_empty_energy_window_is_a_config_error(tmp_path, capsys, recipe, edits):
    text = recipe_config(recipe)
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "empty.ini"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert "no eigenvalue in supp f" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_local_decay_on_a_threshold_is_a_config_error(tmp_path):
    # supp f = [1.2, 2.2] holds the threshold 2 of p0 = 1 - cos xi, where
    # the group velocity vanishes: the hypothesis fails, so the run stops
    cfg = parse_config(recipe_config("local-decay").replace("lambda = 1.0", "lambda = 1.7"))
    assert cfg.probe["lambda"] == 1.7
    with pytest.raises(ConfigError, match="critical"):
        run(cfg, out_dir=tmp_path, quiet=True)
    assert not (tmp_path / "manifest.json").exists()


def test_criterion_failure_exit(tmp_path):
    cfg = parse_config(MINIMAL_WF.replace("criterion_slope = 3.0",
                                          "criterion_slope = 99"))
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_CRITERION
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert any(not c["passed"] for c in manifest["criteria"])


def test_degenerate_fit_writes_null_not_nan(tmp_path):
    # a left bump narrower than every lattice step, between the sites of h Z:
    # its support S1 is empty, every norm is 0 and the fit is degenerate. JSON
    # (RFC 8259) has no NaN, so the fit's values must read null
    text = MINIMAL_WF
    for old, new in (("x1 = 4.0", "x1 = 4.003"), ("delta1 = 0.6", "delta1 = 0.001")):
        assert old in text
        text = text.replace(old, new)
    assert run(parse_config(text), out_dir=tmp_path, quiet=True) == EXIT_CRITERION

    def refuse(constant):
        raise ValueError(f"manifest.json holds {constant}, which is not JSON")
    manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=refuse)
    assert manifest["results"]["fit"] == {"intercept": None, "max_residual": None,
                                          "slope": None}
    assert all(float(r["norm"]) == 0.0
               for r in csv.DictReader(io.StringIO((tmp_path / "results.csv").read_text())))


def test_recipe_index_contents(capsys):
    list_recipes()
    out = capsys.readouterr().out
    assert len(RECIPES) >= 8
    for token in ("Theorem 2.1", "Corollary 2.2", "Proposition 3.1", "(3.4)",
                  "Theorem 5.1", "Section 4"):
        assert token in out
    # every recipe names its claim
    for name in RECIPES:
        assert RECIPES[name]["claim"]


def test_recipes_all_parse():
    for name in RECIPES:
        cfg = parse_config(recipe_config(name))
        assert cfg.probe_kind


def test_calculus_recipe_runs_green(tmp_path):
    cfg = parse_config(recipe_config("calculus-invariants"))
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_OK
    rows = list(csv.reader(io.StringIO((tmp_path / "results.csv").read_text())))
    assert rows[0] == ["check", "value", "tol", "passed"]
    assert len(rows) >= 6


def test_calculus_multiplier_checks_follow_model_dim(tmp_path, monkeypatch):
    # the multiplier and weight checks run on a box of the model's dimension;
    # in d = 2 the e^{i xi_1} multiplier shifts along the first axis
    import latscat.cli as cli

    cfg = parse_config("[model]\ndim = 2\npotential = none\n\n"
                       "[probe]\nkind = calculus\nlambda = 1.0\n")
    boxes = []
    for name in ("fourier_multiplier", "position_weight"):
        def recorded(arg, box, _f=getattr(cli, name)):
            boxes.append(box)
            return _f(arg, box)
        monkeypatch.setattr(cli, name, recorded)
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_OK
    assert len(boxes) == 4 and all(box.dim == 2 for box in boxes)
    rows = list(csv.reader(io.StringIO((tmp_path / "results.csv").read_text())))
    assert [r[3] for r in rows[1:]] == ["1"] * 6


def test_free_kernel_recipe_and_manifest(tmp_path):
    cfg = parse_config(recipe_config("free-resolvent-oracle"))
    code = run(cfg, out_dir=tmp_path, quiet=True)
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["latscat"]
    assert manifest["config"]["numerics"]["eps_k_max"] == 24
    assert manifest["criteria"][0]["passed"]
    rows = list(csv.reader(io.StringIO((tmp_path / "results.csv").read_text())))
    assert rows[0] == ["L", "epsilon_used", "norm", "iterations", "seconds"]


def test_determinism_modulo_seconds(tmp_path):
    cfg = parse_config(MINIMAL_WF)
    run(cfg, out_dir=tmp_path / "a", quiet=True)
    run(cfg, out_dir=tmp_path / "b", quiet=True)

    def strip_seconds(path):
        rows = list(csv.reader(io.StringIO(Path(path).read_text())))
        head = rows[0]
        idx = head.index("seconds")
        return [[c for i, c in enumerate(r) if i != idx] for r in rows]

    assert strip_seconds(tmp_path / "a" / "results.csv") == \
        strip_seconds(tmp_path / "b" / "results.csv")


def test_seed_override_changes_start(tmp_path):
    cfg = parse_config(MINIMAL_WF)
    assert run(cfg, out_dir=tmp_path / "s1", quiet=True, seed=123) == EXIT_OK
    manifest = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    # the config echo alone reproduces the run: it holds the seed used
    assert manifest["seed"] == 123
    assert manifest["config"]["numerics"]["seed"] == 123
    # the calculus probe draws its vectors from the seed: --seed reaches it,
    # as the same seed set in the config does
    calculus = recipe_config("calculus-invariants")
    runs = {"default": (parse_config(calculus), None),
            "override": (parse_config(calculus), 123),
            "config": (parse_config(calculus + "\n[numerics]\nseed = 123\n"), None)}
    csvs = {}
    for name, (cfg, seed) in runs.items():
        assert run(cfg, out_dir=tmp_path / name, quiet=True, seed=seed) == EXIT_OK
        csvs[name] = list(csv.reader(io.StringIO((tmp_path / name / "results.csv").read_text())))
    assert csvs["override"] != csvs["default"]
    assert csvs["override"] == csvs["config"]


def test_negative_seed_override_exits_2(tmp_path):
    # the override meets the check the config's own seed meets at parse time
    out = tmp_path / "out"
    assert main(["run", "--recipe", "free-wf-offset", "--seed", "-1", "--out", str(out)]) \
        == EXIT_SCHEMA
    with pytest.raises(ConfigError, match="seed override -1 must be >= 0"):
        run(parse_config(recipe_config("calculus-invariants")), out_dir=out, seed=-1)
    assert not out.exists()


# the README's results.csv columns by probe kind
CSV_COLUMNS = {
    "wf": ["h", "epsilon_used", "norm", "seconds", "columns"],
    "ik": ["L", "epsilon_used", "norm", "iterations", "seconds"],
    "one-sided": ["L", "epsilon_used", "norm", "iterations", "seconds"],
    "prop31": ["h", "t", "norm", "seconds", "columns", "rank", "eig_residual"],
    "local-decay": ["t", "norm", "seconds", "rank", "eig_residual"],
    "escape": ["h", "t", "lambda_min", "margin", "fd_mismatch", "drift"],
    "free-kernel": ["L", "epsilon_used", "norm", "iterations", "seconds"],
    "calculus": ["check", "value", "tol", "passed"],
}


def test_all_recipes_exit_zero(tmp_path, monkeypatch):
    # every canned recipe reproduces its claim end to end, writes the
    # documented CSV columns of its kind, and its results pass the
    # benchmark's correctness check: the same numeric leaves as the
    # benchmark's reference, each within 1e-3
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import checks

    reference = checks.load_json()["recipes"]
    for name in sorted(RECIPES):
        cfg = parse_config(recipe_config(name))
        code = run(cfg, out_dir=tmp_path / name, quiet=True)
        assert code == EXIT_OK, f"recipe {name} exited {code}"
        with open(tmp_path / name / "results.csv", newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == CSV_COLUMNS[cfg.probe_kind], name
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert checks.check_manifest(manifest, reference[name]) == [], name


def test_manifest_source_sha256_recomputes(tmp_path):
    # sha256 over the sorted module names and bytes of src/latscat
    digest = hashlib.sha256()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "latscat").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert run(parse_config(recipe_config("calculus-invariants")), out_dir=tmp_path,
               quiet=True) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["source_sha256"] == digest.hexdigest()


def _sweep_rows(out):
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_sweep_rows_equal_lone_runs(tmp_path):
    # box_radius = 64 fails its criterion (rel err 3.9e-3): a failed
    # criterion is data, so the sweep still exits 0
    out = tmp_path / "sweep"
    assert main(["sweep", "--recipe", "free-resolvent-oracle", "box_radius=64,128",
                 "--out", str(out)]) == EXIT_OK
    rows = _sweep_rows(out)
    assert [row["box_radius"] for row in rows] == ["64", "128"]
    text = recipe_config("free-resolvent-oracle")
    for row in rows:
        config = tmp_path / f"L{row['box_radius']}.ini"
        config.write_text(text.replace("box_radius = 256", f"box_radius = {row['box_radius']}"))
        code = main(["run", str(config), "--out", str(tmp_path / config.stem)])
        manifest = json.loads((tmp_path / config.stem / "manifest.json").read_text())
        assert manifest["config"]["probe"]["box_radius"] == int(row["box_radius"])
        expected = {"box_radius": row["box_radius"], "exit_code": str(code),
                    **{f"results.{k}": str(v) for k, v in manifest["results"].items()},
                    **{f"passed: {c['name']}": str(int(c["passed"]))
                       for c in manifest["criteria"]}}
        assert row == expected
        assert (out / f"box_radius={row['box_radius']}" / "manifest.json").exists()
    assert [row["exit_code"] for row in rows] == [str(EXIT_CRITERION), str(EXIT_OK)]


@pytest.mark.parametrize("recipe, axis", [
    ("free-resolvent-oracle", "no_such_key=1,2"),
    ("free-resolvent-oracle", "probe.kind=calculus"),
    ("free-resolvent-oracle", "box_radius=128,0"),
    # mu is a key of [model] and of the escape [probe]
    ("escape-ladder", "mu=0.5,1.0"),
])
def test_sweep_schema_error_exits_2_before_any_point(tmp_path, recipe, axis):
    out = tmp_path / "sweep"
    assert main(["sweep", "--recipe", recipe, axis, "--out", str(out)]) == EXIT_SCHEMA
    assert not out.exists()


def test_sweep_records_a_numerical_error_and_exits_with_it(tmp_path, capsys):
    # the ladder stops at 2^-4, far from converged: LAPConvergenceError
    out = tmp_path / "sweep"
    assert main(["sweep", "--recipe", "free-resolvent-oracle", "numerics.eps_k_max=4,24",
                 "numerics.convergence_tol=1e-12,2.5e-4", "--out", str(out)]) \
        == EXIT_NUMERICAL
    assert "NUMERICAL ERROR" in capsys.readouterr().err
    rows = {(row["numerics.eps_k_max"], row["numerics.convergence_tol"]): row
            for row in _sweep_rows(out)}
    assert rows["4", "1e-12"]["exit_code"] == str(EXIT_NUMERICAL)
    assert rows["4", "1e-12"]["results.rel_error"] == ""
    assert not (out / "numerics.eps_k_max=4_numerics.convergence_tol=1e-12").exists()
    assert rows["24", "2.5e-4"]["exit_code"] == str(EXIT_OK)
    assert float(rows["24", "2.5e-4"]["results.rel_error"]) <= 1e-3


def test_readme_sweep_commands_plan(monkeypatch):
    # every sweep quoted in the README parses at every point; none runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = re.findall(r"^\s*(latscat sweep .*)$", readme, flags=re.M)
    assert len(commands) >= 2
    planned = []
    monkeypatch.setattr(cli, "sweep", lambda text, axes, out: planned.append(
        len(cli.sweep_points(text, axes))) or EXIT_OK)
    for command in commands:
        assert main(shlex.split(command, comments=True)[1:]) == EXIT_OK, command
    assert len(planned) == len(commands) and min(planned) >= 2
