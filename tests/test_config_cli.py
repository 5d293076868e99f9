import csv
import io
import json
from pathlib import Path

import pytest

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
    # every numeric default is echoed
    assert "norm_tol" in resolved["numerics"]
    assert "cap_strength" in resolved["model"]
    assert resolved["probe"]["expect"] == "decay"


@pytest.mark.parametrize("mutation,match", [
    ("[probe]\nkind = wf\nbogus_key = 1\nx1=1\nxi1=1\nx2=1\nxi2=1", "unknown key"),
    ("[probe]\nkind = nosuch", "unknown probe kind"),
    ("[probe]\nkind =", "probe"),
    ("[weird]\nk = 1\n[probe]\nkind = calculus", "unknown section"),
    ("[probe]\nkind = one-sided\nnu = 3.0\ns = 2.5", "s < nu - 1"),
    ("[probe]\nkind = ik\ngamma_minus = 0.5\ngamma_plus = -0.5", "gamma"),
    ("[probe]\nkind = wf\nx1 = 1.0\nxi1 = 1.0\nx2 = 1.0\nxi2 = 1.0\nh_list = 0.5,0.25",
     "at least 4"),
    # the closed-form free kernel is the 1-d one
    ("[model]\ndim = 2\n[probe]\nkind = free-kernel", "dim = 1"),
    ("[model]\npotential = power_law\n[probe]\nkind = free-kernel", "potential = none"),
    # the propagation probe and the escape ladder are d = 1 constructions
    ("[model]\ndim = 2\n[probe]\nkind = prop31\nx1 = 4.0\nxi1 = 1.57\nx2 = 3.0\n"
     "xi2 = -1.57", "dim = 1"),
    ("[model]\ndim = 2\n[probe]\nkind = escape", "dim = 1"),
    # only local-decay reads [model] box_radius; the other kinds size their boxes
    ("[model]\nbox_radius = 64\n[probe]\nkind = calculus", "box_radius"),
], ids=["unknown-key", "unknown-kind", "empty-kind", "unknown-section",
        "one-sided-s", "ik-gammas", "short-h-list", "free-kernel-dim",
        "free-kernel-potential", "prop31-dim", "escape-dim", "model-box-radius"])
def test_schema_rejections(mutation, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(mutation)


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


def test_probe_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    # a KeyError from a bug inside a probe must not exit 2 as a config mistake
    import latscat.cli as cli

    def broken(cfg, jobs, seed):
        raise KeyError("bug inside the probe")

    monkeypatch.setitem(cli._RUNNERS, "calculus", broken)
    with pytest.raises(KeyError, match="bug inside the probe"):
        main(["run", "--recipe", "calculus-invariants", "--out", str(tmp_path)])


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
eps_k_min = 3
eps_k_max = 5
convergence_tol = 1e-9
""")
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_NUMERICAL


def test_criterion_failure_exit(tmp_path):
    cfg = parse_config(MINIMAL_WF.replace("criterion_slope = 3.0",
                                          "criterion_slope = 99"))
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_CRITERION
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert any(not c["passed"] for c in manifest["criteria"])


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
    assert json.loads((tmp_path / "s1" / "manifest.json").read_text())["seed"] == 123


def test_jobs_flag_same_results(tmp_path):
    cfg = parse_config(MINIMAL_WF)
    run(cfg, out_dir=tmp_path / "j1", jobs=1, quiet=True)
    run(cfg, out_dir=tmp_path / "j2", jobs=4, quiet=True)
    a = json.loads((tmp_path / "j1" / "manifest.json").read_text())["results"]["fit"]
    b = json.loads((tmp_path / "j2" / "manifest.json").read_text())["results"]["fit"]
    assert a == b


def test_all_recipes_exit_zero(tmp_path):
    # every canned recipe reproduces its claim end to end
    for name in sorted(RECIPES):
        cfg = parse_config(recipe_config(name))
        code = run(cfg, out_dir=tmp_path / name, quiet=True)
        assert code == EXIT_OK, f"recipe {name} exited {code}"
        assert (tmp_path / name / "results.csv").exists()
        assert (tmp_path / name / "manifest.json").exists()
