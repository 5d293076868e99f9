"""Experiment runner: parse config, orchestrate probes, emit CSV/JSON, and
judge every criterion in one place, one pass/fail line each; a sweep runs
a grid of config overrides and tabulates the runs.

Exit codes: 0 all criteria pass, 1 criterion failure, 2 schema error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, ExperimentConfig, parse_config
from .escape import (DerivativeMismatchError, EscapeLadder, HermiticityDriftError,
                     TRANSPORT_FLOOR, energy_inequality_check, monotonicity_check,
                     verify_transport)
from .geometry import KernelPoint, classify
from .model import Box
from .quantize import NormConvergenceError, ResolutionError, fourier_multiplier, position_weight
from .propagate import EnclosureError, evolve, local_decay_probe, propagation_probe
from .recipes import RECIPES, recipe_config
from .resolvent import (LAPConfig, LAPConvergenceError, _ShiftedSolver, free_kernel_1d,
                        default_epsilon_sequence, ik_probe, lap_solve, one_sided_probe, wf_probe)
from .symbols import EnergyCutoff
from .util import rng

EXIT_OK, EXIT_CRITERION, EXIT_SCHEMA, EXIT_NUMERICAL = 0, 1, 2, 3

NUMERICAL_ERRORS = (LAPConvergenceError, NormConvergenceError, EnclosureError,
                    ResolutionError, HermiticityDriftError, DerivativeMismatchError,
                    FloatingPointError, np.linalg.LinAlgError)


def _lap_from(cfg: ExperimentConfig) -> LAPConfig:
    """The LAP setup at the probe's lambda and, where the kind has one, sign."""
    n = cfg.numerics
    return LAPConfig(lam=cfg.probe["lambda"], sign=cfg.probe.get("sign", +1),
                     epsilon_sequence=default_epsilon_sequence(3, n["eps_k_max"]),
                     convergence_tol=n["convergence_tol"])


# each [probe] criterion_* key: the results leaf it gates and the comparison
# that passes
GATES = {
    "criterion_slope": ("fit.slope", ">="),
    "criterion_max_slope": ("fit.slope", "<="),
    "criterion_residual": ("fit.max_residual", "<="),
    "criterion_factor": ("bound_factor", "<="),
    "criterion_kappa": ("kappa_hat", ">="),
    "criterion_exponent": ("energy_exponent", ">="),
    "criterion_rel_error": ("rel_error", "<="),
}


def _judge(name, value, op, gate) -> dict:
    """A criterion: value against gate under op (>=, <=, >, <). The margin
    is signed so that a positive one passes, a zero one only under >= and
    <=; a nan value fails."""
    value, gate = float(value), float(gate)
    margin = value - gate if op[0] == ">" else gate - value
    passed = margin > 0 or (margin == 0 and op.endswith("="))
    return {"name": name, "value": value, "gate": gate, "margin": margin,
            "passed": bool(passed), "detail": f"{value:.6g} {op} {gate:g}"}


# --------------------------------------------------------------------------
# per-kind runners: take the config alone and return (rows, extras, checks);
# each row is a dict from results.csv column to value, in column order, and
# each check a probe's fixed check (name, value, op, gate)


def _classified_point(cfg: ExperimentConfig, sign: int):
    """The kernel point (x1, xi1, -x2, xi2) of a wf or prop31 config and its
    classify() report at tolerance 3 delta1, judged before any solve: a
    point on a singular set of R^sign under expect = decay, or off all of
    them under expect = control, violates the claim's premise (ValueError)."""
    p = cfg.probe
    kp = KernelPoint(p["x1"], p["xi1"], -p["x2"], p["xi2"])
    report = classify(kp, cfg.model_config().stencil, p["lambda"], tol=3.0 * p["delta1"])
    if report.outside_all(sign) != (p["expect"] == "decay"):
        raise ValueError(f"expect = {p['expect']} contradicts classify for R^{sign:+d}: "
                         f"distances {report.distances} against tolerance {3 * p['delta1']:g}")
    return kp, report


def _run_wf(cfg: ExperimentConfig):
    p = cfg.probe
    lap = _lap_from(cfg)
    kp, report = _classified_point(cfg, lap.sign)
    res = wf_probe(cfg.model_config(), kp, lap, p["h_list"], p["delta1"], p["delta2"])
    extras = {"fit": {"slope": res.fit.slope, "intercept": res.fit.intercept,
                      "max_residual": res.fit.max_residual},
              "box_radius": res.box_radius,
              "distances": report.distances}
    return res.rows, extras, []


def _run_ik(cfg: ExperimentConfig):
    p = cfg.probe
    res = ik_probe(cfg.model_config(), _lap_from(cfg), p["weight_n"], p["l_list"],
                   seed=cfg.numerics["seed"])
    return res.rows, {"bound_factor": res.bound_factor, "control_norm": res.control_norm}, []


def _run_one_sided(cfg: ExperimentConfig):
    p = cfg.probe
    res = one_sided_probe(cfg.model_config(), _lap_from(cfg), p["nu"], p["s"], p["l_list"],
                          seed=cfg.numerics["seed"])
    return res.rows, {"bound_factor": res.bound_factor}, []


def _run_local_decay(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    cutoff = EnergyCutoff(lam=p["lambda"], eps_f=p["eps_f"])
    tg = np.geomspace(p["t_min"], p["t_max"], p["n_t"])
    res = local_decay_probe(model, cutoff, p["nu"], tg, box_radius=p["box_radius"])
    return res.rows, {"kappa_hat": res.kappa_hat}, []


def _run_prop31(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    kp, _ = _classified_point(cfg, +1)
    res = propagation_probe(model, kp, EnergyCutoff(lam=p["lambda"], eps_f=p["eps_f"]),
                            p["h_list"], delta1=p["delta1"], delta2=p["delta2"])
    return res.rows, {"fit": {"slope": res.fit.slope, "max_residual": res.fit.max_residual},
                      "sup_norms": {str(k): v for k, v in res.sup_norms.items()}}, []


def _run_escape(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    ladder = EscapeLadder(stencil=model.stencil, x2=p["x2"], xi2=p["xi2"],
                          delta1=p["delta1"], delta2=p["delta2"], h=p["h"],
                          depth=p["depth"], mu=p["mu"])
    checks = [(f"transport min j={j}", verify_transport(ladder, j).min_value, ">=",
               TRANSPORT_FLOOR) for j in range(0, p["depth"] + 1)]
    bad = dataclasses.replace(ladder, delta2=2.0, validate=False)
    checks.append(("negative control min (oversized delta2)",
                   verify_transport(bad, 0).min_value, "<", -1e-6))
    energy = energy_inequality_check(model, ladder, p["t_samples"], h_list=p["h_list"],
                                     box_radius=p["box_radius"])
    mono = monotonicity_check(model, ladder, p["mono_t_list"], energy_report=energy,
                              box_radius=p["mono_box_radius"])
    checks.append(("monotonicity min margin", np.min(list(mono.margins.values())), ">=",
                   mono.floor))
    extras = {"energy_exponent": energy.exponent, "energy_amplitude": energy.amplitude,
              "monotonicity_margins": {str(t): m for t, m in mono.margins.items()}}
    return list(energy.rows()), extras, checks


def _run_free_kernel(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    lam = p["lambda"]
    L = p["box_radius"]
    H = model.assemble(L, with_cap=True)
    rhs = np.zeros(H.dim, dtype=complex)
    rhs[H.box.index_of([0])] = 1.0
    t0 = time.perf_counter()
    u, info = lap_solve(H, _lap_from(cfg), rhs, return_info=True)
    secs = time.perf_counter() - t0
    n = H.box.sites()[:, 0]
    inner = np.abs(n) <= int(p["inner_frac"] * L)
    exact = free_kernel_1d(lam, +1, n[inner])
    rel = float(np.linalg.norm(u[inner] - exact) / np.linalg.norm(exact))
    row = {"L": L, "epsilon_used": info["epsilon"], "norm": rel,
           "iterations": len(info["diffs"]), "seconds": secs}
    return [row], {"rel_error": rel, "epsilon": info["epsilon"]}, []


def _run_calculus(cfg: ExperimentConfig):
    lam = cfg.probe["lambda"]
    model = cfg.model_config()
    box = Box(model.stencil.dim, 64)
    g = rng(cfg.numerics["seed"])
    u = g.standard_normal(box.site_count) + 1j * g.standard_normal(box.site_count)
    checks = []

    def check(name, value, tol):
        checks.append((name, value, "<=", tol))

    ident = fourier_multiplier(lambda xi: np.ones(np.shape(xi)[:-1]), box)
    check("unit multiplier is the identity", float(np.linalg.norm(ident(u) - u)
                                                   / np.linalg.norm(u)), 1e-13)
    shift = fourier_multiplier(lambda xi: np.exp(1j * xi[..., 0]), box)
    shifted = np.roll(u.reshape(box.shape), -1, axis=0).ravel()
    check("e^{i xi} multiplier is the +n cyclic shift",
          float(np.linalg.norm(shift(u) - shifted) / np.linalg.norm(u)), 1e-12)
    wplus = position_weight(1.5, box)
    wminus = position_weight(-1.5, box)
    check("position weights invert", float(np.linalg.norm(wplus(wminus(u)) - u)
                                           / np.linalg.norm(u)), 1e-13)
    H = model.assemble(48, with_cap=True)
    eps1, eps2 = 1e-2, 2e-2
    s1 = _ShiftedSolver(H, lam, +1, eps1)
    s2 = _ShiftedSolver(H, lam, +1, eps2)
    v = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    lhs = s1.solve(v) - s2.solve(v)
    rhs = (1j * eps1 - 1j * eps2) * s1.solve(s2.solve(v))
    check("resolvent identity", float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)), 1e-8)
    Hh = model.assemble(48, with_cap=False)
    w = g.standard_normal(Hh.dim) + 1j * g.standard_normal(Hh.dim)
    ev = evolve(Hh, w, 3.0)
    check("unitarity of evolve", float(abs(np.linalg.norm(ev) - np.linalg.norm(w))
                                       / np.linalg.norm(w)), 1e-10)
    ev2 = evolve(Hh, evolve(Hh, w, 1.25), 1.75)
    check("group law", float(np.linalg.norm(ev2 - ev) / np.linalg.norm(w)), 1e-9)
    rows = [{"check": name, "value": value, "tol": tol,
             "passed": int(_judge(name, value, op, tol)["passed"])}
            for name, value, op, tol in checks]
    return rows, {}, checks


_RUNNERS = {
    "wf": _run_wf,
    "ik": _run_ik,
    "one-sided": _run_one_sided,
    "local-decay": _run_local_decay,
    "prop31": _run_prop31,
    "escape": _run_escape,
    "free-kernel": _run_free_kernel,
    "calculus": _run_calculus,
}


@cache
def source_sha256() -> str:
    """sha256 over the sorted names and bytes of latscat's modules: the code
    a manifest's numbers came from."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def run(cfg: ExperimentConfig, out_dir=None, jobs: int = 1, seed=None, quiet=False):
    """Execute the probe; write results.csv + manifest.json; return exit code.

    `seed` overrides numerics.seed and `out_dir` output.directory, so the
    config echo holds the seed and directory used. Every criterion is judged
    here: the runner's fixed checks, then each declared GATES key.
    `quiet` silences the pass/fail lines; a numerical error always reaches stderr.
    Probes run serially; `jobs` takes 1 only, for perfbench/workloads.py.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs!r}: probes run serially, jobs must be 1")
    out = Path(out_dir if out_dir is not None else cfg.output["directory"])
    cfg = dataclasses.replace(cfg, output={**cfg.output, "directory": str(out)})
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed override {seed} must be >= 0")
        cfg = dataclasses.replace(cfg, numerics={**cfg.numerics, "seed": int(seed)})
    try:
        rows, extras, checks = _RUNNERS[cfg.probe_kind](cfg)
    except ConfigError:
        raise
    except NUMERICAL_ERRORS as exc:
        print(f"NUMERICAL ERROR: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # parameter/hypothesis violations surfaced by the probes
        raise ConfigError(str(exc)) from exc
    leaves = _leaves(extras)
    criteria = [_judge(*check) for check in checks] + [
        _judge(key, leaves[leaf], op, cfg.probe[key]) for key, (leaf, op) in GATES.items()
        if cfg.probe.get(key) is not None]
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(list(rows[0]))
        for row in rows:
            w.writerow([_fmt(v) for v in row.values()])
    manifest = {
        "config": cfg.resolved(),
        "seed": cfg.numerics["seed"],
        "source_sha256": source_sha256(),
        "versions": {"latscat": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "results": extras,
        "criteria": criteria,
    }
    # JSON (RFC 8259) has no NaN or infinity: a non-finite number is written as null
    manifest = json.loads(json.dumps(manifest, default=str), parse_constant=lambda _: None)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if not quiet:
        for c in criteria:
            print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}  [{c['detail']}]")
        if not criteria:
            print("no criteria declared; probe artifacts written")
    return EXIT_OK if all(c["passed"] for c in criteria) else EXIT_CRITERION


def _leaves(obj, prefix: str = "") -> dict:
    """The scalar leaves of a JSON value, keyed by dotted path."""
    if not isinstance(obj, (dict, list)):
        return {prefix: obj}
    out = {}
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        out.update(_leaves(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def sweep_points(text: str, axes) -> list:
    """The grid of a sweep, every point parsed before any runs: one
    (overrides, config) pair per point of the Cartesian product of the axes
    `[section.]key=v1,v2,...`, the last axis varying fastest."""
    if not axes:
        raise ConfigError("sweep needs at least one axis [section.]key=v1,v2,...")
    grid = [{}]
    for axis in axes:
        key, _, values = axis.partition("=")
        if not key or not values:
            raise ConfigError(f"sweep axis {axis!r} is not [section.]key=v1,v2,...")
        if key in grid[0]:
            raise ConfigError(f"sweep axis {key} is given twice")
        grid = [{**point, key: value} for point in grid for value in values.split(",")]
    return [(point, parse_config(text, point)) for point in grid]


def sweep(text: str, axes, out_dir) -> int:
    """Run each point of the grid into out_dir/<point>/ and write
    out_dir/sweep.csv: per point the axis values, exit_code, every scalar
    results leaf and each criterion's passed. A failed criterion is data:
    the sweep exits 0 when every point wrote a manifest, else with the
    highest point code."""
    points = sweep_points(text, axes)
    out = Path(out_dir)
    rows = []
    for point, cfg in points:
        name = "_".join(f"{key}={value}" for key, value in point.items())
        try:
            code = run(cfg, out_dir=out / name, quiet=True)
        except ConfigError as exc:
            print(f"CONFIG ERROR: {exc}", file=sys.stderr)
            code = EXIT_SCHEMA
        print(f"{name}  exit {code}")
        row = {**point, "exit_code": code}
        if code in (EXIT_OK, EXIT_CRITERION):
            manifest = json.loads((out / name / "manifest.json").read_text(encoding="utf-8"))
            row.update(_leaves(manifest["results"], "results"))
            row.update({f"passed: {c['name']}": int(c["passed"]) for c in manifest["criteria"]})
        rows.append(row)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, list(dict.fromkeys(key for row in rows for key in row)))
        w.writeheader()
        w.writerows(rows)
    worst = max(row["exit_code"] for row in rows)
    return EXIT_OK if worst <= EXIT_CRITERION else worst


def list_recipes():
    for name in sorted(RECIPES):
        r = RECIPES[name]
        print(f"{name:24s} {r['claim']}: {r['description']}")
    print(f"{len(RECIPES)} recipes")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="latscat",
                                 description="lattice resolvent microstructure lab")
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config", nargs="?", help="path to an INI config")
    runp.add_argument("--recipe", help="run a canned recipe instead of a file")
    runp.add_argument("--out", default=None, help="output directory override")
    runp.add_argument("--seed", type=int, default=None, help="seed override")
    sweepp = sub.add_parser("sweep", help="run a grid of config overrides")
    sweepp.add_argument("args", nargs="+", metavar="[CONFIG] AXIS",
                        help="a config path unless --recipe, then axes [section.]key=v1,v2,...")
    sweepp.add_argument("--recipe", help="sweep a canned recipe instead of a file")
    sweepp.add_argument("--out", required=True, help="output directory")
    sub.add_parser("list-recipes", help="print the canned recipe index")
    showp = sub.add_parser("show-recipe", help="print a canned recipe config")
    showp.add_argument("name")
    args = ap.parse_args(argv)
    if args.command == "list-recipes":
        list_recipes()
        return EXIT_OK
    try:
        if args.command == "show-recipe":
            print(recipe_config(args.name))
            return EXIT_OK
        if args.command == "sweep":
            path, axes = (None, args.args) if args.recipe else (args.args[0], args.args[1:])
        else:
            path, axes = args.config, None
        if args.recipe:
            text = recipe_config(args.recipe)
        elif path:
            text = Path(path).read_text(encoding="utf-8")
        else:
            raise ConfigError("run needs a config path or --recipe")
        if axes is None:
            return run(parse_config(text), out_dir=args.out, seed=args.seed)
        return sweep(text, axes, args.out)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
