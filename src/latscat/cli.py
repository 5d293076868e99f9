"""Experiment runner: parse config, orchestrate probes, emit CSV/JSON, and
print one pass/fail line per declared criterion.

Exit codes: 0 all criteria pass, 1 criterion failure, 2 schema error,
3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import operator
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, ExperimentConfig, parse_config, parse_config_file
from .escape import (DerivativeMismatchError, EscapeLadder, HermiticityDriftError,
                     energy_inequality_check, monotonicity_check, verify_transport)
from .geometry import KernelPoint
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


def _criterion(lines, name, passed, detail):
    lines.append((name, bool(passed), detail))


def _fit_criteria(crit, p, fit, what):
    """One criterion per declared bound on a log-log fit; a degenerate fit
    fails them all."""
    for key, name, value, label, compare in (
            ("criterion_slope", f"{what} >=", fit.slope, "slope", operator.ge),
            ("criterion_residual", "max log10 residual <=", fit.max_residual, "residual",
             operator.le),
            ("criterion_max_slope", f"{what} <=", fit.slope, "slope", operator.le)):
        if p.get(key) is not None:
            _criterion(crit, f"{name} {p[key]}", (not fit.degenerate) and compare(value, p[key]),
                       f"{label} = {value:.3f}")


def _box_sweep_criteria(p, res):
    """The bounded-factor criterion of an L sweep."""
    crit = []
    _criterion(crit, f"norms bounded within factor {p['criterion_factor']} across L",
               res.bound_factor <= p["criterion_factor"],
               f"max/min = {res.bound_factor:.3f}")
    return crit


# --------------------------------------------------------------------------
# per-kind runners: take the config alone and return (rows, criteria,
# extras); each row is a dict from results.csv column to value, in column order


def _run_wf(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    kp = KernelPoint(p["x1"], p["xi1"], -p["x2"], p["xi2"])
    res = wf_probe(model, kp, _lap_from(cfg), p["h_list"], p["delta1"], p["delta2"])
    crit = []
    want_decay = p["expect"] == "decay"
    _criterion(crit, "classification matches expectation",
               res.decay_expected == want_decay,
               f"classify distances {res.report.distances}")
    _fit_criteria(crit, p, res.fit, "fitted slope")
    extras = {"fit": {"slope": res.fit.slope, "intercept": res.fit.intercept,
                      "max_residual": res.fit.max_residual},
              "box_radius": res.box_radius,
              "distances": res.report.distances}
    return res.rows, crit, extras


def _run_ik(cfg: ExperimentConfig):
    p = cfg.probe
    res = ik_probe(cfg.model_config(), _lap_from(cfg), p["weight_n"], p["l_list"],
                   seed=cfg.numerics["seed"])
    return (res.rows, _box_sweep_criteria(p, res),
            {"bound_factor": res.bound_factor, "control_norm": res.control_norm})


def _run_one_sided(cfg: ExperimentConfig):
    p = cfg.probe
    res = one_sided_probe(cfg.model_config(), _lap_from(cfg), p["nu"], p["s"], p["l_list"],
                          seed=cfg.numerics["seed"])
    return res.rows, _box_sweep_criteria(p, res), {"bound_factor": res.bound_factor}


def _run_local_decay(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    cutoff = EnergyCutoff(lam=p["lambda"], eps_f=p["eps_f"])
    tg = np.geomspace(p["t_min"], p["t_max"], p["n_t"])
    res = local_decay_probe(model, cutoff, p["nu"], tg, box_radius=p["box_radius"])
    crit = []
    if p["criterion_kappa"] is not None:
        _criterion(crit, f"fitted kappa >= {p['criterion_kappa']}",
                   np.isfinite(res.kappa_hat) and res.kappa_hat >= p["criterion_kappa"],
                   f"kappa_hat = {res.kappa_hat:.3f}")
    return res.rows, crit, {"kappa_hat": res.kappa_hat}


def _run_prop31(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    kp = KernelPoint(p["x1"], p["xi1"], -p["x2"], p["xi2"])
    res = propagation_probe(model, kp, EnergyCutoff(lam=p["lambda"], eps_f=p["eps_f"]),
                            p["h_list"], delta1=p["delta1"], delta2=p["delta2"],
                            mode=p["expect"])
    crit = []
    _fit_criteria(crit, p, res.fit, "sup-norm slope")
    return res.rows, crit, {"fit": {"slope": res.fit.slope,
                                        "max_residual": res.fit.max_residual},
                                "sup_norms": {str(k): v for k, v in res.sup_norms.items()}}


def _run_escape(cfg: ExperimentConfig):
    p = cfg.probe
    model = cfg.model_config()
    ladder = EscapeLadder(stencil=model.stencil, x2=p["x2"], xi2=p["xi2"],
                          delta1=p["delta1"], delta2=p["delta2"], h=p["h"],
                          depth=p["depth"], mu=p["mu"])
    crit = []
    for j in range(0, p["depth"] + 1):
        rep = verify_transport(ladder, j)
        _criterion(crit, f"transport inequality j={j} (min >= -1e-12)", rep.passed,
                   f"min = {rep.min_value:.2e} at {rep.argmin}")
    bad = dataclasses.replace(ladder, delta2=2.0, validate=False)
    rep_bad = verify_transport(bad, 0)
    _criterion(crit, "negative control (oversized delta2) fails", rep_bad.min_value < -1e-6,
               f"min = {rep_bad.min_value:.2e}")
    energy = energy_inequality_check(model, ladder, p["t_samples"], h_list=p["h_list"],
                                     box_radius=p["box_radius"])
    if p["criterion_exponent"] is not None:
        _criterion(crit, f"energy-inequality exponent >= {p['criterion_exponent']}",
                   energy.exponent >= p["criterion_exponent"],
                   f"exponent = {energy.exponent:.2f}")
    mono = monotonicity_check(model, ladder, p["mono_t_list"], energy_report=energy,
                              box_radius=p["mono_box_radius"])
    _criterion(crit, "monotonicity margins respect the fitted bound", mono.passed,
               f"margins = { {str(t): f'{m:.2e}' for t, m in mono.margins.items()} }")
    extras = {"energy_exponent": energy.exponent, "energy_amplitude": energy.amplitude,
              "monotonicity_margins": {str(t): m for t, m in mono.margins.items()}}
    return list(energy.rows()), crit, extras


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
    crit = []
    _criterion(crit, f"free kernel relative error <= {p['criterion_rel_error']}",
               rel <= p["criterion_rel_error"], f"rel err = {rel:.2e}")
    row = {"L": L, "epsilon_used": info["epsilon"], "norm": rel,
           "iterations": len(info["diffs"]), "seconds": secs}
    return [row], crit, {"rel_error": rel, "epsilon": info["epsilon"]}


def _run_calculus(cfg: ExperimentConfig):
    lam = cfg.probe["lambda"]
    model = cfg.model_config()
    box = Box(model.stencil.dim, 64)
    g = rng(cfg.numerics["seed"])
    u = g.standard_normal(box.site_count) + 1j * g.standard_normal(box.site_count)
    crit = []
    rows = []

    def check(name, value, tol):
        _criterion(crit, name, value <= tol, f"value = {value:.2e} (tol {tol:g})")
        rows.append({"check": name, "value": value, "tol": tol, "passed": int(value <= tol)})

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
    return rows, crit, {}


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


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def run(cfg: ExperimentConfig, out_dir=None, jobs: int = 1, seed=None, quiet=False):
    """Execute the probe; write results.csv + manifest.json; return exit code.

    `seed` overrides numerics.seed, so the config echo holds the seed used.
    Probes run serially; `jobs` takes 1 only, for perfbench/workloads.py.
    """
    if jobs != 1:
        raise ValueError(f"jobs={jobs!r}: probes run serially, jobs must be 1")
    out = Path(out_dir if out_dir is not None else cfg.output["directory"])
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed override {seed} must be >= 0")
        cfg = dataclasses.replace(cfg, numerics={**cfg.numerics, "seed": int(seed)})
    try:
        rows, criteria, extras = _RUNNERS[cfg.probe_kind](cfg)
    except ConfigError:
        raise
    except NUMERICAL_ERRORS as exc:
        if not quiet:
            print(f"NUMERICAL ERROR: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # parameter/hypothesis violations surfaced by the probes
        raise ConfigError(str(exc)) from exc
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(list(rows[0]))
        for row in rows:
            w.writerow([_fmt(v) for v in row.values()])
    manifest = {
        "config": cfg.resolved(),
        "seed": cfg.numerics["seed"],
        "versions": {"latscat": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "results": extras,
        "criteria": [{"name": n, "passed": ok, "detail": d} for n, ok, d in criteria],
    }
    # JSON (RFC 8259) has no NaN or infinity: a non-finite number is written as null
    manifest = json.loads(json.dumps(manifest, default=str), parse_constant=lambda _: None)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    all_ok = True
    for name, ok, detail in criteria:
        all_ok &= ok
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    if not criteria and not quiet:
        print("no criteria declared; probe artifacts written")
    return EXIT_OK if all_ok else EXIT_CRITERION


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
    sub.add_parser("list-recipes", help="print the canned recipe index")
    showp = sub.add_parser("show-recipe", help="print a canned recipe config")
    showp.add_argument("name")
    args = ap.parse_args(argv)
    if args.command == "list-recipes":
        list_recipes()
        return EXIT_OK
    if args.command == "show-recipe":
        try:
            print(recipe_config(args.name))
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return EXIT_SCHEMA
        return EXIT_OK
    try:
        if args.recipe:
            try:
                text = recipe_config(args.recipe)
            except KeyError as exc:
                raise ConfigError(str(exc)) from exc
            cfg = parse_config(text)
        elif args.config:
            cfg = parse_config_file(args.config)
        else:
            raise ConfigError("run needs a config path or --recipe")
        return run(cfg, out_dir=args.out, seed=args.seed)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
