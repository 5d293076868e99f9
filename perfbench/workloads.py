"""The four workloads: inputs built from the seed, and the operations of a pass.

An operation is one recipe run through ``cli.run`` or one d=2 norm or solve;
it returns a list of problems, empty when its outputs check out. Library
functions are looked up on their modules at call time so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from latscat import cli, config, model, quantize, recipes, resolvent, symbols

from . import DEFAULT_SEED, checks

RECIPE_WORKLOADS = {
    "propagation": ("prop31-offset",),
    "local-decay": ("local-decay",),
    "short-recipes": ("free-wf-offset", "longrange-wf-offset", "wf-onset-control",
                      "free-resolvent-oracle", "ik-two-sided", "one-sided",
                      "escape-ladder", "calculus-invariants"),
}

# d=2 long-range sandwiched resolvent: one box below the 2,048-site dense
# cutoff (radius 22, 2,025 sites) and one above it (radius 32, 4,225 sites)
D2 = {
    "radii": (22, 32),
    "h": 0.5,
    "lam": 1.0,
    "eps_k": (3, 20),
    "convergence_tol": 1e-2,
    "norm_tol": 1e-2,
    "residual_tol": 1e-6,
}

def _gauss_x(x):
    x = np.asarray(x)
    return np.exp(-0.5 * np.sum(x**2, axis=-1))


def _trig_xi(xi):
    # a trigonometric polynomial: entire in xi, so op_h resolves it on any grid
    xi = np.asarray(xi)
    return 1.0 + 0.5 * np.cos(xi[..., 0]) + 0.25 * np.sin(xi[..., 1])


def _recipe_op(name, seed, out_dir: Path, reference):
    cfg = config.parse_config(recipes.recipe_config(name))

    def run():
        out = out_dir / name
        code = cli.run(cfg, out_dir=out, jobs=1, seed=seed, quiet=True)
        if code != 0:
            return [f"exit code {code}"]
        manifest = checks.load_json(out / "manifest.json")
        return checks.check_manifest(manifest, reference)

    return name, run


def _d2_ops(seed, reference):
    p = D2
    mcfg = model.ModelConfig(stencil=model.laplacian_stencil(2),
                             potential=model.Potential(mu=0.5, amplitude=0.5, form="power_law"))
    lap = resolvent.LAPConfig(lam=p["lam"],
                              epsilon_sequence=resolvent.default_epsilon_sequence(*p["eps_k"]),
                              convergence_tol=p["convergence_tol"])
    symbol = symbols.separable_symbol(2, _gauss_x, _trig_xi)
    ops = []
    for radius in p["radii"]:
        g = np.random.default_rng([seed, radius])
        n = model.Box(2, radius).site_count
        probe = g.standard_normal(n) + 1j * g.standard_normal(n)
        state = {}

        def norm(radius=radius, state=state):
            state.clear()
            H = mcfg.assemble(radius)
            A = quantize.op_h(symbol, p["h"], H.box)
            sigma, info = resolvent.sandwich_norm(A, H, lap, A, tol=p["norm_tol"],
                                                  return_info=True, seed=seed)
            state.update(H=H, eps=info["epsilon"])
            return checks.check_sandwich(sigma, reference[f"sandwich_norm.r{radius}"],
                                         p["norm_tol"])

        def solve(probe=probe, state=state):
            if not state:
                return ["no converged epsilon: the norm operation did not complete"]
            H, eps = state["H"], state["eps"]
            # the resolvent at the epsilon the norm used (ladder 2 eps -> eps)
            at_eps = resolvent.LAPConfig(lam=p["lam"], epsilon_sequence=(2.0 * eps, eps),
                                         convergence_tol=float("inf"))
            R, eps_used = resolvent.resolvent_map(H, at_eps, probe_rhs=probe)
            u = R(probe)
            resid = np.linalg.norm(H(u) - p["lam"] * u - 1j * eps_used * u - probe)
            return checks.check_residual(float(resid / np.linalg.norm(probe)),
                                         p["residual_tol"])

        ops += [(f"d2.r{radius}.sandwich_norm", norm), (f"d2.r{radius}.solve", solve)]
    return ops


def build(workload: str, seed: int, out_dir: Path, reference: dict):
    """The (name, callable) operations of one pass of ``workload``.

    ``reference`` holds the default-seed values; at other seeds recipes are
    checked against their own gates only.
    """
    at_default = seed == DEFAULT_SEED
    if workload in RECIPE_WORKLOADS:
        return [_recipe_op(name, seed, out_dir,
                           reference["recipes"][name] if at_default else None)
                for name in RECIPE_WORKLOADS[workload]]
    if workload == "resolvent-d2":
        return _d2_ops(seed, reference["resolvent-d2"])
    raise ValueError(f"unknown workload {workload!r}")
