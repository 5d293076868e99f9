"""Canned reproduction recipes, one per verified claim."""

from __future__ import annotations

import math

_FREE = "potential = none"
_LONG_RANGE = "potential = power_law\namplitude = 0.5\nmu = 0.5"
# the deep epsilon ladder the wf and free-kernel resolvent solves need
_NUMERICS = "\n[numerics]\nconvergence_tol = 2.5e-4\neps_k_max = 24\n"

# (x1, xi1, x2, xi2), the centres of the bumps a1 and a2: off Sigma_0,
# Sigma_+ and Sigma'_+, and with a1 on the outgoing flow ray from a2
_OFF_SET = (4.0, math.pi / 2, -3.0, -math.pi / 2)
_ON_RAY = (4.0, math.pi / 2, 2.0, math.pi / 2)


def _kernel_point(kind: str, model: str, point: tuple, **criteria) -> str:
    """Config of a wf or prop31 probe at the kernel point `point` with the
    shared bumps and h list; `criteria` are the expect/criterion_* keys in
    order, and wf probes get the shared [numerics] block."""
    x1, xi1, x2, xi2 = point
    checks = "".join(f"{key} = {value}\n" for key, value in criteria.items())
    return f"""
[model]
{model}

[probe]
kind = {kind}
lambda = 1.0
x1 = {x1}
xi1 = {xi1}
x2 = {x2}
xi2 = {xi2}
delta1 = 0.6
delta2 = 0.3
h_list = 0.125,0.0625,0.03125,0.015625
{checks}{_NUMERICS if kind == "wf" else ""}"""


_DECAY = dict(expect="decay", criterion_slope=3.0, criterion_residual=0.3)

RECIPES = {
    "free-wf-offset": {
        "claim": "Theorem 2.1 (wave front set upper bound), free model",
        "description": "h-decay of the bump-sandwiched outgoing resolvent at an "
                       "off-set kernel point; fitted slope >= 3.",
        "config": _kernel_point("wf", _FREE, _OFF_SET, **_DECAY),
    },
    "longrange-wf-offset": {
        "claim": "Theorem 2.1 (wave front set upper bound), long-range potential",
        "description": "Same probe with V(n) = 0.5 (1+n^2)^(-1/4); slope >= 3 "
                       "survives the mu = 0.5 tail.",
        "config": _kernel_point("wf", _LONG_RANGE, _OFF_SET, **_DECAY),
    },
    "wf-onset-control": {
        "claim": "Theorem 2.1 dichotomy (free propagation set is sharp)",
        "description": "Control run with the kernel point on the outgoing flow "
                       "ray: no rapid decay (slope <= 1).",
        "config": _kernel_point("wf", _FREE, _ON_RAY, expect="control",
                                criterion_max_slope=1.0),
    },
    "free-resolvent-oracle": {
        "claim": "Limiting absorption principle, closed-form check",
        "description": "lap_solve column for delta_0 against the residue-calculus "
                       "free kernel on the inner half box (rel err <= 1e-3).",
        "config": f"""
[model]
potential = none

[probe]
kind = free-kernel
lambda = 1.0
box_radius = 256
criterion_rel_error = 1e-3
inner_frac = 0.5
{_NUMERICS}""",
    },
    "ik-two-sided": {
        "claim": "Corollary 2.2 (two-sided cone resolvent estimate)",
        "description": "Weighted incoming/outgoing cone sandwich bounded across "
                       "box sizes within factor 1.2.",
        "config": f"""
[model]
{_LONG_RANGE}

[probe]
kind = ik
lambda = 1.0
weight_n = 1.0
l_list = 128,256,512
criterion_factor = 1.2
""",
    },
    "prop31-offset": {
        "claim": "Proposition 3.1 (uniform-in-time propagation estimate)",
        "description": "sup_t of the sandwiched propagator decays with slope >= 3 "
                       "for an off-set on-shell kernel point.",
        "config": _kernel_point("prop31", _LONG_RANGE, _OFF_SET, expect="decay",
                                criterion_slope=3.0),
    },
    "local-decay": {
        "claim": "Local decay estimate (3.4)",
        "description": "Weighted propagator norm fits <t>^-kappa with kappa >= 1.5 "
                       "(nu = 3) before boundary reflection.",
        "config": f"""
[model]
{_LONG_RANGE}

[probe]
kind = local-decay
lambda = 1.0
nu = 3.0
eps_f = 0.25
t_min = 10
t_max = 200
n_t = 16
box_radius = 512
criterion_kappa = 1.5
""",
    },
    "one-sided": {
        "claim": "Theorem 5.1 (one-sided microlocal resolvent estimate)",
        "description": "||<n>^-3 R Op(a+) <n>^1|| bounded across box sizes within "
                       "factor 1.2 for the outgoing cone.",
        "config": f"""
[model]
{_LONG_RANGE}

[probe]
kind = one-sided
lambda = 1.0
sign = 1
nu = 3.0
s = 1.0
l_list = 128,256,512
criterion_factor = 1.2
""",
    },
    "escape-ladder": {
        "claim": "Section 4 escape-function construction",
        "description": "Pointwise transport inequalities for the moving bumps, the "
                       "spectral energy inequality with exponent >= 1.5, and the "
                       "Heisenberg monotonicity margins.",
        "config": """
[model]
potential = none

[probe]
kind = escape
x2 = 1.2
xi2 = 1.5707963267948966
delta1 = 0.333333333333333
delta2 = 0.28
h = 0.125
depth = 2
mu = 1.0
t_samples = 0.5,2,8
h_list = 0.25,0.125,0.0625
box_radius = 48
mono_t_list = 1,5,20
mono_box_radius = 64
criterion_exponent = 1.5
""",
    },
    "calculus-invariants": {
        "claim": "Quantization identities and resolvent algebra",
        "description": "Quick identity suite: multipliers, weights, resolvent "
                       "identity, unitarity, group law.",
        "config": """
[model]
potential = none

[probe]
kind = calculus
lambda = 1.0
""",
    },
}


def recipe_config(name: str) -> str:
    if name not in RECIPES:
        raise KeyError(f"unknown recipe {name!r}; see list-recipes")
    return RECIPES[name]["config"]
