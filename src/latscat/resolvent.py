"""Limiting-absorption resolvent solves, sandwiched operator-norm probes,
and the 1d free-resolvent closed form used as an oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .geometry import KernelPoint, classify, make_bump_pair, make_cone_symbol
from .model import (LatticeHamiltonian, LinearMap, ModelConfig, compose_maps,
                    adjoint_map, check_energy_window)
from .quantize import op_h, operator_norm, position_weight
from .util import lstsq_loglog, rng


def _pmap(fn, items, jobs):
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=int(jobs)) as ex:
        return list(ex.map(fn, items))


class LAPConvergenceError(RuntimeError):
    """No epsilon in the sequence stabilized the inner-region solution."""


def default_epsilon_sequence(k_min: int = 3, k_max: int = 20) -> tuple:
    return tuple(2.0 ** (-k) for k in range(k_min, k_max + 1))


@dataclass(frozen=True)
class LAPConfig:
    """Limiting-absorption setup for (H - lam -/+ i eps)^(-1).

    sign=+1 is the outgoing branch (H - lam - i eps, CAP -iW); sign=-1 flips
    both. epsilon_sequence must be strictly decreasing; the solve accepts the
    first eps whose successive halving agrees on the CAP-free region.
    """

    lam: float
    epsilon_sequence: tuple = field(default_factory=default_epsilon_sequence)
    sign: int = +1
    convergence_tol: float = 1e-3

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilon_sequence)
        if len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:])) or eps[-1] <= 0:
            raise ValueError("epsilon_sequence must be strictly decreasing and positive")
        object.__setattr__(self, "epsilon_sequence", eps)
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass
class DecayFit:
    """Least-squares fit of log10(norm) against log10(h or t)."""

    slope: float
    intercept: float
    max_residual: float
    degenerate: bool = False

    @classmethod
    def from_values(cls, xs, ys) -> "DecayFit":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if len(xs) < 4:
            raise ValueError("DecayFit needs at least 4 points")
        if np.any(ys <= 0.0) or not np.all(np.isfinite(ys)):
            return cls(slope=float("nan"), intercept=float("nan"),
                       max_residual=float("nan"), degenerate=True)
        return cls(*lstsq_loglog(xs, ys))


class _ShiftedSolver:
    """(H0 + V - lam -/+ i(eps + W))^(-1) and its adjoint, factored once:
    LAPACK band solves for d=1, one sparse LU for d >= 2 whose adjoint is a
    conjugate-transpose solve on the same factors."""

    def __init__(self, H: LatticeHamiltonian, lam: float, sign: int, eps: float):
        self.H = H
        if H.box.dim == 1:
            self._ab_f = H.banded(shift=lam, branch_sign=sign, eps=eps)
            self._ab_a = H.banded(shift=lam, branch_sign=-sign, eps=eps)
            self._b = H.stencil.bandwidth
        else:
            self._lu = spla.splu(H.shifted(lam, sign, eps))

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=complex)
        if self.H.box.dim == 1:
            return sla.solve_banded((self._b, self._b), self._ab_f, rhs)
        return self._lu.solve(rhs)

    def solve_adjoint(self, rhs):
        rhs = np.asarray(rhs, dtype=complex)
        if self.H.box.dim == 1:
            return sla.solve_banded((self._b, self._b), self._ab_a, rhs)
        return self._lu.solve(rhs, trans="H")


def _lap_iterate(H: LatticeHamiltonian, cfg: LAPConfig, rhs):
    """Walk the epsilon ladder until inner-region stabilization."""
    inner = H.inner_mask()
    prev = None
    diffs = []
    for k, eps in enumerate(cfg.epsilon_sequence):
        sol = _ShiftedSolver(H, cfg.lam, cfg.sign, eps)
        u = sol.solve(rhs)
        if prev is not None:
            denom = np.linalg.norm(prev[inner])
            diff = np.linalg.norm((u - prev)[inner]) / denom if denom > 0 else 0.0
            diffs.append(diff)
            if diff < cfg.convergence_tol:
                return u, eps, sol, diffs
        prev = u
    raise LAPConvergenceError(
        f"no epsilon below {cfg.epsilon_sequence[-1]:g} stabilized the inner region "
        f"(last diffs {diffs[-3:]}); try a larger box or a stronger CAP")


def lap_solve(H: LatticeHamiltonian, cfg: LAPConfig, rhs, return_info: bool = False):
    """Solve (H - lam -/+ i eps) u = rhs down the epsilon ladder.

    Returns the converged u (optionally with (eps, inner diffs) info).
    """
    rhs = np.asarray(rhs, dtype=complex)
    if np.linalg.norm(rhs) == 0.0:
        u = np.zeros_like(rhs)
        return (u, {"epsilon": None, "diffs": []}) if return_info else u
    u, eps, _, diffs = _lap_iterate(H, cfg, rhs)
    return (u, {"epsilon": eps, "diffs": diffs}) if return_info else u


def resolvent_map(H: LatticeHamiltonian, cfg: LAPConfig, probe_rhs=None, seed=None):
    """(R_map, eps) at the converged epsilon; R_map supports adjoints."""
    if probe_rhs is None:
        g = rng(seed)
        probe_rhs = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
        probe_rhs /= np.linalg.norm(probe_rhs)
    _, eps, sol, _ = _lap_iterate(H, cfg, probe_rhs)
    R = LinearMap(H.dim, sol.solve, sol.solve_adjoint, label=f"R{'+' if cfg.sign > 0 else '-'}")
    return R, eps


def sandwich_norm(A_left: LinearMap, H: LatticeHamiltonian, cfg: LAPConfig,
                  A_right: LinearMap, tol: float = 1e-2, return_info: bool = False,
                  seed=None):
    """Operator norm of A_left o R o A_right at the converged epsilon.

    Every application of the composition performs one shifted solve.
    Deterministic given the fixed seed.
    """
    g = rng(seed)
    v = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    probe = A_right(v / np.linalg.norm(v))
    if np.linalg.norm(probe) < 1e-280:
        info = {"epsilon": None, "iterations": 0, "residual": 0.0}
        return (0.0, info) if return_info else 0.0
    R, eps = resolvent_map(H, cfg, probe_rhs=probe, seed=seed)
    M = compose_maps(A_left, R, A_right)
    sigma, ninfo = operator_norm(M, tol=tol, return_info=True, seed=seed)
    info = {"epsilon": eps, **ninfo}
    return (sigma, info) if return_info else sigma


def free_kernel_1d(lam: float, sign: int, n: int) -> complex:
    """Closed-form column of (H0 - lam -/+ i0)^(-1) delta_0 for p0 = 1 - cos xi.

    With theta = arccos(1 - lam) in (0, pi):
        u(n) = e^{ +- i theta |n| } / ( -+ i sin theta ),
    the sign fixed by substitution into (H0 - lam) u = delta_0 and by
    Im<delta_0, (H - lam - i eps)^(-1) delta_0> > 0 for eps > 0.
    """
    if not 0.0 < lam < 2.0:
        raise ValueError("lam must lie inside the band (0, 2)")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    theta = np.arccos(1.0 - lam)
    s = float(sign)
    return complex(np.exp(s * 1j * theta * abs(int(n))) / (-s * 1j * np.sin(theta)))


# ---------------------------------------------------------------------------
# probes


@dataclass
class ProbeRow:
    key: float                  # h or L
    epsilon: Optional[float]
    norm: float
    iterations: int
    seconds: float


@dataclass
class WfProbeResult:
    rows: list
    fit: DecayFit
    decay_expected: bool
    report: object
    box_radius: int


def wf_probe(model_cfg: ModelConfig, kp: KernelPoint, lam: float,
             h_list: Sequence[float], delta1: float, delta2: float,
             box_radius: Optional[int] = None, norm_tol: float = 1e-2,
             lap: Optional[LAPConfig] = None, classify_grid: int = 4096,
             jobs: int = 1, seed=None) -> WfProbeResult:
    """h-decay of ||Op^h(a1) R^+ Op^h(a2)|| for bumps centered on the kernel
    point: a1 at (x, xi), a2 at (-y, eta).

    The box radius defaults to max(4 max(|x|,|y|) / min(h), 32); explicit
    boxes below the first term are rejected. classify() at tolerance
    3*delta1 decides whether this is a decay run (point off all singular
    sets) or a control run.
    """
    if kp.dim != model_cfg.stencil.dim:
        raise ValueError("kernel point dimension mismatch")
    h_list = sorted(float(h) for h in h_list)
    hmin = min(h_list)
    span = max(np.max(np.abs(kp.x)), np.max(np.abs(kp.y)), 0.5)
    need = int(np.ceil(4.0 * span / hmin))
    if box_radius is None:
        box_radius = max(need, 32)
    elif box_radius < need:
        raise ValueError(f"box radius {box_radius} below the rule 4*max(|x|,|y|)/h_min = {need}")
    report = classify(kp, model_cfg.stencil, lam, tol=3.0 * delta1, grid_n=classify_grid)
    decay_expected = report.outside_all()
    H = model_cfg.assemble(box_radius, with_cap=True)
    a1, a2 = make_bump_pair((kp.x, kp.xi), (-kp.y, kp.eta), delta1, delta2)
    cfg = lap if lap is not None else LAPConfig(lam=lam)

    def run_h(h):
        t0 = time.perf_counter()
        A1 = op_h(a1, h, H.box)
        A2 = op_h(a2, h, H.box)
        sigma, info = sandwich_norm(A1, H, cfg, A2, tol=norm_tol, return_info=True,
                                    seed=seed)
        return ProbeRow(key=h, epsilon=info["epsilon"], norm=sigma,
                        iterations=info["iterations"],
                        seconds=time.perf_counter() - t0)

    rows = _pmap(run_h, sorted(h_list, reverse=True), jobs)
    rows.sort(key=lambda r: r.key)
    fit = DecayFit.from_values([r.key for r in rows], [r.norm for r in rows])
    return WfProbeResult(rows=rows, fit=fit, decay_expected=decay_expected,
                         report=report, box_radius=box_radius)


@dataclass
class BoxSweepResult:
    rows: list
    bounded: bool
    bound_factor: float
    control_norm: Optional[float] = None


def _bounded(rows):
    vals = [r.norm for r in rows]
    if max(vals) < 1e-280:
        return True, 1.0
    if min(vals) <= 0.0:
        return False, float("inf")
    return max(vals) <= 1.2 * min(vals), max(vals) / min(vals)


def ik_probe(model_cfg: ModelConfig, lam: float, gamma_minus: float, gamma_plus: float,
             N: float, L_list: Sequence[int], norm_tol: float = 1e-2,
             lap: Optional[LAPConfig] = None, jobs: int = 1, seed=None) -> BoxSweepResult:
    """Two-sided cone estimate: ||<n>^N A_- R^+ A_+^* <n>^N|| across box sizes.

    The cone symbols take the energy window lam +- 0.3, r0 = 1 and an outer
    cutoff at 0.85 of the CAP-free radius. Bounded iff the largest value
    stays within factor 1.2 of the smallest. The control row is the
    reversed, unweighted order ||A_+ R^+ A_-^*|| at the largest box (no
    smallness claimed there).
    """
    if not -1.0 < gamma_minus < gamma_plus < 1.0:
        raise ValueError("need -1 < gamma_- < gamma_+ < 1")
    window = (lam - 0.3, lam + 0.3)
    check_energy_window(model_cfg.stencil, window)
    cfg = lap if lap is not None else LAPConfig(lam=lam)
    L_sorted = sorted(int(v) for v in L_list)
    control_box = {"value": None}

    def run_L(L):
        t0 = time.perf_counter()
        H = model_cfg.assemble(L, with_cap=True)
        r_out = 0.85 * (L - model_cfg.cap_for(H.box).width)
        a_m = make_cone_symbol(-1, gamma_minus, window, 1.0, model_cfg.stencil, r_out=r_out)
        a_p = make_cone_symbol(+1, gamma_plus, window, 1.0, model_cfg.stencil, r_out=r_out)
        # fixed symbols on pinned small boxes: quantize the sampled symbol
        Am = op_h(a_m, 1.0, H.box, check_resolution=False)
        Ap = op_h(a_p, 1.0, H.box, check_resolution=False)
        W = position_weight(N, H.box)
        M_left = compose_maps(W, Am)
        M_right = compose_maps(adjoint_map(Ap), W)
        sigma, info = sandwich_norm(M_left, H, cfg, M_right, tol=norm_tol,
                                    return_info=True, seed=seed)
        if L == L_sorted[-1]:
            control_box["value"], _ = sandwich_norm(Ap, H, cfg, adjoint_map(Am),
                                                    tol=norm_tol, return_info=True,
                                                    seed=seed)
        return ProbeRow(key=L, epsilon=info["epsilon"], norm=sigma,
                        iterations=info["iterations"],
                        seconds=time.perf_counter() - t0)

    rows = _pmap(run_L, L_sorted, jobs)
    ok, factor = _bounded(rows)
    return BoxSweepResult(rows=rows, bounded=ok, bound_factor=factor,
                          control_norm=control_box["value"])


def one_sided_probe(model_cfg: ModelConfig, lam: float, sign: int, gamma: float,
                    nu: float, s: float, L_list: Sequence[int], r0: float = 1.0,
                    norm_tol: float = 1e-2, lap: Optional[LAPConfig] = None,
                    jobs: int = 1, seed=None) -> BoxSweepResult:
    """One-sided estimate: ||<n>^(-nu) R^sign Op(a_sign) <n>^s|| across boxes,
    with the cone window and outer cutoff of ik_probe."""
    if not nu > 1.0:
        raise ValueError("need nu > 1")
    if not 0.0 < s < nu - 1.0:
        raise ValueError("need 0 < s < nu - 1")
    window = (lam - 0.3, lam + 0.3)
    check_energy_window(model_cfg.stencil, window)
    cfg = lap if lap is not None else LAPConfig(lam=lam, sign=sign)
    if cfg.sign != sign:
        raise ValueError("lap.sign disagrees with the probe sign")

    def run_L(L):
        t0 = time.perf_counter()
        H = model_cfg.assemble(L, with_cap=True)
        r_out = 0.85 * (L - model_cfg.cap_for(H.box).width)
        a = make_cone_symbol(sign, gamma, window, r0, model_cfg.stencil, r_out=r_out)
        A = op_h(a, 1.0, H.box, check_resolution=False)
        W_out = position_weight(-nu, H.box)
        W_in = position_weight(s, H.box)
        sigma, info = sandwich_norm(W_out, H, cfg, compose_maps(A, W_in),
                                    tol=norm_tol, return_info=True, seed=seed)
        return ProbeRow(key=L, epsilon=info["epsilon"], norm=sigma,
                        iterations=info["iterations"],
                        seconds=time.perf_counter() - t0)

    rows = _pmap(run_L, sorted(int(v) for v in L_list), jobs)
    ok, factor = _bounded(rows)
    return BoxSweepResult(rows=rows, bounded=ok, bound_factor=factor)
