"""Limiting-absorption resolvent solves, sandwiched operator-norm probes,
and the 1d free-resolvent closed form used as an oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .geometry import KernelPoint, kernel_point_setup, make_cone_symbol
from .model import (LatticeHamiltonian, LinearMap, ModelConfig, compose_maps,
                    adjoint_map, cap_width)
from .quantize import (check_xi_tails, finite_rank_pair, op_h, operator_norm, position_weight,
                       support_rows)
from .symbols import EnergyCutoff
from .util import DecayFit, rng


# relative tolerance of the power iterations in the cone sweeps
_NORM_TOL = 1e-2


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


class _ShiftedSolver:
    """(H0 + V - lam -/+ i(eps + W))^(-1) and its adjoint, at one eps.

    d = 1: `matrix` is None, and each solve is one LAPACK band
    factor-plus-solve with partial pivoting. The hops are hermitian, so the
    band of the adjoint is the forward band with its diagonal conjugated,
    built on the first adjoint solve.
    d >= 2: one sparse LU, factored here, of the complex symmetric CSC
    `matrix`: SuperLU in symmetric mode, a minimum-degree ordering of
    A^T + A, and a diagonal pivot kept unless it is below 0.01 of its
    column's largest entry. Im M <= -eps (>= +eps on the incoming branch)
    on the whole numerical range, so no symmetric principal submatrix is
    singular and no diagonal pivot can vanish. The adjoint is a
    conjugate-transpose solve on the same factors.

    Holds no reference to H, so a resolvent map built on it does not keep
    H alive.
    """

    def __init__(self, H: LatticeHamiltonian, lam: float, sign: int, eps: float):
        self.matrix = None
        if H.box.dim == 1:
            self._ab_f = H.banded(shift=lam, branch_sign=sign, eps=eps)
            self._ab_a = None
            self._b = H.stencil.bandwidth
        else:
            self.matrix = H.shifted(lam, sign, eps)
            self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))

    def solve(self, rhs, adjoint: bool = False):
        rhs = np.asarray(rhs, dtype=complex)
        if self.matrix is not None:
            return self._lu.solve(rhs, trans="H" if adjoint else "N")
        if adjoint and self._ab_a is None:
            self._ab_a = self._ab_f.copy()
            self._ab_a[self._b] = np.conj(self._ab_f[self._b])
        return sla.solve_banded((self._b, self._b), self._ab_a if adjoint else self._ab_f, rhs)


def _lap_iterate(H: LatticeHamiltonian, cfg: LAPConfig, rhs):
    """Walk the epsilon ladder until inner-region stabilization, with a
    fresh solver per rung; returns the converged rung's solver.

    Each d >= 2 rung's solve is checked against the matrix it factored:
    ||M u - rhs|| > 1e-10 ||rhs|| raises np.linalg.LinAlgError, the guard
    on the symmetric-mode LU's weak pivoting.
    """
    inner = H.inner_mask()
    prev = None
    diffs = []
    for eps in cfg.epsilon_sequence:
        # drop the last rung's LU before factoring this one: only one is alive
        sol = None
        sol = _ShiftedSolver(H, cfg.lam, cfg.sign, eps)
        u = sol.solve(rhs)
        if sol.matrix is not None:
            resid, size = np.linalg.norm(sol.matrix @ u - rhs), np.linalg.norm(rhs)
            if not resid <= 1e-10 * size:
                raise np.linalg.LinAlgError(f"sparse LU solve at eps = {eps:g} left residual "
                                            f"{resid:.2e} against |rhs| = {size:.2e}")
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


def resolvent_map(H: LatticeHamiltonian, cfg: LAPConfig, probe_rhs):
    """(R_map, eps) at the epsilon where the ladder converges on probe_rhs;
    R_map supports adjoints."""
    _, eps, sol, _ = _lap_iterate(H, cfg, probe_rhs)
    R = LinearMap(H.dim, sol.solve, partial(sol.solve, adjoint=True),
                  label=f"R{'+' if cfg.sign > 0 else '-'}")
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
    R, eps = resolvent_map(H, cfg, probe_rhs=probe)
    M = compose_maps(A_left, R, A_right)
    sigma, ninfo = operator_norm(M, tol=tol, return_info=True, seed=seed)
    info = {"epsilon": eps, **ninfo}
    return (sigma, info) if return_info else sigma


def free_kernel_1d(lam: float, sign: int, n):
    """Closed-form column of (H0 - lam -/+ i0)^(-1) delta_0 for p0 = 1 - cos xi,
    at the site n (a complex) or at an integer array of sites (an array of
    its shape).

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
    u = np.exp(s * 1j * theta * np.abs(np.asarray(n, dtype=int))) / (-s * 1j * np.sin(theta))
    return complex(u) if np.ndim(n) == 0 else u


# ---------------------------------------------------------------------------
# probes


def _sandwich_row(L, t0, A_left, H, lap, A_right, seed) -> dict:
    """The results.csv row of ||A_left R A_right|| on the box of radius L,
    timed from t0; epsilon_used is 0 when no ladder ran."""
    sigma, info = sandwich_norm(A_left, H, lap, A_right, tol=_NORM_TOL, return_info=True,
                                seed=seed)
    return {"L": L, "epsilon_used": info["epsilon"] or 0.0, "norm": sigma,
            "iterations": info["iterations"], "seconds": time.perf_counter() - t0}


def _finite_rank_row(h, a1, a2, H, lap) -> dict:
    """The timed results.csv row of ||Op^h(a1) R Op^h(a2)|| at h, exact for
    one-term d = 1 symbols of finite x-support.

    Both symbols are sampled once (finite_rank_pair) and pass the xi-tail
    guard. At the converged eps the norm is sigma_max of K1 R E2 Z2:
    (S2, Z2) the gram factor of Op^h(a2), so R E2 Z2 is one block solve of
    k columns (the row's "columns"), and K1 the rows S1 of Op^h(a1)
    (support_rows). The ladder walks on E2 Z2 1, the sum of those columns,
    so no random number is drawn. An empty S1 or k = 0 gives norm 0, and
    epsilon_used 0 because no ladder ran.
    """
    t0 = time.perf_counter()
    (b1, c1), (b2, c2), S1, (S2, Z2) = finite_rank_pair(a1, a2, h, H.box)
    check_xi_tails([(b1, c1), (b2, c2)], H.box)
    k = Z2.shape[1]
    eps, norm = 0.0, 0.0
    if len(S1) and k:
        E2Z2 = np.zeros((H.dim, k), dtype=complex)
        E2Z2[S2] = Z2
        R, eps = resolvent_map(H, lap, probe_rhs=E2Z2.sum(axis=1))
        Y = support_rows(b1, c1, S1, R(E2Z2).T)
        norm = float(np.linalg.svd(Y, compute_uv=False)[0])
    return {"h": h, "epsilon_used": eps, "norm": norm, "seconds": time.perf_counter() - t0,
            "columns": k}


@dataclass
class WfProbeResult:
    rows: list
    fit: DecayFit
    decay_expected: bool
    report: object
    box_radius: int


def wf_probe(model_cfg: ModelConfig, kp: KernelPoint, lap: LAPConfig,
             h_list: Sequence[float], delta1: float, delta2: float,
             box_radius: Optional[int] = None) -> WfProbeResult:
    """h-decay of ||Op^h(a1) R Op^h(a2)|| at lap.lam for bumps centered on
    the kernel point: a1 at (x, xi), a2 at (-y, eta); each row is the exact
    finite-rank row of _finite_rank_row, in ascending h.

    The box radius defaults to the rule of kernel_point_setup at min(h);
    explicit boxes below it are rejected. classify() at tolerance 3*delta1
    decides whether this is a decay run (point off all singular sets of
    R^lap.sign) or a control run.
    """
    hs, radii, report, a1, a2 = kernel_point_setup(kp, model_cfg.stencil, lap.lam, delta1,
                                                   delta2, h_list)
    if box_radius is None:
        box_radius = radii[0]
    elif box_radius < radii[0]:
        raise ValueError(f"box radius {box_radius} below the rule "
                         f"max(4*max(|x|,|y|)/h_min, 32) = {radii[0]}")
    H = model_cfg.assemble(box_radius, with_cap=True)

    rows = [_finite_rank_row(h, a1, a2, H, lap) for h in hs]
    fit = DecayFit.from_values(hs, [r["norm"] for r in rows])
    return WfProbeResult(rows=rows, fit=fit, decay_expected=report.outside_all(lap.sign),
                         report=report, box_radius=box_radius)


@dataclass
class BoxSweepResult:
    rows: list
    bound_factor: float         # max/min norm across L
    control_norm: Optional[float] = None


def _cone_sweep(model_cfg: ModelConfig, lap: LAPConfig, cones, weighted,
                L_list: Sequence[int], seed):
    """||A_left R A_right|| on each box of L_list, (A_left, A_right) =
    weighted(H, *ops), where ops quantize at h = 1 the d = 1 cone symbols
    (make_cone_symbol) of `cones`, (sign, r0) pairs; each norm is a power
    iteration to relative tolerance _NORM_TOL.

    The cones take f = EnergyCutoff(lap.lam, 0.15), supported in lap.lam +-
    0.3 and checked by make_cone_symbol, and an outer cutoff at 0.85 of the
    CAP-free radius. Returns the BoxSweepResult, whose bound_factor is the
    largest norm over the smallest, and (H, ops) of the largest box.
    """
    cutoff = EnergyCutoff(lap.lam, 0.15)
    rows = []
    for L in sorted(int(v) for v in L_list):
        t0 = time.perf_counter()
        H = model_cfg.assemble(L, with_cap=True)
        r_out = 0.85 * (L - cap_width(L))
        # fixed symbols on pinned small boxes: quantize the sampled symbol
        ops = [op_h(make_cone_symbol(sign, cutoff, r0, model_cfg.stencil, r_out=r_out),
                    1.0, H.box, check_resolution=False) for sign, r0 in cones]
        A_left, A_right = weighted(H, *ops)
        rows.append(_sandwich_row(L, t0, A_left, H, lap, A_right, seed))
    norms = [row["norm"] for row in rows]
    if max(norms) < 1e-280:
        factor = 1.0
    elif min(norms) <= 0.0:
        factor = float("inf")
    else:
        factor = max(norms) / min(norms)
    return BoxSweepResult(rows=rows, bound_factor=factor), (H, ops)


def ik_probe(model_cfg: ModelConfig, lap: LAPConfig, N: float, L_list: Sequence[int],
             seed=None) -> BoxSweepResult:
    """Two-sided cone estimate: ||<n>^N A_- R A_+^* <n>^N|| across box sizes,
    A_- the incoming and A_+ the outgoing d = 1 cone (make_cone_symbol), with
    r0 = 1 for both (cli gates bound_factor on criterion_factor). The control
    norm is the reversed, unweighted order ||A_+ R A_-^*|| at the largest box
    (no smallness claimed there).
    """
    def weighted(H, Am, Ap):
        W = position_weight(N, H.box)
        return compose_maps(W, Am), compose_maps(adjoint_map(Ap), W)

    res, (H, (Am, Ap)) = _cone_sweep(model_cfg, lap, ((-1, 1.0), (+1, 1.0)), weighted,
                                     L_list, seed)
    res.control_norm = sandwich_norm(Ap, H, lap, adjoint_map(Am), tol=_NORM_TOL, seed=seed)
    return res


def one_sided_probe(model_cfg: ModelConfig, lap: LAPConfig, nu: float, s: float,
                    L_list: Sequence[int], r0: float = 1.0, seed=None) -> BoxSweepResult:
    """One-sided estimate: ||<n>^(-nu) R Op(a) <n>^s|| across box sizes, with
    R and the cone a on the side lap.sign."""
    if not nu > 1.0:
        raise ValueError("need nu > 1")
    if not 0.0 < s < nu - 1.0:
        raise ValueError("need 0 < s < nu - 1")

    def weighted(H, A):
        return position_weight(-nu, H.box), compose_maps(A, position_weight(s, H.box))

    res, _ = _cone_sweep(model_cfg, lap, ((lap.sign, r0),), weighted, L_list, seed)
    return res
