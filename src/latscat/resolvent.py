"""Limiting-absorption resolvent solves, sandwiched operator-norm probes,
and the 1d free-resolvent closed form used as an oracle."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import lapack
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

    A tridiagonal H (d = 1, bandwidth 1): one LAPACK gttrf, done here, on
    the rows of H.banded, partial pivoting; each solve is one gttrs, the
    adjoint a trans="C" solve on the same factors. A zero pivot raises
    np.linalg.LinAlgError.
    Any other H: one sparse LU, factored here, of the CSC `matrix`:
    SuperLU in symmetric mode, a minimum-degree ordering of A^T + A, and a
    diagonal pivot kept unless it is below 0.01 of its column's largest
    entry. Im M <= -eps (>= +eps on the incoming branch) on the whole
    numerical range, so for a complex symmetric M no symmetric principal
    submatrix is singular and no diagonal pivot can vanish. The adjoint is a
    conjugate-transpose solve on the same factors.

    Holds no reference to H, so a resolvent map built on it does not keep
    H alive.
    """

    def __init__(self, H: LatticeHamiltonian, lam: float, sign: int, eps: float):
        self.eps, self.matrix = eps, None
        if H.box.dim == 1 and H.stencil.bandwidth == 1:
            self._ab = H.banded(shift=lam, branch_sign=sign, eps=eps)
            *self._lu, info = lapack.zgttrf(self._ab[2, :-1], self._ab[1], self._ab[0, 1:])
            if info > 0:
                raise np.linalg.LinAlgError(f"zero pivot {info} in the tridiagonal "
                                            f"factorization at eps = {eps:g}")
        else:
            self.matrix = H.shifted(lam, sign, eps)
            self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))

    def solve(self, rhs, adjoint: bool = False):
        rhs = np.asarray(rhs, dtype=complex)
        if self.matrix is not None:
            return self._lu.solve(rhs, trans="H" if adjoint else "N")
        return lapack.zgttrs(*self._lu, rhs, trans="C" if adjoint else "N")[0]

    def check_residual(self, u, rhs):
        """np.linalg.LinAlgError unless ||M u - rhs|| <= 1e-10 ||rhs|| on
        every column of the (n, m) block u, M u taken from the matrix or
        the band this solver factored."""
        if self.matrix is not None:
            Mu = self.matrix @ u
        else:
            ab = self._ab
            Mu = ab[1, :, None] * u
            Mu[:-1] += ab[0, 1:, None] * u[1:]
            Mu[1:] += ab[2, :-1, None] * u[:-1]
        resid, size = np.linalg.norm(Mu - rhs, axis=0), np.linalg.norm(rhs, axis=0)
        bad = np.flatnonzero(~(resid <= 1e-10 * size))
        if len(bad):
            raise np.linalg.LinAlgError(f"solve at eps = {self.eps:g} left residual "
                                        f"{resid[bad[0]]:.2e} against |rhs| = {size[bad[0]]:.2e}")


def _lap_iterate(H: LatticeHamiltonian, cfg: LAPConfig, rhs):
    """Walk the epsilon ladder on an (n, m) block of right-hand sides, with
    a fresh solver per rung. Each column stops at the first rung whose
    inner-region change is below cfg.convergence_tol, and leaves the block.
    Returns (U, eps, sols, diffs): per column its u, its stopping eps, the
    solver of that rung and its inner diffs. A column still live below the
    last eps raises LAPConvergenceError.

    Solves are checked against the matrix they factored, ||M u - rhs|| <=
    1e-10 ||rhs|| per column, else np.linalg.LinAlgError: a sparse LU at
    every rung, the guard on the symmetric-mode LU's weak pivoting, and a
    tridiagonal solve at each column's stopping rung.
    """
    B = np.asarray(rhs, dtype=complex)
    m = B.shape[1]
    inner = H.inner_mask()
    U = np.empty_like(B)
    eps_at, sols, diffs = [None] * m, [None] * m, [[] for _ in range(m)]
    live, prev = list(range(m)), None
    for eps in cfg.epsilon_sequence:
        # drop the last rung's solver before factoring this one, unless a
        # column stopped there
        sol = None
        sol = _ShiftedSolver(H, cfg.lam, cfg.sign, eps)
        u = sol.solve(B[:, live])
        if sol.matrix is not None:
            sol.check_residual(u, B[:, live])
        ui = u[inner]
        if prev is not None:
            stop = []
            for i, j in enumerate(live):
                denom = np.linalg.norm(prev[:, i])
                diffs[j].append(float(np.linalg.norm(ui[:, i] - prev[:, i]) / denom)
                                if denom > 0 else 0.0)
                if diffs[j][-1] < cfg.convergence_tol:
                    stop.append(i)
            if stop:
                if sol.matrix is None:
                    sol.check_residual(u[:, stop], B[:, [live[i] for i in stop]])
                for i in stop:
                    U[:, live[i]], eps_at[live[i]], sols[live[i]] = u[:, i], eps, sol
                keep = [i for i in range(len(live)) if i not in stop]
                live, ui = [live[i] for i in keep], ui[:, keep]
                if not live:
                    return U, eps_at, sols, diffs
        prev = ui
    raise LAPConvergenceError(
        f"no epsilon below {cfg.epsilon_sequence[-1]:g} stabilized the inner region "
        f"(last diffs {diffs[live[0]][-3:]}); try a larger box or a stronger CAP")


def lap_solve(H: LatticeHamiltonian, cfg: LAPConfig, rhs, return_info: bool = False):
    """Solve (H - lam -/+ i eps) u = rhs down the epsilon ladder.

    Returns the converged u (optionally with (eps, inner diffs) info).
    """
    rhs = np.asarray(rhs, dtype=complex)
    if np.linalg.norm(rhs) == 0.0:
        u = np.zeros_like(rhs)
        return (u, {"epsilon": None, "diffs": []}) if return_info else u
    U, (eps,), _, (diffs,) = _lap_iterate(H, cfg, rhs[:, None])
    return (U[:, 0], {"epsilon": eps, "diffs": diffs}) if return_info else U[:, 0]


def _resolvent_maps(H: LatticeHamiltonian, cfg: LAPConfig, probes) -> list:
    """[(R_map, eps)], one per column of the (n, m) block `probes`: one
    ladder walk, and each column's map on the solver of the rung where that
    column stopped. The maps support adjoints."""
    _, eps_at, sols, _ = _lap_iterate(H, cfg, probes)
    return [(LinearMap(H.dim, sol.solve, partial(sol.solve, adjoint=True)), eps)
            for sol, eps in zip(sols, eps_at)]


def resolvent_map(H: LatticeHamiltonian, cfg: LAPConfig, probe_rhs):
    """(R_map, eps) at the epsilon where the ladder converges on probe_rhs;
    R_map supports adjoints."""
    [(R, eps)] = _resolvent_maps(H, cfg, np.asarray(probe_rhs)[:, None])
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


def _finite_rank_rows(hs, a1, a2, H, lap) -> list:
    """The timed results.csv rows of ||Op^h(a1) R Op^h(a2)|| at each h of
    hs, exact for one-term d = 1 symbols of finite x-support.

    Each row's symbols are sampled once (finite_rank_pair) and pass the
    xi-tail guard. At the row's converged eps the norm is sigma_max of
    K1 R E2 Z2: (S2, Z2) the gram factor of Op^h(a2), so R E2 Z2 is one block
    solve of k columns (the row's "columns"), and K1 the rows S1 of Op^h(a1)
    (support_rows). One ladder walk serves every row, on the block of their
    E2 Z2 1, the sums of those columns, so no random number is drawn; each
    row stops at its own eps. A row's seconds is its own work plus an equal
    share of the walk. An empty S1 or k = 0 gives norm 0, and epsilon_used
    0 because the row took no part in the walk.
    """
    rows, live = [], []
    for h in hs:
        t0 = time.perf_counter()
        (b1, c1), (b2, c2), S1, (S2, Z2) = finite_rank_pair(a1, a2, h, H.box)
        check_xi_tails([(b1, c1), (b2, c2)], H.box)
        k = Z2.shape[1]
        if len(S1) and k:
            E2Z2 = np.zeros((H.dim, k), dtype=complex)
            E2Z2[S2] = Z2
            live.append((len(rows), b1, c1, S1, E2Z2))
        rows.append({"h": h, "epsilon_used": 0.0, "norm": 0.0,
                     "seconds": time.perf_counter() - t0, "columns": k})
    if not live:
        return rows
    t0 = time.perf_counter()
    maps = _resolvent_maps(H, lap, np.column_stack([E2Z2.sum(axis=1)
                                                    for *_, E2Z2 in live]))
    share = (time.perf_counter() - t0) / len(live)
    for (i, b1, c1, S1, E2Z2), (R, eps) in zip(live, maps):
        t0 = time.perf_counter()
        Y = support_rows(b1, c1, S1, R(E2Z2).T)
        rows[i].update(epsilon_used=eps, norm=float(np.linalg.svd(Y, compute_uv=False)[0]))
        rows[i]["seconds"] += share + time.perf_counter() - t0
    return rows


@dataclass
class WfProbeResult:
    rows: list
    fit: DecayFit
    box_radius: int


def wf_probe(model_cfg: ModelConfig, kp: KernelPoint, lap: LAPConfig,
             h_list: Sequence[float], delta1: float, delta2: float) -> WfProbeResult:
    """h-decay of ||Op^h(a1) R Op^h(a2)|| at lap.lam for bumps centered on
    the kernel point: a1 at (x, xi), a2 at (-y, eta); the rows are the exact
    finite-rank rows of _finite_rank_rows, in ascending h, on the box of
    kernel_point_setup's rule at min(h).

    Whether the rows should decay is the caller's to judge, from classify().
    """
    hs, radii, a1, a2 = kernel_point_setup(kp, model_cfg.stencil, delta1, delta2, h_list)
    H = model_cfg.assemble(radii[0], with_cap=True)
    rows = _finite_rank_rows(hs, a1, a2, H, lap)
    fit = DecayFit.from_values(hs, [r["norm"] for r in rows])
    return WfProbeResult(rows=rows, fit=fit, box_radius=radii[0])


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
        sigma, info = sandwich_norm(A_left, H, lap, A_right, tol=_NORM_TOL, return_info=True,
                                    seed=seed)
        # epsilon_used is 0 when no ladder ran
        rows.append({"L": L, "epsilon_used": info["epsilon"] or 0.0, "norm": sigma,
                     "iterations": info["iterations"], "seconds": time.perf_counter() - t0})
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
