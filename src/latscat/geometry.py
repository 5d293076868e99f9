"""Classical phase-space data: energy shells, the singular sets of the
resolvent kernel, membership/distance tests, and symbol factories for
phase-space bumps and cones."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .escape import DEFAULT_PHI
from .model import CriticalValueError, EmptyShellError, Stencil, check_energy_window
from .symbols import Symbol, SupportMeta, separable_symbol
from .util import product_grid, reduce_torus, torus_distance


@dataclass(frozen=True)
class KernelPoint:
    """A point (x, xi, y, eta) of T*(M x M); the diagonal reads (x, xi, -x, xi).

    Torus coordinates are reduced to [0, 2pi)^d at construction.
    """

    x: np.ndarray
    xi: np.ndarray
    y: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "xi", reduce_torus(np.atleast_1d(self.xi)))
        object.__setattr__(self, "eta", reduce_torus(np.atleast_1d(self.eta)))
        if not (len(self.x) == len(self.y) == len(self.xi) == len(self.eta)):
            raise ValueError("coordinate dimensions disagree")

    @property
    def dim(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class MembershipReport:
    in_sigma0: bool
    in_sigma_plus: bool
    in_sigma_minus: bool
    in_sigma_prime_plus: bool
    in_sigma_prime_minus: bool
    distances: dict

    def outside_all(self) -> bool:
        """Off Sigma_0, Sigma_+ and Sigma'_+, the sets of the outgoing resolvent."""
        return not (self.in_sigma0 or self.in_sigma_plus or self.in_sigma_prime_plus)


def shell_points(stencil: Stencil, lam: float, grid_n: int = 4096) -> np.ndarray:
    """Momenta with p0(xi) = lam, by dense grid plus bisection (d = 1) or 12
    Newton steps (d >= 2).

    Returns an array of shape (n_pts, d). Raises EmptyShellError when the
    level set is empty and CriticalValueError when |v| < 1e-8 at a shell
    point.
    """
    d = stencil.dim
    ax = np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False)
    if d == 1:
        p = np.asarray(stencil.p0(ax[:, None]), dtype=float) - lam
        roots = []
        sgn = np.signbit(p)
        for i in range(grid_n):
            j = (i + 1) % grid_n
            if p[i] == 0.0:
                roots.append(ax[i])
            elif sgn[i] != sgn[j]:
                a, b = ax[i], ax[i] + (ax[1] - ax[0])
                fa = p[i]
                for _ in range(60):
                    m = 0.5 * (a + b)
                    fm = float(stencil.p0(np.array([m]))) - lam
                    if fa * fm <= 0:
                        b = m
                    else:
                        a, fa = m, fm
                roots.append(0.5 * (a + b))
        if not roots:
            raise EmptyShellError(f"p0 never reaches {lam}")
        pts = np.asarray(roots)[:, None]
    else:
        xi = product_grid(ax, d).reshape(-1, d)
        p = np.asarray(stencil.p0(xi), dtype=float) - lam
        step = 2.0 * np.pi / grid_n
        grad = np.asarray(stencil.gradient(xi), dtype=float)
        gnorm = np.linalg.norm(grad, axis=-1)
        near = np.abs(p) <= step * np.sqrt(d) * np.maximum(gnorm, 1e-12)
        if not np.any(near):
            raise EmptyShellError(f"p0 never reaches {lam}")
        cand = xi[near]
        for _ in range(12):
            pv = np.asarray(stencil.p0(cand), dtype=float) - lam
            gv = np.asarray(stencil.gradient(cand), dtype=float)
            g2 = np.sum(gv**2, axis=-1)
            g2 = np.where(g2 > 0, g2, 1.0)
            cand = cand - (pv / g2)[:, None] * gv
        pv = np.asarray(stencil.p0(cand), dtype=float) - lam
        cand = cand[np.abs(pv) < 1e-9]
        if len(cand) == 0:
            raise EmptyShellError(f"no shell points converged for {lam}")
        pts = reduce_torus(cand)
    speeds = np.linalg.norm(np.asarray(stencil.gradient(pts), dtype=float), axis=-1)
    if np.any(speeds < 1e-8):
        raise CriticalValueError("velocity vanishes on the energy shell")
    return pts


def _ray_distance_sq(p: np.ndarray, w: np.ndarray, forward: bool) -> float:
    """Squared distance from p to the ray {t w : t >= 0} (or t <= 0)."""
    w2 = float(np.dot(w, w))
    if w2 == 0.0:
        return float(np.dot(p, p))
    t = float(np.dot(p, w)) / w2
    t = max(t, 0.0) if forward else min(t, 0.0)
    diff = p - t * w
    return float(np.dot(diff, diff))


def classify(kp: KernelPoint, stencil: Stencil, lam: float, tol: float,
             grid_n: int = 4096) -> MembershipReport:
    """Membership of kp in Sigma_0, Sigma_pm(lam), Sigma'_pm(lam) by
    parametric distance minimization over the sampled energy shell.

    Distances follow the parametric sums: Sigma_0 uses dist((x+y, xi-eta), 0);
    Sigma_pm minimizes |x+y-t v(xi')|^2 + dist(xi,xi')^2 + dist(eta,xi')^2
    over shell momenta and the signed ray; Sigma'_pm is factor-wise with
    both factors on the sign-oriented ray through v.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if kp.dim != stencil.dim:
        raise ValueError("kernel point / stencil dimension mismatch")
    if stencil.dim >= 2:
        grid_n = min(grid_n, 256)  # the d>=2 scan is a full grid per axis
    shell = shell_points(stencil, lam, grid_n=grid_n)
    vels = np.asarray(stencil.gradient(shell), dtype=float)

    d0 = float(np.sqrt(np.sum((kp.x + kp.y) ** 2) + torus_distance(kp.xi, kp.eta) ** 2))

    xsum = kp.x + kp.y
    dxi = np.array([torus_distance(kp.xi, s) for s in shell])
    deta = np.array([torus_distance(kp.eta, s) for s in shell])

    def sigma_ray(forward: bool) -> float:
        best = np.inf
        for i in range(len(shell)):
            r2 = _ray_distance_sq(xsum, vels[i], forward)
            best = min(best, r2 + dxi[i] ** 2 + deta[i] ** 2)
        return float(np.sqrt(best))

    def sigma_prime(forward: bool) -> float:
        f1 = np.inf
        f2 = np.inf
        for i in range(len(shell)):
            f1 = min(f1, _ray_distance_sq(kp.x, vels[i], forward) + dxi[i] ** 2)
            f2 = min(f2, _ray_distance_sq(kp.y, vels[i], forward) + deta[i] ** 2)
        return float(np.sqrt(f1 + f2))

    dist = {
        "sigma0": d0,
        "sigma_plus": sigma_ray(True),
        "sigma_minus": sigma_ray(False),
        "sigma_prime_plus": sigma_prime(True),
        "sigma_prime_minus": sigma_prime(False),
    }
    return MembershipReport(
        in_sigma0=dist["sigma0"] <= tol,
        in_sigma_plus=dist["sigma_plus"] <= tol,
        in_sigma_minus=dist["sigma_minus"] <= tol,
        in_sigma_prime_plus=dist["sigma_prime_plus"] <= tol,
        in_sigma_prime_minus=dist["sigma_prime_minus"] <= tol,
        distances=dist)


def make_bump_pair(p1, p2, delta1: float, delta2: float):
    """Product bumps a_j(x, xi) = Phi(|x-x_j|/delta1) Phi(dist(xi,xi_j)/delta2).

    The centres p_j = (x_j, xi_j) may be scalars for d = 1."""
    if delta1 <= 0 or delta2 <= 0:
        raise ValueError("bump radii must be positive")

    def one(center):
        xc, xic = center
        xc_arr = np.atleast_1d(np.asarray(xc, dtype=float))
        xic_arr = reduce_torus(np.atleast_1d(xic))

        def b(x):
            return np.asarray(DEFAULT_PHI(
                np.linalg.norm(np.asarray(x, dtype=float) - xc_arr, axis=-1) / delta1))

        def c(xi):
            return np.asarray(DEFAULT_PHI(torus_distance(xi, xic_arr) / delta2))

        meta = SupportMeta(xc_arr, delta1, xic_arr, delta2)
        return separable_symbol(len(xc_arr), b, c, support_meta=meta)

    return one(p1), one(p2)


def make_cone_symbol(sign: int, gamma: float, energy_window, r0: float,
                     stencil: Stencil, r_out: Optional[float] = None) -> Symbol:
    """Smooth S^0 symbol supported in the cone
    {+-x.v(xi)/(|x||v(xi)|) >= +-gamma, p0(xi) in window, |x| >= r0}.

    An optional smooth outer cutoff at |x| <= r_out keeps box probes out of
    the absorbing layer. Raises if the window touches critical values.
    """
    if not -1.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (-1, 1)")
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    check_energy_window(stencil, energy_window)
    lo, hi = float(energy_window[0]), float(energy_window[1])
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    sgn = 1.0 if sign >= 0 else -1.0
    gcut = 0.5 * (1.0 - sgn * gamma)

    def ev(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        p = np.asarray(stencil.p0(xi), dtype=float)
        v = np.asarray(stencil.gradient(xi), dtype=float)
        fE = np.asarray(DEFAULT_PHI(np.abs(p - mid) / hw))
        absx = np.linalg.norm(x, axis=-1)
        absv = np.linalg.norm(v, axis=-1)
        dot = np.einsum("...i,...i->...", x, v)
        denom = absx * absv
        cosang = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
        arg = (sgn * gamma + gcut - sgn * cosang) / gcut
        gfac = np.asarray(DEFAULT_PHI(np.maximum(arg, 0.0)))
        rad = 1.0 - np.asarray(DEFAULT_PHI(absx / (2.0 * r0)))
        if r_out is not None:
            rad = rad * np.asarray(DEFAULT_PHI(absx / r_out))
        return rad * fE * gfac

    return Symbol(dim=stencil.dim, eval=ev)
