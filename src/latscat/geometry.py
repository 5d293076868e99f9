"""Classical phase-space data: energy shells, the singular sets of the
resolvent kernel, membership/distance tests, and symbol factories for
phase-space bumps and cones."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CriticalValueError, EmptyShellError, Stencil, check_energy_window
from .symbols import DEFAULT_PHI, EnergyCutoff, Symbol, separable_symbol
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

    def outside_all(self, sign: int) -> bool:
        """Off the singular sets of R^sign: Sigma_0, Sigma_+ and Sigma'_+ for
        sign = +1, Sigma_0, Sigma_- and Sigma'_- for sign = -1."""
        if sign >= 0:
            return not (self.in_sigma0 or self.in_sigma_plus or self.in_sigma_prime_plus)
        return not (self.in_sigma0 or self.in_sigma_minus or self.in_sigma_prime_minus)


# shell_points' torus grid per axis: d = 1, and d >= 2, where it is a full grid
SHELL_GRID_1D, SHELL_GRID_ND = 4096, 256


def shell_points(stencil: Stencil, lam: float) -> np.ndarray:
    """Momenta with p0(xi) = lam, for every d: the points of the torus grid
    (SHELL_GRID_1D or SHELL_GRID_ND points per axis) that lie within about
    one grid step of the level set, each polished by 12 Newton steps along v(xi).

    Returns an array of shape (n_pts, d); a point may repeat. Raises
    EmptyShellError when the level set is empty and CriticalValueError when
    |v| < 1e-8 at a shell point.
    """
    d = stencil.dim
    grid_n = SHELL_GRID_1D if d == 1 else SHELL_GRID_ND
    xi = product_grid(np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False), d).reshape(-1, d)
    step = 2.0 * np.pi / grid_n
    gnorm = np.linalg.norm(stencil.gradient(xi), axis=-1)
    near = np.abs(stencil.p0(xi) - lam) <= step * np.sqrt(d) * np.maximum(gnorm, 1e-12)
    if not np.any(near):
        raise EmptyShellError(f"p0 never reaches {lam}")
    cand = xi[near]
    for _ in range(12):
        gv = stencil.gradient(cand)
        g2 = np.sum(gv**2, axis=-1)
        cand = cand - ((stencil.p0(cand) - lam) / np.where(g2 > 0, g2, 1.0))[:, None] * gv
    cand = cand[np.abs(stencil.p0(cand) - lam) < 1e-9]
    if len(cand) == 0:
        raise EmptyShellError(f"no shell points converged for {lam}")
    pts = reduce_torus(cand)
    if np.any(np.linalg.norm(stencil.gradient(pts), axis=-1) < 1e-8):
        raise CriticalValueError("velocity vanishes on the energy shell")
    return pts


def _ray_distance_sq(p: np.ndarray, w: np.ndarray, forward: bool) -> np.ndarray:
    """Squared distances from p, shape (d,), to the rays {t w_k : t >= 0}
    (t <= 0 if not forward) of the nonzero velocities w, shape (k, d)."""
    t = (w @ p) / np.sum(w * w, axis=-1)
    t = np.maximum(t, 0.0) if forward else np.minimum(t, 0.0)
    diff = p - t[:, None] * w
    return np.sum(diff * diff, axis=-1)


def classify(kp: KernelPoint, stencil: Stencil, lam: float, tol: float) -> MembershipReport:
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
    shell = shell_points(stencil, lam)
    vels = stencil.gradient(shell)
    dxi2 = torus_distance(kp.xi, shell) ** 2
    deta2 = torus_distance(kp.eta, shell) ** 2

    def sigma_ray(forward: bool) -> float:
        return float(np.sqrt(np.min(
            _ray_distance_sq(kp.x + kp.y, vels, forward) + dxi2 + deta2)))

    def sigma_prime(forward: bool) -> float:
        f1 = np.min(_ray_distance_sq(kp.x, vels, forward) + dxi2)
        f2 = np.min(_ray_distance_sq(kp.y, vels, forward) + deta2)
        return float(np.sqrt(f1 + f2))

    dist = {
        "sigma0": float(np.sqrt(np.sum((kp.x + kp.y) ** 2)
                                + torus_distance(kp.xi, kp.eta) ** 2)),
        "sigma_plus": sigma_ray(True),
        "sigma_minus": sigma_ray(False),
        "sigma_prime_plus": sigma_prime(True),
        "sigma_prime_minus": sigma_prime(False),
    }
    return MembershipReport(**{f"in_{k}": v <= tol for k, v in dist.items()}, distances=dist)


def kernel_point_setup(kp: KernelPoint, stencil: Stencil, delta1: float, delta2: float,
                       h_list):
    """What the wf and propagation probes share for a kernel point:
    (hs, radii, a1, a2).

    Both are built for d = 1 only (NotImplementedError otherwise), and every
    h must lie in (0, 1] (ValueError). hs is h_list sorted ascending, and
    radii[i] = max(ceil(4 span / hs[i]), 32), span = max(|x|, |y|, 1/2), is
    the box rule at hs[i]; a1 and a2 are the bumps centred at (x, xi) and
    (-y, eta). The caller classifies the point.
    """
    if stencil.dim != 1:
        raise NotImplementedError("kernel-point probes are implemented for d = 1")
    hs = sorted(float(h) for h in h_list)
    if not hs or not all(0.0 < h <= 1.0 for h in hs):
        raise ValueError(f"every h must lie in (0, 1] (h_list = {hs})")
    span = max(np.max(np.abs(kp.x)), np.max(np.abs(kp.y)), 0.5)
    radii = [max(int(np.ceil(4.0 * span / h)), 32) for h in hs]
    a1, a2 = make_bump_pair((kp.x, kp.xi), (-kp.y, kp.eta), delta1, delta2)
    return hs, radii, a1, a2


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

        return separable_symbol(len(xc_arr), b, c)

    return one(p1), one(p2)


def make_cone_symbol(sign: int, cutoff: EnergyCutoff, r0: float, stencil: Stencil,
                     r_out: float) -> Symbol:
    """Smooth S^0 symbol supported in the d = 1 cone
    {sign x v(xi) > 0, p0(xi) in supp f, r0 <= |x| <= r_out}, f the cutoff.

    In d = 1 the cosine between x and v(xi) is +-1, so every Isozaki-Kitada
    cone {cos >= c}, c in (-1, 1), cuts out the same half-line: x on the
    side sign v(xi) for sign = +1, against it for sign = -1. The symbol is
    radial(|x|) f(p0(xi)) on that half-line, zero off it, with
    radial(r) = (1 - Phi(r/(2 r0))) Phi(r/r_out): zero for r <= r0, and an
    outer cutoff at r_out that keeps box probes out of the absorbing layer.
    So the symbol is the two-term sum over s = +-1 of 1[s x > 0]
    radial(|x|) times f(p0(xi)) 1[s sign v(xi) > 0], which op_h applies
    as two Fourier multipliers. Raises ValueError for d != 1, where the
    cone is no short sum of (b, c) terms, and if supp f touches critical
    values (check_energy_window).
    """
    if stencil.dim != 1:
        raise ValueError(f"cone symbols are built for d = 1 only (got d = {stencil.dim})")
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    check_energy_window(stencil, cutoff.support)
    sgn = 1.0 if sign >= 0 else -1.0

    def radial(x):
        absx = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return ((1.0 - np.asarray(DEFAULT_PHI(absx / (2.0 * r0))))
                * np.asarray(DEFAULT_PHI(absx / r_out)))

    def term(s):
        def b(x):
            return np.where(s * np.asarray(x, dtype=float)[..., 0] > 0.0, radial(x), 0.0)

        def c(xi):
            xi = np.asarray(xi, dtype=float)
            return np.where(s * sgn * stencil.gradient(xi)[..., 0] > 0.0,
                            cutoff.profile(stencil.p0(xi)), 0.0)

        return b, c

    return Symbol(dim=1, terms=(term(1.0), term(-1.0)))
