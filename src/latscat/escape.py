"""Escape-function ladder: the moving phase-space bumps psi_j built from the
cutoff Phi/Psi of `symbols`, pointwise transport inequalities, and dense
spectral checks of the operator energy inequality on small boxes."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .model import DENSE_MAX_SITES, Box, ModelConfig, Stencil
from .symbols import DEFAULT_PHI, CutoffPhi, Symbol, separable_symbol
from .util import angle_diff, lstsq_loglog, rng


class LadderInvariantError(ValueError):
    """An EscapeLadder invariant (depth >= 0, separation, pinning, mu > 0) fails."""


class HermiticityDriftError(RuntimeError):
    """Assembled energy-inequality operator drifted from hermitian."""


class DerivativeMismatchError(RuntimeError):
    """An analytic time derivative disagrees with its finite difference."""


@dataclass(frozen=True)
class EscapeLadder:
    """Geometry of the moving bumps around the orbit y(t) = x2/h + t v(xi2).

    Rung j, 0 <= j <= depth, has the nesting constant gamma_j = 2 - 2^(-j)
    (gamma_0 = 1). Invariants (checked on t_grid unless validate=False):
      separation  |y(t)| >= 3 delta1 (1/h + t),
      pinning     |v(xi) - v(xi2)| < delta1/2 whenever dist(xi, xi2) <= 2 delta2,
    and mu > 0 (at mu = 0 every rung j >= 1 vanishes identically). depth < 0
    raises LadderInvariantError whatever validate says: it leaves no rung.
    """

    stencil: Stencil
    x2: float
    xi2: float
    delta1: float
    delta2: float
    h: float
    depth: int = 0
    mu: float = 1.0
    phi: CutoffPhi = DEFAULT_PHI
    t_grid: tuple = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    validate: bool = True

    def __post_init__(self):
        if self.stencil.dim != 1:
            raise NotImplementedError("escape ladder implemented for d=1")
        if self.depth < 0:
            raise LadderInvariantError("depth must be >= 0")
        if not self.validate:
            return
        if not (0.0 < self.h <= 1.0):
            raise LadderInvariantError("h must lie in (0, 1]")
        if self.delta1 <= 0 or self.delta2 <= 0:
            raise LadderInvariantError("delta1, delta2 must be positive")
        if not self.mu > 0:
            raise LadderInvariantError("mu must be positive: at mu <= 0 the prefactor "
                                       "h^mu - (1/h + t)^-mu of rung j >= 1 is not positive")
        for t in self.t_grid:
            if abs(self.y(t)) < 3.0 * self.delta1 * (1.0 / self.h + t) - 1e-12:
                raise LadderInvariantError(
                    f"separation fails at t={t}: |y|={abs(self.y(t)):.3f} < "
                    f"{3.0 * self.delta1 * (1.0 / self.h + t):.3f}")
        xi = self.xi2 + np.linspace(-2.0 * self.delta2, 2.0 * self.delta2, 513)
        dv = np.abs(self.v(xi) - self.v2)
        if np.max(dv) >= self.delta1 / 2.0:
            raise LadderInvariantError(
                f"velocity pinning fails: max|v-v2|={np.max(dv):.4f} >= delta1/2")

    def v(self, xi):
        """Group velocity at an array of d = 1 momenta, same shape."""
        return self.stencil.gradient(np.asarray(xi)[..., None])[..., 0]

    @cached_property
    def v2(self) -> float:
        """v(xi2), once per ladder: every y(t) and moving bump reads it."""
        return float(self.v(self.xi2))

    def y(self, t: float) -> float:
        return self.x2 / self.h + t * self.v2

    def ell(self, t: float, j: int = 0) -> float:
        """x support radius gamma_j delta1 (1/h + t), gamma_j = 2 - 2^(-j)."""
        return (2.0 - 2.0 ** -j) * self.delta1 * (1.0 / self.h + t)

    def xi_radius(self, j: int = 0) -> float:
        return (2.0 - 2.0 ** -j) * self.delta2

    def prefactor(self, j: int, t):
        """h^((j-1)mu) (h^mu - (1/h + t)^(-mu)) for j >= 1, with C_j = 1."""
        t = np.asarray(t, dtype=float)
        return self.h ** ((j - 1) * self.mu) * (
            self.h**self.mu - (1.0 / self.h + t) ** (-self.mu))

    def prefactor_rate(self, j: int, t):
        t = np.asarray(t, dtype=float)
        return self.mu * self.h ** ((j - 1) * self.mu) * (
            (1.0 / self.h + t) ** (-1.0 - self.mu))


def _moving_bump(ladder: EscapeLadder, t: float, j: int, squared: bool):
    """Rung j's bump at time t, P(|x-y(t)|/ell_j(t)) P(dist(xi,xi2)/(gamma_j delta2))
    with P = Psi if squared else Phi, as three functions of d = 1 points of
    shape (..., 1): the x factor, the pair of its analytic d_t and d_x at
    fixed (x, xi) from one P' evaluation, and the xi factor."""
    phi, v2 = ladder.phi, ladder.v2
    P, dP = (phi.psi, phi.psi_derivative) if squared else (phi, phi.derivative)
    y, ell, r, xi2 = ladder.y(t), ladder.ell(t, j), ladder.xi_radius(j), ladder.xi2
    scale = 1.0 / ladder.h + t

    def diff_rho(x):
        diff = np.asarray(x, dtype=float)[..., 0] - y
        return diff, np.abs(diff) / ell

    def b(x):
        return np.asarray(P(diff_rho(x)[1]))

    def b_tx(x):
        diff, rho = diff_rho(x)
        d = np.asarray(dP(rho))
        return d * (-np.sign(diff) * v2 / ell - rho / scale), d * np.sign(diff) / ell

    def c(xi):
        return np.asarray(P(angle_diff(np.asarray(xi, dtype=float)[..., 0], xi2) / r))

    return b, b_tx, c


def build_rung(ladder: EscapeLadder, t: float, j: int = 0) -> Symbol:
    """Rung j at time t, pref Psi(|x-y(t)|/ell_j(t)) Psi(dist(xi,xi2)/(gamma_j delta2)),
    pref = 1 at j = 0 and prefactor(j, t) for j >= 1, so those rungs vanish
    identically at t = 0. Rung 0 is the principal symbol psi0 of the escape
    function F = |Op(phi0)|^2, phi0 the same bump with Phi for Psi.
    """
    if not 0 <= j <= ladder.depth:
        raise ValueError("j out of range")
    pref = 1.0 if j == 0 else float(ladder.prefactor(j, t))
    b, _, c = _moving_bump(ladder, t, j, squared=True)
    return separable_symbol(1, lambda x: pref * b(x), c)


# sampling plan of the pointwise transport inequality: times, x and xi
# points per time, and the padding of the sampled box beyond the support
_TRANSPORT_T = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
_TRANSPORT_NX = 401
_TRANSPORT_NXI = 257
_TRANSPORT_PAD = 1.3


def _transport_fields(ladder: EscapeLadder, j: int, t: float, x, xi):
    """Analytic (d_t + v d_x) psi_j and the j>=1 lower bound (0.0 at j=0)
    at the points x, xi broadcast together (x[:, None], xi[None, :] for a
    grid), built in place in the expression's own order."""
    x = np.asarray(x, dtype=float)[..., None]
    xi = np.asarray(xi, dtype=float)
    b, b_tx, c = _moving_bump(ladder, t, j, squared=True)
    W, v = c(xi[..., None]), ladder.v(xi)
    bt, bx = b_tx(x)
    # Psi'(rho)=0 near rho=0 kills the kink of |x-y| in d_x
    core = v * bx
    core += bt
    core *= W
    if j == 0:
        return core, 0.0
    bound = float(ladder.prefactor_rate(j, t)) * b(x) * W
    core *= float(ladder.prefactor(j, t))
    core += bound
    return core, bound


@dataclass
class TransportReport:
    min_value: float
    argmin: tuple
    fd_agreement: float
    passed: bool


def verify_transport(ladder: EscapeLadder, j: int) -> TransportReport:
    """Min over the grid of (d_t psi_j + v d_x psi_j) minus (for j>=1) the
    stated lower bound. Passes iff the min is >= -1e-12.

    Derivatives are analytic; a centered finite-difference cross-check runs
    at 100 random points and must agree to 1e-6.
    """
    best = np.inf
    arg = None
    g = rng()
    fd_worst = 0.0
    pad = _TRANSPORT_PAD
    for t in _TRANSPORT_T:
        ellj = ladder.ell(t, j)
        y = ladder.y(t)
        x = np.linspace(y - pad * ellj, y + pad * ellj, _TRANSPORT_NX)
        xi = ladder.xi2 + np.linspace(-pad * ladder.xi_radius(j),
                                      pad * ladder.xi_radius(j), _TRANSPORT_NXI)
        val, bound = _transport_fields(ladder, j, t, x[:, None], xi[None, :])
        val -= bound
        i = np.unravel_index(np.argmin(val), val.shape)
        if val[i] < best:
            best = float(val[i])
            arg = (t, float(x[i[0]]), float(xi[i[1]]))
        if t <= 1e-5:
            continue  # centered t-difference needs t > 0; interior points suffice
        n_spot = 100 // (len(_TRANSPORT_T) - 1)
        xs = y + (g.random(n_spot) * 2 - 1) * pad * ellj
        xis = ladder.xi2 + (g.random(n_spot) * 2 - 1) * pad * ladder.xi_radius(j)
        an, _ = _transport_fields(ladder, j, t, xs, xis)
        eps_t, eps_x = 1e-5, 1e-5
        vv = ladder.v(xis)

        def paired(tt, xv):
            return np.asarray(build_rung(ladder, tt, j)(xv[:, None], xis[:, None]))

        fd = ((paired(t + eps_t, xs) - paired(t - eps_t, xs)) / (2 * eps_t)
              + vv * (paired(t, xs + eps_x) - paired(t, xs - eps_x)) / (2 * eps_x))
        fd_worst = max(fd_worst, float(np.max(np.abs(an - fd))))
    if fd_worst > 1e-6:
        raise DerivativeMismatchError(
            f"analytic/finite-difference transport mismatch {fd_worst:.2e}")
    return TransportReport(min_value=best, argmin=arg, fd_agreement=fd_worst,
                           passed=best >= -1e-12)


# ---------------------------------------------------------------------------
# dense spectral checks


def periodic_dense_h(model_cfg: ModelConfig, box: Box) -> np.ndarray:
    """Dense periodic H = p0(D) + V on a d = 1 box: the multiplier p0(D),
    made exactly hermitian, plus diag V.

    The DFT quantization is periodic; pairing it with the Dirichlet-truncated
    H0 leaks an O(1) commutator artifact through the box seam, so the dense
    escape checks use the multiplier form of H0.
    """
    if box.site_count > DENSE_MAX_SITES:
        raise ValueError("box too large for the dense route")
    H = _dense_multiplier(model_cfg.stencil.p0, box)
    H = (H + H.conj().T) / 2.0
    H[np.diag_indices(box.site_count)] += model_cfg.potential.values(box.sites())
    return H


def _dense_multiplier(c, box: Box) -> np.ndarray:
    """Dense matrix of the multiplier c(D) on the periodic d = 1 box,
    K[i, j] = ifft(c(xi))[(i - j) mod N] on the box momentum grid, with no
    xi-tail guard: on the small escape boxes the Phi/Psi bumps' slow Gevrey
    tails would trip it, and the object measured here is the operator of
    the sampled symbol itself. diag(b(n)) K is the quantized b(x) c(xi)."""
    N = box.site_count
    lag = (np.arange(N)[:, None] - np.arange(N)[None, :]) % N
    return np.fft.ifft(np.asarray(c(box.xi_axis()[:, None]), dtype=complex))[lag]


def _escape_F(ladder: EscapeLadder, t: float, box: Box) -> np.ndarray:
    """F(t) = |Op(phi0(t))|^2, Op(phi0(t)) = diag(b) c(D) from _moving_bump's
    unsquared j = 0 factors: exactly hermitian, and F(0) = |Op^h(a2)|^2.
    The ladder rungs psi_j enter only the transport check."""
    b, _, c = _moving_bump(ladder, t, 0, squared=False)
    Q = b(box.sites().astype(float))[:, None] * _dense_multiplier(c, box)
    return Q.conj().T @ Q


def _escape_F_rate(ladder: EscapeLadder, t: float, box: Box):
    """dF/dt two ways, centered difference (step 3e-5) and the analytic
    product rule, and F(t) itself from the product rule's Op(phi0(t))."""
    lo, hi = max(t - 3e-5, 0.0), t + 3e-5
    fd = (_escape_F(ladder, hi, box) - _escape_F(ladder, lo, box)) / (hi - lo)
    b, b_tx, c = _moving_bump(ladder, t, 0, squared=False)
    x, K = box.sites().astype(float), _dense_multiplier(c, box)
    Q, Qd = b(x)[:, None] * K, b_tx(x)[0][:, None] * K
    Qh = Q.conj().T
    return fd, Qd.conj().T @ Q + Qh @ Qd, Qh @ Q


@dataclass
class EnergyReport:
    lambda_min: dict          # (h, t) -> min eigenvalue
    defects: dict             # h -> max(0, -min_t lambda_min)
    exponent: float
    amplitude: float          # C with defect ~ C h^exponent
    fd_mismatch: dict         # (h, t) -> |dF_fd - dF_an|_F
    drift: dict               # (h, t) -> |M - M*|_F

    def rows(self):
        for (h, t), lm in sorted(self.lambda_min.items()):
            yield {"h": h, "t": t, "lambda_min": lm,
                   "margin": lm + self.amplitude * h**self.exponent,
                   "fd_mismatch": self.fd_mismatch[(h, t)], "drift": self.drift[(h, t)]}


def energy_inequality_check(model_cfg: ModelConfig, ladder: EscapeLadder,
                            t_samples: Sequence[float], h_list: Sequence[float],
                            box_radius: int) -> EnergyReport:
    """Spectral check of d_t F + i[H, F] >= -(defect) on a dense box.

    For each h the most negative eigenvalue over t_samples defines the
    defect D(h); the report fits D ~ C h^alpha.

    Both self-checks gate a Frobenius norm, an upper bound of the spectral
    norm: at least as strict as a spectral gate, and no SVD unless the
    mismatch exceeds tol, where max(1, |dF_fd|_2) starts to matter.
    """
    box = Box(1, box_radius)
    H = periodic_dense_h(model_cfg, box)
    lam_table, fd_table, drift_table = {}, {}, {}
    defects = {}
    for h in h_list:
        lad = replace(ladder, h=h)
        worst = 0.0
        for t in t_samples:
            dF_fd, dF_an, F = _escape_F_rate(lad, t, box)
            fd_tol = 1e-8 if t >= 3e-5 else 1e-4
            mismatch = float(np.linalg.norm(dF_fd - dF_an))
            if mismatch > fd_tol and mismatch > fd_tol * np.linalg.norm(dF_fd, 2):
                raise DerivativeMismatchError(
                    f"dF/dt finite-difference vs analytic mismatch {mismatch:.2e}")
            M = dF_fd + 1j * (H @ F - F @ H)
            drift = float(np.linalg.norm(M - M.conj().T))
            if drift > 1e-10:
                raise HermiticityDriftError(
                    f"non-hermitian drift {drift:.2e} (symbol realness violated?)")
            fd_table[(h, t)], drift_table[(h, t)] = mismatch, drift
            lmin = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
            lam_table[(h, t)] = lmin
            worst = max(worst, max(0.0, -lmin))
        defects[h] = worst
    floor = 1e-15
    ds = np.array([max(defects[h], floor) for h in h_list])
    slope, intercept, _ = lstsq_loglog(np.asarray(h_list), ds)
    return EnergyReport(lambda_min=lam_table, defects=defects, exponent=slope,
                        amplitude=10.0**intercept, fd_mismatch=fd_table,
                        drift=drift_table)


@dataclass
class MonotonicityReport:
    margins: dict             # t -> lambda_min(G(t) - F(0))
    passed: bool              # every margin >= -C h^alpha of the energy fit


def monotonicity_check(model_cfg: ModelConfig, ladder: EscapeLadder,
                       t_list: Sequence[float],
                       box_radius: int,
                       energy_report: Optional[EnergyReport] = None) -> MonotonicityReport:
    """Check e^{itH} F(t) e^{-itH} - F(0) >= -(fitted defect bound) densely."""
    box = Box(1, box_radius)
    H = periodic_dense_h(model_cfg, box)
    evals, Q = np.linalg.eigh(H)
    F0 = _escape_F(ladder, 0.0, box)
    bound = 0.0
    if energy_report is not None:
        bound = energy_report.amplitude * ladder.h**energy_report.exponent
    margins = {}
    for t in t_list:
        U = Q @ (np.exp(-1j * t * evals)[:, None] * Q.conj().T)
        G = U.conj().T @ _escape_F(ladder, t, box) @ U
        margins[t] = float(np.linalg.eigvalsh(G - F0)[0])
    return MonotonicityReport(margins=margins,
                              passed=all(m >= -max(bound, 1e-12) for m in margins.values()))
