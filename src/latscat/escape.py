"""Escape-function ladder: the smooth cutoff Phi/Psi, the moving phase-space
bumps psi_j, pointwise transport inequalities, and dense spectral checks of
the operator energy inequality on small boxes."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .model import Box, ModelConfig, Stencil, velocity
from .quantize import _sampled_kernel, _xi_grid
from .symbols import Symbol, SupportMeta, separable_symbol
from .util import angle_diff, lstsq_loglog, rng


class LadderInvariantError(ValueError):
    """An EscapeLadder invariant (separation, pinning, nesting) fails."""


class HermiticityDriftError(RuntimeError):
    """Assembled energy-inequality operator drifted from hermitian."""


def _bump_B(r, steepness):
    out = np.zeros_like(r, dtype=float)
    m = r > 0
    with np.errstate(over="ignore", under="ignore"):
        out[m] = np.exp(-steepness / r[m])
    return out


class CutoffPhi:
    """Smooth ramp with Phi(s)=1 for s<=1/2, Phi(s)=0 for s>=1, Phi(s)>0 for
    s<1 and Phi' <= 0. Psi = Phi^2.

    Built from the partition ramp g(r) = B(r)/(B(r)+B(1-r)), B(r)=e^(-k/r),
    via Phi(s) = g(2(1-s)). `steepness` is k.
    """

    def __init__(self, steepness: float = 1.0):
        if steepness <= 0:
            raise ValueError("steepness must be positive")
        self.steepness = float(steepness)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        r = 2.0 * (1.0 - s)
        B = _bump_B(r, self.steepness)
        Bc = _bump_B(1.0 - r, self.steepness)
        with np.errstate(invalid="ignore"):
            out = np.where(B + Bc > 0, B / np.where(B + Bc > 0, B + Bc, 1.0), 0.0)
        return out if out.ndim else float(out)

    def derivative(self, s):
        """Analytic Phi'(s) (chain rule through the partition ramp)."""
        s = np.asarray(s, dtype=float)
        r = 2.0 * (1.0 - s)
        k = self.steepness
        B = _bump_B(r, k)
        Bc = _bump_B(1.0 - r, k)
        dB = np.zeros_like(r)
        dBc = np.zeros_like(r)
        m = r > 0
        with np.errstate(over="ignore", under="ignore"):
            dB[m] = B[m] * k / r[m] ** 2
        m2 = (1.0 - r) > 0
        with np.errstate(over="ignore", under="ignore"):
            dBc[m2] = Bc[m2] * k / (1.0 - r[m2]) ** 2
        denom = (B + Bc) ** 2
        gp = np.where(denom > 0, (dB * Bc + B * dBc) / np.where(denom > 0, denom, 1.0), 0.0)
        out = -2.0 * gp
        return out if out.ndim else float(out)

    def psi(self, s):
        return np.asarray(self(s)) ** 2

    def psi_derivative(self, s):
        return 2.0 * np.asarray(self(s)) * np.asarray(self.derivative(s))

    def validate(self):
        """Grid check of the contract; raises ValueError on violation."""
        s = np.linspace(0.0, 2.0, 10_000)
        v = np.asarray(self(s))
        if not np.allclose(v[s <= 0.5], 1.0, atol=1e-12):
            raise ValueError("Phi != 1 on s <= 1/2")
        if np.any(v[s >= 1.0] != 0.0):
            raise ValueError("Phi != 0 on s >= 1")
        # e^(-k/r) underflows within ~1e-3 of s = 1; positivity is checkable
        # only where the double range reaches
        if np.any(v[s < 1.0 - 1e-3] <= 0.0):
            raise ValueError("Phi not positive on s < 1")
        d = np.asarray(self.derivative(s))
        if np.any(d > 1e-12):
            raise ValueError("Phi' > 0 somewhere")
        # smoothness proxy: centered FD derivatives up to order 4 stay bounded
        h = 1e-3
        grid = np.linspace(0.05, 1.95, 2_000)
        vals = [np.asarray(self(grid + j * h)) for j in range(-2, 3)]
        d4 = (vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3] + vals[4]) / h**4
        if not np.all(np.isfinite(d4)) or np.max(np.abs(d4)) > 1e8:
            raise ValueError("finite-difference 4th derivative unbounded")
        return True


DEFAULT_PHI = CutoffPhi()


def default_gammas(depth: int) -> tuple:
    """1 < gamma_1 < ... < gamma_m < 2 with gamma_j = 2 - 2^(-j)."""
    return tuple(2.0 - 2.0 ** (-j) for j in range(1, depth + 1))


@dataclass(frozen=True)
class EscapeLadder:
    """Geometry of the moving bumps around the orbit y(t) = x2/h + t v(xi2).

    Invariants (checked on t_grid unless validate=False):
      separation  |y(t)| >= 3 delta1 (1/h + t),
      pinning     |v(xi) - v(xi2)| < delta1/2 whenever dist(xi, xi2) <= 2 delta2,
      nesting     gamma_j strictly increasing in (1, 2).
    """

    stencil: Stencil
    x2: float
    xi2: float
    delta1: float
    delta2: float
    h: float
    depth: int = 0
    gammas: tuple = ()
    mu: float = 1.0
    phi: CutoffPhi = field(default_factory=CutoffPhi)
    t_grid: tuple = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    validate: bool = True

    def __post_init__(self):
        if not self.gammas and self.depth > 0:
            object.__setattr__(self, "gammas", default_gammas(self.depth))
        if self.stencil.dim != 1:
            raise NotImplementedError("escape ladder implemented for d=1")
        if not self.validate:
            return
        if not (0.0 < self.h <= 1.0):
            raise LadderInvariantError("h must lie in (0, 1]")
        if self.delta1 <= 0 or self.delta2 <= 0:
            raise LadderInvariantError("delta1, delta2 must be positive")
        gs = self.gammas
        if len(gs) != self.depth:
            raise LadderInvariantError("gamma list length != depth")
        if any(not (1.0 < g < 2.0) for g in gs) or any(b <= a for a, b in zip(gs, gs[1:])):
            raise LadderInvariantError("need 1 < gamma_1 < ... < gamma_m < 2")
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
        return np.asarray(velocity(self.stencil, np.asarray(xi, dtype=float)[..., None]))[..., 0]

    @property
    def v2(self) -> float:
        return float(self.v(self.xi2))

    def y(self, t: float) -> float:
        return self.x2 / self.h + t * self.v2

    def ell(self, t: float, j: int = 0) -> float:
        """x support radius gamma_j delta1 (1/h + t); gamma_0 = 1."""
        g = 1.0 if j == 0 else self.gammas[j - 1]
        return g * self.delta1 * (1.0 / self.h + t)

    def xi_radius(self, j: int = 0) -> float:
        g = 1.0 if j == 0 else self.gammas[j - 1]
        return g * self.delta2

    def prefactor(self, j: int, t):
        """h^((j-1)mu) (h^mu - (1/h + t)^(-mu)) for j >= 1, with C_j = 1."""
        t = np.asarray(t, dtype=float)
        return self.h ** ((j - 1) * self.mu) * (
            self.h**self.mu - (1.0 / self.h + t) ** (-self.mu))

    def prefactor_rate(self, j: int, t):
        t = np.asarray(t, dtype=float)
        return self.mu * self.h ** ((j - 1) * self.mu) * (
            (1.0 / self.h + t) ** (-1.0 - self.mu))


def _ladder_bump(ladder: EscapeLadder, t: float, j: int, profile, pref: float = 1.0) -> Symbol:
    """pref * profile(|x-y(t)|/ell_j(t)) profile(dist(xi,xi2)/(gamma_j delta2))
    on d = 1 points of shape (..., 1)."""
    y, ell, r, xi2 = ladder.y(t), ladder.ell(t, j), ladder.xi_radius(j), ladder.xi2

    def b(x):
        return pref * np.asarray(profile(np.abs(np.asarray(x, dtype=float)[..., 0] - y) / ell))

    def c(xi):
        return np.asarray(profile(angle_diff(np.asarray(xi, dtype=float)[..., 0], xi2) / r))

    meta = SupportMeta(np.atleast_1d(y), ell, np.atleast_1d(xi2), r)
    return separable_symbol(1, b, c, support_meta=meta)


def build_phi0(ladder: EscapeLadder, t: float) -> Symbol:
    """phi0(t,.,.) = Phi(|x-y(t)|/ell(t)) Phi(dist(xi,xi2)/delta2)."""
    return _ladder_bump(ladder, t, 0, ladder.phi)


def build_psi0(ladder: EscapeLadder, t: float) -> Symbol:
    """Principal symbol of |Op(phi0)|^2: Psi(|x-y(t)|/ell) Psi(dist(xi,xi2)/delta2)."""
    return _ladder_bump(ladder, t, 0, ladder.phi.psi)


def build_psi_j(ladder: EscapeLadder, j: int, t: float) -> Symbol:
    """Ladder rung psi_j = prefactor(t) Psi(|x-y|/ (gamma_j ell)) Psi(dxi/(gamma_j delta2)).

    Vanishes identically at t=0 through the prefactor.
    """
    if not 1 <= j <= ladder.depth:
        raise ValueError("j out of range")
    return _ladder_bump(ladder, t, j, ladder.phi.psi, pref=float(ladder.prefactor(j, t)))


# sampling plan of the pointwise transport inequality: times, x and xi
# points per time, and the padding of the sampled box beyond the support
_TRANSPORT_T = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
_TRANSPORT_NX = 401
_TRANSPORT_NXI = 257
_TRANSPORT_PAD = 1.3


def _transport_fields(ladder: EscapeLadder, j: int, t: float, x, xi):
    """Analytic (d_t + v d_x) psi_j and the j>=1 lower bound on arrays."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    y = ladder.y(t)
    ellj = ladder.ell(t, j)
    rj = ladder.xi_radius(j)
    phi = ladder.phi
    diff = x - y
    rho = np.abs(diff) / ellj
    sgn = np.sign(diff)
    v = ladder.v(xi)
    W = np.asarray(phi.psi(angle_diff(xi, ladder.xi2) / rj))
    dPsi = np.asarray(phi.psi_derivative(rho))
    # rho_dot along the transport field; Psi'(rho)=0 near rho=0 kills the kink
    rho_dot = sgn[:, None] * (v[None, :] - ladder.v2) / ellj - (
        rho[:, None] / (1.0 / ladder.h + t))
    core = dPsi[:, None] * rho_dot * W[None, :]
    if j == 0:
        return core, np.zeros_like(core)
    U = np.asarray(phi.psi(rho))
    pref = float(ladder.prefactor(j, t))
    rate = float(ladder.prefactor_rate(j, t))
    transport = rate * U[:, None] * W[None, :] + pref * core
    bound = rate * U[:, None] * W[None, :]
    return transport, bound


def _psi_value(ladder, j, t, x, xi):
    """psi_j(t) at the paired points (x[k], xi[k]) of two plain arrays."""
    if j == 0:
        sym = build_psi0(ladder, t)
    else:
        sym = build_psi_j(ladder, j, t)
    return np.asarray(sym(np.asarray(x)[:, None], np.asarray(xi)[:, None]))


def build_phi0_rate(ladder: EscapeLadder, t: float) -> Symbol:
    """Analytic d/dt of phi0(t,.,.), separable like phi0 itself."""
    y, ell = ladder.y(t), ladder.ell(t)
    phi, v2 = ladder.phi, ladder.v2
    scale = 1.0 / ladder.h + t

    def b(x):
        diff = np.asarray(x, dtype=float)[..., 0] - y
        rho = np.abs(diff) / ell
        rho_t = -np.sign(diff) * v2 / ell - rho / scale
        return np.asarray(phi.derivative(rho)) * rho_t

    return separable_symbol(1, b, build_phi0(ladder, t).xi_part)


def build_psi_j_rate(ladder: EscapeLadder, j: int, t: float) -> Symbol:
    """Analytic d/dt of psi_j (product rule through prefactor and bump)."""
    y = ladder.y(t)
    ellj = ladder.ell(t, j)
    pref = float(ladder.prefactor(j, t))
    rate = float(ladder.prefactor_rate(j, t))
    phi, v2 = ladder.phi, ladder.v2
    scale = 1.0 / ladder.h + t

    def b(x):
        diff = np.asarray(x, dtype=float)[..., 0] - y
        rho = np.abs(diff) / ellj
        rho_t = -np.sign(diff) * v2 / ellj - rho / scale
        return rate * np.asarray(phi.psi(rho)) + pref * np.asarray(phi.psi_derivative(rho)) * rho_t

    return separable_symbol(1, b, build_psi_j(ladder, j, t).xi_part)


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
        transport, bound = _transport_fields(ladder, j, t, x, xi)
        val = transport - bound
        i = np.unravel_index(np.argmin(val), val.shape)
        if val[i] < best:
            best = float(val[i])
            arg = (t, float(x[i[0]]), float(xi[i[1]]))
        if t <= 1e-5:
            continue  # centered t-difference needs t > 0; interior points suffice
        n_spot = 100 // (len(_TRANSPORT_T) - 1)
        xs = y + (g.random(n_spot) * 2 - 1) * pad * ellj
        xis = ladder.xi2 + (g.random(n_spot) * 2 - 1) * pad * ladder.xi_radius(j)
        tr, _ = _transport_fields(ladder, j, t, xs, xis)
        an = np.diag(tr)
        eps_t, eps_x = 1e-5, 1e-5
        vv = ladder.v(xis)

        def paired(tt, xv):
            return np.asarray(_psi_value(ladder, j, tt, xv, xis))

        fd = ((paired(t + eps_t, xs) - paired(t - eps_t, xs)) / (2 * eps_t)
              + vv * (paired(t, xs + eps_x) - paired(t, xs - eps_x)) / (2 * eps_x))
        fd_worst = max(fd_worst, float(np.max(np.abs(an - fd))))
    if fd_worst > 1e-6:
        raise RuntimeError(f"analytic/finite-difference transport mismatch {fd_worst:.2e}")
    return TransportReport(min_value=best, argmin=arg, fd_agreement=fd_worst,
                           passed=best >= -1e-12)


# ---------------------------------------------------------------------------
# dense spectral checks


def periodic_dense_h(model_cfg: ModelConfig, box: Box) -> np.ndarray:
    """Dense periodic H = p0(D) + V on a d = 1 box.

    The DFT quantization is periodic; pairing it with the Dirichlet-truncated
    H0 leaks an O(1) commutator artifact through the box seam, so the dense
    escape checks use the multiplier form of H0.
    """
    N = box.site_count
    if N > 4200:
        raise ValueError("box too large for the dense route")
    p0 = np.asarray(model_cfg.stencil.p0(_xi_grid(box)), dtype=complex)
    H = np.fft.ifft(p0[:, None] * np.fft.fft(np.eye(N), axis=0), axis=0)
    H = (H + H.conj().T) / 2.0
    H[np.diag_indices(N)] += model_cfg.potential.values(box.sites())
    return H


def _dense_op(symbol: Symbol, box: Box) -> np.ndarray:
    """Dense left quantization of the grid-sampled symbol (d=1).

    M[i,j] = (1/N) sum_k a(n_i, xi_k) e^{i(n_i-n_j) xi_k}, the matrix of
    quantize.op_h at h = 1 but without the xi-tail guard: on the small
    escape boxes the Phi/Psi bumps' slow Gevrey tails trip it, and the object
    measured here is the operator of the sampled symbol itself.
    """
    if box.dim != 1:
        raise NotImplementedError("dense escape checks are d=1")
    K = _sampled_kernel(symbol, 1.0, box, check_resolution=False)
    return np.fft.fft(K, axis=1) / box.site_count


def _escape_F(ladder: EscapeLadder, t: float, box: Box) -> np.ndarray:
    """F(t) = |Op(phi0)|^2 + sum_j herm(Op(psi_j)). Exactly hermitian, and
    F(0) = |Op^h(a2)|^2 because every psi_j vanishes at t=0."""
    Q = _dense_op(build_phi0(ladder, t), box)
    F = Q.conj().T @ Q
    for j in range(1, ladder.depth + 1):
        M = _dense_op(build_psi_j(ladder, j, t), box)
        F += (M + M.conj().T) / 2.0
    return F


def _escape_F_rate(ladder: EscapeLadder, t: float, box: Box):
    """dF/dt two ways: centered difference (step 3e-5) and the analytic
    product rule."""
    lo, hi = max(t - 3e-5, 0.0), t + 3e-5
    fd = (_escape_F(ladder, hi, box) - _escape_F(ladder, lo, box)) / (hi - lo)
    Q = _dense_op(build_phi0(ladder, t), box)
    Qd = _dense_op(build_phi0_rate(ladder, t), box)
    an = Qd.conj().T @ Q + Q.conj().T @ Qd
    for j in range(1, ladder.depth + 1):
        Md = _dense_op(build_psi_j_rate(ladder, j, t), box)
        an += (Md + Md.conj().T) / 2.0
    return fd, an


@dataclass
class EnergyReport:
    lambda_min: dict          # (h, t) -> min eigenvalue
    defects: dict             # h -> max(0, -min_t lambda_min)
    exponent: float
    amplitude: float          # C with defect ~ C h^exponent
    threshold: float

    def rows(self):
        for (h, t), lm in sorted(self.lambda_min.items()):
            yield {"h": h, "t": t, "lambda_min": lm,
                   "margin": lm + self.amplitude * h**self.exponent}


def energy_inequality_check(model_cfg: ModelConfig, ladder: EscapeLadder,
                            t_samples: Sequence[float], N_target: float,
                            h_list: Sequence[float] = (0.25, 0.125, 0.0625),
                            box_radius: int = 48) -> EnergyReport:
    """Spectral check of d_t F + i[H, F] >= -(defect) on a dense box.

    For each h the most negative eigenvalue over t_samples defines the
    defect D(h); the report fits D ~ C h^alpha and passes iff
    alpha >= 2 N_target mu - 0.5.
    """
    box = Box(1, box_radius)
    H = periodic_dense_h(model_cfg, box)
    lam_table = {}
    defects = {}
    for h in h_list:
        lad = replace(ladder, h=h)
        worst = 0.0
        for t in t_samples:
            dF_fd, dF_an = _escape_F_rate(lad, t, box)
            fd_tol = 1e-8 if t >= 3e-5 else 1e-4
            if np.linalg.norm(dF_fd - dF_an, 2) > fd_tol * max(1.0, np.linalg.norm(dF_fd, 2)):
                raise RuntimeError("dF/dt finite-difference vs analytic mismatch")
            F = _escape_F(lad, t, box)
            M = dF_fd + 1j * (H @ F - F @ H)
            drift = np.linalg.norm(M - M.conj().T, 2)
            if drift > 1e-10:
                raise HermiticityDriftError(
                    f"non-hermitian drift {drift:.2e} (symbol realness violated?)")
            lmin = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
            lam_table[(h, t)] = lmin
            worst = max(worst, max(0.0, -lmin))
        defects[h] = worst
    floor = 1e-15
    ds = np.array([max(defects[h], floor) for h in h_list])
    slope, intercept, _ = lstsq_loglog(np.asarray(h_list), ds)
    threshold = 2.0 * N_target * ladder.mu - 0.5
    return EnergyReport(lambda_min=lam_table, defects=defects, exponent=slope,
                        amplitude=10.0**intercept, threshold=threshold)


@dataclass
class MonotonicityReport:
    margins: dict             # t -> lambda_min(G(t) - F(0))
    passed: bool              # every margin >= -C h^alpha of the energy fit


def monotonicity_check(model_cfg: ModelConfig, ladder: EscapeLadder,
                       t_list: Sequence[float],
                       energy_report: Optional[EnergyReport] = None,
                       box_radius: int = 64) -> MonotonicityReport:
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
