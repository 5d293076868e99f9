"""Time evolution e^{-itH} by Chebyshev expansion, smooth functional
calculus f(H), the local-decay probe, and the propagation-estimate probe."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.fft
import scipy.linalg as sla
from scipy.sparse import _sparsetools
from scipy.special import jv

from .escape import CutoffPhi
from .geometry import KernelPoint, classify, make_bump_pair
from .model import LatticeHamiltonian, LinearMap, ModelConfig, momentum_grid_scan
from .quantize import _xi_grid
from .resolvent import DecayFit
from .symbols import Symbol


class EnclosureError(RuntimeError):
    """Chebyshev iterates diverged: the spectral enclosure is violated."""


@dataclass(frozen=True)
class EnergyCutoff:
    """Smooth cutoff f with f = 1 on [lam - eps_f, lam + eps_f] and
    supp f inside [lam - 2 eps_f, lam + 2 eps_f], built from the Phi ramp."""

    lam: float
    eps_f: float
    phi: CutoffPhi = field(default_factory=CutoffPhi)

    def __post_init__(self):
        if self.eps_f <= 0:
            raise ValueError("eps_f must be positive")

    def profile(self, z):
        return np.asarray(self.phi(np.abs(np.asarray(z, dtype=float) - self.lam)
                                   / (2.0 * self.eps_f)))

    __call__ = profile

    @property
    def support(self):
        return (self.lam - 2.0 * self.eps_f, self.lam + 2.0 * self.eps_f)


@dataclass
class ChebyshevPlan:
    """First-kind Chebyshev series of a function on [center-radius, center+radius].

    The enclosure is H.spectral_interval(), a rigorous interval for the
    spectrum of the hermitian H0 + V, widened by a relative 1e-9. It is
    about half as wide as the crude norm bound spectral_bound(), so plans
    need about half the terms. A CAP spectrum leaves the real axis, so plans
    refuse non-hermitian H.
    """

    center: float
    radius: float
    coeffs: np.ndarray

    @classmethod
    def enclosure_for(cls, H: LatticeHamiltonian):
        """(center, radius) of the interval the series is built on."""
        if not H.hermitian:
            raise ValueError("Chebyshev plans need a hermitian (CAP-free) Hamiltonian")
        lo, hi = H.spectral_interval()
        return 0.5 * (lo + hi), 0.5 * (hi - lo) * (1.0 + 1e-9) + 1e-12

    @classmethod
    def for_function(cls, H: LatticeHamiltonian, f: Callable, tol: float = 1e-12,
                     n_nodes: int = 4096) -> "ChebyshevPlan":
        c, r = cls.enclosure_for(H)
        j = np.arange(n_nodes)
        nodes = np.cos(np.pi * (j + 0.5) / n_nodes)
        fv = np.asarray(f(c + r * nodes), dtype=complex)
        if np.max(np.abs(fv.imag)) == 0.0:
            fv = fv.real
        co = scipy.fft.dct(fv, type=2) / n_nodes
        co[0] *= 0.5
        mags = np.abs(co)
        top = mags.max() if mags.size else 0.0
        keep = np.nonzero(mags > tol * max(top, 1.0))[0]
        k_last = int(keep[-1]) + 1 if len(keep) else 1
        return cls(center=c, radius=r, coeffs=np.asarray(co[:k_last]))

    @classmethod
    def for_evolution(cls, H: LatticeHamiltonian, t: float, tol: float = 1e-13) -> "ChebyshevPlan":
        """Coefficients of e^{-itz}: (2 - delta_k0)(-i)^k J_k(rt) e^{-ict}."""
        c, r = cls.enclosure_for(H)
        rt = r * abs(t)
        k_max = int(1.25 * rt + 80)
        k = np.arange(k_max + 1)
        bes = jv(k, rt)
        keep = np.nonzero(np.abs(bes) > tol)[0]
        k_last = int(keep[-1]) + 1 if len(keep) else 1
        k = k[:k_last]
        co = (2.0 - (k == 0)) * (-1j) ** k * bes[:k_last] * np.exp(-1j * c * t)
        return cls(center=c, radius=r, coeffs=co)

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def apply(self, H: LinearMap, u, adjoint: bool = False):
        """Sum c_k T_k((H-c)/r) u with a divergence monitor on the iterates.

        The recurrence runs on U_k = s_k T_k with s_k = (-1)^floor(k/2), for
        which T_{k+1} = A T_k - T_{k-1}, A = (2/r)(H - c), becomes
        U_{k+1} = U_{k-1} + (-1)^k A U_k, and the sum takes s_k c_k U_k. Each
        term accumulates A U_k in place into the buffer that holds U_{k-1}
        (a LatticeHamiltonian keeps A as a cached CSR matrix, applied as a
        real matrix when its entries are real) and adds one scaled iterate to
        the sum; no term allocates. u is left unchanged.
        """
        co = np.conj(self.coeffs) if adjoint else self.coeffs
        co = co * np.array([1, 1, -1, -1])[np.arange(len(co)) % 4]
        accumulate = _recurrence_operator(H, self.center, self.radius, adjoint)
        # a C-contiguous copy: the recurrence overwrites it, and the CSR kernel
        # reads and writes its buffers as flat arrays
        U0 = np.array(u, dtype=complex, order="C")
        acc = co[0] * U0
        if len(co) == 1:
            return acc
        U1 = np.zeros_like(U0)
        accumulate(U0, U1, +1)
        U1 *= 0.5
        scratch = np.empty_like(acc)
        acc += np.multiply(U1, co[1], out=scratch)
        cap = 50.0 * np.linalg.norm(U0) + 1e-300
        for k in range(2, len(co)):
            accumulate(U1, U0, -1 if k % 2 == 0 else +1)
            U0, U1 = U1, U0
            acc += np.multiply(U1, co[k], out=scratch)
            if k % 64 == 0 and np.linalg.norm(U1) > cap:
                raise EnclosureError("Chebyshev iterates grow: enclosure violated")
        return acc


def _recurrence_operator(H: LinearMap, c: float, r: float, adjoint: bool) -> Callable:
    """(X, Y, sign) -> Y += sign (2/r)(H - c) X in place (H* for the adjoint)."""
    if isinstance(H, LatticeHamiltonian):
        A = H._matrix(-1 if adjoint else +1, center=c, scale=2.0 / r)
        data = A.data if np.any(A.data.imag) else A.data.real.copy()
        signed = {+1: data, -1: -data}
        return lambda X, Y, sign: _csr_accumulate(A, signed[sign], X, Y)
    Hap = H.adjoint_apply if adjoint else H

    def accumulate(X, Y, sign):
        Y += (sign * 2.0 / r) * (Hap(X) - c * X)
    return accumulate


def _csr_accumulate(A, data, X: np.ndarray, Y: np.ndarray) -> None:
    """Y += A X in place, with `data` standing in for A.data.

    scipy's own A @ X runs this kernel (csr_matvecs) on a freshly zeroed
    result; calling it directly accumulates into Y and allocates nothing.
    The kernel reads X and writes Y as flat C-ordered arrays and ignores
    strides, so both must be C-contiguous complex blocks of N rows. Real
    data runs on their float64 views, each complex column being two real
    columns, which halves the arithmetic.
    """
    if not (X.flags.c_contiguous and Y.flags.c_contiguous and X.dtype == Y.dtype == complex):
        raise ValueError("the CSR accumulate needs C-contiguous complex blocks")
    if data.dtype.kind == "f":
        X, Y = X.view(np.float64), Y.view(np.float64)
    n = A.shape[0]
    _sparsetools.csr_matvecs(n, A.shape[1], X.size // n, A.indptr, A.indices, data,
                             X.reshape(-1), Y.reshape(-1))


def _plan_cache(H: LatticeHamiltonian) -> dict:
    cache = getattr(H, "_cheb_plans", None)
    if cache is None:
        cache = {}
        setattr(H, "_cheb_plans", cache)
    return cache


def _function_plan(H: LatticeHamiltonian, cutoff: EnergyCutoff, tol: float) -> ChebyshevPlan:
    key = ("f", cutoff.lam, cutoff.eps_f, cutoff.phi.steepness, tol)
    cache = _plan_cache(H)
    if key not in cache:
        cache[key] = ChebyshevPlan.for_function(H, cutoff.profile, tol=tol)
    return cache[key]


def evolve(H: LatticeHamiltonian, u, t: float, tol: float = 1e-12):
    """e^{-itH} u for hermitian H via the Chebyshev/Bessel expansion.

    t < 0 is rejected (evolve with the adjoint instead), and so is a CAP
    Hamiltonian: its spectrum leaves the real interval the series is built
    on (ValueError from ChebyshevPlan.enclosure_for).
    """
    if t < 0:
        raise ValueError("t must be >= 0; use the adjoint for backward evolution")
    plan = ChebyshevPlan.for_evolution(H, t, tol=min(tol, 1e-13))
    return plan.apply(H, u)


def apply_f_of_H(H: LatticeHamiltonian, cutoff: EnergyCutoff, u, tol: float = 1e-12):
    """f(H) u by Chebyshev interpolation of the cutoff profile.

    H must be hermitian (CAP-free); a CAP raises ValueError.
    """
    plan = _function_plan(H, cutoff, tol)
    return plan.apply(H, u)


def f_of_H_map(H: LatticeHamiltonian, cutoff: EnergyCutoff, tol: float = 1e-12) -> LinearMap:
    """f(H) as a LinearMap; H must be hermitian (CAP-free)."""
    plan = _function_plan(H, cutoff, tol)
    return LinearMap(H.dim, lambda u: plan.apply(H, u),
                     lambda u: plan.apply(H, u, adjoint=True),
                     hermitian=H.hermitian, label="f(H)")


def shell_speed_max(model_cfg: ModelConfig, cutoff: EnergyCutoff, grid_n: int = 4096) -> float:
    """max |v| over momenta with p0 inside supp f (reflection-window speed),
    sampled on about grid_n momenta: round(grid_n ** (1/d)) per axis."""
    st = model_cfg.stencil
    p, sp = momentum_grid_scan(st, int(round(grid_n ** (1.0 / st.dim))))
    lo, hi = cutoff.support
    mask = (p >= lo) & (p <= hi)
    if not np.any(mask):
        return float(np.max(sp))
    return float(np.max(sp[mask]))


# ---------------------------------------------------------------------------
# local decay


@dataclass
class LocalDecayResult:
    t_grid: np.ndarray
    norms: np.ndarray
    fit: DecayFit             # log norm vs log <t> over the tail half
    kappa_hat: float
    rows: list


def local_decay_probe(model_cfg: ModelConfig, cutoff: EnergyCutoff, nu: float,
                      t_grid: Sequence[float],
                      box_radius: Optional[int] = None) -> LocalDecayResult:
    """Weighted propagator norms ||<n>^-nu e^{-itH} f(H) <n>^-nu|| over t_grid.

    The grid must stay inside the pre-reflection window 0.8 L / v_max. The
    norms are exact and use only the eigenpairs (lam_j, q_j) of H with
    f(lam_j) != 0: with W Q_S = Q_A R a thin QR of the weighted eigenvectors,
    the norm at t is sigma_max(R diag(e^{-it lam} f(lam)) R*). For d = 1 the
    eigenpairs come from a banded eigensolver restricted to supp f; for
    d >= 2 from a dense one, so boxes beyond dense()'s site guard raise
    ValueError. Each row reports the rank |S| and the eigen-residual
    max_j ||H q_j - lam_j q_j||.
    """
    L = box_radius if box_radius is not None else (model_cfg.box_radius or 512)
    H = model_cfg.assemble(L, with_cap=False)
    vmax = shell_speed_max(model_cfg, cutoff)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    window = 0.8 * L / max(vmax, 1e-12)
    if t_grid[-1] > window:
        raise ValueError(f"t_grid exceeds the reflection window {window:.1f}")
    if H.box.dim == 1:
        b = H.stencil.bandwidth
        band = H.banded()[: b + 1]
        if not np.any(band.imag):
            band = band.real
        evals, Q = sla.eig_banded(band, select="v", select_range=cutoff.support)
    else:
        evals, Q = sla.eigh(H.dense(), subset_by_value=cutoff.support)
    f_ev = cutoff.profile(evals)
    keep = f_ev != 0.0
    evals, Q, f_ev = evals[keep], Q[:, keep], f_ev[keep]
    eig_residual = float(np.linalg.norm(H(Q) - Q * evals, axis=0).max(initial=0.0))
    wdiag = (1.0 + np.sum(H.box.sites().astype(float) ** 2, axis=1)) ** (-nu / 2.0)
    R = np.linalg.qr(wdiag[:, None] * Q, mode="r")
    rows = []
    norms = np.zeros(len(t_grid))
    for i, t in enumerate(t_grid):
        t0 = time.perf_counter()
        M = (R * (np.exp(-1j * t * evals) * f_ev)) @ R.conj().T
        norms[i] = sla.svdvals(M).max(initial=0.0)
        rows.append({"h": 0.0, "t": t, "norm": norms[i], "chebyshev_terms": 0,
                     "seconds": time.perf_counter() - t0, "rank": len(evals),
                     "eig_residual": eig_residual})
    tail = slice(len(t_grid) // 2, None)
    fit = DecayFit.from_values(np.sqrt(1.0 + t_grid[tail] ** 2), norms[tail])
    kappa = -fit.slope if not fit.degenerate else float("nan")
    return LocalDecayResult(t_grid=t_grid, norms=norms, fit=fit, kappa_hat=kappa, rows=rows)


# ---------------------------------------------------------------------------
# propagation estimate


def _sites_of_support(values: np.ndarray, threshold: float = 0.0) -> np.ndarray:
    return np.nonzero(np.abs(values) > threshold)[0]


@dataclass
class PropagationResult:
    h_list: tuple
    sup_norms: dict
    fit: DecayFit
    rows: list
    decay_expected: bool


def propagation_probe(model_cfg: ModelConfig, kp: KernelPoint, lam: float,
                      h_list: Sequence[float], t_horizon_rule: Optional[Callable] = None,
                      delta1: float = 0.2, delta2: float = 0.2,
                      cutoff: Optional[EnergyCutoff] = None, n_t: int = 32,
                      mode: str = "decay", classify_grid: int = 4096,
                      min_radius: int = 32, jobs: int = 1) -> PropagationResult:
    """sup over t in [0, T(h)] of ||Op^h(a1) e^{-itH} f(H) Op^h(a2)|| per h.

    T(h) defaults to min(h^-2, 0.8 L(h)/v_max). mode="decay" requires the
    kernel point off Sigma_0 u Sigma_+ u Sigma'_+ with both momenta on shell
    (error otherwise); mode="control" requires it on one of the sets;
    mode="offshell" skips both checks (the easy functional-calculus case
    where one momentum misses the cutoff support).
    """
    if model_cfg.stencil.dim != 1:
        raise NotImplementedError("propagation probe implemented for d=1")
    if cutoff is None:
        cutoff = EnergyCutoff(lam=lam, eps_f=0.25)
    if mode not in ("decay", "control", "offshell"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "offshell":
        p1 = float(model_cfg.stencil.p0(kp.xi))
        p2 = float(model_cfg.stencil.p0(kp.eta))
        if abs(p1 - lam) > 1e-9 or abs(p2 - lam) > 1e-9:
            raise ValueError("both momenta must sit on the energy shell")
        report = classify(kp, model_cfg.stencil, lam, tol=3.0 * delta1,
                          grid_n=classify_grid)
        outside = report.outside_all(sign=+1)
        if mode == "decay" and not outside:
            raise ValueError(f"hypothesis violation: classify puts the point inside "
                             f"{[k for k, v in report.distances.items() if v <= 3 * delta1]}")
        if mode == "control" and outside:
            raise ValueError("control mode expects an on-set kernel point")
    vmax = shell_speed_max(model_cfg, cutoff)
    span = max(np.max(np.abs(kp.x)), np.max(np.abs(kp.y)), 0.5)
    a1, a2 = make_bump_pair((kp.x, kp.xi), (-kp.y, kp.eta), delta1, delta2)
    def run_h(h):
        L = max(int(np.ceil(4.0 * span / h)), min_radius)
        H = model_cfg.assemble(L, with_cap=False)
        T = min(h**-2.0, 0.8 * L / max(vmax, 1e-12))
        if t_horizon_rule is not None:
            T = min(float(t_horizon_rule(h)), 0.8 * L / max(vmax, 1e-12))
        tg = np.concatenate([[0.0], np.geomspace(max(T / 512.0, 0.25), T, n_t - 1)])
        return h, _propagation_sup(H, a1, a2, h, cutoff, tg)

    from .resolvent import _pmap
    results = _pmap(run_h, sorted(float(v) for v in h_list), jobs)
    rows = []
    sups = {}
    for h, (sup_h, h_rows) in results:
        rows.extend({"h": h, **r} for r in h_rows)
        sups[h] = sup_h
    hs = sorted(sups)
    fit = DecayFit.from_values(hs, [sups[h] for h in hs]) if len(hs) >= 4 else None
    return PropagationResult(h_list=tuple(hs), sup_norms=sups, fit=fit, rows=rows,
                             decay_expected=(mode == "decay"))


def _propagation_sup(H: LatticeHamiltonian, a1: Symbol, a2: Symbol, h: float,
                     cutoff: EnergyCutoff, t_grid: np.ndarray):
    """Exact finite-rank norms of Op^h(a1) e^{-itH} f(H) Op^h(a2) on t_grid.

    Both symbols must be separable with finite x-support. With E the
    injection of the support S2 of the right symbol and G = Q Lam Q* the
    gram of Op^h(a2) on S2, the norm at t is sigma_max of
    Op^h(a1) e^{-itH} f(H) E Q_k Lam_k^{1/2}, where k keeps the eigenvalues
    above 1e-13 * max Lam. Only those k columns are evolved, incrementally
    across the grid.
    """
    if not (a1.separable and a2.separable):
        raise NotImplementedError("the propagation probe needs separable symbols")
    box = H.box
    sites = box.sites().astype(float)
    xi = _xi_grid(box)
    b1 = np.asarray(a1.x_part(h * sites), dtype=complex)
    c1 = np.asarray(a1.xi_part(xi), dtype=complex)
    b2 = np.asarray(a2.x_part(h * sites), dtype=complex)
    c2 = np.asarray(a2.xi_part(xi), dtype=complex)
    S1 = _sites_of_support(b1)
    S2 = _sites_of_support(b2)
    N = box.site_count
    K2 = np.fft.ifft(np.abs(c2) ** 2)
    gram = (b2[S2, None] * np.conj(b2[S2][None, :])) * K2[(S2[:, None] - S2[None, :]) % N]
    g_vals, Q = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    keep = g_vals > 1e-13 * g_vals.max(initial=0.0)
    k = int(np.count_nonzero(keep))
    if len(S1) == 0 or k == 0:
        return 0.0, [{"t": float(t), "norm": 0.0, "chebyshev_terms": 0, "columns": 0,
                      "seconds": 0.0} for t in t_grid]
    Z = np.zeros((N, k), dtype=complex)
    Z[S2, :] = Q[:, keep] * np.sqrt(g_vals[keep])
    Z = _function_plan(H, cutoff, 1e-12).apply(H, Z)
    sup = 0.0
    rows = []
    t_prev = 0.0
    for t in t_grid:
        t0 = time.perf_counter()
        dt = t - t_prev
        terms = 0
        if dt > 0:
            plan = ChebyshevPlan.for_evolution(H, dt)
            Z = plan.apply(H, Z)
            terms = plan.n_terms
        t_prev = t
        Y = (b1[:, None] * np.fft.ifft(c1[:, None] * np.fft.fft(Z, axis=0), axis=0))[S1, :]
        val = float(np.sqrt(max(np.linalg.eigvalsh(Y.conj().T @ Y)[-1], 0.0)))
        sup = max(sup, val)
        rows.append({"t": float(t), "norm": val, "chebyshev_terms": terms, "columns": k,
                     "seconds": time.perf_counter() - t0})
    return sup, rows

