"""Time evolution e^{-itH} by Chebyshev expansion, smooth functional
calculus f(H), the local-decay probe, and the propagation-estimate probe."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.fft
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.blas import ztrmm
from scipy.sparse import _sparsetools
from scipy.special import jv

from .escape import DEFAULT_PHI
from .geometry import KernelPoint, kernel_point_setup
from .model import (EmptyShellError, LatticeHamiltonian, LinearMap, ModelConfig,
                    momentum_grid_scan)
from .quantize import sampled_terms
from .resolvent import DecayFit, _pmap
from .symbols import Symbol


class EnclosureError(RuntimeError):
    """Chebyshev iterates diverged: the spectral enclosure is violated."""


@dataclass(frozen=True)
class EnergyCutoff:
    """Smooth cutoff f with f = 1 on [lam - eps_f, lam + eps_f] and
    supp f inside [lam - 2 eps_f, lam + 2 eps_f], built from the Phi ramp."""

    lam: float
    eps_f: float

    def __post_init__(self):
        if self.eps_f <= 0:
            raise ValueError("eps_f must be positive")

    def profile(self, z):
        return np.asarray(DEFAULT_PHI(np.abs(np.asarray(z, dtype=float) - self.lam)
                                      / (2.0 * self.eps_f)))

    __call__ = profile

    @property
    def support(self):
        return (self.lam - 2.0 * self.eps_f, self.lam + 2.0 * self.eps_f)


@dataclass
class ChebyshevPlan:
    """First-kind Chebyshev series of a function on [center-radius, center+radius].

    The enclosure is H.spectral_interval(), a rigorous interval for the
    spectrum of the hermitian H0 + V, widened by a relative 1e-9. A CAP
    spectrum leaves the real axis, so plans refuse non-hermitian H.
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
    def for_function(cls, H: LatticeHamiltonian, f: Callable) -> "ChebyshevPlan":
        """Interpolant of f at 4096 Chebyshev nodes, cut after the last
        coefficient above 1e-12 max(max|c_k|, 1)."""
        c, r = cls.enclosure_for(H)
        n_nodes = 4096
        nodes = np.cos(np.pi * (np.arange(n_nodes) + 0.5) / n_nodes)
        fv = np.asarray(f(c + r * nodes), dtype=complex)
        if np.max(np.abs(fv.imag)) == 0.0:
            fv = fv.real
        co = scipy.fft.dct(fv, type=2) / n_nodes
        co[0] *= 0.5
        mags = np.abs(co)
        top = mags.max() if mags.size else 0.0
        keep = np.nonzero(mags > 1e-12 * max(top, 1.0))[0]
        k_last = int(keep[-1]) + 1 if len(keep) else 1
        return cls(center=c, radius=r, coeffs=np.asarray(co[:k_last]))

    @classmethod
    def for_evolution(cls, H: LatticeHamiltonian, t: float) -> "ChebyshevPlan":
        """Coefficients of e^{-itz}: (2 - delta_k0)(-i)^k J_k(rt) e^{-ict}."""
        c, r = cls.enclosure_for(H)
        rt = r * abs(t)
        k_max = int(1.25 * rt + 80)
        k = np.arange(k_max + 1)
        bes = jv(k, rt)
        keep = np.nonzero(np.abs(bes) > 1e-13)[0]
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


def _function_plan(H: LatticeHamiltonian, cutoff: EnergyCutoff) -> ChebyshevPlan:
    """The plan of f(H), cached on H per (lam, eps_f)."""
    cache = H.__dict__.setdefault("_cheb_plans", {})
    key = (cutoff.lam, cutoff.eps_f)
    if key not in cache:
        cache[key] = ChebyshevPlan.for_function(H, cutoff.profile)
    return cache[key]


def evolve(H: LatticeHamiltonian, u, t: float):
    """e^{-itH} u for hermitian H via the Chebyshev/Bessel expansion.

    t < 0 is rejected (evolve with the adjoint instead), and so is a CAP
    Hamiltonian: its spectrum leaves the real interval the series is built
    on (ValueError from ChebyshevPlan.enclosure_for).
    """
    if t < 0:
        raise ValueError("t must be >= 0; use the adjoint for backward evolution")
    return ChebyshevPlan.for_evolution(H, t).apply(H, u)


def shell_speed_max(model_cfg: ModelConfig, cutoff: EnergyCutoff) -> float:
    """max |v| over momenta with p0 inside supp f (reflection-window speed),
    sampled on about 4096 momenta: round(4096 ** (1/d)) per axis. Raises
    EmptyShellError when no sampled momentum has p0 in supp f."""
    st = model_cfg.stencil
    p, sp = momentum_grid_scan(st, int(round(4096 ** (1.0 / st.dim))))
    lo, hi = cutoff.support
    mask = (p >= lo) & (p <= hi)
    if not np.any(mask):
        raise EmptyShellError(f"no momenta with p0 in supp f = [{lo}, {hi}]")
    return float(np.max(sp[mask]))


# ---------------------------------------------------------------------------
# local decay


@dataclass
class LocalDecayResult:
    t_grid: np.ndarray
    norms: np.ndarray
    kappa_hat: float          # -slope of log norm vs log <t> over the tail half
    rows: list


def _reflection_halves(M: sp.csr_array) -> list:
    """Orthonormal bases, as sparse N x n_k isometries, of the subspaces the
    box matrix M is block diagonal on. When M equals J M J entry for entry,
    with J the reflection n -> -n (index i -> N - 1 - i in the row-major
    box), these are the even functions {e_0, (e_n + e_-n)/sqrt 2} and the odd
    ones {(e_n - e_-n)/sqrt 2}, n over the sites after 0 in row-major order;
    otherwise the identity. A real tridiagonal M gives real tridiagonal
    halves: the even half's first off-diagonal entry is sqrt 2 times the hop
    between sites 0 and 1."""
    N = M.shape[0]
    rev = np.arange(N)[::-1]
    if (M != M[rev][:, rev]).nnz:
        return [sp.identity(N, format="csr")]
    c = N // 2
    k = np.arange(1, c + 1)
    s = np.full(c, np.sqrt(0.5))
    even = sp.csr_array((np.r_[1.0, s, s], (np.r_[c, c + k, c - k], np.r_[0, k, k])),
                        shape=(N, c + 1))
    odd = sp.csr_array((np.r_[s, -s], (np.r_[c + k, c - k], np.r_[k, k] - 1)), shape=(N, c))
    return [even, odd]


def local_decay_probe(model_cfg: ModelConfig, cutoff: EnergyCutoff, nu: float,
                      t_grid: Sequence[float], box_radius: int) -> LocalDecayResult:
    """Weighted propagator norms ||<n>^-nu e^{-itH} f(H) <n>^-nu|| over t_grid.

    The grid must stay inside the pre-reflection window 0.8 L / v_max. The
    norms are exact and use only the eigenpairs (lam_j, q_j) of H with
    f(lam_j) != 0. H and the weight are compressed onto the blocks of
    _reflection_halves (the even and odd halves when H commutes with the
    reflection n -> -n, else one block); the weight is even, so it stays
    diagonal there, and the operator is block diagonal with the larger block
    norm as its norm. Per block, with W Q_S = Q_A R a thin QR of the weighted
    eigenvectors, the norm at t is sigma_max(R diag(e^{-it lam} f(lam)) R*),
    formed with one triangular product. For a real tridiagonal H (d = 1,
    nearest-neighbour hops) every block is real tridiagonal and its
    eigenpairs come from the MRRR tridiagonal eigensolver (LAPACK stemr)
    restricted to supp f; otherwise from a dense one, so boxes beyond
    dense()'s site guard raise ValueError. Each row reports the rank |S|
    summed over the blocks and the eigen-residual max_j ||H q_j - lam_j q_j||
    of the eigenvectors mapped back to the box.
    """
    L = box_radius
    H = model_cfg.assemble(L, with_cap=False)
    vmax = shell_speed_max(model_cfg, cutoff)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    window = 0.8 * L / max(vmax, 1e-12)
    if t_grid[-1] > window:
        raise ValueError(f"t_grid exceeds the reflection window {window:.1f}")
    tridiagonal = (H.box.dim == 1 and H.stencil.bandwidth == 1
                   and not np.any(np.imag(H.stencil.coeffs)))
    M = H._matrix(+1)
    Hd = None if tridiagonal else H.dense()
    wdiag = (1.0 + np.sum(H.box.sites().astype(float) ** 2, axis=1)) ** (-nu / 2.0)
    blocks = []
    eig_residual = 0.0
    for B in _reflection_halves(M):
        if tridiagonal:
            A = B.T @ M @ B
            evals, Q = sla.eigh_tridiagonal(A.diagonal().real, A.diagonal(1).real, select="v",
                                            select_range=cutoff.support, lapack_driver="stemr")
        else:
            evals, Q = sla.eigh(B.T @ Hd @ B, subset_by_value=cutoff.support)
        f_ev = cutoff.profile(evals)
        keep = f_ev != 0.0
        evals, Q, f_ev = evals[keep], Q[:, keep], f_ev[keep]
        BQ = B @ Q
        eig_residual = max(eig_residual, float(np.linalg.norm(H(BQ) - BQ * evals, axis=0)
                                               .max(initial=0.0)))
        # each basis vector lives on sites n and -n, where the weight agrees
        w = B.power(2).T @ wdiag
        R = np.asfortranarray(np.linalg.qr(w[:, None] * Q, mode="r"), dtype=complex)
        blocks.append((R, evals, f_ev))
    rank = sum(len(evals) for _, evals, _ in blocks)
    rows = []
    norms = np.zeros(len(t_grid))
    for i, t in enumerate(t_grid):
        t0 = time.perf_counter()
        # (R D) R* with R triangular is one ztrmm; after a threaded zgemm here
        # the next svdvals ran 2-3x slower at two OpenBLAS threads. Both calls
        # stay on scipy.linalg: numpy and scipy load separate OpenBLAS builds,
        # and after the same ztrmm np.linalg.svd took about twice as long
        norms[i] = max(sla.svdvals(ztrmm(1.0, R, R * (np.exp(-1j * t * evals) * f_ev),
                                         side=1, trans_a=2, overwrite_b=1)).max(initial=0.0)
                       for R, evals, f_ev in blocks)
        rows.append({"h": 0.0, "t": t, "norm": norms[i], "chebyshev_terms": 0,
                     "seconds": time.perf_counter() - t0, "rank": rank,
                     "eig_residual": eig_residual})
    tail = slice(len(t_grid) // 2, None)
    fit = DecayFit.from_values(np.sqrt(1.0 + t_grid[tail] ** 2), norms[tail])
    kappa = -fit.slope if not fit.degenerate else float("nan")
    return LocalDecayResult(t_grid=t_grid, norms=norms, kappa_hat=kappa, rows=rows)


# ---------------------------------------------------------------------------
# propagation estimate


@dataclass
class PropagationResult:
    sup_norms: dict
    fit: DecayFit
    rows: list


def propagation_probe(model_cfg: ModelConfig, kp: KernelPoint, cutoff: EnergyCutoff,
                      h_list: Sequence[float], delta1: float = 0.2, delta2: float = 0.2,
                      n_t: int = 32, mode: str = "decay", classify_grid: int = 4096,
                      jobs: int = 1) -> PropagationResult:
    """sup over t in [0, T(h)] of ||Op^h(a1) e^{-itH} f(H) Op^h(a2)|| per h,
    with f the cutoff at cutoff.lam.

    The box radius is L(h) = max(4 max(|x|, |y|) / h, 32) and the horizon
    T(h) = min(h^-2, 0.8 L(h)/v_max). Both momenta must sit on the energy
    shell, and the fit needs at least 4 h. mode="decay" requires the kernel point off
    Sigma_0 u Sigma_+ u Sigma'_+ and mode="control" on one of those sets;
    either violation raises ValueError.
    """
    if model_cfg.stencil.dim != 1:
        raise NotImplementedError("propagation probe implemented for d=1")
    if mode not in ("decay", "control"):
        raise ValueError(f"unknown mode {mode!r}")
    lam = cutoff.lam
    p1 = float(model_cfg.stencil.p0(kp.xi))
    p2 = float(model_cfg.stencil.p0(kp.eta))
    if abs(p1 - lam) > 1e-9 or abs(p2 - lam) > 1e-9:
        raise ValueError("both momenta must sit on the energy shell")
    span, report, a1, a2 = kernel_point_setup(kp, model_cfg.stencil, lam, delta1, delta2,
                                              classify_grid)
    outside = report.outside_all(+1)
    if mode == "decay" and not outside:
        raise ValueError(f"hypothesis violation: classify puts the point inside "
                         f"{[k for k in report.distances if getattr(report, f'in_{k}')]}")
    if mode == "control" and outside:
        raise ValueError("control mode expects an on-set kernel point")
    vmax = shell_speed_max(model_cfg, cutoff)

    def run_h(h):
        L = max(int(np.ceil(4.0 * span / h)), 32)
        H = model_cfg.assemble(L, with_cap=False)
        T = min(h**-2.0, 0.8 * L / max(vmax, 1e-12))
        tg = np.concatenate([[0.0], np.geomspace(max(T / 512.0, 0.25), T, n_t - 1)])
        return h, _propagation_sup(H, a1, a2, h, cutoff, tg)

    results = _pmap(run_h, sorted(float(v) for v in h_list), jobs)
    rows = []
    sups = {}
    for h, (sup_h, h_rows) in results:
        rows.extend({"h": h, **r} for r in h_rows)
        sups[h] = sup_h
    hs = sorted(sups)
    fit = DecayFit.from_values(hs, [sups[h] for h in hs])
    return PropagationResult(sup_norms=sups, fit=fit, rows=rows)


def _propagation_sup(H: LatticeHamiltonian, a1: Symbol, a2: Symbol, h: float,
                     cutoff: EnergyCutoff, t_grid: np.ndarray):
    """Exact finite-rank norms of Op^h(a1) e^{-itH} f(H) Op^h(a2) on t_grid.

    Both symbols must be one-term symbols with finite x-support. With E the
    injection of the support S2 of the right symbol and G = Q Lam Q* the
    gram of Op^h(a2) on S2, the norm at t is sigma_max of
    Op^h(a1) e^{-itH} f(H) E Q_k Lam_k^{1/2}, where k keeps the eigenvalues
    above 1e-13 * max Lam. Only those k columns are evolved, incrementally
    across the grid.
    """
    if len(a1.terms) != 1 or len(a2.terms) != 1:
        raise NotImplementedError("the propagation probe needs one-term symbols")
    box = H.box
    [(b1, c1)] = sampled_terms(a1, h, box)
    [(b2, c2)] = sampled_terms(a2, h, box)
    S1 = np.nonzero(np.abs(b1) > 0.0)[0]
    S2 = np.nonzero(np.abs(b2) > 0.0)[0]
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
    Z = _function_plan(H, cutoff).apply(H, Z)
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

