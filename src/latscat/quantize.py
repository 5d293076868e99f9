"""Semiclassical quantization Op^h(a) on the box, Fourier multipliers,
position weights, finite-rank factors of one-term d = 1 operators, and
matrix-free operator-norm estimation."""

from __future__ import annotations

import warnings
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .model import Box, LinearMap
from .symbols import Symbol, separable_symbol
from .util import product_grid, rng

XI_TAIL_WARN = 1e-10
XI_TAIL_ERROR = 1e-6


class ResolutionError(ValueError):
    """The box momentum grid cannot resolve the symbol's xi-oscillations."""


class NormConvergenceError(RuntimeError):
    """Power iteration ran out of iterations; the message holds the last estimate."""


def _xi_grid(box: Box) -> np.ndarray:
    """Momentum grid over the box, shape (N_tot, d).

    FFT bin ordering per axis so multipliers line up with fftn."""
    return product_grid(box.xi_axis(), box.dim).reshape(-1, box.dim)


def _on_grid(values, shape: tuple, what: str) -> np.ndarray:
    """`values` as a complex array, which must have exactly `shape`: a
    function written for bare d = 1 scalars would otherwise broadcast
    silently into a larger array."""
    values = np.asarray(values, dtype=complex)
    if values.shape != shape:
        raise ValueError(f"{what} returned shape {values.shape}, expected {shape}; "
                         f"points are passed as (..., d) arrays, d = 1 included")
    return values


def _fftn_flat(u, box: Box):
    return np.fft.fftn(np.asarray(u).reshape(box.shape)).ravel()


def _ifftn_flat(u, box: Box):
    return np.fft.ifftn(np.asarray(u).reshape(box.shape)).ravel()


def fourier_multiplier(c: Callable, box: Box) -> LinearMap:
    """Multiplier c(D) on the periodic box: op_h of the one-term symbol
    1 * c(xi) at h = 1, without the xi-tail guard; exactly diagonal in the
    discrete plane-wave basis. `c` sees the momentum grid as (N_tot, d)
    and must return shape (N_tot,).
    """
    # mode label xi tags the plane wave e^{+i n xi}; a packet filtered at
    # label xi then moves with velocity -v(-xi) = +v(xi) for the even symbols
    # of real symmetric stencils, which is the flow the kernel geometry uses
    return op_h(separable_symbol(box.dim, lambda x: np.ones(np.shape(x)[:-1]), c), 1.0, box,
                check_resolution=False)


def position_weight(s: float, box: Box) -> LinearMap:
    """Diagonal map u(n) -> (1+|n|^2)^(s/2) u(n)."""
    r2 = np.sum(box.sites().astype(float) ** 2, axis=1)
    w = (1.0 + r2) ** (s / 2.0)
    return LinearMap(box.site_count, lambda u: w * np.asarray(u),
                     lambda u: w * np.asarray(u), hermitian=True, label=f"<n>^{s}")


def _xi_tail(cv: np.ndarray, box: Box) -> float:
    """Relative high-frequency mass of a xi factor sampled on the box
    momentum grid."""
    n1 = box.n_per_axis
    tail_cut = n1 // 3
    co = np.fft.fftn(np.asarray(cv, dtype=complex).reshape(box.shape)) / box.site_count
    mass = np.sum(np.abs(co))
    if mass == 0.0:
        return 0.0
    kinf = np.max(np.abs(product_grid(np.fft.fftfreq(n1, d=1.0 / n1), box.dim)), axis=-1)
    return float(np.sum(np.abs(co[kinf > tail_cut])) / mass)


def check_xi_tails(terms, box: Box):
    """The xi-tail guard on sampled terms (b, c) (sampled_terms): for each
    term with b != 0, ResolutionError when the xi tail mass of c exceeds
    XI_TAIL_ERROR, else a RuntimeWarning above XI_TAIL_WARN, reported at the
    caller's caller."""
    for bv, cv in terms:
        ratio = _xi_tail(cv, box) if np.max(np.abs(bv)) > 0.0 else 0.0
        if ratio > XI_TAIL_ERROR:
            raise ResolutionError(
                f"xi Fourier tail mass {ratio:.2e} exceeds {XI_TAIL_ERROR:.0e}; refine the box")
        if ratio > XI_TAIL_WARN:
            warnings.warn(f"op_h: xi Fourier tail mass {ratio:.2e} above {XI_TAIL_WARN:.0e}",
                          RuntimeWarning, stacklevel=3)


def sampled_terms(a: Symbol, h: float, box: Box) -> list:
    """The terms of a symbol on the box: (b_j(h n), c_j(xi_k)) for
    each (b_j, c_j) of a.terms, as complex arrays of shape (N_tot,) over the
    sites and over the momentum grid in FFT bin order."""
    N = box.site_count
    x = h * box.sites().astype(float)
    xi = _xi_grid(box)
    return [(_on_grid(b(x), (N,), "x factor"), _on_grid(c(xi), (N,), "xi factor"))
            for b, c in a.terms]


def op_h(a: Symbol, h: float, box: Box, check_resolution: bool = True) -> LinearMap:
    """Left quantization of a(h x, xi) on the box (periodic convolution).

    (A u)(n) = (1/N) sum_k a(h n, xi_k) e^{i n.xi_k} u^(xi_k).
    The symbol a = sum_j b_j(x) c_j(xi) applies as sum_j multiply-by-b_j(hn)
    o c_j(D): one forward FFT and, per term, one inverse FFT and one multiply
    (the adjoint mirrors it). The factors see sites and momenta as (..., d)
    arrays; a result of any shape other than (N_tot,) raises ValueError.

    check_resolution=False quantizes the grid-sampled symbol without the
    xi-tail guard; the fixed-symbol cone probes use it on the small pinned
    boxes where the Phi ramp's slow Gevrey tails sit above the error bound
    while the probes' conclusions are insensitive at that level.
    """
    if not (0.0 < h <= 1.0):
        raise ValueError("h must lie in (0, 1]")
    if a.dim != box.dim:
        raise ValueError("symbol/box dimension mismatch")

    terms = sampled_terms(a, h, box)
    if check_resolution:
        check_xi_tails(terms, box)
    conj = [(np.conj(bv), np.conj(cv)) for bv, cv in terms]

    def fwd(u):
        U = _fftn_flat(u, box)
        return reduce(np.add, (bv * _ifftn_flat(cv * U, box) for bv, cv in terms))

    def adj(u):
        u = np.asarray(u)
        return _ifftn_flat(reduce(np.add, (cc * _fftn_flat(bc * u, box)
                                           for bc, cc in conj)), box)

    return LinearMap(box.site_count, fwd, adj, label="Op^h(a)")


def support_gram_factor(b: np.ndarray, c: np.ndarray):
    """(S, Z) for the d = 1 one-term operator A = diag(b) c(D) of sampled
    factors b, c: S the sites where b != 0, and Z, |S| x k, with Z Z* the
    gram A A* on S, Z = Q_k Lam_k^{1/2} from its eigenpairs above
    1e-13 of the largest. So A = E_S Z U* for a partial isometry U, and
    ||X A|| = ||X E_S Z|| for every X, up to the dropped eigenvalues: a
    norm below ~1e-7 of ||A|| is not resolved."""
    S = np.nonzero(np.abs(b) > 0.0)[0]
    K = np.fft.ifft(np.abs(c) ** 2)
    gram = (b[S, None] * np.conj(b[S][None, :])) * K[(S[:, None] - S[None, :]) % len(b)]
    g_vals, Q = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    keep = g_vals > 1e-13 * g_vals.max(initial=0.0)
    return S, Q[:, keep] * np.sqrt(g_vals[keep])


def finite_rank_pair(a1: Symbol, a2: Symbol, h: float, box: Box):
    """The front end of the exact finite-rank norms of Op^h(a1) X Op^h(a2)
    (the wf rows and the propagation estimate): ((b1, c1), (b2, c2), S1,
    (S2, Z2)), each symbol sampled once (sampled_terms), S1 the sites where
    b1 != 0 and (S2, Z2) = support_gram_factor(b2, c2). Both symbols must
    have one term (NotImplementedError otherwise). Runs no xi-tail guard:
    a caller that needs it passes the pairs to check_xi_tails."""
    if not (0.0 < h <= 1.0):
        raise ValueError("h must lie in (0, 1]")
    if len(a1.terms) != 1 or len(a2.terms) != 1:
        raise NotImplementedError("finite-rank norms need one-term symbols")
    [(b1, c1)] = sampled_terms(a1, h, box)
    [(b2, c2)] = sampled_terms(a2, h, box)
    return (b1, c1), (b2, c2), np.nonzero(np.abs(b1) > 0.0)[0], support_gram_factor(b2, c2)


def support_rows(b: np.ndarray, c: np.ndarray, S: np.ndarray, XT) -> np.ndarray:
    """(rows S of diag(b) c(D)) X, transposed, from XT = X^T (dense or
    sparse): shape (XT.shape[0], |S|). Row s of diag(b) c(D) is
    b[s] ifft(c)[(s - n) mod N], a window of ifft(c) reversed and repeated
    twice: one product per row, and no N x |S| array is built."""
    N = len(c)
    kernel = np.tile(np.fft.ifft(c)[::-1], 2)
    out = np.empty((XT.shape[0], len(S)), dtype=complex)
    for i, s in enumerate(S):
        out[:, i] = b[s] * (XT @ kernel[N - 1 - s:2 * N - 1 - s])
    return out


def operator_norm(A: LinearMap, tol: float = 1e-2, max_iter: int = 600,
                  seed: Optional[int] = None, return_info: bool = False):
    """Power iteration on A*A from a fixed-seed random start.

    Stops when the Rayleigh quotient stabilizes to relative tol/2 on two
    consecutive iterations; the Rayleigh residual is recorded as the
    certificate. Deterministic given the seed.
    """
    if not (0.0 < tol <= 0.1):
        raise ValueError("tol must lie in (0, 0.1]")
    g = rng(seed)
    v = g.standard_normal(A.dim) + 1j * g.standard_normal(A.dim)
    v /= np.linalg.norm(v)
    lam_prev = None
    hits = 0
    lam = 0.0
    resid = np.inf
    for it in range(1, max_iter + 1):
        w = A.adjoint_apply(A(v))
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            info = {"iterations": it, "residual": 0.0}
            return (0.0, info) if return_info else 0.0
        lam = float(np.real(np.vdot(v, w)))
        resid = float(np.linalg.norm(w - lam * v)) / max(lam, 1e-300)
        v = w / nw
        if lam_prev is not None and lam > 0:
            if abs(lam - lam_prev) <= 0.5 * tol * lam:
                hits += 1
                if hits >= 2 and it >= 5:
                    sigma = float(np.sqrt(max(lam, 0.0)))
                    info = {"iterations": it, "residual": resid}
                    return (sigma, info) if return_info else sigma
            else:
                hits = 0
        lam_prev = lam
    raise NormConvergenceError(
        f"operator_norm: no convergence in {max_iter} iterations "
        f"(last sigma ~ {np.sqrt(max(lam, 0.0)):.6e}, residual {resid:.2e})")

