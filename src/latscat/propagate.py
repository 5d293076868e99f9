"""Time evolution e^{-itH} by Chebyshev expansion, f(H) for the energy cutoff
f (symbols.EnergyCutoff), the certified eigenpairs of H inside supp f, and
the time-domain probes on them: local decay and the propagation estimate."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack

from .geometry import KernelPoint, kernel_point_setup
from .model import LatticeHamiltonian, LinearMap, ModelConfig, check_energy_window
from .quantize import finite_rank_pair, support_rows
from .symbols import EnergyCutoff, Symbol
from .util import DecayFit


class EnclosureError(RuntimeError):
    """Chebyshev iterates diverged: the spectral enclosure is violated."""


@dataclass
class ChebyshevPlan:
    """First-kind Chebyshev series of a function on [center-radius, center+radius].

    The enclosure is the Gershgorin interval of H's assembled matrix, which
    contains the spectrum of any hermitian matrix, widened by a relative
    1e-9. A CAP spectrum leaves the real axis, so plans refuse non-hermitian
    H; the adjoint of a plan is the plan with conjugate coefficients.
    """

    center: float
    radius: float
    coeffs: np.ndarray

    @classmethod
    def enclosure_for(cls, H: LatticeHamiltonian):
        """(center, radius) of the interval the series is built on: from the
        rows of H, [min(H_ii - r_i), max(H_ii + r_i)] with r_i the absolute
        sum of the off-diagonal entries of row i."""
        if not H.hermitian:
            raise ValueError("Chebyshev plans need a hermitian (CAP-free) Hamiltonian")
        M = H._matrix(+1)
        diag = M.diagonal()
        r = abs(M).sum(axis=1) - np.abs(diag)
        lo, hi = float(np.min(diag.real - r)), float(np.max(diag.real + r))
        return 0.5 * (lo + hi), 0.5 * (hi - lo) * (1.0 + 1e-9) + 1e-12

    @classmethod
    def for_function(cls, H: LatticeHamiltonian, f: Callable) -> "ChebyshevPlan":
        """Interpolant of f at 4096 Chebyshev nodes, cut after the last
        coefficient above 1e-12 max(max|c_k|, 1)."""
        c, r = cls.enclosure_for(H)
        co = _interpolant(f, c, r, 4096)
        mags = np.abs(co)
        return cls(center=c, radius=r, coeffs=co[:_last_above(mags, 1e-12 * max(mags.max(), 1.0))])

    @classmethod
    def for_evolution(cls, H: LatticeHamiltonian, t: float) -> "ChebyshevPlan":
        """Interpolant of e^{-itz}, for t of either sign, cut after the last
        coefficient above 2e-13.

        Its coefficients are (2 - delta_k0)(-i)^k J_k(rt) e^{-ict} for t >= 0
        (i^k for t < 0) up to aliasing: J_k(r|t|) is below 1e-13 beyond
        k_max = 1.25 r|t| + 80 terms, and the interpolant at n >= 2 k_max
        nodes aliases only terms past 2n - k_max. Interpolating through
        numpy's FFT keeps scipy.fft and scipy.special out of every process.
        """
        c, r = cls.enclosure_for(H)
        k_max = int(1.25 * r * abs(t) + 80)
        co = _interpolant(lambda z: np.exp(-1j * t * z), c, r, max(4096, 2 * k_max))
        return cls(center=c, radius=r, coeffs=co[:_last_above(np.abs(co), 2e-13)])

    @property
    def n_terms(self) -> int:
        return len(self.coeffs)

    def apply(self, H: LinearMap, u):
        """Sum c_k T_k(A) u, A = (H - c)/r, by T_{k+1} = 2A T_k - T_{k-1}
        through H.apply. Raises EnclosureError when an iterate grows past
        50 ||u||, checked every 64th term and at the last. u is left unchanged.
        """
        co, c, r = self.coeffs, self.center, self.radius
        T_prev, T = 0.0, np.asarray(u, dtype=complex)
        acc = co[0] * T
        cap = 50.0 * np.linalg.norm(T) + 1e-300
        for k in range(1, len(co)):
            # the first step is T_1 = A T_0 (T_prev = 0)
            T_prev, T = T, (2.0 if k > 1 else 1.0) / r * (H.apply(T) - c * T) - T_prev
            acc += co[k] * T
            if (k % 64 == 0 or k == len(co) - 1) and np.linalg.norm(T) > cap:
                raise EnclosureError("Chebyshev iterates grow: enclosure violated")
        return acc


def _interpolant(f: Callable, c: float, r: float, n_nodes: int) -> np.ndarray:
    """The n_nodes Chebyshev coefficients of the interpolant of f on
    [c - r, c + r] at the first-kind nodes; real when f is real there."""
    nodes = np.cos(np.pi * (np.arange(n_nodes) + 0.5) / n_nodes)
    fv = np.asarray(f(c + r * nodes), dtype=complex)
    if np.max(np.abs(fv.imag)) == 0.0:
        fv = fv.real
    co = _dct2(fv) / n_nodes
    co[0] *= 0.5
    return co


def _dct2(f: np.ndarray) -> np.ndarray:
    """scipy.fft.dct(f, type=2), y_k = 2 sum_j f_j cos(pi k (2j + 1) / 2n), as
    e^{-i pi k / 2n} times the FFT of the even extension [f, f[::-1]]."""
    n = len(f)
    y = np.exp(-0.5j * np.pi * np.arange(n) / n) * np.fft.fft(np.concatenate([f, f[::-1]]))[:n]
    return y.real if np.isrealobj(f) else y


def _last_above(mags: np.ndarray, cut: float) -> int:
    """1 + the index of the last entry of mags above cut, at least 1."""
    keep = np.nonzero(mags > cut)[0]
    return int(keep[-1]) + 1 if len(keep) else 1


def evolve(H: LatticeHamiltonian, u, t: float):
    """e^{-itH} u for hermitian H via the Chebyshev interpolant of e^{-itz}
    (ChebyshevPlan.for_evolution): one H.apply per term, and EnclosureError
    when the iterates outgrow the enclosure (ChebyshevPlan.apply).

    Any real t is accepted: the interpolant of e^{-itz} serves t < 0 as it
    does t > 0, so evolve(H, evolve(H, u, t), -t) returns u. A CAP
    Hamiltonian is rejected: its spectrum leaves the real interval the series
    is built on (ValueError from ChebyshevPlan.enclosure_for).
    """
    return ChebyshevPlan.for_evolution(H, t).apply(H, u)


# ---------------------------------------------------------------------------
# local decay


@dataclass
class LocalDecayResult:
    t_grid: np.ndarray
    norms: np.ndarray
    kappa_hat: float          # -slope of log norm vs log <t> over the tail half
    rows: list


def _reflection_halves(M: sp.csc_array) -> list:
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


# dstein reorthogonalizes every run of eigenvalues closer than 1e-3 ||A|| as
# one cluster, at a cost quadratic in the run. On the unsplit dipole box (one
# block, 683 eigenpairs in supp f at 2049 sites) one call over the whole window
# took 0.84 s on a 2-vCPU machine and chunks of 32 took 0.22 s; at 4097 sites
# 8.5 s against 0.93 s
_WINDOW_CHUNK = 32
_ORTHOGONALITY_GATE = 1e-8


def _window_eigenpairs(H: LatticeHamiltonian, cutoff: EnergyCutoff):
    """The eigenpairs of the hermitian H with f(lam) != 0, block by block.

    Yields (B, chunks) for each block B of _reflection_halves, where chunks
    yields (lam, V, res): eigenvalues, orthonormal eigenvectors of A = B^T H B
    (block coordinates; B V maps them to the box) and the residuals
    ||A v - lam v|| column by column, which equal those of B v under H
    because B spans an invariant subspace of H.

    For a real tridiagonal H (d = 1, nearest-neighbour hops) every A is real
    tridiagonal: its whole spectrum comes from sterf, which needs no N x N
    workspace, and the eigenvectors of the eigenvalues where f != 0 from
    inverse iteration (LAPACK dstein), at most _WINDOW_CHUNK per call. Each
    chunk is certified, else np.linalg.LinAlgError: dstein's info is 0, and
    2 r_i / gap_i <= _ORTHOGONALITY_GATE, with r_i the residual and gap_i the
    distance from lam_i to its nearest neighbour in the spectrum of A. That
    bounds the overlap of v_i with every other eigenvector (Davis-Kahan), so
    it certifies the orthogonality between chunks, which dstein does not
    enforce. Any other H gives one chunk per block from a dense eigensolver
    restricted to supp f, so boxes beyond dense()'s site guard raise
    ValueError. Chunks are made lazily: a caller that drops each one before
    asking for the next holds one at a time.
    """
    if not H.hermitian:
        raise ValueError("window eigenpairs need a hermitian (CAP-free) Hamiltonian")
    tridiagonal = (H.box.dim == 1 and H.stencil.bandwidth == 1
                   and not np.any(np.imag(H.stencil.coeffs)))
    M = H._matrix(+1)
    Hd = None if tridiagonal else H.dense()
    for B in _reflection_halves(M):
        if tridiagonal:
            yield B, _tridiagonal_window((B.T @ M @ B).real, cutoff)
            continue
        A = B.T @ Hd @ B
        lam, V = sla.eigh(A, subset_by_value=cutoff.support)
        keep = cutoff.profile(lam) != 0.0
        lam, V = lam[keep], V[:, keep]
        yield B, [(lam, V, np.linalg.norm(A @ V - V * lam, axis=0))]


def _tridiagonal_window(A: sp.csr_array, cutoff: EnergyCutoff):
    """The certified chunks of _window_eigenpairs for one real tridiagonal A."""
    d, e = A.diagonal(), A.diagonal(1)
    n = len(d)
    lam = sla.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
    gap = np.minimum(np.diff(lam, prepend=-np.inf), np.diff(lam, append=np.inf))
    window = np.nonzero(cutoff.profile(lam) != 0.0)[0]
    # one unreduced block: every eigenvalue in block 1, which ends at row n
    iblock, isplit = np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32)
    for start in range(0, len(window), _WINDOW_CHUNK):
        j = window[start:start + _WINDOW_CHUNK]
        V, info = lapack.dstein(d, e, lam[j], iblock, isplit)
        res = np.linalg.norm(A @ V - V * lam[j], axis=0)
        bound = float(np.max(2.0 * res / gap[j]))
        if info != 0 or not bound <= _ORTHOGONALITY_GATE:
            raise np.linalg.LinAlgError(
                f"dstein chunk of {len(j)} eigenvectors near {lam[j[0]]:.6g} fails its "
                f"certificate: info = {info}, orthogonality bound {bound:.2e} "
                f"(gate {_ORTHOGONALITY_GATE:g})")
        yield lam[j], V, res


# Grams Y* Y at least _LANCZOS_MIN_WIDTH wide go to _lanczos_top. Per call
# on a 2-vCPU machine (median of 7 local-decay passes on the long-range d = 1
# model, 16 t and both halves each), forming Y for the dense eigvalsh against
# the trace form and Lanczos on the factors took 0.10 against 0.19 ms at
# width 32, 0.33 against 0.28 ms at 49, 0.55 against 0.36 ms at 64, 1.3
# against 0.36 ms at 96 and 4.1 against 0.32 ms at 171. The cutoff sits
# above the crossover, so that a Gram whose bracket stays open for all
# _LANCZOS_STEPS before the dense fallback costs little. Every Gram of the
# recipe's local-decay box (171 and 172 wide) closes its bracket in 3 or 4
# steps.
_LANCZOS_MIN_WIDTH = 64
_LANCZOS_STEPS = 16
_LANCZOS_RTOL = 1e-12


def _sigma_max(L: np.ndarray, Rh: np.ndarray, lam: np.ndarray) -> Callable[[float], float]:
    """t -> sigma_max(L diag(d) Rh) with the unit phases d = e^{-it lam}: the
    per-t routine of both time-domain probes, built once per factor pair.
    Both fold the cutoff f(lam) into the rows of Rh.

    A Gram G = Y* Y, Y = L diag(d) Rh, narrower than _LANCZOS_MIN_WIDTH forms
    Y = L (d Rh) at each t and takes lambda_max from numpy's eigvalsh of
    Y* Y. A wider one never forms Y: _lanczos_top applies it through the
    factors and brackets lambda_max to _LANCZOS_RTOL relative, with the
    trace of G from _frobenius_bound, whose matrix is built here, once. Where
    that bracket does not close (a top that does not dominate the trace of
    G, sigma_1 = sigma_2 among them), Y is formed and takes the dense route.
    Either way only numpy is called (local_decay_probe says why)."""
    if Rh.shape[1] < _LANCZOS_MIN_WIDTH:
        return lambda t: _dense_sigma_max(L, Rh, np.exp(-1j * t * lam))
    trace = _frobenius_bound(L, Rh)

    def sigma(t):
        d = np.exp(-1j * t * lam)
        top = _lanczos_top(L, Rh, d, trace(d))
        return _dense_sigma_max(L, Rh, d) if top is None else float(np.sqrt(top))
    return sigma


def _dense_sigma_max(L: np.ndarray, Rh: np.ndarray, d: np.ndarray) -> float:
    """sigma_max(Y), Y = L diag(d) Rh formed, from numpy's eigvalsh of Y* Y."""
    Y = L @ (d[:, None] * Rh)
    return float(np.sqrt(np.linalg.eigvalsh(Y.conj().T @ Y).max(initial=0.0)))


def _dot(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a vector x; a complex x meets a real A as a real (n, 2) view,
    so that A is never copied to complex."""
    if np.iscomplexobj(A) or not np.iscomplexobj(x):
        return A @ x
    x = np.ascontiguousarray(x)
    return (A @ x.view(float).reshape(-1, 2)).view(complex)[:, 0]


def _frobenius_bound(L: np.ndarray, Rh: np.ndarray) -> Callable[[np.ndarray], float]:
    """d -> an upper bound of ||L diag(d) Rh||_F^2 = tr G for every vector d
    of unit phases, at O(m^2) per call for m = Rh.shape[0].

    The trace is the quadratic form d* C d with C = (L* L) o (Rh Rh*)^T
    (entrywise product), which depends on the factors alone: for local decay,
    L = R and Rh = diag(f) R*, C_kl = f_k f_l |(R* R)_kl|^2, real, symmetric
    and nonnegative. Rounding is bounded from the Cauchy-Schwarz bound
    |(L* L)_kl|, (|L|^T |L|)_kl <= sqrt((L* L)_kk (L* L)_ll) and its
    counterpart for Rh Rh*: with L p x m, Rh m x q and eps twice the unit
    roundoff, computing C moves d* C d by at most
    (p + q + 6) eps (sum_k sqrt(C_kk))^2, and evaluating the form by at most
    2 (m + 2) eps sum_kl |C_kl|. Both are added, so the returned trace is
    never below the exact one, also at late t, where the oscillating terms
    of d* C d cancel far below sum_kl |C_kl|."""
    C = np.asarray(L.conj().T @ L, dtype=np.result_type(L, Rh))
    C *= (Rh @ Rh.conj().T).T
    (p, m), q = L.shape, Rh.shape[1]
    eps = np.finfo(float).eps
    slack = ((p + q + 6) * eps * float(np.sum(np.sqrt(np.abs(np.diagonal(C))))) ** 2
             + 2 * (m + 2) * eps * float(np.abs(C).sum()))
    return lambda d: float(np.vdot(d, _dot(C, d)).real) + slack


def _lanczos_top(L: np.ndarray, Rh: np.ndarray, d: np.ndarray, trace: float) -> float | None:
    """lambda_max(G), G = Y* Y with Y = L diag(d) Rh, certified to
    _LANCZOS_RTOL relative, or None. trace is an upper bound of tr G.

    Lanczos on G with full reorthogonalization, from the constant start
    vector, for at most _LANCZOS_STEPS steps. G is applied as Y* (Y q)
    through the factors, Y q = L (d (Rh q)) and Y* p = Rh* (conj(d) (L* p)),
    so each step costs a few matrix-vector products and Y is never formed.
    After each step the top Ritz vector x is checked on its own, not through
    the recurrence: theta = ||Y x||^2 / ||x||^2 and
    rho = ||G x - theta x|| / ||x||. G is positive semidefinite, so every
    eigenvalue below lambda_max is at most trace - theta. When
    2 theta > trace, lambda_max is thus the only eigenvalue above
    trace - theta, and the Kato-Temple inequality gives
    theta <= lambda_max <= theta + rho^2 / (2 theta - trace); theta is
    returned once that bracket is within _LANCZOS_RTOL theta. A bad start
    vector or a top that does not dominate can only leave the bracket open,
    never close it on a wrong value. trace = 0 (Y = 0) gives 0.0; an open
    bracket after the last step, or an invariant Krylov space, gives None.
    """
    if trace == 0.0:
        return 0.0

    def apply(q):  # Y q
        return _dot(L, d * _dot(Rh, q))

    def adjoint(p):  # Y* p
        return _dot(Rh.T, d * _dot(L.T, p.conj())).conj()

    n = Rh.shape[1]
    Q = np.empty((n, _LANCZOS_STEPS), dtype=complex)
    T = np.zeros((_LANCZOS_STEPS + 1, _LANCZOS_STEPS + 1))
    q = np.full(n, 1.0 / np.sqrt(n))
    for k in range(_LANCZOS_STEPS):
        Q[:, k] = q
        Qk = Q[:, :k + 1]
        w = adjoint(apply(q))
        T[k, k] = np.vdot(q, w).real
        x = Qk @ np.linalg.eigh(T[:k + 1, :k + 1])[1][:, -1]
        y = apply(x)
        xx = np.vdot(x, x).real
        theta = np.vdot(y, y).real / xx
        gap = 2.0 * theta - trace
        if gap > 0.0:
            r = adjoint(y) - theta * x  # G x - theta x
            if np.vdot(r, r).real / xx <= _LANCZOS_RTOL * theta * gap:
                return theta
        for _ in range(2):
            w -= Qk @ (Qk.conj().T @ w)
        beta = np.linalg.norm(w)
        if beta == 0.0:
            return None
        T[k, k + 1] = T[k + 1, k] = beta
        q = w / beta
    return None


def _check_rank(rank: int, cutoff: EnergyCutoff, box_radius: int) -> int:
    """rank, or ValueError when H has no eigenvalue in supp f (every norm 0)."""
    if rank == 0:
        raise ValueError("H has no eigenvalue in supp f = [%.6g, %.6g] at box radius %d"
                         % (*cutoff.support, box_radius))
    return rank


def local_decay_probe(model_cfg: ModelConfig, cutoff: EnergyCutoff, nu: float,
                      t_grid: Sequence[float], box_radius: int) -> LocalDecayResult:
    """Weighted propagator norms ||<n>^-nu e^{-itH} f(H) <n>^-nu|| over t_grid.

    supp f must meet the band and miss every critical value
    (check_energy_window raises EmptyShellError or CriticalValueError), and
    the grid must stay inside the pre-reflection window 0.8 L / v_max. The
    norms are exact and use only the eigenpairs (lam_j, q_j) of H with
    f(lam_j) != 0, from _window_eigenpairs, on each block of
    _reflection_halves (the even and odd halves when H commutes with the
    reflection n -> -n, else one block); the weight is even, so it stays
    diagonal there, and the operator is block diagonal with the larger block
    norm as its norm. Per block, with W Q_S = Q_A R a thin QR of the weighted
    eigenvectors, the norm at t is sigma_max of Y = R diag(e^{-it lam})
    diag(f(lam)) R*, which _sigma_max takes, with f in the right factor as
    in _propagation_sup, as sqrt(lambda_max(Y* Y)). Squaring costs nothing
    at the top of the spectrum. A Gram Y* Y at least _LANCZOS_MIN_WIDTH wide
    (at the recipe's L = 512 the halves give 171 and 172) gets lambda_max
    from a few Lanczos steps through the factors, bracketed to 1e-12
    relative by the Kato-Temple inequality, with the trace of Y* Y from the
    form d* C d, C_kl = f_k f_l |(R* R)_kl|^2, built once per block: no
    m x m product is formed per t. A narrower Gram, or one whose bracket
    stays open, forms Y and takes a dense eigvalsh, good to machine
    precision relative to lambda_max. After the window eigensolve every
    dense call is numpy's: numpy and scipy load separate OpenBLAS builds,
    whose thread pools contend at two threads on two cores. On a 2-vCPU
    machine the recipe's probe took 0.39-0.52 s with scipy's ztrmm and
    svdvals per t after numpy's QR, 0.19-0.24 s with numpy's eigvalsh per t,
    and about 0.2 s either way at one thread; its per-t loop takes 10-20 ms
    on the factors against 50-55 ms with Y formed per t and Lanczos on it.
    H without an eigenvalue in supp f raises ValueError. Each row reports
    the rank |S| summed over the blocks and the eigen-residual
    max_j ||H q_j - lam_j q_j||.
    """
    st = model_cfg.stencil
    _, vmax = check_energy_window(st, cutoff.support, max(64, round(4096 ** (1.0 / st.dim))))
    L = box_radius
    H = model_cfg.assemble(L, with_cap=False)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    window = 0.8 * L / max(vmax, 1e-12)
    if t_grid[-1] > window:
        raise ValueError(f"t_grid exceeds the reflection window {window:.1f}")
    wdiag = (1.0 + np.sum(H.box.sites().astype(float) ** 2, axis=1)) ** (-nu / 2.0)
    blocks = []
    rank, eig_residual = 0, 0.0
    for B, chunks in _window_eigenpairs(H, cutoff):
        parts = list(chunks)
        if not parts:
            continue
        evals, Q, res = (np.concatenate(x, axis=-1) for x in zip(*parts))
        eig_residual = max(eig_residual, float(res.max(initial=0.0)))
        # each basis vector lives on sites n and -n, where the weight agrees
        w = B.power(2).T @ wdiag
        R = np.linalg.qr(w[:, None] * Q, mode="r")
        blocks.append(_sigma_max(R, cutoff.profile(evals)[:, None] * R.conj().T, evals))
        rank += len(evals)
    _check_rank(rank, cutoff, L)
    rows = []
    norms = np.zeros(len(t_grid))
    for i, t in enumerate(t_grid):
        t0 = time.perf_counter()
        norms[i] = max(sigma(t) for sigma in blocks)
        rows.append({"t": t, "norm": norms[i], "seconds": time.perf_counter() - t0,
                     "rank": rank, "eig_residual": eig_residual})
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
                      h_list: Sequence[float], delta1: float, delta2: float) -> PropagationResult:
    """sup over t in [0, T(h)] of ||Op^h(a1) e^{-itH} f(H) Op^h(a2)|| per h,
    with f the cutoff at cutoff.lam and a1, a2 the bumps of radii delta1,
    delta2 at the kernel point.

    The box radius L(h) is the rule of kernel_point_setup and the horizon
    T(h) = min(h^-2, 0.8 L(h)/v_max), sampled at 32 times: t = 0 and 31
    geometric steps from max(T/512, 1/4) to T. Both momenta must sit on the
    energy shell (ValueError), supp f must miss every critical value
    (check_energy_window), and the fit needs at least 4 h. Whether the norms
    should decay is the caller's to judge, from classify().
    """
    lam = cutoff.lam
    hs, radii, a1, a2 = kernel_point_setup(kp, model_cfg.stencil, delta1, delta2, h_list)
    p1 = float(model_cfg.stencil.p0(kp.xi))
    p2 = float(model_cfg.stencil.p0(kp.eta))
    if abs(p1 - lam) > 1e-9 or abs(p2 - lam) > 1e-9:
        raise ValueError("both momenta must sit on the energy shell")
    _, vmax = check_energy_window(model_cfg.stencil, cutoff.support, 4096)

    rows = []
    sups = {}
    for h, L in zip(hs, radii):
        H = model_cfg.assemble(L, with_cap=False)
        T = min(h**-2.0, 0.8 * L / max(vmax, 1e-12))
        tg = np.concatenate([[0.0], np.geomspace(max(T / 512.0, 0.25), T, 31)])
        sups[h], h_rows = _propagation_sup(H, a1, a2, h, cutoff, tg)
        rows.extend({"h": h, **r} for r in h_rows)
    hs = sorted(sups)
    fit = DecayFit.from_values(hs, [sups[h] for h in hs])
    return PropagationResult(sup_norms=sups, fit=fit, rows=rows)


def _propagation_sup(H: LatticeHamiltonian, a1: Symbol, a2: Symbol, h: float,
                     cutoff: EnergyCutoff, t_grid: np.ndarray):
    """Exact finite-rank norms of Op^h(a1) e^{-itH} f(H) Op^h(a2) on t_grid.

    Both symbols must be one-term symbols with finite x-support. With E the
    injection of the support S2 of the right symbol and Z2 the k-column
    gram factor of Op^h(a2) on S2 (quantize.finite_rank_pair), the norm
    at t is sigma_max of Op^h(a1) e^{-itH} f(H) E Z2. f(H) has compact
    support, so with
    (lam_j, q_j), j = 1..m, the eigenpairs of H where f != 0
    (_window_eigenpairs) that operator is P diag(e^{-it lam}) W: P has the
    columns Op^h(a1) q_j on the support S1 of the left symbol, and
    W = diag(f(lam)) (E* q_j)* Z2. Both factors are built chunk by chunk, so
    no box-sized array outlives its chunk, and each t costs one
    |S1| x m by m x k product and a k x k eigenproblem (_sigma_max). m = 0
    raises ValueError. Each row reports the rank m and the eigen-residual
    max_j ||H q_j - lam_j q_j||.
    """
    (b1, c1), _, S1, (S2, Z2) = finite_rank_pair(a1, a2, h, H.box)
    k = Z2.shape[1]
    lams, PTs, Ws = [np.empty(0)], [np.empty((0, len(S1)))], [np.empty((0, k))]
    eig_residual = 0.0
    for B, chunks in _window_eigenpairs(H, cutoff):
        # (rows S1 of Op^h(a1) B)^T, one sparse product per row
        A1BT = support_rows(b1, c1, S1, B.T)
        B2 = B[S2]
        for lam, V, res in chunks:
            lams.append(lam)
            PTs.append(V.T @ A1BT)
            Ws.append(cutoff.profile(lam)[:, None] * ((B2 @ V).conj().T @ Z2))
            eig_residual = max(eig_residual, float(res.max(initial=0.0)))
    lam, P, W = np.concatenate(lams), np.vstack(PTs).T, np.vstack(Ws)
    rank = _check_rank(len(lam), cutoff, H.box.radius)
    sigma = _sigma_max(P, W, lam)
    sup = 0.0
    rows = []
    for t in t_grid:
        t0 = time.perf_counter()
        val = sigma(t)
        sup = max(sup, val)
        rows.append({"t": float(t), "norm": val, "seconds": time.perf_counter() - t0,
                     "columns": k, "rank": rank, "eig_residual": eig_residual})
    return sup, rows
