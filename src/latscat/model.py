"""Lattice model: finite-difference H0, long-range potentials, boxes, CAP,
and sparse assembly of the truncated Hamiltonian."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .util import product_grid


class EmptyShellError(ValueError):
    """The requested energy window meets no torus momenta."""


class CriticalValueError(ValueError):
    """The energy shell contains (numerically) critical points of p0."""


@dataclass(frozen=True)
class Stencil:
    """Finite hopping rule: (H0 u)(n) = sum_m coeffs[m] u(n - m).

    Offsets are integer vectors in Z^d. Symmetry (offset -m present with
    conjugate coefficient) is enforced at construction; it makes H0 symmetric
    and the torus symbol real. Momenta are arrays of shape (..., d), d = 1
    included.
    """

    dim: int
    offsets: tuple
    coeffs: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        offs = [tuple(int(c) for c in np.atleast_1d(o)) for o in self.offsets]
        if len(set(offs)) != len(offs):
            raise ValueError("duplicate offsets")
        if any(len(o) != self.dim for o in offs):
            raise ValueError("offset dimension mismatch")
        coeffs = tuple(complex(c) for c in self.coeffs)
        if len(coeffs) != len(offs):
            raise ValueError("offsets and coeffs length mismatch")
        table = dict(zip(offs, coeffs))
        for o, g in table.items():
            neg = tuple(-c for c in o)
            if neg not in table or abs(table[neg] - np.conj(g)) > 1e-14 * max(1.0, abs(g)):
                raise ValueError(f"symmetry violated at offset {o}")
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def bandwidth(self) -> int:
        return max(max(abs(c) for c in o) for o in self.offsets)

    def p0(self, xi):
        """Torus symbol p0(xi) = sum_m gamma_m e^{i xi.m} on momenta of shape
        (..., d); real by symmetry. Returns shape (...)."""
        xi = np.asarray(xi, dtype=float)
        acc = np.zeros(xi.shape[:-1], dtype=complex)
        for o, g in zip(self.offsets, self.coeffs):
            acc = acc + g * np.exp(1j * (xi @ np.asarray(o, dtype=float)))
        return np.real_if_close(acc, tol=100)

    def gradient(self, xi):
        """v(xi) = dp0(xi) on momenta of shape (..., d), real by symmetry.
        Returns shape (..., d)."""
        xi = np.asarray(xi, dtype=float)
        acc = np.zeros(xi.shape, dtype=complex)
        for o, g in zip(self.offsets, self.coeffs):
            ov = np.asarray(o, dtype=float)
            phase = np.exp(1j * (xi @ ov))
            acc = acc + g * 1j * phase[..., None] * ov
        return np.real_if_close(acc, tol=100)

    @cached_property
    def symbol_range(self) -> tuple:
        """Interval [lo, hi] that contains the range of p0 (computed once).

        The extrema are taken on a momentum grid of step s and padded by
        s * sum_m |m|_1 |gamma_m|, which bounds how far p0 moves between
        grid points.
        """
        n = max(16, int(round(2.0 ** (14.0 / self.dim))))
        step = 2.0 * np.pi / n
        p = np.real(self.p0(product_grid(step * np.arange(n), self.dim)))
        pad = step * sum(abs(g) * sum(abs(m) for m in o)
                         for o, g in zip(self.offsets, self.coeffs))
        return float(np.min(p) - pad), float(np.max(p) + pad)


def laplacian_stencil(dim: int = 1) -> Stencil:
    """Nearest-neighbor stencil with p0(xi) = sum_a (1 - cos xi_a)."""
    offsets = [(0,) * dim]
    coeffs = [float(dim)]
    for a in range(dim):
        for s in (+1, -1):
            o = [0] * dim
            o[a] = s
            offsets.append(tuple(o))
            coeffs.append(-0.5)
    return Stencil(dim=dim, offsets=tuple(offsets), coeffs=tuple(coeffs))


def velocity(stencil: Stencil, xi):
    """Group velocity v(xi) = dp0(xi) as a real array of shape (..., d)."""
    v = stencil.gradient(xi)
    if np.iscomplexobj(v):
        raise ValueError("velocity is not numerically real; check stencil symmetry")
    return v


def momentum_grid_scan(stencil: Stencil, grid_n: int):
    """p0 and |v| on the torus grid with `grid_n` points per axis, as two
    arrays of shape (grid_n,) * d."""
    xi = product_grid(np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False), stencil.dim)
    p = np.asarray(stencil.p0(xi), dtype=float)
    speeds = np.linalg.norm(np.asarray(stencil.gradient(xi), dtype=float), axis=-1)
    return p, speeds


def check_energy_window(stencil: Stencil, window, grid_n: int = 256):
    """Min of |v(xi)| over the sampled shell {p0(xi) in window}.

    Raises EmptyShellError when no sampled momentum lands in the window and
    CriticalValueError when the sampled minimum falls below 1e-6.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64 per dimension")
    lo, hi = float(window[0]), float(window[1])
    if not lo <= hi:
        raise ValueError("empty interval")
    p, speeds = momentum_grid_scan(stencil, grid_n)
    mask = (p >= lo) & (p <= hi)
    if not np.any(mask):
        raise EmptyShellError(f"no momenta with p0 in [{lo}, {hi}]")
    vmin = float(np.min(speeds[mask]))
    if vmin < 1e-6:
        raise CriticalValueError(
            f"window [{lo}, {hi}] reaches a critical region: min|v| = {vmin:.3e}")
    return vmin


@dataclass(frozen=True)
class Potential:
    """Real multiplication potential V(n) with decay exponent mu.

    form: "none", "power_law" (c (1+|n|^2)^(-mu/2)) or
    "dipole" (c n_1 (1+|n|^2)^(-(mu+1)/2)).
    """

    mu: float = 0.5
    amplitude: float = 0.0
    form: str = "none"

    def __post_init__(self):
        if self.form not in ("none", "power_law", "dipole"):
            raise ValueError(f"unknown potential form {self.form!r}")
        if not (0.0 < self.mu <= 1.0) and self.form != "none":
            raise ValueError("mu must lie in (0, 1]")

    def values(self, sites: np.ndarray) -> np.ndarray:
        """Evaluate on integer sites, shape (N,) from sites of shape (N, d)."""
        sites = np.atleast_2d(sites).astype(float)
        r2 = np.sum(sites**2, axis=1)
        if self.form == "none":
            return np.zeros(len(sites))
        if self.form == "power_law":
            return self.amplitude * (1.0 + r2) ** (-self.mu / 2.0)
        return self.amplitude * sites[:, 0] * (1.0 + r2) ** (-(self.mu + 1.0) / 2.0)


@dataclass(frozen=True)
class Box:
    """Cube {n in Z^d : |n|_inf <= radius}, sites enumerated row-major."""

    dim: int
    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")

    @property
    def n_per_axis(self) -> int:
        return 2 * self.radius + 1

    @property
    def site_count(self) -> int:
        return self.n_per_axis**self.dim

    @property
    def shape(self) -> tuple:
        return (self.n_per_axis,) * self.dim

    def sites(self) -> np.ndarray:
        """(site_count, dim) integer coordinates, row-major."""
        ax = np.arange(-self.radius, self.radius + 1)
        return product_grid(ax, self.dim).reshape(-1, self.dim)

    def index_of(self, site) -> int:
        site = np.atleast_1d(site)
        idx = 0
        for c in site:
            if abs(int(c)) > self.radius:
                raise ValueError("site outside box")
            idx = idx * self.n_per_axis + (int(c) + self.radius)
        return int(idx)

    def xi_axis(self) -> np.ndarray:
        """Momentum grid per axis in FFT bin order, values in [-pi, pi)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_per_axis)

    def inf_norms(self) -> np.ndarray:
        return np.max(np.abs(self.sites()), axis=1)


@dataclass(frozen=True)
class CAPProfile:
    """Cubic-ramp complex absorbing potential W >= 0 in the outer layer."""

    width: int
    strength: float = 1.0

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.strength <= 0:
            raise ValueError("strength must be > 0")

    def values(self, box: Box) -> np.ndarray:
        d = box.inf_norms().astype(float)
        inner = box.radius - self.width
        ramp = np.maximum(d - inner, 0.0) / self.width
        return self.strength * ramp**3


class LinearMap:
    """Matrix-free linear operator on complex vectors over a finite box."""

    def __init__(self, dim: int, apply: Callable, adjoint_apply: Callable,
                 hermitian: bool = False, bandwidth: Optional[int] = None, label: str = ""):
        self.dim = int(dim)
        self._apply = apply
        self._adjoint = adjoint_apply
        self.hermitian = bool(hermitian)
        self.bandwidth = bandwidth
        self.label = label

    def __call__(self, u):
        return self._apply(u)

    def apply(self, u):
        return self._apply(u)

    def adjoint_apply(self, u):
        return self._adjoint(u)


def compose_maps(*maps: LinearMap) -> LinearMap:
    """compose_maps(A, B, C) is the operator u -> A(B(C(u)))."""
    if not maps:
        raise ValueError("need at least one map")
    dim = maps[0].dim
    if any(m.dim != dim for m in maps):
        raise ValueError("dimension mismatch")

    def fwd(u):
        for m in reversed(maps):
            u = m(u)
        return u

    def adj(u):
        for m in maps:
            u = m.adjoint_apply(u)
        return u

    return LinearMap(dim, fwd, adj, label="∘".join(m.label for m in maps))


def adjoint_map(A: LinearMap) -> LinearMap:
    return LinearMap(A.dim, A.adjoint_apply, A.apply, hermitian=A.hermitian,
                     bandwidth=A.bandwidth, label=A.label + "*")


class LatticeHamiltonian(LinearMap):
    """H = H0 + V (- iW with a CAP), assembled once, on first use, as a sparse
    CSR matrix.

    Hops that leave the box are dropped (Dirichlet truncation). The hop part
    is self-adjoint by the stencil symmetry invariant, so the adjoint differs
    from H only in the sign of the CAP term. Products are complex for real
    input.
    """

    def __init__(self, stencil: Stencil, potential: Potential, box: Box,
                 cap: Optional[CAPProfile] = None):
        if cap is not None and box.radius <= stencil.bandwidth + cap.width:
            raise ValueError("box radius must exceed stencil bandwidth + cap width")
        self.stencil = stencil
        self.potential = potential
        self.box = box
        self.cap = cap
        self.v_diag = potential.values(box.sites())
        self.cap_diag = cap.values(box) if cap is not None else np.zeros(box.site_count)
        onsite = 0.0 + 0.0j
        hops = []
        for o, g in zip(stencil.offsets, stencil.coeffs):
            if all(c == 0 for c in o):
                onsite += g
            else:
                hops.append((o, g))
        if abs(onsite.imag) > 1e-14:
            raise ValueError("onsite coefficient must be real")
        self.onsite = onsite.real
        self.hops = hops
        self._csr = {}
        super().__init__(box.site_count, lambda u: self._matrix(+1) @ np.asarray(u),
                         lambda u: self._matrix(-1) @ np.asarray(u), hermitian=cap is None,
                         bandwidth=stencil.bandwidth, label="H")

    def _matrix(self, cap_sign: int, center: float = 0.0, scale: float = 1.0) -> sp.csr_array:
        """scale * (H0 + V - center - i cap_sign W) as CSR, assembled on first
        use and cached per argument: the d=1 banded solves never need it, and
        the Chebyshev recurrence applies (2/r)(H - c) in one product."""
        if self.cap is None:
            cap_sign = 0
        key = (cap_sign, center, scale)
        if key not in self._csr:
            M = self._assemble(self._shifted_diag(center, cap_sign, 0.0))
            self._csr[key] = M if scale == 1.0 else scale * M
        return self._csr[key]

    def _shifted_diag(self, shift: complex, branch_sign: int, eps: float) -> np.ndarray:
        """Diagonal of H0 + V - shift -/+ i(eps + W): branch_sign=+1 gives
        - i(eps + W), -1 flips both CAP and eps to +i (incoming branch)."""
        s = 1.0 if branch_sign >= 0 else -1.0
        return self.onsite + self.v_diag - shift - 1j * s * (self.cap_diag + eps)

    def _assemble(self, diag) -> sp.csr_array:
        """The hops plus `diag` on the diagonal, as a complex CSR matrix."""
        n = self.box.n_per_axis
        index = np.arange(self.box.site_count).reshape(self.box.shape)
        rows = [index.ravel()]
        cols = [index.ravel()]
        vals = [np.asarray(diag, dtype=complex)]
        for o, g in self.hops:
            if any(abs(m) >= n for m in o):
                continue
            # (H u)(n) gets g u(n - m): row n, column n - m
            rows.append(index[tuple(slice(max(0, m), n + min(0, m)) for m in o)].ravel())
            cols.append(index[tuple(slice(max(0, -m), n + min(0, -m)) for m in o)].ravel())
            vals.append(np.full(rows[-1].size, g, dtype=complex))
        return sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(self.box.site_count,) * 2)

    def inner_mask(self) -> np.ndarray:
        """Sites where the CAP vanishes."""
        return self.cap_diag == 0.0

    def shifted(self, shift: complex, branch_sign: int = +1, eps: float = 0.0) -> sp.csc_array:
        """H0 + V - shift -/+ i(eps + W) per branch as a CSC matrix, the
        format of the sparse LU the d >= 2 solves use."""
        return self._assemble(self._shifted_diag(shift, branch_sign, eps)).tocsc()

    def banded(self, shift: complex = 0.0, branch_sign: int = +1, eps: float = 0.0):
        """(d=1) LAPACK band storage of H0 + V - shift -/+ i(eps + W) per branch."""
        if self.box.dim != 1:
            raise ValueError("banded storage only for d=1")
        b = self.stencil.bandwidth
        N = self.box.site_count
        ab = np.zeros((2 * b + 1, N), dtype=complex)
        ab[b, :] = self._shifted_diag(shift, branch_sign, eps)
        for o, g in self.hops:
            m = o[0]
            # entry H[i, j] with j = i - m lives in ab[b + (i - j), j] = ab[b + m, j]
            row = b + m
            if m > 0:
                ab[row, : N - m] = g
            else:
                ab[row, -m:] = g
        return ab

    def dense(self) -> np.ndarray:
        """Dense matrix of H (small boxes only)."""
        if self.box.site_count > 4200:
            raise ValueError("box too large to densify")
        return self._matrix(+1).toarray()

    def spectral_interval(self) -> tuple:
        """Interval [lo, hi] that contains the spectrum of H0 + V (the CAP is
        not included).

        Rigorous: the Dirichlet truncation compresses H0 on l2(Z^d), whose
        numerical range is the range of p0, and Weyl's inequality adds
        [min V, max V].
        """
        lo, hi = self.stencil.symbol_range
        return lo + float(np.min(self.v_diag)), hi + float(np.max(self.v_diag))


@dataclass(frozen=True)
class ModelConfig:
    """Model block shared by the probes: stencil + potential + CAP rule."""

    stencil: Stencil = field(default_factory=laplacian_stencil)
    potential: Potential = field(default_factory=Potential)
    cap_width_frac: float = 0.125
    cap_strength: float = 1.0

    def cap_for(self, box: Box) -> CAPProfile:
        w = max(int(round(self.cap_width_frac * box.radius)), 4)
        return CAPProfile(width=w, strength=self.cap_strength)

    def assemble(self, radius: int, with_cap: bool = True) -> LatticeHamiltonian:
        box = Box(self.stencil.dim, radius)
        cap = self.cap_for(box) if with_cap else None
        return LatticeHamiltonian(self.stencil, self.potential, box, cap)
