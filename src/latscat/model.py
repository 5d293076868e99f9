"""Lattice model: finite-difference H0, long-range potentials, boxes, CAP,
and sparse assembly of the truncated Hamiltonian."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .util import product_grid

# the strength of every box's absorbing potential (LatticeHamiltonian)
CAP_STRENGTH = 1.0
# the largest box, in sites, that the dense routes build
DENSE_MAX_SITES = 4200


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
        (..., d). Real: the symmetry enforced at construction leaves only
        roundoff in the imaginary part, which is dropped. Returns shape (...)."""
        xi = np.asarray(xi, dtype=float)
        acc = np.zeros(xi.shape[:-1], dtype=complex)
        for o, g in zip(self.offsets, self.coeffs):
            acc = acc + g * np.exp(1j * (xi @ np.asarray(o, dtype=float)))
        return acc.real

    def gradient(self, xi):
        """Group velocity v(xi) = dp0(xi) on momenta of shape (..., d), real
        as p0 is. Returns shape (..., d)."""
        xi = np.asarray(xi, dtype=float)
        acc = np.zeros(xi.shape, dtype=complex)
        for o, g in zip(self.offsets, self.coeffs):
            ov = np.asarray(o, dtype=float)
            phase = np.exp(1j * (xi @ ov))
            acc = acc + g * 1j * phase[..., None] * ov
        return acc.real


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


def check_energy_window(stencil: Stencil, window, grid_n: int = 256):
    """(min, max) of |v(xi)| over the sampled shell {p0(xi) in window}, on
    the torus grid with `grid_n` points per axis.

    Raises EmptyShellError when no sampled momentum lands in the window and
    CriticalValueError when the sampled minimum falls below 1e-6.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64 per dimension")
    lo, hi = float(window[0]), float(window[1])
    if not lo <= hi:
        raise ValueError("empty interval")
    xi = product_grid(np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False), stencil.dim)
    p, speeds = stencil.p0(xi), np.linalg.norm(stencil.gradient(xi), axis=-1)
    mask = (p >= lo) & (p <= hi)
    if not np.any(mask):
        raise EmptyShellError(f"no momenta with p0 in [{lo}, {hi}]")
    vmin = float(np.min(speeds[mask]))
    if vmin < 1e-6:
        raise CriticalValueError(
            f"window [{lo}, {hi}] reaches a critical region: min|v| = {vmin:.3e}")
    return vmin, float(np.max(speeds[mask]))


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


def cap_width(radius: int) -> int:
    """Width in sites of the absorbing layer of a box of this radius: the
    outer eighth of the radius, at least 4 sites."""
    return max(int(round(radius / 8)), 4)


class LinearMap:
    """Matrix-free linear operator on complex vectors over a finite box.

    A subclass that overrides __call__, apply and adjoint_apply passes None
    for the two callables. hermitian, bandwidth and label only describe
    the map: latscat reads LatticeHamiltonian's hermitian alone.
    """

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

    return LinearMap(dim, fwd, adj)


def adjoint_map(A: LinearMap) -> LinearMap:
    return LinearMap(A.dim, A.adjoint_apply, A.apply)


class LatticeHamiltonian(LinearMap):
    """H = H0 + V (- iW with the CAP), assembled once, on first use, as a
    sparse CSC matrix.

    Hops that leave the box are dropped (Dirichlet truncation). The hop part
    is self-adjoint by the stencil symmetry invariant, so the adjoint differs
    from H only in the sign of the CAP term. Products are complex for real
    input.

    with_cap adds the complex absorbing potential W >= 0: a cubic ramp over
    the outer cap_width(radius) sites, reaching CAP_STRENGTH on the box edge.
    """

    def __init__(self, stencil: Stencil, potential: Potential, box: Box,
                 with_cap: bool = False):
        width = cap_width(box.radius)
        if with_cap and box.radius <= stencil.bandwidth + width:
            raise ValueError("box radius must exceed stencil bandwidth + cap width")
        self.stencil = stencil
        self.potential = potential
        self.box = box
        self.v_diag = potential.values(box.sites())
        self.cap_diag = np.zeros(box.site_count)
        if with_cap:
            ramp = np.maximum(box.inf_norms() - (box.radius - width), 0.0) / width
            self.cap_diag = CAP_STRENGTH * ramp**3
        table = dict(zip(stencil.offsets, stencil.coeffs))
        onsite = table.pop((0,) * stencil.dim, 0.0)
        if abs(onsite.imag) > 1e-14:
            raise ValueError("onsite coefficient must be real")
        self.onsite, self.hops = onsite.real, list(table.items())
        self._matrices = {}
        super().__init__(box.site_count, None, None, hermitian=not with_cap)

    # Methods, not closures handed to LinearMap: a closure over self is a
    # reference cycle, which would keep H and its caches alive until the
    # cyclic collector runs.
    def apply(self, u):
        return self._matrix(+1) @ np.asarray(u)

    __call__ = apply

    def adjoint_apply(self, u):
        return self._matrix(-1) @ np.asarray(u)

    def _matrix(self, cap_sign: int) -> sp.csc_array:
        """H0 + V - i cap_sign W, shifted() at shift 0, cached per CAP sign."""
        if self.hermitian:
            cap_sign = 0
        if cap_sign not in self._matrices:
            self._matrices[cap_sign] = self.shifted(0.0, cap_sign)
        return self._matrices[cap_sign]

    def _shifted_diag(self, shift: complex, branch_sign: int, eps: float) -> np.ndarray:
        """Diagonal of H0 + V - shift -/+ i(eps + W): branch_sign=+1 gives
        - i(eps + W), -1 flips both CAP and eps to +i (incoming branch)."""
        s = 1.0 if branch_sign >= 0 else -1.0
        return self.onsite + self.v_diag - shift - 1j * s * (self.cap_diag + eps)

    def _assemble(self) -> sp.csc_array:
        """The hops plus a unit diagonal, as a complex CSC matrix."""
        n = self.box.n_per_axis
        index = np.arange(self.box.site_count).reshape(self.box.shape)
        rows = [index.ravel()]
        cols = [index.ravel()]
        vals = [np.ones(self.box.site_count, dtype=complex)]
        for o, g in self.hops:
            if any(abs(m) >= n for m in o):
                continue
            # (H u)(n) gets g u(n - m): row n, column n - m
            rows.append(index[tuple(slice(max(0, m), n + min(0, m)) for m in o)].ravel())
            cols.append(index[tuple(slice(max(0, -m), n + min(0, -m)) for m in o)].ravel())
            vals.append(np.full(rows[-1].size, g, dtype=complex))
        return sp.csc_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(self.box.site_count,) * 2)

    def inner_mask(self) -> np.ndarray:
        """Sites where the CAP vanishes."""
        return self.cap_diag == 0.0

    def shifted(self, shift: complex, branch_sign: int = +1, eps: float = 0.0) -> sp.csc_array:
        """H0 + V - shift -/+ i(eps + W) per branch as a CSC matrix, the
        format of the sparse LU the d >= 2 solves use: a copy of _csc_pattern
        with the shifted diagonal written in."""
        pattern, slots = self._csc_pattern
        M = pattern.copy()
        M.data[slots] = self._shifted_diag(shift, branch_sign, eps)
        return M

    @cached_property
    def _csc_pattern(self) -> tuple:
        """(the hops plus a unit diagonal as CSC, the positions of the diagonal
        in its data), assembled once per H: products, dense(), the hop band,
        the window eigensolve and the d >= 2 LU all read copies of it. The
        unit diagonal keeps every diagonal entry stored whatever shifted()
        writes there; the branch enters through the diagonal alone."""
        M = self._assemble()
        col = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
        return M, np.nonzero(M.indices == col)[0]

    @cached_property
    def _hop_band(self) -> np.ndarray:
        """(d=1) The hops in LAPACK band storage, read off the CSC pattern once:
        DIA holds H[j - k, j] at data[., j] for offset k, and LAPACK wants
        H[i, j] at ab[b + i - j, j], that is ab[b - k, j]."""
        dia, b = self._csc_pattern[0].todia(), self.stencil.bandwidth
        ab = np.zeros((2 * b + 1, self.box.site_count), dtype=complex)
        ab[b - dia.offsets] = dia.data
        return ab

    def banded(self, shift: complex = 0.0, branch_sign: int = +1, eps: float = 0.0):
        """(d=1) LAPACK band storage of H0 + V - shift -/+ i(eps + W) per branch:
        a copy of the hop band with the shifted diagonal written in."""
        if self.box.dim != 1:
            raise ValueError("banded storage only for d=1")
        ab = self._hop_band.copy()
        ab[self.stencil.bandwidth] = self._shifted_diag(shift, branch_sign, eps)
        return ab

    def dense(self) -> np.ndarray:
        """Dense matrix of H (small boxes only)."""
        if self.box.site_count > DENSE_MAX_SITES:
            raise ValueError("box too large to densify")
        return self._matrix(+1).toarray()


@dataclass(frozen=True)
class ModelConfig:
    """Model block shared by the probes: stencil + potential."""

    stencil: Stencil = field(default_factory=laplacian_stencil)
    potential: Potential = field(default_factory=Potential)

    def assemble(self, radius: int, with_cap: bool = True) -> LatticeHamiltonian:
        return LatticeHamiltonian(self.stencil, self.potential,
                                  Box(self.stencil.dim, radius), with_cap)
