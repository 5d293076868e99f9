"""Phase-space symbols a(x, xi) on R^d x T^d, and the smooth cutoff Phi/Psi
that every bump, cone, escape symbol and EnergyCutoff f is built from."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Symbol:
    """A function a(x, xi) = sum_j b_j(x) c_j(xi), x in R^d, xi in T^d.

    `terms` holds the (b_j, c_j) pairs, at least one, so quantization applies
    the symbol as a sum of Fourier multipliers. The factors take points of
    shape (..., d), d = 1 included, broadcast over the leading axes, and
    return an array of the leading shape; calling the symbol with points
    whose last axis is not d raises ValueError.
    """

    dim: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a symbol needs at least one (b, c) term")

    def __call__(self, x, xi):
        for name, pts in (("x", x), ("xi", xi)):
            if np.shape(pts)[-1:] != (self.dim,):
                raise ValueError(f"symbol got {name} of shape {np.shape(pts)}; points are "
                                 f"(..., {self.dim}) arrays, d = 1 included")
        return sum(np.asarray(b(x)) * np.asarray(c(xi)) for b, c in self.terms)


def separable_symbol(dim, b, c):
    """Symbol a(x, xi) = b(x) c(xi), the one-term case."""
    return Symbol(dim=dim, terms=((b, c),))


def _bump_B(r):
    """B(r) = e^(-1/r) for r > 0, else 0."""
    out = np.zeros_like(r, dtype=float)
    m = r > 0
    with np.errstate(over="ignore", under="ignore"):
        out[m] = np.exp(-1.0 / r[m])
    return out


class CutoffPhi:
    """Smooth ramp with Phi(s)=1 for s<=1/2, Phi(s)=0 for s>=1, Phi(s)>0 for
    s<1 and Phi' <= 0. Psi = Phi^2.

    Built from the partition ramp g(r) = B(r)/(B(r)+B(1-r)), B(r)=e^(-1/r),
    via Phi(s) = g(2(1-s)). `__call__` and `derivative` are the override
    points; `psi` and `psi_derivative` call both.
    """

    @staticmethod
    def _partition(s):
        """r = 2(1-s), 1-r and the bumps B(r), B(1-r): the one evaluation of
        the ramp's terms that Phi and Phi' share."""
        r = 2.0 * (1.0 - np.asarray(s, dtype=float))
        rc = 1.0 - r
        return r, rc, _bump_B(r), _bump_B(rc)

    def __call__(self, s):
        # no B' here: every bump, cone and energy cutoff samples Phi alone
        _, _, B, Bc = self._partition(s)
        with np.errstate(invalid="ignore"):
            out = np.where(B + Bc > 0, B / np.where(B + Bc > 0, B + Bc, 1.0), 0.0)
        return out if out.ndim else float(out)

    def derivative(self, s):
        """Analytic Phi'(s) = -2 g'(r), with B'(r) = B(r)/r^2."""
        r, rc, B, Bc = self._partition(s)
        with np.errstate(all="ignore"):
            dB = np.where(r > 0, B / r**2, 0.0)
            dBc = np.where(rc > 0, Bc / rc**2, 0.0)
        denom = (B + Bc) ** 2
        gp = np.where(denom > 0, (dB * Bc + B * dBc) / np.where(denom > 0, denom, 1.0), 0.0)
        out = -2.0 * gp
        return out if out.ndim else float(out)

    def psi(self, s):
        return np.asarray(self(s)) ** 2

    def psi_derivative(self, s):
        return 2.0 * np.asarray(self(s)) * np.asarray(self.derivative(s))


DEFAULT_PHI = CutoffPhi()


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

    @property
    def support(self):
        return (self.lam - 2.0 * self.eps_f, self.lam + 2.0 * self.eps_f)
