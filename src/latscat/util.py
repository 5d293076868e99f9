"""Shared small helpers: seeded RNG, torus metric, log-log fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Fixed seed for every stochastic estimator in the package (reproducibility).
SEED = 0x5EED


def rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(SEED if seed is None else seed)


def angle_diff(xi, eta):
    """Componentwise torus distance min(|d|, 2pi-|d|), any broadcastable shape."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    return np.abs(np.angle(np.exp(1j * (xi - eta))))


def torus_distance(xi, eta):
    """Euclidean distance on the flat torus (R/2pi Z)^d between points of
    shape (..., d): componentwise min(|d|, 2pi-|d|), combined in quadrature
    over the last axis."""
    return np.sqrt(np.sum(angle_diff(xi, eta) ** 2, axis=-1))


def product_grid(ax, dim: int) -> np.ndarray:
    """The points of ax^dim, shape (len(ax),) * dim + (dim,), first axis
    slowest; reshape(-1, dim) lists them row-major."""
    return np.stack(np.meshgrid(*([ax] * dim), indexing="ij"), axis=-1)


def reduce_torus(xi):
    """Reduce torus coordinates to [0, 2pi); np.mod can round up to 2pi."""
    two_pi = 2.0 * np.pi
    r = np.mod(np.asarray(xi, dtype=float), two_pi)
    return np.where(r >= two_pi, 0.0, r)


def lstsq_loglog(x, y):
    """Least-squares line through (log10 x, log10 y).

    Returns (slope, intercept, max_abs_residual). Non-positive ordinates make
    the fit degenerate; callers should screen for that first.
    """
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = np.max(np.abs(A @ coef - ly)) if len(lx) else 0.0
    return float(coef[0]), float(coef[1]), float(resid)


@dataclass
class DecayFit:
    """Least-squares fit of log10(norm) against log10(h or t)."""

    slope: float
    intercept: float
    max_residual: float
    degenerate: bool = False

    @classmethod
    def from_values(cls, xs, ys) -> "DecayFit":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if len(xs) < 4:
            raise ValueError("DecayFit needs at least 4 points")
        if np.any(ys <= 0.0) or not np.all(np.isfinite(ys)):
            return cls(slope=float("nan"), intercept=float("nan"),
                       max_residual=float("nan"), degenerate=True)
        return cls(*lstsq_loglog(xs, ys))
