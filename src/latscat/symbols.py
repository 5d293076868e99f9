"""Phase-space symbols a(x, xi) on R^d x T^d."""

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
