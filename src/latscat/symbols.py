"""Phase-space symbols a(x, xi) on R^d x T^d."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Symbol:
    """A function a(x, xi), x in R^d, xi in T^d.

    eval and the factors in `terms` take points of shape (..., d), d = 1
    included, broadcast over the leading axes, and return an array of the
    leading shape; calling the symbol with points whose last axis is not d
    raises ValueError. A separable symbol a(x, xi) = sum_j b_j(x) c_j(xi)
    carries its (b_j, c_j) pairs in `terms`, so quantization applies it as a
    sum of Fourier multipliers; a symbol without terms is general.
    """

    dim: int
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    terms: tuple = ()

    @property
    def separable(self) -> bool:
        return bool(self.terms)

    def __call__(self, x, xi):
        for name, pts in (("x", x), ("xi", xi)):
            if np.shape(pts)[-1:] != (self.dim,):
                raise ValueError(f"symbol got {name} of shape {np.shape(pts)}; points are "
                                 f"(..., {self.dim}) arrays, d = 1 included")
        return self.eval(x, xi)


def separable_symbol(dim, b, c):
    """Symbol a(x, xi) = b(x) c(xi), the one-term separable case."""

    def ev(x, xi):
        return np.asarray(b(x)) * np.asarray(c(xi))

    return Symbol(dim=dim, eval=ev, terms=((b, c),))
