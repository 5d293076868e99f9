"""Phase-space symbols a(x, xi) on R^d x T^d with support metadata."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class SupportMeta:
    """Ball-shaped numerical support: |x - x_center| <= x_radius and
    torus_distance(xi, xi_center) <= xi_radius."""

    x_center: np.ndarray
    x_radius: float
    xi_center: np.ndarray
    xi_radius: float


@dataclass
class Symbol:
    """A function a(x, xi), x in R^d, xi in T^d.

    eval, x_part and xi_part take points of shape (..., d), d = 1 included,
    broadcast over the leading axes, and return an array of the leading
    shape; calling the symbol with points whose last axis is not d raises
    ValueError. Separable symbols a(x, xi) = b(x) c(xi) carry their factors so
    quantization can use the fast multiplier path.
    """

    dim: int
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support_meta: Optional[SupportMeta] = None
    x_part: Optional[Callable[[np.ndarray], np.ndarray]] = None
    xi_part: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @property
    def separable(self) -> bool:
        return self.x_part is not None and self.xi_part is not None

    def __call__(self, x, xi):
        for name, pts in (("x", x), ("xi", xi)):
            if np.shape(pts)[-1:] != (self.dim,):
                raise ValueError(f"symbol got {name} of shape {np.shape(pts)}; points are "
                                 f"(..., {self.dim}) arrays, d = 1 included")
        return self.eval(x, xi)


def separable_symbol(dim, b, c, support_meta=None):
    """Symbol a(x, xi) = b(x) c(xi)."""

    def ev(x, xi):
        return np.asarray(b(x)) * np.asarray(c(xi))

    return Symbol(dim=dim, eval=ev, support_meta=support_meta, x_part=b, xi_part=c)

