import dataclasses

import numpy as np
import pytest

from latscat.geometry import make_bump_pair
from latscat.symbols import Symbol, separable_symbol
from latscat.util import torus_distance


def check_bounded(symbol: Symbol, x_samples, xi_samples, bound=None):
    """Grid check that a symbol is finite (and below `bound`) on samples of
    shape (..., d); returns max |a|."""
    vals = symbol(x_samples, xi_samples)
    if not np.all(np.isfinite(vals)):
        raise ValueError("symbol evaluates non-finite on sample grid")
    m = float(np.max(np.abs(vals)))
    if bound is not None and m > bound:
        raise ValueError(f"symbol exceeds recorded bound: {m} > {bound}")
    return m


def check_support(symbol: Symbol, x_samples, xi_samples, tol=1e-14):
    """Grid check that |a| < tol outside support_meta (if present) on samples
    of shape (..., d)."""
    meta = symbol.support_meta
    if meta is None:
        return True
    x = np.asarray(x_samples, dtype=float)
    xi = np.asarray(xi_samples, dtype=float)
    dx = np.linalg.norm(x - np.asarray(meta.x_center), axis=-1)
    dxi = torus_distance(xi, np.asarray(meta.xi_center))
    outside = (dx > meta.x_radius) | (dxi > meta.xi_radius)
    vals = np.abs(symbol(x, xi))
    return bool(np.all(vals[outside] < tol)) if np.any(outside) else True


def test_bounded_check():
    a, _ = make_bump_pair((0.0, np.pi), (1.0, 0.0), 0.5, 0.5)
    x = np.linspace(-3, 3, 201)[:, None]
    xi = np.linspace(0, 2 * np.pi, 201)[:, None]
    m = check_bounded(a, x, xi, bound=1.0 + 1e-12)
    assert 0.0 <= m <= 1.0
    def inv(x):
        with np.errstate(divide="ignore"):
            return 1.0 / np.asarray(x)[..., 0]

    bad = separable_symbol(1, inv, lambda xi: np.ones(np.shape(xi)[:-1]))
    with pytest.raises(ValueError, match="finite"):
        check_bounded(bad, np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))


def _phase_plane(n):
    """An n x n (x, xi) grid as two (n, n, 1) arrays of d = 1 points."""
    x, xi = np.meshgrid(np.linspace(-6, 6, n), np.linspace(0, 2 * np.pi, n), indexing="ij")
    return x[..., None], xi[..., None]


def test_support_meta_is_honest():
    a, b = make_bump_pair((2.0, np.pi / 2), (-1.0, 0.0), 0.4, 0.3)
    x, xi = _phase_plane(401)
    assert check_support(a, x, xi)
    assert check_support(b, x, xi)


def test_support_check_catches_moved_centre():
    # the grid meets the bump, so an honest pass is not vacuous and metadata
    # whose centre misses the bump fails
    a, _ = make_bump_pair((2.0, np.pi / 2), (-1.0, 0.0), 0.4, 0.3)
    x, xi = _phase_plane(101)
    assert np.max(a(x, xi)) == 1.0
    assert check_support(a, x, xi)
    moved = dataclasses.replace(a.support_meta, x_center=np.array([3.0]))
    assert not check_support(dataclasses.replace(a, support_meta=moved), x, xi)
    moved = dataclasses.replace(a.support_meta, xi_center=np.array([np.pi]))
    assert not check_support(dataclasses.replace(a, support_meta=moved), x, xi)


def test_separable_flag():
    a, _ = make_bump_pair((0.0, 0.0), (1.0, 1.0), 0.5, 0.5)
    assert a.separable
    g = Symbol(dim=1, eval=lambda x, xi: np.cos(np.asarray(x)[..., 0])
               * np.sin(np.asarray(xi)[..., 0]))
    assert not g.separable


def test_symbol_rejects_points_without_coordinate_axis():
    # a plain (n,) array is n scalars, not n points of R^1: a d = 1 symbol
    # reading x[..., 0] would see only x[0] and return one 0-d value
    a, _ = make_bump_pair((0.0, np.pi / 2), (1.0, 0.0), 0.5, 0.5)
    x = np.linspace(-1.0, 1.0, 9)
    xi = np.full_like(x, np.pi / 2)
    assert a(x[:, None], xi[:, None]).shape == (9,)
    for args in ((x, xi), (x[:, None], xi), (x, xi[:, None]), (0.0, np.pi / 2)):
        with pytest.raises(ValueError, match=r"points are \(\.\.\., 1\) arrays"):
            a(*args)
    with pytest.raises(ValueError, match="points are"):
        check_support(a, x, xi)
    with pytest.raises(ValueError, match="points are"):
        check_bounded(a, x, xi)
