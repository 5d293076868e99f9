"""Property tests for the small shared numerics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat.model import Box, LatticeHamiltonian, Potential, laplacian_stencil
from latscat.quantize import fourier_multiplier, op_h, position_weight
from latscat.resolvent import DecayFit
from latscat.symbols import separable_symbol
from latscat.util import angle_diff, lstsq_loglog, reduce_torus, torus_distance

finite = dict(allow_nan=False, allow_infinity=False)


@given(st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=80, deadline=None)
def test_torus_distance_symmetry_and_range(a, b):
    d = torus_distance([a], [b])
    assert 0.0 <= d <= np.pi + 1e-12
    assert d == pytest.approx(torus_distance([b], [a]), abs=1e-12)
    assert torus_distance([a], [a]) == 0.0
    # invariant under 2 pi shifts
    assert d == pytest.approx(torus_distance([a + 2 * np.pi], [b]), abs=1e-9)


@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_torus_triangle_inequality(a, b, c):
    assert torus_distance([a], [c]) <= torus_distance([a], [b]) + torus_distance([b], [c]) + 1e-9


@given(st.floats(-100, 100))
@settings(max_examples=50, deadline=None)
def test_reduce_torus_range(x):
    r = reduce_torus(x)
    assert 0.0 <= r < 2 * np.pi
    assert angle_diff(r, x) <= 1e-9


@given(st.floats(0.2, 5.0), st.floats(-4.0, 4.0),
       st.lists(st.floats(-2.0, -0.1), min_size=4, max_size=8, unique=True))
@settings(max_examples=40, deadline=None)
def test_loglog_fit_recovers_power_laws(c, p, exps):
    xs = np.sort(10.0 ** np.asarray(exps))
    ys = c * xs**p
    slope, intercept, resid = lstsq_loglog(xs, ys)
    assert slope == pytest.approx(p, abs=1e-8)
    assert 10.0**intercept == pytest.approx(c, rel=1e-6)
    assert resid <= 1e-8


@given(st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_position_weight_group_law(s):
    box = Box(1, 16)
    u = np.linspace(1.0, 2.0, box.site_count) + 0.5j
    w = position_weight(s, box)(position_weight(-s, box)(u))
    assert np.allclose(w, u, atol=1e-12)


def test_decay_fit_exact_line():
    fit = DecayFit.from_values([0.5, 0.25, 0.125, 0.0625],
                               [2.0 * h**3.5 for h in (0.5, 0.25, 0.125, 0.0625)])
    assert fit.slope == pytest.approx(3.5, abs=1e-10)
    assert fit.max_residual <= 1e-12


def test_quantize_d2_paths_agree(verify_adjoint, dense_kernel):
    box = Box(2, 6)
    g = np.random.default_rng(5)
    u = g.standard_normal(box.site_count) + 1j * g.standard_normal(box.site_count)

    def b(x):
        x = np.asarray(x)
        return np.exp(-np.sum(x**2, axis=-1))

    def c(xi):
        xi = np.asarray(xi)
        return 1.0 + 0.4 * np.cos(xi[..., 0]) * np.sin(xi[..., 1])

    # the multiplier path against the sampled kernel of the pointwise symbol
    A = op_h(separable_symbol(2, b, c), 0.5, box)
    M = dense_kernel(lambda x, xi: b(x) * c(xi), 0.5, box)
    assert np.linalg.norm(A(u) - M @ u) <= 1e-11 * np.linalg.norm(u)
    assert np.linalg.norm(A.adjoint_apply(u) - M.conj().T @ u) <= 1e-11 * np.linalg.norm(u)
    assert verify_adjoint(A) <= 1e-11


def test_d2_multiplier_diagonalizes_h0():
    st2 = laplacian_stencil(2)
    box = Box(2, 6)
    H = LatticeHamiltonian(st2, Potential(), box)
    A = fourier_multiplier(st2.p0, box)
    n = box.sites()
    for k in ((2, 3), (5, 1)):
        xi0 = 2 * np.pi * np.asarray(k) / box.n_per_axis
        pw = np.exp(1j * (n @ xi0))
        out = A(pw)
        assert np.linalg.norm(out - st2.p0(xi0) * pw) <= 1e-11 * np.linalg.norm(pw)
        # assembled H agrees interior to the band
        inner = np.all(np.abs(n) <= box.radius - 1, axis=1)
        full = H(pw)
        assert np.allclose(full[inner], (st2.p0(xi0) * pw)[inner], atol=1e-12)
