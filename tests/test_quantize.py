import numpy as np
import pytest

from latscat.geometry import make_bump_pair
from latscat.model import Box, LatticeHamiltonian, LinearMap, Potential, compose_maps
from latscat.quantize import (NormConvergenceError, ResolutionError, fourier_multiplier, op_h,
                              operator_norm, position_weight)
from latscat.symbols import Symbol, separable_symbol
from latscat.util import lstsq_loglog


@pytest.fixture()
def box():
    return Box(1, 24)


@pytest.fixture()
def vec(box, rng):
    u = rng.standard_normal(box.site_count) + 1j * rng.standard_normal(box.site_count)
    return u / np.linalg.norm(u)


def test_multiplier_identity(box, vec):
    A = fourier_multiplier(lambda xi: np.ones(np.shape(xi)[:-1]), box)
    assert np.linalg.norm(A(vec) - vec) <= 1e-13


def test_multiplier_matches_hamiltonian(box, vec, stencil1d):
    A = fourier_multiplier(stencil1d.p0, box)
    H = LatticeHamiltonian(stencil1d, Potential(), box)
    diff = np.abs(A(vec) - H(vec))
    assert np.max(diff[1:-1]) <= 1e-12
    n = box.sites()[:, 0]
    xi0 = 2 * np.pi * 5 / box.n_per_axis
    pw = np.exp(1j * xi0 * n)
    assert np.linalg.norm(A(pw) - stencil1d.p0([xi0]) * pw) <= 1e-12 * np.linalg.norm(pw)


def test_multiplier_shift_convention(box, vec):
    # mode label xi tags e^{+i n xi}, so e^{i xi} translates along +n
    # (the flow-geometry convention; see the decisions notes)
    A = fourier_multiplier(lambda xi: np.exp(1j * xi[..., 0]), box)
    assert np.linalg.norm(A(vec) - np.roll(vec, -1)) <= 1e-12


def test_position_weight(box, vec):
    assert np.linalg.norm(position_weight(0.0, box)(vec) - vec) == 0.0
    box2 = Box(2, 5)
    W = position_weight(-2.0, box2)
    e = np.zeros(box2.site_count)
    e[box2.index_of([3, 4])] = 1.0
    assert W(e)[box2.index_of([3, 4])] == pytest.approx(1.0 / 26.0)
    comp = compose_maps(position_weight(1.3, box), position_weight(-1.3, box))
    assert np.linalg.norm(comp(vec) - vec) <= 1e-13


def test_op_h_identity_and_multiplier(box, vec, stencil1d):
    ones = lambda pts: np.ones(np.shape(pts)[:-1])
    A = op_h(separable_symbol(1, ones, ones), 0.5, box)
    assert np.linalg.norm(A(vec) - vec) <= 1e-13
    c = stencil1d.p0
    A1 = op_h(separable_symbol(1, ones, c), 0.25, box)
    A2 = fourier_multiplier(c, box)
    assert np.linalg.norm(A1(vec) - A2(vec)) <= 1e-13


def test_op_h_position_only(box):
    b = lambda x: np.exp(-np.asarray(x)[..., 0] ** 2)
    sym = separable_symbol(1, b, lambda xi: np.ones(np.shape(xi)[:-1]))
    h = 0.25
    A = op_h(sym, h, box)
    e = np.zeros(box.site_count)
    n0 = 7
    e[box.index_of([n0])] = 1.0
    out = A(e)
    assert out[box.index_of([n0])] == pytest.approx(b(np.array([h * n0])))
    out[box.index_of([n0])] = 0.0
    assert np.max(np.abs(out)) <= 1e-14


def test_op_h_general_vs_separable(box, vec, verify_adjoint):
    b = lambda x: np.exp(-0.5 * np.asarray(x)[..., 0] ** 2)
    c = lambda xi: np.exp(1j * np.sin(np.asarray(xi)[..., 0]))
    A_sep = op_h(separable_symbol(1, b, c), 0.5, box)
    A_gen = op_h(Symbol(dim=1, eval=lambda x, xi: b(x) * c(xi)), 0.5, box)
    assert np.linalg.norm(A_sep(vec) - A_gen(vec)) <= 1e-12
    assert verify_adjoint(A_sep) <= 1e-11
    assert verify_adjoint(A_gen) <= 1e-11


def test_op_h_rejects_scalar_layout_symbols(box):
    # factors written for bare d = 1 scalars return (N, 1) on (N, 1) points;
    # without the shape check bv * mult(u) would broadcast into an N x N array
    old_b = lambda x: np.exp(-np.asarray(x) ** 2)
    ones_x = lambda x: np.ones(np.shape(x)[:-1])
    ones_xi = lambda xi: np.ones(np.shape(xi)[:-1])
    with pytest.raises(ValueError, match=r"x_part returned shape \(49, 1\), expected \(49,\)"):
        op_h(separable_symbol(1, old_b, ones_xi), 0.5, box)
    with pytest.raises(ValueError, match=r"xi_part returned shape \(49, 1\), expected \(49,\)"):
        op_h(separable_symbol(1, ones_x, lambda xi: np.cos(np.asarray(xi))), 0.5, box)
    with pytest.raises(ValueError, match=r"symbol returned shape \(49, 49, 1\), "
                                         r"expected \(49, 49\)"):
        op_h(Symbol(dim=1, eval=lambda x, xi: np.cos(x) * np.sin(xi)), 0.5, box)


def test_op_h_resolution_guard():
    # a delta2 = 0.05 bump cannot be resolved on a 65-point momentum grid
    small = Box(1, 32)
    a1, _ = make_bump_pair((0.0, np.pi / 2), (0.0, 0.0), 1.0, 0.05)
    with pytest.raises(ResolutionError):
        op_h(a1, 0.5, small)
    # warn-level tail on a large grid
    big = Box(1, 1024)
    a2, _ = make_bump_pair((0.0, np.pi / 2), (0.0, 0.0), 1.0, 0.3)
    with pytest.warns(RuntimeWarning, match="tail"):
        op_h(a2, 0.5, big)


def test_operator_norm_examples(box):
    W = position_weight(-2.0, Box(1, 10))
    assert operator_norm(W, tol=1e-3) == pytest.approx(1.0, rel=1e-3)
    A = LinearMap(box.site_count, lambda u: 3.0 * u, lambda u: 3.0 * u, hermitian=True)
    assert operator_norm(A, tol=1e-3) == pytest.approx(3.0, rel=1e-3)
    zero = LinearMap(box.site_count, np.zeros_like, np.zeros_like, hermitian=True)
    assert operator_norm(zero) == 0.0


def test_operator_norm_against_dense_svd(to_dense):
    # dense SVD oracle on a small box
    box = Box(1, 30)
    b = lambda x: (np.exp(-np.asarray(x)[..., 0] ** 2)
                   * (1 + 0.5 * np.sin(3 * np.asarray(x)[..., 0])))
    sym = separable_symbol(1, b, lambda xi: np.ones(np.shape(xi)[:-1]))
    A = op_h(sym, 0.125, box)
    sigma = operator_norm(A, tol=5e-3)
    oracle = np.linalg.svd(to_dense(A), compute_uv=False)[0]
    assert sigma == pytest.approx(oracle, rel=6e-3)
    assert oracle == pytest.approx(np.max(np.abs(b(0.125 * box.sites()))), rel=1e-10)


def test_operator_norm_nonconvergence():
    box = Box(1, 40)
    diag = np.linspace(0.5, 1.0, box.site_count)  # crowded top of spectrum
    A = LinearMap(box.site_count, lambda u: diag * u, lambda u: diag * u, hermitian=True)
    with pytest.raises(NormConvergenceError) as exc:
        operator_norm(A, tol=1e-3, max_iter=4)
    assert exc.value.last_estimate > 0


def test_disjoint_support_composition_decay():
    # bumps separated in x at scale h: composition norm decays fast in h
    # (delta2 = 1.0 keeps the momentum factor resolvable over the h range)
    box = Box(1, 1024)
    a, b = make_bump_pair((-1.0, np.pi / 2), (1.0, np.pi / 2), 0.3, 1.0)
    hs = [2.0 ** (-k) for k in range(3, 8)]
    norms = []
    for h in hs:
        M = compose_maps(op_h(a, h, box), op_h(b, h, box))
        norms.append(operator_norm(M, tol=1e-2, max_iter=800))
    slope, _, _ = lstsq_loglog(hs, norms)
    assert slope >= 3.0


def test_left_vs_right_quantization_order_h():
    # left and right quantizations of a real S^0 symbol differ at O(h)
    box = Box(1, 512)
    b = lambda x: np.exp(-np.asarray(x)[..., 0] ** 2)
    c = lambda xi: 1.0 + 0.5 * np.cos(np.asarray(xi)[..., 0])
    sym = separable_symbol(1, b, c)
    hs = [2.0 ** (-k) for k in range(3, 8)]
    norms = []
    for h in hs:
        A = op_h(sym, h, box)
        diff = LinearMap(box.site_count, lambda u, A=A: A(u) - A.adjoint_apply(u),
                         lambda u, A=A: A.adjoint_apply(u) - A(u))
        norms.append(operator_norm(diff, tol=1e-2, max_iter=800))
    slope, _, _ = lstsq_loglog(hs, norms)
    assert slope >= 0.9
