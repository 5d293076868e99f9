import numpy as np
import pytest

from latscat.geometry import make_bump_pair, make_cone_symbol
from latscat.model import (Box, LatticeHamiltonian, LinearMap, Potential, compose_maps,
                           laplacian_stencil)
from latscat.quantize import (NormConvergenceError, ResolutionError, finite_rank_pair,
                              fourier_multiplier, op_h, operator_norm, position_weight)
from latscat.symbols import DEFAULT_PHI, separable_symbol
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


def test_op_h_general_vs_separable(box, vec, verify_adjoint, dense_kernel):
    # the multiplier path against the sampled kernel of the pointwise symbol
    b = lambda x: np.exp(-0.5 * np.asarray(x)[..., 0] ** 2)
    c = lambda xi: np.exp(1j * np.sin(np.asarray(xi)[..., 0]))
    A = op_h(separable_symbol(1, b, c), 0.5, box)
    M = dense_kernel(lambda x, xi: b(x) * c(xi), 0.5, box)
    assert np.linalg.norm(A(vec) - M @ vec) <= 1e-12
    assert np.linalg.norm(A.adjoint_apply(vec) - M.conj().T @ vec) <= 1e-12
    assert verify_adjoint(A) <= 1e-11


def _cone_by_cosine(sign, gamma, window, r0, r_out, stencil):
    """The cone of make_cone_symbol from its definition,
    radial(|x|) energy(p0(xi)) angle(cos) with cos the cosine between x and
    v(xi), evaluated pointwise."""
    mid, hw = 0.5 * (window[0] + window[1]), 0.5 * (window[1] - window[0])
    gcut = 0.5 * (1.0 - sign * gamma)

    def a(x, xi):
        absx = np.linalg.norm(x, axis=-1)
        radial = (1.0 - DEFAULT_PHI(absx / (2.0 * r0))) * DEFAULT_PHI(absx / r_out)
        v = stencil.gradient(xi)
        denom = absx * np.linalg.norm(v, axis=-1)
        dot = np.einsum("...i,...i->...", x, v)
        cosang = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
        angle = DEFAULT_PHI(np.maximum((sign * gamma + gcut - sign * cosang) / gcut, 0.0))
        return radial * DEFAULT_PHI(np.abs(stencil.p0(xi) - mid) / hw) * angle

    return a


# apertures from wide to narrow, on both sides
@pytest.mark.parametrize("sign, gamma", [(s, g) for s in (+1, -1)
                                         for g in (-0.95, -0.4, -0.3, 0.0, 0.3, 0.5, 0.95)])
def test_d1_cone_is_two_multipliers(stencil1d, dense_kernel, sign, gamma):
    # in d = 1, cos(x, v(xi)) = +-1, so every aperture gamma gives the same
    # half-line: the two-term gamma-free symbol is the cosine cone exactly,
    # pointwise and as an operator, forward and adjoint
    a = make_cone_symbol(sign, (0.7, 1.3), 1.0, stencil1d, r_out=100.0)
    ref = _cone_by_cosine(sign, gamma, (0.7, 1.3), 1.0, 100.0, stencil1d)
    assert len(a.terms) == 2
    x, xi = np.meshgrid(np.linspace(-120.0, 120.0, 481), np.linspace(0, 2 * np.pi, 257),
                        indexing="ij")
    x, xi = x[..., None], xi[..., None]
    assert np.max(np.abs(a(x, xi))) > 0.5
    assert np.max(np.abs(a(x, xi) - ref(x, xi))) <= 1e-15
    box = Box(1, 128)
    A = op_h(a, 1.0, box, check_resolution=False)
    M = dense_kernel(ref, 1.0, box)
    g = np.random.default_rng(11)
    u, w = (g.standard_normal(box.site_count) + 1j * g.standard_normal(box.site_count)
            for _ in range(2))
    for fast, ref_v in ((A(u), M @ u), (A.adjoint_apply(w), M.conj().T @ w)):
        assert np.linalg.norm(ref_v) > 0.0
        assert np.linalg.norm(fast - ref_v) <= 1e-12 * np.linalg.norm(ref_v)


def test_make_cone_symbol_refuses_d2():
    # a d = 2 cone is no short sum of (b, c) terms, so it has no quantization
    with pytest.raises(ValueError, match="d = 1 only"):
        make_cone_symbol(+1, (0.7, 1.3), 1.0, laplacian_stencil(2), r_out=14.0)


def test_op_h_rejects_scalar_layout_symbols(box):
    # factors written for bare d = 1 scalars return (N, 1) on (N, 1) points;
    # without the shape check bv * mult(u) would broadcast into an N x N array
    old_b = lambda x: np.exp(-np.asarray(x) ** 2)
    ones_x = lambda x: np.ones(np.shape(x)[:-1])
    ones_xi = lambda xi: np.ones(np.shape(xi)[:-1])
    with pytest.raises(ValueError, match=r"x factor returned shape \(49, 1\), expected \(49,\)"):
        op_h(separable_symbol(1, old_b, ones_xi), 0.5, box)
    with pytest.raises(ValueError, match=r"xi factor returned shape \(49, 1\), expected \(49,\)"):
        op_h(separable_symbol(1, ones_x, lambda xi: np.cos(np.asarray(xi))), 0.5, box)


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


def test_finite_rank_pair_contract():
    # the front end of the wf rows and prop31: the supports and the gram
    # factor of the sampled bumps; it refuses h outside (0, 1], as op_h does
    box = Box(1, 64)
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.5, -np.pi / 2), 0.5, 0.4)
    (b1, c1), (b2, c2), S1, (S2, Z2) = finite_rank_pair(a1, a2, 0.25, box)
    assert np.array_equal(S1, np.nonzero(b1)[0]) and np.array_equal(S2, np.nonzero(b2)[0])
    A2 = op_h(a2, 0.25, box, check_resolution=False)
    rows = np.array([A2(e) for e in np.eye(box.site_count)]).T[S2]
    gram = rows @ rows.conj().T
    assert np.linalg.norm(Z2 @ Z2.conj().T - gram) <= 1e-10 * np.linalg.norm(gram)
    for h in (0.0, 1.5):
        with pytest.raises(ValueError, match="h must"):
            finite_rank_pair(a1, a2, h, box)


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
    with pytest.raises(NormConvergenceError,
                       match=r"no convergence in 4 iterations \(last sigma ~ [1-9]"):
        operator_norm(A, tol=1e-3, max_iter=4)


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
