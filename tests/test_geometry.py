import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat.geometry import (ConeInvariance, KernelPoint, classify,
                              cone_forward_invariance, make_bump_pair,
                              make_cone_symbol, shell_points)
from latscat.model import CriticalValueError, EmptyShellError, laplacian_stencil


LAM = 1.0


def test_classify_on_sigma_plus(stencil1d):
    kp = KernelPoint(5.0, np.pi / 2, -3.0, np.pi / 2)
    rep = classify(kp, stencil1d, LAM, tol=1e-6)
    assert rep.in_sigma_plus
    assert not rep.in_sigma0
    assert rep.distances["sigma_plus"] <= 1e-9


def test_classify_on_sigma_prime_plus(stencil1d):
    kp = KernelPoint(2.0, np.pi / 2, -3.0, -np.pi / 2)
    rep = classify(kp, stencil1d, LAM, tol=1e-6)
    assert rep.in_sigma_prime_plus
    assert not rep.in_sigma0
    assert not rep.in_sigma_plus


def test_classify_diagonal_on_shell(stencil1d):
    kp = KernelPoint(1.0, np.pi / 2, -1.0, np.pi / 2)
    rep = classify(kp, stencil1d, LAM, tol=1e-6)
    assert rep.in_sigma0 and rep.in_sigma_plus
    assert rep.distances["sigma0"] <= 1e-12
    assert rep.distances["sigma_plus"] <= 1e-9


def test_classify_grid_doubling_stable(stencil1d):
    kp = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    r1 = classify(kp, stencil1d, LAM, tol=0.5, grid_n=2048)
    r2 = classify(kp, stencil1d, LAM, tol=0.5, grid_n=4096)
    for k in r1.distances:
        assert r1.distances[k] == pytest.approx(r2.distances[k], abs=1e-3)


@given(st.floats(-8, 8), st.floats(0, 2 * np.pi))
@settings(max_examples=40, deadline=None)
def test_diagonal_membership_invariant(x, xi):
    # (x, xi, -x, xi) lies in Sigma_0 for every phase-space point
    st1 = laplacian_stencil(1)
    kp = KernelPoint(x, xi, -x, xi)
    rep = classify(kp, st1, LAM, tol=1e-8, grid_n=512)
    assert rep.distances["sigma0"] <= 1e-12
    assert rep.in_sigma0


def test_membership_monotone_in_tol(stencil1d):
    kp = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    r_small = classify(kp, stencil1d, LAM, tol=0.5)
    r_big = classify(kp, stencil1d, LAM, tol=10.0)
    for name in ("in_sigma0", "in_sigma_plus", "in_sigma_minus",
                 "in_sigma_prime_plus", "in_sigma_prime_minus"):
        assert (not getattr(r_small, name)) or getattr(r_big, name)


def test_shell_points_errors(stencil1d):
    with pytest.raises(EmptyShellError):
        shell_points(stencil1d, 3.0)
    with pytest.raises(CriticalValueError):
        shell_points(stencil1d, 2.0, grid_n=4096)


def test_shell_points_d2():
    st2 = laplacian_stencil(2)
    pts = shell_points(st2, 1.0, grid_n=96)
    assert len(pts) > 0
    assert np.max(np.abs(st2.p0(pts) - 1.0)) < 1e-8


def test_bump_pair_values():
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.0, 0.0), 0.5, 0.4)
    assert a1(np.array([2.0]), np.array([np.pi / 2])) == pytest.approx(1.0)
    assert a1(np.array([2.5]), np.array([np.pi / 2])) == 0.0
    assert a1(np.array([2.25]), np.array([np.pi / 2])) == pytest.approx(1.0)  # half radius
    assert a1(np.array([2.0]), np.array([np.pi / 2 + 0.2])) == pytest.approx(1.0)
    assert a2(np.array([-1.0]), np.array([0.0])) == pytest.approx(1.0)
    meta = a1.support_meta
    assert meta.x_radius == 0.5 and meta.xi_radius == 0.4


def test_cone_symbol_support(stencil1d):
    a = make_cone_symbol(+1, 0.0, (0.7, 1.3), 1.0, stencil1d)
    # x v < 0 region vanishes (xi = pi/2 has v = 1)
    assert a(np.array([-5.0]), np.array([np.pi / 2])) == 0.0
    assert a(np.array([5.0]), np.array([np.pi / 2])) > 0.0
    a2 = make_cone_symbol(+1, 0.5, (0.7, 1.3), 1.0, stencil1d)
    assert a2(np.array([10.0]), np.array([np.pi / 2])) > 0.0
    assert a2(np.array([0.4]), np.array([np.pi / 2])) == 0.0  # |x| < r0/2
    # off-window momenta vanish
    assert a2(np.array([10.0]), np.array([0.1])) == 0.0
    with pytest.raises(CriticalValueError):
        make_cone_symbol(+1, 0.0, (-0.1, 0.1), 1.0, stencil1d)


def test_cone_symbol_minus_side(stencil1d):
    a = make_cone_symbol(-1, -0.3, (0.7, 1.3), 1.0, stencil1d)
    # support in {cos <= -0.3}: incoming region x v < 0
    assert a(np.array([-5.0]), np.array([np.pi / 2])) > 0.0
    assert a(np.array([5.0]), np.array([np.pi / 2])) == 0.0


def test_cone_forward_invariance_examples(stencil1d):
    res = cone_forward_invariance(1.0, np.pi / 2, 0.5, stencil1d, [0.0, 1.0, 7.0])
    assert res == ConeInvariance(holds=True, vacuous=False)
    st2 = laplacian_stencil(2)
    # v(0, pi/2) = (0, 1); x = (1, 0): cos angle 0 >= -0.1
    res2 = cone_forward_invariance([1.0, 0.0], [0.0, np.pi / 2], -0.1, st2, [5.0])
    assert res2.holds and not res2.vacuous
    res3 = cone_forward_invariance([1.0, 0.0], [0.0, np.pi / 2], 0.9, st2, [5.0])
    assert res3.vacuous
    with pytest.raises(ValueError):
        cone_forward_invariance(1.0, np.pi / 2, 0.5, stencil1d, [-1.0])


def test_cone_invariance_random_samples(stencil1d):
    # exact inequality, no tolerance, for samples satisfying the precondition
    st2 = laplacian_stencil(2)
    g = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        x = g.uniform(-5, 5, size=2)
        xi = g.uniform(0, 2 * np.pi, size=2)
        gamma = g.uniform(-0.95, 0.95)
        v = np.array([np.sin(xi[0]), np.sin(xi[1])])
        nv = np.linalg.norm(v)
        if nv < 1e-3 or np.linalg.norm(x) < 1e-6:
            continue
        if np.dot(x, v) < gamma * np.linalg.norm(x) * nv:
            continue
        t_list = g.uniform(0, 20, size=3)
        res = cone_forward_invariance(x, xi, gamma, st2, t_list)
        assert res.holds and not res.vacuous
        checked += 1


def test_kernel_point_reduces_torus():
    kp = KernelPoint(1.0, -np.pi / 2, 2.0, 5 * np.pi / 2)
    assert 0 <= kp.xi[0] < 2 * np.pi
    assert kp.eta[0] == pytest.approx(np.pi / 2)
