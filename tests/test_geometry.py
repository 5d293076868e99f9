import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat.geometry import KernelPoint, classify, make_bump_pair, make_cone_symbol, shell_points
from latscat.model import CriticalValueError, EmptyShellError, Stencil, laplacian_stencil
from latscat.symbols import EnergyCutoff


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


def test_shell_points_bandwidth2_four_points():
    # p0 = (1 - cos xi) + beta (1 - cos 2 xi), beta = 0.5: v = sin xi (1 + 2 cos xi)
    # has an interior critical value 2.25 at 2 pi / 3, so the shell at 2.12
    # has four points, two of them with v pointing against sign(pi - xi)
    beta = 0.5
    st2 = Stencil(dim=1, offsets=((0,), (1,), (-1,), (2,), (-2,)),
                  coeffs=(1.0 + beta, -0.5, -0.5, -beta / 2, -beta / 2))
    pts = shell_points(st2, 2.12)
    want = np.array([1.7107, 2.6072, 3.6760, 4.5725])
    nearest = np.argmin(np.abs(pts - want), axis=1)
    assert np.all(np.abs(pts[:, 0] - want[nearest]) < 1e-4)
    assert set(nearest) == {0, 1, 2, 3}
    v = st2.gradient(pts)[:, 0]
    assert np.allclose(v, np.array([0.714, -0.367, 0.367, -0.714])[nearest], atol=1e-3)
    assert np.max(np.abs(st2.p0(pts) - 2.12)) < 1e-9


def test_classify_d2_diagonal_on_shell():
    st2 = laplacian_stencil(2)
    x, xi = np.array([1.0, 0.5]), np.array([np.pi / 2, np.pi / 3])
    rep = classify(KernelPoint(x, xi, -x, xi), st2, 1.5, tol=0.5)
    assert rep.in_sigma0 and rep.distances["sigma0"] == 0.0
    assert rep.distances["sigma_prime_plus"] == pytest.approx(1.1499, abs=1e-4)
    assert rep.distances["sigma_prime_minus"] == pytest.approx(1.1499, abs=1e-4)


def test_bump_pair_values():
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.0, 0.0), 0.5, 0.4)
    assert a1(np.array([2.0]), np.array([np.pi / 2])) == pytest.approx(1.0)
    assert a1(np.array([2.5]), np.array([np.pi / 2])) == 0.0
    assert a1(np.array([2.25]), np.array([np.pi / 2])) == pytest.approx(1.0)  # half radius
    assert a1(np.array([2.0]), np.array([np.pi / 2 + 0.2])) == pytest.approx(1.0)
    assert a2(np.array([-1.0]), np.array([0.0])) == pytest.approx(1.0)
    # the support is the ball of the radii passed in: positive inside, zero at them
    assert a1(np.array([2.49]), np.array([np.pi / 2])) > 0.0
    assert a1(np.array([2.0]), np.array([np.pi / 2 + 0.39])) > 0.0
    assert a1(np.array([2.0]), np.array([np.pi / 2 + 0.4])) == 0.0


def test_cone_symbol_support(stencil1d):
    # r_out = 100: Phi(|x|/r_out) = 1 for |x| <= 50, beyond every sampled |x|
    a = make_cone_symbol(+1, EnergyCutoff(1.0, 0.15), 1.0, stencil1d, r_out=100.0)
    # x v < 0 region vanishes (xi = pi/2 has v = 1)
    assert a(np.array([-5.0]), np.array([np.pi / 2])) == 0.0
    assert a(np.array([5.0]), np.array([np.pi / 2])) > 0.0
    a2 = make_cone_symbol(+1, EnergyCutoff(1.0, 0.15), 1.0, stencil1d, r_out=100.0)
    assert a2(np.array([10.0]), np.array([np.pi / 2])) > 0.0
    assert a2(np.array([0.4]), np.array([np.pi / 2])) == 0.0  # |x| < r0/2
    # off-window momenta vanish
    assert a2(np.array([10.0]), np.array([0.1])) == 0.0
    with pytest.raises(CriticalValueError):
        make_cone_symbol(+1, EnergyCutoff(0.0, 0.05), 1.0, stencil1d, r_out=100.0)


def test_cone_symbol_minus_side(stencil1d):
    a = make_cone_symbol(-1, EnergyCutoff(1.0, 0.15), 1.0, stencil1d, r_out=100.0)
    # support in the incoming region x v < 0
    assert a(np.array([-5.0]), np.array([np.pi / 2])) > 0.0
    assert a(np.array([5.0]), np.array([np.pi / 2])) == 0.0


def test_kernel_point_reduces_torus():
    kp = KernelPoint(1.0, -np.pi / 2, 2.0, 5 * np.pi / 2)
    assert 0 <= kp.xi[0] < 2 * np.pi
    assert kp.eta[0] == pytest.approx(np.pi / 2)
