import dataclasses

import numpy as np
import pytest

from latscat.escape import (CutoffPhi, EscapeLadder, LadderInvariantError,
                            build_psi0, build_psi_j, energy_inequality_check, monotonicity_check,
                            periodic_dense_h, verify_transport, _escape_F)
from latscat.geometry import make_bump_pair
from latscat.model import Box


@pytest.fixture()
def ladder(stencil1d):
    return EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                        delta2=0.2, h=0.125, depth=2)


def test_phi_contract():
    phi = CutoffPhi()
    assert phi.validate()
    assert phi(0.0) == 1.0 and phi(0.5) == 1.0
    assert phi(1.0) == 0.0 and phi(1.5) == 0.0
    assert 0.0 < phi(0.75) < 1.0
    s = np.linspace(0, 2, 4001)
    psi_d = phi.psi_derivative(s)
    assert np.all(psi_d <= 1e-12)
    # analytic derivative matches finite differences
    mid = np.linspace(0.05, 1.95, 500)
    fd = (phi(mid + 1e-6) - phi(mid - 1e-6)) / 2e-6
    assert np.max(np.abs(fd - phi.derivative(mid))) <= 1e-5


def test_ladder_invariants(stencil1d):
    lad = EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                       delta2=0.2, h=0.125, depth=2)
    assert lad.gammas == (1.5, 1.75)
    # nesting radii strictly increase with j
    assert lad.ell(1.0, 0) < lad.ell(1.0, 1) < lad.ell(1.0, 2)
    with pytest.raises(LadderInvariantError, match="separation"):
        EscapeLadder(stencil=stencil1d, x2=0.1, xi2=np.pi / 2, delta1=0.2,
                     delta2=0.2, h=0.125)
    with pytest.raises(LadderInvariantError, match="pinning"):
        EscapeLadder(stencil=stencil1d, x2=10.0, xi2=np.pi / 2, delta1=0.2,
                     delta2=1.5, h=0.125)
    with pytest.raises(LadderInvariantError, match="gamma"):
        EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                     delta2=0.2, h=0.125, depth=2, gammas=(1.7, 1.5))


def test_psi0_values(ladder):
    t = 2.0
    sym = build_psi0(ladder, t)
    y = ladder.y(t)
    assert sym(np.array([y]), np.array([ladder.xi2])) == pytest.approx(1.0)
    r = ladder.ell(t)
    assert sym(np.array([y + 1.01 * r]), np.array([ladder.xi2])) == 0.0
    # t = 0 equals the squared symbol bump a2(h x, xi)^2 (both use the default ramp)
    sym0 = build_psi0(ladder, 0.0)
    _, a2 = make_bump_pair((0.0, 0.0), (ladder.x2, ladder.xi2), ladder.delta1, ladder.delta2)
    x = np.linspace(ladder.y(0.0) - 2 * ladder.ell(0.0), ladder.y(0.0) + 2 * ladder.ell(0.0), 101)
    xi = np.full_like(x, ladder.xi2 - 0.1)
    assert np.allclose(sym0(x[:, None], xi[:, None]),
                       np.asarray(a2(ladder.h * x[:, None], xi[:, None])) ** 2, atol=1e-13)


def test_psi_j_prefactor_and_support(ladder):
    sym0 = build_psi_j(ladder, 1, 0.0)
    x = np.linspace(0, 60, 301)
    assert np.max(np.abs(sym0(x[:, None], np.full_like(x, ladder.xi2)[:, None]))) == 0.0
    # prefactor limit t -> infinity is C_j h^(j mu)
    big = float(ladder.prefactor(1, 1e9))
    assert big == pytest.approx(1.0 * ladder.h**ladder.mu, rel=1e-6)
    # support radius example: gamma_1 = 1.5, delta1 = 0.2, h = 1/8, t = 8
    assert ladder.ell(8.0, 1) == pytest.approx(1.5 * 0.2 * 16.0)


def test_transport_passes(ladder):
    for j in (0, 1, 2):
        rep = verify_transport(ladder, j)
        assert rep.passed, f"j={j}: min {rep.min_value}"
        assert rep.fd_agreement <= 1e-6


def test_transport_negative_control(stencil1d):
    bad = EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                       delta2=2.0, h=0.125, depth=0, validate=False)
    rep = verify_transport(bad, 0)
    assert rep.min_value < -1e-6
    assert not rep.passed


def test_transport_vanishes_off_support(ladder):
    from latscat.escape import _transport_fields
    t = 1.0
    x = ladder.y(t) + np.linspace(1.1, 3.0, 40) * ladder.ell(t, 0)
    xi = ladder.xi2 + np.linspace(-0.5, 0.5, 41)
    tr, bound = _transport_fields(ladder, 0, t, x, xi)
    assert np.max(np.abs(tr)) == 0.0 and np.max(np.abs(bound)) == 0.0


@pytest.fixture()
def energy_ladder(stencil1d):
    # delta1 = 1/3 makes the separation invariant t-uniform (coefficient
    # 1 - 3 delta1 = 0); supports stay inside the L = 48 box at h = 1/16
    return EscapeLadder(stencil=stencil1d, x2=1.2, xi2=np.pi / 2, delta1=1.0 / 3.0,
                        delta2=0.28, h=0.125, depth=0, mu=1.0,
                        t_grid=(0.0, 0.5, 2.0, 8.0))


def test_energy_f0_is_squared_bump(free_model, energy_ladder):
    # F(0) = |Op^h(a2)|^2 exactly for the squared-cutoff escape function
    box = Box(1, 48)
    F0 = _escape_F(energy_ladder, 0.0, box)
    from latscat.escape import _dense_op
    from latscat.symbols import separable_symbol
    h = energy_ladder.h
    _, a2 = make_bump_pair((0.0, 0.0), (energy_ladder.x2, energy_ladder.xi2),
                           energy_ladder.delta1, energy_ladder.delta2)
    scaled = separable_symbol(1, lambda x: np.asarray(a2.x_part(h * np.asarray(x))),
                              a2.xi_part)
    Q = _dense_op(scaled, box)
    ref = Q.conj().T @ Q
    assert np.linalg.norm(F0 - ref, 2) <= 1e-12


def test_energy_inequality_and_monotonicity(free_model, energy_ladder):
    rep = energy_inequality_check(free_model, energy_ladder, t_samples=(0.5, 2.0, 8.0),
                                  N_target=1.0, h_list=(0.25, 0.125, 0.0625),
                                  box_radius=48)
    assert rep.exponent >= rep.threshold == 1.5
    assert all(v >= 0 for v in rep.defects.values())
    mono = monotonicity_check(free_model, energy_ladder, (1.0, 5.0, 20.0),
                              energy_report=rep, box_radius=64)
    assert mono.passed
    # t = 0 is exact equality
    mono0 = monotonicity_check(free_model, energy_ladder, (0.0,), energy_report=rep,
                               box_radius=48)
    assert abs(mono0.margins[0.0]) <= 1e-12


def test_monotonicity_sabotage_fails(free_model, stencil1d, energy_ladder):
    class PhiBad(CutoffPhi):
        def __call__(self, s):
            s = np.asarray(s, dtype=float)
            out = np.asarray(super().__call__(s)) + 0.6 * np.exp(-((s - 0.75) / 0.15) ** 2)
            return out if out.ndim else float(out)

    bad = dataclasses.replace(energy_ladder, phi=PhiBad(), validate=False)
    mono = monotonicity_check(free_model, bad, (1.0, 2.0), box_radius=48)
    assert min(mono.margins.values()) < -1e-3
    assert not mono.passed
    good = monotonicity_check(free_model, energy_ladder, (1.0, 2.0), box_radius=48)
    assert min(good.margins.values()) > -1e-4


def test_disjoint_region_operator_smallness(free_model, energy_ladder):
    # || Op^h(a1) F(t) || is suppressed when a1 sits away from the moving tube
    # and improves as h shrinks. Values frozen from the dense oracle; the
    # slow Phi tails keep the desk-scale trend below the nominal h^2 (see
    # the decisions notes), so the suppression levels are pinned instead.
    from latscat.escape import _dense_op
    from latscat.symbols import separable_symbol
    norms = {}
    for h in (0.25, 0.125, 0.0625):
        box = Box(1, int(24 / h))
        lad = dataclasses.replace(energy_ladder, h=h)
        a1, _ = make_bump_pair((-10.0, np.pi / 2), (0.0, 0.0), 0.5, 0.6)
        scaled = separable_symbol(1, lambda x, h=h: np.asarray(a1.x_part(h * np.asarray(x))),
                                  a1.xi_part)
        A1 = _dense_op(scaled, box)
        worst = 0.0
        for t in (0.5, 2.0):
            F = _escape_F(lad, t, box)
            worst = max(worst, np.linalg.norm(A1 @ F, 2))
        norms[h] = worst
    # frozen oracle: 1.94e-3, 1.66e-4, 1.37e-4 against ||F|| = O(1)
    assert norms[0.25] <= 4e-3
    assert norms[0.125] <= 4e-4
    assert norms[0.0625] <= 3e-4
    assert norms[0.0625] < norms[0.25]


def test_ladder_sum_class_bounds(energy_ladder, stencil1d):
    # sup |psi| and the scaled gradient stay bounded across (h, t)
    lad = dataclasses.replace(energy_ladder, depth=2)
    phi = lad.phi
    eps = 1e-6
    for h in (0.25, 0.125):
        ladh = dataclasses.replace(lad, h=h)
        C_bound = 1.0 + sum(1.0 * h ** (j * lad.mu) for j in (1, 2))
        for t in (0.0, 1.0, 4.0, 16.0):
            y, ell = ladh.y(t), ladh.ell(t, 2)
            x = np.linspace(y - 1.2 * ell, y + 1.2 * ell, 257)
            xi = np.full_like(x, ladh.xi2 + 0.05)[:, None]
            tot = np.zeros_like(x)
            grad = np.zeros_like(x)
            for j in range(0, 3):
                sym = build_psi0(ladh, t) if j == 0 else build_psi_j(ladh, j, t)
                tot += np.asarray(sym(x[:, None], xi)).real
                grad += (np.asarray(sym((x + eps)[:, None], xi)).real
                         - np.asarray(sym((x - eps)[:, None], xi)).real) / (2 * eps)
            assert np.max(np.abs(tot)) <= C_bound + 1e-9
            scaled = (1.0 / h + t) * np.abs(grad)
            # |d_x Psi| <= sup|Psi'| / (delta1 (1/h + t)) per factor
            cap = C_bound * np.max(np.abs(phi.psi_derivative(np.linspace(0, 1, 1001)))) / lad.delta1
            assert np.max(scaled) <= cap + 1e-9


def test_zeta_support_disjoint_from_ladder(energy_ladder):
    # zeta(t,x,xi) = Psi(2|x|/(delta1(1/h+t))) chi(xi) never meets the tube
    lad = energy_ladder
    phi = lad.phi
    for t in (0.0, 1.0, 4.0, 16.0):
        scale = lad.delta1 * (1.0 / lad.h + t)
        x = np.linspace(-3 * scale, 3 * scale + lad.y(t) + 3 * scale, 801)
        zeta = np.asarray(phi.psi(2.0 * np.abs(x) / scale))
        psi0 = np.asarray(build_psi0(lad, t)(x[:, None], np.full_like(x, lad.xi2)[:, None]))
        assert np.max(zeta * psi0) == 0.0
        # supports separated: zeta lives in |x| <= scale/2, tube starts at 3 scale
        assert np.max(np.abs(x[zeta > 0])) <= scale / 2 + 1e-9


def test_periodic_dense_h_matches_band(free_model):
    box = Box(1, 32)
    H = periodic_dense_h(free_model, box)
    assert np.linalg.norm(H - H.conj().T, 2) <= 1e-13
    evs = np.linalg.eigvalsh(H)
    assert evs[0] >= -1e-12 and evs[-1] <= 2.0 + 1e-12


def test_psi0_support_sandwich(energy_ladder):
    # on supp psi0: 2 delta1 (1/h + t) <= |x| <= C (1/h + t), C recorded
    lad = energy_ladder
    C_rec = 0.0
    for t in (0.0, 1.0, 4.0, 16.0):
        scale = 1.0 / lad.h + t
        y, ell = lad.y(t), lad.ell(t)
        x = np.linspace(y - 1.5 * ell, y + 1.5 * ell, 2001)
        vals = np.asarray(build_psi0(lad, t)(x[:, None], np.full_like(x, lad.xi2)[:, None]))
        on = vals > 0
        assert np.min(np.abs(x[on])) >= 2.0 * lad.delta1 * scale - 1e-9
        C_rec = max(C_rec, np.max(np.abs(x[on])) / scale)
    assert np.isfinite(C_rec) and C_rec > 0
