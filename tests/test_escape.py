import dataclasses

import numpy as np
import pytest

from latscat.config import parse_config
from latscat.escape import (TRANSPORT_FLOOR, DerivativeMismatchError, EscapeLadder,
                            LadderInvariantError, build_rung, energy_inequality_check,
                            monotonicity_check, periodic_dense_h, verify_transport, _escape_F,
                            _moving_bump)
from latscat.geometry import make_bump_pair
from latscat.model import Box
from latscat.quantize import fourier_multiplier
from latscat.recipes import recipe_config
from latscat.symbols import CutoffPhi


class BumpedPhi(CutoffPhi):
    """A broken ramp: a Gaussian bump makes Phi' > 0 somewhere, and the
    inherited derivative does not see it."""

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        out = np.asarray(super().__call__(s)) + 0.6 * np.exp(-((s - 0.75) / 0.15) ** 2)
        return out if out.ndim else float(out)


@pytest.fixture()
def ladder(stencil1d):
    return EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                        delta2=0.2, h=0.125, depth=2)


def _validate_phi(phi):
    """Grid check of the CutoffPhi contract; raises ValueError on violation."""
    s = np.linspace(0.0, 2.0, 10_000)
    v = np.asarray(phi(s))
    if not np.allclose(v[s <= 0.5], 1.0, atol=1e-12):
        raise ValueError("Phi != 1 on s <= 1/2")
    if np.any(v[s >= 1.0] != 0.0):
        raise ValueError("Phi != 0 on s >= 1")
    # e^(-k/r) underflows within ~1e-3 of s = 1; positivity is checkable
    # only where the double range reaches
    if np.any(v[s < 1.0 - 1e-3] <= 0.0):
        raise ValueError("Phi not positive on s < 1")
    d = np.asarray(phi.derivative(s))
    if np.any(d > 1e-12):
        raise ValueError("Phi' > 0 somewhere")
    # smoothness proxy: centered FD derivatives up to order 4 stay bounded
    h = 1e-3
    grid = np.linspace(0.05, 1.95, 2_000)
    vals = [np.asarray(phi(grid + j * h)) for j in range(-2, 3)]
    d4 = (vals[0] - 4 * vals[1] + 6 * vals[2] - 4 * vals[3] + vals[4]) / h**4
    if not np.all(np.isfinite(d4)) or np.max(np.abs(d4)) > 1e8:
        raise ValueError("finite-difference 4th derivative unbounded")
    return True


def test_phi_contract():
    phi = CutoffPhi()
    assert _validate_phi(phi)
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
    # gamma_j = 2 - 2^-j: 1, 1.5, 1.75, so the nesting radii strictly increase with j
    for j, gamma in enumerate((1.0, 1.5, 1.75)):
        assert lad.ell(1.0, j) == gamma * lad.delta1 * (1.0 / lad.h + 1.0)
        assert lad.xi_radius(j) == gamma * lad.delta2
    assert lad.ell(1.0, 0) < lad.ell(1.0, 1) < lad.ell(1.0, 2)
    with pytest.raises(LadderInvariantError, match="separation"):
        EscapeLadder(stencil=stencil1d, x2=0.1, xi2=np.pi / 2, delta1=0.2,
                     delta2=0.2, h=0.125)
    with pytest.raises(LadderInvariantError, match="pinning"):
        EscapeLadder(stencil=stencil1d, x2=10.0, xi2=np.pi / 2, delta1=0.2,
                     delta2=1.5, h=0.125)
    # a negative depth leaves no rung: no transport criterion, a vacuous pass
    for validate in (True, False):
        with pytest.raises(LadderInvariantError, match="depth must be >= 0"):
            EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                         delta2=0.2, h=0.125, depth=-1, validate=validate)
    for mu in (0.0, -0.5):
        with pytest.raises(LadderInvariantError, match="mu must be positive"):
            EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                         delta2=0.2, h=0.125, depth=2, mu=mu)
        # the negative control skips every invariant
        EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                     delta2=0.2, h=0.125, depth=2, mu=mu, validate=False)


def test_psi0_values(ladder):
    t = 2.0
    sym = build_rung(ladder, t)
    y = ladder.y(t)
    assert sym(np.array([y]), np.array([ladder.xi2])) == pytest.approx(1.0)
    r = ladder.ell(t)
    assert sym(np.array([y + 1.01 * r]), np.array([ladder.xi2])) == 0.0
    # t = 0 equals the squared symbol bump a2(h x, xi)^2 (both use the default ramp)
    sym0 = build_rung(ladder, 0.0)
    _, a2 = make_bump_pair((0.0, 0.0), (ladder.x2, ladder.xi2), ladder.delta1, ladder.delta2)
    x = np.linspace(ladder.y(0.0) - 2 * ladder.ell(0.0), ladder.y(0.0) + 2 * ladder.ell(0.0), 101)
    xi = np.full_like(x, ladder.xi2 - 0.1)
    assert np.allclose(sym0(x[:, None], xi[:, None]),
                       np.asarray(a2(ladder.h * x[:, None], xi[:, None])) ** 2, atol=1e-13)


def test_psi_j_prefactor_and_support(ladder):
    sym0 = build_rung(ladder, 0.0, 1)
    x = np.linspace(0, 60, 301)
    assert np.max(np.abs(sym0(x[:, None], np.full_like(x, ladder.xi2)[:, None]))) == 0.0
    # prefactor limit t -> infinity is C_j h^(j mu)
    big = float(ladder.prefactor(1, 1e9))
    assert big == pytest.approx(1.0 * ladder.h**ladder.mu, rel=1e-6)
    # support radius example: gamma_1 = 1.5, delta1 = 0.2, h = 1/8, t = 8
    assert ladder.ell(8.0, 1) == pytest.approx(1.5 * 0.2 * 16.0)


def test_build_rung_range_and_squaring(ladder):
    # rungs run over j = 0..depth; a rung is Psi where _moving_bump's
    # unsquared factors are Phi, times the prefactor: rung = prefactor * plain^2
    for j in (-1, ladder.depth + 1):
        with pytest.raises(ValueError, match="out of range"):
            build_rung(ladder, 1.0, j)
    t = 2.0
    x = np.linspace(ladder.y(t) - 2 * ladder.ell(t, 2), ladder.y(t) + 2 * ladder.ell(t, 2),
                    201)[:, None]
    xi = np.full_like(x, ladder.xi2 + 0.1)
    for j in range(ladder.depth + 1):
        pref = 1.0 if j == 0 else float(ladder.prefactor(j, t))
        rung = np.asarray(build_rung(ladder, t, j)(x, xi))
        b, _, c = _moving_bump(ladder, t, j, squared=False)
        plain = np.asarray(b(x)) * np.asarray(c(xi))
        assert np.max(plain) > 0.0
        assert np.allclose(pref * plain**2, rung, rtol=1e-14, atol=0.0)


def test_transport_passes(ladder):
    for j in (0, 1, 2):
        rep = verify_transport(ladder, j)
        assert rep.min_value >= TRANSPORT_FLOOR, f"j={j}: min {rep.min_value}"
        assert rep.fd_agreement <= 1e-6


def test_transport_negative_control(stencil1d):
    bad = EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2, delta1=0.2,
                       delta2=2.0, h=0.125, depth=0, validate=False)
    rep = verify_transport(bad, 0)
    assert rep.min_value < -1e-6
    assert rep.min_value < TRANSPORT_FLOOR


def test_transport_fd_gate_trips_on_a_stale_derivative(energy_ladder):
    # the analytic transport field uses Phi', which BumpedPhi leaves as it
    # was: its centred difference disagrees by 6.1e-1 against the 1e-6 gate
    assert verify_transport(energy_ladder, 0).fd_agreement <= 1e-6
    bad = dataclasses.replace(energy_ladder, phi=BumpedPhi(), validate=False)
    with pytest.raises(DerivativeMismatchError, match="transport mismatch 6.08e-01"):
        verify_transport(bad, 0)


def test_transport_vanishes_off_support(ladder):
    # the margin and the full field (margin plus the j >= 1 bound) alike
    from latscat.escape import _transport_field
    t = 1.0
    for j in (0, 1):
        x = ladder.y(t) + np.linspace(1.1, 3.0, 40) * ladder.ell(t, j)
        xi = ladder.xi2 + np.linspace(-0.5, 0.5, 41)
        for full in (False, True):
            tr = _transport_field(ladder, j, t, x[:, None], xi[None, :], full=full)
            assert tr.shape == (40, 41) and np.max(np.abs(tr)) == 0.0


@pytest.fixture()
def energy_ladder(stencil1d):
    # delta1 = 1/3 makes the separation invariant t-uniform (coefficient
    # 1 - 3 delta1 = 0); supports stay inside the L = 48 box at h = 1/16
    return EscapeLadder(stencil=stencil1d, x2=1.2, xi2=np.pi / 2, delta1=1.0 / 3.0,
                        delta2=0.28, h=0.125, depth=0, mu=1.0)


def test_energy_f0_is_squared_bump(free_model, energy_ladder, dense_kernel):
    # F(0) = |Op^h(a2)|^2 exactly for the squared-cutoff escape function, with
    # Op^h(a2) from the independent dense oracle
    box = Box(1, 48)
    F0 = _escape_F(energy_ladder, 0.0, box)
    _, a2 = make_bump_pair((0.0, 0.0), (energy_ladder.x2, energy_ladder.xi2),
                           energy_ladder.delta1, energy_ladder.delta2)
    Q = dense_kernel(a2, energy_ladder.h, box)
    ref = Q.conj().T @ Q
    assert np.linalg.norm(F0 - ref, 2) <= 1e-12


def test_energy_inequality_and_monotonicity(free_model, energy_ladder):
    rep = energy_inequality_check(free_model, energy_ladder, t_samples=(0.5, 2.0, 8.0),
                                  h_list=(0.25, 0.125, 0.0625),
                                  box_radius=48)
    assert rep.exponent >= 1.5
    assert all(v >= 0 for v in rep.defects.values())
    mono = monotonicity_check(free_model, energy_ladder, (1.0, 5.0, 20.0),
                              energy_report=rep, box_radius=64)
    assert min(mono.margins.values()) >= mono.floor
    # the floor each margin is held to: minus the fitted defect at the ladder's h
    assert mono.floor == -rep.amplitude * energy_ladder.h**rep.exponent < -1e-12
    # t = 0 is exact equality
    mono0 = monotonicity_check(free_model, energy_ladder, (0.0,), energy_report=rep,
                               box_radius=48)
    assert abs(mono0.margins[0.0]) <= 1e-12


def test_energy_fd_gate_trips_on_a_perturbed_rate(free_model, energy_ladder, monkeypatch):
    # the analytic dF/dt agrees with its centered difference to < 1e-9 on
    # this box; one entry off by 1e-7 must trip the 1e-8 gate, by 1e-10 not
    import latscat.escape as escape

    rate = escape._escape_F_rate

    def perturbed_by(eps):
        def perturbed(ladder, t, box):
            fd, an, F = rate(ladder, t, box)
            an = an.copy()
            an[0, 0] += eps
            return fd, an, F
        return perturbed

    def check():
        return energy_inequality_check(free_model, energy_ladder, t_samples=(0.5, 2.0),
                                       h_list=(0.25, 0.125), box_radius=16)

    monkeypatch.setattr(escape, "_escape_F_rate", perturbed_by(1e-7))
    with pytest.raises(DerivativeMismatchError):
        check()
    monkeypatch.setattr(escape, "_escape_F_rate", perturbed_by(1e-10))
    rep = check()
    assert set(rep.fd_mismatch) == set(rep.drift) == set(rep.lambda_min)
    assert 0.0 < max(rep.fd_mismatch.values()) < 1e-8
    assert max(rep.drift.values()) < 1e-10


def test_energy_lambda_min_pinned_to_the_rebuilt_F(free_model, energy_ladder):
    # the check takes F(t) from the analytic rate's Op(phi0(t)); rebuilding
    # each F with _escape_F gives the same table
    from latscat.escape import _escape_F_rate

    t_samples, h_list, box = (0.0, 0.5, 2.0), (0.25, 0.125), Box(1, 16)
    rep = energy_inequality_check(free_model, energy_ladder, t_samples, h_list,
                                  box_radius=16)
    H = periodic_dense_h(free_model, box)
    assert set(rep.lambda_min) == {(h, t) for h in h_list for t in t_samples}
    for h in h_list:
        lad = dataclasses.replace(energy_ladder, h=h)
        for t in t_samples:
            dF_fd = _escape_F_rate(lad, t, box)[0]
            F = _escape_F(lad, t, box)
            M = dF_fd + 1j * (H @ F - F @ H)
            ref = np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0]
            assert abs(rep.lambda_min[(h, t)] - ref) <= 1e-15 * abs(ref)


def test_energy_checks_ignore_the_ladder_rungs():
    # F(t) = |Op(phi0(t))|^2: the rungs psi_j enter only the transport check,
    # so the recipe's depth-2 ladder and its depth-0 copy report the same
    cfg = parse_config(recipe_config("escape-ladder"))
    model, p = cfg.model_config(), cfg.probe
    deep = EscapeLadder(stencil=model.stencil, x2=p["x2"], xi2=p["xi2"],
                        delta1=p["delta1"], delta2=p["delta2"], h=p["h"],
                        depth=p["depth"], mu=p["mu"])
    assert deep.depth == 2
    reports = []
    for lad in (deep, dataclasses.replace(deep, depth=0)):
        energy = energy_inequality_check(model, lad, p["t_samples"], p["h_list"],
                                         p["box_radius"])
        mono = monotonicity_check(model, lad, p["mono_t_list"], p["mono_box_radius"],
                                  energy_report=energy)
        reports.append((energy, mono))
    assert reports[0] == reports[1]


def test_monotonicity_sabotage_fails(free_model, stencil1d, energy_ladder):
    bad = dataclasses.replace(energy_ladder, phi=BumpedPhi(), validate=False)
    mono = monotonicity_check(free_model, bad, (1.0, 2.0), box_radius=48)
    assert min(mono.margins.values()) < -1e-3
    assert min(mono.margins.values()) < mono.floor
    # with no energy report the floor is the round-off allowance alone
    assert mono.floor == -1e-12
    good = monotonicity_check(free_model, energy_ladder, (1.0, 2.0), box_radius=48)
    assert min(good.margins.values()) > -1e-4


def test_disjoint_region_operator_smallness(free_model, energy_ladder, dense_kernel):
    # || Op^h(a1) F(t) || is suppressed when a1 sits away from the moving tube
    # and improves as h shrinks. Values frozen from the dense oracle; the
    # slow Phi tails keep the desk-scale trend below the nominal h^2 (see
    # the decisions notes), so the suppression levels are pinned instead.
    a1, _ = make_bump_pair((-10.0, np.pi / 2), (0.0, 0.0), 0.5, 0.6)
    norms = {}
    for h in (0.25, 0.125, 0.0625):
        box = Box(1, int(24 / h))
        lad = dataclasses.replace(energy_ladder, h=h)
        A1 = dense_kernel(a1, h, box)
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
                sym = build_rung(ladh, t, j)
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
        psi0 = np.asarray(build_rung(lad, t)(x[:, None], np.full_like(x, lad.xi2)[:, None]))
        assert np.max(zeta * psi0) == 0.0
        # supports separated: zeta lives in |x| <= scale/2, tube starts at 3 scale
        assert np.max(np.abs(x[zeta > 0])) <= scale / 2 + 1e-9


def test_periodic_dense_h_matches_band(free_model, longrange_model, to_dense):
    box = Box(1, 32)
    H = periodic_dense_h(free_model, box)
    assert np.linalg.norm(H - H.conj().T, 2) <= 1e-13
    evs = np.linalg.eigvalsh(H)
    assert evs[0] >= -1e-12 and evs[-1] <= 2.0 + 1e-12
    # with V: the matrix-free multiplier p0(D) on the identity columns, plus diag V
    H = periodic_dense_h(longrange_model, box)
    oracle = to_dense(fourier_multiplier(longrange_model.stencil.p0, box))
    oracle += np.diag(longrange_model.potential.values(box.sites()))
    assert np.max(np.abs(H - oracle)) <= 1e-14
    assert np.array_equal(H, H.conj().T)


def test_psi0_support_sandwich(energy_ladder):
    # on supp psi0: 2 delta1 (1/h + t) <= |x| <= C (1/h + t), C recorded
    lad = energy_ladder
    C_rec = 0.0
    for t in (0.0, 1.0, 4.0, 16.0):
        scale = 1.0 / lad.h + t
        y, ell = lad.y(t), lad.ell(t)
        x = np.linspace(y - 1.5 * ell, y + 1.5 * ell, 2001)
        vals = np.asarray(build_rung(lad, t)(x[:, None], np.full_like(x, lad.xi2)[:, None]))
        on = vals > 0
        assert np.min(np.abs(x[on])) >= 2.0 * lad.delta1 * scale - 1e-9
        C_rec = max(C_rec, np.max(np.abs(x[on])) / scale)
    assert np.isfinite(C_rec) and C_rec > 0
