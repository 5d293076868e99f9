import numpy as np
import pytest

from latscat.geometry import KernelPoint, make_bump_pair
from latscat.model import (LinearMap, ModelConfig, Potential, Stencil, compose_maps,
                           laplacian_stencil)
from latscat.propagate import (ChebyshevPlan, EnclosureError, EnergyCutoff, evolve,
                               local_decay_probe, propagation_probe, shell_speed_max,
                               _propagation_sup)
from latscat.quantize import op_h, operator_norm
from latscat.symbols import Symbol


@pytest.fixture()
def small_H(free_model):
    return free_model.assemble(24, with_cap=False)


def f_of_H(H, cutoff, u):
    """f(H) u through the plan the propagation probe applies."""
    return ChebyshevPlan.for_function(H, cutoff.profile).apply(H, u)


def test_cutoff_profile():
    f = EnergyCutoff(lam=1.0, eps_f=0.25)
    assert f(1.0) == pytest.approx(1.0)
    z = np.linspace(-1, 3, 801)
    vals = f(z)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(vals[np.abs(z - 1.0) <= 0.25] == 1.0)
    assert np.all(vals[np.abs(z - 1.0) >= 0.5] == 0.0)


def test_evolve_identity_unitarity_group(small_H, rng):
    u = rng.standard_normal(small_H.dim) + 1j * rng.standard_normal(small_H.dim)
    assert np.array_equal(evolve(small_H, u, 0.0), u)
    v = evolve(small_H, u, 5.0)
    assert abs(np.linalg.norm(v) - np.linalg.norm(u)) <= 1e-10 * np.linalg.norm(u)
    w1 = evolve(small_H, evolve(small_H, u, 1.3), 2.2)
    w2 = evolve(small_H, u, 3.5)
    assert np.linalg.norm(w1 - w2) <= 1e-9 * np.linalg.norm(u)
    with pytest.raises(ValueError, match="adjoint"):
        evolve(small_H, u, -1.0)


def test_evolve_dense_oracle(free_model, rng, to_dense):
    # 16-site dense eigendecomposition oracle
    H = free_model.assemble(8, with_cap=False)
    u = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    Hd = to_dense(H)
    evals, Q = np.linalg.eigh((Hd + Hd.conj().T) / 2)
    oracle = Q @ (np.exp(-1j * 5.0 * evals) * (Q.conj().T @ u))
    got = evolve(H, u, 5.0)
    assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(u)


def test_evolve_energy_conservation(small_H, rng):
    u = rng.standard_normal(small_H.dim) + 1j * rng.standard_normal(small_H.dim)
    v = evolve(small_H, u, 7.0)
    e0 = np.vdot(u, small_H(u)).real
    e1 = np.vdot(v, small_H(v)).real
    assert abs(e1 - e0) <= 1e-9 * max(1.0, abs(e0))


def test_enclosure_violation_detected(small_H, rng):
    u = rng.standard_normal(small_H.dim) + 1j * rng.standard_normal(small_H.dim)
    bad = LinearMap(small_H.dim, lambda w: 10.0 * small_H(w),
                    lambda w: 10.0 * small_H.adjoint_apply(w), hermitian=True)
    # borrow the plan of the mild H but apply the scaled operator
    plan = ChebyshevPlan.for_evolution(small_H, 40.0)
    with pytest.raises(EnclosureError):
        plan.apply(bad, u)


def test_f_of_h_idempotence_and_eigvec(free_model, rng, to_dense):
    H = free_model.assemble(24, with_cap=False)
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    Hd = to_dense(H)
    evals, Q = np.linalg.eigh((Hd + Hd.conj().T) / 2)
    # eigenvector with eigenvalue in the f = 1 plateau
    i_in = int(np.argmin(np.abs(evals - 1.0)))
    u = Q[:, i_in].astype(complex)
    assert np.linalg.norm(f_of_H(H, cutoff, u) - u) <= 1e-8
    # eigenvector outside supp f
    i_out = int(np.argmin(np.abs(evals - 0.05)))
    assert abs(evals[i_out] - 1.0) > 0.5
    v = Q[:, i_out].astype(complex)
    assert np.linalg.norm(f_of_H(H, cutoff, v)) <= 1e-8
    # (1 - f)(H) then a strictly inner cutoff annihilates
    w = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    inner = EnergyCutoff(lam=1.0, eps_f=0.125)
    left = w - f_of_H(H, cutoff, w)
    assert np.linalg.norm(f_of_H(H, inner, left)) <= 1e-8 * np.linalg.norm(w)


def test_f_commutes_with_evolution(small_H, rng):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    u = rng.standard_normal(small_H.dim) + 1j * rng.standard_normal(small_H.dim)
    a = evolve(small_H, f_of_H(small_H, cutoff, u), 3.0)
    b = f_of_H(small_H, cutoff, evolve(small_H, u, 3.0))
    assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(u)


def test_local_decay_contract(free_model):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    res = local_decay_probe(free_model, cutoff, nu=3.0,
                            t_grid=np.r_[0.0, np.geomspace(1.0, 60.0, 11)],
                            box_radius=96)
    assert res.norms[0] <= 1.0 + 1e-12
    with pytest.raises(ValueError, match="reflection"):
        local_decay_probe(free_model, cutoff, nu=3.0, t_grid=np.linspace(1, 500, 8),
                          box_radius=96)


def test_local_decay_nu_zero_control(free_model):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    res = local_decay_probe(free_model, cutoff, nu=0.0,
                            t_grid=np.geomspace(1.0, 60.0, 8), box_radius=96)
    assert np.max(res.norms) <= 1.0 + 1e-10
    assert np.min(res.norms) >= 0.9  # no decay without weights


def test_local_decay_box_consistency(longrange_model):
    # norms agree across box sizes below the reflection window
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    tg = np.geomspace(5.0, 100.0, 8)
    r1 = local_decay_probe(longrange_model, cutoff, nu=3.0, t_grid=tg, box_radius=160)
    r2 = local_decay_probe(longrange_model, cutoff, nu=3.0, t_grid=tg, box_radius=256)
    assert np.allclose(r1.norms, r2.norms, rtol=5e-2)


def _full_eigh_local_decay(H, cutoff, nu, t_grid):
    # reference: every eigenpair of the dense H, one N x N product and SVD per t
    Hd = H.dense()
    evals, Q = np.linalg.eigh((Hd + Hd.conj().T) / 2.0)
    wdiag = (1.0 + np.sum(H.box.sites().astype(float) ** 2, axis=1)) ** (-nu / 2.0)
    WQ = wdiag[:, None] * Q
    f_ev = cutoff.profile(evals)
    return np.array([np.linalg.svd((WQ * (np.exp(-1j * t * evals) * f_ev)) @ WQ.conj().T,
                                   compute_uv=False)[0] for t in t_grid])


D2_LONGRANGE = ModelConfig(stencil=laplacian_stencil(2),
                           potential=Potential(mu=0.5, amplitude=0.5, form="power_law"))


@pytest.mark.parametrize("model, radius, t_grid", [
    ("free_model", 96, np.r_[0.0, np.geomspace(1.0, 60.0, 11)]),
    ("longrange_model", 96, np.r_[0.0, np.geomspace(1.0, 60.0, 11)]),
    (D2_LONGRANGE, 12, np.r_[0.0, np.geomspace(0.5, 6.0, 6)]),
])
def test_local_decay_matches_full_eigh(request, model, radius, t_grid):
    if isinstance(model, str):
        model = request.getfixturevalue(model)
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    res = local_decay_probe(model, cutoff, nu=3.0, t_grid=t_grid, box_radius=radius)
    H = model.assemble(radius, with_cap=False)
    oracle = _full_eigh_local_decay(H, cutoff, 3.0, res.t_grid)
    assert np.max(np.abs(res.norms - oracle) / oracle) <= 1e-9
    evals = np.linalg.eigvalsh(H.dense())
    assert res.rows[0]["rank"] == np.count_nonzero(cutoff.profile(evals))
    assert all(r["eig_residual"] <= 1e-12 for r in res.rows)


def test_local_decay_kappa_box_independent(longrange_model):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    tg = np.geomspace(10.0, 200.0, 8)
    k256 = local_decay_probe(longrange_model, cutoff, nu=3.0, t_grid=tg, box_radius=256)
    k1024 = local_decay_probe(longrange_model, cutoff, nu=3.0, t_grid=tg, box_radius=1024)
    assert k256.kappa_hat == pytest.approx(k1024.kappa_hat, abs=1e-3)


def test_local_decay_d2_guard():
    # 67^2 = 4,489 sites: beyond the dense eigensolver's 4,200-site guard
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    with pytest.raises(ValueError, match="too large"):
        local_decay_probe(D2_LONGRANGE, cutoff, nu=3.0, t_grid=[1.0], box_radius=33)


def test_prescaled_recurrence_matches_generic_map(small_H, rng):
    # the in-place CSR accumulate on the cached (2/r)(H - c) against the same
    # plan through a plain LinearMap: real entries (free model) and complex
    # hops (the real and complex views of the kernel), vector and block
    # inputs in C order, Fortran order and as a strided column slice
    twisted = Stencil(1, [(0,), (1,), (-1,)], [1.0, -0.5 * np.exp(0.3j), -0.5 * np.exp(-0.3j)])
    H_twisted = ModelConfig(stencil=twisted).assemble(24, with_cap=False)
    assert np.any(H_twisted._matrix(+1).data.imag)
    for H in (small_H, H_twisted):
        plain = LinearMap(H.dim, H, H.adjoint_apply, hermitian=True)
        wide = rng.standard_normal((H.dim, 6)) + 1j * rng.standard_normal((H.dim, 6))
        block = np.ascontiguousarray(wide[:, :3])
        inputs = (block[:, 0].copy(), block, np.asfortranarray(block), wide[:, ::2])
        c, r = ChebyshevPlan.enclosure_for(H)
        plans = (ChebyshevPlan.for_evolution(H, 0.0),
                 ChebyshevPlan(center=c, radius=r, coeffs=np.array([0.3, 0.7 - 0.2j])),
                 ChebyshevPlan.for_evolution(H, 60.0),
                 ChebyshevPlan.for_function(H, EnergyCutoff(lam=1.0, eps_f=0.25)))
        assert [p.n_terms for p in plans[:2]] == [1, 2] and plans[2].n_terms > 64
        for u in inputs:
            before = u.copy()
            for plan in plans:
                for adjoint in (False, True):
                    got = plan.apply(H, u, adjoint=adjoint)
                    ref = plan.apply(plain, u, adjoint=adjoint)
                    assert got.shape == u.shape
                    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(u)
            assert np.array_equal(u, before)


def test_propagation_offshell_case(free_model, to_dense):
    # a2 localized off the cutoff support (p0(0) = 0, supp f = [0.5, 1.5]):
    # the functional-calculus sandwich is small and shrinks fast in h.
    # Expected values frozen from the dense eigendecomposition oracle; the
    # slow Gevrey tails of the Phi bumps put the h = 1/8 value at ~1e-2,
    # not the nominal 1e-6 (see the decisions notes).
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    H = free_model.assemble(64, with_cap=False)
    a1, a2 = make_bump_pair((4.0, np.pi / 2), (-3.0, 0.0), 1.5, 0.3)
    tg = np.r_[0.0, 1.0, 4.0, np.geomspace(8.0, 50.0, 12)]
    sup, rows = _propagation_sup(H, a1, a2, 0.125, cutoff, tg)
    assert sup <= 2e-2
    # dual route: the finite-rank column path equals the dense oracle
    A1 = to_dense(op_h(a1, 0.125, H.box, check_resolution=False))
    A2 = to_dense(op_h(a2, 0.125, H.box, check_resolution=False))
    Hd = to_dense(H)
    evals, Q = np.linalg.eigh((Hd + Hd.conj().T) / 2)
    fH = Q @ (cutoff.profile(evals)[:, None] * Q.conj().T)
    U4 = Q @ (np.exp(-1j * 4.0 * evals)[:, None] * Q.conj().T)
    oracle_t4 = np.linalg.svd(A1 @ U4 @ fH @ A2, compute_uv=False)[0]
    got_t4 = [r["norm"] for r in rows if r["t"] == 4.0][0]
    assert got_t4 == pytest.approx(oracle_t4, rel=1e-9)
    # every t row, not only t = 4
    for r in rows:
        Ut = Q @ (np.exp(-1j * r["t"] * evals)[:, None] * Q.conj().T)
        oracle = np.linalg.svd(A1 @ Ut @ fH @ A2, compute_uv=False)[0]
        assert abs(r["norm"] - oracle) <= 1e-11
    # rapid shrink: two h-halvings gain a factor >= 30 (frozen: 9.7e-3 -> 1.6e-4)
    H32 = free_model.assemble(256, with_cap=False)
    sup32, _ = _propagation_sup(H32, a1, a2, 0.03125, cutoff,
                                np.r_[0.0, np.geomspace(0.5, 200.0, 15)])
    assert sup32 <= sup / 30.0


def test_propagation_sup_rejects_non_separable(small_H):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.5, -np.pi / 2), 0.5, 0.4)
    joint = Symbol(dim=1, eval=a2.eval)
    with pytest.raises(NotImplementedError, match="separable"):
        _propagation_sup(small_H, a1, joint, 0.25, cutoff, np.array([0.0]))


def test_propagation_probe_modes(free_model):
    kp_on = KernelPoint(4.0, np.pi / 2, -2.0, np.pi / 2)
    with pytest.raises(ValueError, match="hypothesis violation"):
        propagation_probe(free_model, kp_on, 1.0, (0.25, 0.125, 0.0625, 0.03125),
                          delta1=0.4, delta2=0.3, mode="decay")
    kp_off = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    with pytest.raises(ValueError, match="control mode"):
        propagation_probe(free_model, kp_off, 1.0, (0.25, 0.125, 0.0625, 0.03125),
                          delta1=0.4, delta2=0.3, mode="control")
    kp_offshell = KernelPoint(4.0, np.pi / 2, 3.0, 0.5)
    with pytest.raises(ValueError, match="energy shell"):
        propagation_probe(free_model, kp_offshell, 1.0, (0.25, 0.125, 0.0625, 0.03125),
                          delta1=0.4, delta2=0.3, mode="decay")
    # the off-shell case has no probe mode: _propagation_sup covers it directly
    with pytest.raises(ValueError, match="unknown mode"):
        propagation_probe(free_model, kp_offshell, 1.0, (0.25, 0.125, 0.0625, 0.03125),
                          delta1=0.4, delta2=0.3, mode="offshell")


def test_propagation_t0_matches_static_sandwich(free_model):
    # the t = 0 column equals || Op^h(a1) f(H) Op^h(a2) ||
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    H = free_model.assemble(48, with_cap=False)
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.5, -np.pi / 2), 0.5, 0.4)
    _, rows = _propagation_sup(H, a1, a2, 0.25, cutoff, np.array([0.0]))
    A1 = op_h(a1, 0.25, H.box, check_resolution=False)
    A2 = op_h(a2, 0.25, H.box, check_resolution=False)
    plan = ChebyshevPlan.for_function(H, cutoff.profile)
    f_map = LinearMap(H.dim, lambda u: plan.apply(H, u),
                      lambda u: plan.apply(H, u, adjoint=True), hermitian=True)
    direct = operator_norm(compose_maps(A1, f_map, A2), tol=1e-3, max_iter=3000)
    assert rows[0]["norm"] == pytest.approx(direct, rel=5e-3)


def test_propagation_onset_control_no_decay(free_model):
    # flow-connected supports: the sup-norm does not decay (slope <= 1)
    kp_on = KernelPoint(4.0, np.pi / 2, -2.0, np.pi / 2)
    res = propagation_probe(free_model, kp_on, 1.0,
                            (0.125, 0.0625, 0.03125, 0.015625),
                            delta1=0.6, delta2=0.3, mode="control", n_t=16)
    assert res.fit is not None and res.fit.slope <= 1.0


def test_shell_speed(free_model):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    v = shell_speed_max(free_model, cutoff)
    assert 0.85 <= v <= 1.0 + 1e-9


def test_f_of_h_rejects_cap(longrange_model, rng):
    # a real-interval Chebyshev series does not enclose a CAP spectrum, so
    # f(H) and e^{-itH} both refuse a CAP Hamiltonian, at t = 0 too
    H = longrange_model.assemble(24)
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    u = rng.standard_normal(H.dim)
    with pytest.raises(ValueError, match="hermitian"):
        f_of_H(H, cutoff, u)
    for t in (0.0, 30.0):
        with pytest.raises(ValueError, match="hermitian"):
            evolve(H, u, t)


def test_f_of_h_flat_cutoff_is_identity(small_H, rng):
    # f = 1 across the whole spectral enclosure acts as the identity
    flat = EnergyCutoff(lam=1.0, eps_f=10.0)
    u = rng.standard_normal(small_H.dim) + 1j * rng.standard_normal(small_H.dim)
    assert np.linalg.norm(f_of_H(small_H, flat, u) - u) <= 1e-10 * np.linalg.norm(u)
