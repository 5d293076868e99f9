import numpy as np
import pytest
import scipy.fft
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.special import jv

from latscat import propagate
from latscat.cli import EXIT_NUMERICAL, run
from latscat.config import parse_config
from latscat.geometry import KernelPoint, make_bump_pair
from latscat.model import (LinearMap, ModelConfig, Potential, Stencil, check_energy_window,
                           compose_maps, laplacian_stencil)
from latscat.propagate import (ChebyshevPlan, EnclosureError, evolve, local_decay_probe,
                               propagation_probe, _dct2, _propagation_sup)
from latscat.quantize import op_h, operator_norm
from latscat.recipes import recipe_config
from latscat.symbols import EnergyCutoff, Symbol


@pytest.fixture()
def small_H(free_model):
    return free_model.assemble(24, with_cap=False)


def f_of_H(H, cutoff, u):
    """f(H) u through the Chebyshev plan of the cutoff profile."""
    return ChebyshevPlan.for_function(H, cutoff.profile).apply(H, u)


def test_cutoff_profile():
    f = EnergyCutoff(lam=1.0, eps_f=0.25)
    assert f.profile(1.0) == pytest.approx(1.0)
    z = np.linspace(-1, 3, 801)
    vals = f.profile(z)
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
    back = evolve(small_H, evolve(small_H, u, 1.3), -1.3)
    assert np.linalg.norm(back - u) <= 1e-9 * np.linalg.norm(u)


@pytest.mark.parametrize("n", [1, 2, 7, 4096])
def test_dct2_matches_scipy(rng, n):
    # scipy is the oracle only: latscat computes the DCT-II with numpy's FFT
    x = rng.standard_normal(n)
    for f in (x, x + 1j * rng.standard_normal(n)):
        ref = scipy.fft.dct(f, type=2)
        got = _dct2(f)
        assert got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_evolution_coefficients_match_bessel(small_H):
    # the interpolant of e^{-itz} against (2 - delta_k0)(-i)^k J_k(rt) e^{-ict}
    # with the same cut (|J_k| > 1e-13); worst measured difference 2.1e-14,
    # at t = 400, and 7.9e-16 up to t = 30
    c, r = ChebyshevPlan.enclosure_for(small_H)
    for t in (0.0, 0.5, 3.0, 30.0, 400.0):
        k = np.arange(int(1.25 * r * t + 80) + 1)
        bes = jv(k, r * t)
        k = k[:np.nonzero(np.abs(bes) > 1e-13)[0][-1] + 1]
        ref = (2.0 - (k == 0)) * (-1j) ** k * bes[k] * np.exp(-1j * c * t)
        plan = ChebyshevPlan.for_evolution(small_H, t)
        assert (plan.center, plan.radius) == (c, r)
        assert plan.n_terms == len(k)
        assert np.max(np.abs(plan.coeffs - ref)) <= 1e-13


def test_evolution_plan_both_signs_match_expm(longrange_model, rng):
    # evolve is right for t < 0 too: the plan is the interpolant of e^{-itz}
    # (the Bessel series with (-i)^k is the t > 0 one: at t = -2 its relative
    # error here is 1.56); measured 7.6e-14 at both signs
    H = longrange_model.assemble(24, with_cap=False)
    u = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    for t in (2.0, -2.0):
        ref = sla.expm(-1j * t * H.dense()) @ u
        got = evolve(H, u, t)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_enclosure_contains_a_hop_scaled_spectrum(longrange_model, rng):
    # the enclosure reads H's assembled matrix, so it holds for hops the
    # stencil does not describe: here each hop scaled by g = 1 + 0.5 <x>^-1/2
    # at the bond's midpoint x, which lifts the top of the spectrum to 2.746,
    # above the free symbol's 2 + max V = 2.5. evolve measured 4.6e-14
    # against expm
    H = longrange_model.assemble(48, with_cap=False)
    M = H._matrix(+1).tocoo()
    x = H.box.sites()[:, 0]
    mid = 0.5 * (x[M.row] + x[M.col])
    g = np.where(M.row == M.col, 1.0, 1.0 + 0.5 * (1.0 + mid**2) ** -0.25)
    scaled = sp.csc_array((M.data * g, (M.row, M.col)), shape=M.shape)
    H._matrix = lambda cap_sign: scaled
    dense = scaled.toarray()
    evals = np.linalg.eigvalsh(dense)
    assert evals[-1] > 2.7
    c, r = ChebyshevPlan.enclosure_for(H)
    assert c - r <= evals[0] and evals[-1] <= c + r
    u = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    ref = sla.expm(-3j * dense) @ u
    assert np.linalg.norm(evolve(H, u, 3.0) - ref) <= 1e-12 * np.linalg.norm(u)


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
    # borrow the plans of the mild H but apply the scaled operator; the
    # 13-term plan is caught only by the check on the last iterate
    for t, n_terms in ((40.0, 73), (1.0, 13)):
        plan = ChebyshevPlan.for_evolution(small_H, t)
        assert plan.n_terms == n_terms
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
# an odd potential: H does not commute with n -> -n, so local decay keeps it
# one block on the tridiagonal (sterf + dstein) route
D1_DIPOLE = ModelConfig(stencil=laplacian_stencil(1),
                        potential=Potential(mu=0.5, amplitude=0.5, form="dipole"))
# three d = 1 models that local decay must send to the dense eigensolver:
# bandwidth 2 (the p0 = (1 - cos xi) + (1 - cos 2 xi) / 2 stencil); complex
# hops that stay tridiagonal; and complex hops with a flux (phases 0.3 per
# step, 0.2 per double step) that no gauge removes, so that R is complex
D1_BANDWIDTH2 = ModelConfig(stencil=Stencil(1, [(0,), (1,), (-1,), (2,), (-2,)],
                                            [1.5, -0.5, -0.5, -0.25, -0.25]))
D1_TWISTED = ModelConfig(stencil=Stencil(1, [(0,), (1,), (-1,)],
                                         [1.0, -0.5 * np.exp(0.3j), -0.5 * np.exp(-0.3j)]))
D1_FLUX = ModelConfig(stencil=Stencil(1, [(0,), (1,), (-1,), (2,), (-2,)],
                                      [1.25, -0.5 * np.exp(0.3j), -0.5 * np.exp(-0.3j),
                                       -0.125 * np.exp(0.2j), -0.125 * np.exp(-0.2j)]))


@pytest.mark.parametrize("model, radius, t_grid", [
    ("free_model", 96, np.r_[0.0, np.geomspace(1.0, 60.0, 11)]),
    ("longrange_model", 96, np.r_[0.0, np.geomspace(1.0, 60.0, 11)]),
    (D2_LONGRANGE, 12, np.r_[0.0, np.geomspace(0.5, 6.0, 6)]),
    (D1_BANDWIDTH2, 96, np.r_[0.0, np.geomspace(1.0, 40.0, 11)]),
    (D1_TWISTED, 96, np.r_[0.0, np.geomspace(1.0, 40.0, 11)]),
    (D1_FLUX, 96, np.r_[0.0, np.geomspace(1.0, 40.0, 11)]),
    (D1_DIPOLE, 96, np.r_[0.0, np.geomspace(1.0, 60.0, 11)]),
    # complex R on the factored Lanczos route: one block, 85 (twisted) and
    # 69 (flux) wide
    (D1_TWISTED, 128, np.r_[0.0, np.geomspace(1.0, 60.0, 11)]),
    (D1_FLUX, 128, np.r_[0.0, np.geomspace(1.0, 60.0, 11)]),
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


def test_local_decay_gram_route_matches_svd(longrange_model, monkeypatch):
    # sigma_max from the eigenvalues of Y* Y squares Y = R diag(d) R*: at the
    # recipe's box and times, down to the smallest norm (3e-6 at t = 200), it
    # must agree with an SVD of the same Y, formed here only, to 1e-10 relative
    seen = []

    def recorded(L, Rh, lam, _sigma_max=propagate._sigma_max):
        sigma = _sigma_max(L, Rh, lam)

        def at(t):
            seen.append(sla.svdvals(L @ (np.exp(-1j * t * lam)[:, None] * Rh))[0])
            return sigma(t)
        return at
    monkeypatch.setattr(propagate, "_sigma_max", recorded)
    res = local_decay_probe(longrange_model, EnergyCutoff(lam=1.0, eps_f=0.25), nu=3.0,
                            t_grid=np.geomspace(10.0, 200.0, 16), box_radius=512)
    svd = np.reshape(seen, (16, 2)).max(axis=1)  # two reflection halves per t
    assert res.norms.min() < 1e-5
    assert np.max(np.abs(res.norms - svd) / svd) <= 1e-10


def _with_singular_values(s, m, n, t=3.0, seed=0):
    """Factors (L, Rh, lam) of an m x n complex Y = L diag(e^{-it lam}) Rh
    with singular values s (len(s) <= min(m, n)), with L and Rh mixed by a
    random unitary, so that no factor is aligned with the singular vectors;
    Rh carries a cutoff f in [0.5, 1] on its rows, as the probes' factors do."""
    rng = np.random.default_rng(seed)
    r = len(s)

    def orthonormal(k, j):
        return np.linalg.qr(rng.standard_normal((k, j)) + 1j * rng.standard_normal((k, j)))[0]
    U, V, Z = orthonormal(m, r), orthonormal(n, r), orthonormal(r, r)
    lam, f = rng.uniform(-2.0, 2.0, r), rng.uniform(0.5, 1.0, r)
    d = np.exp(-1j * t * lam) * f
    Rh = f[:, None] * ((Z.conj().T / d[:, None]) @ V.conj().T)
    return (U * np.asarray(s, dtype=float)) @ Z, Rh, lam


_DECAY = np.arange(1, 100) ** -1.5  # 99 values


@pytest.mark.parametrize("s, m, n, lanczos", [
    (np.r_[10.0, _DECAY], 100, 100, True),
    (np.r_[1.0, 1.0, 0.5 * _DECAY[:98]], 100, 100, False),
    (np.linspace(1.0, 0.9, 80), 80, 80, False),
    ([], 80, 80, True),
    ([3.0], 90, 70, True),
    (np.r_[10.0, _DECAY[:79]], 200, 80, True),
    (np.r_[10.0, _DECAY[:79]], 80, 200, True),
    (np.r_[10.0, _DECAY[:62]], 63, 63, False),
], ids=["dominant", "double-top", "flat", "zero", "rank-one", "tall", "wide", "narrow"])
def test_sigma_max_against_svd(monkeypatch, s, m, n, lanczos):
    # a Gram at least _LANCZOS_MIN_WIDTH wide whose top dominates its trace is
    # certified by the Kato-Temple bracket through the factors, with Y never
    # formed and no dense eigvalsh; sigma_1 = sigma_2, a flat spectrum
    # (2 theta <= ||Y||_F^2) and a narrower Gram form Y and take the dense
    # route. Either way sigma_max agrees with the SVD to 1e-12
    L, Rh, lam = _with_singular_values(s, m, n)
    formed, dense = [], []

    def dense_sigma_max(*args, _fn=propagate._dense_sigma_max):
        formed.append(True)
        return _fn(*args)

    def eigvalsh(*args, _fn=np.linalg.eigvalsh):
        dense.append(True)
        return _fn(*args)
    monkeypatch.setattr(propagate, "_dense_sigma_max", dense_sigma_max)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    sigma = propagate._sigma_max(L, Rh, lam)(3.0)
    assert len(formed) == len(dense) == (not lanczos)
    svd = np.linalg.svd(L @ (np.exp(-3j * lam)[:, None] * Rh), compute_uv=False)
    assert abs(sigma - svd.max(initial=0.0)) <= 1e-12 * svd.max(initial=0.0)  # 0.0 for Y = 0


@pytest.mark.parametrize("model, phases", [
    (ModelConfig(), False), (D1_FLUX, False), (ModelConfig(), True),
], ids=["real", "complex", "real-complex"])
def test_frobenius_bound_is_an_upper_bound(model, phases):
    # the trace of G = Y* Y, Y = R diag(d) f R*, d = e^{-it lam}, comes from
    # the t-independent form d* C d plus a rounding bound: never below
    # ||Y||_F^2 (here from Y formed in extended precision), also at late t,
    # where the terms of the form cancel to a small part of sum_kl C_kl
    # (below 1e-7 of it at t = 100, inside the reflection window), and above
    # it by at most 1e-12 sum_kl C_kl.
    # R comes from the window eigenvectors of a 301-site box: real for the
    # free model, complex for the flux model, whose R* R no gauge makes real
    H = model.assemble(150, with_cap=False)
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    Hd = H.dense()
    lam, Q = np.linalg.eigh(Hd if np.any(Hd.imag) else Hd.real)
    keep = cutoff.profile(lam) != 0.0
    lam, f = lam[keep], cutoff.profile(lam[keep])
    w = (1.0 + H.box.sites()[:, 0].astype(float) ** 2) ** -1.5
    R = np.linalg.qr(w[:, None] * Q[:, keep], mode="r")
    A = R.conj().T @ R
    assert np.iscomplexobj(R) == (model is D1_FLUX)
    assert (np.abs(A.imag).max() > 1e-3 * np.abs(A).max()) == (model is D1_FLUX)
    # a real L with a complex Rh: Y diag(e^{i phi}), the same Frobenius norm
    Rh = f[:, None] * R.conj().T
    if phases:
        Rh = Rh * np.exp(0.7j * np.arange(len(lam)))
    trace = propagate._frobenius_bound(R, Rh)
    absolute = trace(np.ones(len(lam)))  # d = 1: every term of the form counts positively
    Rx, Rhx = R.astype(np.clongdouble), Rh.astype(np.clongdouble)
    fractions = []
    for t in (0.0, 1.0, 10.0, 100.0, 1000.0):
        d = np.exp(-1j * t * lam)
        Y = Rx @ (d.astype(np.clongdouble)[:, None] * Rhx)
        fro2 = float(np.sum(np.abs(Y) ** 2))
        assert fro2 <= trace(d) <= fro2 + 1e-12 * absolute
        fractions.append(fro2 / absolute)
    assert min(fractions) < 1e-7


def test_local_decay_recipe_box_takes_the_lanczos_route(longrange_model, monkeypatch):
    # at the recipe's box and times every Gram (171 and 172 wide) is above the
    # Lanczos cutoff and closes its bracket within the step budget, through
    # the factors: the probe forms no Y and makes no dense eigvalsh call, or
    # the per-t cost is back to a cubic product and the dense route
    tops, formed, dense = [], [], []

    def top(L, Rh, d, trace, _top=propagate._lanczos_top):
        tops.append((Rh.shape[1], _top(L, Rh, d, trace)))
        return tops[-1][1]

    def dense_sigma_max(*args, _fn=propagate._dense_sigma_max):
        formed.append(True)
        return _fn(*args)

    def eigvalsh(*args, _fn=np.linalg.eigvalsh):
        dense.append(True)
        return _fn(*args)
    monkeypatch.setattr(propagate, "_lanczos_top", top)
    monkeypatch.setattr(propagate, "_dense_sigma_max", dense_sigma_max)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    local_decay_probe(longrange_model, EnergyCutoff(lam=1.0, eps_f=0.25), nu=3.0,
                      t_grid=np.geomspace(10.0, 200.0, 16), box_radius=512)
    assert sorted({w for w, _ in tops}) == [171, 172] and len(tops) == 32
    assert all(lam is not None and lam > 0.0 for _, lam in tops)
    assert not formed and not dense


@pytest.mark.parametrize("model, radius, route", [
    ("longrange_model", 24, "eigvalsh"),
    ("longrange_model", 256, "eigh"),
    (D1_FLUX, 24, "eigvalsh"),
    (D1_FLUX, 128, "eigh"),
], ids=["longrange", "longrange-lanczos", "flux", "flux-lanczos"])
def test_local_decay_dense_calls_stay_on_numpy(request, monkeypatch, model, radius, route):
    # numpy and scipy load separate OpenBLAS builds, whose thread pools contend
    # at two threads on two cores: once the window eigensolve is done, every
    # dense call of the probe is numpy's, and any scipy.linalg call raises.
    # At radius 24 the Grams (9 and 14 wide) are below the Lanczos cutoff and
    # take one eigvalsh per t and block; at the larger boxes (86 and 69 wide)
    # they take only the small eigh of each Lanczos step
    if isinstance(model, str):
        model = request.getfixturevalue(model)
    done = []

    def window(*args, _window=propagate._window_eigenpairs):
        yield from _window(*args)
        done.append(True)
    monkeypatch.setattr(propagate, "_window_eigenpairs", window)
    # scipy.linalg's public functions, under their names there and under any
    # name propagate binds them to
    public = {id(fn) for module in (sla, sla.blas, sla.lapack)
              for name, fn in vars(module).items()
              if callable(fn) and not isinstance(fn, type) and not name.startswith("_")}
    for module in (sla, sla.blas, sla.lapack, propagate):
        for name, fn in list(vars(module).items()):
            if id(fn) in public:
                def guarded(*args, _name=name, _fn=fn, **kwargs):
                    assert not done, f"scipy.linalg call {_name} after the window eigensolve"
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, guarded)
    numpy_calls = []
    for name in ("eigvalsh", "eigh", "qr"):
        def recorded(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            numpy_calls.append((_name, bool(done)))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    res = local_decay_probe(model, EnergyCutoff(lam=1.0, eps_f=0.25), nu=3.0,
                            t_grid=np.geomspace(0.5, 4.0, 8), box_radius=radius)
    assert done and np.all(res.norms > 0.0)
    blocks = sum(name == "qr" for name, _ in numpy_calls)
    per_t = [name for name, after_window in numpy_calls if after_window]
    if route == "eigvalsh":
        assert per_t == ["eigvalsh"] * (8 * blocks)
    else:
        assert set(per_t) == {"eigh"} and len(per_t) >= 8 * blocks


def _record_eigensolves(monkeypatch):
    """Wrap the entry points of the window eigensolver: the full tridiagonal
    spectrum, the dense eigensolver and the inverse iteration. The returned
    list gets (name, args, result) per call."""
    calls = []
    for module, name in ((sla, "eigvalsh_tridiagonal"), (sla, "eigh"), (lapack, "dstein")):
        def recorded(*args, _name=name, _solver=getattr(module, name), **kwargs):
            out = _solver(*args, **kwargs)
            calls.append((_name, args, out))
            return out
        monkeypatch.setattr(module, name, recorded)
    return calls


def _eigensolves(calls):
    """The one spectrum-level call per block, without the dstein chunks."""
    return [name for name, _, _ in calls if name != "dstein"]


@pytest.mark.parametrize("model, radius, solves", [
    ("free_model", 24, ["eigvalsh_tridiagonal"] * 2),
    ("longrange_model", 24, ["eigvalsh_tridiagonal"] * 2),
    (D1_BANDWIDTH2, 24, ["eigh"] * 2),
    (D2_LONGRANGE, 8, ["eigh"] * 2),
    (D1_DIPOLE, 24, ["eigvalsh_tridiagonal"]),
    (D1_TWISTED, 24, ["eigh"]),
    (D1_FLUX, 24, ["eigh"]),
], ids=["free", "longrange", "bandwidth2", "d2-longrange", "dipole", "twisted", "flux"])
def test_local_decay_splits_reflection_symmetric_h(request, monkeypatch, model, radius,
                                                   solves):
    # an H equal to J H J (J: n -> -n) is solved as its even and odd halves,
    # every other H as one block
    if isinstance(model, str):
        model = request.getfixturevalue(model)
    calls = _record_eigensolves(monkeypatch)
    local_decay_probe(model, EnergyCutoff(lam=1.0, eps_f=0.25), nu=3.0,
                      t_grid=np.geomspace(0.5, 4.0, 8), box_radius=radius)
    assert _eigensolves(calls) == solves


def test_local_decay_dstein_eigenvector_certificate(longrange_model, monkeypatch):
    # inverse iteration in chunks does not reorthogonalize one chunk against
    # another: certify, at the recipe box, the eigenpairs of the two halves
    # the probe solved against the dense spectrum of H, with every chunk of
    # a half orthogonal to every other
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    calls = _record_eigensolves(monkeypatch)
    res = local_decay_probe(longrange_model, cutoff, nu=3.0,
                            t_grid=np.geomspace(10.0, 200.0, 8), box_radius=512)
    assert _eigensolves(calls) == ["eigvalsh_tridiagonal"] * 2
    # dstein's arguments start with the diagonal: 513 entries (even half), 512 (odd)
    chunks = [(len(args[0]), out[0]) for name, args, out in calls if name == "dstein"]
    for size in (513, 512):
        Q = np.hstack([z for n, z in chunks if n == size])
        assert Q.shape[1] > 64
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-12
    halves = np.sort(np.concatenate([ev for name, _, ev in calls
                                     if name == "eigvalsh_tridiagonal"]))
    halves = halves[cutoff.profile(halves) != 0.0]
    dense = np.linalg.eigvalsh(longrange_model.assemble(512, with_cap=False).dense())
    dense = dense[cutoff.profile(dense) != 0.0]
    assert res.rows[0]["rank"] == len(halves) == len(dense)
    assert np.abs(halves - dense).max() <= 1e-12
    assert res.rows[0]["eig_residual"] <= 1e-12


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


def test_recurrence_matches_dense_oracle(small_H, rng):
    # every plan against sum_k c_k T_k((lam - c)/r) on the dense eigenpairs:
    # real entries (free model) and complex hops, vector and block inputs in
    # C order, Fortran order and as a strided column slice, forward and adjoint
    H_twisted = D1_TWISTED.assemble(24, with_cap=False)
    assert np.any(H_twisted.dense().imag)
    for H in (small_H, H_twisted):
        evals, Q = np.linalg.eigh(H.dense())
        wide = rng.standard_normal((H.dim, 6)) + 1j * rng.standard_normal((H.dim, 6))
        block = np.ascontiguousarray(wide[:, :3])
        inputs = (block[:, 0].copy(), block, np.asfortranarray(block), wide[:, ::2])
        c, r = ChebyshevPlan.enclosure_for(H)
        plans = (ChebyshevPlan.for_evolution(H, 0.0),
                 ChebyshevPlan(center=c, radius=r, coeffs=np.array([0.3, 0.7 - 0.2j])),
                 ChebyshevPlan.for_evolution(H, 60.0),
                 ChebyshevPlan.for_function(H, EnergyCutoff(lam=1.0, eps_f=0.25).profile))
        assert [p.n_terms for p in plans[:2]] == [1, 2] and plans[2].n_terms > 64
        for u in inputs:
            before = u.copy()
            for plan in plans:
                p_lam = np.polynomial.chebyshev.chebval((evals - plan.center) / plan.radius,
                                                        plan.coeffs)
                # the adjoint of a plan is the plan with conjugate coefficients
                adjoint = ChebyshevPlan(center=plan.center, radius=plan.radius,
                                        coeffs=np.conj(plan.coeffs))
                for p, mult in ((plan, p_lam), (adjoint, np.conj(p_lam))):
                    ref = Q @ (mult.reshape(-1, *[1] * (u.ndim - 1)) * (Q.conj().T @ u))
                    got = p.apply(H, u)
                    assert got.shape == u.shape
                    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(u)
            assert np.array_equal(u, before)


def _dense_propagation_norms(H, a1, a2, h, cutoff, t_values, to_dense):
    """Oracle: ||Op^h(a1) e^{-itH} f(H) Op^h(a2)|| per t from every
    eigenpair of the dense H and one full SVD per t."""
    A1 = to_dense(op_h(a1, h, H.box, check_resolution=False))
    A2 = to_dense(op_h(a2, h, H.box, check_resolution=False))
    Hd = to_dense(H)
    evals, Q = np.linalg.eigh((Hd + Hd.conj().T) / 2)
    fH = Q @ (cutoff.profile(evals)[:, None] * Q.conj().T)
    return np.array([np.linalg.svd(A1 @ (Q * np.exp(-1j * t * evals)) @ Q.conj().T @ fH @ A2,
                                   compute_uv=False)[0] for t in t_values])


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
    # dual route: the finite-rank path equals the dense oracle at every t row
    oracle = _dense_propagation_norms(H, a1, a2, 0.125, cutoff, [r["t"] for r in rows],
                                      to_dense)
    got = np.array([r["norm"] for r in rows])
    assert got[tg == 4.0][0] == pytest.approx(oracle[tg == 4.0][0], rel=1e-9)
    assert np.abs(got - oracle).max() <= 1e-11
    # rapid shrink: two h-halvings gain a factor >= 30 (frozen: 9.7e-3 -> 1.6e-4)
    H32 = free_model.assemble(256, with_cap=False)
    sup32, _ = _propagation_sup(H32, a1, a2, 0.03125, cutoff,
                                np.r_[0.0, np.geomspace(0.5, 200.0, 15)])
    assert sup32 <= sup / 30.0


@pytest.mark.parametrize("model, solves", [
    (D1_DIPOLE, ["eigvalsh_tridiagonal"]),
    (D1_TWISTED, ["eigh"]),
], ids=["dipole-one-block", "twisted-dense"])
def test_propagation_sup_matches_dense_oracle_on_other_routes(monkeypatch, to_dense, model,
                                                              solves):
    # the window eigensolver's other routes: an odd potential keeps H one
    # tridiagonal block, complex hops send it to the dense eigensolver
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    H = model.assemble(48, with_cap=False)
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.5, -np.pi / 2), 0.5, 0.4)
    tg = np.r_[0.0, 1.0, np.geomspace(2.0, 30.0, 8)]
    calls = _record_eigensolves(monkeypatch)
    _, rows = _propagation_sup(H, a1, a2, 0.25, cutoff, tg)
    assert _eigensolves(calls) == solves
    oracle = _dense_propagation_norms(H, a1, a2, 0.25, cutoff, tg, to_dense)
    assert oracle.max() >= 1e-3
    assert np.abs(np.array([r["norm"] for r in rows]) - oracle).max() <= 1e-11
    assert rows[0]["rank"] == np.count_nonzero(cutoff.profile(np.linalg.eigvalsh(H.dense())))
    assert rows[0]["eig_residual"] <= 1e-12


def _broken_dstein(monkeypatch, fault):
    """Replace dstein by one whose chunks carry `fault`: a nonzero info, or
    1e-7 of each eigenvector's neighbour mixed in."""
    dstein = lapack.dstein

    def broken(*args):
        z, info = dstein(*args)
        if fault == "info":
            return z, 1
        z = z + 1e-7 * np.roll(z, 1, axis=1)
        return z / np.linalg.norm(z, axis=0), info
    monkeypatch.setattr(lapack, "dstein", broken)


@pytest.mark.parametrize("fault", ["info", "perturbed"])
def test_window_eigenpairs_certificate_failures(monkeypatch, tmp_path, free_model, fault):
    # a chunk that fails its certificate raises LinAlgError: exit 3 from the CLI
    _broken_dstein(monkeypatch, fault)
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    H = free_model.assemble(48, with_cap=False)
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.5, -np.pi / 2), 0.5, 0.4)
    with pytest.raises(np.linalg.LinAlgError, match="certificate"):
        _propagation_sup(H, a1, a2, 0.25, cutoff, np.array([0.0, 1.0]))
    with pytest.raises(np.linalg.LinAlgError, match="certificate"):
        local_decay_probe(free_model, cutoff, nu=3.0, t_grid=[1.0, 2.0], box_radius=48)
    cfg = parse_config(recipe_config("prop31-offset"))
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_NUMERICAL


def test_propagation_sup_rejects_non_separable(small_H):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.5, -np.pi / 2), 0.5, 0.4)
    two_term = Symbol(dim=1, terms=a2.terms + a1.terms)
    with pytest.raises(NotImplementedError, match="one-term"):
        _propagation_sup(small_H, a1, two_term, 0.25, cutoff, np.array([0.0]))


def test_propagation_probe_modes(free_model):
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    kp_on = KernelPoint(4.0, np.pi / 2, -2.0, np.pi / 2)
    with pytest.raises(ValueError, match="hypothesis violation"):
        propagation_probe(free_model, kp_on, cutoff, (0.25, 0.125, 0.0625, 0.03125),
                          delta1=0.4, delta2=0.3, mode="decay")
    kp_off = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    with pytest.raises(ValueError, match="control mode"):
        propagation_probe(free_model, kp_off, cutoff, (0.25, 0.125, 0.0625, 0.03125),
                          delta1=0.4, delta2=0.3, mode="control")
    kp_offshell = KernelPoint(4.0, np.pi / 2, 3.0, 0.5)
    with pytest.raises(ValueError, match="energy shell"):
        propagation_probe(free_model, kp_offshell, cutoff, (0.25, 0.125, 0.0625, 0.03125),
                          delta1=0.4, delta2=0.3, mode="decay")
    # the off-shell case has no probe mode: _propagation_sup covers it directly
    with pytest.raises(ValueError, match="unknown mode"):
        propagation_probe(free_model, kp_offshell, cutoff, (0.25, 0.125, 0.0625, 0.03125),
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
    adjoint = ChebyshevPlan(center=plan.center, radius=plan.radius, coeffs=np.conj(plan.coeffs))
    f_map = LinearMap(H.dim, lambda u: plan.apply(H, u),
                      lambda u: adjoint.apply(H, u), hermitian=True)
    direct = operator_norm(compose_maps(A1, f_map, A2), tol=1e-3, max_iter=3000)
    assert rows[0]["norm"] == pytest.approx(direct, rel=5e-3)


def test_propagation_onset_control_no_decay(free_model):
    # flow-connected supports: the sup-norm does not decay (slope <= 1)
    kp_on = KernelPoint(4.0, np.pi / 2, -2.0, np.pi / 2)
    res = propagation_probe(free_model, kp_on, EnergyCutoff(lam=1.0, eps_f=0.25),
                            (0.125, 0.0625, 0.03125, 0.015625),
                            delta1=0.6, delta2=0.3, mode="control")
    assert res.fit.slope <= 1.0


def test_shell_speed(free_model):
    # the reflection-window speed of the time-domain probes: max |v| on supp f
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    _, v = check_energy_window(free_model.stencil, cutoff.support, 4096)
    assert 0.85 <= v <= 1.0 + 1e-9


def test_f_of_h_rejects_cap(longrange_model, rng):
    # a real-interval Chebyshev series does not enclose a CAP spectrum, so
    # f(H) and e^{-itH} both refuse a CAP Hamiltonian, at t = 0 too; so does
    # the propagation probe, whose eigensolvers need a hermitian H
    H = longrange_model.assemble(24)
    cutoff = EnergyCutoff(lam=1.0, eps_f=0.25)
    u = rng.standard_normal(H.dim)
    with pytest.raises(ValueError, match="hermitian"):
        f_of_H(H, cutoff, u)
    for t in (0.0, 30.0):
        with pytest.raises(ValueError, match="hermitian"):
            evolve(H, u, t)
    a1, a2 = make_bump_pair((2.0, np.pi / 2), (-1.5, -np.pi / 2), 0.5, 0.4)
    with pytest.raises(ValueError, match="hermitian"):
        _propagation_sup(H, a1, a2, 0.25, cutoff, np.array([0.0]))


def test_f_of_h_flat_cutoff_is_identity(small_H, rng):
    # f = 1 across the whole spectral enclosure acts as the identity
    flat = EnergyCutoff(lam=1.0, eps_f=10.0)
    u = rng.standard_normal(small_H.dim) + 1j * rng.standard_normal(small_H.dim)
    assert np.linalg.norm(f_of_H(small_H, flat, u) - u) <= 1e-10 * np.linalg.norm(u)
