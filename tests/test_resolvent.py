import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from latscat import quantize
from latscat.cli import _lap_from
from latscat.config import parse_config
from latscat.geometry import KernelPoint, classify, kernel_point_setup, make_bump_pair
from latscat.model import Box, LinearMap, ModelConfig, Potential, Stencil, laplacian_stencil
from latscat.quantize import op_h, position_weight
from latscat.recipes import recipe_config
from latscat.resolvent import (LAPConfig, LAPConvergenceError, _ShiftedSolver,
                               _finite_rank_row, _lap_iterate,
                               default_epsilon_sequence, free_kernel_1d, ik_probe,
                               lap_solve, one_sided_probe, resolvent_map,
                               sandwich_norm, wf_probe)
from latscat.symbols import EnergyCutoff
from latscat.util import DecayFit


def delta_at(H, site=0):
    rhs = np.zeros(H.dim, dtype=complex)
    rhs[H.box.index_of([site])] = 1.0
    return rhs


def test_free_kernel_values():
    # frozen from the residue-calculus derivation: u(n) = e^{i theta |n|}/(-i sin theta)
    assert free_kernel_1d(1.0, +1, 0) == pytest.approx(1j)
    assert free_kernel_1d(1.0, +1, 2) == pytest.approx(-1j)
    assert free_kernel_1d(1.0, -1, 0) == pytest.approx(-1j)
    with pytest.raises(ValueError):
        free_kernel_1d(2.0, +1, 0)
    with pytest.raises(ValueError):
        free_kernel_1d(0.0, +1, 0)


def test_free_kernel_defining_property():
    # (H0 - lam) column = delta at interior sites
    for lam in (0.5, 1.0, 1.37):
        for sign in (+1, -1):
            n = np.arange(-40, 41)
            col = np.array([free_kernel_1d(lam, sign, k) for k in n])
            resid = col - 0.5 * (np.roll(col, 1) + np.roll(col, -1)) - lam * col
            resid[np.abs(n) == 40] = 0.0
            mid = len(n) // 2
            resid[mid] -= 1.0
            assert np.max(np.abs(resid[1:-1])) <= 1e-10


def test_lap_solve_free_kernel(free_model, deep_lap):
    H = free_model.assemble(256)
    u = lap_solve(H, deep_lap, delta_at(H))
    n = H.box.sites()[:, 0]
    inner = np.abs(n) <= 128
    exact = np.array([free_kernel_1d(1.0, +1, k) for k in n[inner]])
    rel = np.linalg.norm(u[inner] - exact) / np.linalg.norm(exact)
    assert rel <= 1e-3


def test_exact_outgoing_boundary_is_the_free_kernel(exact_outgoing):
    # the oracle's delta_0 column is the closed form on every site of the box,
    # edges included: measured max relative gap 1.1e-14 to 1.3e-14 at radius
    # 64, bound 1e-13
    box = Box(1, 64)
    n = box.sites()[:, 0]
    for lam in (0.5, 1.0, 1.37):
        rhs = np.zeros(box.site_count, dtype=complex)
        rhs[box.index_of([0])] = 1.0
        u = exact_outgoing(box, lam)(rhs)
        exact = free_kernel_1d(lam, +1, n)
        assert np.max(np.abs(u - exact)) <= 1e-13 * np.max(np.abs(exact))


def _wf_rows(name):
    """The wf rows of a recipe, by h, as the CLI computes them."""
    cfg = parse_config(recipe_config(name))
    p = cfg.probe
    kp = KernelPoint(p["x1"], p["xi1"], -p["x2"], p["xi2"])
    res = wf_probe(cfg.model_config(), kp, _lap_from(cfg), p["h_list"], p["delta1"],
                   p["delta2"])
    assert res.box_radius == 1024
    return {r["h"]: r for r in res.rows}


@pytest.mark.parametrize("name", ["free-wf-offset", "wf-onset-control"])
def test_free_wf_rows_against_the_exact_outgoing_boundary(monkeypatch, exact_outgoing, name):
    # the recipe's rows (CAP, epsilon ladder) against the same pipeline with
    # the exact outgoing boundary in place of the ladder's resolvent
    from latscat import resolvent
    rows = _wf_rows(name)
    monkeypatch.setattr(resolvent, "resolvent_map",
                        lambda H, lap, probe_rhs: (exact_outgoing(H.box, lap.lam), 0.0))
    exact = _wf_rows(name)
    gap = {h: abs(rows[h]["norm"] - exact[h]["norm"]) / exact[h]["norm"] for h in rows}
    assert all(rows[h]["epsilon_used"] > 0.0 and exact[h]["epsilon_used"] == 0.0 for h in rows)
    if name == "wf-onset-control":
        # measured <= 6.1e-5 at every h; bound 2e-4
        assert max(gap.values()) <= 2e-4
        return
    # measured 2.6e-5, 6.8e-5 and 1.5e-4 at h = 1/8, 1/16, 1/32; bound 5e-4
    assert max(gap[h] for h in (0.125, 0.0625, 0.03125)) <= 5e-4
    # a known gap, measured 4.9e-3: at h = 1/64 the row is down to 4.6e-4
    # and the cubic CAP's reflection shows. Bracketed on both sides, so an
    # absorber change that closes or widens the gap fails here
    assert 1e-3 <= gap[0.015625] <= 1e-2


def test_lap_solve_zero_rhs(free_model, deep_lap):
    H = free_model.assemble(64)
    u = lap_solve(H, deep_lap, np.zeros(H.dim))
    assert np.linalg.norm(u) == 0.0


def test_lap_solve_off_spectrum_matches_dense(free_model):
    # lam = 3 sits outside the band; compare against the CAP-free dense solve
    H = free_model.assemble(128)
    cfg = LAPConfig(lam=3.0, epsilon_sequence=default_epsilon_sequence(3, 24),
                    convergence_tol=1e-6)
    u = lap_solve(H, cfg, delta_at(H))
    Hd = free_model.assemble(128, with_cap=False).dense()
    oracle = np.linalg.solve(Hd - 3.0 * np.eye(H.dim), delta_at(H))
    assert abs(np.linalg.norm(u) - np.linalg.norm(oracle)) <= 1e-8 * np.linalg.norm(oracle)
    # exponential falloff
    n = H.box.sites()[:, 0]
    assert np.abs(u[H.box.index_of([40])]) < 1e-10 * np.abs(u[H.box.index_of([0])])


def test_lap_convergence_error(free_model):
    H = free_model.assemble(64)
    cfg = LAPConfig(lam=1.0, epsilon_sequence=(0.5, 0.25), convergence_tol=1e-9)
    with pytest.raises(LAPConvergenceError, match="larger box"):
        lap_solve(H, cfg, delta_at(H))


def test_branch_symmetry(free_model, deep_lap):
    H = free_model.assemble(128)
    u_plus = lap_solve(H, deep_lap, delta_at(H))
    cfg_minus = LAPConfig(lam=1.0, sign=-1,
                          epsilon_sequence=deep_lap.epsilon_sequence,
                          convergence_tol=deep_lap.convergence_tol)
    u_minus = lap_solve(H, cfg_minus, delta_at(H))
    inner = H.inner_mask()
    err = np.linalg.norm(u_minus[inner] - np.conj(u_plus[inner]))
    assert err <= 1e-8 * np.linalg.norm(u_plus[inner])


def test_epsilon_monotone_convergence(free_model, deep_lap):
    H = free_model.assemble(256)
    _, info = lap_solve(H, deep_lap, delta_at(H), return_info=True)
    diffs = np.asarray(info["diffs"])
    tail = diffs[4:]
    assert np.all(np.diff(tail) <= 1e-12 + 0.0 * tail[:-1]) or np.all(tail[1:] <= tail[:-1] * 1.05)


def test_sandwich_identity_off_spectrum(free_model):
    # || (H - 3)^-1 || = 1/dist(spectrum, 3) = 1 within 2%
    H = free_model.assemble(256)
    cfg = LAPConfig(lam=3.0, epsilon_sequence=default_epsilon_sequence(3, 24),
                    convergence_tol=1e-6)
    I = position_weight(0.0, H.box)
    val = sandwich_norm(I, H, cfg, I, tol=5e-3)
    assert val == pytest.approx(1.0, rel=2e-2)


def test_sandwich_zero_left(free_model, deep_lap):
    H = free_model.assemble(64)
    Z = LinearMap(H.dim, np.zeros_like, np.zeros_like, hermitian=True)
    assert sandwich_norm(Z, H, deep_lap, Z) == 0.0


def test_sandwich_monotone_in_h(free_model, deep_lap):
    # off-set bump pair: finer h gives a smaller sandwiched norm
    H = free_model.assemble(1024)
    a1, a2 = make_bump_pair((4.0, np.pi / 2), (-3.0, -np.pi / 2), 0.6, 0.3)
    vals = {}
    for h in (0.125, 0.0625):
        A1 = op_h(a1, h, H.box)
        A2 = op_h(a2, h, H.box)
        vals[h] = sandwich_norm(A1, H, deep_lap, A2, tol=1e-2)
    assert vals[0.0625] < vals[0.125]


def test_wf_probe_degenerate_zero_bump(free_model, deep_lap):
    # bump radii so small no lattice site carries weight: all norms vanish
    kp = KernelPoint(4.0003717, np.pi / 2, 3.0001911, -np.pi / 2)
    res = wf_probe(free_model, kp, deep_lap, (0.5, 0.4, 0.3, 0.25), delta1=1e-9, delta2=0.3)
    assert res.fit.degenerate


def test_wf_dichotomy_standard_deltas(free_model, deep_lap):
    # slope gap >= 2 at the standard configuration delta1 = delta2 = 0.2, on
    # a 2048 box (twice the rule's 1024) so the momentum grid resolves the
    # delta2 = 0.2 bumps: the rows of wf_probe, on that box
    hs = (0.125, 0.0625, 0.03125, 0.015625)
    H = free_model.assemble(2048, with_cap=True)

    def slope(kp):
        hs_sorted, _, a1, a2 = kernel_point_setup(kp, free_model.stencil, 0.2, 0.2, hs)
        rows = [_finite_rank_row(h, a1, a2, H, deep_lap) for h in hs_sorted]
        return DecayFit.from_values(hs_sorted, [r["norm"] for r in rows]).slope

    kp_off = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    kp_on = KernelPoint(4.0, np.pi / 2, -2.0, np.pi / 2)
    st = free_model.stencil
    assert classify(kp_off, st, 1.0, tol=3 * 0.2).outside_all(+1)
    assert not classify(kp_on, st, 1.0, tol=3 * 0.2).outside_all(+1)
    assert slope(kp_off) - slope(kp_on) >= 2.0


@pytest.fixture()
def unguarded(monkeypatch):
    # the finite-rank rows below are checked against a dense oracle of the
    # same grid-sampled operators, on boxes too small for the delta2 = 0.3
    # bumps to pass the xi-tail guard; resolution plays no part there
    monkeypatch.setattr(quantize, "XI_TAIL_ERROR", np.inf)


OFFSET_BUMPS = ((4.0, np.pi / 2), (-3.0, -np.pi / 2), 0.6, 0.3)


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("model", ["free_model", "longrange_model"])
def test_finite_rank_row_matches_dense_svd(request, unguarded, dense_kernel, deep_lap,
                                           model, sign):
    # the wf row is sigma_max(A1 M^-1 A2) at the converged eps, M the
    # shifted matrix of that rung
    H = request.getfixturevalue(model).assemble(100)
    lap = dataclasses.replace(deep_lap, sign=sign)
    a1, a2 = make_bump_pair(*OFFSET_BUMPS)
    h = 0.125
    row = _finite_rank_row(h, a1, a2, H, lap)
    M = H.shifted(1.0, sign, row["epsilon_used"]).toarray()
    A1, A2 = dense_kernel(a1, h, H.box), dense_kernel(a2, h, H.box)
    exact = np.linalg.svd(A1 @ np.linalg.solve(M, A2), compute_uv=False)[0]
    assert exact >= 1e-4
    assert row["norm"] == pytest.approx(exact, rel=1e-10)
    assert row["columns"] == 7


def test_wf_rows_draw_no_random_numbers(monkeypatch, unguarded, free_model, deep_lap):
    # the ladder walks on the columns the norm uses, not on a seeded probe,
    # and each bump is sampled once, with no op_h built beside it
    from latscat import resolvent
    for name in ("rng", "op_h"):
        monkeypatch.setattr(resolvent, name, lambda *args, name=name, **kwargs: pytest.fail(name))
    a1, a2 = make_bump_pair(*OFFSET_BUMPS)
    row = _finite_rank_row(0.125, a1, a2, free_model.assemble(100), deep_lap)
    assert row["epsilon_used"] > 0.0 and row["norm"] > 0.0
    kp = KernelPoint(4.0, np.pi / 2, -3.0, -np.pi / 2)
    res = wf_probe(free_model, kp, deep_lap, (0.25, 0.125, 0.0625, 0.03125), 0.6, 0.3)
    assert all(r["epsilon_used"] > 0.0 for r in res.rows)


def test_wf_and_propagation_share_the_gram_factor(monkeypatch, unguarded, free_model, deep_lap):
    # one front end samples the bump pair and builds the gram factor for both
    # finite-rank probes, and the wf row takes no power iteration
    from latscat import propagate, resolvent
    calls = []
    for mod in (resolvent, propagate):
        assert mod.finite_rank_pair is quantize.finite_rank_pair
        monkeypatch.setattr(mod, "finite_rank_pair",
                            lambda *args, name=mod.__name__: (calls.append(name),
                                                              quantize.finite_rank_pair(*args))[1])

    def no_power_iteration(*args, **kwargs):
        raise AssertionError("operator_norm called")

    monkeypatch.setattr(resolvent, "operator_norm", no_power_iteration)
    a1, a2 = make_bump_pair(*OFFSET_BUMPS)
    _finite_rank_row(0.125, a1, a2, free_model.assemble(100), deep_lap)
    propagate._propagation_sup(free_model.assemble(48, with_cap=False), a1, a2, 0.25,
                               EnergyCutoff(lam=1.0, eps_f=0.25), np.array([0.0]))
    assert calls == ["latscat.resolvent", "latscat.propagate"]


def test_decay_fit_contract():
    with pytest.raises(ValueError):
        DecayFit.from_values([1, 2, 3], [1, 2, 3])
    fit = DecayFit.from_values([1, 2, 3, 4], [0.0, 1.0, 1.0, 1.0])
    assert fit.degenerate


def test_resolvent_map_adjoint(free_model, deep_lap, rng):
    H = free_model.assemble(64)
    probe = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    R, eps = resolvent_map(H, deep_lap, probe)
    u = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    v = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
    lhs = np.vdot(v, R(u))
    rhs = np.vdot(R.adjoint_apply(v), u)
    assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_ik_probe_small(longrange_model, free_model):
    res = ik_probe(free_model, LAPConfig(lam=1.0), 0.0, (48, 64, 96))
    assert res.bound_factor <= 1.2
    # a bound factor of vanishing norms would be vacuous
    assert all(r["norm"] > 0.0 for r in res.rows)
    assert res.control_norm is not None and 0.0 < res.control_norm < np.inf


def test_one_sided_preconditions(free_model):
    with pytest.raises(ValueError):
        one_sided_probe(free_model, LAPConfig(lam=1.0), nu=3.0, s=2.5, L_list=(48, 64))
    with pytest.raises(ValueError):
        one_sided_probe(free_model, LAPConfig(lam=1.0), nu=0.5, s=0.2, L_list=(48, 64))


def test_one_sided_empty_cone(free_model, longrange_model):
    # r0 beyond the box kills the symbol; all norms vanish, where the default
    # r0 gives positive ones
    res = one_sided_probe(free_model, LAPConfig(lam=1.0), nu=3.0, s=1.0, L_list=(48, 64),
                          r0=1000.0)
    assert res.bound_factor <= 1.2
    assert max(r["norm"] for r in res.rows) <= 1e-280
    live = one_sided_probe(free_model, LAPConfig(lam=1.0), nu=3.0, s=1.0, L_list=(48, 64))
    assert all(r["norm"] > 0.0 for r in live.rows)
    # an r0 that empties the cone on the small box only: a zero norm against
    # a positive one is no bound at all
    part = one_sided_probe(longrange_model, LAPConfig(lam=1.0), nu=3.0, s=1.0,
                           L_list=(32, 128), r0=30.0)
    assert part.rows[0]["norm"] == 0.0 and part.rows[1]["norm"] > 0.0
    assert part.bound_factor == np.inf


def _longrange(dim):
    return ModelConfig(stencil=laplacian_stencil(dim),
                       potential=Potential(mu=0.5, amplitude=0.5, form="power_law"))


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("dim,radius,eps", [
    pytest.param(1, 40, 1e-2, id="1-40"),
    pytest.param(2, 8, 1e-2, id="2-8"),
    # the top and the bottom rung of the default ladder
    pytest.param(2, 8, 2.0**-3, id="2-8-eps2^-3"),
    pytest.param(2, 8, 2.0**-20, id="2-8-eps2^-20"),
])
def test_shifted_solver_matches_dense(dim, radius, eps, sign):
    # band solves (d=1) and the sparse LU (d>=2) against the assembled matrix
    H = _longrange(dim).assemble(radius)
    sol = _ShiftedSolver(H, 1.0, sign, eps)
    M = H.shifted(1.0, sign, eps).toarray()
    g = np.random.default_rng(3)
    b = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    assert np.linalg.norm(M @ sol.solve(b) - b) <= 1e-12 * np.linalg.norm(b)
    assert np.linalg.norm(M.conj().T @ sol.solve(b, adjoint=True) - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("sign", [+1, -1])
def test_ladder_returns_fresh_rung_solver(sign):
    # each rung builds its own solver: the ladder's converged solver gives
    # the same u as a fresh one at the converged eps, and holds the forward
    # and adjoint bands H.banded builds there
    H = _longrange(1).assemble(40)
    lap = LAPConfig(lam=1.0, sign=sign, convergence_tol=1e-3)
    g = np.random.default_rng(2)
    rhs = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    u, eps, sol, diffs = _lap_iterate(H, lap, rhs)
    assert len(diffs) >= 3
    assert np.array_equal(u, _ShiftedSolver(H, 1.0, sign, eps).solve(rhs))
    assert np.array_equal(sol._ab_f, H.banded(1.0, sign, eps))
    sol.solve(rhs, adjoint=True)
    assert np.array_equal(sol._ab_a, H.banded(1.0, -sign, eps))


def test_hop_band_read_once_per_hamiltonian(monkeypatch):
    # the hop band is read off the CSC pattern by one todia() per H, however
    # many rungs and banded() calls follow
    calls = []
    todia = sp.csc_array.todia

    def counting(self, *args, **kwargs):
        calls.append(1)
        return todia(self, *args, **kwargs)

    monkeypatch.setattr(sp.csc_array, "todia", counting)
    H = _longrange(1).assemble(40)
    g = np.random.default_rng(2)
    rhs = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    _, _, _, diffs = _lap_iterate(H, LAPConfig(lam=1.0, convergence_tol=1e-3), rhs)
    assert len(diffs) >= 3
    for s in (+1, -1):
        H.banded(1.0, s, 1e-2)
    assert len(calls) == 1
    _longrange(1).assemble(40).banded(1.0, +1, 1e-2)
    assert len(calls) == 2


def test_band_adjoint_complex_hops():
    # the adjoint band is the conjugate transpose for complex, wider hops too
    flux = ModelConfig(stencil=Stencil(1, [(0,), (1,), (-1,), (2,), (-2,)],
                                       [1.25, -0.5 * np.exp(0.3j), -0.5 * np.exp(-0.3j),
                                        -0.125 * np.exp(0.2j), -0.125 * np.exp(-0.2j)]))
    H = flux.assemble(40)
    sol = _ShiftedSolver(H, 1.0, +1, 1e-2)
    M = H.shifted(1.0, +1, 1e-2).toarray()
    b = np.random.default_rng(4).standard_normal(H.dim) + 0j
    assert np.linalg.norm(M.conj().T @ sol.solve(b, adjoint=True) - b) <= 1e-12 * np.linalg.norm(b)
    # the band is the LAPACK layout of the shifted matrix: H[i, j] at ab[bw + i - j, j]
    bw = H.stencil.bandwidth
    i, j = np.indices((H.dim, H.dim))
    inside = np.abs(i - j) <= bw
    for s in (+1, -1):
        ab = H.banded(1.0, s, 1e-2)
        unpacked = np.zeros((H.dim, H.dim), dtype=complex)
        unpacked[inside] = ab[(bw + i - j)[inside], j[inside]]
        assert np.array_equal(unpacked, H.shifted(1.0, s, 1e-2).toarray())


def test_shifted_solver_fill_d2():
    # the symmetric-mode LU keeps under 3/4 of the fill of SuperLU's default
    # (COLAMD, partial pivoting) on a 4,225-site box; measured 0.56
    H = _longrange(2).assemble(32)
    lu = _ShiftedSolver(H, 1.0, +1, 2.0**-11)._lu
    default = spla.splu(H.shifted(1.0, +1, 2.0**-11))
    assert lu.L.nnz + lu.U.nnz <= 0.75 * (default.L.nnz + default.U.nnz)


def test_rung_residual_check(tmp_path, monkeypatch):
    # a d >= 2 rung whose solve misses M u = rhs by 1e-8 relative fails the
    # ladder with LinAlgError, which the CLI reports as a numerical error (no
    # d >= 2 config walks the ladder, so the CLI half fails a d = 1 band
    # solve instead)
    from latscat.cli import EXIT_NUMERICAL, run
    from latscat.config import parse_config
    H = _longrange(2).assemble(12)
    g = np.random.default_rng(11)
    rhs = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    lap = LAPConfig(lam=1.0, convergence_tol=1e-2)
    lap_solve(H, lap, rhs)
    exact = _ShiftedSolver.solve

    monkeypatch.setattr(_ShiftedSolver, "solve", lambda self, b: exact(self, b) * (1.0 + 1e-8))
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        lap_solve(H, lap, rhs)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(sla, "solve_banded", singular)
    cfg = parse_config("[model]\npotential = none\n"
                       "[probe]\nkind = free-kernel\nlambda = 1.0\nbox_radius = 32\n")
    assert run(cfg, out_dir=tmp_path, quiet=True) == EXIT_NUMERICAL


def test_hamiltonian_freed_without_cyclic_gc():
    # H is reference-counted away once its last holder lets go, even while a
    # resolvent map built on it lives on
    H = _longrange(2).assemble(8)
    ref = weakref.ref(H)
    v = np.ones(H.dim, dtype=complex)
    g = np.random.default_rng(0)
    probe = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    gc.disable()
    try:
        H(v)
        R, _ = resolvent_map(H, LAPConfig(lam=1.0, convergence_tol=float("inf")), probe)
        del H
        assert ref() is None
        assert np.all(np.isfinite(R(v)))
    finally:
        gc.enable()


def test_lap_ladder_holds_one_factorization(monkeypatch):
    # a d = 2 ladder drops each rung's sparse LU before it factors the next,
    # so no earlier solver is alive when a new one is built; and it assembles
    # the shifted matrices from one pattern per H, whichever branch it walks
    H = _longrange(2).assemble(16)
    live, alive_at_build, assembled = [], [], []
    init, assemble = _ShiftedSolver.__init__, type(H)._assemble

    def registered(self, *args):
        alive_at_build.append(sum(ref() is not None for ref in live))
        init(self, *args)
        live.append(weakref.ref(self))

    def counted(self):
        assembled.append(self)
        return assemble(self)
    monkeypatch.setattr(_ShiftedSolver, "__init__", registered)
    monkeypatch.setattr(type(H), "_assemble", counted)
    g = np.random.default_rng(3)
    rhs = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    rungs = 0
    for sign in (+1, -1):
        _, info = lap_solve(H, LAPConfig(lam=1.0, sign=sign, convergence_tol=1e-2), rhs,
                            return_info=True)
        rungs += len(info["diffs"]) + 1
    assert len(alive_at_build) == rungs >= 6
    assert alive_at_build == [0] * rungs
    assert assembled == [H]


def test_resolvent_identity_d2():
    # R(e1) - R(e2) = i(e1 - e2) R(e1) R(e2) on a 4,225-site box
    H = _longrange(2).assemble(32)
    eps1, eps2 = 1e-2, 2e-2
    s1 = _ShiftedSolver(H, 1.0, +1, eps1)
    s2 = _ShiftedSolver(H, 1.0, +1, eps2)
    g = np.random.default_rng(5)
    v = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    lhs = s1.solve(v) - s2.solve(v)
    rhs = 1j * (eps1 - eps2) * s1.solve(s2.solve(v))
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)


def test_sandwich_d2_smoke():
    # d=2 plumbing composes: classify, op_h on the 2d grid, sparse LU solves.
    # Phi bumps cannot resolve on a 25-point-per-axis grid, so the smoke
    # symbols are trigonometric polynomials (entire in xi).
    from latscat.geometry import classify
    from latscat.quantize import op_h
    from latscat.symbols import separable_symbol
    model = ModelConfig(stencil=laplacian_stencil(2), potential=Potential())
    kp = KernelPoint([2.0, 0.0], [np.pi / 2, 0.0], [1.5, 0.0], [-np.pi / 2, 0.0])
    rep = classify(kp, model.stencil, 1.0, tol=0.5, grid_n=128)
    assert set(rep.distances) == {"sigma0", "sigma_plus", "sigma_minus",
                                  "sigma_prime_plus", "sigma_prime_minus"}
    H = model.assemble(10)
    lap = LAPConfig(lam=1.0, epsilon_sequence=tuple(2.0**-k for k in range(2, 13)),
                    convergence_tol=0.05)

    def b(x):
        x = np.asarray(x)
        return np.exp(-0.5 * np.sum(x**2, axis=-1))

    def c(xi):
        xi = np.asarray(xi)
        return 1.0 + 0.5 * np.cos(xi[..., 0]) + 0.25 * np.sin(xi[..., 1])

    A = op_h(separable_symbol(2, b, c), 0.5, H.box)
    val = sandwich_norm(A, H, lap, A, tol=5e-2)
    assert np.isfinite(val) and val > 0
