"""Acceptance suite: every verified claim at its stated tolerance.

Reference model: d=1 nearest-neighbor stencil (p0 = 1 - cos xi), lambda = 1,
V(n) = 0.5 (1 + n^2)^(-1/4) unless a criterion says free. One pass/fail line
prints per criterion (run with -s to see them live).
"""

import time

import numpy as np

from latscat.escape import EscapeLadder, energy_inequality_check, monotonicity_check, verify_transport
from latscat.geometry import KernelPoint, make_bump_pair
from latscat.model import compose_maps
from latscat.propagate import evolve, local_decay_probe, propagation_probe
from latscat.quantize import op_h, operator_norm, position_weight, fourier_multiplier
from latscat.resolvent import (LAPConfig, default_epsilon_sequence, free_kernel_1d,
                               ik_probe, lap_solve, one_sided_probe, wf_probe)
from latscat.symbols import EnergyCutoff
from latscat.util import lstsq_loglog, rng

LAM = 1.0
H_LIST = (0.125, 0.0625, 0.03125, 0.015625)
DELTA1, DELTA2 = 0.6, 0.3


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_wf_upper_bound(longrange_model, deep_lap):
    t0 = time.time()
    kp = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    res = wf_probe(longrange_model, kp, deep_lap, H_LIST, DELTA1, DELTA2)
    elapsed = time.time() - t0
    ok = (res.decay_expected and not res.fit.degenerate
          and res.fit.slope >= 3.0 and res.fit.max_residual <= 0.3
          and res.box_radius <= 4096 and elapsed <= 600.0)
    report(1, ok, f"wf slope {res.fit.slope:.2f} (>=3), residual "
                  f"{res.fit.max_residual:.2f} (<=0.3), box {res.box_radius}, "
                  f"{elapsed:.0f}s")
    # stash for criterion 2's gap
    test_criterion_1_wf_upper_bound.slope = res.fit.slope


def test_criterion_2_free_dichotomy(free_model, deep_lap):
    kp_on = KernelPoint(4.0, np.pi / 2, -2.0, np.pi / 2)  # x + y on the forward ray
    res = wf_probe(free_model, kp_on, deep_lap, H_LIST, DELTA1, DELTA2)
    slope_off = getattr(test_criterion_1_wf_upper_bound, "slope", None)
    if slope_off is None:  # criterion 1 did not run first
        kp_off = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
        slope_off = wf_probe(free_model, kp_off, deep_lap, H_LIST, DELTA1, DELTA2).fit.slope
    gap = slope_off - res.fit.slope
    ok = (not res.decay_expected) and res.fit.slope <= 1.0 and gap >= 2.0
    report(2, ok, f"on-set slope {res.fit.slope:.2f} (<=1), gap {gap:.2f} (>=2)")


def test_criterion_3_free_resolvent_oracle(free_model):
    lap = LAPConfig(lam=LAM, epsilon_sequence=default_epsilon_sequence(3, 24),
                    convergence_tol=2.5e-4)
    H = free_model.assemble(512)
    rhs = np.zeros(H.dim, dtype=complex)
    rhs[H.box.index_of([0])] = 1.0
    u = lap_solve(H, lap, rhs)
    n = H.box.sites()[:, 0]
    inner = np.abs(n) <= 256
    exact = np.array([free_kernel_1d(LAM, +1, k) for k in n[inner]])
    rel = float(np.linalg.norm(u[inner] - exact) / np.linalg.norm(exact))
    report(3, rel <= 1e-3, f"free-kernel relative error {rel:.2e} (<=1e-3) "
                           f"on the inner half box")


def test_criterion_4_ik_two_sided(free_model, longrange_model):
    details = []
    ok = True
    for name, model in (("free", free_model), ("mu=0.5", longrange_model)):
        res = ik_probe(model, LAPConfig(lam=LAM), 1.0, (128, 256, 512))
        ok &= res.bound_factor <= 1.2
        details.append(f"{name} max/min {res.bound_factor:.3f}")
    report(4, ok, "weighted cone sandwich bounded across L in {128,256,512}: "
                  + ", ".join(details) + " (<=1.2)")


def test_criterion_5_propagation_estimate(longrange_model):
    kp = KernelPoint(4.0, np.pi / 2, 3.0, -np.pi / 2)
    res = propagation_probe(longrange_model, kp, EnergyCutoff(lam=LAM, eps_f=0.25), H_LIST,
                            delta1=DELTA1, delta2=DELTA2)
    ok = (not res.fit.degenerate) and res.fit.slope >= 3.0
    report(5, ok, f"sup_t propagator sandwich slope {res.fit.slope:.2f} (>=3) "
                  f"over h in 2^-3..2^-6")


def test_criterion_6_local_decay(longrange_model):
    cutoff = EnergyCutoff(lam=LAM, eps_f=0.25)
    res = local_decay_probe(longrange_model, cutoff, nu=3.0,
                            t_grid=np.geomspace(10.0, 200.0, 16), box_radius=512)
    ok = np.isfinite(res.kappa_hat) and res.kappa_hat >= 1.5
    report(6, ok, f"local decay kappa_hat {res.kappa_hat:.2f} (>=1.5) "
                  f"on t in [10,200] at L=512")


def test_criterion_7_escape_ladder(free_model, stencil1d):
    transport_lad = EscapeLadder(stencil=stencil1d, x2=3.0, xi2=np.pi / 2,
                                 delta1=0.2, delta2=0.2, h=0.125, depth=2)
    mins = {}
    ok = True
    for j in (0, 1, 2):
        rep = verify_transport(transport_lad, j)
        mins[j] = rep.min_value
        ok &= rep.passed
    import dataclasses
    bad = dataclasses.replace(transport_lad, delta2=2.0, depth=0, validate=False)
    rep_bad = verify_transport(bad, 0)
    ok &= rep_bad.min_value < -1e-6
    energy_lad = EscapeLadder(stencil=stencil1d, x2=1.2, xi2=np.pi / 2,
                              delta1=1.0 / 3.0, delta2=0.28, h=0.125, depth=0,
                              mu=1.0, t_grid=(0.0, 0.5, 2.0, 8.0))
    energy = energy_inequality_check(free_model, energy_lad, t_samples=(0.5, 2.0, 8.0),
                                     h_list=(0.25, 0.125, 0.0625),
                                     box_radius=48)
    ok &= energy.exponent >= 1.5
    mono = monotonicity_check(free_model, energy_lad, (1.0, 5.0, 20.0),
                              energy_report=energy, box_radius=64)
    ok &= mono.passed
    report(7, ok, f"transport mins {mins[0]:.1e}/{mins[1]:.1e}/{mins[2]:.1e} "
                  f"(>=-1e-12), sabotage min {rep_bad.min_value:.1e} (<0), "
                  f"energy exponent {energy.exponent:.2f} (>=1.5), "
                  f"monotonicity margins ok at t=1,5,20")


def test_criterion_8_one_sided(longrange_model):
    res = one_sided_probe(longrange_model, LAPConfig(lam=LAM, sign=+1), nu=3.0, s=1.0,
                          L_list=(128, 256, 512))
    ok = res.bound_factor <= 1.2
    report(8, ok, f"one-sided weighted norms max/min {res.bound_factor:.3f} "
                  f"(<=1.2) across L in {{128,256,512}}")


def test_criterion_9_calculus_suite(free_model, longrange_model):
    t0 = time.time()
    from latscat.model import Box
    box = Box(1, 64)
    g = rng()
    u = g.standard_normal(box.site_count) + 1j * g.standard_normal(box.site_count)
    u /= np.linalg.norm(u)
    checks = {}
    ident = fourier_multiplier(lambda xi: np.ones(np.shape(xi)[:-1]), box)
    checks["identity multiplier 1e-13"] = np.linalg.norm(ident(u) - u) <= 1e-13
    W = compose_maps(position_weight(2.0, box), position_weight(-2.0, box))
    checks["diagonal weights exact 1e-13"] = np.linalg.norm(W(u) - u) <= 1e-13
    a1, a2 = make_bump_pair((-1.0, np.pi / 2), (1.0, np.pi / 2), 0.3, 1.0)
    big_box = Box(1, 1024)
    hs = [2.0 ** (-k) for k in range(3, 8)]
    norms = [operator_norm(compose_maps(op_h(a1, h, big_box), op_h(a2, h, big_box)),
                           tol=1e-2, max_iter=2000) for h in hs]
    slope, _, _ = lstsq_loglog(hs, norms)
    checks["disjoint-support slope >= 3"] = slope >= 3.0
    H = longrange_model.assemble(128)
    from latscat.resolvent import _ShiftedSolver
    s1 = _ShiftedSolver(H, LAM, +1, 1e-2)
    s2 = _ShiftedSolver(H, LAM, +1, 2e-2)
    v = g.standard_normal(H.dim) + 1j * g.standard_normal(H.dim)
    lhs = s1.solve(v) - s2.solve(v)
    rhs = (1j * 1e-2 - 1j * 2e-2) * s1.solve(s2.solve(v))
    checks["resolvent identity 1e-8"] = (np.linalg.norm(lhs - rhs)
                                         <= 1e-8 * np.linalg.norm(lhs))
    Hh = free_model.assemble(128, with_cap=False)
    w = g.standard_normal(Hh.dim) + 1j * g.standard_normal(Hh.dim)
    ev = evolve(Hh, w, 4.0)
    checks["unitarity 1e-9"] = abs(np.linalg.norm(ev) - np.linalg.norm(w)) \
        <= 1e-9 * np.linalg.norm(w)
    ev2 = evolve(Hh, evolve(Hh, w, 1.5), 2.5)
    checks["group law 1e-9"] = np.linalg.norm(ev2 - ev) <= 1e-9 * np.linalg.norm(w)
    elapsed = time.time() - t0
    ok = all(checks.values()) and elapsed <= 120.0
    failed = [k for k, v in checks.items() if not v]
    report(9, ok, f"calculus invariants all green in {elapsed:.0f}s (<=120s)"
                  + (f"; failed: {failed}" if failed else ""))
