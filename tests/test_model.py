import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from latscat.model import (CAP_STRENGTH, Box, CriticalValueError, EmptyShellError,
                           LatticeHamiltonian, ModelConfig, Potential, Stencil, cap_width,
                           check_energy_window, laplacian_stencil)
from latscat.propagate import ChebyshevPlan


def test_p0_examples(stencil1d):
    assert np.isclose(stencil1d.p0([0.0]), 0.0)
    assert np.isclose(stencil1d.p0([np.pi]), 2.0)
    st2 = laplacian_stencil(2)
    assert np.isclose(st2.p0(np.array([np.pi / 2, np.pi / 2])), 2.0)
    xi = np.linspace(0, 2 * np.pi, 97)
    assert np.max(np.abs(np.imag(stencil1d.p0(xi[:, None])))) <= 1e-14


def test_symmetry_violation_rejected():
    with pytest.raises(ValueError, match="symmetry"):
        Stencil(dim=1, offsets=((0,), (1,)), coeffs=(1.0, -0.5))
    with pytest.raises(ValueError, match="symmetry"):
        Stencil(dim=1, offsets=((0,), (1,), (-1,)), coeffs=(1.0, -0.5, -0.25))
    # complex conjugate pair is fine
    Stencil(dim=1, offsets=((1,), (-1,)), coeffs=(0.5j, -0.5j))


def test_velocity_examples(stencil1d):
    assert np.isclose(stencil1d.gradient([np.pi / 2]), 1.0)
    assert np.isclose(stencil1d.gradient([0.0]), 0.0)
    assert np.isclose(stencil1d.gradient([-np.pi / 2]), -1.0)
    # complex hoppings: p0 = -sin xi and v = -cos xi come back as real arrays
    hop = Stencil(dim=1, offsets=((1,), (-1,)), coeffs=(0.5j, -0.5j))
    xi = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
    assert hop.p0(xi).dtype == hop.gradient(xi).dtype == np.float64
    assert np.allclose(hop.p0(xi), -np.sin(xi[:, 0]), atol=1e-15)
    assert np.allclose(hop.gradient(xi), -np.cos(xi), atol=1e-15)


def test_energy_window(stencil1d):
    # oracle: dense sampling of min and max |sin xi| over 1 - cos xi in [0.9, 1.1]
    xi = np.linspace(0, 2 * np.pi, 1_000_000, endpoint=False)
    p = 1 - np.cos(xi)
    speeds = np.abs(np.sin(xi))[(p >= 0.9) & (p <= 1.1)]
    vmin, vmax = check_energy_window(stencil1d, (0.9, 1.1), grid_n=1_000_000)
    assert vmin == pytest.approx(np.min(speeds), rel=1e-9)
    assert vmin == pytest.approx(0.994987, abs=1e-4)
    assert vmax == pytest.approx(np.max(speeds), rel=1e-9)
    assert vmax == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(CriticalValueError):
        check_energy_window(stencil1d, (-0.1, 0.1), grid_n=4096)
    with pytest.raises(EmptyShellError):
        check_energy_window(stencil1d, (2.5, 3.0), grid_n=4096)
    with pytest.raises(ValueError, match="grid_n"):
        check_energy_window(stencil1d, (0.9, 1.1), grid_n=32)


def test_assemble_delta_and_constant(stencil1d):
    box = Box(1, 16)
    H = LatticeHamiltonian(stencil1d, Potential(), box)
    u = np.zeros(box.site_count)
    u[box.index_of([0])] = 1.0
    out = H(u)
    assert out[box.index_of([0])] == pytest.approx(1.0)
    assert out[box.index_of([1])] == pytest.approx(-0.5)
    assert out[box.index_of([-1])] == pytest.approx(-0.5)
    assert np.allclose(np.delete(out, [box.index_of([k]) for k in (-1, 0, 1)]), 0.0)
    ones = np.ones(box.site_count)
    out = H(ones)
    assert np.allclose(out[1:-1], 0.0, atol=1e-15)


def test_assemble_with_potential(stencil1d):
    box = Box(1, 16)
    H = LatticeHamiltonian(stencil1d, Potential(mu=0.5, amplitude=1.0, form="power_law"), box)
    u = np.zeros(box.site_count)
    u[box.index_of([5])] = 1.0
    assert H(u)[box.index_of([5])] == pytest.approx(1.0 + 26.0 ** (-0.25))


def test_hermiticity_and_spectral_range(stencil1d, rng, verify_adjoint):
    box = Box(1, 24)
    H = LatticeHamiltonian(stencil1d, Potential(), box)
    assert verify_adjoint(H, n_checks=20) <= 1e-12
    xi = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    lo, hi = np.min(stencil1d.p0(xi[:, None])), np.max(stencil1d.p0(xi[:, None]))
    for _ in range(20):
        u = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
        q = np.real(np.vdot(u, H(u))) / np.vdot(u, u).real
        assert lo - 1e-10 <= q <= hi + 1e-10


def test_plane_wave_diagonalization(stencil1d):
    # H0 multiplies box-commensurate plane waves by p0 exactly on interior sites
    box = Box(1, 20)
    H = LatticeHamiltonian(stencil1d, Potential(), box)
    n = box.sites()[:, 0]
    for k in (3, 7, 11):
        xi = 2 * np.pi * k / box.n_per_axis
        pw = np.exp(1j * xi * n)
        out = H(pw)
        assert np.allclose(out[1:-1], stencil1d.p0([xi]) * pw[1:-1], atol=1e-12)


def test_cap_profile_and_dissipativity(stencil1d, rng):
    box = Box(1, 32)
    assert cap_width(box.radius) == 4
    H = LatticeHamiltonian(stencil1d, Potential(), box, with_cap=True)
    W = H.cap_diag
    assert np.all(W >= 0)
    assert np.all(W[np.abs(box.sites()[:, 0]) <= 28] == 0.0)
    for _ in range(10):
        u = rng.standard_normal(H.dim) + 1j * rng.standard_normal(H.dim)
        assert np.imag(np.vdot(u, H(u))) <= 1e-12


def test_box_index_maps():
    box = Box(2, 3)
    assert box.site_count == 49
    for idx in range(box.site_count):
        assert box.index_of(box.sites()[idx]) == idx
    with pytest.raises(ValueError):
        box.index_of([5, 0])


def test_box_radius_vs_cap():
    # the narrowest CAP is 4 sites: radius 5 leaves no room beside a hop
    with pytest.raises(ValueError, match="radius"):
        LatticeHamiltonian(laplacian_stencil(1), Potential(), Box(1, 5), with_cap=True)
    LatticeHamiltonian(laplacian_stencil(1), Potential(), Box(1, 5))


def test_potential_forms():
    sites = Box(1, 8).sites()
    dip = Potential(mu=0.5, amplitude=2.0, form="dipole")
    v = dip.values(sites)
    n = sites[:, 0]
    assert np.allclose(v, 2.0 * n * (1 + n.astype(float) ** 2) ** (-0.75))
    with pytest.raises(ValueError):
        Potential(mu=1.5, amplitude=1.0, form="power_law")
    with pytest.raises(ValueError):
        Potential(form="table")


@st.composite
def symmetric_stencils(draw):
    coeff0 = draw(st.floats(-2, 2, allow_nan=False))
    pairs = draw(st.lists(st.tuples(st.integers(1, 3),
                                    st.complex_numbers(max_magnitude=2, allow_nan=False,
                                                       allow_infinity=False)),
                          min_size=1, max_size=3, unique_by=lambda p: p[0]))
    offsets = [(0,)]
    coeffs = [complex(coeff0)]
    for m, g in pairs:
        offsets += [(m,), (-m,)]
        coeffs += [g, np.conj(g)]
    return Stencil(dim=1, offsets=tuple(offsets), coeffs=tuple(coeffs))


@given(symmetric_stencils(), st.floats(0, 2 * np.pi))
@settings(max_examples=50, deadline=None)
def test_symbol_real_for_symmetric_stencils(stn, xi):
    assert abs(np.imag(complex(np.asarray(stn.p0([xi]), dtype=complex)))) <= 1e-12
    assert abs(np.imag(complex(np.asarray(stn.gradient([xi]), dtype=complex)[0]))) <= 1e-12


@given(symmetric_stencils())
@settings(max_examples=25, deadline=None)
def test_assembled_hermitian_for_symmetric_stencils(verify_adjoint, stn):
    H = LatticeHamiltonian(stn, Potential(), Box(1, 8))
    assert verify_adjoint(H, n_checks=5) <= 1e-12


def test_model_config_assemble(longrange_model):
    H = longrange_model.assemble(32)
    assert not H.hermitian and np.any(H.cap_diag > 0)
    Hh = longrange_model.assemble(32, with_cap=False)
    assert Hh.hermitian and not np.any(Hh.cap_diag)
    # the cubic CAP ramp reaches its full strength on the box edge
    assert np.max(H.cap_diag) == CAP_STRENGTH


@pytest.mark.parametrize("dim,radius", [(1, 40), (2, 9)])
def test_one_assembly_per_hamiltonian(dim, radius, monkeypatch):
    # products on both CAP signs, shifted() on both branches, the d = 1 band
    # and dense() all read one assembled pattern
    assembled = []
    assemble = LatticeHamiltonian._assemble

    def counted(self, *args):
        assembled.append(self)
        return assemble(self, *args)
    monkeypatch.setattr(LatticeHamiltonian, "_assemble", counted)
    H = _longrange(dim).assemble(radius, with_cap=True)
    u = np.ones(H.dim)
    H.apply(u)
    H.adjoint_apply(u)
    for sign in (+1, -1):
        H.shifted(1.0, branch_sign=sign, eps=0.25)
    if dim == 1:
        H.banded(1.0)
    H.dense()
    assert assembled == [H]


def _slice_loop_apply(H, u, diag):
    """Reference matvec: one shifted-slice update per stencil hop."""
    u = np.asarray(u)
    trail = u.shape[1:]
    grid = u.reshape(H.box.shape + trail)
    out = (diag.reshape(H.box.shape + (1,) * len(trail)) * grid).astype(complex)
    n = H.box.n_per_axis
    for o, g in H.hops:
        if any(abs(m) >= n for m in o):
            continue
        dst = tuple(slice(max(0, m), n + min(0, m)) for m in o)
        src = tuple(slice(max(0, -m), n + min(0, -m)) for m in o)
        out[dst] += g * grid[src]
    return out.reshape(u.shape)


def _longrange(dim):
    return ModelConfig(stencil=laplacian_stencil(dim),
                       potential=Potential(mu=0.5, amplitude=0.5, form="power_law"))


@pytest.mark.parametrize("dim,radius", [(1, 40), (2, 9)])
@pytest.mark.parametrize("with_cap", [False, True])
def test_sparse_matvec_matches_slice_loop(dim, radius, with_cap, rng, to_dense):
    H = _longrange(dim).assemble(radius, with_cap=with_cap)
    diag = H.onsite + H.v_diag
    fwd_diag, adj_diag = diag - 1j * H.cap_diag, diag + 1j * H.cap_diag
    block = rng.standard_normal((H.dim, 5)) + 1j * rng.standard_normal((H.dim, 5))
    for u in (block, block[:, 0].copy(), block.real.copy(), block[:, 1].real.copy()):
        for got, want in ((H(u), _slice_loop_apply(H, u, fwd_diag)),
                          (H.adjoint_apply(u), _slice_loop_apply(H, u, adj_diag))):
            assert got.shape == u.shape and got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(u))
    # dense() is H itself; shifted() is H0 + V - shift -/+ i(eps + W)
    assert np.max(np.abs(H.dense() - to_dense(H))) <= 1e-15
    for sign in (+1, -1):
        M = H.shifted(1.0, branch_sign=sign, eps=0.25)
        assert M.format == "csc"
        shifted_diag = diag - 1.0 - 1j * sign * (H.cap_diag + 0.25)
        oracle = _slice_loop_apply(H, np.eye(H.dim), shifted_diag)
        assert np.max(np.abs(M.toarray() - oracle)) <= 1e-15


@pytest.mark.parametrize("dim,radius,with_cap", [(1, 40, True), (2, 9, True), (2, 9, False)])
def test_shifted_equals_a_fresh_assembly(dim, radius, with_cap):
    # shifted() writes the diagonal into a copy of one cached CSC pattern: the
    # same data, indices and indptr as H0 + V - shift -/+ i(eps + W) built
    # anew by the slice loop, on both branches and every eps, with the
    # diagonal always stored
    H = _longrange(dim).assemble(radius, with_cap=with_cap)
    for sign in (+1, -1):
        for shift, eps in ((1.0, 0.25), (1.0, 2.0**-20), (0.0, 0.0), (H.onsite, 0.0)):
            M = H.shifted(shift, branch_sign=sign, eps=eps)
            fresh = sp.csc_array(_slice_loop_apply(H, np.eye(H.dim),
                                                   H._shifted_diag(shift, sign, eps)))
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(M, name), getattr(fresh, name))
            assert np.array_equal(M.diagonal(), H._shifted_diag(shift, sign, eps))
            assert M.nnz == fresh.nnz >= H.dim
    # each call hands out its own copy: writing one leaves the next intact
    M = H.shifted(1.0, +1, 0.25)
    M.data[:] = 0.0
    assert np.count_nonzero(H.shifted(1.0, +1, 0.25).data) > H.dim


def _norm_bound(H):
    """sum |gamma_m| + max |V| >= ||H0 + V||: a crude bound on the spectrum
    that fixes the scale of the eigensolver's rounding."""
    return sum(abs(g) for g in H.stencil.coeffs) + float(np.max(np.abs(H.v_diag)))


@pytest.mark.parametrize("dim,radius", [(1, 64), (2, 10)])
@pytest.mark.parametrize("amplitude", [0.0, 0.5])
def test_spectral_interval_encloses_dense_spectrum(dim, radius, amplitude):
    form = "power_law" if amplitude else "none"
    model = ModelConfig(stencil=laplacian_stencil(dim),
                        potential=Potential(mu=0.5, amplitude=amplitude, form=form))
    H = model.assemble(radius, with_cap=False)
    c, r = ChebyshevPlan.enclosure_for(H)
    lo, hi = c - r, c + r
    evals = np.linalg.eigvalsh(H.dense())
    slack = 1e-13 * _norm_bound(H)  # rounding of the dense eigensolver
    assert lo - slack <= evals[0] and evals[-1] <= hi + slack
    assert (hi - lo) / 2.0 <= 0.55 * _norm_bound(H)


@given(symmetric_stencils(), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_spectral_interval_encloses_random_stencils(stn, amplitude):
    H = LatticeHamiltonian(stn, Potential(mu=0.5, amplitude=amplitude, form="dipole"),
                           Box(1, 8))
    c, r = ChebyshevPlan.enclosure_for(H)
    lo, hi = c - r, c + r
    evals = np.linalg.eigvalsh(H.dense())
    slack = 1e-13 * _norm_bound(H)  # rounding of the dense eigensolver
    assert lo - slack <= evals[0] and evals[-1] <= hi + slack
