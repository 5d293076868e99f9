import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from latscat.model import LatticeHamiltonian, LinearMap, ModelConfig, Potential, laplacian_stencil
from latscat.resolvent import LAPConfig, default_epsilon_sequence
from latscat.util import SEED, product_grid


@pytest.fixture(autouse=True)
def _quiet_tail_warnings():
    # the Gevrey bumps sit at warn-level tail mass on mid-size boxes; the
    # escalation-to-error path is tested explicitly in test_quantize
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="op_h: xi Fourier tail",
                                category=RuntimeWarning)
        yield


@pytest.fixture(scope="session")
def stencil1d():
    return laplacian_stencil(1)


@pytest.fixture(scope="session")
def free_model():
    return ModelConfig(stencil=laplacian_stencil(1), potential=Potential())


@pytest.fixture(scope="session")
def longrange_model():
    return ModelConfig(stencil=laplacian_stencil(1),
                       potential=Potential(mu=0.5, amplitude=0.5, form="power_law"))


@pytest.fixture(scope="session")
def deep_lap():
    return LAPConfig(lam=1.0, epsilon_sequence=default_epsilon_sequence(3, 24),
                     convergence_tol=2.5e-4)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def verify_adjoint():
    """The oracle A -> max relative defect of <Au, v> = <u, A* v> over
    `n_checks` random pairs."""

    def defect(A, n_checks=20, seed=SEED):
        g = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n_checks):
            u = g.standard_normal(A.dim) + 1j * g.standard_normal(A.dim)
            v = g.standard_normal(A.dim) + 1j * g.standard_normal(A.dim)
            lhs = np.vdot(v, A(u))
            rhs = np.vdot(A.adjoint_apply(v), u)
            worst = max(worst, abs(lhs - rhs) / (np.linalg.norm(u) * np.linalg.norm(v)))
        return worst

    return defect


@pytest.fixture(scope="session")
def to_dense():
    """The oracle A -> its matrix, materialized column by column (small
    boxes only)."""

    def dense(A):
        out = np.zeros((A.dim, A.dim), dtype=complex)
        for j in range(A.dim):
            e = np.zeros(A.dim, dtype=complex)
            e[j] = 1.0
            out[:, j] = A(e)
        return out

    return dense


@pytest.fixture(scope="session")
def dense_kernel():
    """The oracle (a, h, box) -> the N x N matrix of Op^h(a) for a pointwise
    symbol a(x, xi) of (..., d) points, sampled on the box momentum grid:
    M[i, j] = (1/N) sum_k a(h n_i, xi_k) e^{i (n_i - n_j).xi_k} (small boxes
    only)."""

    def dense(a, h, box):
        sites = box.sites().astype(float)
        xi = product_grid(box.xi_axis(), box.dim).reshape(-1, box.dim)
        vals = np.asarray(a(h * sites[:, None, :], xi[None, :, :]), dtype=complex)
        assert vals.shape == (box.site_count, box.site_count)
        phase = np.exp(1j * (sites @ xi.T))
        return (vals * phase) @ phase.conj().T / box.site_count

    return dense


@pytest.fixture(scope="session")
def exact_outgoing():
    """The oracle (box, lam) -> (H0 - lam - i0)^(-1) of the free d = 1
    Laplacian, p0 = 1 - cos xi, on the box with the exact outgoing boundary,
    as a LinearMap. One site past either edge the outgoing wave is
    e^{i theta} times its edge value, theta = arccos(1 - lam), so the hop
    that Dirichlet truncation drops there folds into the edge diagonal: the
    CAP-free band of H0 - lam at eps = 0, with -1/2 e^{i theta} added to its
    first and last diagonal entries. No absorber and no epsilon: the solve
    is the whole-line outgoing resolvent restricted to the box."""

    def solver(box, lam):
        ab = LatticeHamiltonian(laplacian_stencil(1), Potential(), box).banded(shift=lam)
        ab[1, [0, -1]] -= 0.5 * np.exp(1j * np.arccos(1.0 - lam))
        # H0 - lam is complex symmetric, so the adjoint's band is the conjugate
        return LinearMap(box.site_count, lambda u: sla.solve_banded((1, 1), ab, u),
                         lambda u: sla.solve_banded((1, 1), np.conj(ab), u),
                         label="R+ exact")

    return solver
