import warnings

import numpy as np
import pytest

from latscat.model import ModelConfig, Potential, laplacian_stencil
from latscat.resolvent import LAPConfig, default_epsilon_sequence
from latscat.util import SEED


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
