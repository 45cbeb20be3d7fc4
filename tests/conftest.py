import numpy as np
import pytest
import scipy.sparse as sp

from qbmor import QBSystem
from qbmor.qb_model import SPARSE_FACTOR_N


def random_qb(n, rng, q_scale=0.1, n_scale=0.1, with_mass=False, density=0.3):
    """Random stable SISO QB system with a regular pencil.

    A is shifted to be strictly stable; the optional mass matrix is a
    well-conditioned perturbation of the identity.
    """
    A = rng.standard_normal((n, n))
    A = A - (np.linalg.norm(A, 2) + 1.0) * np.eye(n)
    E = np.eye(n)
    if with_mass:
        M = rng.standard_normal((n, n))
        E = np.eye(n) + 0.2 * (M + M.T) / (2 * np.linalg.norm(M, 2))
    N = n_scale * rng.standard_normal((n, n))
    Q = sp.random(n, n * n, density=density,
                  random_state=np.random.RandomState(rng.integers(2**31)),
                  data_rvs=rng.standard_normal)
    B = rng.standard_normal(n)
    C = rng.standard_normal(n)
    return QBSystem.from_operators(E, A, N, q_scale * sp.csr_matrix(Q), B, C)


def descriptor_qb():
    """A regular pencil whose E is singular and has a large skew part.

    Two algebraic states make E singular.  On the imaginary axis the skew
    part of E moves sigma_min(sE - A) about 3 below the field-of-values
    bound that leaves the |y| ||E_k|| term out.
    """
    rng = np.random.default_rng(3)
    n = 10
    M = rng.standard_normal((8, 8))
    E = np.zeros((n, n))
    E[:8, :8] = np.eye(8) + 3 * (M - M.T) / np.linalg.norm(M - M.T, 2)
    A = -5 * np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    return QBSystem.from_operators(E, A, np.zeros((n, n)), sp.csr_matrix((n, n * n)),
                                   np.ones(n), np.ones(n))


def near_singular_diagonal_qb():
    """E = I and A diagonal at n = SPARSE_FACTOR_N, with 1 E - A = diag(2, ..., 2, 1e-14).

    At s = 1 the pencil's rcond (5e-15) passes the eps test, but sigma_min
    is below n eps ||sE - A||, so the sigma_min test refuses it.
    """
    n = SPARSE_FACTOR_N
    a = np.full(n, -1.0)
    a[-1] = 1.0 - 1e-14
    return QBSystem.from_operators(np.eye(n), np.diag(a), np.zeros((n, n)),
                                   sp.csr_matrix((n, n * n)), np.ones(n), np.ones(n))


def scalar_qb(a=1.0, q=0.5, nu=0.0, x0=0.0):
    """1-D system x' = -a x + q x^2 + nu x u + u, x(0) = x0, y = x.

    Closed forms used as oracles:
        H1(s) = 1/(s+a)
        H2(s1,s2) = (q x1(s1) x1(s2) + nu (x1(s1)+x1(s2))/2) / (s1+s2+a)
    """
    return QBSystem.from_operators(
        np.array([[1.0]]), np.array([[-a]]), np.array([[nu]]),
        sp.csr_matrix(np.array([[q]])), np.array([1.0]), np.array([1.0]), x0=[x0])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
