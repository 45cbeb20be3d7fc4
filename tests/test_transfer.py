"""Transfer-function tests against scalar closed forms and finite differences."""

import os
import subprocess
import sys as sys_module
from pathlib import Path

import numpy as np
import pytest

from qbmor import benchmarks, transfer
from conftest import random_qb, scalar_qb


# H2 of the lifted RC ladder at pairs summing to 0, where sE - A is singular,
# by a real and by a complex one-shot solve
_SINGULAR_H2 = """
import numpy as np
from qbmor import benchmarks, transfer
sys = benchmarks.rc_ladder(5)
for s1, s2 in [(1.0, -1.0), (2.0j, -2.0j)]:
    try:
        transfer.H2(sys, s1, s2)
    except np.linalg.LinAlgError:
        print("raised")
"""


def _src_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _h1_scalar(s, a=1.0):
    return 1.0 / (s + a)


def _h2_scalar(s1, s2, a=1.0, q=0.5, nu=0.0):
    x1, x2 = 1.0 / (s1 + a), 1.0 / (s2 + a)
    return (q * x1 * x2 + 0.5 * nu * (x1 + x2)) / (s1 + s2 + a)


class TestScalarClosedForms:
    a, q, nu = 1.3, 0.7, 0.4

    @pytest.fixture
    def sys(self):
        return scalar_qb(self.a, self.q, self.nu)

    @pytest.mark.parametrize("s", [0.5, 2.0, 1.0 + 2.0j])
    def test_h1(self, sys, s):
        assert np.isclose(transfer.H1(sys, s), _h1_scalar(s, self.a), rtol=1e-13)

    @pytest.mark.parametrize("s1,s2", [(0.5, 0.5), (0.3, 2.0), (1.0 + 1.0j, 2.0 - 0.5j)])
    def test_h2(self, sys, s1, s2):
        assert np.isclose(transfer.H2(sys, s1, s2),
                          _h2_scalar(s1, s2, self.a, self.q, self.nu), rtol=1e-13)

    def test_h2_symmetric_in_arguments(self, sys):
        assert np.isclose(transfer.H2(sys, 0.4, 1.9), transfer.H2(sys, 1.9, 0.4),
                          rtol=1e-13)

    def test_dh2_against_closed_form_derivative(self, sys):
        s1, s2, h = 0.8, 1.7, 1e-6
        for which, step in ((1, (h, 0)), (2, (0, h))):
            fd = (_h2_scalar(s1 + step[0], s2 + step[1], self.a, self.q, self.nu)
                  - _h2_scalar(s1 - step[0], s2 - step[1], self.a, self.q, self.nu)
                  ) / (2 * h)
            assert np.isclose(transfer.dH2(sys, s1, s2, which), fd, rtol=1e-8)


def test_conjugate_symmetry_real_system(rng):
    sys = random_qb(8, rng)
    s = 0.7 + 1.9j
    assert np.isclose(transfer.H1(sys, np.conj(s)), np.conj(transfer.H1(sys, s)),
                      rtol=1e-12)
    h2 = transfer.H2(sys, s, 2.0)
    assert np.isclose(transfer.H2(sys, np.conj(s), 2.0), np.conj(h2), rtol=1e-12)


def test_dh2_matches_central_differences(rng):
    """Both partials of H2 vs 4th-order-accurate-enough central differences."""
    h = 1e-5
    for trial in range(20):
        n = int(rng.integers(5, 15))
        sys = random_qb(n, rng, with_mass=bool(trial % 2))
        solver = transfer.PencilSolver(sys)
        s1 = float(rng.uniform(0.3, 3.0))
        s2 = float(rng.uniform(0.3, 3.0))
        for which in (1, 2):
            d = (h, 0.0) if which == 1 else (0.0, h)
            fd = (transfer.H2(sys, s1 + d[0], s2 + d[1], solver)
                  - transfer.H2(sys, s1 - d[0], s2 - d[1], solver)) / (2 * h)
            an = transfer.dH2(sys, s1, s2, which, solver)
            assert abs(an - fd) <= 1e-6 * max(abs(fd), 1e-12), \
                f"partial {which} off at n={n}, ({s1},{s2})"


def test_equal_point_partials_coincide(rng):
    sys = random_qb(10, rng)
    s = 1.4
    d1 = transfer.dH2(sys, s, s, 1)
    d2 = transfer.dH2(sys, s, s, 2)
    assert abs(d1 - d2) <= 1e-12 * max(abs(d1), 1.0)


def test_dh2_rejects_bad_argument_index(rng):
    with pytest.raises(ValueError, match="which"):
        transfer.dH2(random_qb(4, rng), 1.0, 1.0, 3)


class TestPencilSolver:
    def test_factorization_cache_shared_between_solves(self, rng):
        sys = random_qb(7, rng)
        solver = transfer.PencilSolver(sys)
        transfer.solve_x1(sys, 2.0, solver)
        transfer.solve_y1(sys, 2.0, solver)
        transfer.solve_x1(sys, 2.0 + 0.0j, solver)
        assert len(solver._cache) == 1
        assert solver.counts["factorizations"] == 1

    def test_singular_pencil_raises(self):
        # the lifted RC ladder has a rank-deficient A: sE - A is singular at
        # s = 0, yet LU finds no exactly zero pivot there
        sys = benchmarks.rc_ladder(5)
        solver = transfer.PencilSolver(sys)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            transfer.solve_x1(sys, 0.0, solver)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solver.sigma_min(0.0)
        assert not solver._cache
        transfer.solve_x1(sys, 1.0, solver)

    def test_h2_factors_once_and_caches_nothing(self, rng):
        sys = random_qb(7, rng, with_mass=True)
        solver = transfer.PencilSolver(sys)
        for s1, s2 in [(0.8, 1.1), (0.5 + 2.0j, 1.5 - 0.5j)]:
            transfer.rhs_B2(sys, s1, s2, solver)  # x1(s1), x1(s2) cached first
            before = dict(solver.counts)
            transfer.H2(sys, s1, s2, solver)
            assert solver.counts["factorizations"] == before["factorizations"] + 1
            assert complex(s1 + s2) not in solver._cache

    @pytest.mark.parametrize("s1, s2", [(0.8, 1.1), (0.3, 40.0), (0.5 + 2.0j, 1.5 - 0.5j),
                                        (2.0j, 3.0)])
    def test_h2_matches_cached_solve(self, rng, s1, s2):
        sys = random_qb(7, rng, with_mass=True)
        solver = transfer.PencilSolver(sys)
        expected = sys.C @ transfer.solve_x2(sys, s1, s2, solver)
        assert np.isclose(transfer.H2(sys, s1, s2, solver), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python-O"])
    def test_h2_at_singular_pair_sum_raises(self, flags):
        out = subprocess.run([sys_module.executable, *flags, "-c", _SINGULAR_H2],
                             capture_output=True, text=True, env=_src_env(), timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["raised"] * 2

    def test_apply_matches_dense_pencil(self, rng):
        sys = random_qb(7, rng, with_mass=True)
        solver = transfer.PencilSolver(sys)
        s = 0.3 + 2.0j
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        G = s * sys.E - sys.A
        assert np.allclose(solver.apply(s, x), G @ x, rtol=1e-13, atol=1e-13)
        assert np.allclose(solver.apply_t(s, x), G.T @ x, rtol=1e-13, atol=1e-13)

    def test_transposed_solve_is_consistent(self, rng):
        sys = random_qb(7, rng)
        solver = transfer.PencilSolver(sys)
        s = 1.5 + 0.5j
        y1 = transfer.solve_y1(sys, s, solver)
        # plain (non-conjugated) transpose: y1^T (sE - A) = C
        assert np.allclose(y1 @ (s * sys.E - sys.A), sys.C, rtol=1e-10, atol=1e-12)

    def test_x1_solves_the_pencil(self, rng):
        sys = random_qb(7, rng, with_mass=True)
        s = 0.9
        x1 = transfer.solve_x1(sys, s)
        assert np.allclose((s * sys.E - sys.A) @ x1, sys.B, rtol=1e-10, atol=1e-12)

    def test_x2_solves_the_shifted_pencil(self, rng):
        sys = random_qb(7, rng)
        solver = transfer.PencilSolver(sys)
        s1, s2 = 0.8, 1.1
        x2 = transfer.solve_x2(sys, s1, s2, solver)
        b2 = transfer.rhs_B2(sys, s1, s2, solver)
        assert np.allclose(((s1 + s2) * sys.E - sys.A) @ x2, b2, rtol=1e-10, atol=1e-12)

    def test_rhs_b2_symmetric(self, rng):
        sys = random_qb(6, rng)
        assert np.allclose(transfer.rhs_B2(sys, 0.4, 1.6),
                           transfer.rhs_B2(sys, 1.6, 0.4), rtol=1e-12)
