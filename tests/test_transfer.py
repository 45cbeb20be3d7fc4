"""Transfer-function tests against scalar closed forms and finite differences."""

import os
import subprocess
import sys as sys_module
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from qbmor import QBSystem, benchmarks, qb_model, transfer
from qbmor.qb_model import SPARSE_FACTOR_N, apply_quadratic
from qbmor.greedy import default_grid
from conftest import descriptor_qb, random_qb, scalar_qb
from test_error_bound import _GRID_SYSTEMS, _grid_points


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
        # s = 0, yet LU finds no exactly zero pivot there; with or without the
        # field-of-values data, which cannot clear it
        sys = benchmarks.rc_ladder(5)
        for solver in _solvers(sys, 0.0):
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

    @pytest.mark.parametrize("solve", ["solve", "solve_t"])
    def test_corrupted_lu_trips_the_residual_check(self, rng, solve):
        """Both cached-LU solves check their residual under __debug__, and only there."""
        sys = random_qb(7, rng)
        solver = transfer.PencilSolver(sys)
        s = 1.5 + 0.5j
        getattr(solver, solve)(s, sys.B)
        solver._lu(s).lu[0, 0] *= 2.0
        if __debug__:
            with pytest.raises(AssertionError, match="lost accuracy"):
                getattr(solver, solve)(s, sys.B)
        else:
            x = getattr(solver, solve)(s, sys.B)
            G = s * sys.E - sys.A
            assert not np.allclose((G.T if solve == "solve_t" else G) @ x, sys.B)

    def test_apply_matches_dense_pencil(self, rng):
        sys = random_qb(7, rng, with_mass=True)
        solver = transfer.PencilSolver(sys)
        s = 0.3 + 2.0j
        x = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        G = s * sys.E - sys.A
        assert np.allclose(solver.apply(s, x), G @ x, rtol=1e-13, atol=1e-13)

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


def _pencil_values(sys, solver):
    """x1, y1, x2, H2 and both dH2 partials at real, complex and conjugate points."""
    out = []
    for s1, s2 in [(5.4124, 5.4124), (1.0, 35.0), (2.0 + 3.0j, 0.7 - 1.0j)]:
        out += [transfer.solve_x1(sys, s1, solver), transfer.solve_y1(sys, s1, solver),
                transfer.solve_x2(sys, s1, s2, solver), transfer.H2(sys, s1, s2, solver),
                transfer.dH2(sys, s1, s2, 1, solver), transfer.dH2(sys, s1, s2, 2, solver)]
    return out


def _assert_paths_agree(sys, monkeypatch):
    """_pencil_values of the solver from the sparse cut on against those of the dense path."""
    assert qb_model.sparse_factors(sys)
    sparse = transfer.PencilSolver(sys)
    values = _pencil_values(sys, sparse)
    assert all(entry.lu is None for entry in sparse._cache.values())
    monkeypatch.setattr(qb_model, "SPARSE_FACTOR_N", np.inf)
    dense = transfer.PencilSolver(sys)
    assert not dense._sparse
    for got, want in zip(values, _pencil_values(sys, dense)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    return sparse


def _singular_pencil_system(n, wide):
    """E = I and A = 2 I, less the all-ones matrix if wide: 2 E - A is zero, or all ones."""
    A = 2.0 * np.eye(n) - (np.ones((n, n)) if wide else 0.0)
    return QBSystem.from_operators(np.eye(n), A, np.zeros((n, n)),
                                   sp.csr_matrix((n, n * n)), np.ones(n), np.ones(n))


class TestSparsePencil:
    """Full models from SPARSE_FACTOR_N on: band or SuperLU factors, refactored for every solve."""

    def test_sparse_and_dense_paths_agree(self, monkeypatch):
        sparse = _assert_paths_agree(benchmarks.burgers(200, 0.01), monkeypatch)
        assert sparse._pattern.kind == "band" and sparse._order is not None

    def test_superlu_and_dense_paths_agree(self, monkeypatch):
        """A band wider than BAND_MAX from the cut on (FitzHugh-Nagumo nbar=43) keeps SuperLU."""
        sparse = _assert_paths_agree(benchmarks.fitzhugh_nagumo(43), monkeypatch)
        assert sparse._pattern.kind == "sparse" and sparse._order is None

    def test_numerically_singular_pencil_raises(self):
        # lifted RC ladder: A has rank l of 2 l, so sE - A is singular at s = 0;
        # l = 50 is below the sparse cut (gbcon on the band LU of solve_once),
        # l = 64 on it (the Hager-Higham estimate on band factors)
        for ell in (50, 64):
            sys = benchmarks.rc_ladder(ell)
            assert qb_model.sparse_factors(sys) == (sys.n >= SPARSE_FACTOR_N)
            for solver in _solvers(sys, 0.0):
                for solve in (lambda: transfer.solve_x1(sys, 0.0, solver),
                              lambda: transfer.solve_y1(sys, 0.0, solver),
                              lambda: solver.solve_once(0.0, sys.B),
                              lambda: solver.solve_once(0.0, (1.0 + 1.0j) * sys.B)):
                    with pytest.raises(np.linalg.LinAlgError, match="singular"):
                        solve()
                assert not solver._cache
                transfer.solve_x1(sys, 1.0, solver)

    @pytest.mark.parametrize("n,wide,path", [
        (SPARSE_FACTOR_N - 1, True, "dense"),
        (SPARSE_FACTOR_N, False, "band"),
        (SPARSE_FACTOR_N, True, "sparse"),
    ], ids=["dense", "band", "sparse"])
    def test_exactly_singular_pencil_raises(self, n, wide, path, monkeypatch):
        # sE - A is the zero matrix, or with wide the all-ones matrix, at s = 2
        sys = _singular_pencil_system(n, wide)
        calls = _count_factorizations(monkeypatch)
        for solver in _solvers(sys, 2.0):
            assert solver._pattern.kind == path
            assert solver._sparse == (n >= SPARSE_FACTOR_N)
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                transfer.solve_x1(sys, 2.0, solver)
            assert _paths(calls) == {path}
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                solver.solve_once(2.0, sys.B)
            assert not solver._cache

    def test_inverse_norm_estimate_is_a_lower_bound(self):
        # on band factors (Burgers) and SuperLU's (FitzHugh-Nagumo nbar=43,
        # whose lifted pencil is singular at 0)
        for sys, z0 in ((benchmarks.burgers(200, 0.01), 0.0),
                        (benchmarks.fitzhugh_nagumo(43), 10.0)):
            solver = transfer.PencilSolver(sys)
            assert (solver._pattern.kind == "band") == (sys.n == 200)
            for z in (z0, 5.4124, 1e4, 3.0 + 40.0j):
                data = z * solver._E - solver._A
                lu = solver._pattern.factor(data.copy())
                exact = np.linalg.norm(np.linalg.inv(z * sys.E - sys.A), 1)
                est = transfer._inv_norm1_estimate(lu, data.dtype)
                assert 0.3 * exact <= est <= exact * (1 + 1e-12)


_BAND_SYSTEMS = {
    "rc l=50": lambda: benchmarks.rc_ladder(50),
    "burgers n=200": lambda: benchmarks.burgers(200, 0.01),
    "burgers n=300": lambda: benchmarks.burgers(300, 0.01),
    "fhn nbar=20": lambda: benchmarks.fitzhugh_nagumo(20),
    "fhn nbar=50": lambda: benchmarks.fitzhugh_nagumo(50),
    "random dense n=9": lambda: random_qb(9, np.random.default_rng(5), with_mass=True),
    "descriptor": descriptor_qb,
}


def _estimates(monkeypatch):
    """Record the condition estimates that factorizations run: gecon, gbcon and Hager-Higham."""
    calls = []

    def recorded(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(qb_model.DenseLU, "rcond", recorded(qb_model.DenseLU.rcond))
    monkeypatch.setattr(qb_model.BandLU, "rcond", recorded(qb_model.BandLU.rcond))
    monkeypatch.setattr(transfer, "_inv_norm1_estimate", recorded(transfer._inv_norm1_estimate))
    return calls


def _factors(solver, z, cached=False, fov=True):
    """True if solver._factor accepts zE - A; without fov, as before the first scan."""
    saved = solver._fov
    if not fov:
        solver._fov = None
    try:
        solver._factor(z, cached)
        return True
    except np.linalg.LinAlgError as exc:
        assert "singular" in str(exc)
        return False
    finally:
        solver._fov = saved


def _with_field_of_values(solver):
    """The solver after a scan's sigma_min_lower, which computes its field-of-values data."""
    solver.sigma_min_lower(1.0)
    assert solver._fov is not None
    return solver


def _solvers(sys, singular):
    """A fresh solver, and one whose field-of-values data do not clear the singular point."""
    solver = _with_field_of_values(transfer.PencilSolver(sys))
    assert not solver._fov_bound(singular) >= solver._margin_unit(singular)
    return transfer.PencilSolver(sys), solver


@pytest.mark.parametrize("name", sorted(_GRID_SYSTEMS) + ["descriptor", "burgers n=200"])
def test_field_of_values_skip_is_sound(name, monkeypatch):
    """A pencil whose condition estimate the field-of-values bound skips passes the estimate.

    At the greedy's grid, on the imaginary axis, at pair sums, at 0 and on
    negative reals; in complex and, for real z, real arithmetic; below the
    sparse cut for the cached and the one-shot factors.  Without the data
    (before a scan) the estimate always runs.
    """
    sys = {"descriptor": descriptor_qb, "burgers n=200": _BAND_SYSTEMS["burgers n=200"],
           **_GRID_SYSTEMS}[name]()
    points = np.concatenate([_grid_points(), [0.0, -1.0, -50.0], -0.5 * default_grid()[::7]])
    solver = transfer.PencilSolver(sys)
    estimates = _estimates(monkeypatch)
    assert _factors(solver, 5.4124) and estimates
    _with_field_of_values(solver)
    cleared = 0
    for s in map(complex, points):
        cases = ([(s, False)] + [(s.real, False)] * (s.imag == 0)
                 + [(s, True)] * (not solver._sparse))
        for z, cached in cases:
            estimates.clear()
            accepted = _factors(solver, z, cached)
            if accepted and not estimates:
                cleared += 1
                assert _factors(solver, z, cached, fov=False) and estimates, (name, z, cached)
    assert cleared > 0


def _count_factorizations(monkeypatch):
    """Count the factorizations by path: dense LU, band LU and SuperLU; returns the counter."""
    calls = {"dense": 0, "band": 0, "sparse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qb_model.DenseLU, "__init__", counted("dense", qb_model.DenseLU.__init__))
    monkeypatch.setattr(qb_model.BandLU, "__init__", counted("band", qb_model.BandLU.__init__))
    monkeypatch.setattr(qb_model.spla, "splu", counted("sparse", qb_model.spla.splu))
    return calls


def _paths(calls):
    """The paths that factored since the last call, which resets the counter."""
    used = {name for name, count in calls.items() if count}
    calls.update(dict.fromkeys(calls, 0))
    return used


class TestBandPencil:
    """Uncached factorizations: a band LU of the RCM-ordered pencil, else dense LU or SuperLU."""

    @pytest.mark.parametrize("name", sorted(_BAND_SYSTEMS))
    def test_solve_once_matches_solve(self, name):
        sys = _BAND_SYSTEMS[name]()
        solver = transfer.PencilSolver(sys)
        g = np.random.default_rng(sys.n)
        b_complex = g.standard_normal(sys.n) + 1j * g.standard_normal(sys.n)
        for s, b in [(5.4124, sys.B), (3.0 + 40.0j, sys.B), (119.5642, b_complex)]:
            want = solver.solve(s, b)
            got = solver.solve_once(s, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), s
        assert (solver._pattern.kind == "sparse") == (qb_model.sparse_factors(sys)
                                                      and not solver._pattern.narrow)

    @pytest.mark.parametrize("make, bandwidths", [
        (lambda: benchmarks.rc_ladder(50), (3, 3)),
        (lambda: benchmarks.burgers(300, 0.01), (1, 1)),
        (lambda: benchmarks.fitzhugh_nagumo(20), (36, 38)),
    ], ids=["rc l=50", "burgers n=300", "fhn nbar=20"])
    def test_rcm_bandwidths(self, make, bandwidths):
        solver = transfer.PencilSolver(make())
        band = solver._pattern
        assert (band.kl, band.ku) == bandwidths
        # the order of the joint pattern of E and A alone
        pattern = (abs(solver.E) + abs(solver.A)).tocsr()
        assert np.array_equal(band.perm, reverse_cuthill_mckee(pattern, symmetric_mode=False))
        # band storage on a narrow band; FitzHugh-Nagumo's wide one is held dense below the cut
        assert solver._E.shape == solver._A.shape == band.shape == (
            (2 * band.kl + band.ku + 1, solver.sys.n) if band.narrow else (solver.sys.n,) * 2)

    @pytest.mark.parametrize("make, cached, once", [
        (lambda: benchmarks.rc_ladder(50), "dense", "band"),
        (lambda: benchmarks.burgers(300, 0.01), "band", "band"),
        (lambda: benchmarks.fitzhugh_nagumo(20), "dense", "dense"),
        (lambda: benchmarks.fitzhugh_nagumo(43), "sparse", "sparse"),
    ], ids=["rc l=50", "burgers n=300", "fhn nbar=20", "fhn nbar=43"])
    def test_path_selection(self, make, cached, once, monkeypatch):
        """solve, solve_t and dH2 factor on the `cached` path, solve_once on the `once` path."""
        sys = make()
        solver = transfer.PencilSolver(sys)
        calls = _count_factorizations(monkeypatch)
        s1, s2 = 5.4124, 3.0 + 40.0j
        for solve in (lambda: solver.solve(s1, sys.B), lambda: solver.solve_t(s2, sys.C),
                      lambda: transfer.dH2(sys, s1, s2, 1, solver)):
            solve()
            assert _paths(calls) == {cached}
        for s, b in [(s1 + s2, sys.B), (2 * s1, sys.B)]:
            solver.solve_once(s, b)
            assert _paths(calls) == {once}

    def test_band_solve_t_matches_dense(self, monkeypatch):
        sys = benchmarks.burgers(300, 0.01)
        band = transfer.PencilSolver(sys)
        assert band._sparse and band._pattern.kind == "band"
        monkeypatch.setattr(qb_model, "SPARSE_FACTOR_N", np.inf)
        dense = transfer.PencilSolver(sys)
        g = np.random.default_rng(3)
        b_complex = g.standard_normal(sys.n) + 1j * g.standard_normal(sys.n)
        for s, b in [(5.4124, sys.C), (3.0 + 40.0j, sys.C), (119.5642, b_complex)]:
            want = dense.solve_t(s, b)
            got = band.solve_t(s, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), s


@pytest.mark.parametrize("sys", [
    pytest.param(benchmarks.burgers(200, 0.01), id="burgers n=200"),
    pytest.param(benchmarks.rc_ladder(50), id="rc l=50"),
    pytest.param(random_qb(9, np.random.default_rng(3), q_scale=1.0), id="random n=9"),
])
def test_gather_bit_identical_to_outer_product(sys):
    g = np.random.default_rng(sys.n)
    u, v = (g.standard_normal(sys.n) + 1j * g.standard_normal(sys.n) for _ in range(2))
    for Q in (sys.Q, sys.mode2()):
        assert np.array_equal(apply_quadratic(Q, u, v), Q @ np.multiply.outer(u, v).ravel())
        assert np.array_equal(apply_quadratic(Q, u.real, v),
                              Q @ np.multiply.outer(u.real, v).ravel())
