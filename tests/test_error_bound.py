"""Residual error-bound tests: beta, empty/full-space degeneracies, validity."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor import benchmarks, projection, qb_model, transfer
from qbmor.error_bound import BoundEvaluator, beta
from qbmor.greedy import default_grid
from qbmor.qb_model import QBSystem
from conftest import descriptor_qb, near_singular_diagonal_qb, random_qb
from test_greedy import _LAZY_SCAN_CASES


def test_beta_is_inverse_resolvent_norm(rng):
    sys = random_qb(8, rng, with_mass=True)
    s = 1.7
    G = s * sys.E - sys.A
    assert np.isclose(beta(sys, s), 1.0 / np.linalg.norm(np.linalg.inv(G), 2),
                      rtol=1e-10)
    assert np.isclose(beta(sys, s), sla.svdvals(G)[-1], rtol=1e-12)


def test_beta_cache_reused(rng):
    sys = random_qb(6, rng)
    ev = BoundEvaluator(sys)
    v1 = ev.beta(2.0)
    ev.solver._cache[2.0 + 0.0j].sigma_min = -1.0  # poison the cache to prove reuse
    assert ev.beta(2.0) == -1.0
    assert beta(sys, 2.0, ev.solver) == -1.0
    assert v1 > 0
    assert ev.solver.counts == {"factorizations": 0, "sigma_min_evals": 1}
    # sigma_min and the solves at a frequency share one cache entry
    transfer.solve_x1(sys, 2.0, ev.solver)
    transfer.solve_y1(sys, 3.0, ev.solver)
    ev.beta(3.0)
    assert len(ev.solver._cache) == 2
    assert ev.solver.counts == {"factorizations": 2, "sigma_min_evals": 2}
    assert ev.beta(2.0) == -1.0


def _decoupled_qb(n=8):
    """A lightly damped oscillator and n - 2 real modes -1, -2, ..., with no coupling.

    sigma_min(sE - A) moves from one part to the other along the grids, and
    the singular vectors of one part have no component in the other.  A
    Krylov estimate started from the previous frequency's singular vector
    therefore stays in the wrong part and overestimates sigma_min by up to
    67% on these grids (n = 8).  Its Q is sparse, so from n = 128 on the
    system is above the sparse cut.
    """
    A = sla.block_diag([[-0.1, 10.0], [-10.0, -0.1]], -np.diag(np.arange(1.0, n - 1)))
    return QBSystem.from_operators(np.eye(n), A, np.zeros((n, n)), sp.csr_matrix((n, n * n)),
                                   np.ones(n), np.ones(n))


_GRID_SYSTEMS = {
    "rc_ladder": lambda: benchmarks.rc_ladder(50),
    "burgers": lambda: benchmarks.burgers(100, 0.01),
    "fhn": lambda: benchmarks.fitzhugh_nagumo(20),
    "random": lambda: random_qb(20, np.random.default_rng(5), with_mass=True),
    "decoupled": _decoupled_qb,
}


def _grid_points():
    """The real, imaginary and pair-sum grids of the greedy."""
    g = default_grid()
    return np.concatenate([g, 1j * g, (g[::10, None] + g[None, :]).ravel()])


def _visiting_orders(points):
    """Forward, reversed and shuffled."""
    return points, points[::-1], np.random.default_rng(0).permutation(points)


def _svdvals_min(sys, points):
    return {complex(s): sla.svdvals(complex(s) * sys.E - sys.A)[-1] for s in points}


@pytest.mark.parametrize("name", sorted(_GRID_SYSTEMS))
def test_beta_matches_svdvals_on_grids(name):
    """beta against the complex dense svdvals on the real, imaginary and pair-sum grids.

    beta must not overestimate sigma_min, or delta would fall below the
    true error.  Forward, reversed and shuffled visits show that beta does
    not depend on the frequencies evaluated before, and it needs no
    factorization.
    """
    sys = _GRID_SYSTEMS[name]()
    points = _grid_points()
    ref = _svdvals_min(sys, points)
    for order in _visiting_orders(points):
        solver = transfer.PencilSolver(sys)
        for s in order:
            b = beta(sys, s, solver)
            assert abs(b - ref[complex(s)]) <= 1e-10 * ref[complex(s)], (name, s)
        assert solver.counts == {"factorizations": 0, "sigma_min_evals": len(ref)}


@pytest.mark.parametrize("name", sorted(_GRID_SYSTEMS) + ["descriptor", "burgers n=200"])
def test_sigma_min_lower_is_certified(name):
    """sigma_min_lower never exceeds the complex dense svdvals, and needs no factorization.

    Checked on the grid points and on negative reals, first from the field
    of values alone (one array call), then point by point in three orders,
    where the sigma_min already computed serve as Weyl anchors; once
    sigma_min(t) is cached the bound at t is that value.
    """
    sys = {"descriptor": descriptor_qb, **_BAND_SYSTEMS, **_GRID_SYSTEMS}[name]()
    points = np.concatenate([_grid_points(), -0.5 * default_grid()[::7]])
    ref = _svdvals_min(sys, points)
    for order in _visiting_orders(points):
        solver = transfer.PencilSolver(sys)
        assert np.all(solver.sigma_min_lower(order) <= [ref[complex(s)] for s in order])
        for s in order:
            if solver.cached_sigma_min(s) is None:  # grid points can repeat
                assert solver.sigma_min_lower(s) <= ref[complex(s)], (name, s)
            sigma = solver.sigma_min(s)
            assert solver.sigma_min_lower(s) == sigma
        assert solver.counts == {"factorizations": 0, "sigma_min_evals": len(ref)}


def _diagonal_qb(n=128):
    """E = I and A = -diag(1, ..., n) at the sparse cut, with a sparse Q.

    sigma_min(sE - A) = min_j |s + j| is the smallest column norm of the
    pencil, where the band certificate starts its search.
    """
    return QBSystem.from_operators(np.eye(n), -np.diag(np.arange(1.0, n + 1)), np.zeros((n, n)),
                                   sp.csr_matrix((n, n * n)), np.ones(n), np.ones(n))


# systems above the sparse cut whose pencils have a narrow reverse Cuthill-McKee band
_BAND_SYSTEMS = {
    "burgers n=200": lambda: benchmarks.burgers(200, 0.01),
    "burgers n=300": lambda: benchmarks.burgers(300, 0.01),
    "decoupled n=200": lambda: _decoupled_qb(200),
    "diagonal n=128": _diagonal_qb,
}


def _count_calls(monkeypatch, module, name):
    """Replace module.name with a wrapper that counts its calls; returns the count list."""
    calls = []
    kernel = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("name", sorted(_BAND_SYSTEMS))
def test_band_certificate_brackets_svdvals(name, monkeypatch):
    """The band-Cholesky sigma_min lies between (1 - 1e-6) svdvals and the complex svdvals.

    On the real, imaginary and pair-sum grids, visited forward, reversed
    and shuffled, with no dense svdvals, no SuperLU factorization and no
    factorization counted.
    """
    sys = _BAND_SYSTEMS[name]()
    points = _grid_points()
    ref = _svdvals_min(sys, points)
    svdvals = _count_calls(monkeypatch, transfer.sla, "svdvals")
    splu = _count_calls(monkeypatch, qb_model.CscPattern, "splu")
    for order in _visiting_orders(points):
        solver = transfer.PencilSolver(sys)
        assert solver._order is not None
        for s in order:
            sigma, exact = solver.sigma_min(s), ref[complex(s)]
            assert (1 - 1e-6) * exact <= sigma <= exact, (name, s, sigma / exact - 1)
        assert solver.counts == {"factorizations": 0, "sigma_min_evals": len(ref)}
    assert not svdvals
    assert not splu


@pytest.mark.parametrize("name", sorted(_BAND_SYSTEMS))
def test_band_field_of_values_bounds_eigvalsh_outward(name, monkeypatch):
    sys = _BAND_SYSTEMS[name]()
    E, A = sys.E, sys.A
    lam_E = sla.eigvalsh(0.5 * (E + E.T))
    lam_A = sla.eigvalsh(0.5 * (A + A.T))[-1]
    eigvalsh = _count_calls(monkeypatch, transfer.sla, "eigvalsh")
    lam_E_min, lam_E_max, _, lam_A_max, _, eta_A = transfer.PencilSolver(sys)._field_of_values()
    assert not eigvalsh
    assert lam_E_min <= lam_E[0] and lam_E_max >= lam_E[-1] and lam_A_max >= lam_A
    tol = 1e-9 * max(abs(lam_E).max(), eta_A)
    assert lam_E[0] - lam_E_min <= tol and lam_E_max - lam_E[-1] <= tol
    assert lam_A_max - lam_A <= tol


def test_wide_band_keeps_svdvals(monkeypatch):
    """FitzHugh-Nagumo nbar=43 is above the sparse cut, but its band is about n wide."""
    sys = benchmarks.fitzhugh_nagumo(43)
    svdvals = _count_calls(monkeypatch, transfer.sla, "svdvals")
    eigvalsh = _count_calls(monkeypatch, transfer.sla, "eigvalsh")
    solver = transfer.PencilSolver(sys)
    assert solver._pattern is not None and solver._order is None
    band = qb_model.BandPattern(sys.n, (solver.E, solver.A))
    assert band.kl + band.ku > qb_model.BAND_MAX and not band.narrow
    sigma = solver.sigma_min(10.0)
    assert len(svdvals) == 1 and sigma == sla.svdvals(10.0 * sys.E - sys.A)[-1]
    solver.sigma_min_lower(20.0)
    assert len(eigvalsh) == 2


@pytest.mark.parametrize("make,s", [(lambda: benchmarks.rc_ladder(64), 0.0),
                                    (near_singular_diagonal_qb, 1.0)],
                         ids=["rc l=64, exactly singular", "numerically singular"])
def test_band_certificate_refuses_singular_pencils(make, s):
    sys = make()
    solver = transfer.PencilSolver(sys)
    assert solver._order is not None
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solver.sigma_min(s)
    assert solver.cached_sigma_min(s) is None and not solver._cache


class TestEmptyBases:
    def test_conventions(self, rng):
        sys = random_qb(6, rng)
        ev = BoundEvaluator(sys)
        r_pr, r_du = ev.residuals_1(1.0)
        assert np.allclose(r_pr, sys.B)
        assert np.allclose(r_du, -sys.C)
        assert ev.h1_rom(1.0) == 0.0
        assert ev.h2_rom(1.0, 2.0) == 0.0
        r_pr, r_du = ev.residuals_2(1.0, 2.0)
        assert np.array_equal(r_pr, transfer.rhs_B2(sys, 1.0, 2.0))
        assert np.array_equal(r_du, -sys.C)
        # bound reduces to ||B|| ||C|| / beta
        expect = np.linalg.norm(sys.B) * np.linalg.norm(sys.C) / beta(sys, 1.0)
        assert np.isclose(ev.delta1(1.0), expect, rtol=1e-12)

    def test_empty_bound_dominates_h1(self, rng):
        sys = random_qb(6, rng)
        ev = BoundEvaluator(sys)
        for s in (0.5, 1.0, 4.0):
            assert ev.delta1(s) >= abs(transfer.H1(sys, s))


class TestFullSpaceBases:
    def test_deltas_vanish(self, rng):
        n = 8
        sys = random_qb(n, rng, with_mass=True)
        ev = BoundEvaluator(sys)
        I = np.eye(n)
        ev.set_bases_1(I, I)
        ev.set_bases_2(I, I)
        scale1 = abs(transfer.H1(sys, 1.0))
        for s in (0.7, 1.0, 3.0):
            assert ev.delta1(s) <= 1e-10 * max(scale1, 1.0)
            assert ev.delta2(s, 1.3) <= 1e-10
            assert ev.true_error_1(s) <= 1e-10 * max(scale1, 1.0)
            assert ev.true_error_2(s, 1.3) <= 1e-10


def test_bound_dominates_true_error_random_system(rng):
    """Residual bound validity on a random system with partially built bases."""
    sys = random_qb(30, rng)
    solver = transfer.PencilSolver(sys)
    ev = BoundEvaluator(sys, solver)
    V1 = W1 = V2 = W2 = np.zeros((30, 0))
    from qbmor.projection import orth_extend

    grid = np.logspace(-1, 3, 25)
    for s1, s2 in [(1.0, 1.0), (10.0, 5.0)]:
        V1, _ = orth_extend(V1, transfer.solve_x1(sys, s1, solver))
        W1, _ = orth_extend(W1, transfer.solve_y1(sys, s1, solver))
        V2, _ = orth_extend(V2, np.column_stack([
            transfer.solve_x1(sys, s2, solver),
            transfer.solve_x2(sys, s1, s2, solver),
            transfer.solve_x1(sys, s1 + s2, solver)]))
        W2, _ = orth_extend(W2, np.column_stack([
            transfer.solve_y1(sys, s1 + s2, solver),
            transfer.solve_y2(sys, s1, s2, solver),
            transfer.solve_y2(sys, s2, s1, solver)]))
        ev.set_bases_1(V1, W1)
        ev.set_bases_2(V2, W2)
        h1_scale = max(abs(transfer.H1(sys, s, solver)) for s in grid)
        for s in grid:
            assert ev.delta1(s) + 1e-10 * h1_scale >= ev.true_error_1(s)
            assert ev.delta2(s, 2.0) + 1e-10 >= ev.true_error_2(s, 2.0)


def test_interpolation_points_have_tiny_residuals(rng):
    # at an interpolated frequency the primal residual is orthogonal to W
    sys = random_qb(12, rng)
    solver = transfer.PencilSolver(sys)
    ev = BoundEvaluator(sys, solver)
    from qbmor.projection import orth_extend
    s0 = 2.0
    V1, _ = orth_extend(np.zeros((12, 0)), transfer.solve_x1(sys, s0, solver))
    W1, _ = orth_extend(np.zeros((12, 0)), transfer.solve_y1(sys, s0, solver))
    ev.set_bases_1(V1, W1)
    r_pr, _ = ev.residuals_1(s0)
    assert np.linalg.norm(r_pr) <= 1e-8 * np.linalg.norm(sys.B)
    assert ev.true_error_1(s0) <= 1e-9


def _per_point(solver, V, W, z, b):
    """The bound's numerator and C_r x_r at one point, one solve and sparse product at a time."""
    V, W = projection.square_bases(V, W)
    Er, Ar, _, Cr = projection.project_linear(solver.sys, V, W)
    G = z * Er - Ar
    x = np.linalg.solve(G, W.T @ b)
    y = np.linalg.solve(G.T, -Cr)
    r_pr = b - solver.apply(z, V @ x)
    r_du = -solver.sys.C - (z * (solver.E.T @ (W @ y)) - solver.A.T @ (W @ y))
    return np.linalg.norm(r_pr) * np.linalg.norm(r_du), Cr @ x


@pytest.mark.parametrize("name", sorted(_LAZY_SCAN_CASES))
def test_scan_batches_match_per_point_evaluation(name):
    """Batched numerators, reduced transfer values and true errors against point-by-point ones.

    The reference evaluates each point on its own: two reduced solves, the
    residuals from sparse products, B2 from ``transfer.rhs_B2``, H1 from x1
    and H2 from a one-shot solve.  The batch of one of the per-point methods
    is checked too.  Numerators may differ by 1e-10 times the largest
    numerator on the grid, transfer values and true errors by 1e-10 times
    the largest |H|.
    """
    make, sigma0, _ = _LAZY_SCAN_CASES[name]
    sys_ = make()
    solver = transfer.PencilSolver(sys_)
    grid = default_grid()
    V1, W1, V2, W2 = projection.subsystem_bases(sys_, [(sigma0, sigma0), (grid[10], grid[30])],
                                                solver)
    ev = BoundEvaluator(sys_, solver)
    ev.set_bases_1(V1, W1)
    ev.set_bases_2(V2, W2)
    s1 = grid[20]

    def reference_1(s):
        num, h_rom = _per_point(solver, V1, W1, complex(s), sys_.B)
        return num, h_rom, sys_.C @ solver.x1(s)

    def reference_2(s):
        z, b2 = complex(s1) + complex(s), transfer.rhs_B2(sys_, s1, s, solver)
        num, h_rom = _per_point(solver, V2, W2, z, b2)
        return num, h_rom, sys_.C @ solver.solve_once(z, b2)

    scans = [(ev.scan_1(grid), reference_1,
              lambda s: (ev.delta1(s) * ev.beta(s), ev.h1_rom(s), ev.true_error_1(s))),
             (ev.scan_2(s1, grid), reference_2,
              lambda s: (ev.delta2(s1, s) * ev.beta(complex(s1) + complex(s)), ev.h2_rom(s1, s),
                         ev.true_error_2(s1, s)))]
    for batch, reference, one in scans:
        num, h_rom, h = np.array([reference(s) for s in grid]).T
        true = np.abs(h - h_rom)
        tol_num, tol_h = 1e-10 * num.real.max(), 1e-10 * np.abs(h).max()
        assert np.abs(batch.nums - num).max() <= tol_num
        assert np.abs(batch.h_rom - h_rom).max() <= tol_h
        if batch.rhs is not None:
            for i, s in enumerate(grid):
                assert np.array_equal(batch.rhs[:, i], transfer.rhs_B2(sys_, s1, s, solver))
        assert np.abs(ev.true_errors(batch, np.ones(len(grid), bool)) - true).max() <= tol_h
        one_num, one_h_rom, one_true = np.array([one(s) for s in grid]).T
        assert np.abs(one_num - num).max() <= tol_num
        assert np.abs(one_h_rom - h_rom).max() <= tol_h
        assert np.abs(one_true - true).max() <= tol_h
