"""Greedy selection loop tests: convergence, validity, determinism, trace I/O."""

import dataclasses
import functools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from qbmor import benchmarks, greedy, projection, qb_model, transfer
from qbmor.error_bound import BoundEvaluator
from qbmor.greedy import GreedyConfig, default_grid, read_trace, run_greedy, write_trace
from conftest import random_qb


def _config(**kw):
    base = dict(sigma10=1.0, sigma20=1.0, S1=default_grid(0.1, 100, 20),
                S2=default_grid(0.1, 100, 20), eps_tol=1e-6, max_iters=15)
    base.update(kw)
    return GreedyConfig(**base)


class TestConfigValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            _config(S1=np.array([]))

    def test_eps_tol_range(self):
        with pytest.raises(ValueError, match="eps_tol"):
            _config(eps_tol=1.5)
        with pytest.raises(ValueError, match="eps_tol"):
            _config(eps_tol=0.0)

    def test_max_iters_positive(self):
        with pytest.raises(ValueError, match="max_iters"):
            _config(max_iters=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
    @pytest.mark.parametrize("field", ["sigma10", "sigma20", "S1", "S2"])
    def test_non_finite_frequency_rejected(self, field, bad):
        value = np.append(default_grid(0.1, 100, 20), bad) if field in ("S1", "S2") else bad
        with pytest.raises(ValueError, match="finite"):
            _config(**{field: value})


@pytest.mark.parametrize("lo,hi", [(-1, 1e4), (0, 1e4), (np.nan, 1e4), (1.0, np.inf)])
def test_default_grid_rejects_bad_bounds_before_log10(lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's log10 warning would surface here
        with pytest.raises(ValueError, match="finite and positive"):
            default_grid(lo, hi)


def test_default_grid_shape_and_range():
    g = default_grid()
    assert len(g) == 50
    assert np.isclose(g[0], 1e0) and np.isclose(g[-1], 1e4)
    gi = default_grid(imag=True)
    assert len(gi) == 100
    assert np.all(gi[50:].real == 0)


def test_converges_on_random_system_and_bound_dominates(rng):
    sys = random_qb(30, rng)
    cfg = _config(validate_true_error=True)
    res = run_greedy(sys, cfg)
    assert res.converged
    assert res.trace[-1].delta <= cfg.eps_tol
    # the reported bound dominates the true error at every evaluated point
    for it, kind, point, bound, true in res.validation:
        assert true <= bound * (1 + 1e-10) + 1e-14, \
            f"{kind} at {point} (iter {it}): true {true:.3e} > bound {bound:.3e}"
    # and the trace delta dominates the max true error per iteration
    for row in res.trace:
        assert row.true_error_max <= row.delta * (1 + 1e-10) + 1e-14


def test_deterministic_traces(rng):
    sys = random_qb(20, rng)
    cfg = _config()
    t1 = [dataclasses.astuple(r)[:-1] for r in run_greedy(sys, cfg).trace]
    t2 = [dataclasses.astuple(r)[:-1] for r in run_greedy(sys, cfg).trace]
    assert t1 == t2  # exact float equality, wall time excluded


def test_selected_points_not_revisited(rng):
    sys = random_qb(20, rng)
    res = run_greedy(sys, _config(eps_tol=1e-12, max_iters=6))
    s1s = [p[0] for p in res.pairs]
    assert len(set(s1s)) == len(s1s)


def test_final_bases_are_balanced_and_orthonormal(rng):
    sys = random_qb(20, rng)
    res = run_greedy(sys, _config(max_iters=4, eps_tol=1e-12))
    V, W = res.V, res.W
    assert V.shape == W.shape
    assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-10)
    assert np.allclose(W.T @ W, np.eye(W.shape[1]), atol=1e-10)


def test_reduce_final_interpolates_selected_pairs(rng):
    sys = random_qb(25, rng)
    res = run_greedy(sys, _config(max_iters=3, eps_tol=1e-13))
    rom = greedy.reduce_final(sys, res.V, res.W)
    report = projection.verify_hermite(sys, rom, res.pairs)
    assert max(r["rel_err"] for r in report) <= 1e-7


def test_reduce_final_falls_back_to_one_sided(rng):
    """Where W^T E V is singular, reduce_final warns and returns the W := V ROM."""
    sys = random_qb(8, rng)  # E = I
    V, W = np.eye(8)[:, :3], np.eye(8)[:, 3:6]  # W^T E V = 0
    with pytest.raises(projection.SingularReductionError):
        projection.reduce(sys, V, W)
    with pytest.warns(UserWarning, match="falling back"):
        rom = greedy.reduce_final(sys, V, W)
    one_sided = projection.reduce(sys, V, V)
    assert np.array_equal(rom.W, V)
    for name in ("Er", "Ar", "Nr", "Br", "Cr"):
        assert np.array_equal(getattr(rom, name), getattr(one_sided, name))
    assert np.array_equal(rom.Qr.toarray(), one_sided.Qr.toarray())


def test_interpolation_bases_are_the_greedy_bases(rng):
    sys = random_qb(20, rng, with_mass=True)
    res = run_greedy(sys, _config())
    V, W = projection.build_interpolation_bases(sys, res.pairs)
    assert np.array_equal(V, res.V) and np.array_equal(W, res.W)


def _singular_point_run(point=0.0, validate=False):
    """RC ladder runs with and without a point where sE - A is singular in the grids."""
    sys_ = benchmarks.rc_ladder(5)
    g = default_grid()
    runs = []
    for grid in (g, np.concatenate([[point], g])):
        cfg = GreedyConfig(sigma10=119.5642, sigma20=119.5642, S1=grid, S2=grid,
                           eps_tol=1e-5, validate_true_error=validate)
        runs.append(run_greedy(sys_, cfg))
    return runs


# sigma_min / sigma_max is 2.7e-16 here and the LU's rcond 1.9e-16: a sigma_min
# test at eps alone accepts the point, the LU refuses it, and the greedy
# selects s1 where no S2 solve is possible
_NEAR_SINGULAR = 1.8329807108324374e-13


def test_singular_grid_point_is_skipped():
    with pytest.warns(UserWarning, match="skipping sample point 0j"):
        plain, with_zero = _singular_point_run()
    assert plain.converged and with_zero.converged
    assert with_zero.pairs == plain.pairs
    assert np.array_equal(with_zero.V, plain.V) and np.array_equal(with_zero.W, plain.W)


def test_singular_grid_point_is_skipped_without_asserts():
    """The same run under python -O, where the solve accuracy assert is gone."""
    code = (
        "import warnings, numpy as np, test_greedy as t\n"
        "warnings.simplefilter('ignore')\n"
        "plain, with_zero = t._singular_point_run()\n"
        "ok = (with_zero.pairs == plain.pairs and np.array_equal(with_zero.V, plain.V)\n"
        "      and np.array_equal(with_zero.W, plain.W) and with_zero.converged)\n"
        "print('same' if ok and not __debug__ else 'different')\n"
    )
    assert _run_without_asserts(code) == "same"


def _run_without_asserts(code):
    """Standard output of code run by python -O, with the tests and src/ importable."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("validate", [False, True])
def test_near_singular_grid_point_is_skipped(validate):
    with pytest.warns(UserWarning, match="skipping sample point"):
        plain, near = _singular_point_run(_NEAR_SINGULAR, validate)
    assert plain.converged and near.converged
    assert near.pairs == plain.pairs
    assert np.array_equal(near.V, plain.V) and np.array_equal(near.W, plain.W)
    assert near.validation == plain.validation


def test_near_singular_grid_point_is_skipped_without_asserts():
    code = (
        "import warnings, numpy as np, test_greedy as t\n"
        "warnings.simplefilter('ignore')\n"
        "ok = not __debug__\n"
        "for validate in (False, True):\n"
        "    plain, near = t._singular_point_run(t._NEAR_SINGULAR, validate)\n"
        "    ok = ok and (near.pairs == plain.pairs and np.array_equal(near.V, plain.V)\n"
        "                 and np.array_equal(near.W, plain.W) and near.converged\n"
        "                 and near.validation == plain.validation)\n"
        "print('same' if ok else 'different')\n"
    )
    assert _run_without_asserts(code) == "same"


def test_true_error_failure_skips_the_point(monkeypatch):
    """A point whose pair-sum solve fails is left out of the records, with a warning."""
    sys_ = benchmarks.rc_ladder(5)
    ev = BoundEvaluator(sys_)
    grid = default_grid(num=10)
    s1, bad = complex(grid[0]), complex(grid[3])
    solve_once = transfer.PencilSolver.solve_once

    def failing_solve(self, s, b):
        if s == s1 + bad:
            raise np.linalg.LinAlgError("singular")
        return solve_once(self, s, b)

    monkeypatch.setattr(transfer.PencilSolver, "solve_once", failing_solve)
    _, _, scanned = greedy._scan(functools.partial(ev.scan_2, s1), grid, set(), ev)
    assert np.isfinite(scanned.bounds).all()
    true = ev.true_errors(scanned.batch, np.isfinite(scanned.bounds))
    assert np.isnan(true[3]) and np.isfinite(np.delete(true, 3)).all()
    with pytest.warns(UserWarning, match=re.escape(f"skipping sample point {grid[3]}")):
        records = greedy._records(ev, scanned)
    assert [rec[0] for rec in records] == [complex(s) for s in grid if complex(s) != bad]


def _greedy_and_solver(monkeypatch, sys_, cfg):
    """run_greedy's result and the one PencilSolver it used."""
    solvers = []
    init = transfer.PencilSolver.__init__

    def recording_init(self, sys):
        solvers.append(self)
        init(self, sys)

    monkeypatch.setattr(transfer.PencilSolver, "__init__", recording_init)
    res = run_greedy(sys_, cfg)
    (solver,) = solvers
    return res, solver


def _burgers_200_greedy(monkeypatch):
    """The reference-pair greedy on Burgers n=200, and the solver it used."""
    cfg = GreedyConfig(sigma10=5.4124, sigma20=5.4124, S1=default_grid(), S2=default_grid(),
                       eps_tol=1e-4, max_iters=10)
    return _greedy_and_solver(monkeypatch, benchmarks.burgers(200, 0.01), cfg)


def test_solver_keeps_no_lu_at_validation_pair_sums(monkeypatch):
    """Cached LUs sit only at grid points, selected points and selected pair sums."""
    cfg = GreedyConfig(sigma10=5.4124, sigma20=5.4124, S1=default_grid(), S2=default_grid(),
                       eps_tol=1e-4, max_iters=10, validate_true_error=True)
    res, solver = _greedy_and_solver(monkeypatch, benchmarks.burgers(20, 0.01), cfg)
    assert res.validation
    allowed = {complex(s) for s in np.concatenate([cfg.S1, cfg.S2])}
    allowed |= {complex(s) for pair in res.pairs for s in pair}
    allowed |= {complex(s1) + complex(s2) for s1, s2 in res.pairs}
    cached = {s for s, entry in solver._cache.items() if entry.lu is not None}
    assert cached <= allowed
    assert len(cached) < len(res.validation)


def test_sparse_greedy_caches_no_factors(monkeypatch):
    res, solver = _burgers_200_greedy(monkeypatch)
    # from the sparse cut on, Burgers' 1/1 band is factored anew for every solve
    assert res.converged and solver._sparse and solver._pattern.kind == "band"
    assert solver._cache and all(entry.lu is None for entry in solver._cache.values())


def test_sparse_and_dense_greedy_select_the_same_pairs(monkeypatch):
    sparse, _ = _burgers_200_greedy(monkeypatch)
    monkeypatch.setattr(qb_model, "SPARSE_FACTOR_N", np.inf)
    dense, solver = _burgers_200_greedy(monkeypatch)
    assert not solver._sparse
    assert sparse.pairs == dense.pairs
    assert ([(r.basis_size_V, r.basis_size_W) for r in sparse.trace]
            == [(r.basis_size_V, r.basis_size_W) for r in dense.trace])
    assert sparse.V.shape == dense.V.shape and sparse.W.shape == dense.W.shape
    np.testing.assert_allclose([r.delta for r in sparse.trace],
                               [r.delta for r in dense.trace], rtol=1e-6)


def _burgers_build_events(monkeypatch, skip):
    """The validated reference-pair greedy on Burgers n=200, and its condition estimates.

    Without skip, PencilSolver._factor sees a field-of-values bound of
    -inf, which clears no pencil, and so runs the estimate every time; the
    scans' bounds are untouched.
    """
    events = []
    estimate, factor = transfer._inv_norm1_estimate, transfer.PencilSolver._factor

    def recording_estimate(lu, dtype):
        events.append("estimate")
        return estimate(lu, dtype)

    def unskipped_factor(self, z, cached=False):
        with pytest.MonkeyPatch.context() as unskipped:
            unskipped.setattr(self, "_fov_bound", lambda z: -np.inf)
            return factor(self, z, cached)

    monkeypatch.setattr(transfer, "_inv_norm1_estimate", recording_estimate)
    if not skip:
        monkeypatch.setattr(transfer.PencilSolver, "_factor", unskipped_factor)
    cfg = GreedyConfig(sigma10=5.4124, sigma20=5.4124, S1=default_grid(), S2=default_grid(),
                       eps_tol=1e-4, max_iters=10, validate_true_error=True)
    res = run_greedy(benchmarks.burgers(200, 0.01), cfg)
    monkeypatch.undo()
    return res, events


def test_rcond_skip_changes_no_result(monkeypatch):
    """Skipping the condition estimate where the field of values clears the pencil keeps the build.

    The pairs, the bases, the bits of every delta and the validation
    records are those of the build that estimates at every factorization;
    with the skip, the Hager-Higham estimate never runs.
    """
    res, events = _burgers_build_events(monkeypatch, skip=True)
    ref, ref_events = _burgers_build_events(monkeypatch, skip=False)
    assert res.converged and res.pairs == ref.pairs
    assert res.V.tobytes() == ref.V.tobytes() and res.W.tobytes() == ref.W.tobytes()
    assert ([(r.delta1_max, r.delta2_max, r.delta) for r in res.trace]
            == [(r.delta1_max, r.delta2_max, r.delta) for r in ref.trace])
    assert res.validation and res.validation == ref.validation
    assert "estimate" not in events
    assert ref_events.count("estimate") > events.count("estimate")


def test_trace_counts_solver_work(rng, monkeypatch):
    """sigma_min is evaluated only at the points the lazy scan cannot rule out."""
    sys_ = random_qb(15, rng)
    # per iteration: frequencies whose exact sigma_min the scans asked for, uncached
    not_ruled_out = []
    enrich, beta = projection.enrich, BoundEvaluator.beta

    def counting_enrich(*args):
        not_ruled_out.append(0)
        return enrich(*args)

    def counting_beta(self, z):
        if self.solver.cached_sigma_min(z) is None:
            not_ruled_out[-1] += 1
        return beta(self, z)

    monkeypatch.setattr(projection, "enrich", counting_enrich)
    monkeypatch.setattr(BoundEvaluator, "beta", counting_beta)
    res = run_greedy(sys_, _config(max_iters=3, eps_tol=1e-13))
    grid = default_grid(0.1, 100, 20)
    # iteration 1 factors at least the start pair and every grid point it scans
    assert res.trace[0].factorizations >= len(grid)
    assert [row.sigma_min_evals for row in res.trace] == not_ruled_out
    assert all(1 <= n < len(grid) for n in not_ruled_out)


def _exhaustive_scan(batch_fn, grid, used, ev):
    """Reference scan: the same batch numerators over the exact sigma_min at every candidate."""
    candidates = [s for s in grid if complex(s) not in used] or list(grid)
    batch = batch_fn(candidates)
    vals = []
    for num, z in zip(batch.nums, batch.z):
        try:
            vals.append(num / ev.beta(z) if np.isfinite(num) else np.nan)
        except np.linalg.LinAlgError:
            vals.append(np.nan)
    vals = np.array(vals)
    i = np.nanargmax(vals)
    return complex(candidates[i]), vals[i], greedy._Scanned(candidates, vals, batch)


_LAZY_SCAN_CASES = {
    "rc_ladder": (lambda: benchmarks.rc_ladder(5), 119.5642, 1e-5),
    "burgers": (lambda: benchmarks.burgers(20, 0.01), 5.4124, 1e-4),
    "fhn": (lambda: benchmarks.fitzhugh_nagumo(10), 10.0, 1e-4),
    "random": (lambda: random_qb(20, np.random.default_rng(7), with_mass=True), 1.0, 1e-6),
}


@pytest.mark.parametrize("name", sorted(_LAZY_SCAN_CASES))
def test_lazy_scan_matches_exhaustive_scan(name, monkeypatch):
    """The lazy scan selects the same points and maxima as the exhaustive scan.

    Its validation records are never below the exhaustive scan's exact bounds.
    """
    make, sigma0, tol = _LAZY_SCAN_CASES[name]
    sys_ = make()
    cfg = GreedyConfig(sigma10=sigma0, sigma20=sigma0, S1=default_grid(), S2=default_grid(),
                       eps_tol=tol, max_iters=10, validate_true_error=True)
    lazy = run_greedy(sys_, cfg)
    monkeypatch.setattr(greedy, "_scan", _exhaustive_scan)
    ref = run_greedy(sys_, cfg)
    assert lazy.pairs == ref.pairs
    assert ([(r.delta1_max, r.delta2_max) for r in lazy.trace]
            == [(r.delta1_max, r.delta2_max) for r in ref.trace])
    assert np.array_equal(lazy.V, ref.V) and np.array_equal(lazy.W, ref.W)
    exact = {rec[:3]: rec[3:] for rec in ref.validation}
    assert len(lazy.validation) == len(exact)
    for it, kind, point, bound, true in lazy.validation:
        ref_bound, ref_true = exact[it, kind, point]
        assert bound >= ref_bound and true == ref_true
    assert sum(r.sigma_min_evals for r in lazy.trace) < sum(r.sigma_min_evals for r in ref.trace)


# default_grid() indices of the pairs after the start pair, and the basis sizes
# per iteration, that the benchmark's reference builds selected with one bound
# evaluation per grid point
_REFERENCE_BUILDS = {
    "rc_ladder": (lambda: benchmarks.rc_ladder(50), 119.5642, 1e-5,
                  [(0, 0), (9, 1), (16, 2), (3, 3), (34, 4), (6, 23), (20, 12)],
                  [3, 6, 10, 14, 17, 20, 24, 28], [3, 6, 10, 14, 17, 21, 25, 29]),
    "burgers": (lambda: benchmarks.burgers(300, 0.01), 5.4124, 1e-4,
                [(0, 0), (19, 21), (3, 45), (30, 19), (40, 1), (14, 2)],
                [3, 6, 10, 14, 17, 21, 24], [3, 6, 10, 14, 18, 22, 26]),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_BUILDS))
def test_reference_builds_keep_their_pairs(name):
    """The batched scans select the reference builds' pairs and basis sizes."""
    make, sigma0, tol, pairs, sizes_V, sizes_W = _REFERENCE_BUILDS[name]
    g = default_grid()
    cfg = GreedyConfig(sigma10=sigma0, sigma20=sigma0, S1=g, S2=g, eps_tol=tol, max_iters=10,
                       validate_true_error=True)
    res = run_greedy(make(), cfg)
    assert res.converged
    assert res.pairs == [(sigma0, sigma0)] + [(g[i], g[j]) for i, j in pairs]
    assert [row.basis_size_V for row in res.trace] == sizes_V
    assert [row.basis_size_W for row in res.trace] == sizes_W


def _reduced_singular_system(s_star):
    """E = I and A regular at s_star, but A[0, 0] = s_star: W = V = e1 reduce to s - s_star."""
    A = np.array([[s_star, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
    return qb_model.QBSystem.from_operators(np.eye(3), A, np.zeros((3, 3)),
                                            sp.csr_matrix((3, 9)), np.ones(3), np.ones(3))


def _reduced_singular_scans():
    """Both scans over a grid where only the reduced pencil is singular, at one point.

    Returns the grid, the warnings issued and the points of each scan's
    validation records.
    """
    grid = default_grid(num=10)
    ev = BoundEvaluator(_reduced_singular_system(grid[4].real))
    e1 = np.eye(3)[:, :1]
    ev.set_bases_1(e1, e1)
    ev.set_bases_2(e1, e1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # s1 = 0 puts the pencil of delta2 at the grid point itself
        scans = [greedy._scan(ev.scan_1, grid, set(), ev),
                 greedy._scan(functools.partial(ev.scan_2, 0.0), grid, set(), ev)]
        points = [[rec[0] for rec in greedy._records(ev, scanned)]
                  for _, _, scanned in scans]
    return grid, [str(w.message) for w in caught], points


def _skips_only_the_singular_point():
    grid, messages, points = _reduced_singular_scans()
    others = [complex(s) for i, s in enumerate(grid) if i != 4]
    return messages == [f"skipping sample point {grid[4]}: singular pencil"] * 2 \
        and points == [others, others]


def test_singular_reduced_pencil_skips_one_point():
    assert _skips_only_the_singular_point()


def test_singular_reduced_pencil_skips_one_point_without_asserts():
    code = ("import test_greedy as t\n"
            "ok = t._skips_only_the_singular_point() and not __debug__\n"
            "print('same' if ok else 'different')\n")
    assert _run_without_asserts(code) == "same"


def test_nonconvergence_flagged(rng):
    sys = random_qb(20, rng)
    res = run_greedy(sys, _config(eps_tol=1e-14, max_iters=2))
    assert not res.converged
    assert len(res.trace) <= 2


def test_trace_round_trip(tmp_path, rng):
    sys = random_qb(15, rng)
    res = run_greedy(sys, _config(max_iters=3, eps_tol=1e-13,
                                  validate_true_error=True))
    path = tmp_path / "trace.csv"
    write_trace(res.trace, path)
    back = read_trace(path)
    assert len(back) == len(res.trace)
    for a, b in zip(res.trace, back):
        assert a.sigma1 == b.sigma1 and a.sigma2 == b.sigma2
        assert a.delta == b.delta  # 17 significant digits survive the trip
        assert a.true_error_max == b.true_error_max
        assert a.basis_size_V == b.basis_size_V
        assert (a.factorizations, a.sigma_min_evals) == (b.factorizations, b.sigma_min_evals)


def test_read_trace_without_count_columns(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text("iter,sigma1_re,sigma1_im,sigma2_re,sigma2_im,"
                    "delta1,delta2,delta,true_error,basis_V,basis_W\n"
                    "1,2,0,3,0,0.5,0.25,0.75,,4,4\n")
    (row,) = read_trace(path)
    assert row.sigma1 == 2 and row.delta == 0.75 and row.basis_size_W == 4
    assert (row.factorizations, row.sigma_min_evals) == (0, 0)


def test_read_trace_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("iter,sigma1_re,sigma1_im,sigma2_re,sigma2_im,"
                    "delta1,delta2,delta,true_error,basis_V,basis_W\n")
    with pytest.raises(ValueError, match="empty"):
        read_trace(path)


def test_read_trace_names_missing_column(tmp_path):
    path = tmp_path / "no_delta.csv"
    path.write_text("iter,sigma1_re,sigma1_im,sigma2_re,sigma2_im,"
                    "delta1,delta2,true_error,basis_V,basis_W\n"
                    "1,2,0,3,0,0.5,0.25,,4,4\n")
    with pytest.raises(ValueError, match=r"lacks column\(s\) delta$"):
        read_trace(path)


def test_stagnation_stops_the_greedy(rng, monkeypatch):
    """A bound that never decreases stops the loop STAGNATION_WINDOW iterations later."""
    def constant_scan(batch_fn, grid, used, ev):
        return next(complex(s) for s in grid if complex(s) not in used), 0.5, None

    monkeypatch.setattr(greedy, "_scan", constant_scan)
    stop = greedy.STAGNATION_WINDOW + 1
    with pytest.warns(UserWarning, match=f"greedy stagnated after {stop} iterations"):
        res = run_greedy(random_qb(12, rng), _config(eps_tol=1e-12, max_iters=10))
    assert len(res.trace) == stop
    assert res.stagnated and not res.converged
    assert [row.delta for row in res.trace] == [1.0] * len(res.trace)
