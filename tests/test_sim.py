"""Time integration tests: closed-form oracles, convergence orders, divergence."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor import InputSignal, QBSystem, benchmarks, projection, qb_model, sim
from qbmor.qb_model import SPARSE_FACTOR_N, BandPattern, apply_quadratic
from qbmor.sim import (
    NEWTON_MAX_STEPS,
    NEWTON_TOL,
    RK4_E_RCOND,
    SimulationError,
    Trajectory,
    _RunOperators,
    _run_quadratic,
    compare_outputs,
    integrate_rk4,
    simulate_qb,
)
from conftest import random_qb, scalar_qb


def _linear_scalar(e=1.0, a=1.0, x0=0.0):
    return QBSystem.from_operators(
        np.array([[e]]), np.array([[-a]]), np.zeros((1, 1)),
        sp.csr_matrix((1, 1)), np.array([1.0]), np.array([1.0]), x0=[x0])


class TestClosedFormOracles:
    def test_resonant_linear_response(self):
        # x' = -x + e^{-t}, x(0)=0  =>  x(t) = t e^{-t}
        sys = _linear_scalar()
        u = InputSignal("exp_decay")
        t_end, dt = 2.0, 1e-4
        traj = simulate_qb(sys, u, t_end, dt, scheme="rk4")
        exact = traj.times * np.exp(-traj.times)
        assert np.max(np.abs(traj.outputs - exact)) <= 1e-9

    def test_descriptor_mass_scaling(self):
        # 2 x' = -x  =>  x(t) = x0 e^{-t/2}
        sys = _linear_scalar(e=2.0, x0=3.0)
        traj = simulate_qb(sys, InputSignal("zero"), 1.0, 1e-4, scheme="rk4")
        assert np.isclose(traj.outputs[-1], 3.0 * np.exp(-0.5), rtol=1e-8)

    def test_logistic_quadratic_dynamics(self):
        # x' = x - x^2, x(0) = 1/2  =>  x(t) = 1/(1 + e^{-t})
        sys = QBSystem.from_operators(
            np.eye(1), np.array([[1.0]]), np.zeros((1, 1)),
            sp.csr_matrix(np.array([[-1.0]])), np.array([0.0]), np.array([1.0]), x0=[0.5])
        traj = simulate_qb(sys, InputSignal("zero"), 3.0, 1e-3, scheme="rk4")
        exact = 1.0 / (1.0 + np.exp(-traj.times))
        assert np.max(np.abs(traj.outputs - exact)) <= 1e-10

    def test_bilinear_term(self):
        # x' = (-1 + u) x with u = e^{-t}  =>  x = x0 exp(-t + 1 - e^{-t})
        sys = QBSystem.from_operators(
            np.eye(1), np.array([[-1.0]]), np.array([[1.0]]),
            sp.csr_matrix((1, 1)), np.array([0.0]), np.array([1.0]), x0=[1.0])
        traj = simulate_qb(sys, InputSignal("exp_decay"), 2.0, 1e-4, scheme="rk4")
        t = traj.times
        exact = np.exp(-t + 1.0 - np.exp(-t))
        assert np.max(np.abs(traj.outputs - exact)) <= 1e-9


class TestConvergenceOrders:
    SYS = dict(a=1.0, q=0.3, nu=0.2)

    @pytest.fixture(scope="class")
    def reference(self):
        """Final output of a dt = 1e-5 RK4 run, shared by both order tests."""
        ref = simulate_qb(scalar_qb(**self.SYS, x0=0.1), InputSignal("exp_decay"), 1.0, 1e-5,
                          scheme="rk4")
        return ref.outputs[-1]

    def _errors(self, reference, scheme, dts):
        sys = scalar_qb(**self.SYS, x0=0.1)
        u = InputSignal("exp_decay")
        errs = []
        for dt in dts:
            traj = simulate_qb(sys, u, 1.0, dt, scheme=scheme)
            errs.append(abs(traj.outputs[-1] - reference))
        return errs

    def test_implicit_euler_first_order(self, reference):
        e1, e2 = self._errors(reference, "implicit_euler", [1e-2, 5e-3])
        assert 1.6 <= e1 / e2 <= 2.4  # halving dt halves the error

    def test_rk4_fourth_order(self, reference):
        e1, e2 = self._errors(reference, "rk4", [2e-2, 1e-2])
        assert 12.0 <= e1 / e2 <= 20.0


def _scatter_jacobian(Q, x):
    """The COO scatter formula the reshaped operator replaced, kept as a bitwise oracle."""
    Qc = sp.coo_matrix(Q)
    n = Q.shape[0]
    j, k = Qc.col // n, Qc.col % n
    M = np.zeros((n, n))
    np.add.at(M, (Qc.row, k), Qc.data * x[j])
    return 2.0 * M


def _jacobian_systems():
    rng = np.random.default_rng(11)
    for n in (1, 7, 20):
        for with_mass in (False, True):
            yield pytest.param(random_qb(n, rng, q_scale=1.0, with_mass=with_mass),
                               id=f"random n={n} mass={with_mass}")
    n = 5
    yield pytest.param(QBSystem.from_operators(
        np.eye(n), -np.eye(n), np.zeros((n, n)), sp.csr_matrix((n, n * n)),
        np.ones(n), np.ones(n)), id="zero Q")


def _dense_jacobian_oracle(sys, x):
    # d/dv Q(x kron v) = Q (x kron I), doubled by the symmetry of Q
    return 2 * sys.Q.toarray() @ np.kron(x[:, None], np.eye(sys.n))


def _band_to_dense(band, ab):
    """The n x n matrix held in band storage ab, after checking that ab is zero off the band."""
    n = band.n
    r, c = np.indices(ab.shape).reshape(2, -1)
    i = r - band.kl - band.ku + c  # permuted row of storage entry (r, c)
    on = (band.kl <= r) & (0 <= i) & (i < n)
    assert not ab[r[~on], c[~on]].any()
    M = np.zeros((n, n))
    M[band.perm[i[on]], band.perm[c[on]]] = ab[r[on], c[on]]
    return M


class TestQuadraticJacobian:
    @pytest.mark.parametrize("sys", list(_jacobian_systems()))
    def test_matches_dense_oracle_and_scatter(self, sys, monkeypatch):
        monkeypatch.setattr(qb_model, "DENSE_Q_FILL", np.inf)  # the triplet form at every fill
        monkeypatch.setattr(qb_model, "BAND_MAX", -1)  # no band at any size
        n = sys.n
        x = np.random.default_rng(n).standard_normal(n)
        ops = _RunOperators(sys)
        assert ops.Q is None and not ops.sparse and ops.band is None
        J = ops.quadratic_jacobian(x)
        np.testing.assert_allclose(J, _dense_jacobian_oracle(sys, x), rtol=1e-12, atol=0)
        assert np.array_equal(J, _scatter_jacobian(sys.Q, x))

    @pytest.mark.parametrize("sys", list(_jacobian_systems()))
    def test_band_data_matches_scatter(self, sys, monkeypatch):
        monkeypatch.setattr(qb_model, "DENSE_Q_FILL", np.inf)
        monkeypatch.setattr(qb_model, "BAND_MAX", np.inf)  # a band at any width
        n = sys.n
        x = np.random.default_rng(n).standard_normal(n)
        ops = _RunOperators(sys)
        assert ops.Q is None and not ops.sparse and ops.band is not None
        J = _band_to_dense(ops.band, ops.quadratic_jacobian(x))
        np.testing.assert_allclose(J, _dense_jacobian_oracle(sys, x), rtol=1e-12, atol=0)
        assert np.array_equal(J, _scatter_jacobian(sys.Q, x))

    @pytest.mark.parametrize("sys", list(_jacobian_systems()))
    def test_csc_data_matches_scatter(self, sys, monkeypatch):
        monkeypatch.setattr(qb_model, "DENSE_Q_FILL", np.inf)
        monkeypatch.setattr(qb_model, "SPARSE_FACTOR_N", 1)
        monkeypatch.setattr(qb_model, "BAND_MAX", -1)
        x = np.random.default_rng(sys.n).standard_normal(sys.n)
        ops = _RunOperators(sys)
        assert ops.sparse and ops.band is None
        J = ops.pattern.matrix.copy()
        J.data[:] = ops.quadratic_jacobian(x)
        assert np.array_equal(J.toarray(), _scatter_jacobian(sys.Q, x))

    def test_fully_populated_q_as_dense_view(self):
        sys = random_qb(6, np.random.default_rng(5), q_scale=1.0, density=1.0)
        n = sys.n
        ops = _RunOperators(sys)
        assert isinstance(ops.Qj, np.ndarray) and np.shares_memory(ops.Qj, ops.Q)
        x = np.random.default_rng(n).standard_normal(n)
        np.testing.assert_allclose(ops.quadratic_jacobian(x), _dense_jacobian_oracle(sys, x),
                                   rtol=1e-12, atol=0)


def _sparse_system_nonsymmetric_mass(n=12, seed=3):
    """Sparse-Q system whose E is not symmetric, so a transposed solve shows."""
    rng = np.random.default_rng(seed)
    base = random_qb(n, rng, density=0.02)
    M = rng.standard_normal((n, n))
    E = np.eye(n) + 0.2 * M / np.linalg.norm(M, 2)
    return QBSystem.from_operators(E, base.A, base.N, base.Q, base.B, base.C,
                                   x0=0.1 * rng.standard_normal(n))


def _projected_rom(full, r=5, seed=4):
    rng = np.random.default_rng(seed)
    V = np.linalg.qr(rng.standard_normal((full.n, r)))[0]
    W = np.linalg.qr(rng.standard_normal((full.n, r)))[0]
    return projection.reduce(full, V, W).as_system(x0=V.T @ full.x0)


def _csr_reference(sys, u, t_end, dt, scheme):
    """Outputs of a step loop on the CSR Q, with lu_solve and the scatter Jacobian."""
    def rhs(x, v):
        return sys.A @ x + (sys.N @ x) * v + apply_quadratic(sys.Q, x, x) + sys.B * v

    if scheme == "rk4":
        elu = sla.lu_factor(sys.E)
        _, xs = integrate_rk4(lambda t, x: sla.lu_solve(elu, rhs(x, float(u(t)))),
                              sys.x0, t_end, dt)
        return np.array([sys.C @ x for x in xs])
    times = np.arange(int(round(t_end / dt)) + 1) * dt
    x, ys = sys.x0.copy(), [sys.C @ sys.x0]
    for t in times[1:]:
        v = float(u(t))
        scale = max(np.linalg.norm(sys.B) * abs(v), np.linalg.norm(x) / dt, 1.0)
        x_new = x.copy()
        for _ in range(NEWTON_MAX_STEPS):
            F = sys.E @ (x_new - x) / dt - rhs(x_new, v)
            if np.linalg.norm(F) <= NEWTON_TOL * scale:
                break
            J = sys.E / dt - sys.A - sys.N * v - _scatter_jacobian(sys.Q, x_new)
            x_new = x_new - np.linalg.solve(J, F)
        x = x_new
        ys.append(sys.C @ x)
    return np.array(ys)


class TestRunQuadratic:
    def test_dense_for_projected_rom_csr_for_full_models(self):
        for full in (benchmarks.rc_ladder(5), benchmarks.burgers(20, 0.05)):
            assert sp.issparse(_run_quadratic(full.Q))
            Qr = _projected_rom(full).Q
            dense = _run_quadratic(Qr)
            assert isinstance(dense, np.ndarray)
            assert np.array_equal(dense, Qr.toarray())

    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    def test_rom_matches_csr_step_loop(self, scheme, monkeypatch):
        rom = _projected_rom(_sparse_system_nonsymmetric_mass())
        seen = []

        def spy(Q, x, y):
            seen.append(type(Q))
            return apply_quadratic(Q, x, y)

        monkeypatch.setattr(sim, "apply_quadratic", spy)
        u = InputSignal("exp_decay")
        traj = simulate_qb(rom, u, 0.5, 1e-2, scheme=scheme)
        assert set(seen) == {np.ndarray}
        ref = _csr_reference(rom, u, 0.5, 1e-2, scheme)
        assert np.max(np.abs(traj.outputs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_full_model_rk4_bit_identical_to_lu_solve_loop(self):
        sys = _sparse_system_nonsymmetric_mass()
        assert sp.issparse(_run_quadratic(sys.Q))
        u = InputSignal("exp_decay")
        traj = simulate_qb(sys, u, 0.5, 1e-2, scheme="rk4")
        assert np.array_equal(traj.outputs, _csr_reference(sys, u, 0.5, 1e-2, "rk4"))


def _singular_newton_system(n, wide):
    """E = I, A = 2 I less the all-ones matrix if wide, and zero N and Q.

    At dt = 0.5 every Newton Jacobian E/dt - A is zero, or with wide the
    all-ones matrix, whose band is as wide as n.
    """
    A = 2.0 * np.eye(n) - (np.ones((n, n)) if wide else 0.0)
    return QBSystem.from_operators(np.eye(n), A, np.zeros((n, n)), sp.csr_matrix((n, n * n)),
                                   np.ones(n), np.ones(n), x0=np.ones(n))


def _newton_path(ops):
    return "band" if ops.band is not None else "sparse" if ops.sparse else "dense"


def _ring_coupled_system(n=24):
    """Tridiagonal E and A whose Q's one entry T(0, 0, n-1) couples states 0 and n-1."""
    def tridiagonal(lo, mid, hi):
        return np.diag(np.full(n - 1, lo), -1) + mid * np.eye(n) + np.diag(np.full(n - 1, hi), 1)

    Q = sp.csr_matrix(([-4.0], ([0], [n - 1])), shape=(n, n * n))
    return QBSystem.from_operators(tridiagonal(0.1, 1.0, 0.2), tridiagonal(1.0, -3.0, 0.5),
                                   np.zeros((n, n)), Q, np.ones(n), np.ones(n),
                                   x0=np.linspace(0.5, 1.0, n))


class TestSparseNewton:
    """Full models: a gathered Q at every size; Newton by band LU on a narrow band,
    else dense below SPARSE_FACTOR_N and SuperLU from it on."""

    @pytest.mark.parametrize("sys", [
        pytest.param(benchmarks.rc_ladder(50), id="rc l=50"),
        pytest.param(benchmarks.burgers(300, 0.01), id="burgers n=300"),
        pytest.param(random_qb(20, np.random.default_rng(2), q_scale=1.0), id="random n=20"),
    ])
    def test_gather_bit_identical_to_apply_quadratic(self, sys):
        ops = _RunOperators(sys)
        assert ops.Q is None
        for seed in range(3):
            x = np.random.default_rng(seed).standard_normal(sys.n)
            assert np.array_equal(ops.quadratic(x), apply_quadratic(sys.Q, x, x))

    @pytest.mark.parametrize("sys,path", [
        pytest.param(benchmarks.rc_ladder(50), "band", id="rc l=50 band"),
        pytest.param(benchmarks.rc_ladder(64), "band", id="rc l=64 band"),
        pytest.param(benchmarks.burgers(300, 0.01), "band", id="burgers n=300 band"),
        pytest.param(benchmarks.fitzhugh_nagumo(20), "dense", id="fhn nbar=20 dense"),
        pytest.param(benchmarks.fitzhugh_nagumo(43), "sparse", id="fhn nbar=43 sparse"),
    ])
    def test_path_selection(self, sys, path, monkeypatch):
        sparse = sys.n >= SPARSE_FACTOR_N
        ops = _RunOperators(sys)
        assert ops.sparse == sparse and _newton_path(ops) == path
        assert all(sp.issparse(M) == sparse for M in (ops.E, ops.A, ops.N))
        calls = {"splu": 0, "solve": 0, "gbtrf": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(qb_model.spla, "splu", counted("splu", qb_model.spla.splu))
        monkeypatch.setattr(sim.np.linalg, "solve", counted("solve", sim.np.linalg.solve))
        monkeypatch.setattr(qb_model.BandPattern, "factor",
                            counted("gbtrf", qb_model.BandPattern.factor))
        simulate_qb(sys, InputSignal("exp_decay"), 0.05, 1e-2)
        assert [name for name, count in calls.items() if count] == [
            {"sparse": "splu", "dense": "solve", "band": "gbtrf"}[path]]

    @pytest.mark.parametrize("sys,u", [
        pytest.param(benchmarks.burgers(300, 0.01), InputSignal("cosine_pi"), id="burgers n=300"),
        pytest.param(benchmarks.rc_ladder(100), InputSignal("exp_decay"), id="rc l=100"),
        pytest.param(benchmarks.rc_ladder(50), InputSignal("exp_decay"), id="rc l=50"),
    ])
    def test_sparse_and_dense_newton_agree(self, sys, u, monkeypatch):
        """The band path against the one it replaced (SuperLU from the cut on), and that against dense."""
        assert _newton_path(_RunOperators(sys)) == "band"
        runs = [simulate_qb(sys, u, 0.5, 1e-2)]
        monkeypatch.setattr(qb_model, "BAND_MAX", -1)
        assert _newton_path(_RunOperators(sys)) == ("sparse" if sys.n >= SPARSE_FACTOR_N
                                                    else "dense")
        runs.append(simulate_qb(sys, u, 0.5, 1e-2))
        monkeypatch.setattr(qb_model, "SPARSE_FACTOR_N", np.inf)
        assert _newton_path(_RunOperators(sys)) == "dense"
        runs.append(simulate_qb(sys, u, 0.5, 1e-2))
        assert not any(run.meta["diverged"] for run in runs)
        for a, b in zip(runs, runs[1:]):
            rel = np.max(np.abs(a.outputs - b.outputs)) / np.max(np.abs(b.outputs))
            assert rel <= 1e-12

    def test_band_covers_quadratic_coupling(self):
        sys = _ring_coupled_system()
        n = sys.n
        ops = _RunOperators(sys)
        band = ops.band
        assert band is not None and not ops.sparse
        # Q's entry (0, n-1) is inside the band; E and A's pattern alone has
        # a 1/1 band that leaves it out
        assert -band.ku <= band.order[0] - band.order[n - 1] <= band.kl
        tridiagonal = BandPattern(n, (sys.E, sys.A))
        assert (tridiagonal.kl, tridiagonal.ku) == (1, 1)
        assert abs(tridiagonal.order[0] - tridiagonal.order[n - 1]) > 1
        u = InputSignal("exp_decay")
        traj = simulate_qb(sys, u, 0.5, 1e-2)
        ref = _csr_reference(sys, u, 0.5, 1e-2, "implicit_euler")
        assert not traj.meta["diverged"]
        assert np.max(np.abs(traj.outputs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_full_model_ie_below_cut_bit_identical_to_solve_loop(self):
        sys = _sparse_system_nonsymmetric_mass()
        assert sp.issparse(_run_quadratic(sys.Q)) and sys.n < SPARSE_FACTOR_N
        assert _newton_path(_RunOperators(sys)) == "dense"
        u = InputSignal("exp_decay")
        traj = simulate_qb(sys, u, 0.5, 1e-2)
        assert np.array_equal(traj.outputs,
                              _csr_reference(sys, u, 0.5, 1e-2, "implicit_euler"))

    @pytest.mark.parametrize("n,wide,path", [
        (SPARSE_FACTOR_N - 1, True, "dense"),
        (SPARSE_FACTOR_N, False, "band"),
        (SPARSE_FACTOR_N, True, "sparse"),
    ], ids=["dense", "band", "sparse"])
    def test_singular_jacobian_raises_simulation_error(self, n, wide, path):
        sys = _singular_newton_system(n, wide)
        assert _newton_path(_RunOperators(sys)) == path
        with pytest.raises(SimulationError, match="singular Newton Jacobian"):
            simulate_qb(sys, InputSignal("zero"), 1.0, 0.5)


def _with_mass(sys, E):
    return QBSystem.from_operators(E, sys.A, sys.N, sys.Q, sys.B, sys.C, x0=sys.x0,
                                   name=sys.name)


# E = I, held dense below the sparse cut and CSR from it on
_DIAGONAL_MASS_SYSTEMS = [
    pytest.param(benchmarks.rc_ladder(10), id="rc l=10 dense"),
    pytest.param(benchmarks.burgers(150, 0.01), id="burgers n=150 csr"),
]
# (horizon, step) per scheme; RK4 on Burgers n=150 needs dt below about 3e-3
_GRIDS = {"rk4": (0.05, 5e-4), "implicit_euler": (0.2, 1e-2)}


class TestDiagonalMass:
    """A diagonal E is applied as its diagonal: RK4 divides by it, implicit
    Euler's residual scales by it, and neither factors E."""

    @pytest.mark.parametrize("sys", _DIAGONAL_MASS_SYSTEMS)
    def test_rk4_bit_identical_to_lu_solve_loop(self, sys):
        ops = _RunOperators(sys)
        assert ops.sparse == (sys.n >= SPARSE_FACTOR_N) and sp.issparse(ops.E) == ops.sparse
        assert np.array_equal(ops.e, np.ones(sys.n))
        u = InputSignal("exp_decay")
        t_end, dt = _GRIDS["rk4"]
        traj = simulate_qb(sys, u, t_end, dt, scheme="rk4")
        assert not traj.meta["diverged"]
        # the right-hand side in the run's forms (CSR A and N from the cut on), E by lu_solve
        elu = sla.lu_factor(sys.E)
        _, xs = integrate_rk4(lambda t, x: sla.lu_solve(elu, sim._qb_rhs(ops, x, float(u(t)))),
                              sys.x0, t_end, dt)
        assert np.array_equal(traj.outputs, [sys.C @ x for x in xs])

    @pytest.mark.parametrize("sys", _DIAGONAL_MASS_SYSTEMS)
    def test_implicit_euler_bit_identical_to_product_with_e(self, sys, monkeypatch):
        u = InputSignal("exp_decay")
        traj = simulate_qb(sys, u, *_GRIDS["implicit_euler"])
        monkeypatch.setattr(sim, "_diagonal", lambda E: None)  # E @ v, as a GEMV or CSR product
        assert _RunOperators(sys).e is None
        assert np.array_equal(traj.outputs, simulate_qb(sys, u, *_GRIDS["implicit_euler"]).outputs)

    def test_implicit_euler_bit_identical_to_solve_loop(self, monkeypatch):
        monkeypatch.setattr(qb_model, "BAND_MAX", -1)  # the dense Newton solve of the loop
        sys = benchmarks.rc_ladder(10)
        u = InputSignal("exp_decay")
        traj = simulate_qb(sys, u, *_GRIDS["implicit_euler"])
        assert np.array_equal(traj.outputs,
                              _csr_reference(sys, u, *_GRIDS["implicit_euler"], "implicit_euler"))

    @pytest.mark.parametrize("sys", _DIAGONAL_MASS_SYSTEMS)
    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    def test_general_diagonal_agrees_with_factored_path(self, sys, scheme, monkeypatch):
        d = np.random.default_rng(sys.n).uniform(0.5, 2.0, sys.n)
        sys = _with_mass(sys, np.diag(d))
        assert np.array_equal(_RunOperators(sys).e, d)
        u = InputSignal("exp_decay")
        diagonal = simulate_qb(sys, u, *_GRIDS[scheme], scheme=scheme)
        monkeypatch.setattr(sim, "_diagonal", lambda E: None)
        factored = simulate_qb(sys, u, *_GRIDS[scheme], scheme=scheme)
        assert not (diagonal.meta["diverged"] or factored.meta["diverged"])
        rel = np.max(np.abs(diagonal.outputs - factored.outputs)) / np.max(np.abs(factored.outputs))
        assert rel <= 1e-12

    @pytest.mark.parametrize("d", [
        [1.0, 0.0, 1.0], [1.0, np.nan, 1.0], [0.0, 0.0, 0.0], [1.0, np.inf, 1.0],
        [np.inf] * 3, [1.0, 0.99 * RK4_E_RCOND, -1.0], [1.0, 1.01 * RK4_E_RCOND, -1.0],
        [-2.0, 3.0, 0.5],
    ], ids=["zero entry", "nan", "all zero", "inf", "all inf", "just below", "just above",
            "regular"])
    def test_rk4_refusal_matches_gecon(self, d):
        E = np.diag(d)
        n = E.shape[0]
        # built directly: from_operators refuses the pencils whose E is all zero or not finite
        sys = QBSystem(E, -np.eye(n), np.zeros((n, n)), sp.csr_matrix((n, n * n)),
                       np.zeros(n), np.ones(n), np.zeros(n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)  # exactly singular
            lu, _ = sla.lu_factor(E, check_finite=False)
        rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, np.linalg.norm(E, 1), norm="1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                traj = simulate_qb(sys, InputSignal("zero"), 0.2, 0.1, scheme="rk4")
            except SimulationError as exc:
                assert "invertible E" in str(exc)
                ran = False
            else:
                assert traj.outputs.tolist() == [0.0] * 3  # x = 0 is a rest state
                ran = True
        assert ran == (rcond >= RK4_E_RCOND)

    @pytest.mark.parametrize("sys", _DIAGONAL_MASS_SYSTEMS)
    def test_no_lu_factor_for_diagonal_e(self, sys, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return lu_factor(*args, **kwargs)

        lu_factor = sla.lu_factor
        monkeypatch.setattr(sim.sla, "lu_factor", spy)
        simulate_qb(sys, InputSignal("exp_decay"), *_GRIDS["rk4"], scheme="rk4")
        assert calls == []
        # a projected ROM's E is not diagonal, so it is factored once per run
        simulate_qb(_projected_rom(_sparse_system_nonsymmetric_mass()),
                    InputSignal("exp_decay"), *_GRIDS["rk4"], scheme="rk4")
        assert len(calls) == 1

    def test_diagonal_detection_dense_and_csr(self):
        d = np.array([1.0, 0.0, -2.0])
        assert np.array_equal(sim._diagonal(np.diag(d)), d)
        assert np.array_equal(sim._diagonal(sp.csr_matrix(np.diag(d))), d)
        off = np.diag(d)
        off[0, 2] = 1e-300
        assert sim._diagonal(off) is None and sim._diagonal(sp.csr_matrix(off)) is None
        off[0, 2] = np.nan
        assert sim._diagonal(off) is None
        # a stored zero off the diagonal is still a stored entry
        stored = sp.csr_matrix((np.array([1.0, 0.0, 1.0, 1.0]), ([0, 0, 1, 2], [0, 1, 1, 2])))
        assert sim._diagonal(stored) is None


_INPUT_KINDS = [
    InputSignal("exp_decay", {"a": 1.3, "b": 0.7}),
    InputSignal("cosine_pi"),
    InputSignal("cubic_pulse"),
    InputSignal("zero"),
    InputSignal("table", {"times": [0.0, 0.3, 1.1], "values": [0.0, 2.0, -1.0]}),
]


class TestInputOncePerRun:
    @pytest.mark.parametrize("scheme", ["implicit_euler", "rk4"])
    def test_input_called_o1_times(self, scheme, monkeypatch):
        calls = []
        call = InputSignal.__call__

        def counted(self, t):
            calls.append(np.shape(t))
            return call(self, t)

        monkeypatch.setattr(InputSignal, "__call__", counted)
        sys = scalar_qb(a=1.0, q=0.3, nu=0.2, x0=0.1)
        per_run = []
        for nsteps in (10, 1000):
            calls.clear()
            simulate_qb(sys, InputSignal("exp_decay"), 1.0, 1.0 / nsteps, scheme=scheme)
            per_run.append(len(calls))
        assert per_run[0] == per_run[1] == (3 if scheme == "rk4" else 1)

    @pytest.mark.parametrize("u", _INPUT_KINDS, ids=lambda u: u.kind)
    @pytest.mark.parametrize("dt", [1e-3, 2.5e-4, 0.37])
    def test_vectorized_values_bit_identical_to_scalar_calls(self, u, dt):
        times = np.arange(int(round(2.0 / dt)) + 1) * dt
        # the times integrate_rk4 passes its f: t_k, t_k + dt/2 and t_k + dt
        for shift in (0.0, dt / 2, dt):
            grid = times[:-1] + shift if shift else times[:-1]
            scalar = np.array([float(u(t + shift if shift else t)) for t in times[:-1]])
            for values in (u(grid), np.array(sim._input_values(u, grid))):
                assert np.array_equal(values.view(np.int64), scalar.view(np.int64))
        assert np.array_equal(np.array(sim._input_values(u, times[1:])),
                              [float(u(t)) for t in times[1:]])


class TestSchemesAgree:
    def test_both_schemes_same_trajectory(self):
        sys = scalar_qb(a=2.0, q=0.4, nu=0.1, x0=0.2)
        u = InputSignal("exp_decay")
        rk = simulate_qb(sys, u, 1.0, 1e-4, scheme="rk4")
        ie = simulate_qb(sys, u, 1.0, 1e-4, scheme="implicit_euler")
        assert np.max(np.abs(rk.outputs - ie.outputs)) <= 1e-3


class TestErrorHandling:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            simulate_qb(scalar_qb(), InputSignal("zero"), 1.0, 0.1, scheme="euler")

    @pytest.mark.parametrize("t_end,dt", [
        (1.0, 0.0), (1.0, -1e-3), (1.0, np.nan), (1.0, np.inf),
        (-1.0, 1e-3), (np.inf, 1e-3), (np.nan, 1e-3), (1.0, 1e-320),
    ])
    def test_invalid_time_grid(self, t_end, dt):
        with pytest.raises(ValueError, match="dt must be|t_end must be|overflows"):
            simulate_qb(scalar_qb(), InputSignal("zero"), t_end, dt)

    def test_zero_horizon_gives_initial_output(self):
        traj = simulate_qb(scalar_qb(x0=0.5), InputSignal("zero"), 0.0, 1e-3)
        assert traj.times.tolist() == [0.0] and traj.outputs.tolist() == [0.5]

    def test_rk4_needs_invertible_mass(self):
        n = 2
        E = np.array([[1.0, 0.0], [0.0, 0.0]])  # genuinely differential-algebraic
        A = -np.eye(n)
        sys = QBSystem.from_operators(E, A, np.zeros((n, n)),
                                      sp.csr_matrix((n, n * n)),
                                      np.ones(n), np.ones(n))
        with pytest.raises(SimulationError, match="invertible E"):
            simulate_qb(sys, InputSignal("zero"), 1.0, 0.1, scheme="rk4")

    def test_divergence_truncates_and_flags(self):
        # x' = x^2 from x(0)=1 blows up at t=1
        sys = QBSystem.from_operators(
            np.eye(1), np.array([[-1e-12]]), np.zeros((1, 1)),
            sp.csr_matrix(np.array([[1.0]])), np.array([0.0]), np.array([1.0]), x0=[1.0])
        traj = simulate_qb(sys, InputSignal("zero"), 2.0, 1e-3, scheme="rk4")
        assert traj.meta["diverged"] and abs(traj.outputs[-1]) > sim.DIVERGENCE_LIMIT
        assert traj.times[-1] < 2.0
        assert len(traj.times) == len(traj.outputs)


class TestGenericIntegrators:
    def test_rk4_exponential(self):
        times, xs = integrate_rk4(lambda t, x: -x, np.array([1.0]), 1.0, 1e-3)
        assert np.isclose(xs[-1, 0], np.exp(-1.0), rtol=1e-10)

    def test_rk4_bit_identical_to_classic_loop(self):
        def f(t, x):
            return np.array([x[1], -np.sin(3.0 * t) * x[0] - 0.5 * x[1] ** 2])

        x0, t_end, dt = np.array([1.0, -0.25]), 2.0, 1.0 / 30
        times, xs = integrate_rk4(f, x0, t_end, dt)
        x, ref = x0.copy(), [x0]
        for t in np.arange(60) * dt:
            k1 = f(t, x)
            k2 = f(t + dt / 2, x + dt / 2 * k1)
            k3 = f(t + dt / 2, x + dt / 2 * k2)
            k4 = f(t + dt, x + dt * k3)
            x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            ref.append(x)
        assert np.array_equal(times, np.arange(61) * dt)
        assert np.array_equal(xs, np.array(ref))


class TestCompareOutputs:
    def test_identical_trajectories(self):
        t = np.linspace(0, 1, 11)
        a = Trajectory(times=t, outputs=np.sin(t))
        res = compare_outputs(a, Trajectory(times=t, outputs=np.sin(t)))
        assert res["max_abs"] == 0.0 and res["max_rel"] == 0.0

    def test_relative_error_normalized_by_peak(self):
        t = np.linspace(0, 1, 5)
        full = Trajectory(times=t, outputs=np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
        rom = Trajectory(times=t, outputs=np.array([0.0, 1.0, 2.2, 1.0, 0.0]))
        res = compare_outputs(full, rom)
        assert np.isclose(res["max_rel"], 0.1)

    def test_grid_mismatch_rejected(self):
        a = Trajectory(times=np.linspace(0, 1, 5), outputs=np.zeros(5))
        b = Trajectory(times=np.linspace(0, 2, 5), outputs=np.zeros(5))
        with pytest.raises(ValueError, match="different time grids"):
            compare_outputs(a, b)

    def test_length_mismatch_needs_divergence_flag(self):
        t = np.linspace(0, 1, 11)
        a = Trajectory(times=t, outputs=np.zeros(11))
        b = Trajectory(times=t[:6], outputs=np.zeros(6))
        with pytest.raises(ValueError, match="different lengths"):
            compare_outputs(a, b)
        b_flagged = Trajectory(times=t[:6], outputs=np.ones(6),
                               meta={"diverged": True})
        res = compare_outputs(a, b_flagged)
        assert res["max_abs"] == 1.0  # compared on the shared prefix
