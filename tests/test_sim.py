"""Time integration tests: closed-form oracles, convergence orders, divergence."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qbmor import InputSignal, QBSystem, benchmarks, projection, qb_model, sim
from qbmor.qb_model import SPARSE_FACTOR_N, apply_quadratic
from qbmor.sim import (
    NEWTON_MAX_STEPS,
    NEWTON_TOL,
    SimulationError,
    Trajectory,
    _RunOperators,
    _run_quadratic,
    compare_outputs,
    integrate_rk4,
    simulate_qb,
)
from conftest import random_qb, scalar_qb


def _linear_scalar(e=1.0, a=1.0):
    return QBSystem.from_operators(
        np.array([[e]]), np.array([[-a]]), np.zeros((1, 1)),
        sp.csr_matrix((1, 1)), np.array([1.0]), np.array([1.0]))


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
        sys = _linear_scalar(e=2.0)
        traj = simulate_qb(sys, InputSignal("zero"), 1.0, 1e-4,
                           scheme="rk4", x0=np.array([3.0]))
        assert np.isclose(traj.outputs[-1], 3.0 * np.exp(-0.5), rtol=1e-8)

    def test_logistic_quadratic_dynamics(self):
        # x' = x - x^2, x(0) = 1/2  =>  x(t) = 1/(1 + e^{-t})
        sys = QBSystem.from_operators(
            np.eye(1), np.array([[1.0]]), np.zeros((1, 1)),
            sp.csr_matrix(np.array([[-1.0]])), np.array([0.0]), np.array([1.0]))
        traj = simulate_qb(sys, InputSignal("zero"), 3.0, 1e-3,
                           scheme="rk4", x0=np.array([0.5]))
        exact = 1.0 / (1.0 + np.exp(-traj.times))
        assert np.max(np.abs(traj.outputs - exact)) <= 1e-10

    def test_bilinear_term(self):
        # x' = (-1 + u) x with u = e^{-t}  =>  x = x0 exp(-t + 1 - e^{-t})
        sys = QBSystem.from_operators(
            np.eye(1), np.array([[-1.0]]), np.array([[1.0]]),
            sp.csr_matrix((1, 1)), np.array([0.0]), np.array([1.0]))
        traj = simulate_qb(sys, InputSignal("exp_decay"), 2.0, 1e-4,
                           scheme="rk4", x0=np.array([1.0]))
        t = traj.times
        exact = np.exp(-t + 1.0 - np.exp(-t))
        assert np.max(np.abs(traj.outputs - exact)) <= 1e-9


class TestConvergenceOrders:
    SYS = dict(a=1.0, q=0.3, nu=0.2)

    @pytest.fixture(scope="class")
    def reference(self):
        """Final output of a dt = 1e-5 RK4 run, shared by both order tests."""
        ref = simulate_qb(scalar_qb(**self.SYS), InputSignal("exp_decay"), 1.0, 1e-5,
                          scheme="rk4", x0=np.array([0.1]))
        return ref.outputs[-1]

    def _errors(self, reference, scheme, dts):
        sys = scalar_qb(**self.SYS)
        u = InputSignal("exp_decay")
        errs = []
        for dt in dts:
            traj = simulate_qb(sys, u, 1.0, dt, scheme=scheme, x0=np.array([0.1]))
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


class TestQuadraticJacobian:
    @pytest.mark.parametrize("sys", list(_jacobian_systems()))
    def test_matches_dense_oracle_and_scatter(self, sys, monkeypatch):
        monkeypatch.setattr(qb_model, "DENSE_Q_FILL", np.inf)  # the triplet form at every fill
        n = sys.n
        x = np.random.default_rng(n).standard_normal(n)
        ops = _RunOperators(sys)
        assert ops.Q is None and not ops.sparse
        J = ops.quadratic_jacobian(x)
        np.testing.assert_allclose(J, _dense_jacobian_oracle(sys, x), rtol=1e-12, atol=0)
        assert np.array_equal(J, _scatter_jacobian(sys.Q, x))

    @pytest.mark.parametrize("sys", list(_jacobian_systems()))
    def test_csc_data_matches_scatter(self, sys, monkeypatch):
        monkeypatch.setattr(qb_model, "DENSE_Q_FILL", np.inf)
        monkeypatch.setattr(qb_model, "SPARSE_FACTOR_N", 1)
        x = np.random.default_rng(sys.n).standard_normal(sys.n)
        ops = _RunOperators(sys)
        assert ops.sparse
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


def _singular_newton_system(n):
    """E = I, A = 2 I and zero N, Q: at dt = 0.5 every Newton Jacobian E/dt - A is zero."""
    return QBSystem.from_operators(np.eye(n), 2.0 * np.eye(n), np.zeros((n, n)),
                                   sp.csr_matrix((n, n * n)), np.ones(n), np.ones(n),
                                   x0=np.ones(n))


class TestSparseNewton:
    """Full models: a gathered Q at every size, sparse Newton from SPARSE_FACTOR_N on."""

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

    @pytest.mark.parametrize("sys,sparse", [
        pytest.param(benchmarks.rc_ladder(50), False, id="rc l=50 dense"),
        pytest.param(benchmarks.burgers(300, 0.01), True, id="burgers n=300 sparse"),
    ])
    def test_path_selection(self, sys, sparse, monkeypatch):
        assert (sys.n >= SPARSE_FACTOR_N) == sparse
        ops = _RunOperators(sys)
        assert ops.sparse == sparse
        assert all(sp.issparse(M) == sparse for M in (ops.E, ops.A, ops.N))
        calls = {"splu": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(qb_model.spla, "splu", counted("splu", qb_model.spla.splu))
        monkeypatch.setattr(sim.np.linalg, "solve", counted("solve", sim.np.linalg.solve))
        simulate_qb(sys, InputSignal("exp_decay"), 0.05, 1e-2)
        assert (calls["splu"] > 0, calls["solve"] > 0) == (sparse, not sparse)

    @pytest.mark.parametrize("sys,u", [
        pytest.param(benchmarks.burgers(300, 0.01), InputSignal("cosine_pi"), id="burgers n=300"),
        pytest.param(benchmarks.rc_ladder(100), InputSignal("exp_decay"), id="rc l=100"),
    ])
    def test_sparse_and_dense_newton_agree(self, sys, u, monkeypatch):
        assert sys.n >= SPARSE_FACTOR_N
        sparse = simulate_qb(sys, u, 0.5, 1e-2)
        monkeypatch.setattr(qb_model, "SPARSE_FACTOR_N", np.inf)
        dense = simulate_qb(sys, u, 0.5, 1e-2)
        assert not (sparse.meta["diverged"] or dense.meta["diverged"])
        rel = np.max(np.abs(sparse.outputs - dense.outputs)) / np.max(np.abs(dense.outputs))
        assert rel <= 1e-12

    def test_full_model_ie_below_cut_bit_identical_to_solve_loop(self):
        sys = _sparse_system_nonsymmetric_mass()
        assert sp.issparse(_run_quadratic(sys.Q)) and sys.n < SPARSE_FACTOR_N
        u = InputSignal("exp_decay")
        traj = simulate_qb(sys, u, 0.5, 1e-2)
        assert np.array_equal(traj.outputs,
                              _csr_reference(sys, u, 0.5, 1e-2, "implicit_euler"))

    @pytest.mark.parametrize("n", [SPARSE_FACTOR_N - 1, SPARSE_FACTOR_N],
                             ids=["dense", "sparse"])
    def test_singular_jacobian_raises_simulation_error(self, n):
        with pytest.raises(SimulationError, match="singular Newton Jacobian"):
            simulate_qb(_singular_newton_system(n), InputSignal("zero"), 1.0, 0.5)


class TestSchemesAgree:
    def test_both_schemes_same_trajectory(self):
        sys = scalar_qb(a=2.0, q=0.4, nu=0.1)
        u = InputSignal("exp_decay")
        rk = simulate_qb(sys, u, 1.0, 1e-4, scheme="rk4", x0=np.array([0.2]))
        ie = simulate_qb(sys, u, 1.0, 1e-4, scheme="implicit_euler",
                         x0=np.array([0.2]))
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
        traj = simulate_qb(scalar_qb(), InputSignal("zero"), 0.0, 1e-3,
                           x0=np.array([0.5]))
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
            sp.csr_matrix(np.array([[1.0]])), np.array([0.0]), np.array([1.0]))
        traj = simulate_qb(sys, InputSignal("zero"), 2.0, 1e-3, scheme="rk4",
                           x0=np.array([1.0]), divergence_limit=1e3)
        assert traj.meta["diverged"]
        assert traj.times[-1] < 2.0
        assert len(traj.times) == len(traj.outputs)


class TestGenericIntegrators:
    def test_rk4_exponential(self):
        times, xs = integrate_rk4(lambda t, x: -x, np.array([1.0]), 1.0, 1e-3)
        assert np.isclose(xs[-1, 0], np.exp(-1.0), rtol=1e-10)


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
