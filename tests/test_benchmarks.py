"""Benchmark lifting tests: hand-expanded small cases and rhs consistency oracles."""

import numpy as np
import pytest

from qbmor import benchmarks
from qbmor.benchmarks import (
    BenchmarkSpec,
    _burgers_original_rhs,
    _fhn_original_rhs,
    _rc_original_rhs,
    build,
    burgers,
    fitzhugh_nagumo,
    benchmark_input,
    rc_ladder,
    simulate_original,
)
from qbmor.sim import simulate_qb


def _qb_rhs(sys, x, u):
    return (sys.A @ x + (sys.N @ x) * u
            + sys.quadratic(x, x) + sys.B * u)


# -- RC ladder -------------------------------------------------------------

class TestRCLadder:
    def test_dimensions_and_port_row(self):
        sys = rc_ladder(2)
        assert sys.n == 4
        # v1' = -2 v1 + v2 - z0 - w1 + u
        assert np.allclose(sys.A[0], [-2.0, 1.0, -1.0, -1.0])
        assert sys.B[0] == 1.0
        # z0 row is the 40x chain-rule copy of the v1 row
        assert np.allclose(sys.A[2], 40.0 * sys.A[0])
        assert sys.B[2] == 40.0
        assert sys.N[2, 2] == 40.0
        # output is the port voltage
        assert np.allclose(sys.C, [1.0, 0.0, 0.0, 0.0])

    def test_rejects_tiny_ladder(self):
        with pytest.raises(ValueError, match="at least 2"):
            rc_ladder(1)

    def test_zero_state_is_equilibrium(self):
        sys = rc_ladder(4)
        assert np.allclose(_qb_rhs(sys, np.zeros(sys.n), 0.0), 0.0)

    @pytest.mark.parametrize("ell", [3, 6])
    def test_lifted_rhs_consistent_with_original(self, ell):
        # lift a random voltage profile exactly and compare both vector fields
        rng = np.random.default_rng(7)
        v = 0.02 * rng.standard_normal(ell)
        u = 0.3
        x = np.empty(2 * ell)
        x[:ell] = v
        x[ell] = np.exp(40.0 * v[0]) - 1.0
        for i in range(1, ell):
            x[ell + i] = np.exp(40.0 * (v[i - 1] - v[i])) - 1.0
        sys = rc_ladder(ell)
        dx = _qb_rhs(sys, x, u)
        dv = _rc_original_rhs(ell, lambda t: u)(0.0, v)
        assert np.allclose(dx[:ell], dv, rtol=1e-12, atol=1e-13)
        # auxiliary rows follow the chain rule d/dt e^{40 a} - 1 = 40 (aux+1) a'
        assert np.isclose(dx[ell], 40.0 * (x[ell] + 1.0) * dv[0], rtol=1e-12)
        for i in range(1, ell):
            assert np.isclose(dx[ell + i],
                              40.0 * (x[ell + i] + 1.0) * (dv[i - 1] - dv[i]),
                              rtol=1e-12)


# -- Burgers ---------------------------------------------------------------

class TestBurgers:
    def test_lifting_is_exact_for_any_state(self):
        # the Burgers semidiscretization is already quadratic: QB rhs == FD rhs
        n, nu = 12, 0.05
        rng = np.random.default_rng(3)
        sys = burgers(n, nu)
        f = _burgers_original_rhs(n, nu, lambda t: 0.7)
        v = rng.standard_normal(n)
        assert np.allclose(_qb_rhs(sys, v, 0.7), f(0.0, v), rtol=1e-12, atol=1e-13)

    def test_hand_matrices_small_grid(self):
        n, nu = 3, 0.1
        sys = burgers(n, nu)
        h = 0.25
        d = nu / h**2
        c = 1.0 / (2 * h)
        expect_A = np.array([
            [-2 * d, d, 0.0],
            [d, -2 * d, d],
            [0.0, d, -d],  # Neumann ghost folds into the diagonal
        ])
        assert np.allclose(sys.A, expect_A)
        assert np.allclose(sys.B, [d, 0.0, 0.0])
        assert sys.N[0, 0] == c  # boundary convection v0 * v1 term

    def test_output_is_spatial_average(self):
        sys = burgers(5, 0.01)
        assert np.allclose(sys.C, np.full(5, 0.2))

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            burgers(2, 0.1)
        with pytest.raises(ValueError, match="viscosity"):
            burgers(10, 0.0)


# -- FitzHugh-Nagumo -------------------------------------------------------

class TestFHN:
    def test_dimensions_and_initial_state(self):
        nbar = 5
        sys = fitzhugh_nagumo(nbar)
        assert sys.n == 3 * nbar + 1
        x0 = np.zeros(sys.n)
        x0[-1] = 1.0
        assert np.array_equal(sys.x0, x0)
        assert sys.C[0] == 1.0 and np.count_nonzero(sys.C) == 1

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="at least 3"):
            fitzhugh_nagumo(2)

    def test_lifted_rhs_consistent_with_original(self):
        nbar = 6
        rng = np.random.default_rng(11)
        v = 0.3 * rng.standard_normal(nbar)
        w = 0.1 * rng.standard_normal(nbar)
        u = 2.0
        x = np.concatenate([v, w, v**2, [1.0]])
        sys = fitzhugh_nagumo(nbar)
        f = _fhn_original_rhs(nbar, 0.015, 0.5, 0.05, 0.05, lambda t: u)
        dx = _qb_rhs(sys, x, u)
        dorig = f(0.0, np.concatenate([v, w]))
        assert np.allclose(dx[:nbar], dorig[:nbar], rtol=1e-11, atol=1e-11)
        assert np.allclose(dx[nbar:2 * nbar], dorig[nbar:], rtol=1e-11, atol=1e-11)
        # z rows carry d/dt v^2 = 2 v v'
        assert np.allclose(dx[2 * nbar:3 * nbar], 2.0 * v * dorig[:nbar],
                           rtol=1e-10, atol=1e-10)
        # the constant state stays constant
        assert dx[-1] == 0.0


# -- shared entry points ---------------------------------------------------

def test_build_dispatch():
    assert build(BenchmarkSpec("rc_ladder", {"ell": 3})).n == 6
    assert build(BenchmarkSpec("burgers", {"n": 5, "nu": 0.1})).n == 5
    assert build(BenchmarkSpec("fitzhugh_nagumo", {"nbar": 4})).n == 13


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown benchmark"):
        BenchmarkSpec("lorenz")


def test_benchmark_input_kinds():
    assert benchmark_input("rc_ladder").kind == "exp_decay"
    assert benchmark_input("burgers").kind == "cosine_pi"
    assert benchmark_input("fitzhugh_nagumo").kind == "cubic_pulse"


def test_simulate_original_runs_all_benchmarks():
    for spec in (BenchmarkSpec("rc_ladder", {"ell": 3}),
                 BenchmarkSpec("burgers", {"n": 6, "nu": 0.05}),
                 BenchmarkSpec("fitzhugh_nagumo", {"nbar": 4})):
        u = benchmark_input(spec.kind)
        traj = simulate_original(spec, u, t_end=0.2, dt=1e-3)
        assert len(traj.times) == 201
        assert np.all(np.isfinite(traj.outputs))


def test_short_horizon_lifting_fidelity_rc():
    # cheap version of the full-fidelity check: small ladder, short horizon
    spec = BenchmarkSpec("rc_ladder", {"ell": 4})
    u = benchmark_input("rc_ladder")
    full = simulate_original(spec, u, t_end=0.5, dt=2.5e-4)
    lifted = simulate_qb(build(spec), u, t_end=0.5, dt=2.5e-4, scheme="rk4")
    scale = np.max(np.abs(full.outputs))
    assert np.max(np.abs(full.outputs - lifted.outputs)) <= 1e-6 * scale
