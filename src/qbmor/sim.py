"""Time integration of full and reduced QB systems plus output comparison.

Each run picks the forms it evaluates the operators in once, from Q's fill
and the state dimension n, by the rules of ``qb_model``:

* Q is dense when at least DENSE_Q_FILL of its n^3 entries are stored (a
  projected ROM's tensor generically has all of them), so Q(x kron x) is one
  GEMV and the quadratic Jacobian one GEMV with Q reshaped to n^2 x n.
* Otherwise Q stays sparse and is read as its gather triplets (i, j, k, q):
  Q(x kron x) is the gather Qg (x[j] * x[k]), the products of Q (x kron x)
  summed in the same order, at O(nnz) cost; the Jacobian sums 2 q x[j] into
  entry (i, k).
* With a sparse Q and n >= SPARSE_FACTOR_N (``qb_model.sparse_factors``),
  E, A and N are CSR too, and every Newton Jacobian is assembled as the data
  of a CSC pattern fixed for the run and factored with SuperLU.  Below the
  cut, and for a dense Q, E, A and N stay dense and LAPACK solves the dense
  Jacobian.

Implicit Euler solves the per-step nonlinear equation by Newton iteration
with the analytic Jacobian E/dt - A - N u - 2 Q(x kron .).  RK4 integrates
the explicit vector field E^{-1}(...) and therefore requires invertible E;
it factors E once, checks the factors with LAPACK gecon and solves every
stage with LAPACK getrs on them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .qb_model import (
    CscPattern, apply_quadratic, dense_quadratic, quadratic_gather, sparse_factors,
)

__all__ = [
    "Trajectory",
    "SimulationError",
    "simulate_qb",
    "integrate_rk4",
    "compare_outputs",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_STEPS = 20
#: reciprocal condition estimate of E below which RK4 refuses to run
RK4_E_RCOND = 1e-14


class SimulationError(RuntimeError):
    pass


@dataclass
class Trajectory:
    times: np.ndarray
    outputs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.outputs = np.asarray(self.outputs, dtype=float)


def _run_quadratic(Q):
    """Q as a run evaluates it: dense from DENSE_Q_FILL of n^3 entries stored, else CSR."""
    return Q.toarray() if dense_quadratic(Q) else Q


class _RunOperators:
    """A system's operators in the forms one run evaluates them in (module docstring)."""

    def __init__(self, sys):
        n = self.n = sys.n
        Q = _run_quadratic(sys.Q)
        self.sparse = sparse_factors(sys)
        form = sp.csr_matrix if self.sparse else np.asarray
        self.E, self.A, self.N = form(sys.E), form(sys.A), form(sys.N)
        self.B = sys.B
        if not sp.issparse(Q):
            self.Q, self.Qj = Q, Q.reshape(n * n, n)  # row i*n + j holds T(i, j, :)
            return
        self.Q = None
        i, self.j, self.k, self.Qg = quadratic_gather(Q)
        self.q2 = 2.0 * Q.data
        if not self.sparse:
            self.slots, self.size = i * n + self.k, n * n
            return
        # the Jacobian's CSC pattern: E, A, N and every (i, k); each Newton
        # iteration rewrites the data of this one matrix
        self.pattern = CscPattern(n, (self.E, self.A, self.N), self.k * n + i)
        self.slots, self.size = self.pattern.slots(self.k * n + i), self.pattern.keys.size

    def quadratic(self, x):
        """Q(x kron x)."""
        if self.Q is not None:
            return apply_quadratic(self.Q, x, x)
        return self.Qg @ (x[self.j] * x[self.k])

    def quadratic_jacobian(self, x):
        """v -> 2 Q(x kron v) for symmetrized Q, in the form :meth:`solve` takes.

        A dense n x n matrix, or on a sparse run its values on the CSC pattern.
        """
        if self.Q is not None:
            return 2.0 * (self.Qj @ x).reshape(self.n, self.n)
        J = np.bincount(self.slots, self.q2 * x[self.j], minlength=self.size)
        return J if self.sparse else J.reshape(self.n, self.n)

    def on_pattern(self, M):
        """M (E, A, N or a sum of them) in the form of :meth:`quadratic_jacobian`."""
        return self.pattern.values(M) if self.sparse else M

    def solve(self, J, F):
        """J^{-1} F; raises SimulationError if J is exactly singular."""
        try:
            if self.sparse:
                return self.pattern.splu(J).solve(F)
            return np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(f"singular Newton Jacobian: {exc}") from exc


def _qb_rhs(ops, x, u):
    return ops.A @ x + (ops.N @ x) * u + ops.quadratic(x) + ops.B * u


def simulate_qb(sys, u, t_end, dt, scheme="implicit_euler",
                x0=None, divergence_limit=1e6):
    """Integrate a QB system; returns the output trajectory y = C x.

    The operators are evaluated in the run's forms (see the module
    docstring) without ever materializing x kron x as a matrix.  If |y|
    exceeds divergence_limit the run is truncated and flagged in the
    trajectory metadata.
    """
    if scheme not in ("implicit_euler", "rk4"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end!r}")
    if not np.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt overflows: t_end={t_end!r}, dt={dt!r}")
    x = np.array(sys.x0 if x0 is None else x0, dtype=float)
    nsteps = int(round(t_end / dt))
    times = np.arange(nsteps + 1) * dt
    ys = np.empty(nsteps + 1)
    ys[0] = sys.C @ x
    diverged = False
    ops = _RunOperators(sys)

    if scheme == "rk4":
        # lu_factor only warns on an exactly singular matrix; gecon's
        # reciprocal condition estimate of the factors is 0 there, and NaN
        # for a non-finite E
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(sys.E, check_finite=False)
        getrs, gecon = sla.get_lapack_funcs(("getrs", "gecon"), (lu,))
        rcond, _ = gecon(lu, np.linalg.norm(sys.E, 1), norm="1")
        if not rcond >= RK4_E_RCOND:
            raise SimulationError("rk4 requires invertible E")

        def f(t, x):
            # the routine lu_solve calls, without its per-call wrapper and
            # finite check; the divergence check below catches non-finite states
            return getrs(lu, piv, _qb_rhs(ops, x, float(u(t))), overwrite_b=True)[0]
    else:
        ie = _ImplicitEuler(ops, dt)

    for k in range(nsteps):
        if scheme == "rk4":
            x = _rk4_step(f, times[k], x, dt)
        else:
            x = ie.step(x, float(u(times[k + 1])), k)
        ys[k + 1] = sys.C @ x
        if abs(ys[k + 1]) > divergence_limit or not np.isfinite(ys[k + 1]):
            diverged = True
            times, ys = times[:k + 2], ys[:k + 2]
            break

    return Trajectory(times=times, outputs=ys, meta={
        "system": sys.name, "scheme": scheme, "dt": dt, "diverged": diverged,
    })


def _rk4_step(f, t, x, dt):
    """One classic RK4 step of x' = f(t, x) from time t."""
    k1 = f(t, x)
    k2 = f(t + dt / 2, x + dt / 2 * k1)
    k3 = f(t + dt / 2, x + dt / 2 * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class _ImplicitEuler:
    """Implicit Euler steps by Newton iteration; the run's invariants are built once."""

    def __init__(self, ops, dt):
        self.ops, self.dt = ops, dt
        self.G = ops.on_pattern(ops.E / dt - ops.A)
        self.N = ops.on_pattern(ops.N)
        self.b_norm = np.linalg.norm(ops.B)

    def step(self, x, u_next, step_index):
        ops, dt = self.ops, self.dt
        scale = max(self.b_norm * abs(u_next), np.linalg.norm(x) / dt, 1.0)
        J_lin = self.G - self.N * u_next
        x_new = x.copy()
        for _ in range(NEWTON_MAX_STEPS):
            F = ops.E @ (x_new - x) / dt - _qb_rhs(ops, x_new, u_next)
            if np.linalg.norm(F) <= NEWTON_TOL * scale:
                return x_new
            x_new = x_new - ops.solve(J_lin - ops.quadratic_jacobian(x_new), F)
        raise SimulationError(
            f"Newton failed to converge at step {step_index}; try a smaller dt")


def integrate_rk4(f, x0, t_end, dt):
    """Classic RK4 for x' = f(t, x); returns (times, states as rows)."""
    nsteps = int(round(t_end / dt))
    times = np.arange(nsteps + 1) * dt
    xs = np.empty((nsteps + 1, len(x0)))
    x = np.array(x0, dtype=float)
    xs[0] = x
    for k in range(nsteps):
        x = _rk4_step(f, times[k], x, dt)
        xs[k + 1] = x
    return times, xs


def compare_outputs(full, rom):
    """Pointwise and maximum absolute/relative output errors.

    Relative error normalizes by the peak magnitude of the full output.
    Raises on mismatched time grids.
    """
    m = min(len(full.times), len(rom.times))
    if not np.array_equal(full.times[:m], rom.times[:m]):
        raise ValueError("trajectories use different time grids")
    if len(full.times) != len(rom.times) and not (
            full.meta.get("diverged") or rom.meta.get("diverged")):
        raise ValueError("trajectories have different lengths")
    y, yr = full.outputs[:m], rom.outputs[:m]
    abs_err = np.abs(y - yr)
    scale = max(np.max(np.abs(y)), 1e-300)
    rel_err = abs_err / scale
    return {
        "abs_err": abs_err,
        "rel_err": rel_err,
        "max_abs": float(np.max(abs_err)),
        "max_rel": float(np.max(rel_err)),
    }
