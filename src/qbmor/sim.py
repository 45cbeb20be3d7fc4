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
  E, A and N are CSR too; below the cut, and for a dense Q, they stay dense.
* With a sparse Q, every Newton Jacobian lies on one ``qb_model.FactorPattern``
  of E, A, N and Q's (i, k) entries, factored by the rule stated at
  ``qb_model.SPARSE_FACTOR_N`` (a band LU for the RC ladder and Burgers):
  E/dt - A and N are held as its data, the quadratic part is summed straight
  into it, and each Newton step is one factorization and one solve.  For a
  dense Q, LAPACK solves the dense Jacobian.

Implicit Euler solves the per-step nonlinear equation by Newton iteration
with the analytic Jacobian E/dt - A - N u - 2 Q(x kron .).  RK4 integrates
the explicit vector field E^{-1}(...) and therefore requires invertible E.
Where no stored entry of E lies off its diagonal (the lifted benchmarks
have E = I), each stage divides by diag(E), and RK4 refuses a diagonal
whose min |d| is below RK4_E_RCOND max |d|, or that is all zero or not
finite; implicit Euler's residual scales by diag(E) in place of a product
with E.  Any other E (a projected ROM's, generically) is factored once
(``qb_model.DenseLU``), checked with LAPACK gecon, and every stage solves
with LAPACK getrs on the factors.  The input u is evaluated once per run,
at every time a step needs: t_k, t_k + dt/2 and t_k + dt for RK4, t_{k+1}
for implicit Euler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla  # noqa: F401 (span tracing wraps its kernels here)
import scipy.sparse as sp

from .qb_model import (
    DenseLU, FactorPattern, apply_quadratic, dense_quadratic, quadratic_gather, sparse_factors,
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
#: reciprocal condition of E below which RK4 refuses to run: LAPACK gecon's
#: estimate, or min |d| / max |d| exactly for a diagonal E = diag(d)
RK4_E_RCOND = 1e-14
#: |y| above which a run counts as diverged and stops
DIVERGENCE_LIMIT = 1e6


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


def _diagonal(E):
    """diag(E) if no stored entry of E (dense or sparse) lies off its diagonal, else None."""
    if sp.issparse(E):
        C = E.tocoo()
        return None if np.any(C.row != C.col) else E.diagonal()
    d = np.diagonal(E).copy()
    return d if np.count_nonzero(E) == np.count_nonzero(d) else None


class _RunOperators:
    """A system's operators in the forms one run evaluates them in (module docstring)."""

    def __init__(self, sys):
        n = self.n = sys.n
        Q = _run_quadratic(sys.Q)
        self.sparse = sparse_factors(sys)
        form = sp.csr_matrix if self.sparse else np.asarray
        self.E, self.A, self.N = form(sys.E), form(sys.A), form(sys.N)
        self.e = _diagonal(self.E)
        self.B = sys.B
        self.pattern = None
        if not sp.issparse(Q):
            self.Q, self.Qj = Q, Q.reshape(n * n, n)  # row i*n + j holds T(i, j, :)
            return
        self.Q = None
        i, self.j, self.k, self.Qg = quadratic_gather(Q)
        self.q2 = 2.0 * Q.data
        # the Jacobian's pattern: E, A, N and every (i, k); each Newton
        # iteration rewrites the values of one matrix on it
        keys = self.k * n + i
        self.pattern = FactorPattern(n, (self.E, self.A, self.N), keys)
        self.slots, self.shape = self.pattern.slots(keys), self.pattern.shape
        self.size = int(np.prod(self.shape))

    def mass(self, v):
        """E v, as diag(E) * v for a diagonal E."""
        return self.e * v if self.e is not None else self.E @ v

    def quadratic(self, x):
        """Q(x kron x)."""
        if self.Q is not None:
            return apply_quadratic(self.Q, x, x)
        return self.Qg @ (x[self.j] * x[self.k])

    def quadratic_jacobian(self, x):
        """v -> 2 Q(x kron v) for symmetrized Q, in the form :meth:`solve` takes.

        A dense n x n matrix for a dense Q, else data of the run's pattern,
        whose slots are column-major, hence the Fortran-order reshape.
        """
        if self.Q is not None:
            return 2.0 * (self.Qj @ x).reshape(self.n, self.n)
        J = np.bincount(self.slots, self.q2 * x[self.j], minlength=self.size)
        return J.reshape(self.shape, order="F")

    def on_pattern(self, M):
        """M (E, A, N or a sum of them) in the form of :meth:`quadratic_jacobian`."""
        return M if self.pattern is None else self.pattern.values(M)

    def solve(self, J, F):
        """J^{-1} F, overwriting J on a pattern; raises SimulationError if J is exactly singular."""
        try:
            if self.pattern is None:
                return np.linalg.solve(J, F)
            return self.pattern.factor(J).solve(F)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(f"singular Newton Jacobian: {exc}") from exc


def _qb_rhs(ops, x, u):
    return ops.A @ x + (ops.N @ x) * u + ops.quadratic(x) + ops.B * u


def simulate_qb(sys, u, t_end, dt, scheme="implicit_euler"):
    """Integrate a QB system from sys.x0; returns the output trajectory y = C x.

    The operators are evaluated in the run's forms (see the module
    docstring) without ever materializing x kron x as a matrix.  u is
    called once per step grid with an array of times (``InputSignal``
    takes one) and may return a scalar for a constant input.  If |y|
    exceeds DIVERGENCE_LIMIT the run is truncated and flagged in the
    trajectory metadata.
    """
    if scheme not in ("implicit_euler", "rk4"):
        raise ValueError(f"unknown scheme {scheme!r}")
    times = _time_grid(t_end, dt)
    x = np.array(sys.x0, dtype=float)
    ys = np.empty(times.size)
    ys[0] = sys.C @ x
    diverged = False
    ops = _RunOperators(sys)

    if scheme == "rk4":
        f = _rk4_field(ops, sys.E)
        # u at t_k, t_k + dt/2 and t_k + dt, the times integrate_rk4 passes its f
        t = times[:-1]
        u1, u2, u4 = (_input_values(u, s) for s in (t, t + dt / 2, t + dt))
    else:
        ie = _ImplicitEuler(ops, dt)
        u_next = _input_values(u, times[1:])

    for k in range(times.size - 1):
        if scheme == "rk4":
            x = _rk4_step(f, x, dt, u1[k], u2[k], u4[k])
        else:
            x = ie.step(x, u_next[k], k)
        ys[k + 1] = sys.C @ x
        if abs(ys[k + 1]) > DIVERGENCE_LIMIT or not np.isfinite(ys[k + 1]):
            diverged = True
            times, ys = times[:k + 2], ys[:k + 2]
            break

    return Trajectory(times=times, outputs=ys, meta={
        "system": sys.name, "scheme": scheme, "dt": dt, "diverged": diverged,
    })


def _time_grid(t_end, dt):
    """The step times k dt, k = 0, ..., round(t_end / dt); ValueError for an invalid grid."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end!r}")
    if not np.isfinite(t_end / dt):
        raise ValueError(f"t_end / dt overflows: t_end={t_end!r}, dt={dt!r}")
    return np.arange(int(round(t_end / dt)) + 1) * dt


def _input_values(u, t):
    """u at every time in the array t, from one call of u, as a list of floats."""
    return np.broadcast_to(np.asarray(u(t), dtype=float), t.shape).tolist()


def _rk4_field(ops, E):
    """v, x -> E^{-1}(A x + (N x) v + Q(x kron x) + B v); SimulationError unless E is invertible.

    A diagonal E is applied as its diagonal, refused exactly where gecon's
    estimate would fall below RK4_E_RCOND; any other E (dense, as the
    system holds it) is factored once, as a copy, and every stage solves
    with getrs.
    """
    d = ops.e
    if d is not None:
        lo, hi = np.min(np.abs(d)), np.max(np.abs(d))
        # NaN fails every comparison, so a non-finite diagonal is refused too
        if not (0 < hi < np.inf and lo >= RK4_E_RCOND * hi):
            raise SimulationError("rk4 requires invertible E")
        return lambda v, x: _qb_rhs(ops, x, v) / d
    try:
        lu = DenseLU(np.array(E, order="F"))
        rcond = lu.rcond(np.linalg.norm(E, 1))
    except np.linalg.LinAlgError:
        rcond = 0.0
    # NaN, for a non-finite E, fails the comparison too
    if not rcond >= RK4_E_RCOND:
        raise SimulationError("rk4 requires invertible E")
    return lambda v, x: lu.solve(_qb_rhs(ops, x, v))


def _rk4_step(f, x, dt, a1, a2, a4):
    """One classic RK4 step of x' = f(a, x), with a = a1 at the step's start,
    a2 at its midpoint and a4 at its end (the times, or the input there)."""
    k1 = f(a1, x)
    k2 = f(a2, x + dt / 2 * k1)
    k3 = f(a2, x + dt / 2 * k2)
    k4 = f(a4, x + dt * k3)
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
            F = ops.mass(x_new - x) / dt - _qb_rhs(ops, x_new, u_next)
            if np.linalg.norm(F) <= NEWTON_TOL * scale:
                return x_new
            x_new = x_new - ops.solve(J_lin - ops.quadratic_jacobian(x_new), F)
        raise SimulationError(
            f"Newton failed to converge at step {step_index}; try a smaller dt")


def integrate_rk4(f, x0, t_end, dt):
    """Classic RK4 for x' = f(t, x) on simulate_qb's time grid; returns (times, states as rows)."""
    times = _time_grid(t_end, dt)
    xs = np.empty((times.size, len(x0)))
    x = np.array(x0, dtype=float)
    xs[0] = x
    for k in range(times.size - 1):
        t = times[k]
        x = _rk4_step(f, x, dt, t, t + dt / 2, t + dt)
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
