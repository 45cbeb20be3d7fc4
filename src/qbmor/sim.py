"""Time integration of full and reduced QB systems plus output comparison.

Each run evaluates Q in the form its fill calls for: a dense array when at
least half of its n^3 entries are stored (a projected ROM's tensor generically
has all of them), so Q(x kron x) is one GEMV, and the sparse CSR Q otherwise.
Implicit Euler solves the per-step nonlinear equation by Newton iteration
with the analytic Jacobian E/dt - A - N u - 2 Q(x kron .).  The quadratic
part comes from that Q reshaped to n^2 x n once per run, so each Newton
iteration costs one matvec for it.  RK4 integrates the explicit vector
field E^{-1}(...) and therefore requires invertible E; it factors E once
and solves every stage with LAPACK getrs on those factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .qb_model import QBSystem, apply_quadratic

__all__ = [
    "Trajectory",
    "SimulationError",
    "simulate_qb",
    "integrate_rk4",
    "compare_outputs",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_STEPS = 20
#: stored fraction of Q's n^3 entries from which a run evaluates Q densely
DENSE_Q_FILL = 0.5


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
    n = Q.shape[0]
    return Q.toarray() if Q.nnz >= DENSE_Q_FILL * n**3 else Q


def _jacobian_operator(Q):
    """Q reshaped to n^2 x n, a view if Q is dense: row i*n + j holds T(i, j, :) = T(i, :, j)."""
    n = Q.shape[0]
    Qj = Q.reshape(n * n, n)
    return Qj if isinstance(Q, np.ndarray) else sp.csr_matrix(Qj)


def _quadratic_jacobian(Qj, x):
    """Dense matrix of v -> 2 Q(x kron v) for symmetrized Q; Qj = _jacobian_operator(Q)."""
    n = x.shape[0]
    return 2.0 * (Qj @ x).reshape(n, n)


def _qb_rhs(sys, Q, x, u):
    return sys.A @ x + (sys.N @ x) * u + apply_quadratic(Q, x, x) + sys.B * u


def simulate_qb(sys, u, t_end, dt, scheme="implicit_euler",
                x0=None, divergence_limit=1e6):
    """Integrate a QB system; returns the output trajectory y = C x.

    The quadratic term is evaluated through the run's Q (see
    :func:`_run_quadratic`) without ever materializing x kron x as a
    matrix.  If |y| exceeds divergence_limit the run is truncated and
    flagged in the trajectory metadata.
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
    Q = _run_quadratic(sys.Q)

    if scheme == "rk4":
        # lu_factor only warns on an exactly singular matrix, so check first
        cond = np.linalg.cond(sys.E)
        if not np.isfinite(cond) or cond > 1e14:
            raise SimulationError("rk4 requires invertible E")
        lu, piv = sla.lu_factor(sys.E)
        getrs, = sla.get_lapack_funcs(("getrs",), (lu,))

        def f(t, x):
            # the routine lu_solve calls, without its per-call wrapper and
            # finite check; the divergence check below catches non-finite states
            return getrs(lu, piv, _qb_rhs(sys, Q, x, float(u(t))), overwrite_b=True)[0]
    else:
        ie = _ImplicitEuler(sys, Q, dt)

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

    def __init__(self, sys, Q, dt):
        self.sys, self.Q, self.dt = sys, Q, dt
        self.G = sys.E / dt - sys.A
        self.b_norm = np.linalg.norm(sys.B)
        self.Qj = _jacobian_operator(Q)

    def step(self, x, u_next, step_index):
        sys, dt = self.sys, self.dt
        scale = max(self.b_norm * abs(u_next), np.linalg.norm(x) / dt, 1.0)
        J_lin = self.G - sys.N * u_next
        x_new = x.copy()
        for _ in range(NEWTON_MAX_STEPS):
            F = sys.E @ (x_new - x) / dt - _qb_rhs(sys, self.Q, x_new, u_next)
            if np.linalg.norm(F) <= NEWTON_TOL * scale:
                return x_new
            J = J_lin - _quadratic_jacobian(self.Qj, x_new)
            x_new = x_new - np.linalg.solve(J, F)
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
