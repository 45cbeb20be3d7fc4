"""The three benchmark systems in quadratic-bilinear form.

Each builder returns an exactly lifted QBSystem together with (via
simulate_original) a direct integrator for the unlifted nonlinear ODEs, so
lifting fidelity can be checked end to end.

Tensor entries are accumulated as (row, j, k, value) records with the
convention T(i,j,k) <-> Q[i, j*n + k]; Q is symmetrized on construction.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .qb_model import QBSystem, InputSignal
from .sim import Trajectory, integrate_rk4

__all__ = [
    "BenchmarkSpec",
    "rc_ladder",
    "burgers",
    "fitzhugh_nagumo",
    "build",
    "simulate_original",
    "benchmark_input",
]


@dataclass
class BenchmarkSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown benchmark kind {self.kind!r}")


class _TensorBuilder:
    """Sparse accumulator for Q entries in the (i, j, k) convention."""

    def __init__(self, n):
        self.n = n
        self.rows, self.cols, self.vals = [], [], []

    def add(self, i, j, k, v):
        if v != 0.0:
            self.rows.append(i)
            self.cols.append(j * self.n + k)
            self.vals.append(v)

    def tocsr(self):
        return sp.csr_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.n, self.n * self.n))


# -- nonlinear RC ladder ---------------------------------------------------

def rc_ladder(ell):
    """RC ladder with diode currents g(v) = exp(40 v) + v - 1; n = 2 ell.

    States: node voltages v_1..v_ell, then the shifted exponentials
    z0 = exp(40 v_1) - 1 and w_i = exp(40 (v_i - v_{i+1})) - 1, whose chain
    rules close the system quadratically with the input entering bilinearly.
    """
    if ell < 2:
        raise ValueError("need at least 2 ladder nodes")
    n = 2 * ell
    iz = ell            # index of z0
    iw = lambda i: ell + i  # index of w_i, i = 1..ell-1

    # v-dot expressions: linear coefficients over all lifted states + u coefficient
    dv = np.zeros((ell, n))
    du = np.zeros(ell)
    dv[0, 0] = -2.0
    dv[0, 1] = 1.0
    dv[0, iz] = -1.0
    dv[0, iw(1)] = -1.0
    du[0] = 1.0
    for i in range(1, ell - 1):
        dv[i, i - 1] = 1.0
        dv[i, i] = -2.0
        dv[i, i + 1] = 1.0
        dv[i, iw(i)] = 1.0
        dv[i, iw(i + 1)] = -1.0
    dv[ell - 1, ell - 2] = 1.0
    dv[ell - 1, ell - 1] = -1.0
    dv[ell - 1, iw(ell - 1)] = 1.0

    A = np.zeros((n, n))
    N = np.zeros((n, n))
    B = np.zeros(n)
    T = _TensorBuilder(n)
    A[:ell] = dv
    B[:ell] = du

    def chain_rule(row, aux_idx, lin, ucoef):
        # d/dt of a shifted exponential: 40*(aux + 1)*(expression)
        A[row] += 40.0 * lin
        B[row] += 40.0 * ucoef
        N[row, aux_idx] += 40.0 * ucoef
        for j in np.nonzero(lin)[0]:
            T.add(row, aux_idx, j, 40.0 * lin[j])

    chain_rule(iz, iz, dv[0], du[0])
    for i in range(1, ell):
        chain_rule(iw(i), iw(i), dv[i - 1] - dv[i], du[i - 1] - du[i])

    C = np.zeros(n)
    C[0] = 1.0
    return QBSystem.from_operators(np.eye(n), A, N, T.tocsr(), B, C,
                                   name=f"rc_ladder_l{ell}")


def _rc_original_rhs(ell, u):
    g = lambda v: np.exp(40.0 * v) + v - 1.0

    def f(t, v):
        dv = np.empty(ell)
        dv[0] = -g(v[0]) - g(v[0] - v[1]) + u(t)
        for i in range(1, ell - 1):
            dv[i] = g(v[i - 1] - v[i]) - g(v[i] - v[i + 1])
        dv[ell - 1] = g(v[ell - 2] - v[ell - 1])
        return dv

    return f


# -- viscous Burgers -------------------------------------------------------

def burgers(n, nu=0.01):
    """Semidiscrete 1D Burgers flow on (0,1) with boundary control; size n.

    Central differences on n interior nodes, h = 1/(n+1); the left boundary
    value is the input (Dirichlet) and the right end is a Neumann condition
    via a ghost node.  The diffusion term is nu*v_xx.  The output is the
    spatial average.
    """
    if n < 3:
        raise ValueError("need at least 3 grid nodes")
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    h = 1.0 / (n + 1)
    A = np.zeros((n, n))
    N = np.zeros((n, n))
    B = np.zeros(n)
    T = _TensorBuilder(n)
    d = nu / h**2
    c = 1.0 / (2.0 * h)

    for i in range(n):
        if i > 0:
            A[i, i - 1] += d
        else:
            B[i] += d
        A[i, i] += -2.0 * d
        if i < n - 1:
            A[i, i + 1] += d
        else:
            A[i, i] += d  # Neumann ghost: v_{n+1} = v_n
        # convection -v_i (v_{i+1} - v_{i-1}) / (2h)
        if i < n - 1:
            T.add(i, i, i + 1, -c)
        else:
            T.add(i, i, i, -c)  # ghost v_{n+1} = v_n
        if i > 0:
            T.add(i, i, i - 1, c)
        else:
            N[i, i] += c  # v_0 = u(t)
    C = np.full(n, 1.0 / n)
    return QBSystem.from_operators(np.eye(n), A, N, T.tocsr(), B, C,
                                   name=f"burgers_n{n}")


def _burgers_original_rhs(n, nu, u):
    h = 1.0 / (n + 1)

    def f(t, v):
        left = np.concatenate([[u(t)], v[:-1]])
        right = np.concatenate([v[1:], [v[-1]]])
        return -v * (right - left) / (2 * h) + nu * (right - 2 * v + left) / h**2

    return f


# -- FitzHugh-Nagumo -------------------------------------------------------

def fitzhugh_nagumo(nbar, eps=0.015, h=0.5, gamma=0.05, g=0.05):
    """Lifted FitzHugh-Nagumo system; size n = 3 nbar + 1.

    Finite differences on nbar nodes spanning [0,1] with Neumann ends; the
    stimulus i0(t) enters through the left ghost node.  The cubic
    f(v) = v(v-0.1)(1-v) is lifted with z_i = v_i^2, and the constant
    source g rides on one appended constant state (x_c' = 0, x_c(0) = 1).
    The output is v at x = 0.
    """
    if nbar < 3:
        raise ValueError("need at least 3 grid nodes")
    n = 3 * nbar + 1
    hx = 1.0 / (nbar - 1)
    iv = lambda i: i
    iw = lambda i: nbar + i
    iz = lambda i: 2 * nbar + i
    ic = 3 * nbar  # constant state

    lap = np.zeros((nbar, nbar))
    for i in range(nbar):
        if 0 < i < nbar - 1:
            lap[i, i - 1] = lap[i, i + 1] = 1.0 / hx**2
            lap[i, i] = -2.0 / hx**2
    lap[0, 0] = lap[-1, -1] = -2.0 / hx**2
    lap[0, 1] = lap[-1, -2] = 2.0 / hx**2

    A = np.zeros((n, n))
    N = np.zeros((n, n))
    B = np.zeros(n)
    T = _TensorBuilder(n)
    b0 = 2.0 * eps / hx  # stimulus coefficient in the first v row

    for i in range(nbar):
        # v rows: v' = eps*lap*v + (1/eps)(-v z + 1.1 z - 0.1 v - w + g x_c)
        A[iv(i), :nbar] += eps * lap[i]
        A[iv(i), iv(i)] += -0.1 / eps
        A[iv(i), iz(i)] += 1.1 / eps
        A[iv(i), iw(i)] += -1.0 / eps
        A[iv(i), ic] += g / eps
        T.add(iv(i), iv(i), iz(i), -1.0 / eps)
        # w rows
        A[iw(i), iv(i)] = h
        A[iw(i), iw(i)] = -gamma
        A[iw(i), ic] = g
        # z rows: z' = 2 v v'
        for jj in np.nonzero(lap[i])[0]:
            T.add(iz(i), iv(i), iv(jj), 2.0 * eps * lap[i, jj])
        T.add(iz(i), iv(i), iv(i), -0.2 / eps)
        T.add(iz(i), iv(i), iz(i), 2.2 / eps)
        T.add(iz(i), iz(i), iz(i), -2.0 / eps)
        T.add(iz(i), iv(i), iw(i), -2.0 / eps)
        T.add(iz(i), iv(i), ic, 2.0 * g / eps)
    B[iv(0)] = b0
    N[iz(0), iv(0)] = 2.0 * b0

    x0 = np.zeros(n)
    x0[ic] = 1.0
    C = np.zeros(n)
    C[iv(0)] = 1.0
    return QBSystem.from_operators(np.eye(n), A, N, T.tocsr(), B, C, x0=x0,
                                   name=f"fhn_nbar{nbar}")


def _fhn_original_rhs(nbar, eps, h, gamma, g, u):
    hx = 1.0 / (nbar - 1)
    lap = np.zeros((nbar, nbar))
    for i in range(1, nbar - 1):
        lap[i, i - 1] = lap[i, i + 1] = 1.0 / hx**2
        lap[i, i] = -2.0 / hx**2
    lap[0, 0] = lap[-1, -1] = -2.0 / hx**2
    lap[0, 1] = lap[-1, -2] = 2.0 / hx**2

    def f(t, x):
        v, w = x[:nbar], x[nbar:]
        fv = v * (v - 0.1) * (1.0 - v)
        dv = eps * (lap @ v) + (fv - w + g) / eps
        dv[0] += 2.0 * eps / hx * u(t)
        dw = h * v - gamma * w + g
        return np.concatenate([dv, dw])

    return f


# -- shared entry points ---------------------------------------------------

class _Kind(NamedTuple):
    build: Callable   # builder of the lifted QBSystem; its signature holds the defaults
    oracle: Callable  # (u, **params) -> (rhs f(t, x), x(0), output state or None for the mean)
    input: str        # InputSignal kind of the transient plots


_KINDS = {
    "rc_ladder": _Kind(
        rc_ladder, lambda u, ell: (_rc_original_rhs(ell, u), np.zeros(ell), 0), "exp_decay"),
    "burgers": _Kind(
        burgers, lambda u, n, nu: (_burgers_original_rhs(n, nu, u), np.zeros(n), None),
        "cosine_pi"),
    "fitzhugh_nagumo": _Kind(
        fitzhugh_nagumo,
        lambda u, nbar, **p: (_fhn_original_rhs(nbar, u=u, **p), np.zeros(2 * nbar), 0),
        "cubic_pulse"),
}


def _params(spec):
    """The spec's parameters with the builder's defaults filled in."""
    args = inspect.signature(_KINDS[spec.kind].build).bind(**spec.params)
    args.apply_defaults()
    return args.arguments


def build(spec: BenchmarkSpec) -> QBSystem:
    """Construct the lifted QB system for a benchmark spec."""
    return _KINDS[spec.kind].build(**_params(spec))


def benchmark_input(kind) -> InputSignal:
    """The input signal used for each benchmark's transient plots."""
    return InputSignal(_KINDS[kind].input)


def simulate_original(spec, u, t_end, dt):
    """Integrate the unlifted nonlinear benchmark ODEs by RK4 (lifting oracle)."""
    f, x0, pick = _KINDS[spec.kind].oracle(u, **_params(spec))
    times, xs = integrate_rk4(f, x0, t_end, dt)
    ys = xs.mean(axis=1) if pick is None else xs[:, pick]
    return Trajectory(times=times, outputs=ys,
                      meta={"system": spec.kind, "scheme": "rk4", "dt": dt})
