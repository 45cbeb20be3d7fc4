"""A posteriori error bounds for the first two symmetric transfer functions.

The bound for each subsystem multiplies the norms of a primal and a dual
reduced-model residual and divides by the smallest singular value of the
resolvent pencil:

    delta1(s)      = ||r1_du(s)||  ||r1_pr(s)||  / sigma_min(sE - A)
    delta2(s1,s2)  = ||r2_du||     ||r2_pr||     / sigma_min((s1+s2)E - A)

Primal subsystems are reduced with trial V, test W; duals with trial W,
test V, so the dual reduced matrix is the transposed primal one.  Both
bounds then dominate the true transfer-function errors |H1 - H1_rom| and
|H2 - H2_rom| of the subsystem ROMs.  Each subsystem ROM keeps the leading
columns of its bases that ``projection.square_bases`` selects; one
``_ReducedPair`` routine serves both subsystems, which differ only in the
pencil frequency (s or s1 + s2) and the right-hand side (B or B2(s1, s2)).

sigma_min(sE - A) = beta(s) is a dense ``svdvals`` of the pencil, in real
arithmetic when s is real, cached per frequency by
``transfer.PencilSolver`` next to the LU of the resolvent solves.  beta
must not be overestimated, or delta would fall below the true error, so
it is exact rather than a Krylov estimate: a Krylov iteration started
from the previous frequency's singular vector can miss the smallest
singular value of a decoupled system outright.
``tests/test_error_bound.py::test_beta_matches_svdvals_on_grids``
compares beta with the complex ``svdvals`` on the benchmark grids and on
such a decoupled system.

The greedy needs the exact bound only at the maximizer of a grid scan;
elsewhere num / beta_lb >= delta, with num = ||r_du|| ||r_pr|| from
:meth:`BoundEvaluator.parts_1` / :meth:`BoundEvaluator.parts_2` and the
certified beta_lb <= beta of ``PencilSolver.sigma_min_lower``, can rule a
point out (see ``greedy._scan``).  Residuals use sparse products with E
and A held by the same solver.

The true errors that validate the bound take the full model's H1 from the
cached x1(s), and its H2 from one B2(s1, s2), shared with the reduced H2,
and a one-shot solve (``PencilSolver.solve_once``) at s1 + s2: apart from
the selected pair, no other solve uses those pair sums, so a cached LU there
would only hold memory.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla  # noqa: F401  (the benchmark tracer wraps kernels here)

from . import projection, transfer

__all__ = ["beta", "BoundEvaluator", "BoundValue"]


def beta(sys, s, solver=None):
    """Smallest singular value of sE - A, cached per frequency by the solver."""
    return transfer._solver(sys, solver).sigma_min(s)


class BoundValue:
    """Container for delta1, delta2 and their sum."""

    def __init__(self, delta1, delta2):
        self.delta1 = delta1
        self.delta2 = delta2
        self.delta = delta1 + delta2

    def __repr__(self):
        return f"BoundValue(delta1={self.delta1:.3e}, delta2={self.delta2:.3e})"


class _ReducedPair:
    """The ROM of one subsystem: its square bases and reduced linear operators."""

    def __init__(self, sys, V, W):
        self.V, self.W = projection.square_bases(V, W)
        self.E, self.A, _, self.C = projection.project_linear(sys, self.V, self.W)

    def transfer(self, z, b):
        """C_r (zE_r - A_r)^{-1} W^T b (0 for empty bases)."""
        return self.C @ np.linalg.solve(z * self.E - self.A, self.W.T @ b)

    def residuals(self, solver, z, b):
        """Primal residual b - (zE - A) V x_r and dual -C^T - (zE - A)^T W y_r."""
        G = z * self.E - self.A
        x = np.linalg.solve(G, self.W.T @ b)
        y = np.linalg.solve(G.T, -self.C)
        return b - solver.apply(z, self.V @ x), -solver.sys.C - solver.apply_t(z, self.W @ y)


class BoundEvaluator:
    """Evaluates delta1/delta2 over frequency grids for fixed bases.

    Bases are replaced wholesale via set_bases_1/set_bases_2 (the greedy
    loop re-sets them after each extension); sigma_min values live in the
    solver's per-frequency cache, shared between delta1 at s and delta2 at
    pairs summing to s.
    """

    def __init__(self, sys, solver=None):
        self.sys = sys
        self.solver = solver if solver is not None else transfer.PencilSolver(sys)
        n = sys.n
        self.set_bases_1(np.zeros((n, 0)), np.zeros((n, 0)))
        self.set_bases_2(np.zeros((n, 0)), np.zeros((n, 0)))

    def set_bases_1(self, V1, W1):
        self._sub1 = _ReducedPair(self.sys, V1, W1)

    def set_bases_2(self, V2, W2):
        self._sub2 = _ReducedPair(self.sys, V2, W2)

    def beta(self, s):
        val = self.solver.cached_sigma_min(s)
        return beta(self.sys, s, self.solver) if val is None else val

    # -- subsystem 1: pencil at s, right-hand side B ----------------------

    def residuals_1(self, s):
        """Primal and dual residuals of the reduced first subsystem."""
        return self._sub1.residuals(self.solver, s, self.sys.B)

    def parts_1(self, s):
        """(||r_pr|| ||r_du||, s): delta1's numerator and its pencil frequency."""
        r_pr, r_du = self.residuals_1(s)
        return np.linalg.norm(r_pr) * np.linalg.norm(r_du), complex(s)

    def delta1(self, s):
        num, z = self.parts_1(s)
        return num / self.beta(z)

    def h1_rom(self, s):
        """Transfer function of the reduced first subsystem (0 for empty bases)."""
        return self._sub1.transfer(s, self.sys.B)

    def true_error_1(self, s):
        return abs(transfer.H1(self.sys, s, self.solver) - self.h1_rom(s))

    # -- subsystem 2: pencil at s1 + s2, right-hand side B2(s1, s2) -------

    def residuals_2(self, s1, s2):
        """Primal and dual residuals of the reduced second subsystem."""
        b2 = transfer.rhs_B2(self.sys, s1, s2, self.solver)
        return self._sub2.residuals(self.solver, complex(s1) + complex(s2), b2)

    def parts_2(self, s1, s2):
        """(||r_pr|| ||r_du||, s1 + s2): delta2's numerator and its pencil frequency."""
        r_pr, r_du = self.residuals_2(s1, s2)
        return np.linalg.norm(r_pr) * np.linalg.norm(r_du), complex(s1) + complex(s2)

    def delta2(self, s1, s2):
        num, z = self.parts_2(s1, s2)
        return num / self.beta(z)

    def h2_rom(self, s1, s2):
        """Second transfer function of the reduced second subsystem."""
        b2 = transfer.rhs_B2(self.sys, s1, s2, self.solver)
        return self._sub2.transfer(complex(s1) + complex(s2), b2)

    def true_error_2(self, s1, s2):
        """|H2 - H2_rom| at (s1, s2), both from one B2(s1, s2); the full H2 solve is one-shot."""
        ssum = complex(s1) + complex(s2)
        b2 = transfer.rhs_B2(self.sys, s1, s2, self.solver)
        return abs(self.sys.C @ self.solver.solve_once(ssum, b2) - self._sub2.transfer(ssum, b2))

    def bound(self, s1, s2):
        return BoundValue(self.delta1(s1), self.delta2(s1, s2))
