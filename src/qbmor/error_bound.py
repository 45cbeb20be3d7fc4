"""A posteriori error bounds for the first two symmetric transfer functions.

The bound for each subsystem multiplies the norms of a primal and a dual
reduced-model residual and divides by the smallest singular value of the
resolvent pencil:

    delta1(s)      = ||r1_du(s)||  ||r1_pr(s)||  / sigma_min(sE - A)
    delta2(s1,s2)  = ||r2_du||     ||r2_pr||     / sigma_min((s1+s2)E - A)

Primal subsystems are reduced with trial V, test W; duals with trial W,
test V, so the dual reduced matrix is the transposed primal one.  Both
bounds then dominate the true transfer-function errors |H1 - H1_rom| and
|H2 - H2_rom| of the subsystem ROMs.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from . import projection, transfer

__all__ = ["beta", "BoundEvaluator", "BoundValue"]


def beta(sys, s):
    """Smallest singular value of sE - A (0 flags a singular pencil)."""
    return float(sla.svdvals(complex(s) * sys.E - sys.A)[-1])


class BoundValue:
    """Container for delta1, delta2 and their sum."""

    def __init__(self, delta1, delta2):
        self.delta1 = delta1
        self.delta2 = delta2
        self.delta = delta1 + delta2

    def __repr__(self):
        return f"BoundValue(delta1={self.delta1:.3e}, delta2={self.delta2:.3e})"


class _ReducedPair:
    """Reduced primal/dual operators of one subsystem for given bases."""

    def __init__(self, sys, V, W):
        # a square reduced pencil needs equally sized bases; deflation can
        # unbalance them, in which case the trailing surplus is unused here
        r = min(V.shape[1], W.shape[1])
        V, W = V[:, :r], W[:, :r]
        self.V = V
        self.W = W
        self.E, self.A, _, self.B, self.C = projection.project_linear(sys, V, W)

    def solve_primal(self, s, rhs_reduced):
        return np.linalg.solve(s * self.E - self.A, rhs_reduced)

    def solve_dual(self, s):
        return np.linalg.solve((s * self.E - self.A).T, -self.C)


class BoundEvaluator:
    """Evaluates delta1/delta2 over frequency grids for fixed bases.

    Bases are replaced wholesale via set_bases_1/set_bases_2 (the greedy
    loop re-sets them after each extension); sigma_min values are cached by
    the exact complex frequency, shared between delta1 at s and delta2 at
    pairs summing to s.
    """

    def __init__(self, sys, solver=None):
        self.sys = sys
        self.solver = solver if solver is not None else transfer.PencilSolver(sys)
        self._beta_cache = {}
        n = sys.n
        self.set_bases_1(np.zeros((n, 0)), np.zeros((n, 0)))
        self.set_bases_2(np.zeros((n, 0)), np.zeros((n, 0)))

    def set_bases_1(self, V1, W1):
        self.V1, self.W1 = V1, W1
        self._sub1 = _ReducedPair(self.sys, V1, W1)

    def set_bases_2(self, V2, W2):
        self.V2, self.W2 = V2, W2
        self._sub2 = _ReducedPair(self.sys, V2, W2)

    def beta(self, s):
        key = complex(s)
        val = self._beta_cache.get(key)
        if val is None:
            val = beta(self.sys, key)
            self._beta_cache[key] = val
        return val

    # -- subsystem 1 ------------------------------------------------------

    def residuals_1(self, s):
        """Primal and dual residuals of the reduced first subsystem."""
        sys, sub = self.sys, self._sub1
        G = complex(s) * sys.E - sys.A
        z = sub.solve_primal(s, sub.B)
        r_pr = sys.B - G @ (sub.V @ z)
        z_du = sub.solve_dual(s)
        r_du = -sys.C - G.T @ (sub.W @ z_du)
        return r_pr, r_du

    def delta1(self, s):
        r_pr, r_du = self.residuals_1(s)
        b = self.beta(s)
        if b <= 0.0:
            return np.inf
        return np.linalg.norm(r_pr) * np.linalg.norm(r_du) / b

    def h1_rom(self, s):
        """Transfer function of the reduced first subsystem (0 for empty bases)."""
        sub = self._sub1
        return sub.C @ sub.solve_primal(s, sub.B)

    def true_error_1(self, s):
        return abs(transfer.H1(self.sys, s, self.solver) - self.h1_rom(s))

    # -- subsystem 2 ------------------------------------------------------

    def _rhs2(self, s1, s2):
        return transfer.rhs_B2(self.sys, s1, s2, self.solver)

    def residuals_2(self, s1, s2):
        """Primal and dual residuals of the reduced second subsystem."""
        sys, sub = self.sys, self._sub2
        ssum = complex(s1) + complex(s2)
        G = ssum * sys.E - sys.A
        b2 = self._rhs2(s1, s2)
        z = sub.solve_primal(ssum, sub.W.T @ b2)
        r_pr = b2 - G @ (sub.V @ z)
        z_du = sub.solve_dual(ssum)
        r_du = -sys.C - G.T @ (sub.W @ z_du)
        return r_pr, r_du

    def delta2(self, s1, s2):
        r_pr, r_du = self.residuals_2(s1, s2)
        b = self.beta(complex(s1) + complex(s2))
        if b <= 0.0:
            return np.inf
        return np.linalg.norm(r_pr) * np.linalg.norm(r_du) / b

    def h2_rom(self, s1, s2):
        """Second transfer function of the reduced second subsystem."""
        sub = self._sub2
        ssum = complex(s1) + complex(s2)
        z = sub.solve_primal(ssum, sub.W.T @ self._rhs2(s1, s2))
        return sub.C @ z

    def true_error_2(self, s1, s2):
        return abs(transfer.H2(self.sys, s1, s2, self.solver) - self.h2_rom(s1, s2))

    def bound(self, s1, s2):
        return BoundValue(self.delta1(s1), self.delta2(s1, s2))
