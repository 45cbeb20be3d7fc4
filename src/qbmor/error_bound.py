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

beta(s) = ``transfer.PencilSolver.sigma_min`` is cached per frequency next
to the LU of the resolvent solves, in real arithmetic when s is real.  beta
must not be overestimated, or delta would fall below the true error, so it
is never a bare estimate: a Krylov iteration started from the previous
frequency's singular vector can miss the smallest singular value of a
decoupled system outright.  Below the sparse cut, and on pencils with a
wide band, beta is the exact value from a dense ``svdvals``
(``tests/test_error_bound.py::test_beta_matches_svdvals_on_grids``
compares it with the complex ``svdvals`` on the benchmark grids and on
such a decoupled system).  Above the cut on a narrow band it is a certified
lower bound from band Cholesky factorizations, which only enlarges delta
(``test_band_certificate_brackets_svdvals``: between 1 - 1e-6 times the
complex ``svdvals`` and that value, on Burgers and on a decoupled system
above the cut).

The greedy needs the exact bound only at the maximizer of a grid scan;
elsewhere num / beta_lb >= delta, with num = ||r_du|| ||r_pr|| and the
certified beta_lb <= beta of ``PencilSolver.sigma_min_lower``, can rule a
point out (see ``greedy._scan``).  A scan evaluates its whole grid in one
batch (:meth:`BoundEvaluator.scan_1`, :meth:`BoundEvaluator.scan_2`): the
reduced primal and dual systems of the points are one stacked
``np.linalg.solve`` each, and the residuals take one GEMM per side with the
n x 2r blocks [E V, A V] and [E^T W, A^T W], formed from the solver's
sparse E and A whenever the bases are set.  delta2's right-hand sides
B2(s1, s) over the grid points s come from the cached x1(s) columns by
``transfer.b2_from_x1``, the formula of ``transfer.rhs_B2``, so each column
is bitwise the per-point B2.  A point whose x1 fails has a NaN column there;
it, and a point whose reduced solve fails, is skipped, as NaN, with a
warning (if the stacked solve fails, its points are solved one by one).
The per-point methods (``delta1``, ``delta2``, ``h1_rom``, ...) are
batches of one.

The true errors that validate the bound reuse the scan's batch
(:meth:`BoundEvaluator.true_errors`, one call per scan): the full model's
H1 is C X1 on the same x1 columns, the reduced transfer values come from
the same stacked solve, and the full H2 takes one one-shot solve
(``PencilSolver.solve_once``) with the batch's B2 at each pair sum s1 + s.
"""

from __future__ import annotations

import contextlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla  # noqa: F401  (the benchmark tracer wraps kernels here)

from . import projection, transfer

__all__ = ["beta", "BoundEvaluator", "ScanBatch"]


def beta(sys, s, solver=None):
    """Smallest singular value of sE - A, cached per frequency by the solver."""
    return transfer._solver(sys, solver).sigma_min(s)


@dataclass
class ScanBatch:
    """The shared work of one grid scan, one entry per point.

    nums holds the numerators ||r_du|| ||r_pr|| of the bound (NaN at a
    skipped point) and z the frequencies of their pencils.  The true errors
    reuse h_rom, the subsystem ROM's transfer values, with the full model's
    H1 in h_full (scan 1) or the right-hand sides B2 of its H2 solves as the
    columns of rhs (scan 2).
    """

    nums: np.ndarray
    z: np.ndarray
    h_rom: np.ndarray
    h_full: np.ndarray | None = None
    rhs: np.ndarray | None = None


def _one(s):
    """A batch of one frequency."""
    return np.array([complex(s)])


class _ReducedPair:
    """The ROM of one subsystem: square bases, reduced linear operators and residual blocks.

    (zE - A) V x = [E V, A V] [z x; -x], and likewise for W with E^T and
    A^T, so the n x 2r blocks kept here give a batch's residuals in one GEMM
    per side.
    """

    def __init__(self, solver, V, W):
        V, self.W = projection.square_bases(V, W)
        self.E, self.A, _, self.C = projection.project_linear(solver.sys, V, self.W)
        self._EA_V = np.hstack([solver.E @ V, solver.A @ V])
        self._EA_W = np.hstack([solver.E.T @ self.W, solver.A.T @ self.W])
        self._c = solver.sys.C[:, None]

    def residuals(self, z, b):
        """Primal residuals b - (zE - A) V x_r, duals -C^T - (zE - A)^T W y_r, and C_r x_r.

        z holds m pencil frequencies and b the right-hand sides, n x m (or
        n x 1, shared by all); the residuals are n x m.  The reduced primal
        and dual systems are one stacked solve each, which raises
        ``LinAlgError`` if any reduced pencil is singular.
        """
        G = z[:, None, None] * self.E
        G -= self.A  # in place: the stack is the largest array of a scan
        x = np.linalg.solve(G, (self.W.T @ b).T[..., None])[..., 0].T
        y = np.linalg.solve(G.transpose(0, 2, 1), -self.C[None, :, None])[..., 0].T
        r_pr = b - self._EA_V @ np.vstack([x * z, -x])
        r_du = -self._c - self._EA_W @ np.vstack([y * z, -y])
        return r_pr, r_du, self.C @ x

    def bound_parts(self, z, b):
        """(||r_pr|| ||r_du||, C_r x_r) at each frequency of z, as :meth:`residuals`."""
        r_pr, r_du, h = self.residuals(z, b)
        return np.linalg.norm(r_pr, axis=0) * np.linalg.norm(r_du, axis=0), h

    def scan(self, z, b):
        """:meth:`bound_parts` in one stack, NaN at the frequencies whose reduced pencil is singular.

        If the stack raises, its frequencies are solved point by point.
        """
        b = np.broadcast_to(b, (b.shape[0], z.size))
        try:
            return self.bound_parts(z, b)
        except np.linalg.LinAlgError:
            pass
        nums, h = np.full(z.size, np.nan), np.full(z.size, np.nan, dtype=complex)
        for i in range(z.size):
            with contextlib.suppress(np.linalg.LinAlgError):
                (nums[i],), (h[i],) = self.bound_parts(z[i:i + 1], b[:, i:i + 1])
        return nums, h


class BoundEvaluator:
    """Evaluates delta1/delta2 over frequency grids for fixed bases.

    Bases are replaced wholesale via set_bases_1/set_bases_2 (the greedy
    loop re-sets them after each extension); sigma_min values live in the
    solver's per-frequency cache, shared between delta1 at s and delta2 at
    pairs summing to s.  :meth:`scan_1` and :meth:`scan_2` evaluate a whole
    grid in one batch and skip, with a warning, a point where a solve
    fails; the per-point methods are batches of one and raise
    ``LinAlgError`` there instead.
    """

    def __init__(self, sys, solver=None):
        self.sys = sys
        self.solver = solver if solver is not None else transfer.PencilSolver(sys)
        n = sys.n
        self.set_bases_1(np.zeros((n, 0)), np.zeros((n, 0)))
        self.set_bases_2(np.zeros((n, 0)), np.zeros((n, 0)))

    def set_bases_1(self, V1, W1):
        self._sub1 = _ReducedPair(self.solver, V1, W1)

    def set_bases_2(self, V2, W2):
        self._sub2 = _ReducedPair(self.solver, V2, W2)

    def beta(self, s):
        val = self.solver.cached_sigma_min(s)
        return beta(self.sys, s, self.solver) if val is None else val

    # -- grid scans: one batch per grid ------------------------------------

    def scan_1(self, points):
        """The delta1 batch at grid points s: pencil at s, right-hand side B.

        The true errors' H1 = C X1 comes from the solver's cached x1(s)
        columns X1; a point whose x1 fails is skipped.
        """
        h_full = self.sys.C @ self._x1_columns(points)
        return self._batch(self._sub1, points, np.asarray(points, dtype=complex),
                           self.sys.B[:, None], h_full=h_full)

    def scan_2(self, s1, points):
        """The delta2 batch at pairs (s1, s) for grid points s: pencil at s1 + s, rhs B2(s1, s).

        B2 comes from x1(s1) and the solver's cached x1(s) columns by
        ``transfer.b2_from_x1``, column by column the B2 of ``transfer.rhs_B2``.
        A point whose x1 fails is skipped.
        """
        B2 = transfer.b2_from_x1(self.solver, self.solver.x1(s1), self._x1_columns(points))
        z = complex(s1) + np.asarray(points, dtype=complex)
        return self._batch(self._sub2, points, z, B2, rhs=B2)

    def _x1_columns(self, points):
        """The cached x1(s) as columns, NaN at the points where sE - A is singular."""
        cols = np.full((self.sys.n, len(points)), np.nan, dtype=complex)
        for i, s in enumerate(points):
            with contextlib.suppress(np.linalg.LinAlgError):
                cols[:, i] = self.solver.x1(s)
        return cols

    def _batch(self, sub, points, z, b, h_full=None, rhs=None):
        """The ScanBatch of sub at the points, with right-hand sides b (NaN where x1 failed).

        A point is skipped, as NaN, with a warning, where its x1 failed (its
        h_full or rhs column is NaN) or its reduced pencil is singular.
        """
        nums, h_rom = sub.scan(z, b)
        if h_full is not None:
            nums[np.isnan(h_full)] = np.nan
        for s, num in zip(points, nums):
            if np.isnan(num):
                warnings.warn(f"skipping sample point {s}: singular pencil")
        return ScanBatch(nums, z, h_rom, h_full, rhs)

    def true_errors(self, batch, points):
        """|H - H_rom| at the points of a scan batch where the mask points is set, else NaN.

        H is H1 from the batch, or H2 = C x2 from one one-shot solve
        (``PencilSolver.solve_once``) with the batch's B2 at the pair sum;
        a pencil singular there gives NaN.
        """
        h = np.full(points.size, np.nan, dtype=complex)
        if batch.rhs is None:
            h[points] = batch.h_full[points]
        else:
            for i in np.flatnonzero(points):
                with contextlib.suppress(np.linalg.LinAlgError):
                    h[i] = self.sys.C @ self.solver.solve_once(batch.z[i], batch.rhs[:, i])
        return np.abs(h - batch.h_rom)

    # -- subsystem 1 at one point: pencil at s, right-hand side B ----------

    def residuals_1(self, s):
        """Primal and dual residuals of the reduced first subsystem."""
        r_pr, r_du, _ = self._sub1.residuals(_one(s), self.sys.B[:, None])
        return r_pr[:, 0], r_du[:, 0]

    def delta1(self, s):
        nums, _ = self._sub1.bound_parts(_one(s), self.sys.B[:, None])
        return nums[0] / self.beta(complex(s))

    def h1_rom(self, s):
        """Transfer function of the reduced first subsystem (0 for empty bases)."""
        return self._sub1.bound_parts(_one(s), self.sys.B[:, None])[1][0]

    def true_error_1(self, s):
        return abs(transfer.H1(self.sys, s, self.solver) - self.h1_rom(s))

    # -- subsystem 2 at one pair: pencil at s1 + s2, right-hand side B2 -----

    def _pair(self, s1, s2):
        """The pencil frequency s1 + s2 and B2(s1, s2), as a batch of one."""
        return (_one(complex(s1) + complex(s2)),
                transfer.rhs_B2(self.sys, s1, s2, self.solver)[:, None])

    def residuals_2(self, s1, s2):
        """Primal and dual residuals of the reduced second subsystem."""
        r_pr, r_du, _ = self._sub2.residuals(*self._pair(s1, s2))
        return r_pr[:, 0], r_du[:, 0]

    def delta2(self, s1, s2):
        z, b2 = self._pair(s1, s2)
        return self._sub2.bound_parts(z, b2)[0][0] / self.beta(z[0])

    def h2_rom(self, s1, s2):
        """Second transfer function of the reduced second subsystem."""
        return self._sub2.bound_parts(*self._pair(s1, s2))[1][0]

    def true_error_2(self, s1, s2):
        """|H2 - H2_rom| at (s1, s2), both from one B2(s1, s2); the full H2 solve is one-shot."""
        z, b2 = self._pair(s1, s2)
        h_rom = self._sub2.bound_parts(z, b2)[1][0]
        return abs(self.sys.C @ self.solver.solve_once(z[0], b2[:, 0]) - h_rom)
