"""First- and second-order symmetric transfer functions of a QB system.

All quantities derive from resolvent solves with the pencil G(s) = sE - A:

    x1(s)      = G(s)^{-1} B
    y1(s)      = G(s)^{-T} C^T
    x2(s1,s2)  = G(s1+s2)^{-1} B2(s1,s2)
    y2(s1,s2)  = G(s1)^{-T} c2(s1,s2)

    H1(s)      = C x1(s)
    H2(s1,s2)  = C x2(s1,s2)

with B2(s1,s2) = Q(x1(s1) kron x1(s2)) + N(x1(s1)+x1(s2))/2 and
c2(s1,s2) = Q2(x1(s2) kron y1(s1+s2)) + N^T y1(s1+s2)/2 built from the
mode-2 matricization Q2.  Transposes are plain (non-conjugated) throughout.

Solves that produce interpolation vectors or derivatives (x1, y1, x2, y2,
dH2) factor sE - A in complex arithmetic whatever s, so a basis does not
depend on which solves came first.  The factorization follows the sparse
rule of ``qb_model.sparse_factors``: below it (the RC ladder, every ROM) a
dense LAPACK LU that ``PencilSolver`` caches per frequency; from it on (the
full Burgers models) SuperLU factors of the pencil held on one CSC pattern,
refactored for every solve and never cached.  H2 is a point evaluation,
used mostly to validate the error bound at pair sums that nothing else
solves at; it factors once without caching, in real arithmetic for real
arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .qb_model import CscPattern, QBSystem, apply_quadratic, sparse_factors

__all__ = [
    "PencilSolver",
    "solve_x1",
    "solve_y1",
    "b2_from_x1",
    "rhs_B2",
    "solve_x2",
    "solve_y2",
    "H1",
    "H2",
    "dH2",
]

_RESIDUAL_TOL = 1e-10
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# rounding margin of sigma_min_lower, in units of n eps (|s| ||E|| + ||A||)
_LOWER_MARGIN = 64
# iterations of the Hager-Higham estimate, as in LAPACK xLACN2
_NORM_EST_ITERS = 5


def _norm2_bound(M):
    """sqrt(||M||_1 ||M||_inf), a cheap upper bound on the spectral norm."""
    return float(np.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)))


def _inv_norm1_estimate(lu, dtype):
    """Hager-Higham estimate of ||G^{-1}||_1 from SuperLU factors of G.

    The iteration of LAPACK xLACN2, which gecon runs on LAPACK factors:
    every estimate is ||G^{-1} x||_1 for an x with ||x||_1 = 1, so it never
    exceeds ||G^{-1}||_1.  It takes two solves with the factors per
    iteration, at most five iterations, plus one solve each for the start
    and the alternating test vector (six in all on a typical Burgers pencil).
    """
    n = lu.shape[0]
    y = lu.solve(np.full(n, 1.0 / n, dtype))
    est = np.abs(y).sum()
    if n == 1:
        return est
    j = None
    for _ in range(_NORM_EST_ITERS):
        # the sign vector of y, with 1 where |y| is below the smallest normal
        # number (xLACN2's safe minimum), whose reciprocal would overflow
        a = np.abs(y)
        big = a >= _TINY
        sign = np.ones(n, dtype)
        sign[big] = y[big] / a[big]
        z = np.abs(lu.solve(sign, trans="H"))
        j_last, j = j, int(np.argmax(z))
        if j_last is not None and z[j_last] == z[j]:
            break
        e = np.zeros(n, dtype)
        e[j] = 1.0
        y = lu.solve(e)
        new = np.abs(y).sum()
        if new <= est:
            break
        est = new
    alt = (1.0 + np.arange(n) / (n - 1)) * (-1.0) ** np.arange(n)
    return max(est, 2.0 * np.abs(lu.solve(alt.astype(dtype))).sum() / (3 * n))


@dataclass
class _Pencil:
    """Cached data of sE - A at one frequency, each item computed on first use."""

    lu: tuple | None = None
    sigma_min: float | None = None
    x1: np.ndarray | None = None


class PencilSolver:
    """Per-frequency cache of sigma_min(sE - A), x1(s) and, below the sparse cut, the LU.

    Entries are keyed by the exact complex value of s.  Systems under the
    rule of ``qb_model.sparse_factors`` (a sparse Q and n >= SPARSE_FACTOR_N)
    factor sE - A with SuperLU on one CSC pattern of E and A built here,
    whose data is rewritten for each s.  Every solve refactors
    and no SuperLU object is kept: the factors of a build's few hundred
    frequencies would set its memory peak.  Below the cut, one dense LAPACK
    LU per frequency serves x1-type solves and transposed y1-type solves
    alike.  :meth:`solve_once` factors without caching, for point
    evaluations.  E, A and N are also held as CSR, for products with them.

    A frequency where sE - A is numerically singular raises
    ``np.linalg.LinAlgError``: the reciprocal condition estimate
    1 / (||G||_1 est ||G^{-1}||_1) of its factors is below machine epsilon
    (LAPACK gecon on a dense LU; the same Hager-Higham estimate on SuperLU
    factors, which also report an exactly singular pencil), or
    sigma_min / sigma_max is below n times it.  Every cached sigma_min is
    also an anchor of the Weyl bound in :meth:`sigma_min_lower`.

    ``counts`` tallies factorizations, cached and one-shot, and sigma_min
    evaluations since construction.
    """

    def __init__(self, sys: QBSystem):
        self.sys = sys
        self._cache = {}
        self._q2 = None
        self.E, self.A = sp.csr_matrix(sys.E), sp.csr_matrix(sys.A)
        # the bilinear term of B2 and c2: a CSR product is bitwise the same per
        # column of a block, which a dense GEMM and GEMV are not
        self.N = sp.csr_matrix(sys.N)
        self._pattern = None
        if sparse_factors(sys):
            self._pattern = CscPattern(sys.n, (self.E, self.A))
            self._Ep, self._Ap = self._pattern.values(self.E), self._pattern.values(self.A)
        self.counts = {"factorizations": 0, "sigma_min_evals": 0}
        self._fov = None

    def _factor(self, z):
        """Factors of zE - A, real for real z; LinAlgError where it is numerically singular.

        A LAPACK LU tuple below the sparse cut, a SuperLU object from it on.
        """
        if self._pattern is None:
            G = z * self.sys.E - self.sys.A
            # lu_factor only warns on an exactly singular G; gecon's rcond
            # of its factors is 0 there, and the check below raises
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu = sla.lu_factor(G)
            gecon = sla.get_lapack_funcs("gecon", (lu[0],))
            rcond, _ = gecon(lu[0], np.linalg.norm(G, 1), norm="1")
        else:
            data = z * self._Ep - self._Ap
            try:
                lu = self._pattern.splu(data)
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"pencil sE - A singular at s = {complex(z)} ({exc})") from exc
            rcond = 1.0 / (self._pattern.norm1(data) * _inv_norm1_estimate(lu, data.dtype))
        self.counts["factorizations"] += 1
        if not rcond >= _EPS:
            raise np.linalg.LinAlgError(
                f"pencil sE - A singular at s = {complex(z)} (rcond {rcond:.1e})")
        return lu

    def _cached(self, s, item, compute):
        """Item `item` of the cache entry at s, set to compute(complex(s)) on first use."""
        key = complex(s)
        entry = self._cache.get(key)
        if entry is None or getattr(entry, item) is None:
            value = compute(key)
            entry = self._cache.setdefault(key, _Pencil())
            setattr(entry, item, value)
        return getattr(entry, item)

    def _lu(self, s):
        """Complex factors of sE - A: cached below the sparse cut, fresh from it on."""
        if self._pattern is None:
            return self._cached(s, "lu", self._factor)
        return self._factor(complex(s))

    def apply(self, s, x):
        """(sE - A) x from the sparse copies of E and A."""
        return complex(s) * (self.E @ x) - self.A @ x

    def _check_residual(self, s, x, b):
        if __debug__:
            nb = np.linalg.norm(b)
            if nb > 0:
                assert np.linalg.norm(self.apply(s, x) - b) <= _RESIDUAL_TOL * nb, \
                    f"solve at s={s} lost accuracy"

    def solve(self, s, b):
        """Solve (sE - A) x = b with the complex factors at s."""
        b = np.asarray(b, dtype=complex)
        x = _lu_solve(self._lu(s), b)
        self._check_residual(s, x, b)
        return x

    def solve_once(self, s, b):
        """Solve (sE - A) x = b for a point evaluation, from factors that are not kept.

        For real s and b the factorization and solve run in real arithmetic,
        at under half the cost of complex; x is returned complex either way.
        Its rounding differs from :meth:`solve`, so no interpolation vector
        comes from here, only values that nothing reuses (H2 at a pair sum).
        """
        key = complex(s)
        b = np.asarray(b, dtype=complex)
        if key.imag == 0 and not b.imag.any():
            x = _lu_solve(self._factor(key.real), b.real).astype(complex)
        else:
            x = _lu_solve(self._factor(key), b)
        self._check_residual(key, x, b)
        return x

    def solve_t(self, s, b):
        """Solve (sE - A)^T x = b (plain transpose)."""
        return _lu_solve(self._lu(s), np.asarray(b, dtype=complex), trans=1)

    def x1(self, s):
        """x1(s) = (sE - A)^{-1} B, solved once per frequency (read-only)."""
        def compute(key):
            x1 = self.solve(key, self.sys.B)
            x1.flags.writeable = False
            return x1
        return self._cached(s, "x1", compute)

    def sigma_min(self, s):
        """Smallest singular value of sE - A, from a dense SVD.

        A real s keeps the pencil real: the singular values are the same
        and the real SVD is cheaper than the complex one.
        """
        def compute(key):
            z = key.real if key.imag == 0 else key
            sv = sla.svdvals(z * self.sys.E - self.sys.A)
            self.counts["sigma_min_evals"] += 1
            # kappa_1 <= n kappa_2: a pencil accepted here also passes the
            # rcond >= eps test of its LU, so the scan never selects a point
            # it cannot then solve at
            if not sv[-1] > self.sys.n * _EPS * sv[0]:
                raise np.linalg.LinAlgError(
                    f"pencil sE - A singular at s = {key} (sigma_min {sv[-1]:.1e})")
            return float(sv[-1])
        return self._cached(s, "sigma_min", compute)

    def cached_sigma_min(self, s):
        """sigma_min(sE - A) if already computed, else None."""
        entry = self._cache.get(complex(s))
        return None if entry is None else entry.sigma_min

    def _field_of_values(self):
        """Spectral data of the lower bounds, computed once per solver.

        lambda_min and lambda_max of E_s, a bound on ||E_k||, lambda_max of
        A_s, and the bounds sqrt(||.||_1 ||.||_inf) on ||E|| and ||A||.
        """
        if self._fov is None:
            E, A = self.sys.E, self.sys.A
            lam_E = sla.eigvalsh(0.5 * (E + E.T))
            self._fov = (lam_E[0], lam_E[-1], _norm2_bound(0.5 * (E - E.T)),
                         sla.eigvalsh(0.5 * (A + A.T))[-1], _norm2_bound(E), _norm2_bound(A))
        return self._fov

    def sigma_min_lower(self, s):
        """Certified lower bound beta_lb(s) <= sigma_min(sE - A), for a scalar or 1-D array s.

        Where sigma_min(s) is cached, beta_lb(s) is that value.  Elsewhere it
        is the larger of two bounds, each less a rounding margin, and costs
        no SVD and no factorization.  For s = x + iy, the field of values of
        sE - A gives

            sigma_min(s) >= x lambda(E_s) - |y| ||E_k|| - lambda_max(A_s),

        with lambda = lambda_min for x >= 0, else lambda_max, and E_s, E_k,
        A_s the symmetric and skew parts of E and A; Weyl's inequality gives

            sigma_min(s) >= sigma_min(t) - |s - t| ||E||

        for every anchor t, a frequency whose sigma_min is cached.  The
        margin at s is 64 n eps (|s| ||E|| + ||A||), which bounds the
        backward errors of ``svdvals`` and ``eigvalsh`` and the rounding of
        the bounds themselves; the Weyl bound also subtracts the margin at t.
        """
        z = np.atleast_1d(np.asarray(s, dtype=complex))
        lam_E_min, lam_E_max, norm_Ek, lam_A_max, eta_E, eta_A = self._field_of_values()

        def margin(w):
            return _LOWER_MARGIN * self.sys.n * _EPS * (np.abs(w) * eta_E + eta_A)

        x = z.real
        lb = (np.where(x >= 0, x * lam_E_min, x * lam_E_max)
              - np.abs(z.imag) * norm_Ek - lam_A_max)
        anchors = [(t, e.sigma_min) for t, e in self._cache.items() if e.sigma_min is not None]
        if anchors:
            t, sigma = (np.array(v) for v in zip(*anchors))
            weyl = (sigma - margin(t) - np.abs(z[:, None] - t) * eta_E).max(axis=1)
            lb = np.maximum(lb, weyl)
        lb = lb - margin(z)
        for i, zi in enumerate(z):
            exact = self.cached_sigma_min(zi)
            if exact is not None:
                lb[i] = exact
        return lb if np.ndim(s) else float(lb[0])

    @property
    def q2(self):
        if self._q2 is None:
            self._q2 = self.sys.mode2()
        return self._q2


def _lu_solve(lu, b, trans=0):
    """Solve with the factors of :meth:`PencilSolver._factor`; trans=1 solves with G^T."""
    if isinstance(lu, tuple):
        return sla.lu_solve(lu, b, trans=trans)
    return lu.solve(b, trans="T" if trans else "N")


def _solver(sys, solver):
    return solver if solver is not None else PencilSolver(sys)


def solve_x1(sys, s, solver=None):
    """Primal subsystem-1 state x1(s) = (sE - A)^{-1} B (cached, read-only)."""
    return _solver(sys, solver).x1(s)


def solve_y1(sys, s, solver=None):
    """Dual subsystem-1 state y1(s) = (sE - A)^{-T} C^T."""
    return _solver(sys, solver).solve_t(s, sys.C)


def b2_from_x1(solver, u, v):
    """B2 = Q (u kron v) + N (u + v) / 2 from x1 vectors u and v.

    v may be an n x m block of x1 columns; column c of the result is then
    bitwise B2 from u and v[:, c].
    """
    w = u if v.ndim == 1 else u[:, None]
    return apply_quadratic(solver.sys.Q, u, v) + 0.5 * (solver.N @ (w + v))


def rhs_B2(sys, s1, s2, solver=None):
    """Right-hand side of the second subsystem, symmetric in (s1, s2)."""
    solver = _solver(sys, solver)
    return b2_from_x1(solver, solve_x1(sys, s1, solver), solve_x1(sys, s2, solver))


def solve_x2(sys, s1, s2, solver=None):
    """Primal subsystem-2 state x2(s1,s2) = ((s1+s2)E - A)^{-1} B2(s1,s2)."""
    solver = _solver(sys, solver)
    return solver.solve(s1 + s2, rhs_B2(sys, s1, s2, solver))


def solve_y2(sys, s1, s2, solver=None):
    """Dual subsystem-2 state y2(s1,s2) = (s1 E - A)^{-T} c2(s1,s2)."""
    solver = _solver(sys, solver)
    y1s = solve_y1(sys, s1 + s2, solver)
    x1b = solve_x1(sys, s2, solver)
    c2 = apply_quadratic(solver.q2, x1b, y1s) + 0.5 * (solver.N.T @ y1s)
    return solver.solve_t(s1, c2)


def H1(sys, s, solver=None):
    """First-order transfer function C (sE - A)^{-1} B."""
    return sys.C @ solve_x1(sys, s, solver)


def H2(sys, s1, s2, solver=None):
    """Second-order symmetric transfer function C x2(s1, s2).

    A point evaluation: x2 comes from :meth:`PencilSolver.solve_once`, so no
    LU at s1 + s2 stays in the solver's cache.
    """
    solver = _solver(sys, solver)
    return sys.C @ solver.solve_once(s1 + s2, rhs_B2(sys, s1, s2, solver))


def dH2(sys, s1, s2, which, solver=None):
    """Partial derivative of H2 with respect to argument `which` (1 or 2).

    Both partials share the term -y1(s1+s2)^T E x2(s1,s2); they coincide
    at s1 = s2.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    solver = _solver(sys, solver)
    y1s = solve_y1(sys, s1 + s2, solver)
    x2 = solve_x2(sys, s1, s2, solver)
    common = -(y1s @ (sys.E @ x2))
    if which == 1:
        x1 = solve_x1(sys, s1, solver)
        y2 = solve_y2(sys, s1, s2, solver)
    else:
        x1 = solve_x1(sys, s2, solver)
        y2 = solve_y2(sys, s2, s1, solver)
    return common - x1 @ (sys.E.T @ y2)
