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
depend on which solves came first.  Below the sparse cut of
``qb_model.sparse_factors`` (the RC ladder, FitzHugh-Nagumo nbar < 43,
every ROM) that is a dense LAPACK LU that ``PencilSolver`` caches per
frequency.  Every other factorization serves one solve, on the pencil's
``qb_model.FactorPattern``, by the rule stated at
``qb_model.SPARSE_FACTOR_N``.  So do point evaluations at any n: H2, used
mostly to validate the error bound at pair sums that nothing else solves
at, factors once without caching, in real arithmetic for real arguments.

sigma_min(sE - A), the denominator of the error bounds, is a dense
``svdvals`` below the cut and on wide bands (FitzHugh-Nagumo).  From the cut
on, a pencil with a narrow reverse Cuthill-McKee band (Burgers: 1/1) gets a
certified lower bound instead, at O(n (kl + ku)^2) and with no
factorization of G = sE - A itself: bisection, down from the smallest column
norm of G, on band Cholesky factorizations of G^H G - (tau^2 + c) I, each of
which proves sigma_min >= tau when it succeeds (Rump, BIT 46, 2006).  A
lower bound keeps delta an upper bound of the true error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import qb_model
from .qb_model import DenseLU, FactorPattern, QBSystem, apply_quadratic, sparse_factors

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
_U = _EPS / 2
_TINY = np.finfo(float).tiny
# rounding margin of sigma_min_lower, in units of n eps (|s| ||E|| + ||A||)
_LOWER_MARGIN = 64
# iterations of the Hager-Higham estimate, as in LAPACK xLACN2
_NORM_EST_ITERS = 5
# relative width of the band certificate's bisection
_BISECT_RTOL = 1e-10


def _norm2_bound(M):
    """sqrt(||M||_1 ||M||_inf), a cheap upper bound on the spectral norm of a dense or sparse M.

    On a dense M the sums are those of ``np.linalg.norm``, bit for bit.
    """
    M = abs(M)
    return float(np.sqrt(M.sum(axis=0).max() * M.sum(axis=1).max()))


def _inv_norm1_estimate(lu, dtype):
    """Hager-Higham estimate of ||G^{-1}||_1 from factors of G (``qb_model.FactorPattern.factor``).

    The iteration of LAPACK xLACN2, which gecon runs on LAPACK factors:
    every estimate is ||G^{-1} x||_1 for an x with ||x||_1 = 1, so it never
    exceeds ||G^{-1}||_1.  It takes two solves with the factors per
    iteration, at most five iterations, plus one solve each for the start
    and the alternating test vector (six in all on a typical Burgers pencil,
    more than the factorization and its solve cost together; ``PencilSolver``
    runs it only where the field-of-values bound does not settle the test).
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


def _upper_band(M, order):
    """The upper triangle of a Hermitian sparse M, rows and columns in `order`, as pbtrf reads it.

    Entry (i, j), i <= j, of the permuted matrix sits in row b + i - j of
    column j, where b, the number of rows less one, is the permuted
    pattern's half-bandwidth.
    """
    M = M.tocoo()
    i, j = order[M.row], order[M.col]
    up = i <= j
    i, j = i[up], j[up]
    b = int(np.max(j - i, initial=0))
    ab = np.zeros((b + 1, M.shape[0]), dtype=M.dtype)
    ab[b + i - j, j] = M.data[up]
    return ab


def _certifies(ab, t, err):
    """True if a band Cholesky proves lambda_min(K) >= t.

    ab stores a Hermitian K~ of half-bandwidth b as :func:`_upper_band`
    does, and K is any Hermitian matrix with ||K - K~||_2 <= err.  The test
    runs LAPACK pbtrf on fl(K~ - (t + c) I) with the margin

        c = 4 (b + 1)(b + 3) u (max_j |K~_jj| + |t|) + 2 err,   u = eps / 2.

    If pbtrf runs to completion, its factor R has a positive diagonal, so
    R^H R is positive definite, and R^H R = M~ + dM with |dM| <= gamma
    |R|^H |R|, gamma = gamma_{b+3} = (b+3) u / (1 - (b+3) u), for the
    Cholesky factorization of a band matrix, whose inner products have at
    most b + 1 terms, in real or complex arithmetic (Demmel, LAPACK Working
    Note 14, 1989; Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 10.3 and sec. 3.6).  |R|^H |R| has half-bandwidth b and
    entries at most ||R e_i|| ||R e_j|| (Cauchy-Schwarz), and
    ||R e_j||^2 <= M~_jj / (1 - gamma), so ||dM||_2 <= (2b + 1) gamma
    max_j M~_jj / (1 - gamma).  M~ is K~ - (t + c) I with each diagonal
    entry and the shift rounded once, an error of at most 2 u (D + c),
    D = max_j |K~_jj| + |t| >= max_j M~_jj - c.  So lambda_min(K) >= t + c
    - err - ||dM||_2 - 2 u (D + c), and c is more than twice the last three
    terms to first order, which covers their second-order parts and the
    rounding of c itself (Rump, BIT 46, 2006, verifies positive
    definiteness the same way).  Underflow is not accounted for.
    """
    b = ab.shape[0] - 1
    margin = 4 * (b + 1) * (b + 3) * _U * (np.abs(ab[b]).max() + abs(t)) + 2 * err
    m = ab.copy()
    m[b] -= t + margin
    pbtrf = sla.get_lapack_funcs("pbtrf", (m,))
    return pbtrf(m, lower=0, overwrite_ab=1)[1] == 0


def _bisect(ok, lo, hi, tol):
    """The largest t of [lo, hi] that bisection to width tol finds with ok(t), given ok(lo).

    ok must hold up to some threshold and fail above it; lo stays a point
    where ok holds.
    """
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def _lambda_min_lower(M, order):
    """A certified lower bound on lambda_min of a real symmetric sparse M, by band Cholesky.

    M is the symmetric part (X + X^T) / 2 of E or A, or its negative, formed
    with an error of at most u |M| entrywise, so err = eps ||M||_1 covers it
    in :func:`_certifies`.  lambda_min lies in [min_j M_jj - 3 ||M||_1,
    min_j M_jj]; the bound is bisected there to 1e-10 of the bracket.
    """
    ab = _upper_band(M, order)
    scale = _norm2_bound(M)

    def ok(t):
        return _certifies(ab, t, _EPS * scale)

    hi = ab[-1].min()
    # M - lo I >= ||M||_1 I; the smallest normal number keeps the bracket open for M = 0
    lo = hi - 3 * scale - _TINY
    if not ok(lo):
        raise np.linalg.LinAlgError("no certified field of values: E or A is not finite")
    return _bisect(ok, lo, hi, _BISECT_RTOL * (hi - lo))


@dataclass
class _Pencil:
    """Cached data of sE - A at one frequency, each item computed on first use."""

    lu: DenseLU | None = None
    sigma_min: float | None = None
    x1: np.ndarray | None = None


class PencilSolver:
    """Per-frequency cache of sigma_min(sE - A), x1(s) and, below the sparse cut, the LU.

    Entries are keyed by the exact complex value of s.  Below the cut of
    ``qb_model.sparse_factors`` (a sparse Q and n >= SPARSE_FACTOR_N), one
    dense LAPACK LU per frequency (``qb_model.DenseLU``) serves x1-type
    solves and transposed y1-type solves alike.  Every other factorization
    (:meth:`_factor`: the solves from the cut on, and :meth:`solve_once`,
    for point evaluations, at any n) is made for one solve and not kept: the
    factors of a build's few hundred frequencies would set its memory peak.
    It factors the solver's one ``qb_model.FactorPattern`` of E and A, by
    the rule stated at ``qb_model.SPARSE_FACTOR_N``.  E, A and N are also
    held as CSR, for products with them, and Q's mode-2 matricization as q2.

    From the cut on, a pencil whose band is at most ``BAND_MAX`` wide has
    its sigma_min (:meth:`_certified_sigma_min`) and the field-of-values
    data of :meth:`sigma_min_lower` certified by band Cholesky in the same
    order, and runs no dense O(n^3) kernel; elsewhere they are dense
    ``svdvals`` and ``eigvalsh``.

    A frequency where sE - A is numerically singular raises
    ``np.linalg.LinAlgError``: the factorization meets an exactly zero
    pivot, or the reciprocal condition estimate 1 / (||G||_1 est
    ||G^{-1}||_1) of its factors is below machine epsilon (LAPACK gecon or
    gbcon below n = SPARSE_FACTOR_N, the Hager-Higham estimate from it on),
    or sigma_min / sigma_max is below n times it (on the band certificate's
    path: the certified sigma_min is below n eps sqrt(||G||_1 ||G||_inf)).
    A pencil whose field-of-values bound, from data computed at
    construction, proves rcond_1 >= eps skips the estimate
    (:meth:`_factor`); on Burgers that is every pencil with Re s >= 0.
    Every cached sigma_min is also an anchor of the Weyl bound in
    :meth:`sigma_min_lower`.

    ``counts`` tallies factorizations, cached and one-shot, and sigma_min
    evaluations since construction.
    """

    def __init__(self, sys: QBSystem):
        self.sys = sys
        self._cache = {}
        self.q2 = sys.mode2()
        self.E, self.A = sp.csr_matrix(sys.E), sp.csr_matrix(sys.A)
        # the bilinear term of B2 and c2: a CSR product is bitwise the same per
        # column of a block, which a dense GEMM and GEMV are not
        self.N = sp.csr_matrix(sys.N)
        self._sparse = sparse_factors(sys)
        self._pattern = FactorPattern(sys.n, (self.E, self.A))
        self._order = self._pattern.order if self._sparse and self._pattern.narrow else None
        self._E, self._A = self._pattern.values(self.E), self._pattern.values(self.A)
        self.counts = {"factorizations": 0, "sigma_min_evals": 0}
        self._fov = self._field_of_values()

    def _factor(self, z, cached=False):
        """Factors of zE - A, real for real z; LinAlgError where it is numerically singular.

        With cached (below the sparse cut), a dense LU of the dense pencil,
        else the factors of the solver's pattern, for one solve.  Their
        rcond test takes LAPACK's estimate below n = SPARSE_FACTOR_N and the
        Hager-Higham estimate from it on, as gbcon's scaled triangular
        solves cost O(n^2) even on a 1/1 band (Burgers n=3000: 6 ms against
        a 0.3 ms gbtrf).  The test is skipped where
        :meth:`_fov_bound` >= n eps (|z| ||E|| + ||A||) >= n eps sigma_max:
        then kappa_1 <= n kappa_2 <= 1 / eps, and as neither estimate
        exceeds ||G^{-1}||_1, both would pass the pencil.
        """
        if cached:
            data = z * self.sys.E - self.sys.A
            factor, norm = DenseLU, np.linalg.norm(data, 1)
        else:
            data = z * self._E - self._A
            factor, norm = self._pattern.factor, self._pattern.norm1(data)
        try:
            lu = factor(data)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"pencil sE - A singular at s = {complex(z)} ({exc})") from exc
        self.counts["factorizations"] += 1
        if self._fov_bound(z) >= self._margin_unit(z):
            return lu
        rcond = (lu.rcond(norm) if self.sys.n < qb_model.SPARSE_FACTOR_N
                 else 1.0 / (norm * _inv_norm1_estimate(lu, data.dtype)))
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
        """Complex factors of sE - A: a dense LU cached below the sparse cut, fresh ones from it on."""
        if not self._sparse:
            return self._cached(s, "lu", lambda z: self._factor(z, cached=True))
        return self._factor(complex(s))

    def apply(self, s, x, trans=False):
        """(sE - A) x, or (sE - A)^T x with trans, from the sparse copies of E and A."""
        E, A = (self.E.T, self.A.T) if trans else (self.E, self.A)
        return complex(s) * (E @ x) - A @ x

    def _check_residual(self, s, x, b, trans=False):
        """Under __debug__, assert ||(sE - A) x - b|| <= 1e-10 ||b|| (transposed with trans)."""
        if __debug__:
            nb = np.linalg.norm(b)
            if nb > 0:
                assert np.linalg.norm(self.apply(s, x, trans) - b) <= _RESIDUAL_TOL * nb, \
                    f"solve at s={s} lost accuracy"

    def solve(self, s, b):
        """Solve (sE - A) x = b with the complex factors at s."""
        b = np.asarray(b, dtype=complex)
        x = self._lu(s).solve(b)
        self._check_residual(s, x, b)
        return x

    def solve_once(self, s, b):
        """Solve (sE - A) x = b for a point evaluation, from factors that are not kept.

        For real s and b the factorization and solve run in real arithmetic,
        at under half the cost of complex; x is returned complex either way.
        The factors are :meth:`_factor`'s.  Below the sparse cut their
        rounding differs from :meth:`solve`'s, so no interpolation vector
        comes from here, only values that nothing reuses (H2 at a pair sum).
        """
        key = complex(s)
        b = np.asarray(b, dtype=complex)
        z, rhs = (key.real, b.real) if key.imag == 0 and not b.imag.any() else (key, b)
        x = np.asarray(self._factor(z).solve(rhs), dtype=complex)
        self._check_residual(key, x, b)
        return x

    def solve_t(self, s, b):
        """Solve (sE - A)^T x = b (plain transpose)."""
        b = np.asarray(b, dtype=complex)
        x = self._lu(s).solve(b, "T")
        self._check_residual(s, x, b, trans=True)
        return x

    def x1(self, s):
        """x1(s) = (sE - A)^{-1} B, solved once per frequency (read-only)."""
        def compute(key):
            x1 = self.solve(key, self.sys.B)
            x1.flags.writeable = False
            return x1
        return self._cached(s, "x1", compute)

    def sigma_min(self, s):
        """Smallest singular value of sE - A: an SVD, or a certified lower bound on narrow bands.

        A real s keeps the pencil real: the singular values are the same
        and real arithmetic is cheaper than complex.  Above the sparse cut on
        a band kl + ku <= ``qb_model.BAND_MAX`` the value is
        :meth:`_certified_sigma_min`, at most the exact one and below it by
        about c / (2 sigma_min^2) + 1e-10 relative, c the certificate's
        margin; elsewhere it is ``svdvals``'.
        """
        def compute(key):
            z = key.real if key.imag == 0 else key
            if self._order is not None:
                return self._certified_sigma_min(z)
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

    def _certified_sigma_min(self, z):
        """A certified lower bound on sigma_min(G), G = zE - A, by band Cholesky of G^H G.

        G is the pencil as rounded into floating point, which ``svdvals``
        takes too.  tau is certified where :func:`_certifies` proves
        lambda_min(G^H G) >= fl(tau^2) on G^H G formed sparse and stored as
        a band in reverse Cuthill-McKee order: each entry is an inner
        product of at most w terms, w the most nonzeros of a column of G, so
        it is off by at most gamma_{w+2} (|G|^H |G|), and
        err = (w + 3) u ||G||_1 ||G||_inf bounds that in norm.  The margin c
        of the certificate is thus

            c = 4 (b + 1)(b + 3) u (max_j (G^H G)_jj + tau^2)
                + 2 (w + 3) u ||G||_1 ||G||_inf,

        with b the half-bandwidth of G^H G (at most kl + ku).  The bracket
        starts at the smallest column norm sqrt(min_j (G^H G)_jj) = min_j
        ||G e_j||, which is at least sigma_min; its lower end is halved from
        there until certified, then bisected up to 1e-10 relative.  The
        result, the last certified tau less eps relative for the rounding of
        tau^2, rests only on Cholesky factorizations that succeeded.

        Raises ``np.linalg.LinAlgError`` where no tau above
        n eps sqrt(||G||_1 ||G||_inf) is certified, as on a singular pencil.
        """
        self.counts["sigma_min_evals"] += 1
        G = z * self.E - self.A
        norm_G = _norm2_bound(G)
        floor = self.sys.n * _EPS * norm_G
        H = _upper_band(G.conj().T @ G, self._order)
        err = (G.getnnz(axis=0).max() + 3) * _U * norm_G ** 2

        def ok(tau):
            return _certifies(H, tau * tau, err)

        hi = tau = np.sqrt(H[-1].real.min())
        while tau > floor and not ok(tau):
            hi, tau = tau, 0.5 * tau
        sigma = _bisect(ok, tau, hi, _BISECT_RTOL * hi) * (1 - _EPS) if tau > floor else 0.0
        if not sigma > floor:
            raise np.linalg.LinAlgError(
                f"pencil sE - A singular at s = {complex(z)} (sigma_min below {floor:.1e})")
        return float(sigma)

    def cached_sigma_min(self, s):
        """sigma_min(sE - A) if already computed, else None."""
        entry = self._cache.get(complex(s))
        return None if entry is None else entry.sigma_min

    def _field_of_values(self):
        """Spectral data of the lower bounds, computed once per solver at construction.

        lambda_min and lambda_max of E_s, a bound on ||E_k||, lambda_max of
        A_s, and the bounds sqrt(||.||_1 ||.||_inf) on ||E|| and ||A||.  The
        eigenvalues come from dense ``eigvalsh``, except on the band path of
        :meth:`sigma_min`, where band Cholesky tests on E_s - mu I, nu I - E_s
        and nu I - A_s bound them outward (:func:`_lambda_min_lower`).
        """
        if self._order is None:
            E, A = self.sys.E, self.sys.A
            lam_E = sla.eigvalsh(0.5 * (E + E.T))
            return (lam_E[0], lam_E[-1], _norm2_bound(0.5 * (E - E.T)),
                    sla.eigvalsh(0.5 * (A + A.T))[-1], _norm2_bound(E), _norm2_bound(A))
        E, A, order = self.E, self.A, self._order
        E_s, A_s = 0.5 * (E + E.T), 0.5 * (A + A.T)
        return (_lambda_min_lower(E_s, order), -_lambda_min_lower(-E_s, order),
                _norm2_bound(0.5 * (E - E.T)), -_lambda_min_lower(-A_s, order),
                _norm2_bound(E), _norm2_bound(A))

    def _margin_unit(self, w):
        """n eps (|w| ||E|| + ||A||) >= n eps sigma_max(wE - A), 1/64 of the bounds' margin."""
        *_, eta_E, eta_A = self._fov
        return self.sys.n * _EPS * (np.abs(w) * eta_E + eta_A)

    def _fov_bound(self, z):
        """The field-of-values bound of :meth:`sigma_min_lower` at z, less its margin.

        z is a scalar or an array; the data are those of :meth:`_field_of_values`.
        """
        lam_E_min, lam_E_max, norm_Ek, lam_A_max, _, _ = self._fov
        x = z.real
        return (np.where(x >= 0, x * lam_E_min, x * lam_E_max)
                - np.abs(z.imag) * norm_Ek - lam_A_max - _LOWER_MARGIN * self._margin_unit(z))

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
        On the band path of :meth:`sigma_min` the anchors and the
        field-of-values data are certified bounds themselves, so there the
        margin only adds slack.  The field-of-values bound is
        :meth:`_fov_bound`, which :meth:`_factor` shares.
        """
        z = np.atleast_1d(np.asarray(s, dtype=complex))
        eta_E = self._fov[4]

        def margin(w):
            return _LOWER_MARGIN * self._margin_unit(w)

        lb = self._fov_bound(z)
        anchors = [(t, e.sigma_min) for t, e in self._cache.items() if e.sigma_min is not None]
        if anchors:
            t, sigma = (np.array(v) for v in zip(*anchors))
            weyl = (sigma - margin(t) - np.abs(z[:, None] - t) * eta_E).max(axis=1) - margin(z)
            lb = np.maximum(lb, weyl)
        for i, zi in enumerate(z):
            exact = self.cached_sigma_min(zi)
            if exact is not None:
                lb[i] = exact
        return lb if np.ndim(s) else float(lb[0])


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
