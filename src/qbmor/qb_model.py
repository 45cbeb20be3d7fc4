"""Core data types for quadratic-bilinear descriptor systems.

A system is the operator tuple (E, A, N, Q, B, C) of

    E x' = A x + N x u + Q (x kron x) + B u,    y = C x,

with E, A, N dense n x n, B, C length-n vectors and Q the mode-1
matricization of a third-order tensor, stored sparse as an n x n^2 matrix.

Tensor indexing convention (0-based): T(i, j, k) <-> Q[i, j*n + k], so
column j*n + k of Q multiplies u_j * v_k in Q (u kron v).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.io import mmread, mmwrite
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "QBSystem",
    "InputSignal",
    "SPARSE_FACTOR_N",
    "BAND_MAX",
    "sparse_factors",
    "quadratic_gather",
    "apply_quadratic",
    "symmetrize_quadratic",
    "mode2_matricization",
    "save_system",
    "load_system",
]

#: frequencies probed to confirm the pencil sE - A is regular
_REGULARITY_PROBES = (1.0, 10.0, 100.0, 1.0 + 1.0j)

#: stored fraction of Q's n^3 entries from which Q counts as dense (a
#: projected ROM's tensor generically has all of them)
DENSE_Q_FILL = 0.5
#: state dimension from which a system with a sparse Q is held sparse
#: (``sparse_factors``): transfer keeps no dense LU per frequency, and sim
#: holds E, A and N as CSR.  It is also the n cut of the one rule by which
#: transfer and sim factor a matrix on a fixed pattern (a pencil zE - A, a
#: Newton Jacobian), the kind of :class:`FactorPattern`:
#:   band:   LAPACK gbtrf, where the pattern's reverse Cuthill-McKee band
#:           kl + ku is at most BAND_MAX, at any n;
#:   dense:  LAPACK getrf on a wider pattern below SPARSE_FACTOR_N;
#:   sparse: SuperLU on a wider pattern from SPARSE_FACTOR_N on.
#: Implicit Euler on FitzHugh-Nagumo, whose Jacobian band is about as wide
#: as n, is faster with SuperLU from n = 100 on (n = 127: 4643 against 2910
#: steps/s, one BLAS thread), slower at n = 61 (5811 against 8912); a wide
#: band LU costs O(n^3) (nbar = 300 pencil: 40 against SuperLU's 0.8 ms)
SPARSE_FACTOR_N = 128
#: widest reverse Cuthill-McKee band kl + ku treated as a band: factored by
#: band LU at any n, and from the sparse cut on given a sigma_min and field
#: of values certified by band Cholesky in place of svdvals and eigvalsh.
#: The certificate's cost grows with n (kl + ku)^2 and svdvals' with n^3, so
#: the limit is where the two break even at n = 128, the sparse cut's
#: smallest n.  CPU ms per sigma_min of random band pencils there, one BLAS
#: thread, real (complex) s: kl + ku = 2: 0.74 against svdvals' 1.43; 12:
#: 1.14 (1.50) against 1.16 (1.71); 16: 1.44 (2.03) against 1.18 (1.87).  A
#: band LU beats a dense solve and SuperLU far beyond the limit (CPU us per
#: solve, kl + ku = 12: 20 against a dense solve's 131 at n = 100, 51
#: against SuperLU's 455 at n = 300), but a band about as wide as n is
#: slower than a dense LU (FitzHugh-Nagumo nbar = 40, n = 121, pencil band
#: 76/78: 0.46 against 0.42 ms per complex solve, one BLAS thread).
BAND_MAX = 12


def dense_quadratic(Q):
    """True if Q is a dense array or stores at least DENSE_Q_FILL of its n^3 entries."""
    return not sp.issparse(Q) or Q.nnz >= DENSE_Q_FILL * Q.shape[0] ** 3


def sparse_factors(sys):
    """The sparse-form rule shared by transfer and sim: a sparse Q and n >= SPARSE_FACTOR_N."""
    return sys.n >= SPARSE_FACTOR_N and not dense_quadratic(sys.Q)


def quadratic_gather(Q):
    """The triplets (i, j, k, Qg) of a CSR Q, built on first use and kept with Q.

    Stored entry p is T(i[p], j[p], k[p]) = Qg.data[p], and
    Qg = csr((Q.data, arange(nnz), Q.indptr)) has one column per stored
    entry, so Q (u kron v) = Qg (u[j] * v[k]): entry p of row i multiplies
    the same product u[j] v[k] as in Q @ (u kron v), in the same order, and
    the two agree bitwise, at O(nnz) instead of O(n^2) cost.  Q must not be
    modified in place after its first product.
    """
    g = getattr(Q, "_qbmor_gather", None)
    if g is None:
        n = Q.shape[0]
        j, k = np.divmod(Q.indices.astype(np.int64), n)
        g = Q._qbmor_gather = (
            np.repeat(np.arange(n), np.diff(Q.indptr)), j, k,
            sp.csr_matrix((Q.data, np.arange(Q.nnz), Q.indptr), shape=(n, Q.nnz)))
    return g


class FactorPattern:
    """A pattern fixed once, whose matrices are factored by the rule stated at SPARSE_FACTOR_N.

    The pattern is the union of the stored entries of some n x n matrices
    and of extra entries, given as column-major keys col * n + row.  Row and
    column i of its reverse Cuthill-McKee order are row and column perm[i]
    of the original, order is the inverse permutation, and kl and ku are
    the permuted pattern's bandwidths below and above the diagonal.  The
    order narrows the band of the RC ladder (l=50: 52/51 down to 3/3);
    Burgers is 1/1 either way, and a dense row or column, as
    FitzHugh-Nagumo's constant state gives, keeps a band about as wide as n.

    A matrix on the pattern is held as data of ``shape``: for a band, in
    Fortran order, entry (i, j) of the permuted matrix in row kl + ku + i - j
    of column j, under kl zero rows for the LU's fill-in; dense, as the n x n
    matrix in Fortran order; sparse, as the data of a CSC matrix whose
    entries follow the sorted keys.  :meth:`factor` returns factors whose
    ``solve(b, trans)`` takes trans "N", "T" or "H" as SuperLU's does.
    """

    def __init__(self, n, matrices, extra_keys=()):
        self.n = n
        self.keys = _pattern_keys(matrices, extra_keys)
        rows, self.cols = self.keys % n, self.keys // n
        pattern = sp.csr_matrix((np.ones(self.keys.size), (rows, self.cols)), shape=(n, n))
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=False)
        self.order = np.empty(n, dtype=np.int64)
        self.order[self.perm] = np.arange(n)
        offsets = self.order[rows] - self.order[self.cols]
        self.kl, self.ku = int(np.max(offsets, initial=0)), int(np.max(-offsets, initial=0))
        self.narrow = self.kl + self.ku <= BAND_MAX
        if self.narrow:
            self.kind, self.shape = "band", (2 * self.kl + self.ku + 1, n)
        elif n < SPARSE_FACTOR_N:
            self.kind, self.shape = "dense", (n, n)
        else:
            self.kind, self.shape = "sparse", (self.keys.size,)
            self.matrix = sp.csc_matrix((np.zeros(self.keys.size), (rows, self.cols)),
                                        shape=(n, n))

    def slots(self, keys):
        """Positions of the given keys (col * n + row) in the flattened data."""
        if self.kind == "sparse":
            return np.searchsorted(self.keys, keys)
        if self.kind == "dense":
            return keys
        i, j = self.order[keys % self.n], self.order[keys // self.n]
        return j * self.shape[0] + self.kl + self.ku + i - j

    def values(self, M):
        """M (on the pattern) as pattern data."""
        data = np.zeros(int(np.prod(self.shape)), dtype=M.dtype)
        data[self.slots(_csc_keys(M))] = sp.coo_matrix(M).data
        return data.reshape(self.shape, order="F")

    def norm1(self, data):
        """1-norm (largest absolute column sum) of the matrix with these data."""
        if self.kind == "sparse":
            return float(np.bincount(self.cols, np.abs(data), minlength=self.n).max())
        return np.abs(data).sum(axis=0).max()

    def factor(self, data):
        """Factors of the matrix with these data (real or complex).

        A band or dense LU overwrites data.  An exactly zero pivot raises
        ``np.linalg.LinAlgError``, also where SuperLU reports a RuntimeError.
        """
        if self.kind == "band":
            return BandLU(self, data)
        if self.kind == "dense":
            return DenseLU(data)
        self.matrix.data = data
        try:
            return spla.splu(self.matrix)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc


class BandLU:
    """LAPACK gbtrf factors of band data of a :class:`FactorPattern`, in the matrix's own order."""

    def __init__(self, band, ab):
        gbtrf, self._gbtrs, self._gbcon = _lapack(ab.dtype, ("gbtrf", "gbtrs", "gbcon"))
        self.lu, self.piv, info = gbtrf(ab, band.kl, band.ku, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"zero pivot in column {info}")
        self.band, self.shape = band, (band.n, band.n)

    def solve(self, b, trans="N"):
        """x with M x = b, M^T x = b or M^H x = b for trans "N", "T" or "H", as SuperLU's solve."""
        band = self.band
        x = self._gbtrs(self.lu, band.kl, band.ku, b[band.perm], self.piv, "NTH".index(trans),
                        overwrite_b=True)[0]
        return x[band.order]

    def rcond(self, anorm):
        """LAPACK gbcon's reciprocal condition estimate, given the 1-norm anorm of the matrix."""
        return self._gbcon(self.band.kl, self.band.ku, self.lu, self.piv, anorm)[0]


class DenseLU:
    """LAPACK getrf factors of a dense square matrix a, which they overwrite where they can.

    Unlike ``scipy.linalg.lu_factor``, a zero pivot raises LinAlgError and
    warns nothing; :meth:`solve` is ``lu_solve``'s getrs call, bitwise.
    """

    def __init__(self, a):
        getrf, self._getrs, self._gecon = _lapack(a.dtype, ("getrf", "getrs", "gecon"))
        self.lu, self.piv, info = getrf(a, overwrite_a=True)
        if info > 0:
            raise np.linalg.LinAlgError(f"zero pivot in column {info}")
        self.shape = self.lu.shape

    def solve(self, b, trans="N"):
        """x with M x = b, M^T x = b or M^H x = b for trans "N", "T" or "H", as SuperLU's solve."""
        return self._getrs(self.lu, self.piv, b, "NTH".index(trans))[0]

    def rcond(self, anorm):
        """LAPACK gecon's reciprocal condition estimate, given the 1-norm anorm of the matrix."""
        return self._gecon(self.lu, anorm, "1")[0]


@functools.lru_cache
def _lapack(dtype, names):
    """The LAPACK routines of these names for this dtype, looked up once per dtype."""
    return sla.get_lapack_funcs(names, dtype=dtype)


def _csc_keys(M):
    """Column-major keys col * n + row of M's stored entries."""
    M = sp.coo_matrix(M)
    return M.col.astype(np.int64) * M.shape[0] + M.row


def _pattern_keys(matrices, extra_keys):
    """The sorted keys of the union of the matrices' stored entries and extra_keys."""
    return np.unique(np.concatenate(
        [_csc_keys(M) for M in matrices] + [np.asarray(extra_keys, dtype=np.int64)]))


def apply_quadratic(Q, u, v):
    """Evaluate Q (u kron v) without forming an n x n^2 intermediate.

    v may also be an n x m block; column c of the result is then
    Q (u kron v[:, c]).  A CSR Q is applied as its gather (see
    :func:`quadratic_gather`) at O(nnz) cost, to a block column by column
    bitwise as to the vector; any other Q multiplies the flat outer product
    of u and v.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    n = u.shape[0]
    if v.shape[0] != n or Q.shape != (n, n * n):
        raise ValueError(
            f"dimension mismatch: Q is {Q.shape}, u has {u.shape[0]}, v has {v.shape[0]}"
        )
    if sp.issparse(Q) and Q.format == "csr":
        _, j, k, Qg = quadratic_gather(Q)
        return Qg @ (u[j] * v[k].T).T
    return Q @ np.multiply.outer(u, v).reshape((n * n,) + v.shape[1:])


def symmetrize_quadratic(Q):
    """Symmetrize Q in its last two tensor indices.

    Output satisfies Qs (u kron v) = Qs (v kron u) for all u, v while
    Qs (x kron x) = Q (x kron x) is preserved; entrywise
    Ts(i,j,k) = (T(i,j,k) + T(i,k,j)) / 2, summed over Q's stored entries
    and their copies with j and k swapped, at O(nnz).
    """
    Q = sp.coo_matrix(Q)
    n = Q.shape[0]
    j, k = np.divmod(Q.col.astype(np.int64), n)
    Qs = sp.csr_matrix((np.concatenate([Q.data, Q.data]),
                        (np.concatenate([Q.row, Q.row]), np.concatenate([Q.col, k * n + j]))),
                       shape=Q.shape)
    # canonical form: equal matrices get identical storage, so downstream
    # sparse products sum in the same order regardless of construction path
    Qs.sum_duplicates()
    Qs.data *= 0.5
    Qs.sort_indices()
    Qs.eliminate_zeros()
    return Qs


def mode2_matricization(Q):
    """Mode-2 matricization [T_1^T ... T_n^T] of the tensor behind Q.

    Entry move: (i, j*n + k) -> (k, j*n + i).  For symmetrized Q the
    identity w^T Q (u kron v) = u^T Q2 (v kron w) holds for all w, u, v.
    """
    Q = sp.coo_matrix(Q)
    n = Q.shape[0]
    j, k = Q.col // n, Q.col % n
    return sp.csr_matrix((Q.data, (k, j * n + Q.row)), shape=Q.shape)


@dataclass(frozen=True)
class QBSystem:
    """Immutable quadratic-bilinear descriptor system.

    Build instances with :meth:`from_operators`, which validates dimensions,
    probes pencil regularity and symmetrizes Q.
    """

    E: np.ndarray
    A: np.ndarray
    N: np.ndarray
    Q: sp.csr_matrix
    B: np.ndarray
    C: np.ndarray
    x0: np.ndarray
    name: str = ""

    @property
    def n(self):
        return self.A.shape[0]

    @classmethod
    def from_operators(cls, E, A, N, Q, B, C, x0=None, name=""):
        E = np.atleast_2d(np.asarray(E, dtype=float))
        A = np.atleast_2d(np.asarray(A, dtype=float))
        N = np.atleast_2d(np.asarray(N, dtype=float))
        B = np.asarray(B, dtype=float).ravel()
        C = np.asarray(C, dtype=float).ravel()
        n = A.shape[0]
        for name_, M in (("E", E), ("A", A), ("N", N)):
            if M.shape != (n, n):
                raise ValueError(f"{name_} has shape {M.shape}, expected {(n, n)}")
        if Q.shape != (n, n * n):
            raise ValueError(f"Q has shape {Q.shape}, expected {(n, n * n)}")
        if B.shape != (n,) or C.shape != (n,):
            raise ValueError("B and C must be length-n vectors")
        if x0 is None:
            x0 = np.zeros(n)
        else:
            x0 = np.asarray(x0, dtype=float).ravel()
            if x0.shape != (n,):
                raise ValueError("x0 must be a length-n vector")
        if not any(np.isfinite(np.linalg.cond(s * E - A)) for s in _REGULARITY_PROBES):
            raise ValueError("pencil sE - A singular at all probe frequencies")
        Q = symmetrize_quadratic(Q)
        return cls(E=E, A=A, N=N, Q=Q, B=B, C=C, x0=x0, name=name)

    def mode2(self):
        return mode2_matricization(self.Q)


@dataclass(frozen=True)
class InputSignal:
    """Scalar input u(t); zero for t < 0.

    Kinds and their parameters:
      exp_decay:   a * exp(-b t)            (a=1, b=1)
      cosine_pi:   a * cos(pi t)            (a=1)
      cubic_pulse: a * t^3 * exp(-b t)      (a=5e4, b=15)
      zero:        identically zero
      table:       linear interpolation of (times, values), zero outside
    """

    kind: str
    params: dict = field(default_factory=dict)

    _DEFAULTS = {
        "exp_decay": {"a": 1.0, "b": 1.0},
        "cosine_pi": {"a": 1.0},
        "cubic_pulse": {"a": 5.0e4, "b": 15.0},
        "zero": {},
        "table": {"times": None, "values": None},
    }

    def __post_init__(self):
        if self.kind not in self._DEFAULTS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        unknown = set(self.params) - set(self._DEFAULTS[self.kind])
        if unknown:
            raise ValueError(f"input kind {self.kind!r} has no parameter {sorted(unknown)}")
        if self.kind == "table":
            times = np.asarray(self.params.get("times", ()), dtype=float)
            values = np.asarray(self.params.get("values", ()), dtype=float)
            if not (times.ndim == values.ndim == 1 and 0 < times.size == values.size
                    and np.all(np.diff(times) > 0)):
                raise ValueError("a table input needs 1-D times and values of equal length, "
                                 "times strictly increasing")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        p = {**self._DEFAULTS[self.kind], **self.params}
        if self.kind == "exp_decay":
            u = p["a"] * np.exp(-p["b"] * t)
        elif self.kind == "cosine_pi":
            u = p["a"] * np.cos(np.pi * t)
        elif self.kind == "cubic_pulse":
            u = p["a"] * t**3 * np.exp(-p["b"] * t)
        elif self.kind == "zero":
            u = np.zeros_like(t)
        else:
            u = np.interp(t, np.asarray(p["times"]), np.asarray(p["values"]),
                          left=0.0, right=0.0)
        return np.where(t < 0, 0.0, u)[()]


_MATRIX_FILES = ("E", "A", "N", "Q", "B", "C", "x0")


def save_system(sys, path):
    """Write a system as a JSON manifest plus Matrix Market files."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "name": sys.name,
        "n": sys.n,
        "notes": "",
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    for key in _MATRIX_FILES:
        M = getattr(sys, key)
        if not sp.issparse(M):
            M = np.atleast_2d(M)
            if key in ("B", "x0"):
                M = M.T
        mmwrite(path / f"{key}.mtx", sp.coo_matrix(M), precision=17)


def load_system(path):
    """Read a system written by :func:`save_system`."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if "n" not in manifest:
        raise ValueError(f"manifest {path / 'manifest.json'} lacks the state dimension n")
    n = manifest["n"]
    mats = {}
    for key in _MATRIX_FILES:
        M = mmread(path / f"{key}.mtx")
        mats[key] = M.toarray() if sp.issparse(M) and key != "Q" else M
    if mats["Q"].shape != (n, n * n):
        raise ValueError(
            f"manifest says n={n} but Q has shape {mats['Q'].shape}"
        )
    for key in ("E", "A", "N"):
        if mats[key].shape != (n, n):
            raise ValueError(f"{key} has shape {mats[key].shape}, expected {(n, n)}")
    return QBSystem.from_operators(
        mats["E"], mats["A"], mats["N"], sp.csr_matrix(mats["Q"]),
        mats["B"], mats["C"], x0=mats["x0"], name=manifest.get("name", ""),
    )
