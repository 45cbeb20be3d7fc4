"""Core data types for quadratic-bilinear descriptor systems.

A system is the operator tuple (E, A, N, Q, B, C) of

    E x' = A x + N x u + Q (x kron x) + B u,    y = C x,

with E, A, N dense n x n, B, C length-n vectors and Q the mode-1
matricization of a third-order tensor, stored sparse as an n x n^2 matrix.

Tensor indexing convention (0-based): T(i, j, k) <-> Q[i, j*n + k], so
column j*n + k of Q multiplies u_j * v_k in Q (u kron v).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.io import mmread, mmwrite

__all__ = [
    "QBSystem",
    "InputSignal",
    "SPARSE_FACTOR_N",
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
#: state dimension from which a system with a sparse Q is held sparse and its
#: linear systems (the pencils zE - A in transfer, the Newton Jacobians in
#: sim) are factored with SuperLU; implicit Euler on the RC ladder and
#: Burgers is faster so from n = 120 on, slower at n = 100
SPARSE_FACTOR_N = 128


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


class CscPattern:
    """A CSC pattern fixed once, whose data is rewritten for every factorization.

    The pattern is the union of the stored entries of some n x n matrices
    and of extra entries, given as column-major keys col * n + row; the
    matrix's data follows the sorted keys.
    """

    def __init__(self, n, matrices, extra_keys=()):
        self.n = n
        self.keys = np.unique(np.concatenate(
            [_csc_keys(M) for M in matrices] + [np.asarray(extra_keys, dtype=np.int64)]))
        self.cols = self.keys // n
        self.matrix = sp.csc_matrix((np.zeros(self.keys.size), (self.keys % n, self.cols)),
                                    shape=(n, n))

    def slots(self, keys):
        """Positions of the given keys in the pattern's data."""
        return np.searchsorted(self.keys, keys)

    def values(self, M):
        """The entries of M (on the pattern) as pattern data."""
        out = np.zeros(self.keys.size)
        out[self.slots(_csc_keys(M))] = sp.coo_matrix(M).data
        return out

    def norm1(self, data):
        """1-norm (largest absolute column sum) of the matrix with these data."""
        return float(np.bincount(self.cols, np.abs(data), minlength=self.n).max())

    def splu(self, data):
        """SuperLU factors of the matrix with these data (real or complex).

        SuperLU reports an exactly singular factor as a RuntimeError; it is
        raised here as ``np.linalg.LinAlgError``.
        """
        self.matrix.data = data
        try:
            return spla.splu(self.matrix)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(str(exc)) from exc


def _csc_keys(M):
    """Column-major keys col * n + row of M's stored entries."""
    M = sp.coo_matrix(M)
    return M.col.astype(np.int64) * M.shape[0] + M.row


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
