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
from scipy.io import mmread, mmwrite

__all__ = [
    "QBSystem",
    "InputSignal",
    "apply_quadratic",
    "symmetrize_quadratic",
    "mode2_matricization",
    "save_system",
    "load_system",
]

#: frequencies probed to confirm the pencil sE - A is regular
_REGULARITY_PROBES = (1.0, 10.0, 100.0, 1.0 + 1.0j)


def apply_quadratic(Q, u, v):
    """Evaluate Q (u kron v) at O(n^2 + nnz) cost.

    The Kronecker vector is formed as a flat outer product; no n x n^2
    intermediate is materialized.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    n = u.shape[0]
    if v.shape[0] != n or Q.shape != (n, n * n):
        raise ValueError(
            f"dimension mismatch: Q is {Q.shape}, u has {u.shape[0]}, v has {v.shape[0]}"
        )
    return Q @ np.multiply.outer(u, v).ravel()


def _swap_last_perm(n):
    """Column permutation exchanging the last two tensor indices: j*n+k -> k*n+j."""
    c = np.arange(n * n)
    return (c % n) * n + c // n


def symmetrize_quadratic(Q):
    """Symmetrize Q in its last two tensor indices.

    Output satisfies Qs (u kron v) = Qs (v kron u) for all u, v while
    Qs (x kron x) = Q (x kron x) is preserved; entrywise
    Ts(i,j,k) = (T(i,j,k) + T(i,k,j)) / 2.
    """
    Q = sp.csr_matrix(Q)
    n = Q.shape[0]
    perm = _swap_last_perm(n)
    Qs = ((Q + Q[:, perm]) * 0.5).tocsr()
    # canonical form: equal matrices get identical storage, so downstream
    # sparse products sum in the same order regardless of construction path
    Qs.sum_duplicates()
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

    def quadratic(self, u, v):
        return apply_quadratic(self.Q, u, v)


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
        "table": {},
    }

    def __post_init__(self):
        if self.kind not in self._DEFAULTS:
            raise ValueError(f"unknown input kind {self.kind!r}")

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
