"""Petrov-Galerkin projection bases and reduced-system construction.

Bases are orthonormal real n x r arrays.  Complex candidate vectors are
realified (split into real and imaginary parts) before orthogonalization,
which keeps all reduced operators real; conjugate points need no extra
columns since re/im spans already cover them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .qb_model import QBSystem, symmetrize_quadratic
from . import transfer

__all__ = [
    "DEFLATION_TOL",
    "SingularReductionError",
    "orth_extend",
    "enrich",
    "subsystem_bases",
    "combine",
    "build_interpolation_bases",
    "project_linear",
    "reduce",
    "ReducedQBSystem",
    "verify_hermite",
]

DEFLATION_TOL = 1e-8


class SingularReductionError(np.linalg.LinAlgError):
    """W^T E V is numerically singular, so no reduced system exists."""


def _realify(vectors):
    """Split complex columns into real/imaginary parts; returns a real n x m array."""
    vectors = np.asarray(vectors)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    cols = []
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        cols.append(v.real)
        if np.iscomplexobj(v) and np.linalg.norm(v.imag) > 0:
            cols.append(v.imag)
    return np.column_stack(cols) if cols else np.zeros((vectors.shape[0], 0))


def orth_extend(basis, new_vectors, tol=DEFLATION_TOL):
    """Extend an orthonormal basis by new (possibly complex) vectors.

    Modified Gram-Schmidt with one reorthogonalization pass; a candidate
    whose residual drops below tol times its original norm is deflated.
    Returns (basis, number_of_columns_added).
    """
    candidates = _realify(new_vectors)
    added = 0
    for w in candidates.T:
        nrm0 = np.linalg.norm(w)
        if nrm0 == 0.0:
            continue
        w = w / nrm0
        for _ in range(2):
            if basis.shape[1]:
                w = w - basis @ (basis.T @ w)
        nrm = np.linalg.norm(w)
        if nrm < tol:
            continue
        basis = np.column_stack([basis, w / nrm])
        added += 1
    return basis, added


def enrich(sys, bases, s1, s2, solver):
    """Add the interpolation vectors of one frequency pair to the subsystem bases.

    bases is (V1, W1, V2, W2).  V1 gains x1(s1) and W1 gains y1(s1); V2
    gains x1(s2), x2(s1,s2), x1(s1+s2) and W2 gains y1(s1+s2), y2(s1,s2),
    y2(s2,s1).  Returns the extended (V1, W1, V2, W2).
    """
    V1, W1, V2, W2 = bases
    V1, _ = orth_extend(V1, transfer.solve_x1(sys, s1, solver))
    W1, _ = orth_extend(W1, transfer.solve_y1(sys, s1, solver))
    V2, _ = orth_extend(V2, np.column_stack([
        transfer.solve_x1(sys, s2, solver),
        transfer.solve_x2(sys, s1, s2, solver),
        transfer.solve_x1(sys, s1 + s2, solver),
    ]))
    W2, _ = orth_extend(W2, np.column_stack([
        transfer.solve_y1(sys, s1 + s2, solver),
        transfer.solve_y2(sys, s1, s2, solver),
        transfer.solve_y2(sys, s2, s1, solver),
    ]))
    return V1, W1, V2, W2


def subsystem_bases(sys, pairs, solver):
    """Subsystem bases (V1, W1, V2, W2) enriched at each pair in turn."""
    bases = (np.zeros((sys.n, 0)),) * 4
    for s1, s2 in pairs:
        bases = enrich(sys, bases, s1, s2, solver)
    return bases


def combine(bases):
    """Combined bases V = orth[V1, V2] and W = orth[W1, W2]."""
    V1, W1, V2, W2 = bases
    V, _ = orth_extend(V1, V2)
    W, _ = orth_extend(W1, W2)
    return V, W


def build_interpolation_bases(sys, pairs, solver=None):
    """Interpolation bases for a list of frequency-point pairs.

    The combined subsystem bases of :func:`subsystem_bases`, balanced by
    :func:`equalize_bases`; for the pairs a greedy run selected these are
    exactly the bases it returns.
    """
    if solver is None:
        solver = transfer.PencilSolver(sys)
    V, W = combine(subsystem_bases(sys, pairs, solver))
    return equalize_bases(sys, V, W, pairs, solver=solver)


def equalize_bases(sys, V, W, pairs, solver=None):
    """Grow the smaller of V, W until both have the same column count.

    Realified interpolation spans rarely balance, but the Hermite
    conditions survive any span enlargement, so the thinner basis is
    padded: V with primal states at the pair sums, W with dual states at
    the individual points, then deterministic random complements as a
    last resort.  Equal counts are required for a square reduced pencil.
    """
    if V.shape[1] == W.shape[1]:
        return V, W
    if solver is None:
        solver = transfer.PencilSolver(sys)
    v_pads = iter([s1 + s2 for s1, s2 in pairs])
    w_pads = iter([s for pair in pairs for s in pair])
    rng = np.random.default_rng(0)
    while V.shape[1] != W.shape[1]:
        if V.shape[1] < W.shape[1]:
            s = next(v_pads, None)
            cand = (transfer.solve_x1(sys, s, solver) if s is not None
                    else rng.standard_normal(sys.n))
            V, _ = orth_extend(V, cand)
        else:
            s = next(w_pads, None)
            cand = (transfer.solve_y1(sys, s, solver) if s is not None
                    else rng.standard_normal(sys.n))
            W, _ = orth_extend(W, cand)
    return V, W


@dataclass(frozen=True)
class ReducedQBSystem:
    """Projected operator tuple together with the bases that produced it."""

    Er: np.ndarray
    Ar: np.ndarray
    Nr: np.ndarray
    Qr: sp.csr_matrix
    Br: np.ndarray
    Cr: np.ndarray
    V: np.ndarray
    W: np.ndarray

    @property
    def r(self):
        return self.Ar.shape[0]

    def as_system(self, x0=None, name="rom"):
        """Reduced operators packaged as a QBSystem (for transfer/sim reuse)."""
        if x0 is None:
            x0 = np.zeros(self.r)
        return QBSystem.from_operators(
            self.Er, self.Ar, self.Nr, self.Qr, self.Br, self.Cr,
            x0=x0, name=name,
        )


def project_linear(sys, V, W):
    """Reduced linear-part operators (W^T E V, W^T A V, W^T B, C V)."""
    return W.T @ sys.E @ V, W.T @ sys.A @ V, W.T @ sys.B, sys.C @ V


def reduce(sys, V, W):
    """Project a system onto span(V) along span(W) (Petrov-Galerkin).

    Qr is assembled column-pair-wise through the sparse Q and symmetrized
    afterwards so ROM simulation uses the same conventions as the full model.
    """
    n, r = V.shape
    if W.shape != (n, r):
        raise ValueError("V and W must have identical shapes")
    Er, Ar, Br, Cr = project_linear(sys, V, W)
    Nr = W.T @ sys.N @ V
    if r:
        cond = np.linalg.cond(Er)
        if not np.isfinite(cond) or cond > 1e14:
            raise SingularReductionError(
                f"W^T E V numerically singular (cond estimate {cond:.3e})"
            )
    Qr = np.empty((r, r * r))
    for a in range(r):
        block = sys.Q @ np.kron(V[:, a][:, None], V)
        Qr[:, a * r:(a + 1) * r] = W.T @ block
    Qr = symmetrize_quadratic(sp.csr_matrix(Qr))
    return ReducedQBSystem(Er=Er, Ar=Ar, Nr=Nr, Qr=Qr, Br=Br, Cr=Cr, V=V, W=W)


def verify_hermite(sys, rom, pairs):
    """Hermite interpolation mismatches of a ROM at the given point pairs.

    Checks, per pair (s1, s2): H1 at s1, s2 and s1+s2; H2 at (s1, s2);
    dH2/ds1 at (s1, s2); dH2/ds2 at (s2, s1).  Returns a list of records
    with absolute and relative mismatches (report only, nothing raised).
    """
    rsys = rom.as_system()
    fsolver = transfer.PencilSolver(sys)
    rsolver = transfer.PencilSolver(rsys)
    report = []

    def record(pair, condition, full, red):
        err = abs(full - red)
        report.append({
            "pair": pair,
            "condition": condition,
            "full": full,
            "reduced": red,
            "abs_err": err,
            "rel_err": err / max(abs(full), 1e-300),
        })

    for s1, s2 in pairs:
        pair = (s1, s2)
        record(pair, "H1(s1)", transfer.H1(sys, s1, fsolver), transfer.H1(rsys, s1, rsolver))
        record(pair, "H1(s2)", transfer.H1(sys, s2, fsolver), transfer.H1(rsys, s2, rsolver))
        record(pair, "H1(s1+s2)",
               transfer.H1(sys, s1 + s2, fsolver), transfer.H1(rsys, s1 + s2, rsolver))
        record(pair, "H2(s1,s2)",
               transfer.H2(sys, s1, s2, fsolver), transfer.H2(rsys, s1, s2, rsolver))
        record(pair, "dH2/ds1(s1,s2)",
               transfer.dH2(sys, s1, s2, 1, fsolver), transfer.dH2(rsys, s1, s2, 1, rsolver))
        record(pair, "dH2/ds2(s2,s1)",
               transfer.dH2(sys, s2, s1, 2, fsolver), transfer.dH2(rsys, s2, s1, 2, rsolver))
    return report
