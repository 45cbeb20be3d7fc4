"""Baseline interpolation points via IRKA on the linear part (E, A, B, C).

The fixed-point iteration builds rational Krylov bases at the current
points, mirrors the reduced generalized eigenvalues into the right half
plane and repeats until the point set stops moving.  The converged points
then seed equal-point interpolation bases for a comparison ROM of the full
quadratic-bilinear system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import projection, transfer

__all__ = ["IrkaConfig", "irka_linear", "irka_rom"]


@dataclass
class IrkaConfig:
    r: int
    init_points: np.ndarray | None = None
    tol: float = 1e-4
    max_iters: int = 100

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.init_points is not None:
            self.init_points = _conjugate_close(np.asarray(self.init_points, complex))


def _conjugate_close(points):
    """Sort points and make the set closed under conjugation."""
    pts = np.asarray(points, dtype=complex)
    closed = []
    for p in pts:
        closed.append(p)
        if abs(p.imag) > 0 and not np.any(np.isclose(pts, p.conjugate())):
            closed.append(p.conjugate())
    closed = np.array(closed)
    order = np.lexsort((closed.imag, closed.real))
    return closed[order]


def _default_init(r):
    return np.logspace(-1, 3, r).astype(complex)


def _movement(old, new):
    """Max relative change between sorted point sets."""
    old = np.sort_complex(old)
    new = np.sort_complex(new)
    m = min(len(old), len(new))
    if m == 0:
        return np.inf
    denom = np.maximum(np.abs(old[:m]), 1e-300)
    move = np.max(np.abs(old[:m] - new[:m]) / denom)
    if len(old) != len(new):
        return np.inf
    return move


def irka_linear(sys, cfg):
    """IRKA fixed-point iteration on the linear part; returns interpolation points.

    Output is sorted and conjugate-closed.  Unstable reduced eigenvalues are
    reflected into the right half plane; non-convergence returns the last
    iterate with a warning.
    """
    points = (_default_init(cfg.r) if cfg.init_points is None
              else cfg.init_points.copy())
    points = _conjugate_close(points)
    solver = transfer.PencilSolver(sys)
    converged = False
    for _ in range(cfg.max_iters):
        V = W = np.zeros((sys.n, 0))
        for s in points:
            V, _ = projection.orth_extend(V, transfer.solve_x1(sys, s, solver))
            W, _ = projection.orth_extend(W, transfer.solve_y1(sys, s, solver))
        r = min(V.shape[1], W.shape[1])
        V, W = V[:, :r], W[:, :r]
        lam = sla.eigvals(W.T @ sys.A @ V, W.T @ sys.E @ V)
        lam = lam[np.isfinite(lam)]
        new_points = -lam
        flipped = new_points.real < 0
        if np.any(flipped):
            new_points[flipped] = -new_points[flipped].conjugate()
        new_points = _conjugate_close(new_points)
        move = _movement(points, new_points)
        points = new_points
        if move <= cfg.tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"IRKA did not converge in {cfg.max_iters} iterations")
    return points


def irka_rom(sys, points, two_sided=True):
    """Equal-point interpolation ROM of the QB system at the given points.

    V spans {x1(s), x2(s,s)} and W spans {y1(2s), y2(s,s)} over the points;
    one-sided projection uses W := V.
    """
    solver = transfer.PencilSolver(sys)
    V = W = np.zeros((sys.n, 0))
    for s in points:
        vs = np.column_stack([
            transfer.solve_x1(sys, s, solver),
            transfer.solve_x2(sys, s, s, solver),
        ])
        ws = np.column_stack([
            transfer.solve_y1(sys, 2 * s, solver),
            transfer.solve_y2(sys, s, s, solver),
        ])
        V, _ = projection.orth_extend(V, vs)
        W, _ = projection.orth_extend(W, ws)
    if not two_sided:
        return projection.reduce(sys, V, V)
    r = min(V.shape[1], W.shape[1])
    return projection.reduce(sys, V[:, :r], W[:, :r])
