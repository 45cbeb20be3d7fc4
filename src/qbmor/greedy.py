"""Adaptive greedy selection of interpolation-point pairs.

Each iteration enriches the subsystem bases at the current pair, scans the
sample grids for the frequencies maximizing delta1 and delta2, and stops
once delta1 + delta2 at the newly selected pair falls below the tolerance.
The combined bases V = orth[V1, V2], W = orth[W1, W2] then feed the final
Petrov-Galerkin reduction.
"""

from __future__ import annotations

import csv
import functools
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import projection, transfer
from .error_bound import BoundEvaluator

__all__ = [
    "GreedyConfig",
    "TraceRow",
    "GreedyResult",
    "default_grid",
    "run_greedy",
    "reduce_final",
    "write_trace",
    "read_trace",
]

STAGNATION_WINDOW = 3  # iterations without a decrease of delta before giving up


def default_grid(lo=1e0, hi=1e4, num=50, imag=False):
    """Logarithmically spaced sample frequencies; optionally on the imaginary axis.

    The default window starts at 1 rather than deep in the low-frequency
    range: lifted circuit models can carry an exactly singular linear part
    (auxiliary state rows proportional to physical ones), so sigma_min(sE - A)
    vanishes linearly as s -> 0 and the residual bounds blow up by 1/beta
    there even when the true error is tiny.  Pass lo explicitly to scan
    lower frequencies anyway.
    """
    if not all(np.isfinite(b) and b > 0 for b in (lo, hi)):
        raise ValueError(f"grid bounds must be finite and positive, got lo={lo!r}, hi={hi!r}")
    pts = np.logspace(np.log10(lo), np.log10(hi), num).astype(complex)
    if imag:
        pts = np.concatenate([pts, 1j * pts])
    return pts


@dataclass
class GreedyConfig:
    sigma10: complex
    sigma20: complex
    S1: np.ndarray
    S2: np.ndarray
    eps_tol: float
    max_iters: int = 30
    validate_true_error: bool = False

    def __post_init__(self):
        self.S1 = np.asarray(self.S1, dtype=complex)
        self.S2 = np.asarray(self.S2, dtype=complex)
        if self.S1.size == 0 or self.S2.size == 0:
            raise ValueError("sample grids must be nonempty")
        points = np.concatenate([[self.sigma10, self.sigma20], self.S1, self.S2])
        if not np.all(np.isfinite(points)):
            raise ValueError("start points and sample grid points must be finite")
        if not 0 < self.eps_tol < 1:
            raise ValueError("eps_tol must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class TraceRow:
    iter: int
    sigma1: complex
    sigma2: complex
    delta1_max: float
    delta2_max: float
    delta: float
    true_error_max: float | None
    basis_size_V: int
    basis_size_W: int
    # work of the iteration: LU factorizations and sigma_min evaluations
    # (see transfer.PencilSolver.counts)
    factorizations: int
    sigma_min_evals: int
    wall_time: float


@dataclass
class GreedyResult:
    V: np.ndarray
    W: np.ndarray
    trace: list
    pairs: list
    converged: bool
    stagnated: bool = False
    # with validate_true_error set, one record per evaluated grid point and
    # iteration: (iter, "delta1"|"delta2", point, bound, true_error), where
    # bound is the exact delta if the scan computed it, else its upper bound
    validation: list = field(default_factory=list)


def _argmax_scan(values):
    """Index of the maximum; ties break toward the first index.

    Raises LinAlgError if no value is finite: every bound evaluation failed.
    """
    best, best_i = -np.inf, None
    for i, v in enumerate(values):
        if np.isfinite(v) and v > best:
            best, best_i = v, i
    if best_i is None:
        raise np.linalg.LinAlgError("no finite bound value at any sample grid point")
    return best_i, best


def run_greedy(sys, cfg):
    """Greedy interpolation-point selection driven by delta1/delta2.

    Returns a GreedyResult carrying the combined bases, the per-iteration
    trace and the list of selected pairs.  Grid points whose bound
    evaluation fails (e.g. a generalized eigenvalue hit) are skipped with
    a warning; already-selected points are excluded from later scans.
    """
    solver = transfer.PencilSolver(sys)
    ev = BoundEvaluator(sys, solver)
    bases = (np.zeros((sys.n, 0)),) * 4
    used1, used2 = set(), set()
    s1, s2 = complex(cfg.sigma10), complex(cfg.sigma20)
    trace, pairs, validation = [], [], []
    converged = stagnated = False
    stall = 0
    prev_delta = np.inf
    t0 = time.perf_counter()

    for it in range(1, cfg.max_iters + 1):
        counts0 = dict(solver.counts)
        pairs.append((s1, s2))
        used1.add(s1)
        used2.add(s2)

        bases = projection.enrich(sys, bases, s1, s2, solver)
        V1, W1, V2, W2 = bases
        ev.set_bases_1(V1, W1)
        s1_next, delta1_max, scan1 = _scan(ev.scan_1, cfg.S1, used1, ev)
        ev.set_bases_2(V2, W2)
        s2_next, delta2_max, scan2 = _scan(
            functools.partial(ev.scan_2, s1_next), cfg.S2, used2, ev)

        V, W = projection.combine(bases)

        eps = delta1_max + delta2_max
        converged = eps <= cfg.eps_tol
        stall = stall + 1 if eps >= prev_delta else 0
        stagnated = not converged and stall >= STAGNATION_WINDOW
        true_max = None
        if cfg.validate_true_error:
            rec1 = _records(ev, scan1)
            rec2 = _records(ev, scan2)
            validation.extend((it, "delta1", s, b, t) for s, b, t in rec1)
            validation.extend((it, "delta2", (s1_next, s), b, t) for s, b, t in rec2)
            true_max = max([0.0] + [t for *_, t in rec1]) + max([0.0] + [t for *_, t in rec2])
        trace.append(TraceRow(
            iter=it, sigma1=s1, sigma2=s2,
            delta1_max=delta1_max, delta2_max=delta2_max, delta=eps,
            true_error_max=true_max,
            basis_size_V=V.shape[1], basis_size_W=W.shape[1],
            wall_time=time.perf_counter() - t0,
            **{k: v - counts0[k] for k, v in solver.counts.items()},
        ))

        if converged:
            break
        if stagnated:
            warnings.warn(f"greedy stagnated after {it} iterations (delta {eps:.3e})")
            break
        prev_delta = eps
        s1, s2 = s1_next, s2_next

    V, W = projection.equalize_bases(sys, V, W, pairs, solver=solver)
    return GreedyResult(V=V, W=W, trace=trace, pairs=pairs,
                        converged=converged, stagnated=stagnated,
                        validation=validation)


class _Scanned(NamedTuple):
    """A finished scan: its points, their bounds (NaN where skipped) and its batch."""

    points: list
    bounds: np.ndarray
    batch: object


def _scan(batch_fn, grid, used, ev):
    """Lazy certified grid scan; returns (argmax point, max bound, _Scanned).

    batch_fn(points) evaluates the candidate points in one batch
    (``BoundEvaluator.scan_1``/``scan_2``): a ScanBatch with the numerator
    of the bound at each point, NaN where the point is skipped, and the
    frequency z of its pencil, so the bound is num / sigma_min(zE - A).
    With the certified beta_lb(z) <= sigma_min of
    ``PencilSolver.sigma_min_lower``, num / beta_lb (+inf where
    beta_lb <= 0) is an upper bound.  Points are visited in decreasing upper
    bound, each taking its exact bound num / ev.beta(z), until the best
    exact bound is strictly greater than the next upper bound.  No point
    left can reach it, so the maximum and its point (ties to the first
    index) are the exhaustive scan's, as the same floats, with sigma_min
    computed only at the points visited.  A point's bound is the exact one
    where the scan computed it, else the upper bound.
    """
    candidates = [s for s in grid if complex(s) not in used]
    if not candidates:
        candidates = list(grid)
    batch = batch_fn(candidates)
    nums, zs = batch.nums, batch.z
    lower = ev.solver.sigma_min_lower(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(lower > 0, nums / lower, np.inf)
    vals[~np.isfinite(nums)] = np.nan
    exact = np.full(len(candidates), np.nan)
    best = -np.inf
    for i in np.argsort(-vals, kind="stable"):
        if not vals[i] >= best:  # the rest are ruled out (or NaN, sorted last)
            break
        try:
            exact[i] = nums[i] / ev.beta(zs[i])
        except np.linalg.LinAlgError:
            warnings.warn(f"skipping sample point {candidates[i]}: singular pencil")
            vals[i] = np.nan
            continue
        vals[i] = exact[i]
        if np.isfinite(exact[i]):
            best = max(best, exact[i])
    i, best = _argmax_scan(exact)
    return complex(candidates[i]), best, _Scanned(candidates, vals, batch)


def _records(ev, scanned):
    """(point, bound, true error) at every point of a scan whose bound is finite.

    The true errors come from ``ev.true_errors`` at those points only.  A
    point whose true error fails is skipped with a warning.
    """
    finite = np.isfinite(scanned.bounds)
    true = ev.true_errors(scanned.batch, finite)
    records = []
    for i in np.flatnonzero(finite):
        s = scanned.points[i]
        if np.isnan(true[i]):
            warnings.warn(f"skipping sample point {s}: singular pencil")
            continue
        records.append((complex(s), scanned.bounds[i], true[i]))
    return records


def reduce_final(sys, V, W):
    """Build the reduced system from converged greedy bases.

    Falls back to one-sided projection (W := V) if W^T E V turns out
    numerically singular.
    """
    try:
        return projection.reduce(sys, V, W)
    except projection.SingularReductionError:
        warnings.warn("W^T E V singular; falling back to one-sided projection")
        return projection.reduce(sys, V, V)


# per-iteration work counts, named as in transfer.PencilSolver.counts
_COUNT_COLUMNS = ["factorizations", "sigma_min_evals"]
_TRACE_COLUMNS = [
    "iter", "sigma1_re", "sigma1_im", "sigma2_re", "sigma2_im",
    "delta1", "delta2", "delta", "true_error", "basis_V", "basis_W",
] + _COUNT_COLUMNS


def write_trace(trace, path):
    """Serialize a greedy trace as CSV with 17-significant-digit floats."""
    fmt = "{:.17g}".format
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_COLUMNS)
        for row in trace:
            writer.writerow([
                row.iter,
                fmt(row.sigma1.real), fmt(row.sigma1.imag),
                fmt(row.sigma2.real), fmt(row.sigma2.imag),
                fmt(row.delta1_max), fmt(row.delta2_max), fmt(row.delta),
                "" if row.true_error_max is None else fmt(row.true_error_max),
                row.basis_size_V, row.basis_size_W,
            ] + [getattr(row, k) for k in _COUNT_COLUMNS])


def read_trace(path):
    """Read a trace CSV back into TraceRow records.

    Traces written before the work-count columns existed read as zero counts.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _TRACE_COLUMNS[:-len(_COUNT_COLUMNS)]
                   if reader.fieldnames and c not in reader.fieldnames]
        if missing:
            raise ValueError(f"trace file {Path(path)} lacks column(s) {', '.join(missing)}")
        for rec in reader:
            if None in rec.values():
                raise ValueError(f"trace file {Path(path)} line {reader.line_num} has "
                                 f"fewer fields than its header")
            rows.append(TraceRow(
                iter=int(rec["iter"]),
                sigma1=complex(float(rec["sigma1_re"]), float(rec["sigma1_im"])),
                sigma2=complex(float(rec["sigma2_re"]), float(rec["sigma2_im"])),
                delta1_max=float(rec["delta1"]),
                delta2_max=float(rec["delta2"]),
                delta=float(rec["delta"]),
                true_error_max=float(rec["true_error"]) if rec["true_error"] else None,
                basis_size_V=int(rec["basis_V"]),
                basis_size_W=int(rec["basis_W"]),
                wall_time=0.0,
                **{k: int(rec.get(k) or 0) for k in _COUNT_COLUMNS},
            ))
    if not rows:
        raise ValueError(f"trace file {Path(path)} is empty")
    return rows
