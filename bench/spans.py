"""Span recording around the public functions of the qbmor modules.

The tracer patches module attributes and class methods from outside the
library, so the library itself carries no timing code.  Each call into a
wrapped function records one span (name, start, end, parent); spans are
held in flat arrays in memory and written out once, at the end of a run.

Kernel entry points that a module reaches through its module globals
(``sla.lu_factor``, ``sla.lu_solve``, ``sla.svdvals``, ``np.linalg.solve``)
are wrapped by giving that module a copy of the namespace with the kernel
replaced; their spans are named ``<module>:<kernel>``.

A span's self time is its duration minus the durations of its child
spans.  The layer of a span is the module name before the first ``.`` or
``:``; the harness's own spans form the layer ``bench``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "qbmor"

# Public functions and methods per qbmor module, plus the private helpers
# whose calls are counted: greedy._scan (grid points) and sim._qb_rhs
# (right-hand-side evaluations).
FUNCTIONS = {
    "qb_model": ["apply_quadratic", "symmetrize_quadratic", "mode2_matricization",
                 "QBSystem.from_operators", "InputSignal.__call__"],
    "transfer": ["PencilSolver.solve", "PencilSolver.solve_t", "solve_x1", "solve_y1",
                 "rhs_B2", "solve_x2", "solve_y2", "H1", "H2", "dH2"],
    "error_bound": ["beta", "BoundEvaluator.beta", "BoundEvaluator.set_bases_1",
                    "BoundEvaluator.set_bases_2", "BoundEvaluator.residuals_1",
                    "BoundEvaluator.residuals_2", "BoundEvaluator.delta1",
                    "BoundEvaluator.delta2", "BoundEvaluator.h1_rom",
                    "BoundEvaluator.h2_rom", "BoundEvaluator.true_error_1",
                    "BoundEvaluator.true_error_2"],
    "projection": ["orth_extend", "build_interpolation_bases", "equalize_bases",
                   "reduce", "verify_hermite", "ReducedQBSystem.as_system"],
    "greedy": ["run_greedy", "_scan", "reduce_final"],
    "sim": ["simulate_qb", "_qb_rhs", "compare_outputs"],
    "benchmarks": ["build"],
}

# module -> {module global -> kernels reached through it}
KERNELS = {
    "transfer": {"sla": ["lu_factor", "lu_solve"]},
    "error_bound": {"sla": ["svdvals"], "np": ["linalg.solve"]},
    "sim": {"sla": ["lu_factor", "lu_solve"], "np": ["linalg.solve"]},
}

# Not instrumented, with the reason printed next to the results.
NOT_MEASURED = {
    "irka": "comparison baseline, not a user path; its solves and projections "
            "run through transfer and projection, which are measured",
    "cli": "thin file I/O around the library; timing it would mostly measure "
           "interpreter start-up",
}


def _columns_offered(vectors):
    """Columns orth_extend tries after splitting complex vectors into re/im parts."""
    v = np.asarray(vectors)
    if v.ndim == 1:
        v = v[:, None]
    offered = v.shape[1]
    if np.iscomplexobj(v):
        offered += int(np.count_nonzero(np.linalg.norm(v.imag, axis=0) > 0))
    return offered


def _after_orth_extend(tracer, out, args, kwargs):
    new_vectors = args[1] if len(args) > 1 else kwargs["new_vectors"]
    tracer.counts["projection.columns_offered"] += _columns_offered(new_vectors)
    tracer.counts["projection.columns_added"] += out[1]


def _after_run_greedy(tracer, out, args, kwargs):
    tracer.counts["greedy.iters"] += len(out.trace)


def _after_simulate(tracer, out, args, kwargs):
    tracer.counts["sim.steps"] += len(out.times) - 1


def _before_scan(tracer, args, kwargs):
    bound_fn = args[0]

    def counted(s):
        tracer.counts["greedy.grid_points_scanned"] += 1
        return bound_fn(s)

    return (counted,) + tuple(args[1:]), kwargs


_BEFORE = {"greedy._scan": _before_scan}
_AFTER = {
    "projection.orth_extend": _after_orth_extend,
    "greedy.run_greedy": _after_run_greedy,
    "sim.simulate_qb": _after_simulate,
}


class Tracer:
    """Records spans while active; install with ``with tracer.active():``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self.counts = collections.Counter()
        self._patches = self._build_patches()

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, before=None, after=None):
        nid = self._name_id(name)
        ids, parents, starts, ends = self._ids, self._parents, self._starts, self._ends
        stack = self._stack
        clock = time.perf_counter

        # the same bookkeeping as span(), inlined: this runs on every library call
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(self, out, args, kwargs)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the harness's own code."""
        i = len(self._starts)
        self._ids.append(self._name_id(name))
        self._parents.append(self._stack[-1])
        self._starts.append(0.0)
        self._ends.append(0.0)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._ends[i] = time.perf_counter()
            self._starts[i] = t0
            self._stack.pop()

    def _build_patches(self):
        """(owner, attribute, original, replacement) for every wrapped name."""
        pkg = sys.modules[PACKAGE]
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        patches = []
        for modname, entries in FUNCTIONS.items():
            mod = getattr(pkg, modname)
            for entry in entries:
                name = f"{modname}.{entry}"
                before, after = _BEFORE.get(name), _AFTER.get(name)
                if "." in entry:
                    cls_name, meth = entry.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, before, after))
                    else:
                        new = self._wrap(raw, name, before, after)
                    patches.append((cls, meth, raw, new))
                    continue
                orig = getattr(mod, entry)
                new = self._wrap(orig, name, before, after)
                # a function imported by name lives in several module namespaces
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            patches.append((m, attr, orig, new))
        for modname, globals_ in KERNELS.items():
            mod = getattr(pkg, modname)
            for glob, kernels in globals_.items():
                orig = getattr(mod, glob)
                proxy = types.SimpleNamespace(**vars(orig))
                for kernel in kernels:
                    owner, attr, target = proxy, kernel, orig
                    if "." in kernel:
                        sub, attr = kernel.split(".")
                        target = getattr(orig, sub)
                        owner = types.SimpleNamespace(**vars(target))
                        setattr(proxy, sub, owner)
                    setattr(owner, attr, self._wrap(getattr(target, attr), f"{modname}:{kernel}"))
                patches.append((mod, glob, orig, proxy))
        return patches

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, orig, _ in reversed(self._patches):
                setattr(owner, attr, orig)

    def arrays(self):
        """Recorded spans as numpy arrays (name id, parent index, start, end)."""
        return (np.frombuffer(self._ids, dtype=np.intc).astype(np.int64),
                np.frombuffer(self._parents, dtype=np.intc).astype(np.int64),
                np.frombuffer(self._starts, dtype=np.float64).copy(),
                np.frombuffer(self._ends, dtype=np.float64).copy())

    def save(self, path):
        ids, parents, starts, ends = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=ids,
                            parent=parents, start=starts, end=ends)

    def stats(self):
        """Per span name: (calls, total seconds, self seconds)."""
        ids, parents, starts, ends = self.arrays()
        dur = ends - starts
        inner = parents >= 0
        child = np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=self_t, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(selft[i]))
                for i, name in enumerate(self.names)}


def layer_of(span_name):
    return span_name.replace(":", ".").split(".", 1)[0]


def layer_metrics(stats, counts):
    """Per-layer metrics from span statistics and hook counters (values only)."""
    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_self(layer):
        return sum(s for n, (_, _, s) in stats.items()
                   if layer_of(n) == layer and ":" not in n)

    solves = ("transfer.PencilSolver.solve", "transfer.PencilSolver.solve_t")
    lu_calls = calls("transfer:lu_factor")
    sigma_min_s = total("error_bound.beta")
    build_s = total("greedy.run_greedy", "greedy.reduce_final")
    offered = counts["projection.columns_offered"]
    return {
        "transfer.lu_factor_calls": lu_calls,
        "transfer.lu_factor_s": total("transfer:lu_factor"),
        "transfer.solve_calls": calls(*solves),
        # every factorization happens inside a solve on a cache miss
        "transfer.solve_s": total(*solves) - total("transfer:lu_factor"),
        "transfer.lu_reuse_ratio": 1.0 - ratio(lu_calls, calls(*solves)) if calls(*solves) else 0.0,
        "error_bound.sigma_min_calls": calls("error_bound.beta"),
        "error_bound.sigma_min_s": sigma_min_s,
        "error_bound.sigma_min_share": ratio(sigma_min_s, build_s),
        "error_bound.beta_hit_ratio": (
            1.0 - ratio(calls("error_bound.beta"), calls("error_bound.BoundEvaluator.beta"))
            if calls("error_bound.BoundEvaluator.beta") else 0.0),
        "error_bound.delta_evals": calls("error_bound.BoundEvaluator.delta1",
                                         "error_bound.BoundEvaluator.delta2"),
        "error_bound.residual_s": self_time("error_bound.BoundEvaluator.residuals_1",
                                            "error_bound.BoundEvaluator.residuals_2"),
        "error_bound.true_error_s": total("error_bound.BoundEvaluator.true_error_1",
                                          "error_bound.BoundEvaluator.true_error_2"),
        "projection.orth_extend_calls": calls("projection.orth_extend"),
        "projection.orth_extend_s": total("projection.orth_extend"),
        "projection.columns_offered": offered,
        "projection.columns_added": counts["projection.columns_added"],
        "projection.deflation_ratio": 1.0 - ratio(counts["projection.columns_added"], offered)
        if offered else 0.0,
        "projection.reduce_s": total("projection.reduce"),
        "projection.equalize_s": total("projection.equalize_bases"),
        "projection.hermite_s": total("projection.verify_hermite"),
        "greedy.iters": counts["greedy.iters"],
        "greedy.grid_points_scanned": counts["greedy.grid_points_scanned"],
        "greedy.self_s": layer_self("greedy"),
        "sim.steps": counts["sim.steps"],
        "sim.rhs_evals": calls("sim._qb_rhs"),
        "sim.newton_iters": calls("sim:linalg.solve"),
        "sim.linear_solve_s": total("sim:linalg.solve", "sim:lu_solve", "sim:lu_factor"),
        "sim.self_s": layer_self("sim"),
        "qb_model.apply_quadratic_calls": calls("qb_model.apply_quadratic"),
        "qb_model.apply_quadratic_s": total("qb_model.apply_quadratic"),
        "qb_model.from_operators_s": total("qb_model.QBSystem.from_operators"),
        "benchmarks.build_s": total("benchmarks.build"),
    }


def layer_self_times(stats):
    """Self seconds per layer, kernels counted in the module that calls them."""
    out = collections.Counter()
    for name, (_, _, s) in stats.items():
        out[layer_of(name)] += s
    return dict(out)
