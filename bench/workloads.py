"""One benchmark workload, run in a fresh interpreter started by run.py.

run.py pins BLAS to one thread in the environment before this interpreter
starts, so numpy is first imported with the pinned setting, and the time
taken by the imports below counts towards set-up.

Durations in the end-to-end metrics are CPU seconds of this process
(time.process_time).  The process is single-threaded and does no I/O in
the timed regions, so on an unshared core this equals wall time; unlike
wall time it leaves out the time a hypervisor steals from the machine,
which on small shared virtual machines makes identical runs differ by
tens of percent.  The window itself is bounded by wall time.

Prints JSON objects, one per line: the environment, a fingerprint of every
reduction, the layers left unmeasured, the tracing check (traced runs
only), and last the result.  Diagnostics go to standard error.
"""

import time

_T0 = time.process_time()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qbmor  # noqa: E402
from qbmor import benchmarks, greedy, projection, sim, transfer  # noqa: E402
from qbmor.qb_model import InputSignal  # noqa: E402

import spans  # noqa: E402

_IMPORT_S = time.process_time() - _T0

ROOT = Path(__file__).resolve().parent.parent

# Gate tolerances, fixed beforehand.  HERMITE_TOL is acceptance criterion
# 4's bound; SIM_TOL is far above the errors of the certified reference
# ROMs (about 1e-6 relative) and far below those of a broken ROM (order 1).
HERMITE_TOL = 1e-8
SIM_TOL = 1e-4
# acceptance criterion 1's slack, relative to the transfer-function scale
BOUND_SLACK = 1e-10
# Seed-drawn inputs scale the reference input's parameters by this factor range.
INPUT_SPREAD = (0.95, 1.05)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # benchmarks.BenchmarkSpec kind
    params: dict
    eps_tol: float
    ref_pair: float           # start pair of the reference (served) ROM
    input_kind: str
    input_params: dict        # parameters of the reference input
    schemes: tuple            # (scheme, t_end, dt) per integrator
    build_share: float        # share of the window spent building ROMs
    max_iters: int = 10
    min_builds: int = 2
    min_inputs: int = 3


_RC_SCHEMES = (("implicit_euler", 0.5, 1e-3), ("rk4", 0.5, 1e-3))

WORKLOADS = {
    w.name: w for w in (
        Workload("greedy_rc", "rc_ladder", {"ell": 50}, 1e-5, 119.5642, "exp_decay",
                 {"a": 1.0, "b": 1.0}, _RC_SCHEMES, build_share=0.6),
        # RK4 on Burgers n=300 is unstable above dt ~ 7.7e-4 (viscous
        # eigenvalues near -3600), so it takes the shorter step and horizon.
        Workload("greedy_burgers", "burgers", {"n": 300, "nu": 0.01}, 1e-4, 5.4124,
                 "cosine_pi", {"a": 1.0}, (("implicit_euler", 1.0, 1e-2), ("rk4", 0.25, 5e-4)),
                 build_share=0.6),
        Workload("online_sim", "rc_ladder", {"ell": 50}, 1e-5, 119.5642, "exp_decay",
                 {"a": 1.0, "b": 1.0}, _RC_SCHEMES, build_share=0.0),
    )
}

_TINY_PARAMS = {"rc_ladder": {"ell": 5}, "burgers": {"n": 10, "nu": 0.01}}


def tiny(w):
    """The smoke-test size of a workload: RC l=5, Burgers n=10, short simulations."""
    return dataclasses.replace(
        w, params=_TINY_PARAMS[w.kind],
        schemes=tuple((s, t_end / 10, dt) for s, t_end, dt in w.schemes),
        min_builds=1, min_inputs=1)


def emit(obj):
    print(json.dumps(obj), flush=True)


def _pair_json(pair):
    return [[complex(s).real, complex(s).imag] for s in pair]


# -- set-up ------------------------------------------------------------------

def build_system(w):
    return benchmarks.build(benchmarks.BenchmarkSpec(w.kind, dict(w.params)))


def greedy_config(w, pair):
    return greedy.GreedyConfig(
        sigma10=pair[0], sigma20=pair[1],
        S1=greedy.default_grid(), S2=greedy.default_grid(),
        eps_tol=w.eps_tol, max_iters=w.max_iters, validate_true_error=True)


def build_rom(system, w, pair):
    """run_greedy + reduce_final; returns (cfg, result, rom, seconds)."""
    cfg = greedy_config(w, pair)
    t0 = time.process_time()
    res = greedy.run_greedy(system, cfg)
    rom = greedy.reduce_final(system, res.V, res.W)
    return cfg, res, rom, time.process_time() - t0


def setup(w):
    """Build the system, and for a serving-only workload the ROM it serves."""
    t0 = time.process_time()
    system = build_system(w)
    build_s = time.process_time() - t0
    served = None
    if w.build_share == 0:
        served = build_rom(system, w, (w.ref_pair, w.ref_pair))
    return system, build_s, served


# -- correctness gate --------------------------------------------------------

class Gate:
    """Counts checked operations; a failed check or an exception is one failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what, op):
        self.attempted += 1
        try:
            ok = bool(op())
        except Exception:  # the run goes on; the failure is counted and shown
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print(f"gate: {what} failed", file=sys.stderr, flush=True)
        return ok


def bound_violations(system, cfg, res):
    """Validated grid points where delta1/delta2 falls below the true error.

    Same slack as acceptance criterion 1: BOUND_SLACK times the largest
    |H1| over S1 (delta1) or |H2| over the first delta2 scan (delta2).
    """
    solver = transfer.PencilSolver(system)
    scale1 = max(abs(transfer.H1(system, s, solver)) for s in cfg.S1)
    first = res.validation[0][0]
    pairs2 = [pt for it, kind, pt, _, _ in res.validation if it == first and kind == "delta2"]
    scale2 = max(abs(transfer.H2(system, s1, s2, solver)) for s1, s2 in pairs2)
    return [rec for rec in res.validation
            if rec[4] > rec[3] + BOUND_SLACK * (scale1 if rec[1] == "delta1" else scale2)]


def check_rom(gate, system, cfg, res, rom, fingerprint=True):
    """Gate a finished reduction: convergence, bound validity, Hermite match."""
    gate.check(f"convergence from {cfg.sigma10}", lambda: res.converged)
    gate.check("bound validity", lambda: not bound_violations(system, cfg, res))
    gate.check("Hermite interpolation", lambda: max(
        r["rel_err"] for r in projection.verify_hermite(system, rom, res.pairs)) <= HERMITE_TOL)
    if fingerprint:
        emit({"fingerprint": {
            "pairs": [_pair_json(p) for p in res.pairs],
            "basis_V": [row.basis_size_V for row in res.trace],
            "basis_W": [row.basis_size_W for row in res.trace],
            "delta": res.trace[-1].delta,
            "r": rom.r,
        }})


# -- the measured window -----------------------------------------------------

class Run:
    """State of one measured window: samples, gate, optional tracer."""

    def __init__(self, w, system, seed, tracer=None):
        self.w = w
        self.system = system
        self.gate = Gate()
        self.tracer = tracer
        seq = np.random.SeedSequence(seed)
        self.rng_pairs, self.rng_inputs = (np.random.default_rng(s) for s in seq.spawn(2))
        self.build_s, self.rom_r = [], []
        self.sim_work = {}           # (model, scheme) -> [steps, CPU seconds]
        self.ref_err = []            # errors on the reference input
        self.served = None           # (reduced QBSystem, r)
        # CPU seconds of the same work without and with tracing
        self.untraced_s = self.traced_s = 0.0

    def item(self, fn, *args):
        """Run one unit of work; in a traced run, run it again under the tracer."""
        t0 = time.process_time()
        fn(*args, record=True)
        self.untraced_s += time.process_time() - t0
        if self.tracer is not None:
            t0 = time.process_time()
            with self.tracer.active(), self.tracer.span("bench.item"):
                fn(*args, record=False)
            self.traced_s += time.process_time() - t0

    def build(self, pair, record):
        out = {}

        def reduce_op():
            out["cfg"], out["res"], out["rom"], out["s"] = build_rom(self.system, self.w, pair)
            return True

        if not self.gate.check(f"reduction from {pair}", reduce_op):
            return
        cfg, res, rom = out["cfg"], out["res"], out["rom"]
        check_rom(self.gate, self.system, cfg, res, rom, fingerprint=record)
        if record and res.converged:
            self.build_s.append(out["s"])
            self.rom_r.append(rom.r)
            if self.served is None:
                self.serve_rom(rom)

    def serve_rom(self, rom):
        self.served = (rom.as_system(x0=rom.V.T @ self.system.x0), rom.r)

    def draw_input(self, first):
        params = dict(self.w.input_params)
        if not first:
            params = {k: v * self.rng_inputs.uniform(*INPUT_SPREAD) for k, v in params.items()}
        return InputSignal(self.w.input_kind, params)

    def serve(self, u, reference, record):
        rsys = self.served[0]
        for scheme, t_end, dt in self.w.schemes:
            def op():
                trajs = {}
                for model, s in (("full", self.system), ("rom", rsys)):
                    t0 = time.process_time()
                    tr = sim.simulate_qb(s, u, t_end, dt, scheme=scheme)
                    elapsed = time.process_time() - t0
                    trajs[model] = tr
                    if record:
                        work = self.sim_work.setdefault((model, scheme), [0, 0.0])
                        work[0] += len(tr.times) - 1
                        work[1] += elapsed
                if trajs["full"].meta["diverged"] or trajs["rom"].meta["diverged"]:
                    return False
                err = sim.compare_outputs(trajs["full"], trajs["rom"])["max_rel"]
                if record and reference:
                    self.ref_err.append(err)
                return err <= SIM_TOL
            self.gate.check(f"{scheme} ROM vs full, input {u.params}", op)

    def _next_kind(self, spent, deadline):
        """'build', 'serve' or None: keeps build time near build_share of the total.

        Builds and serving alternate through the window, so both sample the
        whole of it; the minimum counts are met before the deadline counts.
        """
        w = self.w
        n_build, n_serve = len(spent["build"]), len(spent["serve"])
        can_build, can_serve = w.build_share > 0, self.served is not None
        builds_due = can_build and n_build < w.min_builds
        serves_due = can_serve and n_serve < w.min_inputs
        if builds_due and (not serves_due or n_serve >= n_build):
            return "build"
        if serves_due:
            return "serve"
        b, s = sum(spent["build"]), sum(spent["serve"])
        kind = "build" if can_build and (not can_serve or b < w.build_share * (b + s)) else "serve"
        if kind == "serve" and not can_serve:
            return None
        if time.perf_counter() + statistics.median(spent[kind]) > deadline:
            return None
        return kind

    def window(self, seconds):
        """Build ROMs (the reference pair first) and serve the reference ROM."""
        w = self.w
        deadline = time.perf_counter() + seconds
        spent = {"build": [], "serve": []}
        while (kind := self._next_kind(spent, deadline)) is not None:
            t0 = time.perf_counter()
            if kind == "build":
                if not spent["build"]:
                    pair = (w.ref_pair, w.ref_pair)
                else:
                    pair = tuple(float(x) for x in 10.0 ** self.rng_pairs.uniform(0.0, 4.0, 2))
                self.item(self.build, pair)
            else:
                first = not spent["serve"]
                self.item(self.serve, self.draw_input(first), first)
            spent[kind].append(time.perf_counter() - t0)
        if self.served is None:
            self.gate.check("serving: no converged reference ROM", lambda: False)


# -- environment -------------------------------------------------------------

def _openblas_libraries():
    """OpenBLAS builds bundled with numpy and scipy, with their thread counts."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            rec = {"library": Path(path).name}
            for suffix in ("64_", ""):
                for prefix in ("scipy_openblas", "openblas"):
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if get_threads is not None and "threads" not in rec:
                        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                        rec["threads"] = get_threads()
                    if get_config is not None and "config" not in rec:
                        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                        rec["config"] = get_config().decode()
            found.append(rec)
    return found


def environment():
    src = ROOT / "src"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qbmor": qbmor.__version__,
        "openblas": _openblas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


# -- entry -------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(run, served_r, peak_rss_mb):
    # throughput over the whole batch, not per trajectory
    rates = {key: steps / cpu_s for key, (steps, cpu_s) in run.sim_work.items()}
    return {
        "rom_build_s": (_median(run.build_s), "s"),
        "rom_r": (_median(run.rom_r) if run.rom_r else served_r, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rom_ie_steps_per_s": (rates.get(("rom", "implicit_euler"), 0.0), "steps/s"),
        "rom_rk4_steps_per_s": (rates.get(("rom", "rk4"), 0.0), "steps/s"),
        "full_ie_steps_per_s": (rates.get(("full", "implicit_euler"), 0.0), "steps/s"),
        "full_rk4_steps_per_s": (rates.get(("full", "rk4"), 0.0), "steps/s"),
        "rom_max_rel_err": (max(run.ref_err) if run.ref_err else 0.0, "ratio"),
    }


_LAYER_UNITS = {"calls": "count", "evals": "count", "iters": "count", "steps": "count",
                "scanned": "count", "offered": "count", "added": "count",
                "ratio": "ratio", "share": "ratio"}


def _layer_unit(name):
    tail = re.split(r"[._]", name)[-1]
    return "s" if tail == "s" else _LAYER_UNITS[tail]


def traced_metrics(run, tracer):
    """Per-layer metrics, and the check that layer self times add up.

    The overhead is CPU time traced minus untraced for the same work; the
    check asks that the traced wall time not attributed to any qbmor layer
    (the harness's own spans) stays within it.
    """
    stats = tracer.stats()
    metrics = spans.layer_metrics(stats, tracer.counts)
    layers = spans.layer_self_times(stats)
    traced_wall = stats["bench.item"][1]
    harness = layers.pop("bench", 0.0)
    layer_sum = sum(layers.values())
    overhead = run.traced_s - run.untraced_s
    emit({"trace_check": {
        "traced_wall_s": traced_wall, "traced_cpu_s": run.traced_s,
        "untraced_cpu_s": run.untraced_s, "overhead_s": overhead,
        "layer_self_sum_s": layer_sum, "layer_self_s": layers,
        "within_overhead": traced_wall - layer_sum <= max(overhead, 0.0),
    }})
    metrics.update({
        "bench.traced_wall_s": traced_wall,
        "bench.trace_overhead_s": overhead,
        "bench.unattributed_s": harness,
    })
    return {k: (v, _layer_unit(k)) for k, v in metrics.items()}


def run_workload(w, seed, seconds, traced=False, setup_state=None):
    """Set up (unless given), run the measured window, return (run, metrics)."""
    system, build_s, served = setup_state or setup(w)
    tracer = spans.Tracer() if traced else None
    run = Run(w, system, seed, tracer)
    if served is not None:
        cfg, res, rom, _ = served
        check_rom(run.gate, system, cfg, res, rom)
        if res.converged:
            run.serve_rom(rom)
    if tracer is not None:
        # set-up is traced too: benchmarks.build and the served ROM's build
        run.untraced_s += build_s + (served[3] if served else 0.0)
        t0 = time.process_time()
        with tracer.active(), tracer.span("bench.item"):
            setup(w)
        run.traced_s += time.process_time() - t0
    run.window(seconds)
    if tracer is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"spans-{w.name}-seed{seed}.npz")
        return run, traced_metrics(run, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    served_r = run.served[1] if run.served else 0
    return run, end_to_end(run, served_r, peak_rss_mb)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(qbmor.__file__).resolve().parents:
        print(f"qbmor imported from {qbmor.__file__}, not from {src}", file=sys.stderr)
        return 3
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)

    system, build_s, served = setup(w)
    setup_sample = {"setup_s": _IMPORT_S + build_s + (served[3] if served else 0.0),
                    "rom_build_s": served[3] if served else None}
    if args.setup_only:
        emit(setup_sample)
        return 0

    emit({"environment": environment()})
    emit({"not_measured": spans.NOT_MEASURED})
    run, metrics = run_workload(w, args.seed, args.seconds, bool(args.trace),
                                (system, build_s, served))
    emit({
        "correct": run.gate.failed == 0,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup": setup_sample,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
