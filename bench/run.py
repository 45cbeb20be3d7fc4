"""qbmor benchmark: certified ROM builds and many-query ROM simulation.

Run from anywhere inside a checkout:

    python3 bench/run.py --workload greedy_rc --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one caller, one process, BLAS pinned to one thread):

  greedy_rc       RC ladder l=50 (n=100): certified greedy reductions, from
                  the reference start pair and then from seed-drawn ones,
                  interleaved with serving of the reference ROM.
  greedy_burgers  Burgers n=300, nu=0.01: the same on the size where sigma_min
                  and the LU dominate.
  online_sim      the reference RC ROM, built in set-up, and the full RC model
                  integrate seed-drawn exp_decay inputs with implicit Euler
                  and RK4.

"Serving" integrates the full model and the ROM on one input with both
schemes and compares their outputs; the first input is the reference input,
on which rom_max_rel_err is measured.  Durations are CPU seconds of the
single-threaded worker (see bench/workloads.py).

The library runs from ``src/`` without being installed.  Every workload
runs in fresh interpreters whose environment pins OpenBLAS/OpenMP to one
thread before numpy is imported.  ``setup_s`` is the median over
SETUP_SAMPLES interpreters of imports + ``benchmarks.build`` (+ the served
ROM's build for online_sim).

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` every unit of work runs once untraced and once
under the span tracer (bench/spans.py), and the last line holds the
per-layer metrics.  Earlier lines carry the environment, one fingerprint
per reduction (selected pairs, basis sizes, final delta) and, when traced,
the tracing overhead check.  Spans are written to ``.bench_out/``.

``--tiny`` runs the smoke-test sizes (RC l=5, Burgers n=10).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("greedy_rc", "greedy_burgers", "online_sim")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0


class WorkerFailed(Exception):
    pass


def run_worker(cmd, env, deadline):
    """Run one worker interpreter; relay all but its last stdout line, return that one."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker printed nothing: {' '.join(cmd)}")
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qbmor" / "__init__.py").is_file():
        print(f"no qbmor sources under {src}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(ROOT / "bench" / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        # set-up samples are only needed for the end-to-end metrics
        samples = [run_worker(cmd + ["--setup-only"], env, deadline)
                   for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0)]
        result = run_worker(cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                            env, deadline)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    samples.append(result.pop("setup"))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in samples), "unit": "s"}
        served_builds = [s["rom_build_s"] for s in samples if s["rom_build_s"] is not None]
        if served_builds:
            metrics["rom_build_s"]["value"] = statistics.median(served_builds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
