"""Command-line driver: benchmark construction, reduction, simulation, tables.

Exit codes: 0 success, 2 configuration error (also an unreadable system or
trace), 3 numerical failure, 4 non-convergence.  Every run directory receives
a manifest with the config hash so runs are reproducible from their artifacts.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import json
import os
import platform
import sys as _sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np
import scipy
import scipy.linalg as sla
from scipy.io import mmwrite

from . import __version__, benchmarks, error_bound, greedy, irka, projection, sim, transfer
from .qb_model import InputSignal, load_system, save_system

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGED = 4

# exit EXIT_NUMERICAL; LinAlgError is a ValueError, so map these inside a ValueError mapping
_NUMERICAL = (np.linalg.LinAlgError, sim.SimulationError)

# BLAS reads these when numpy is first imported; later changes have no effect
_THREAD_ENV = {k: os.environ.get(k)
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    _sys.exit(code)


@contextmanager
def _exit_on(errors, code):
    """Print ``error: <message>`` and exit with code on any of the given exceptions."""
    try:
        yield
    except errors as exc:
        _fail(code, exc)


def _load(path):
    """The system saved at path; exit 2 if it cannot be read or is inconsistent."""
    with _exit_on((ValueError, OSError), EXIT_CONFIG):
        return load_system(path)


def _read_trace(path):
    """The rows of a trace CSV; exit 2 if it cannot be read."""
    with _exit_on((ValueError, OSError), EXIT_CONFIG):
        return greedy.read_trace(path)


def _options(*opts):
    """Decorator applying click options in the order listed."""
    return lambda f: functools.reduce(lambda g, opt: opt(g), reversed(opts), f)


def _fmt(x):
    return f"{x:.17g}"


def _require_finite(*points):
    """Exit 2 unless every given frequency (None: not given) is finite."""
    if not all(np.isfinite(p) for p in points if p is not None):
        _fail(EXIT_CONFIG, "frequencies must be finite")


@click.group()
def main():
    """Model order reduction for quadratic-bilinear descriptor systems."""


# -- bench ----------------------------------------------------------------

# short name -> (benchmark kind, the options that are its parameters)
_BENCH_KINDS = {"rc": ("rc_ladder", ("ell",)), "burgers": ("burgers", ("n", "nu")),
                "fhn": ("fitzhugh_nagumo", ("nbar",))}


@main.group()
def bench():
    """Benchmark system construction."""


@bench.command("build")
@click.option("--kind", type=click.Choice(list(_BENCH_KINDS)), required=True)
@click.option("--l", "ell", type=int, default=50, help="RC ladder nodes")
@click.option("--n", type=int, default=100, help="Burgers grid size")
@click.option("--nu", type=float, default=None, help="Burgers viscosity")
@click.option("--nbar", type=int, default=100, help="FHN grid size")
@click.option("--out", type=click.Path(), required=True)
def bench_build(kind, out, **params):
    """Build a benchmark system directory."""
    name, keys = _BENCH_KINDS[kind]
    spec = benchmarks.BenchmarkSpec(name, {k: params[k] for k in keys if params[k] is not None})
    with _exit_on(ValueError, EXIT_CONFIG):
        system = benchmarks.build(spec)
    save_system(system, out)
    click.echo(f"wrote {system.name} (n={system.n}) to {out}")


# -- reduce ---------------------------------------------------------------

@main.group("reduce")
def reduce_group():
    """Reduced-order model construction."""


_reduce_options = _options(
    click.option("--system", "sysdir", type=click.Path(exists=True), required=True),
    click.option("--config", "config_path", type=click.Path(exists=True), required=True),
    click.option("--out", type=click.Path(), required=True),
    click.option("--one-sided", is_flag=True, help="use W := V for the final projection"),
)


def _start_reduction(sysdir, config_path, out, section, make_config):
    """Load the system, make_config(config section) (exit 2 on a bad value) and out/."""
    system = _load(sysdir)
    cp = configparser.ConfigParser()
    if not cp.read(config_path):
        _fail(EXIT_CONFIG, f"cannot read config file {config_path}")
    sec = cp[section] if cp.has_section(section) else cp["DEFAULT"]
    with _exit_on(ValueError, EXIT_CONFIG):
        cfg = make_config(sec)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    return system, cfg, outdir


def _grid_from_config(sec):
    return greedy.default_grid(sec.getfloat("grid_lo", 1e0), sec.getfloat("grid_hi", 1e4),
                               sec.getint("grid_num", 50), sec.getboolean("grid_imag", False))


def _greedy_config(sec):
    return greedy.GreedyConfig(
        sigma10=complex(sec.getfloat("sigma10_re", 1.0), sec.getfloat("sigma10_im", 0.0)),
        sigma20=complex(sec.getfloat("sigma20_re", 1.0), sec.getfloat("sigma20_im", 0.0)),
        S1=_grid_from_config(sec),
        S2=_grid_from_config(sec),
        eps_tol=sec.getfloat("eps_tol", 1e-4),
        max_iters=sec.getint("max_iters", 30),
        validate_true_error=sec.getboolean("validate_true_error", True),
    )


def _irka_config(sec):
    return irka.IrkaConfig(r=sec.getint("r", 6), tol=sec.getfloat("tol", 1e-4),
                           max_iters=sec.getint("max_iters", 100))


def _system_sha256(system):
    """SHA-256 over the bytes of E, A, N, B, C, x0 and Q's CSR arrays."""
    h = hashlib.sha256()
    Q = system.Q
    for M in (system.E, system.A, system.N, system.B, system.C, system.x0,
              Q.data, Q.indices, Q.indptr):
        h.update(np.ascontiguousarray(M).tobytes())
    return h.hexdigest()


def _max_real_eig(rom):
    """Largest real part over the finite eigenvalues of the pencil (Ar, Er)."""
    ev = sla.eigvals(rom.Ar, rom.Er)
    ev = ev[np.isfinite(ev)]
    return float(np.max(ev.real)) if ev.size else None


def _write_artifacts(outdir, config_path, system, rom):
    """Write the ROM, its bases V.mtx and W.mtx, and run_manifest.json."""
    save_system(rom.as_system(x0=rom.V.T @ system.x0), outdir / "rom")
    mmwrite(outdir / "V.mtx", np.asarray(rom.V), precision=17)
    mmwrite(outdir / "W.mtx", np.asarray(rom.W), precision=17)
    (outdir / "run_manifest.json").write_text(json.dumps({
        "config_hash": hashlib.sha256(Path(config_path).read_text().encode()).hexdigest(),
        "system_sha256": _system_sha256(system),
        "rom_max_real_eig": _max_real_eig(rom),
        "qbmor_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "thread_env": _THREAD_ENV,
    }, indent=2))


@reduce_group.command("greedy")
@_reduce_options
def reduce_greedy(sysdir, config_path, out, one_sided):
    """Run the greedy point selection and write the ROM and trace."""
    system, cfg, outdir = _start_reduction(sysdir, config_path, out, "greedy", _greedy_config)
    with _exit_on(_NUMERICAL, EXIT_NUMERICAL):
        result = greedy.run_greedy(system, cfg)
        greedy.write_trace(result.trace, outdir / "trace.csv")
        rom = greedy.reduce_final(
            system, result.V, result.V if one_sided else result.W)
        _write_artifacts(outdir, config_path, system, rom)
    last = result.trace[-1]
    click.echo(f"greedy: {len(result.trace)} iterations, final delta {last.delta:.4e}, "
               f"rom size {rom.r}")
    if not result.converged:
        _fail(EXIT_NONCONVERGED,
              f"tolerance {cfg.eps_tol} not reached (partial artifacts in {out})")


@reduce_group.command("irka")
@_reduce_options
def reduce_irka(sysdir, config_path, out, one_sided):
    """IRKA points on the linear part, then an equal-point interpolation ROM."""
    system, cfg, outdir = _start_reduction(sysdir, config_path, out, "irka", _irka_config)
    with _exit_on(_NUMERICAL, EXIT_NUMERICAL):
        points = irka.irka_linear(system, cfg)
        with open(outdir / "points.csv", "w") as fh:
            fh.write("re,im\n")
            for p in points:
                fh.write(f"{_fmt(p.real)},{_fmt(p.imag)}\n")
        rom = irka.irka_rom(system, points, two_sided=not one_sided)
        _write_artifacts(outdir, config_path, system, rom)
    click.echo(f"irka: {len(points)} points, rom size {rom.r}")


# -- frequency-domain evaluation ------------------------------------------

@main.group()
def tf():
    """Transfer function evaluation."""


@tf.command("eval")
@click.option("--system", "sysdir", type=click.Path(exists=True), required=True)
@click.option("--s1-re", type=float, required=True)
@click.option("--s1-im", type=float, default=0.0)
@click.option("--s2-re", type=float, default=None)
@click.option("--s2-im", type=float, default=0.0)
def tf_eval(sysdir, s1_re, s1_im, s2_re, s2_im):
    """Print H1(s1) or, given s2, H2(s1,s2) and both partial derivatives."""
    system = _load(sysdir)
    s1 = complex(s1_re, s1_im)
    s2 = None if s2_re is None else complex(s2_re, s2_im)
    _require_finite(s1, s2)
    with _exit_on(_NUMERICAL, EXIT_NUMERICAL):
        if s2 is None:
            click.echo(f"H1({s1}) = {transfer.H1(system, s1)}")
        else:
            solver = transfer.PencilSolver(system)
            click.echo(f"H2({s1},{s2}) = {transfer.H2(system, s1, s2, solver)}")
            click.echo(f"dH2/ds1 = {transfer.dH2(system, s1, s2, 1, solver)}")
            click.echo(f"dH2/ds2 = {transfer.dH2(system, s1, s2, 2, solver)}")


@main.group()
def bound():
    """Error bound evaluation."""


@bound.command("eval")
@click.option("--system", "sysdir", type=click.Path(exists=True), required=True)
@click.option("--trace", "trace_path", type=click.Path(exists=True), required=True,
              help="trace.csv of a greedy run; its pairs rebuild the subsystem bases")
@click.option("--s1-re", type=float, required=True)
@click.option("--s1-im", type=float, default=0.0)
@click.option("--s2-re", type=float, required=True)
@click.option("--s2-im", type=float, default=0.0)
def bound_eval(sysdir, trace_path, s1_re, s1_im, s2_re, s2_im):
    """Evaluate delta1/delta2 at a frequency pair for a recorded greedy run."""
    system = _load(sysdir)
    rows = _read_trace(trace_path)
    s1, s2 = complex(s1_re, s1_im), complex(s2_re, s2_im)
    _require_finite(s1, s2)
    with _exit_on(_NUMERICAL, EXIT_NUMERICAL):
        solver = transfer.PencilSolver(system)
        ev = error_bound.BoundEvaluator(system, solver)
        V1, W1, V2, W2 = projection.subsystem_bases(
            system, [(row.sigma1, row.sigma2) for row in rows], solver)
        ev.set_bases_1(V1, W1)
        ev.set_bases_2(V2, W2)
        delta1, delta2 = ev.delta1(s1), ev.delta2(s1, s2)
    click.echo(f"delta1({s1}) = {delta1:.6e}")
    click.echo(f"delta2({s1},{s2}) = {delta2:.6e}")
    click.echo(f"delta = {delta1 + delta2:.6e}")


# -- time domain ----------------------------------------------------------

_INPUTS = {
    "exp_decay": InputSignal("exp_decay"),
    "cosine_pi": InputSignal("cosine_pi"),
    "cubic_pulse": InputSignal("cubic_pulse"),
    "zero": InputSignal("zero"),
}

_simulation_options = _options(
    click.option("--system", "sysdir", type=click.Path(exists=True), required=True),
    click.option("--input", "input_kind", type=click.Choice(sorted(_INPUTS)), required=True),
    click.option("--t-end", type=float, default=10.0),
    click.option("--dt", type=float, default=1e-3),
    click.option("--scheme", type=click.Choice(["implicit_euler", "rk4"]),
                 default="implicit_euler"),
    click.option("--out", type=click.Path(), required=True),
)


def _simulate(path, input_kind, t_end, dt, scheme):
    """Load the system at path and integrate it; exit 2 on a bad time grid, 3 on failure."""
    system = _load(path)
    with _exit_on(ValueError, EXIT_CONFIG), _exit_on(_NUMERICAL, EXIT_NUMERICAL):
        return sim.simulate_qb(system, _INPUTS[input_kind], t_end, dt, scheme)


@main.command()
@_simulation_options
def simulate(sysdir, input_kind, t_end, dt, scheme, out):
    """Integrate a system and write the (t, y) trajectory CSV."""
    traj = _simulate(sysdir, input_kind, t_end, dt, scheme)
    with open(out, "w") as fh:
        fh.write("t,y\n")
        for t, y in zip(traj.times, traj.outputs):
            fh.write(f"{_fmt(t)},{_fmt(y)}\n")
    if traj.meta["diverged"]:
        click.echo("warning: output diverged; trajectory truncated", err=True)
    click.echo(f"wrote {len(traj.times)} samples to {out}")


@main.command()
@_simulation_options
@click.option("--rom", "romdirs", type=click.Path(exists=True), multiple=True,
              required=True)
def compare(sysdir, romdirs, input_kind, t_end, dt, scheme, out):
    """Simulate the full model and ROMs; write error columns for plotting."""
    run = (input_kind, t_end, dt, scheme)
    full = _simulate(sysdir, *run)
    roms = [(Path(d).name,
             _simulate(Path(d) / "rom" if (Path(d) / "rom").is_dir() else d, *run))
            for d in romdirs]
    names = [name for name, _ in roms]
    with open(out, "w") as fh:
        cols = ["t", "y_full"]
        cols += [f"y_{n}" for n in names]
        cols += [f"abs_err_{n}" for n in names]
        cols += [f"rel_err_{n}" for n in names]
        fh.write(",".join(cols) + "\n")
        scale = max(np.max(np.abs(full.outputs)), 1e-300)
        m = min([len(full.times)] + [len(tr.times) for _, tr in roms])
        for k in range(m):
            vals = [full.times[k], full.outputs[k]]
            vals += [tr.outputs[k] for _, tr in roms]
            vals += [abs(tr.outputs[k] - full.outputs[k]) for _, tr in roms]
            vals += [abs(tr.outputs[k] - full.outputs[k]) / scale for _, tr in roms]
            fh.write(",".join(_fmt(v) for v in vals) + "\n")
    for name, tr in roms:
        if tr.meta["diverged"]:
            click.echo(f"warning: ROM {name} diverged; rows truncated at its horizon",
                       err=True)
    click.echo(f"wrote comparison of {len(roms)} ROM(s) to {out}")


# -- table ----------------------------------------------------------------

@main.command()
@click.option("--trace", "trace_path", type=click.Path(exists=True), required=True)
@click.option("--csv", "csv_out", type=click.Path(), default=None)
def table(trace_path, csv_out):
    """Format a greedy trace as the points / true error / bound table.

    The last two columns count each iteration's LU factorizations and
    sigma_min evaluations.
    """
    rows = _read_trace(trace_path)

    def fmt_point(z):
        return f"{z.real:.4f}" + (f"{z.imag:+.4f}i" if z.imag else "")

    header = (f"{'S.No.':>5}  {'Interpolation points':>34}  {'Max. True Error':>16}  "
              f"{'Max. Est. Error':>16}  {'LUs':>5}  {'sigma_min':>9}")
    click.echo(header)
    records = [("iter", "points", "max_true_error", "max_est_error",
                "factorizations", "sigma_min_evals")]
    for row in rows:
        pts = f"{fmt_point(row.sigma1)}, {fmt_point(row.sigma2)}"
        true_s = f"{row.true_error_max:.4e}" if row.true_error_max is not None else "-"
        click.echo(f"{row.iter:>5}  {pts:>34}  {true_s:>16}  {row.delta:>16.4e}  "
                   f"{row.factorizations:>5}  {row.sigma_min_evals:>9}")
        records.append((row.iter, pts, true_s, f"{row.delta:.17g}", row.factorizations,
                        row.sigma_min_evals))
    if csv_out:
        with open(csv_out, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(records)


if __name__ == "__main__":
    main()
