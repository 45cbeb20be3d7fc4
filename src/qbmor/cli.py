"""Command-line driver: benchmark construction, reduction, simulation, tables.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 non-convergence.  Every run directory receives a manifest with the
config hash so runs are reproducible from their artifacts.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import platform
import sys as _sys
from pathlib import Path

import click
import numpy as np
import scipy

from . import __version__, benchmarks, error_bound, greedy, irka, projection, sim, transfer
from .qb_model import InputSignal, load_system, save_system

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGED = 4

# BLAS reads these when numpy is first imported; later changes have no effect
_THREAD_ENV = {k: os.environ.get(k)
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    _sys.exit(code)


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

@main.group()
def bench():
    """Benchmark system construction."""


@bench.command("build")
@click.option("--kind", type=click.Choice(["rc", "burgers", "fhn"]), required=True)
@click.option("--l", "ell", type=int, default=50, help="RC ladder nodes")
@click.option("--n", type=int, default=100, help="Burgers grid size")
@click.option("--nu", type=float, default=0.01, help="Burgers viscosity")
@click.option("--nbar", type=int, default=100, help="FHN grid size")
@click.option("--out", type=click.Path(), required=True)
def bench_build(kind, ell, n, nu, nbar, out):
    """Build a benchmark system directory."""
    spec = _bench_spec(kind, ell, n, nu, nbar)
    try:
        system = benchmarks.build(spec)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    save_system(system, out)
    click.echo(f"wrote {system.name} (n={system.n}) to {out}")


def _bench_spec(kind, ell, n, nu, nbar):
    if kind == "rc":
        return benchmarks.BenchmarkSpec("rc_ladder", {"ell": ell})
    if kind == "burgers":
        return benchmarks.BenchmarkSpec("burgers", {"n": n, "nu": nu})
    return benchmarks.BenchmarkSpec("fitzhugh_nagumo", {"nbar": nbar})


# -- reduce ---------------------------------------------------------------

@main.group("reduce")
def reduce_group():
    """Reduced-order model construction."""


def _read_config(path):
    cp = configparser.ConfigParser()
    if not cp.read(path):
        _fail(EXIT_CONFIG, f"cannot read config file {path}")
    return cp


def _grid_from_config(section):
    lo = section.getfloat("grid_lo", 1e0)
    hi = section.getfloat("grid_hi", 1e4)
    num = section.getint("grid_num", 50)
    imag = section.getboolean("grid_imag", False)
    return greedy.default_grid(lo, hi, num, imag)


def _write_run_manifest(outdir, config_path):
    text = Path(config_path).read_text() if config_path else ""
    (Path(outdir) / "run_manifest.json").write_text(json.dumps({
        "config_hash": hashlib.sha256(text.encode()).hexdigest(),
        "qbmor_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "thread_env": _THREAD_ENV,
    }, indent=2))


@reduce_group.command("greedy")
@click.option("--system", "sysdir", type=click.Path(exists=True), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--one-sided", is_flag=True, help="use W := V for the final projection")
def reduce_greedy(sysdir, config_path, out, one_sided):
    """Run the greedy point selection and write the ROM and trace."""
    system = load_system(sysdir)
    cp = _read_config(config_path)
    sec = cp["greedy"] if cp.has_section("greedy") else cp["DEFAULT"]
    try:
        cfg = greedy.GreedyConfig(
            sigma10=complex(sec.getfloat("sigma10_re", 1.0), sec.getfloat("sigma10_im", 0.0)),
            sigma20=complex(sec.getfloat("sigma20_re", 1.0), sec.getfloat("sigma20_im", 0.0)),
            S1=_grid_from_config(sec),
            S2=_grid_from_config(sec),
            eps_tol=sec.getfloat("eps_tol", 1e-4),
            max_iters=sec.getint("max_iters", 30),
            validate_true_error=sec.getboolean("validate_true_error", True),
        )
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = greedy.run_greedy(system, cfg)
        greedy.write_trace(result.trace, outdir / "trace.csv")
        rom = greedy.reduce_final(
            system, result.V, result.V if one_sided else result.W)
        _save_rom(rom, system, outdir)
    except (np.linalg.LinAlgError, sim.SimulationError) as exc:
        _fail(EXIT_NUMERICAL, exc)
    _write_run_manifest(outdir, config_path)
    last = result.trace[-1]
    click.echo(f"greedy: {len(result.trace)} iterations, final delta {last.delta:.4e}, "
               f"rom size {rom.r}")
    if not result.converged:
        _fail(EXIT_NONCONVERGED,
              f"tolerance {cfg.eps_tol} not reached (partial artifacts in {out})")


def _save_rom(rom, system, outdir):
    romdir = Path(outdir) / "rom"
    save_system(rom.as_system(x0=rom.V.T @ system.x0), romdir)
    from scipy.io import mmwrite
    mmwrite(Path(outdir) / "V.mtx", np.asarray(rom.V), precision=17)
    mmwrite(Path(outdir) / "W.mtx", np.asarray(rom.W), precision=17)


@reduce_group.command("irka")
@click.option("--system", "sysdir", type=click.Path(exists=True), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--one-sided", is_flag=True)
def reduce_irka(sysdir, config_path, out, one_sided):
    """IRKA points on the linear part, then an equal-point interpolation ROM."""
    system = load_system(sysdir)
    cp = _read_config(config_path)
    sec = cp["irka"] if cp.has_section("irka") else cp["DEFAULT"]
    try:
        cfg = irka.IrkaConfig(
            r=sec.getint("r", 6),
            tol=sec.getfloat("tol", 1e-4),
            max_iters=sec.getint("max_iters", 100),
        )
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        points = irka.irka_linear(system, cfg)
        with open(outdir / "points.csv", "w") as fh:
            fh.write("re,im\n")
            for p in points:
                fh.write(f"{_fmt(p.real)},{_fmt(p.imag)}\n")
        rom = irka.irka_rom(system, points, two_sided=not one_sided)
        _save_rom(rom, system, outdir)
    except (np.linalg.LinAlgError, sim.SimulationError) as exc:
        _fail(EXIT_NUMERICAL, exc)
    _write_run_manifest(outdir, config_path)
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
    system = load_system(sysdir)
    s1 = complex(s1_re, s1_im)
    s2 = None if s2_re is None else complex(s2_re, s2_im)
    _require_finite(s1, s2)
    try:
        if s2 is None:
            click.echo(f"H1({s1}) = {transfer.H1(system, s1)}")
        else:
            solver = transfer.PencilSolver(system)
            click.echo(f"H2({s1},{s2}) = {transfer.H2(system, s1, s2, solver)}")
            click.echo(f"dH2/ds1 = {transfer.dH2(system, s1, s2, 1, solver)}")
            click.echo(f"dH2/ds2 = {transfer.dH2(system, s1, s2, 2, solver)}")
    except np.linalg.LinAlgError as exc:
        _fail(EXIT_NUMERICAL, exc)


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
    system = load_system(sysdir)
    rows = greedy.read_trace(trace_path)
    s1, s2 = complex(s1_re, s1_im), complex(s2_re, s2_im)
    _require_finite(s1, s2)
    try:
        solver = transfer.PencilSolver(system)
        ev = error_bound.BoundEvaluator(system, solver)
        V1, W1, V2, W2 = projection.subsystem_bases(
            system, [(row.sigma1, row.sigma2) for row in rows], solver)
        ev.set_bases_1(V1, W1)
        ev.set_bases_2(V2, W2)
        val = ev.bound(s1, s2)
    except np.linalg.LinAlgError as exc:
        _fail(EXIT_NUMERICAL, exc)
    click.echo(f"delta1({s1}) = {val.delta1:.6e}")
    click.echo(f"delta2({s1},{s2}) = {val.delta2:.6e}")
    click.echo(f"delta = {val.delta:.6e}")


# -- time domain ----------------------------------------------------------

_INPUTS = {
    "exp_decay": InputSignal("exp_decay"),
    "cosine_pi": InputSignal("cosine_pi"),
    "cubic_pulse": InputSignal("cubic_pulse"),
    "zero": InputSignal("zero"),
}


@main.command()
@click.option("--system", "sysdir", type=click.Path(exists=True), required=True)
@click.option("--input", "input_kind", type=click.Choice(sorted(_INPUTS)), required=True)
@click.option("--t-end", type=float, default=10.0)
@click.option("--dt", type=float, default=1e-3)
@click.option("--scheme", type=click.Choice(["implicit_euler", "rk4"]),
              default="implicit_euler")
@click.option("--out", type=click.Path(), required=True)
def simulate(sysdir, input_kind, t_end, dt, scheme, out):
    """Integrate a system and write the (t, y) trajectory CSV."""
    system = load_system(sysdir)
    try:
        traj = sim.simulate_qb(system, _INPUTS[input_kind], t_end, dt, scheme)
    except (sim.SimulationError, np.linalg.LinAlgError) as exc:
        _fail(EXIT_NUMERICAL, exc)
    except ValueError as exc:  # invalid time grid (LinAlgError, a ValueError, is caught above)
        _fail(EXIT_CONFIG, exc)
    with open(out, "w") as fh:
        fh.write("t,y\n")
        for t, y in zip(traj.times, traj.outputs):
            fh.write(f"{_fmt(t)},{_fmt(y)}\n")
    if traj.meta["diverged"]:
        click.echo("warning: output diverged; trajectory truncated", err=True)
    click.echo(f"wrote {len(traj.times)} samples to {out}")


@main.command()
@click.option("--system", "sysdir", type=click.Path(exists=True), required=True)
@click.option("--rom", "romdirs", type=click.Path(exists=True), multiple=True,
              required=True)
@click.option("--input", "input_kind", type=click.Choice(sorted(_INPUTS)), required=True)
@click.option("--t-end", type=float, default=10.0)
@click.option("--dt", type=float, default=1e-3)
@click.option("--scheme", type=click.Choice(["implicit_euler", "rk4"]),
              default="implicit_euler")
@click.option("--out", type=click.Path(), required=True)
def compare(sysdir, romdirs, input_kind, t_end, dt, scheme, out):
    """Simulate the full model and ROMs; write error columns for plotting."""
    system = load_system(sysdir)
    u = _INPUTS[input_kind]
    try:
        full = sim.simulate_qb(system, u, t_end, dt, scheme)
        roms = []
        for d in romdirs:
            rsys = load_system(Path(d) / "rom" if (Path(d) / "rom").is_dir() else d)
            roms.append((Path(d).name, sim.simulate_qb(rsys, u, t_end, dt, scheme)))
    except (sim.SimulationError, np.linalg.LinAlgError) as exc:
        _fail(EXIT_NUMERICAL, exc)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)
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
    try:
        rows = greedy.read_trace(trace_path)
    except ValueError as exc:
        _fail(EXIT_CONFIG, exc)

    def fmt_point(z):
        return f"{z.real:.4f}" + (f"{z.imag:+.4f}i" if z.imag else "")

    header = (f"{'S.No.':>5}  {'Interpolation points':>34}  {'Max. True Error':>16}  "
              f"{'Max. Est. Error':>16}  {'LUs':>5}  {'sigma_min':>9}")
    click.echo(header)
    lines = []
    for row in rows:
        pts = f"{fmt_point(row.sigma1)}, {fmt_point(row.sigma2)}"
        true_s = f"{row.true_error_max:.4e}" if row.true_error_max is not None else "-"
        line = (f"{row.iter:>5}  {pts:>34}  {true_s:>16}  {row.delta:>16.4e}  "
                f"{row.factorizations:>5}  {row.sigma_min_evals:>9}")
        click.echo(line)
        lines.append((row.iter, pts, true_s, f"{row.delta:.17g}", row.factorizations,
                      row.sigma_min_evals))
    if csv_out:
        with open(csv_out, "w") as fh:
            fh.write("iter,points,max_true_error,max_est_error,"
                     "factorizations,sigma_min_evals\n")
            for rec in lines:
                fh.write(",".join(f'"{v}"' if isinstance(v, str) and "," in v else str(v)
                                  for v in rec) + "\n")


if __name__ == "__main__":
    main()
