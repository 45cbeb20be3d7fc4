"""End-to-end CLI tests through click's runner."""

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
from click.testing import CliRunner

import qbmor
from qbmor import QBSystem, load_system, qb_model, save_system
from qbmor.cli import _system_sha256, main
from qbmor.greedy import read_trace
from conftest import near_singular_diagonal_qb


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def burgers_dir(tmp_path, runner):
    out = tmp_path / "burgers"
    res = runner.invoke(main, ["bench", "build", "--kind", "burgers",
                               "--n", "20", "--nu", "0.05", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


def _greedy_config(tmp_path, **overrides):
    opts = {"sigma10_re": "2.0", "sigma20_re": "2.0", "eps_tol": "1e-3",
            "max_iters": "10", "grid_lo": "0.5", "grid_hi": "100",
            "grid_num": "15"}
    opts.update({k: str(v) for k, v in overrides.items()})
    lines = "\n".join(f"{k} = {v}" for k, v in opts.items())
    cfg = tmp_path / "greedy.ini"
    cfg.write_text(f"[greedy]\n{lines}\n")
    return cfg


class TestBenchBuild:
    def test_writes_loadable_system(self, tmp_path, runner):
        out = tmp_path / "rc"
        res = runner.invoke(main, ["bench", "build", "--kind", "rc",
                                   "--l", "4", "--out", str(out)])
        assert res.exit_code == 0, res.output
        sys = load_system(out)
        assert sys.n == 8
        assert "rc_ladder" in sys.name

    def test_invalid_parameters_exit_config(self, tmp_path, runner):
        res = runner.invoke(main, ["bench", "build", "--kind", "burgers",
                                   "--n", "2", "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "error" in res.output or "error" in (res.stderr or "")

    def test_fhn_builds(self, tmp_path, runner):
        out = tmp_path / "fhn"
        res = runner.invoke(main, ["bench", "build", "--kind", "fhn",
                                   "--nbar", "5", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert load_system(out).n == 16


class TestReduceGreedy:
    def test_full_run_artifacts(self, tmp_path, runner, burgers_dir):
        cfg = _greedy_config(tmp_path)
        out = tmp_path / "run"
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "trace.csv").exists()
        assert (out / "rom" / "manifest.json").exists()
        assert (out / "V.mtx").exists() and (out / "W.mtx").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert len(manifest["config_hash"]) == 64
        rom = load_system(out / "rom")
        assert 0 < rom.n < 20

    def test_invalid_tolerance_exit_config(self, tmp_path, runner, burgers_dir):
        cfg = _greedy_config(tmp_path, eps_tol="2.0")
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("key,value", [("sigma10_re", "nan"), ("sigma10_re", "inf"),
                                           ("sigma20_im", "nan"), ("grid_lo", "nan"),
                                           ("grid_lo", "-1")])
    def test_non_finite_frequency_exit_config(self, tmp_path, runner, burgers_dir,
                                              key, value):
        cfg = _greedy_config(tmp_path, **{key: value})
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert res.exit_code == 2, res.output
        assert "finite" in res.output

    def test_nonconvergence_exit_code_with_artifacts(self, tmp_path, runner,
                                                     burgers_dir):
        cfg = _greedy_config(tmp_path, eps_tol="1e-14", max_iters="2")
        out = tmp_path / "nc"
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 4
        assert (out / "trace.csv").exists()  # partial artifacts preserved


class TestReduceIrka:
    def test_run_and_points_file(self, tmp_path, runner, burgers_dir):
        cfg = tmp_path / "irka.ini"
        cfg.write_text("[irka]\nr = 3\ntol = 1e-3\nmax_iters = 50\n")
        out = tmp_path / "irka_run"
        res = runner.invoke(main, ["reduce", "irka", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "points.csv").read_text().strip().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) >= 4
        assert (out / "rom" / "manifest.json").exists()


class TestRunManifest:
    def test_records_version_and_config_hash(self, tmp_path, runner, burgers_dir):
        irka_cfg = tmp_path / "irka.ini"
        irka_cfg.write_text("[irka]\nr = 3\ntol = 1e-3\nmax_iters = 50\n")
        runs = {"greedy": _greedy_config(tmp_path), "irka": irka_cfg}
        system = load_system(burgers_dir)
        for method, cfg in runs.items():
            out = tmp_path / f"{method}_run"
            res = runner.invoke(main, ["reduce", method, "--system", str(burgers_dir),
                                       "--config", str(cfg), "--out", str(out)])
            assert res.exit_code == 0, res.output
            path = out / "run_manifest.json"
            assert path.exists()
            manifest = json.loads(path.read_text())
            assert manifest["qbmor_version"] == qbmor.__version__
            expected = hashlib.sha256(cfg.read_text().encode()).hexdigest()
            assert manifest["config_hash"] == expected
            assert manifest["python_version"] == platform.python_version()
            assert manifest["numpy_version"] == np.__version__
            assert manifest["scipy_version"] == scipy.__version__
            assert set(manifest["thread_env"]) == {
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
            for key, value in manifest["thread_env"].items():
                assert value == os.environ.get(key)
            # the same system, loaded again, gives the same hash in both runs
            assert manifest["system_sha256"] == _system_sha256(system)
            rom = load_system(out / "rom")
            expected_eig = np.max(sla.eigvals(rom.A, rom.E).real)
            assert manifest["rom_max_real_eig"] == pytest.approx(expected_eig, rel=1e-12)
        A = system.A.copy()
        A[3, 4] += 1e-12
        Q = system.Q.copy()
        Q.data[0] *= 2.0
        for perturbed in (dataclasses.replace(system, A=A), dataclasses.replace(system, Q=Q)):
            assert _system_sha256(perturbed) != _system_sha256(system)


class TestFrequencyDomain:
    def test_tf_eval_h1_and_h2(self, runner, burgers_dir):
        res = runner.invoke(main, ["tf", "eval", "--system", str(burgers_dir),
                                   "--s1-re", "1.0"])
        assert res.exit_code == 0 and "H1(" in res.output
        res = runner.invoke(main, ["tf", "eval", "--system", str(burgers_dir),
                                   "--s1-re", "1.0", "--s2-re", "2.0"])
        assert res.exit_code == 0
        assert "H2(" in res.output and "dH2/ds1" in res.output

    @pytest.mark.parametrize("args", [["--s1-re", "nan"], ["--s1-re", "1.0", "--s1-im", "inf"],
                                      ["--s1-re", "1.0", "--s2-re", "nan"],
                                      ["--s1-re", "1.0", "--s2-re", "2.0", "--s2-im", "nan"]])
    def test_tf_eval_non_finite_exit_config(self, runner, burgers_dir, args):
        res = runner.invoke(main, ["tf", "eval", "--system", str(burgers_dir)] + args)
        assert res.exit_code == 2, res.output
        assert "finite" in res.output

    @pytest.mark.parametrize("args", [["--s1-re", "nan", "--s2-re", "1.0"],
                                      ["--s1-re", "1.0", "--s2-re", "1.0", "--s2-im", "-inf"]])
    def test_bound_eval_non_finite_exit_config(self, tmp_path, runner, burgers_dir, args):
        out = tmp_path / "run"
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(_greedy_config(tmp_path)), "--out", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["bound", "eval", "--system", str(burgers_dir),
                                   "--trace", str(out / "trace.csv")] + args)
        assert res.exit_code == 2, res.output
        assert "finite" in res.output

    def test_bound_eval_from_trace(self, tmp_path, runner, burgers_dir):
        cfg = _greedy_config(tmp_path)
        out = tmp_path / "run"
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        last = read_trace(out / "trace.csv")[-1]

        def bound_eval(s1, s2):
            res = runner.invoke(main, [
                "bound", "eval", "--system", str(burgers_dir), "--trace", str(out / "trace.csv"),
                "--s1-re", repr(s1.real), "--s1-im", repr(s1.imag),
                "--s2-re", repr(s2.real), "--s2-im", repr(s2.imag)])
            assert res.exit_code == 0, res.output
            assert "delta1(" in res.output and "delta2(" in res.output
            return float(res.output.split("delta = ")[1])

        # the rebuilt bases interpolate at the last selected pair, so the
        # bound nearly vanishes there compared with an unselected pair
        assert bound_eval(last.sigma1, last.sigma2) < 1e-8 * bound_eval(3 + 0j, 4 + 0j)


class TestTimeDomain:
    def test_simulate_writes_csv(self, tmp_path, runner, burgers_dir):
        out = tmp_path / "traj.csv"
        res = runner.invoke(main, ["simulate", "--system", str(burgers_dir),
                                   "--input", "cosine_pi", "--t-end", "0.5",
                                   "--dt", "1e-2", "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,y"
        assert len(lines) == 52

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_invalid_time_step_exit_config(self, tmp_path, runner, burgers_dir, command):
        args = [command, "--system", str(burgers_dir), "--input", "cosine_pi",
                "--dt", "0", "--out", str(tmp_path / "out.csv")]
        if command == "compare":
            args += ["--rom", str(burgers_dir)]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "dt must be finite and positive" in res.output

    def test_compare_full_vs_rom(self, tmp_path, runner, burgers_dir):
        cfg = _greedy_config(tmp_path)
        run = tmp_path / "run"
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(run)])
        assert res.exit_code == 0, res.output
        out = tmp_path / "cmp.csv"
        res = runner.invoke(main, ["compare", "--system", str(burgers_dir),
                                   "--rom", str(run), "--input", "cosine_pi",
                                   "--t-end", "0.5", "--dt", "1e-2",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        header = out.read_text().splitlines()[0].split(",")
        assert header[:2] == ["t", "y_full"]
        assert any(c.startswith("rel_err_") for c in header)
        # the ROM should track the full model closely on this easy problem
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, -1].max() < 1e-2


class TestTable:
    def test_renders_trace(self, tmp_path, runner, burgers_dir):
        cfg = _greedy_config(tmp_path)
        run = tmp_path / "run"
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(burgers_dir),
                                   "--config", str(cfg), "--out", str(run)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["table", "--trace", str(run / "trace.csv"),
                                   "--csv", str(tmp_path / "table.csv")])
        assert res.exit_code == 0, res.output
        assert "Interpolation points" in res.output
        assert "Max. Est. Error" in res.output
        assert "sigma_min" in res.output
        table_lines = (tmp_path / "table.csv").read_text().strip().splitlines()
        assert table_lines[0] == ("iter,points,max_true_error,max_est_error,"
                                  "factorizations,sigma_min_evals")
        assert len(table_lines) >= 2
        # the first iteration factors and evaluates sigma_min at least once
        first = table_lines[1].split(",")
        assert int(first[-2]) >= 1 and int(first[-1]) >= 1


_TRACE_HEADER = ("iter,sigma1_re,sigma1_im,sigma2_re,sigma2_im,"
                 "delta1,delta2,delta,true_error,basis_V,basis_W")


def _system_commands(tmp_path, good):
    """Each command that reads a system, as a function of the directory it reads."""
    trace = tmp_path / "trace.csv"
    trace.write_text(_TRACE_HEADER + "\n1,2,0,2,0,0.5,0.25,0.75,,4,4\n")
    irka_cfg = tmp_path / "irka.ini"
    irka_cfg.write_text("[irka]\nr = 3\n")
    run = ["--input", "cosine_pi", "--t-end", "0.1", "--dt", "1e-2",
           "--out", str(tmp_path / "out.csv")]
    return {
        "simulate": lambda d: ["simulate", "--system", d] + run,
        "compare --system": lambda d: ["compare", "--system", d, "--rom", good] + run,
        "compare --rom": lambda d: ["compare", "--system", good, "--rom", d] + run,
        "tf eval": lambda d: ["tf", "eval", "--system", d, "--s1-re", "1.0"],
        "bound eval": lambda d: ["bound", "eval", "--system", d, "--trace", str(trace),
                                 "--s1-re", "1.0", "--s2-re", "2.0"],
        "reduce greedy": lambda d: ["reduce", "greedy", "--system", d, "--config",
                                    str(_greedy_config(tmp_path)),
                                    "--out", str(tmp_path / "run")],
        "reduce irka": lambda d: ["reduce", "irka", "--system", d, "--config",
                                  str(irka_cfg), "--out", str(tmp_path / "run")],
    }


@pytest.fixture
def bad_system_dirs(tmp_path, burgers_dir):
    """A saved system whose manifest disagrees with its matrices, and a directory
    without a manifest."""
    wrong_n = tmp_path / "wrong_n"
    shutil.copytree(burgers_dir, wrong_n)
    manifest = wrong_n / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"n": 20', '"n": 21'))
    no_manifest = tmp_path / "no_manifest"
    no_manifest.mkdir()
    return {"wrong_n": wrong_n, "no_manifest": no_manifest}


class TestExitCodes:
    @pytest.mark.parametrize("bad", ["wrong_n", "no_manifest"])
    @pytest.mark.parametrize("command", ["simulate", "compare --system", "compare --rom",
                                         "tf eval", "bound eval", "reduce greedy",
                                         "reduce irka"])
    def test_bad_system_dir_exit_config(self, tmp_path, runner, burgers_dir,
                                        bad_system_dirs, command, bad):
        args = _system_commands(tmp_path, str(burgers_dir))[command](
            str(bad_system_dirs[bad]))
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert type(res.exception) is SystemExit
        assert "error: " in res.output
        assert {"wrong_n": "n=21", "no_manifest": "manifest.json"}[bad] in res.output

    def test_bad_system_dir_exit_config_without_asserts(self, tmp_path, burgers_dir,
                                                        bad_system_dirs):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        args = _system_commands(tmp_path, str(burgers_dir))["simulate"](
            str(bad_system_dirs["wrong_n"]))
        out = subprocess.run([sys.executable, "-O", "-m", "qbmor.cli"] + args,
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    @pytest.mark.parametrize("content,message", [
        ("", "is empty"),
        (_TRACE_HEADER.replace(",delta,", ",") + "\n1,2,0,2,0,0.5,0.25,,4,4\n",
         "lacks column(s) delta"),
    ], ids=["empty", "no_delta_column"])
    @pytest.mark.parametrize("command", ["bound eval", "table"])
    def test_bad_trace_exit_config(self, tmp_path, runner, burgers_dir, command,
                                   content, message):
        trace = tmp_path / "bad_trace.csv"
        trace.write_text(content)
        args = (["table", "--trace", str(trace)] if command == "table" else
                ["bound", "eval", "--system", str(burgers_dir), "--trace", str(trace),
                 "--s1-re", "1.0", "--s2-re", "2.0"])
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert type(res.exception) is SystemExit
        assert "error: " in res.output and message in res.output

    @pytest.mark.filterwarnings("ignore:skipping sample point")
    def test_all_grid_points_singular_exit_numerical(self, tmp_path, runner):
        # x' = x + u: the pencil s - 1 is singular at the only grid point, s = 1
        sysdir = tmp_path / "unstable"
        save_system(QBSystem.from_operators(np.eye(1), np.eye(1), np.zeros((1, 1)),
                                            sp.csr_matrix((1, 1)), np.ones(1), np.ones(1)),
                    sysdir)
        cfg = _greedy_config(tmp_path, grid_lo=1, grid_hi=1, grid_num=1)
        res = runner.invoke(main, ["reduce", "greedy", "--system", str(sysdir),
                                   "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert res.exit_code == 3, res.output
        assert type(res.exception) is SystemExit
        assert "error: no finite bound value" in res.output

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
    def test_all_grid_points_singular_above_sparse_cut_exit_numerical(self, tmp_path, flags):
        # at the only grid point, s = 1, the solves pass the rcond test, but the
        # band-certified sigma_min is below n eps ||sE - A||
        sysdir = tmp_path / "near_singular"
        save_system(near_singular_diagonal_qb(), sysdir)
        cfg = _greedy_config(tmp_path, grid_lo=1, grid_hi=1, grid_num=1)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, *flags, "-W", "ignore", "-m", "qbmor.cli", "reduce", "greedy",
             "--system", str(sysdir), "--config", str(cfg), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 3, out.stderr
        assert out.stderr.startswith("error: no finite bound value")
        assert "Traceback" not in out.stderr

    def test_manifest_without_n_exit_config(self, tmp_path, runner, burgers_dir):
        manifest = burgers_dir / "manifest.json"
        fields = json.loads(manifest.read_text())
        del fields["n"]
        manifest.write_text(json.dumps(fields))
        res = runner.invoke(main, ["tf", "eval", "--system", str(burgers_dir), "--s1-re", "1.0"])
        assert res.exit_code == 2, res.output
        assert type(res.exception) is SystemExit
        assert "error: " in res.output and "lacks the state dimension n" in res.output

    def test_short_trace_row_exit_config(self, tmp_path, runner):
        trace = tmp_path / "short.csv"
        trace.write_text(_TRACE_HEADER + "\n1,2,0\n")
        res = runner.invoke(main, ["table", "--trace", str(trace)])
        assert res.exit_code == 2, res.output
        assert type(res.exception) is SystemExit
        assert "error: " in res.output and "fewer fields than its header" in res.output

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
    def test_singular_newton_jacobian_exit_numerical(self, tmp_path, flags):
        # E = I, A = 2 I from x0 = 1: every Newton Jacobian E/dt - A is zero at dt = 0.5,
        # on a system large enough for the sparse Newton path
        n = qb_model.SPARSE_FACTOR_N
        sysdir = tmp_path / "singular"
        save_system(QBSystem.from_operators(np.eye(n), 2.0 * np.eye(n), np.zeros((n, n)),
                                            sp.csr_matrix((n, n * n)), np.ones(n),
                                            np.ones(n), x0=np.ones(n)), sysdir)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, *flags, "-m", "qbmor.cli", "simulate", "--system", str(sysdir),
             "--input", "zero", "--t-end", "1.0", "--dt", "0.5",
             "--out", str(tmp_path / "y.csv")],
            capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 3, out.stderr
        assert out.stderr.startswith("error: singular Newton Jacobian")
        assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_rk4_singular_mass_exit_numerical(tmp_path, flags):
    # E = diag(1, 0): gecon's estimate on the LU of E is 0, so RK4 refuses to run
    sysdir = tmp_path / "dae"
    save_system(QBSystem.from_operators(np.diag([1.0, 0.0]), -np.eye(2), np.zeros((2, 2)),
                                        sp.csr_matrix((2, 4)), np.ones(2), np.ones(2)), sysdir)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, *flags, "-m", "qbmor.cli", "simulate",
         "--system", str(sysdir), "--input", "zero", "--t-end", "1.0", "--dt", "0.1",
         "--scheme", "rk4", "--out", str(tmp_path / "y.csv")],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("error: rk4 requires invertible E")
    assert "Traceback" not in out.stderr
