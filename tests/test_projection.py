"""Projection basis and reduction tests, including Hermite interpolation."""

import numpy as np
import pytest

import scipy.sparse as sp

from qbmor import benchmarks, projection, transfer
from qbmor.qb_model import apply_quadratic, symmetrize_quadratic
from qbmor.projection import (
    SingularReductionError,
    build_interpolation_bases,
    equalize_bases,
    orth_extend,
    reduce,
    verify_hermite,
)
from conftest import random_qb


class TestOrthExtend:
    def test_hand_case(self):
        basis = np.eye(3)[:, :1]
        basis, added = orth_extend(basis, np.array([1.0, 1.0, 0.0]))
        assert added == 1
        assert np.allclose(basis[:, 1], [0.0, 1.0, 0.0])

    def test_deflates_dependent_vector(self):
        basis = np.eye(3)[:, :2]
        basis, added = orth_extend(basis, np.array([2.0, -3.0, 0.0]))
        assert added == 0
        assert basis.shape == (3, 2)

    def test_complex_vector_contributes_two_columns(self):
        basis, added = orth_extend(np.zeros((4, 0)),
                                   np.array([1.0, 1.0j, 0.0, 0.0]))
        assert added == 2
        assert basis.shape == (4, 2)

    def test_real_part_only_when_imag_vanishes(self):
        basis, added = orth_extend(np.zeros((3, 0)),
                                   np.array([1.0 + 0.0j, 2.0, 0.0]))
        assert added == 1

    def test_zero_vector_skipped(self):
        basis, added = orth_extend(np.zeros((3, 0)), np.zeros(3))
        assert added == 0

    def test_orthonormality(self, rng):
        basis = np.zeros((10, 0))
        for _ in range(6):
            basis, _ = orth_extend(basis, rng.standard_normal(10))
        assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)


class TestReduce:
    def test_identity_projection_reproduces_operators(self, rng):
        sys = random_qb(6, rng, with_mass=True)
        I = np.eye(6)
        rom = reduce(sys, I, I)
        for got, want in ((rom.Er, sys.E), (rom.Ar, sys.A), (rom.Nr, sys.N),
                          (rom.Br, sys.B), (rom.Cr, sys.C)):
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
        assert np.allclose(rom.Qr.toarray(), sys.Q.toarray(), rtol=1e-14, atol=1e-14)

    def test_shape_mismatch_rejected(self, rng):
        sys = random_qb(5, rng)
        with pytest.raises(ValueError, match="identical shapes"):
            reduce(sys, np.eye(5)[:, :2], np.eye(5)[:, :3])

    def test_singular_reduced_mass_detected(self, rng):
        sys = random_qb(5, rng)  # E = I
        V = np.eye(5)[:, :1]
        W = np.eye(5)[:, 1:2]  # W^T E V = 0
        with pytest.raises(SingularReductionError):
            reduce(sys, V, W)

    def test_quadratic_term_consistent_with_projection(self, rng):
        sys = random_qb(7, rng)
        V = np.linalg.qr(rng.standard_normal((7, 3)))[0]
        rom = reduce(sys, V, V)
        xr = rng.standard_normal(3)
        # W^T Q ((V xr) kron (V xr)) == Qr (xr kron xr)
        full = V.T @ apply_quadratic(sys.Q, V @ xr, V @ xr)
        red = rom.Qr @ np.kron(xr, xr)
        assert np.allclose(full, red, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("chunk", [projection._QR_CHUNK, 1000], ids=["one chunk", "chunks"])
    @pytest.mark.parametrize("sys", [
        pytest.param(benchmarks.burgers(60, 0.01), id="burgers n=60"),
        pytest.param(random_qb(15, np.random.default_rng(7), q_scale=1.0), id="random n=15"),
    ])
    def test_qr_from_triplets_matches_kron_assembly(self, sys, chunk, rng, monkeypatch):
        monkeypatch.setattr(projection, "_QR_CHUNK", chunk)
        n, r = sys.n, 9
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        W = np.linalg.qr(V + 0.1 * rng.standard_normal((n, r)))[0]
        rom = reduce(sys, V, W)
        blocks = [W.T @ (sys.Q @ np.kron(V[:, a][:, None], V)) for a in range(r)]
        want = symmetrize_quadratic(sp.csr_matrix(np.hstack(blocks))).toarray()
        err = np.max(np.abs(rom.Qr.toarray() - want))
        assert err <= 1e-13 * np.max(np.abs(want))

    def test_empty_bases_give_empty_rom(self, rng):
        sys = random_qb(5, rng)
        rom = reduce(sys, np.zeros((5, 0)), np.zeros((5, 0)))
        assert rom.r == 0 and rom.Qr.shape == (0, 0)

    def test_as_system_round_trips_operators(self, rng):
        sys = random_qb(6, rng)
        V = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        rsys = reduce(sys, V, V).as_system()
        assert rsys.n == 3
        assert np.allclose(rsys.A, V.T @ sys.A @ V, atol=1e-13)


class TestHermiteInterpolation:
    def _check(self, sys, pairs, rtol=1e-8):
        V, W = build_interpolation_bases(sys, pairs)
        rom = reduce(sys, V, W)
        report = verify_hermite(sys, rom, pairs)
        worst = max(rec["rel_err"] for rec in report)
        assert worst <= rtol, f"worst Hermite mismatch {worst:.3e}"

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_random_systems_real_and_complex_pairs(self, n, rng):
        for trial in range(4):
            sys = random_qb(n, rng, with_mass=bool(trial % 2))
            pairs = [
                (float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))),
                (complex(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)),
                 complex(rng.uniform(0.5, 2.0), -rng.uniform(0.2, 1.0))),
            ]
            self._check(sys, pairs)

    def test_equal_point_specialization(self, rng):
        sys = random_qb(12, rng)
        self._check(sys, [(1.3, 1.3)])

    def test_dropping_x2_direction_breaks_h2_matching(self, rng):
        # negative control: first-order-only bases must miss H2
        sys = random_qb(15, rng)
        s1, s2 = 0.9, 1.7
        solver = transfer.PencilSolver(sys)
        V, _ = orth_extend(np.zeros((15, 0)), np.column_stack([
            transfer.solve_x1(sys, s1, solver), transfer.solve_x1(sys, s2, solver)]))
        W, _ = orth_extend(np.zeros((15, 0)), np.column_stack([
            transfer.solve_y1(sys, s1, solver), transfer.solve_y1(sys, s2, solver)]))
        rom = reduce(sys, V, W)
        report = verify_hermite(sys, rom, [(s1, s2)])
        h2_err = [r["rel_err"] for r in report if r["condition"] == "H2(s1,s2)"][0]
        assert h2_err > 1e-6


def test_equalize_bases_balances_column_counts(rng):
    sys = random_qb(10, rng)
    V = np.linalg.qr(rng.standard_normal((10, 2)))[0]
    W = np.linalg.qr(rng.standard_normal((10, 5)))[0]
    V2, W2 = equalize_bases(sys, V, W, [(1.0, 2.0)])
    assert V2.shape[1] == W2.shape[1] == 5
    assert np.allclose(V2.T @ V2, np.eye(5), atol=1e-12)
    # original columns are preserved in place
    assert np.allclose(V2[:, :2], V)
