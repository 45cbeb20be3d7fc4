"""Core data-type tests: matricizations, symmetrization, (de)serialization."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qbmor import (
    InputSignal,
    QBSystem,
    apply_quadratic,
    load_system,
    mode2_matricization,
    save_system,
    symmetrize_quadratic,
)
from conftest import random_qb


def test_apply_quadratic_matches_dense(rng):
    n = 6
    Q = sp.csr_matrix(rng.standard_normal((n, n * n)))
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(apply_quadratic(Q, u, v), Q @ np.kron(u, v))


def test_apply_quadratic_rejects_mismatched_dims(rng):
    Q = sp.csr_matrix(np.zeros((3, 9)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_quadratic(Q, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply_quadratic(Q, np.zeros(4), np.zeros(4))


def test_symmetrize_preserves_square_action_and_symmetrizes(rng):
    n = 5
    Q = sp.csr_matrix(rng.standard_normal((n, n * n)))
    Qs = symmetrize_quadratic(Q)
    x = rng.standard_normal(n)
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    assert np.allclose(apply_quadratic(Qs, x, x), apply_quadratic(Q, x, x))
    assert np.allclose(apply_quadratic(Qs, u, v), apply_quadratic(Qs, v, u))
    # idempotent
    assert abs(symmetrize_quadratic(Qs) - Qs).max() < 1e-15


def test_symmetrize_entrywise():
    # single entry T(0, 0, 1) = 2 splits into T(0,0,1) = T(0,1,0) = 1
    n = 2
    Q = sp.csr_matrix(([2.0], ([0], [0 * n + 1])), shape=(n, n * n))
    Qs = symmetrize_quadratic(Q).toarray()
    expect = np.zeros((n, n * n))
    expect[0, 0 * n + 1] = 1.0
    expect[0, 1 * n + 0] = 1.0
    assert np.array_equal(Qs, expect)


def test_mode2_identity_many_random_instances(rng):
    # w^T Q (u kron v) == u^T Q2 (v kron w) for symmetrized Q
    for trial in range(120):
        n = int(rng.integers(2, 21))
        Q = symmetrize_quadratic(
            sp.csr_matrix(rng.standard_normal((n, n * n))))
        Q2 = mode2_matricization(Q)
        w, u, v = rng.standard_normal((3, n))
        lhs = w @ apply_quadratic(Q, u, v)
        rhs = u @ apply_quadratic(Q2, v, w)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_mode2_single_entry_mapping():
    # entry (i, j*n+k) moves to (k, j*n+i)
    n = 3
    i, j, k = 1, 2, 0
    Q = sp.csr_matrix(([5.0], ([i], [j * n + k])), shape=(n, n * n))
    Q2 = mode2_matricization(Q).toarray()
    assert Q2[k, j * n + i] == 5.0
    assert np.count_nonzero(Q2) == 1


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_mode2_is_an_involution_up_to_mode_swap(n, seed):
    # applying mode-2 twice returns the original matricization
    r = np.random.default_rng(seed)
    Q = sp.csr_matrix(r.standard_normal((n, n * n)))
    back = mode2_matricization(mode2_matricization(Q))
    assert abs(back - sp.csr_matrix(Q)).max() < 1e-15


class TestFromOperators:
    def test_validates_shapes(self, rng):
        n = 4
        ok = dict(E=np.eye(n), A=-np.eye(n), N=np.zeros((n, n)),
                  Q=sp.csr_matrix((n, n * n)), B=np.ones(n), C=np.ones(n))
        QBSystem.from_operators(**ok)
        with pytest.raises(ValueError, match="E has shape"):
            QBSystem.from_operators(**{**ok, "E": np.eye(n + 1)})
        with pytest.raises(ValueError, match="Q has shape"):
            QBSystem.from_operators(**{**ok, "Q": sp.csr_matrix((n, n))})
        with pytest.raises(ValueError, match="length-n"):
            QBSystem.from_operators(**{**ok, "B": np.ones(n + 2)})
        with pytest.raises(ValueError, match="x0"):
            QBSystem.from_operators(**ok, x0=np.ones(n + 1))

    def test_rejects_singular_pencil(self):
        n = 3
        with pytest.raises(ValueError, match="singular"):
            QBSystem.from_operators(
                np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n)),
                sp.csr_matrix((n, n * n)), np.ones(n), np.ones(n))

    def test_symmetrizes_q_and_defaults_x0(self, rng):
        sys = random_qb(5, rng)
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        assert np.allclose(sys.quadratic(u, v), sys.quadratic(v, u))
        assert np.array_equal(sys.x0, np.zeros(5))


class TestInputSignal:
    def test_zero_before_time_origin(self):
        for kind in ("exp_decay", "cosine_pi", "cubic_pulse"):
            assert InputSignal(kind)(-0.5) == 0.0

    def test_known_values(self):
        assert np.isclose(InputSignal("exp_decay")(1.0), np.exp(-1.0))
        assert np.isclose(InputSignal("cosine_pi")(1.0), -1.0)
        assert np.isclose(InputSignal("cubic_pulse")(1.0), 5.0e4 * np.exp(-15.0))
        assert InputSignal("zero")(3.0) == 0.0

    def test_parameter_override(self):
        u = InputSignal("exp_decay", {"a": 2.0, "b": 0.5})
        assert np.isclose(u(2.0), 2.0 * np.exp(-1.0))

    def test_table_interpolation(self):
        u = InputSignal("table", {"times": [0.0, 1.0], "values": [0.0, 2.0]})
        assert np.isclose(u(0.5), 1.0)
        assert u(2.0) == 0.0  # zero outside the table

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown input kind"):
            InputSignal("ramp")

    def test_vectorized(self):
        t = np.array([-1.0, 0.0, 1.0])
        vals = InputSignal("exp_decay")(t)
        assert vals.shape == (3,)
        assert vals[0] == 0.0


class TestSerialization:
    def test_round_trip(self, rng, tmp_path):
        sys = random_qb(6, rng, with_mass=True)
        sys = QBSystem.from_operators(sys.E, sys.A, sys.N, sys.Q, sys.B, sys.C,
                                      x0=rng.standard_normal(6), name="rt")
        save_system(sys, tmp_path / "sys")
        back = load_system(tmp_path / "sys")
        assert back.name == "rt"
        for key in ("E", "A", "N", "B", "C", "x0"):
            assert np.allclose(getattr(back, key), getattr(sys, key),
                               rtol=1e-15, atol=1e-15)
        assert np.allclose(back.Q.toarray(), sys.Q.toarray(), rtol=1e-15, atol=1e-15)

    def test_detects_inconsistent_manifest(self, rng, tmp_path):
        sys = random_qb(4, rng)
        save_system(sys, tmp_path / "sys")
        manifest = tmp_path / "sys" / "manifest.json"
        manifest.write_text(manifest.read_text().replace('"n": 4', '"n": 5'))
        with pytest.raises(ValueError):
            load_system(tmp_path / "sys")

    def test_reads_manifest_with_q_symmetrized_key(self, rng, tmp_path):
        # directories saved by earlier versions carry "q_symmetrized": true
        sys = random_qb(4, rng)
        save_system(sys, tmp_path / "sys")
        manifest = tmp_path / "sys" / "manifest.json"
        data = json.loads(manifest.read_text())
        assert "q_symmetrized" not in data
        manifest.write_text(json.dumps({**data, "q_symmetrized": True}))
        assert np.array_equal(load_system(tmp_path / "sys").A, sys.A)
