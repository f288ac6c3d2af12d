import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachctl import (
    RANK_TOL,
    SKEW_TOL,
    bracket,
    canonical_skew_eigensystem,
    frobenius_inner,
    matrix_exp,
    skew_eigensystem,
)
from reachctl.matrices import _check_skew_hermitian, eigensystem_exp, skew_eigensystems

from helpers import EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z, is_skew, random_skew


class TestTolerance:
    def test_defaults(self):
        assert RANK_TOL == 1e-10
        assert SKEW_TOL == 1e-12


def accepted(X) -> bool:
    """Whether ``_check_skew_hermitian`` passes ``X``, asserting that the test predicate ``is_skew`` agrees."""
    try:
        _check_skew_hermitian(np.asarray(X, dtype=complex), "X")
    except ValueError:
        verdict = False
    else:
        verdict = True
    assert is_skew(X) == verdict
    return verdict


class TestIsSkewHermitian:
    def test_i_sigma_x(self):
        assert accepted(1j * SIGMA_X)

    def test_sigma_x_is_not(self):
        assert not accepted(SIGMA_X)

    def test_zero_matrix(self):
        assert accepted(np.zeros((3, 3)))

    def test_named_failure_cites_entry(self):
        # SIGMA_Z + SIGMA_Z^dagger = 2 diag(1, -1): worst entry (0, 0)
        with pytest.raises(ValueError, match=r"X is not skew-Hermitian: max violation 2\.000e\+00 at entry \(0, 0\)"):
            _check_skew_hermitian(SIGMA_Z, "X")
        _check_skew_hermitian(1j * SIGMA_X, "X")  # passes silently

    def test_scale_invariance(self):
        # near-skew noise below the relative threshold passes at any scale
        X = 1e8 * 1j * SIGMA_Z + 1e-6
        assert accepted(X)
        assert not accepted(1j * SIGMA_Z + 1e-6 * np.ones((2, 2)))
        # no absolute floor: a small Hermitian matrix fails as a large one does
        assert not accepted(1e-13 * SIGMA_Z)
        assert accepted(1e-13j * SIGMA_Z)


class TestBracket:
    def test_pauli_relation(self):
        expected = np.array([[0, -2], [2, 0]], dtype=complex)
        assert np.allclose(bracket(1j * SIGMA_Z, 1j * SIGMA_X), expected, atol=1e-14)
        assert np.allclose(bracket(1j * SIGMA_Z, 1j * SIGMA_X), -2j * SIGMA_Y, atol=1e-14)

    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(3)
        X = random_skew(rng, 4)
        assert np.max(np.abs(bracket(X, X))) == 0.0

    def test_diagonal_matrices_commute(self):
        out = bracket(np.diag([1j, 2j]), np.diag([3j, 1j]))
        assert np.max(np.abs(out)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bracket(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry(self, seed, n):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert np.array_equal(bracket(X, Y), -bracket(Y, X))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_jacobi_identity(self, seed, n):
        rng = np.random.default_rng(seed)
        X, Y, Z = (random_skew(rng, n) for _ in range(3))
        total = bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X)) + bracket(Z, bracket(X, Y))
        scale = max(np.linalg.norm(M) for M in (X, Y, Z)) ** 3
        assert np.max(np.abs(total)) <= 1e-12 * max(1.0, scale)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_skewness_closed_under_bracket(self, seed, n):
        rng = np.random.default_rng(seed)
        X, Y = random_skew(rng, n), random_skew(rng, n)
        assert is_skew(bracket(X, Y))


class TestFrobeniusInner:
    def test_pauli_norms_and_orthogonality(self):
        assert frobenius_inner(1j * SIGMA_Z, 1j * SIGMA_Z) == pytest.approx(2.0)
        assert frobenius_inner(1j * SIGMA_Z, 1j * SIGMA_X) == pytest.approx(0.0, abs=1e-14)

    def test_identity_trace(self):
        I3 = np.eye(3)
        assert frobenius_inner(I3, I3) == pytest.approx(3.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_positive(self, seed):
        rng = np.random.default_rng(seed)
        X, Y = random_skew(rng, 3), random_skew(rng, 3)
        assert frobenius_inner(X, Y) == pytest.approx(frobenius_inner(Y, X), rel=1e-12, abs=1e-12)
        assert frobenius_inner(X, X) >= 0.0


class TestMatrixExp:
    def test_diagonal_at_pi(self):
        out = matrix_exp(np.diag([1j, -1j]), np.pi)
        assert np.allclose(out, -EYE2, atol=1e-12)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(matrix_exp(M, 0.0), np.eye(5))

    def test_euler_formula_at_pi(self):
        assert np.allclose(matrix_exp(1j * SIGMA_X, np.pi), -EYE2, atol=1e-12)

    def test_non_skew_generator_raises(self):
        # only skew-Hermitian generators are exponentiated; a nilpotent is not one
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="matrix_exp generator is not skew-Hermitian"):
            matrix_exp(N, 2.0)

    @pytest.mark.parametrize("t", ["1", None, True, np.nan, np.inf, -np.inf, 10**400])
    def test_time_must_be_a_finite_real(self, t):
        with pytest.raises(ValueError, match=f"^t must be a finite real number, got {re.escape(repr(t))}$"):
            matrix_exp(1j * SIGMA_X, t)

    @pytest.mark.parametrize("t", [-2, np.int64(3), np.float64(-0.5)])
    def test_time_of_any_real_type_and_sign(self, t):
        assert np.allclose(matrix_exp(1j * SIGMA_X, t), np.cos(t) * EYE2 + 1j * np.sin(t) * SIGMA_X, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_flow_names_t(self):
        # a ValueError naming t, not an all-NaN "unitary"
        with pytest.raises(ValueError, match=r"^the flow over t = 1e\+300 overflows double precision$"):
            matrix_exp(1e10j * SIGMA_Z + 1e10j * SIGMA_X, 1e300)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), t=st.floats(-100.0, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_unitarity_for_skew(self, seed, n, t):
        rng = np.random.default_rng(seed)
        X = random_skew(rng, n)
        U = matrix_exp(X, t)
        assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1), s=st.floats(-10.0, 10.0), t=st.floats(-10.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_group_law_same_generator(self, seed, s, t):
        rng = np.random.default_rng(seed)
        X = random_skew(rng, 3)
        left = matrix_exp(X, s) @ matrix_exp(X, t)
        assert np.max(np.abs(left - matrix_exp(X, s + t))) <= 1e-10


class TestSkewEigensystem:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction(self, seed, n):
        rng = np.random.default_rng(seed)
        X = random_skew(rng, n)
        omega, V = skew_eigensystem(X)
        assert np.all(np.diff(omega) <= 1e-12)  # descending frequencies
        rebuilt = (V * (1j * omega)) @ V.conj().T
        assert np.max(np.abs(rebuilt - X)) <= 1e-12 * max(1.0, np.max(np.abs(X)))
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.ones(3), np.array([[np.nan, 0.0], [0.0, 0.0]])])
    def test_rejects_non_square_or_non_finite(self, bad):
        with pytest.raises(ValueError):
            skew_eigensystem(bad)


def loop_canonical_skew_eigensystem(X):
    # Column-by-column reference for the gauge and the tie order.
    omega, V = skew_eigensystem(X)
    V = V.copy()
    n = V.shape[0]
    for k in range(n):
        p = V[int(np.argmax(np.abs(V[:, k]))), k]
        V[:, k] = V[:, k] * (np.conj(p) / np.abs(p))
    order = sorted(range(n), key=lambda k: (-omega[k], tuple(x for z in V[:, k] for x in (-z.real, -z.imag))))
    return omega[order], V[:, order]


class TestCanonicalSkewEigensystem:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), kind=st.sampled_from(["random", "ties", "zero"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference_bit_for_bit(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        if kind == "random":
            X = random_skew(rng, n)
        elif kind == "ties":  # exactly repeated frequencies: the order falls to the eigenvectors
            X = np.diag(1j * rng.integers(-1, 2, n).astype(float))
        else:
            X = np.zeros((n, n))
        omega, V = canonical_skew_eigensystem(X)
        omega_ref, V_ref = loop_canonical_skew_eigensystem(X)
        assert omega.tobytes() == omega_ref.tobytes()
        assert V.tobytes() == V_ref.tobytes()


class TestSegmentEigensystems:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_per_matrix_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        A, B = random_skew(rng, n), random_skew(rng, n)
        values = np.concatenate(([0.0], rng.uniform(-2.0, 2.0, 24)))
        omega, V = skew_eigensystems(1j * (A + values[:, None, None] * B))
        assert omega.shape == (values.size, n)
        assert V.shape == (values.size, n, n)
        for j, v in enumerate(values):
            omega_j, V_j = skew_eigensystem(A + v * B)
            assert np.array_equal(omega[j], omega_j)
            assert np.array_equal(V[j], V_j)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_exp_matches_matrix_exp(self, n):
        rng = np.random.default_rng(n)
        A, B = random_skew(rng, n), random_skew(rng, n)
        values, durations = rng.uniform(-2.0, 2.0, 12), rng.uniform(-3.0, 3.0, 12)
        U = eigensystem_exp(*skew_eigensystems(1j * (A + values[:, None, None] * B)), durations[:, None])
        assert U.shape == (values.size, n, n)
        for j, (v, t) in enumerate(zip(values, durations)):
            assert np.array_equal(U[j], matrix_exp(A + v * B, t))
