import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from reachctl import (
    AlgebraLabel,
    ControlSchedule,
    ControlSystem,
    LieAlgebraBasis,
    RANK_TOL,
    StateVector,
    bracket,
    classify,
    closure,
    frobenius_inner,
    matrix_exp,
    member,
)
from reachctl.cli import run
from reachctl.fileio import save_schedule, save_state, save_system
import reachctl.lie
import reachctl.matrices

from helpers import EYE2, SIGMA_X, SIGMA_Y, SIGMA_Z, haar_unitary, is_skew, random_skew, real_antisymmetric
from oracles import bracket_flag_rank


def loop_closure(generators, rank_tol: float = RANK_TOL) -> tuple:
    """The closure worklist with modified Gram-Schmidt, one element at a time.

    A reference for ``closure``: the same FIFO order and admit rule with the
    projection written as a plain loop over the pairing ``Re vdot``.  Every
    admitted element is bracketed with the admitted generators only; while
    the generators are being admitted, each one pairs with all before it.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    n = gens[0].shape[0]
    elements, words, queue = [], [], deque()
    seeds = None

    def admit(W, word, ref):
        if len(elements) >= n * n:
            return
        for _ in range(2):
            for e in elements:
                W = W - np.real(np.vdot(e, W)) * e
        norm = np.linalg.norm(W)
        if norm <= max(rank_tol * ref, rank_tol):
            return
        partners = len(elements) if seeds is None else seeds
        queue.extend((i, len(elements)) for i in range(partners))
        elements.append(W / norm)
        words.append(word)

    for k, g in enumerate(gens):
        admit(g, f"g{k}", np.linalg.norm(g))
    seeds = len(elements)
    while queue and len(elements) < n * n:
        i, j = queue.popleft()
        W = elements[i] @ elements[j] - elements[j] @ elements[i]
        ref = np.linalg.norm(W)
        if ref > 0.0:
            admit(W, f"[{words[i]},{words[j]}]", ref)
    return elements, words


def loop_classify(basis, rank_tol: float = RANK_TOL) -> tuple:
    """``(traceless, abelian, label)`` from one element and one pair at a time.

    A reference for ``classify``: the same thresholds, with traces, norms and
    brackets taken per element and per pair.
    """
    elements = list(basis.elements)
    norms = [np.linalg.norm(e) for e in elements]
    traceless = all(abs(np.trace(e)) <= rank_tol * max(1.0, nrm) for e, nrm in zip(elements, norms))
    abelian = all(
        np.linalg.norm(elements[i] @ elements[j] - elements[j] @ elements[i])
        <= rank_tol * max(1.0, norms[i] * norms[j])
        for i in range(len(elements))
        for j in range(i + 1, len(elements))
    )
    n, dim = basis.n, len(elements)
    if dim == n * n:
        label = AlgebraLabel.FULL_UNITARY
    elif dim == n * n - 1 and traceless:
        label = AlgebraLabel.SPECIAL_UNITARY
    elif abelian and dim >= 1:
        label = AlgebraLabel.ABELIAN
    else:
        label = AlgebraLabel.OTHER
    return traceless, abelian, label


def diagonal_generators(n: int) -> list:
    """The n commuting generators i E_kk: together they span the diagonal torus of u(n)."""
    return [np.diag(1j * np.eye(n)[k]) for k in range(n)]


class TestClosure:
    def test_su2_pair_gives_dimension_3(self):
        basis = closure([1j * SIGMA_Z, 1j * SIGMA_X])
        assert basis.dim == 3
        assert bracket_flag_rank([1j * SIGMA_Z, 1j * SIGMA_X]) == 3

    def test_single_diagonal_generator(self):
        basis = closure([np.diag([1j, 2j])])
        assert basis.dim == 1

    def test_scalar_multiple_adds_nothing(self):
        A = np.diag([1j, 1j * np.sqrt(2.0)])
        basis = closure([A, 2.0 * A])
        assert basis.dim == 1

    def test_u2_triple_gives_dimension_4(self):
        basis = closure([1j * EYE2, 1j * SIGMA_Z, 1j * SIGMA_X])
        assert basis.dim == 4
        assert bracket_flag_rank([1j * EYE2, 1j * SIGMA_Z, 1j * SIGMA_X]) == 4

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            closure([])

    def test_non_skew_generator_named(self):
        with pytest.raises(ValueError, match="generator 1"):
            closure([1j * SIGMA_Z, SIGMA_X])

    def test_orthonormality_and_skewness(self):
        basis = closure([1j * SIGMA_Z, 1j * SIGMA_X])
        for i, ei in enumerate(basis.elements):
            assert np.max(np.abs(ei + ei.conj().T)) <= 1e-12
            for j, ej in enumerate(basis.elements):
                expected = 1.0 if i == j else 0.0
                got = float(np.real(np.vdot(ei, ej)))
                assert got == pytest.approx(expected, abs=1e-10)

    def test_provenance_words_cover_elements(self):
        basis = closure([1j * SIGMA_Z, 1j * SIGMA_X])
        assert len(basis.provenance) == basis.dim
        assert basis.provenance[0] == "g0"
        assert any("[" in word for word in basis.provenance[2:])

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    @example(seed=10194, n=5)  # an element of the first closure once failed the skew check
    def test_idempotence(self, seed, n):
        rng = np.random.default_rng(seed)
        first = closure([random_skew(rng, n), random_skew(rng, n)])
        assert all(is_skew(e) for e in first.elements)
        second = closure(list(first.elements))
        assert second.dim == first.dim
        for e in second.elements:
            assert member(first, e) <= 1e-8
        for e in first.elements:
            assert member(second, e) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_bracket_closedness(self, seed, n):
        rng = np.random.default_rng(seed)
        basis = closure([random_skew(rng, n), random_skew(rng, n)])
        for ei in basis.elements:
            for ej in basis.elements:
                assert member(basis, bracket(ei, ej)) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_generator_containment(self, seed, n):
        rng = np.random.default_rng(seed)
        gens = [random_skew(rng, n), random_skew(rng, n)]
        basis = closure(gens)
        for g in gens:
            assert member(basis, g) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_dimension_caps(self, seed, n):
        rng = np.random.default_rng(seed)
        basis = closure([random_skew(rng, n), random_skew(rng, n)])
        assert basis.dim <= n * n

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_traceless_generators_cap(self, seed, n):
        # traceless skew-Hermitian generators stay inside su(n)
        rng = np.random.default_rng(seed)
        gens = []
        for _ in range(2):
            X = random_skew(rng, n)
            gens.append(X - np.trace(X) / n * np.eye(n))
        basis = closure(gens)
        assert basis.dim <= n * n - 1

    def test_memory_follows_dimension(self):
        # A torus pair at n = 100 generates a line; a basis sized for the
        # n^2 cap would be 10^4 x 2 * 10^4 doubles (1.6 GB).
        n = 100
        A = np.diag(1j * np.sqrt(np.arange(1.0, n + 1)))
        tracemalloc.start()
        try:
            basis = closure([A, 2.0 * A])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.dim == 1
        assert peak < 16 * 2**20


    def test_basis_is_one_buffer(self):
        # A generic u(12) pair fills the n^2 cap, whose basis takes 16 n^4 bytes; growing it by a
        # copy held beside the old rows peaked near twice that.
        n = 12
        rng = np.random.default_rng(12)
        tracemalloc.start()
        try:
            basis = closure([random_skew(rng, n), random_skew(rng, n)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.dim == n * n
        assert peak <= 1.25 * 16 * n**4
        E = basis.elements
        assert E.dtype == complex and E.shape == (n * n, n, n) and E.flags.c_contiguous

    def test_growth_past_the_entries_limit_is_refused(self, monkeypatch):
        # A generic u(4) basis doubles from 2 rows to 4, 8 and 16, each row n^2 = 16 complex entries.
        rng = np.random.default_rng(4)
        gens = [random_skew(rng, 4), random_skew(rng, 4)]
        monkeypatch.setattr(reachctl.matrices, "MAX_ENTRIES", 8 * 16 - 1)
        message = "^the closure of 4 x 4 generators is too large: it asks for more than 127 array entries$"
        with pytest.raises(ValueError, match=message):
            closure(gens)
        monkeypatch.setattr(reachctl.matrices, "MAX_ENTRIES", 16 * 16)
        assert closure(gens).dim == 16

    def test_analyze_past_the_entries_limit_exits_1(self, monkeypatch, tmp_path, capsys):
        # so(4) is no u(n), so analyze runs its closure: 2 rows, then 4, then 8 of 16 complex entries.
        sys_path, state_path, out = tmp_path / "so4.json", tmp_path / "state.json", tmp_path / "report.json"
        rng = np.random.default_rng(5)
        save_system(ControlSystem(real_antisymmetric(rng, 4), real_antisymmetric(rng, 4)), sys_path)
        save_state(StateVector.normalized(np.ones(4, dtype=complex)), state_path)
        monkeypatch.setattr(reachctl.matrices, "MAX_ENTRIES", 64)
        assert run(["analyze", "--system", str(sys_path), "--state", str(state_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("reachctl analyze: error: the closure of 4 x 4 generators is too large: "
                                           "it asks for more than 64 array entries\n")
        assert not out.exists()


class TestBoundaryValidation:
    def test_generators_validated_once(self, monkeypatch):
        # Inputs are validated at the boundary, not once per inner product
        # or bracket inside the worklist loop.
        calls = []
        original = reachctl.matrices.square_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(reachctl.matrices, "square_matrix", counted)
        monkeypatch.setattr(reachctl.lie, "square_matrix", counted)
        rng = np.random.default_rng(8)
        gens = [real_antisymmetric(rng, 8), real_antisymmetric(rng, 8)]
        assert closure(gens).dim == 28
        assert len(calls) <= 2 * len(gens)

    @pytest.mark.parametrize("entry, expected", [
        (lambda A, B: ControlSystem(A, B), 2),
        (lambda A, B: closure([A, B]), 2),
        (lambda A, B: matrix_exp(A, 0.5), 1),
    ], ids=["ControlSystem", "closure", "matrix_exp"])
    def test_each_matrix_coerced_once(self, monkeypatch, entry, expected):
        # The skew-Hermitian check takes the array square_matrix returned, so
        # a public entry coerces each matrix argument once.
        calls = []
        original = reachctl.matrices.square_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "reachctl" and getattr(module, "square_matrix", None) is original:
                monkeypatch.setattr(module, "square_matrix", counted)
        entry(1j * SIGMA_Z, 1j * SIGMA_X)
        assert len(calls) == expected

    def test_classify_validates_nothing(self, monkeypatch):
        # classify works on the stack closure built; no bracket re-validates
        # a pair of basis elements (six commuting elements: 15 pairs).
        basis = closure(diagonal_generators(6))
        assert basis.dim == 6
        calls = []
        original = reachctl.matrices.square_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(reachctl.matrices, "square_matrix", counted)
        monkeypatch.setattr(reachctl.lie, "square_matrix", counted)
        assert classify(basis).label is AlgebraLabel.ABELIAN
        assert calls == []

    def test_pure_drift_simulate_states_do_not_grow_with_samples(self, monkeypatch, tmp_path):
        # The drift-energy diagnostic takes every sample from the trajectory
        # array, not one validated StateVector per sample.
        save_system(ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X), tmp_path / "system.json")
        save_state(StateVector.normalized(np.array([1.0, 1j])), tmp_path / "state.json")
        save_schedule(ControlSchedule.constant(0.0, 2.0, 20), tmp_path / "controls.json")
        built = []
        original = StateVector.__post_init__

        def counted(self):
            built.append(1)
            original(self)

        monkeypatch.setattr(StateVector, "__post_init__", counted)
        counts = []
        for samples in ("1", "50"):
            built.clear()
            argv = ["simulate", "--system", str(tmp_path / "system.json"), "--state", str(tmp_path / "state.json"),
                    "--controls", str(tmp_path / "controls.json"), "--samples-per-segment", samples,
                    "--out", str(tmp_path / "report.json")]
            assert run(argv) == 0
            counts.append(len(built))
        assert counts[0] == counts[1]


class TestMember:
    def test_sigma_y_in_su2_span(self):
        basis = closure([1j * SIGMA_Z, 1j * SIGMA_X])
        assert member(basis, 1j * SIGMA_Y) <= 1e-10

    def test_identity_orthogonal_to_traceless(self):
        basis = closure([1j * SIGMA_Z, 1j * SIGMA_X])
        assert member(basis, 1j * EYE2) == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_zero_matrix_is_member(self):
        basis = closure([1j * SIGMA_Z, 1j * SIGMA_X])
        assert member(basis, np.zeros((2, 2))) == 0.0


class TestClassify:
    def test_su2(self):
        out = classify(closure([1j * SIGMA_Z, 1j * SIGMA_X]))
        assert out.dim == 3
        assert out.traceless
        assert not out.abelian
        assert out.label is AlgebraLabel.SPECIAL_UNITARY

    def test_single_diagonal_is_abelian(self):
        out = classify(closure([np.diag([1j, 1j * np.sqrt(2.0)])]))
        assert out.dim == 1
        assert not out.traceless
        assert out.abelian
        assert out.label is AlgebraLabel.ABELIAN

    def test_u2(self):
        out = classify(closure([1j * EYE2, 1j * SIGMA_Z, 1j * SIGMA_X]))
        assert out.dim == 4
        assert out.label is AlgebraLabel.FULL_UNITARY

    def test_u1_prefers_full_over_abelian(self):
        # dim 1 = n^2 for n = 1, so FULL_UNITARY outranks ABELIAN
        out = classify(closure([np.array([[1j]])]))
        assert out.abelian
        assert out.label is AlgebraLabel.FULL_UNITARY

    @pytest.mark.parametrize(
        "case", ["generic3", "generic4", "su3", "so5", "torus", "diagonal6", "zero", "su2_in_u3", "far_pair"]
    )
    def test_matches_loop_reference(self, case):
        rng = np.random.default_rng(12)
        if case.startswith("generic"):
            gens = [random_skew(rng, int(case[-1])) for _ in range(2)]
        elif case == "su3":
            gens = [X - np.trace(X) / 3 * np.eye(3) for X in (random_skew(rng, 3), random_skew(rng, 3))]
        elif case == "so5":
            gens = [real_antisymmetric(rng, 5) for _ in range(2)]
        elif case == "torus":
            A = np.diag(1j * np.sqrt([1.0, 2.0, 3.0]))
            gens = [A, 2.0 * A]
        elif case == "diagonal6":
            gens = diagonal_generators(6)
        elif case == "zero":
            gens = [np.zeros((3, 3))]
        elif case == "su2_in_u3":
            gens = [scipy.linalg.block_diag(1j * X, [[0.0]]) for X in (SIGMA_Z, SIGMA_X)]
        if case == "far_pair":
            # Built by hand: neighbours commute, only the pair (0, 2) does not.
            elements = np.array([1j * SIGMA_Z, 1j * EYE2, 1j * SIGMA_X]) / np.sqrt(2.0)
            basis = LieAlgebraBasis(n=2, elements=elements, provenance=["g0", "g1", "g2"])
        else:
            basis = closure(gens)
        out = classify(basis)
        assert out.dim == basis.dim
        assert (out.traceless, out.abelian, out.label) == loop_classify(basis)

    def test_other_label(self):
        # diagonal span of dimension 2 in u(3): abelian comes first, so craft
        # a non-abelian proper subalgebra instead: su(2) embedded in u(3)
        pad = np.zeros((3, 3), dtype=complex)
        a = pad.copy()
        a[:2, :2] = 1j * SIGMA_Z
        b = pad.copy()
        b[:2, :2] = 1j * SIGMA_X
        out = classify(closure([a, b]))
        assert out.dim == 3
        assert not out.abelian
        assert out.label is AlgebraLabel.OTHER


class TestOracleEquivalence:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_closure_dim_matches_flag_rank(self, seed, n):
        rng = np.random.default_rng(seed)
        gens = [random_skew(rng, n), random_skew(rng, n)]
        assert closure(gens).dim == bracket_flag_rank(gens, RANK_TOL)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 8))
    @settings(max_examples=12, deadline=None)
    def test_real_antisymmetric_matches_flag_rank(self, seed, n):
        # so(n) pairs never reach the n^2 cap: the whole worklist drains.
        rng = np.random.default_rng(seed)
        gens = [real_antisymmetric(rng, n), real_antisymmetric(rng, n)]
        dim = closure(gens).dim
        assert dim == bracket_flag_rank(gens, RANK_TOL)
        assert dim == n * (n - 1) // 2

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), q=st.integers(1, 3))
    @settings(max_examples=12, deadline=None)
    def test_direct_sum_matches_flag_rank(self, seed, p, q):
        rng = np.random.default_rng(seed)
        gens = [scipy.linalg.block_diag(random_skew(rng, p), random_skew(rng, q)) for _ in range(2)]
        dim = closure(gens).dim
        assert dim == bracket_flag_rank(gens, RANK_TOL)
        assert dim < (p + q) ** 2

    @pytest.mark.parametrize("kind", ["so", "u"])
    def test_stacked_basis_orthonormal(self, kind):
        rng = np.random.default_rng(10)
        make = real_antisymmetric if kind == "so" else random_skew
        basis = closure([make(rng, 10), make(rng, 10)])
        assert basis.dim == (45 if kind == "so" else 100)
        gram = np.array([[frobenius_inner(x, y) for y in basis.elements] for x in basis.elements])
        assert np.max(np.abs(gram - np.eye(basis.dim))) <= 1e-12

    @pytest.mark.parametrize("case", ["so4", "so8", "so10", "u3", "u6", "u10", "u2+u3"])
    def test_matches_loop_reference(self, case):
        # Classical Gram-Schmidt twice and the modified loop orthonormalize the
        # same bracket sequence; they differ by rounding, which the bracket
        # chain can amplify (about 2e-12 at u(10)), so entries agree to 1e-9.
        rng = np.random.default_rng(4)
        if case.startswith("so"):
            gens = [real_antisymmetric(rng, int(case[2:])) for _ in range(2)]
        elif case == "u2+u3":
            gens = [scipy.linalg.block_diag(random_skew(rng, 2), random_skew(rng, 3)) for _ in range(2)]
        else:
            gens = [random_skew(rng, int(case[1:])) for _ in range(2)]
        basis = closure(gens)
        elements, words = loop_closure(gens)
        assert basis.provenance == words
        for got, expected in zip(basis.elements, elements):
            assert np.max(np.abs(got - expected)) <= 1e-9

    def test_so6_provenance_words(self):
        # The FIFO worklist fixes which bracket word names each element; only
        # generators bracket, so every word is right-normed.  [g0,[g1,[g0,g1]]]
        # is missing: by Jacobi it equals [g1,[g0,[g0,g1]]], already admitted.
        rng = np.random.default_rng(6)
        gens = [real_antisymmetric(rng, 6), real_antisymmetric(rng, 6)]
        assert closure(gens).provenance == [
            "g0", "g1", "[g0,g1]", "[g0,[g0,g1]]", "[g1,[g0,g1]]", "[g0,[g0,[g0,g1]]]",
            "[g1,[g0,[g0,g1]]]", "[g1,[g1,[g0,g1]]]", "[g0,[g0,[g0,[g0,g1]]]]",
            "[g1,[g0,[g0,[g0,g1]]]]", "[g0,[g1,[g0,[g0,g1]]]]", "[g1,[g1,[g0,[g0,g1]]]]",
            "[g0,[g1,[g1,[g0,g1]]]]", "[g1,[g1,[g1,[g0,g1]]]]",
            "[g0,[g0,[g0,[g0,[g0,g1]]]]]",
        ]


def count_projections(monkeypatch) -> list:
    """Patch the closure's Gram-Schmidt projection to tally its calls; returns the one-item tally."""
    tally, project = [0], reachctl.lie._orthogonal_residual

    def counted(w, Q):
        tally[0] += 1
        return project(w, Q)

    monkeypatch.setattr(reachctl.lie, "_orthogonal_residual", counted)
    return tally


def framed_generators(kind: str, n: int, seed: int) -> list:
    """A generator pair of the given kind, conjugated into a Haar-random unitary frame."""
    rng = np.random.default_rng(seed)
    if kind == "so":
        gens = [real_antisymmetric(rng, n) for _ in range(2)]
    elif kind == "u":
        gens = [random_skew(rng, n) for _ in range(2)]
    elif kind == "sum":
        p = n // 2
        gens = [scipy.linalg.block_diag(random_skew(rng, p), random_skew(rng, n - p)) for _ in range(2)]
    else:
        gens = [np.diag(1j * rng.normal(size=n)) for _ in range(2)]
    U = haar_unitary(rng, n)
    return [U.conj().T @ g @ U for g in gens]


class TestGeneratorOnlyClosure:
    """Closure brackets with the generators only; the result is still closed under all pairs."""

    @pytest.mark.parametrize(
        "kind,n,expected",
        [("so", 5, 10), ("so", 6, 15), ("u", 4, 16), ("u", 5, 25), ("sum", 5, 13), ("torus", 4, 2)],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_closed_under_all_pairs(self, kind, n, expected, seed):
        # The all-pairs definition of a Lie algebra, checked against the
        # generator-only construction.
        basis = closure(framed_generators(kind, n, seed))
        assert basis.dim == expected
        E = basis.elements
        for i in range(basis.dim):
            for W in E[i] @ E[i + 1 :] - E[i + 1 :] @ E[i]:
                assert member(basis, W) <= 1e-9 * max(1.0, np.linalg.norm(W))

    @pytest.mark.parametrize(
        "pattern,admitted", [("A,2A,B", ["g0", "g2"]), ("A,B,A+B", ["g0", "g1"]), ("A,A,A,B", ["g0", "g3"])]
    )
    def test_dependent_generators(self, pattern, admitted, monkeypatch):
        # A rejected generator is not a seed: only admitted generators open
        # brackets, so every word is [g_k,...] with g_k admitted, and the
        # projections stay within len(gens) + s(s-1)/2 + s(dim-s) for s seeds.
        A, B = framed_generators("so", 5, 3)
        gens = [{"A": A, "2A": 2.0 * A, "B": B, "A+B": A + B}[name] for name in pattern.split(",")]
        tally = count_projections(monkeypatch)
        basis = closure(gens)
        assert basis.dim == bracket_flag_rank(gens, RANK_TOL) == 10
        seeds = [word for word in basis.provenance if not word.startswith("[")]
        assert seeds == admitted
        for word in basis.provenance[len(seeds) :]:
            assert word.split(",")[0][1:] in seeds
        s, dim = len(seeds), basis.dim
        assert tally[0] <= len(gens) + s * (s - 1) // 2 + s * (dim - s)

    @pytest.mark.parametrize("n", [10, 16])
    def test_projection_count(self, n, monkeypatch):
        # Two generators, so at most 2 seed projections plus two brackets per
        # element; all pairs took 992 projections at so(10) and 7,142 at so(16).
        tally = count_projections(monkeypatch)
        basis = closure(framed_generators("so", n, 10))
        dim = n * (n - 1) // 2
        assert basis.dim == dim
        assert tally[0] <= 2 + 2 * dim
