import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachctl import (
    ControlSchedule,
    ControlSystem,
    GroupWord,
    StateVector,
    Verdict,
    block_moduli,
    closure,
    commuting_frame,
    conserved_moduli,
    controllability_report,
    matrix_exp,
    moduli_distance_bound,
    propagate,
    sample_orbit,
    tangent_dimension,
)
from reachctl import orbit
from reachctl.lie import AlgebraClass, AlgebraLabel
from reachctl.cli import run
from reachctl.fileio import save_state, save_system
from reachctl.matrices import MAX_ENTRIES, RANK_TOL
from reachctl.orbit import DURATION_SCALE

from helpers import SIGMA_X, SIGMA_Z, haar_unitary, random_skew, random_unit, real_antisymmetric, time_budget


@pytest.fixture
def su2_basis():
    return closure([1j * SIGMA_Z, 1j * SIGMA_X])


class TestTangentDimension:
    def test_su2_fills_the_three_sphere(self, su2_basis, basis_state):
        assert tangent_dimension(su2_basis, basis_state) == 3

    def test_single_generator_line(self, basis_state):
        basis = closure([1j * SIGMA_Z])
        assert tangent_dimension(basis, basis_state) == 1

    def test_annihilating_generator(self, basis_state):
        basis = closure([np.diag([0.0, 1j])])
        assert tangent_dimension(basis, basis_state) == 0

    def test_bounded_by_algebra_and_sphere(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            basis = closure([random_skew(rng, n), random_skew(rng, n)])
            s = StateVector(random_unit(rng, n))
            dim = tangent_dimension(basis, s)
            assert dim <= min(basis.dim, 2 * n - 1)


class TestSampleOrbit:
    def test_zero_length_word_returns_start(self, su2_basis, basis_state):
        s, word = sample_orbit(su2_basis, basis_state, word_length=0)
        assert np.array_equal(s.c, basis_state.c)
        assert word.factors == []

    def test_diagonal_basis_preserves_moduli(self, plus_state):
        basis = closure([np.diag([1j, 1j * np.sqrt(2.0)])])
        s, _ = sample_orbit(basis, plus_state, word_length=5, seed=3)
        assert np.allclose(np.abs(s.c), np.abs(plus_state.c), atol=1e-12)

    def test_reproducible_bit_for_bit(self, su2_basis, basis_state):
        s1, w1 = sample_orbit(su2_basis, basis_state, word_length=6, seed=42)
        s2, w2 = sample_orbit(su2_basis, basis_state, word_length=6, seed=42)
        assert np.array_equal(s1.c, s2.c)
        assert len(w1.factors) == len(w2.factors) == 6
        for (x1, t1), (x2, t2) in zip(w1.factors, w2.factors):
            assert np.array_equal(x1, x2)
            assert t1 == t2

    def test_word_replays_to_same_state(self, su2_basis, basis_state):
        s, word = sample_orbit(su2_basis, basis_state, word_length=6, seed=42)
        assert np.array_equal(word.apply(basis_state).c, s.c)

    def test_durations_within_scale(self, su2_basis, basis_state):
        _, word = sample_orbit(su2_basis, basis_state, word_length=20, seed=1)
        assert all(abs(t) <= DURATION_SCALE for _, t in word.factors)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_orbit_dimension_invariant_along_orbit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        basis = closure([sys.A, sys.B])
        s0 = StateVector(random_unit(rng, n))
        base_dim = tangent_dimension(basis, s0)
        s, _ = sample_orbit(basis, s0, word_length=4, seed=seed)
        assert tangent_dimension(basis, s) == base_dim


    @pytest.mark.parametrize("name, bad", [
        *(("word_length", bad) for bad in (-1, 2.0, True, None, "3")),
        *(("seed", bad) for bad in (-1, 2.0, True, None)),
    ])
    def test_count_diagnostic_names_it(self, su2_basis, basis_state, name, bad):
        kwargs = {"word_length": 3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {bad!r}$"):
            sample_orbit(su2_basis, basis_state, **kwargs)

    def test_word_past_the_entries_limit_is_refused(self, su2_basis, basis_state):
        # one 2 x 2 factor per letter: a word of MAX_ENTRIES // 4 letters is the longest
        with time_budget(5), pytest.raises(ValueError, match="^word_length is too large: it asks for more than"):
            sample_orbit(su2_basis, basis_state, MAX_ENTRIES // 4 + 1)


@pytest.mark.parametrize("entry, what", [
    (lambda sys, s: tangent_dimension(closure([sys.A, sys.B]), s), "basis"),
    (lambda sys, s: sample_orbit(closure([sys.A, sys.B]), s, word_length=3), "basis"),
    (controllability_report, "system"),
], ids=["tangent_dimension", "sample_orbit", "controllability_report"])
def test_dimension_diagnostic_names_both(entry, what, su2_system):
    wide = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match=f"^{what} dimension 2 does not match state dimension 3$"):
        entry(su2_system, wide)


class TestGroupWord:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_stacked_apply_matches_matrix_exp_loop(self, n):
        rng = np.random.default_rng(n)
        basis = closure([random_skew(rng, n), random_skew(rng, n)])
        s0 = StateVector(random_unit(rng, n))
        picks = rng.integers(basis.dim, size=9)
        durations = rng.uniform(-2.0, 2.0, 9)
        durations[[2, 5]] = 0.0  # matrix_exp returns the exact identity at t = 0
        word = GroupWord([(basis.elements[k], float(t)) for k, t in zip(picks, durations)])
        c = s0.c
        for X, t in word.factors:
            c = matrix_exp(X, t) @ c
        assert np.array_equal(word.apply(s0).c, StateVector.normalized(c).c)


class TestCommutingFrame:
    def test_non_commuting_gives_none(self, su2_system):
        assert commuting_frame(su2_system) is None
        assert conserved_moduli(su2_system) is None

    def test_torus_blocks_are_singletons(self, torus_system):
        frame = commuting_frame(torus_system)
        assert frame is not None
        assert frame.blocks == [[0], [1]]
        assert conserved_moduli(torus_system) == [[0], [1]]

    def test_degenerate_block_grouping(self):
        # one shared eigenvalue pair of multiplicity two and one singleton
        sys = ControlSystem(np.diag([1j, 1j, 2j]), np.diag([3j, 3j, 1j]))
        frame = commuting_frame(sys)
        assert frame is not None
        # descending drift sort puts the lambda = 2 singleton first
        assert frame.blocks == [[0], [1, 2]]
        assert np.allclose(frame.lambdas_a, [2.0, 1.0, 1.0])
        assert np.allclose(frame.lambdas_b, [1.0, 3.0, 3.0])

    def test_frame_jointly_diagonalizes(self):
        sys = ControlSystem(np.diag([1j, 1j, 2j]), np.diag([3j, 3j, 1j]))
        frame = commuting_frame(sys)
        Da = frame.U.conj().T @ sys.A @ frame.U
        Db = frame.U.conj().T @ sys.B @ frame.U
        assert np.max(np.abs(Da - np.diag(1j * frame.lambdas_a))) <= 1e-9
        assert np.max(np.abs(Db - np.diag(1j * frame.lambdas_b))) <= 1e-9

    def test_degenerate_drift_with_mixing_control(self):
        # drift is scalar on a 2-d eigenspace; control picks the joint basis
        A = np.diag([1j, 1j])
        B = 1j * SIGMA_X
        frame = commuting_frame(ControlSystem(A, B))
        assert frame is not None
        assert frame.blocks == [[0], [1]]
        assert np.allclose(sorted(frame.lambdas_b), [-1.0, 1.0])


    @pytest.mark.parametrize("kind, closures", [("su2", 0), ("u3", 0), ("so4", 1), ("torus2", 1)])
    def test_closure_only_when_uncertified(self, kind, closures, monkeypatch):
        # A pair the transition graph certifies as u(n) or su(n) does not commute: no closure is needed.
        calls = _count_calls(monkeypatch, "closure")
        sys = ControlSystem(*_fixed_pair(kind)[:2])
        assert (commuting_frame(sys) is None) == (kind != "torus2")
        assert calls == {"closure": closures}


class TestModuli:
    def test_block_moduli_conserved_under_any_schedule(self, torus_system, plus_state):
        frame = commuting_frame(torus_system)
        m0 = block_moduli(frame, plus_state)
        rng = np.random.default_rng(12)
        for _ in range(20):
            sched = ControlSchedule(rng.uniform(0.1, 3.0, 8), rng.uniform(-2.0, 2.0, 8))
            traj = propagate(torus_system, plus_state, sched, samples_per_segment=2)
            for i in range(traj.times.size):
                m = block_moduli(frame, StateVector.normalized(traj.states[i]))
                assert np.max(np.abs(m - m0)) <= 1e-9

    def test_degenerate_block_moduli_conserved(self):
        sys = ControlSystem(np.diag([1j, 1j, 2j]), np.diag([3j, 3j, 1j]))
        frame = commuting_frame(sys)
        s0 = StateVector.normalized(np.array([1.0, 1j, 1.0], dtype=complex))
        m0 = block_moduli(frame, s0)
        rng = np.random.default_rng(30)
        for _ in range(20):
            sched = ControlSchedule(rng.uniform(0.1, 3.0, 8), rng.uniform(-2.0, 2.0, 8))
            final = propagate(sys, s0, sched).final_state
            assert np.max(np.abs(block_moduli(frame, final) - m0)) <= 1e-9

    def test_distance_bound_for_moduli_violating_target(self, torus_system, plus_state):
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        bound = moduli_distance_bound(torus_system, plus_state, target)
        assert bound == pytest.approx(1.0 - 1.0 / np.sqrt(2.0), rel=1e-12)

    def test_distance_bound_zero_when_not_commuting(self, su2_system, basis_state, plus_state):
        assert moduli_distance_bound(su2_system, basis_state, plus_state) == 0.0

    def test_distance_bound_zero_on_orbit(self, torus_system, plus_state):
        # same moduli, different phases: the bound cannot see phase motion
        target = StateVector(np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0))
        assert moduli_distance_bound(torus_system, plus_state, target) <= 1e-15

    @pytest.mark.parametrize("system", ["su2_system", "torus_system"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_distance_bound_names_mismatched_dimensions(self, system, swap, request, basis_state):
        # su(2) is not abelian, so without the check this returned a floor of 0.0
        sys = request.getfixturevalue(system)
        third = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
        states = (third, basis_state) if swap else (basis_state, third)
        with pytest.raises(ValueError, match="system dimension 2 does not match state dimension 3"):
            moduli_distance_bound(sys, *states)

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_block_moduli_names_mismatched_dimensions(self, n, m, torus_system):
        sys = torus_system if n == 2 else ControlSystem(*_fixed_pair("triple")[:2])
        state = StateVector.normalized(np.ones(m, dtype=complex))
        with pytest.raises(ValueError, match=f"frame dimension {n} does not match state dimension {m}"):
            block_moduli(commuting_frame(sys), state)


def _joint_runs(a, b) -> list:
    """Index runs of equal (a_k, b_k) pairs once the pairs are sorted by (-a, -b)."""
    pairs = sorted(zip(a.tolist(), b.tolist()), key=lambda p: (-p[0], -p[1]))
    runs = []
    for k, pair in enumerate(pairs):
        if k and pair == pairs[k - 1]:
            runs[-1].append(k)
        else:
            runs.append([k])
    return runs


class TestRandomFrameOracle:
    """Commuting pairs W diag(i a) W^dagger, W diag(i b) W^dagger: the moduli are the runs of equal (a_k, b_k)."""

    @pytest.mark.parametrize("family", ["integer", "torus"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_moduli_and_frame(self, family, n):
        rng = np.random.default_rng([n, 19, family == "torus"])
        for _ in range(4):
            if family == "integer":
                a, b = rng.integers(-2, 3, size=(2, n)).astype(float)
            else:
                a = rng.permutation(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0][:n]))
                b = 2.0 * a
            W = haar_unitary(rng, n)
            sys = ControlSystem(W @ np.diag(1j * a) @ W.conj().T, W @ np.diag(1j * b) @ W.conj().T)
            assert conserved_moduli(sys) == _joint_runs(a, b)
            frame = commuting_frame(sys)
            for M, lambdas in ((sys.A, frame.lambdas_a), (sys.B, frame.lambdas_b)):
                assert np.max(np.abs(frame.U.conj().T @ M @ frame.U - np.diag(1j * lambdas))) <= 1e-9


class TestControllabilityReport:
    @pytest.mark.parametrize("kind", ["torus2", "triple_frame", "su2"])
    def test_one_closure_and_one_classify(self, kind, monkeypatch):
        # The report decides commutation from its own closure, and the moduli reuse that verdict;
        # su(2) is certified from the drift's transition graph and needs neither.
        calls = _count_calls(monkeypatch, "closure", "classify")
        A, B, c = _fixed_pair(kind)
        rep = controllability_report(ControlSystem(A, B), StateVector(c))
        once = {"closure": 1, "classify": 1}
        assert calls == {"torus2": once, "triple_frame": once, "su2": {"closure": 0, "classify": 0}}[kind]
        assert rep.conserved_moduli == {"torus2": [[0], [1]], "triple_frame": [[0], [1, 2]], "su2": None}[kind]

    def test_su2_is_operator_controllable(self, su2_system, basis_state):
        rep = controllability_report(su2_system, basis_state)
        assert rep.algebra_dim == 3
        assert rep.orbit_dim == 3
        assert rep.sphere_dim == 3
        assert rep.verdict is Verdict.OPERATOR_CONTROLLABLE
        assert rep.conserved_moduli is None

    def test_torus_is_restricted_with_moduli(self, torus_system, plus_state):
        rep = controllability_report(torus_system, plus_state)
        assert rep.algebra_dim == 1
        assert rep.orbit_dim == 1
        assert rep.verdict is Verdict.RESTRICTED
        assert rep.conserved_moduli == [[0], [1]]
        assert "no compactness" in rep.summary

    def test_zero_control_is_restricted(self):
        sys = ControlSystem(1j * SIGMA_Z, np.zeros((2, 2)))
        rep = controllability_report(sys, StateVector(np.array([1.0, 0.0], dtype=complex)))
        assert rep.algebra_dim == 1
        assert rep.verdict is Verdict.RESTRICTED
        assert rep.conserved_moduli is not None

    def test_state_without_operator_controllability(self):
        # sp(1) = su(2) embedded in u(2) is the smallest case where the
        # algebra is a proper subalgebra yet acts transitively; scale one
        # generator so the pair generates exactly the embedded su(2) copy
        rep_dims = controllability_report(
            ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X),
            StateVector(np.array([1.0, 0.0], dtype=complex)),
        )
        assert rep_dims.verdict is Verdict.OPERATOR_CONTROLLABLE

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_report_invariants(self, seed, n):
        rng = np.random.default_rng(seed)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        rep = controllability_report(sys, s0)
        assert rep.orbit_dim <= min(rep.algebra_dim, rep.sphere_dim)
        if rep.verdict is Verdict.STATE_CONTROLLABLE:
            assert rep.orbit_dim == rep.sphere_dim
        if rep.verdict is Verdict.OPERATOR_CONTROLLABLE:
            # operator controllability implies state controllability
            assert rep.orbit_dim == rep.sphere_dim
        if rep.verdict is Verdict.RESTRICTED:
            assert rep.conserved_moduli == conserved_moduli(sys)
        # the generated algebra alone decides whether the pair commutes
        assert (conserved_moduli(sys) is None) == (not rep.algebra_class.abelian)
        if rep.verdict is not Verdict.RESTRICTED:
            assert rep.conserved_moduli is None

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-6])
    def test_near_parallel_pair_reports_no_moduli(self, eps, basis_state, plus_state):
        # |[A, B]| is below 1e-11 |A| |B|, yet the orthonormalized closure
        # resolves all of u(2), so no modulus is conserved and no floor exists
        A = 1j * np.diag([1.0, 1.0 + 1e-8])
        B = A + eps * 1j * SIGMA_X
        sys = ControlSystem(A, B)
        rep = controllability_report(sys, basis_state)
        assert rep.verdict is Verdict.OPERATOR_CONTROLLABLE
        assert rep.algebra_dim == 4
        assert not rep.algebra_class.abelian
        assert rep.conserved_moduli is None
        assert conserved_moduli(sys) is None
        # the same control system written three ways: (A, B), (A - B, B), (A, -B)
        for pair in ((A, B), (A - B, B), (A, -B)):
            assert moduli_distance_bound(ControlSystem(*pair), plus_state, basis_state) == 0.0


def _count_calls(monkeypatch, *names) -> dict:
    """Patch the ``orbit`` module's ``names`` to tally their calls; returns the live tally."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _inner=getattr(orbit, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(orbit, name, counted)
    return calls


def _random_pair(rng: np.random.Generator, kind: str, n: int) -> tuple:
    if kind == "generic":
        return random_skew(rng, n), random_skew(rng, n)
    if kind == "so":
        return real_antisymmetric(rng, n), real_antisymmetric(rng, n)
    return np.diag(1j * rng.normal(size=n)), np.diag(1j * rng.normal(size=n))


def _decisions(A: np.ndarray, B: np.ndarray, c: np.ndarray) -> tuple:
    rep = controllability_report(ControlSystem(A, B), StateVector(c))
    label, abelian = rep.algebra_class.label, rep.algebra_class.abelian
    return rep.algebra_dim, label, abelian, rep.orbit_dim, rep.verdict, rep.conserved_moduli


def _fixed_pair(kind: str) -> tuple:
    rng = np.random.default_rng(7)
    if kind == "su2":
        return 1j * SIGMA_Z, 1j * SIGMA_X, np.array([1.0, 0.0], dtype=complex)
    if kind in ("u3", "u6"):
        n = int(kind[1])
        return random_skew(rng, n), random_skew(rng, n), random_unit(rng, n)
    if kind == "so4":
        return real_antisymmetric(rng, 4), real_antisymmetric(rng, 4), random_unit(rng, 4)
    if kind == "torus2":
        A = np.diag([1j, 1j * np.sqrt(2.0)])
        return A, 2.0 * A, np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    # a degenerate commuting triple: one joint block of multiplicity two
    A, B, c = np.diag([2j, 1j, 1j]), np.diag([1j, 3j, 3j]), np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)
    if kind == "triple_frame":  # the same triple in a fixed non-diagonal unitary frame
        W = haar_unitary(rng, 3)
        return W @ A @ W.conj().T, W @ B @ W.conj().T, W @ c
    return A, B, c


# Down to 1e-300 and up to 1e300, where a squared entry under- or overflows.
SCALES = [-300, -200, -160, *range(-12, 13, 3), 155, 200, 300]


class TestMetamorphic:
    """Rank decisions are properties of the system, not of its coordinates or units."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        kind=st.sampled_from(["generic", "so", "torus"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_unitary_change_of_basis(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        A, B = _random_pair(rng, kind, n)
        c = random_unit(rng, n)
        W = haar_unitary(rng, n)
        rotated = _decisions(W @ A @ W.conj().T, W @ B @ W.conj().T, W @ c)
        assert rotated == _decisions(A, B, c)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        kind=st.sampled_from(["generic", "so", "torus"]),
        log_a=st.floats(-12.0, 12.0),
        log_b=st.floats(-12.0, 12.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_positive_rescaling(self, seed, n, kind, log_a, log_b):
        rng = np.random.default_rng(seed)
        A, B = _random_pair(rng, kind, n)
        c = random_unit(rng, n)
        assert _decisions(10.0**log_a * A, 10.0**log_b * B, c) == _decisions(A, B, c)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        kind=st.sampled_from(["generic", "so", "torus"]),
        beta=st.floats(-3.0, 3.0),
        log_g=st.floats(-2.0, 2.0),
        negate=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_control_shift(self, seed, n, kind, beta, log_g, negate):
        # (A, B) -> (A + beta B, gamma B) leaves the family {A + eps B}, and so
        # the reachable set, unchanged.  The moduli's indices name the shifted
        # drift's eigenbasis, so only their sorted block sizes are compared.
        rng = np.random.default_rng(seed)
        A, B = _random_pair(rng, kind, n)
        c, t = random_unit(rng, n), random_unit(rng, n)
        gamma = (-1.0 if negate else 1.0) * 10.0**log_g
        views = []
        for sys in (ControlSystem(A, B), ControlSystem(A + beta * B, gamma * B)):
            dims, moduli = _decisions(sys.A, sys.B, c)[:-1], conserved_moduli(sys)
            sizes = None if moduli is None else sorted(len(block) for block in moduli)
            views.append((dims, sizes, moduli_distance_bound(sys, StateVector(c), StateVector(t))))
        (dims, sizes, bound), (shifted_dims, shifted_sizes, shifted_bound) = views
        assert shifted_dims == dims
        assert shifted_sizes == sizes
        assert shifted_bound == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("kind", ["su2", "u3", "u6", "so4", "torus2", "triple"])
    @pytest.mark.parametrize("log_s", SCALES)
    def test_report_is_the_same_at_every_scale(self, kind, log_s):
        A, B, c = _fixed_pair(kind)
        assert _decisions(10.0**log_s * A, 10.0**log_s * B, c) == _decisions(A, B, c)


def _by_closure(sys: ControlSystem, s0: StateVector, monkeypatch) -> orbit.ControllabilityReport:
    """The report with the transition-graph certificate switched off, so that closure decides."""
    with monkeypatch.context() as patch:
        patch.setattr(orbit, "_unitary_class", lambda sys: None)
        return controllability_report(sys, s0)


def _traceless(X: np.ndarray) -> np.ndarray:
    return X - np.trace(X) / len(X) * np.eye(len(X))


def _ladder(n: int) -> tuple:
    """Equally spaced drift levels coupled by a harmonic-oscillator position operator."""
    a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    return np.diag(1j * np.arange(float(n))), 1j * (a + a.T)


def _direct_sum(rng: np.random.Generator) -> tuple:
    """A generic u(2) and a generic u(3) pair side by side, in a random frame."""
    W = haar_unitary(rng, 5)
    blocks = [(random_skew(rng, m), random_skew(rng, m)) for m in (2, 3)]
    A, B = (np.block([[X, np.zeros((2, 3))], [np.zeros((3, 2)), Y]]) for X, Y in zip(*blocks))
    return W @ A @ W.conj().T, W @ B @ W.conj().T


class TestUnitaryCertificate:
    """u(n) or su(n) certified from the drift's transition graph, with closure deciding everything else."""

    @pytest.mark.parametrize("traceless", [False, True], ids=["complex", "traceless"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_report_equals_closure(self, n, traceless, monkeypatch):
        rng = np.random.default_rng([n, 29])
        A, B = random_skew(rng, n), random_skew(rng, n)
        if traceless:
            A, B = _traceless(A), _traceless(B)
        sys, s0 = ControlSystem(A, B), StateVector(random_unit(rng, n))
        certified = orbit._unitary_class(sys)
        assert certified is not None
        assert certified.label is (AlgebraLabel.SPECIAL_UNITARY if traceless else AlgebraLabel.FULL_UNITARY)
        assert controllability_report(sys, s0) == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("kind", ["so3", "so4", "so7", "torus", "direct_sum", "ladder", "spin1"])
    def test_never_certified(self, kind):
        rng = np.random.default_rng(31)
        if kind.startswith("so"):  # the gaps come in +- pairs
            pair = _random_pair(rng, "so", int(kind[2:]))
        elif kind == "torus":  # no coupling at all
            pair = _random_pair(rng, "torus", 5)
        elif kind == "direct_sum":  # no coupling between the blocks
            pair = _direct_sum(rng)
        elif kind == "ladder":  # equal gaps
            pair = _ladder(5)
        else:  # spin 1: levels 1, 0, -1 have equal gaps
            jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / np.sqrt(2.0)
            pair = np.diag([1j, 0, -1j]), 1j * jx
        assert orbit._unitary_class(ControlSystem(*pair)) is None

    @pytest.mark.parametrize("coupling, certified", [(1e-3, True), (10 * RANK_TOL, False), (0.0, False)])
    def test_faint_coupling_falls_back(self, coupling, certified, monkeypatch):
        # Gaps 1, 1.5 and 2.5; level 2 hangs on level 1 by one coupling, inside the fragile band at
        # 10 RANK_TOL of the largest.
        A = np.diag([0.0, 1j, 2.5j])
        B = np.array([[0, 1, 0], [-1, 0, coupling], [0, -coupling, 0]], dtype=complex)
        sys, s0 = ControlSystem(A, B), StateVector.normalized(np.ones(3, dtype=complex))
        calls = _count_calls(monkeypatch, "closure")
        rep = controllability_report(sys, s0)
        assert calls == {"closure": 0 if certified else 1}
        assert rep == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("share, label", [
        (1e-14, AlgebraLabel.SPECIAL_UNITARY),
        (10 * RANK_TOL, None),
        (1e-6, AlgebraLabel.FULL_UNITARY),
    ], ids=["zero", "fragile", "nonzero"])
    @pytest.mark.parametrize("which", ["A", "B"])
    def test_trace_in_the_fragile_band_falls_back(self, share, label, which, monkeypatch):
        # A trace of ``share`` times its generator's norm: clearly zero, inside the band, clearly not.
        rng = np.random.default_rng(33)
        pair = {"A": _traceless(random_skew(rng, 4)), "B": _traceless(random_skew(rng, 4))}
        M = pair[which]
        pair[which] = M + 1j * share * np.linalg.norm(M) / 4 * np.eye(4)
        sys, s0 = ControlSystem(pair["A"], pair["B"]), StateVector(random_unit(rng, 4))
        certified = orbit._unitary_class(sys)
        assert (certified and certified.label) == label
        assert controllability_report(sys, s0) == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("log_s", SCALES)
    def test_u6_is_certified_at_every_scale_in_any_frame(self, log_s):
        A, B, _ = _fixed_pair("u6")
        W = haar_unitary(np.random.default_rng(6), 6)
        u6 = AlgebraClass(dim=36, traceless=False, abelian=False, label=AlgebraLabel.FULL_UNITARY)
        for X, Y in ((A, B), (W @ A @ W.conj().T, W @ B @ W.conj().T)):
            assert orbit._unitary_class(ControlSystem(10.0**log_s * X, 10.0**log_s * Y)) == u6

    def test_generic_u64_analyze_is_fast(self, tmp_path):
        # Closure would build a 4096-element basis here; the certificate takes one 64 x 64 eigh.
        rng = np.random.default_rng(64)
        sys_path, state_path, out = tmp_path / "u64.json", tmp_path / "state.json", tmp_path / "report.json"
        save_system(ControlSystem(random_skew(rng, 64), random_skew(rng, 64)), sys_path)
        save_state(StateVector(random_unit(rng, 64)), state_path)
        with time_budget(2):
            assert run(["analyze", "--system", str(sys_path), "--state", str(state_path), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert (result["algebra_dim"], result["orbit_dim"], result["verdict"]) == (4096, 127, "OPERATOR_CONTROLLABLE")
