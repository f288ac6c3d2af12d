import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachctl import (
    ControlSchedule,
    ControlSystem,
    StateVector,
    Verdict,
    block_moduli,
    closure,
    commuting_frame,
    conserved_moduli,
    controllability_report,
    moduli_distance_bound,
    propagate,
    sample_orbit,
    tangent_dimension,
)
from reachctl import orbit
from reachctl.lie import AlgebraClass, AlgebraLabel
from reachctl.cli import run
from reachctl.fileio import load_state, load_system, save_state, save_system
from reachctl.matrices import MAX_ENTRIES, RANK_TOL
from reachctl.dynamics import forward_pass
from reachctl.orbit import DURATION_SCALE

from helpers import SIGMA_X, SIGMA_Z, haar_unitary, random_skew, random_unit, real_antisymmetric, time_budget
from oracles import word_state


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
    def test_zero_length_word_returns_start(self, su2_system, basis_state):
        s, word = sample_orbit(su2_system, basis_state, word_length=0)
        assert s is basis_state
        assert word.shape == (0, 2)

    def test_diagonal_basis_preserves_moduli(self, torus_system, plus_state):
        # Every flow of a commuting pair is diagonal in the joint frame: a target keeps c0's block moduli,
        # on the diagonal torus and on a pair in a random frame with a two-level joint eigenspace.
        s, _ = sample_orbit(torus_system, plus_state, word_length=5, seed=3)
        assert np.allclose(np.abs(s.c), np.abs(plus_state.c), atol=1e-12)
        rng = np.random.default_rng(5)
        W = haar_unitary(rng, 4)
        A, B = (W @ np.diag(1j * np.array(levels)) @ W.conj().T
                for levels in ([1.0, 1.0, np.sqrt(2.0), -0.3], [0.5, 0.5, -1.0, 2.0]))
        sys, s0 = ControlSystem(A, B), StateVector(random_unit(rng, 4))
        frame = commuting_frame(sys)
        assert sorted(map(len, frame.blocks)) == [1, 1, 2]
        for seed in range(5):
            s, _ = sample_orbit(sys, s0, word_length=6, seed=seed)
            assert np.allclose(block_moduli(frame, s), block_moduli(frame, s0), atol=1e-12)

    def test_reproducible_bit_for_bit(self, su2_system, basis_state):
        s1, w1 = sample_orbit(su2_system, basis_state, word_length=6, seed=42)
        s2, w2 = sample_orbit(su2_system, basis_state, word_length=6, seed=42)
        assert np.array_equal(s1.c, s2.c)
        assert w1.shape == (6, 2)
        assert np.array_equal(w1, w2)

    def test_word_replays_to_same_state(self, su2_system, basis_state):
        # The word is the seed's one draw, scaled, and the state is its last end through the one carry.
        s, word = sample_orbit(su2_system, basis_state, word_length=6, seed=42)
        draw = np.random.default_rng(42).uniform(-1.0, 1.0, (6, 2))
        assert np.array_equal(word[:, 0], draw[:, 0])
        assert np.array_equal(word[:, 1], DURATION_SCALE * draw[:, 1])
        end = forward_pass(su2_system, word[:, 1], word[:, 0], basis_state.c)[3][-1]
        assert np.array_equal(s.c, StateVector.normalized(end).c)

    def test_durations_within_scale(self, su2_system, basis_state):
        _, word = sample_orbit(su2_system, basis_state, word_length=20, seed=1)
        assert np.all(np.abs(word[:, 0]) <= 1.0)
        assert np.all(np.abs(word[:, 1]) <= DURATION_SCALE)
        assert np.any(word[:, 1] < 0.0) and np.any(word[:, 1] > 0.0)  # flows of both signs

    @pytest.mark.parametrize("n", range(2, 7))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_expm_word_oracle(self, n, seed):
        rng = np.random.default_rng([n, seed])
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        word_length = int(rng.integers(1, 9))
        s, word = sample_orbit(sys, s0, word_length, seed=seed)
        assert word.shape == (word_length, 2)
        assert np.max(np.abs(s.c - word_state(sys, s0, word))) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_orbit_dimension_invariant_along_orbit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        basis = closure([sys.A, sys.B])
        s0 = StateVector(random_unit(rng, n))
        base_dim = tangent_dimension(basis, s0)
        s, _ = sample_orbit(sys, s0, word_length=4, seed=seed)
        assert tangent_dimension(basis, s) == base_dim

    def test_overflowing_flow_raises_one_diagnostic(self, basis_state):
        # su(2) at 1e308: the phase of some factor overflows; the error names it, and numpy warns of nothing.
        sys = ControlSystem(1e308j * SIGMA_Z, 1e308j * SIGMA_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^orbit word factor (\d+): the flow over duration \S+ at control "
                                                 r"value \S+ overflows double precision$") as err:
                sample_orbit(sys, basis_state, word_length=6, seed=7)
        k = int(err.value.args[0].split()[3].rstrip(":"))
        _, word = sample_orbit(ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X), basis_state, word_length=6, seed=7)
        with np.errstate(over="ignore"):
            phases = 1e308 * np.hypot(1.0, word[:, 0]) * np.abs(word[:, 1])  # the eigenfrequencies are +-|(1, u)|
        assert k == int(np.argmax(~np.isfinite(phases)))

    @pytest.mark.parametrize("name, bad", [
        *(("word_length", bad) for bad in (-1, 2.0, True, None, "3")),
        *(("seed", bad) for bad in (-1, 2.0, True, None)),
    ])
    def test_count_diagnostic_names_it(self, su2_system, basis_state, name, bad):
        kwargs = {"word_length": 3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got {bad!r}$"):
            sample_orbit(su2_system, basis_state, **kwargs)

    def test_word_past_the_entries_limit_is_refused(self, su2_system, basis_state):
        # one 2 x 2 eigenbasis per factor: a word of MAX_ENTRIES // 4 factors is the longest
        with time_budget(5), pytest.raises(ValueError, match="^word_length is too large: it asks for more than"):
            sample_orbit(su2_system, basis_state, MAX_ENTRIES // 4 + 1)


@pytest.mark.parametrize("entry, what", [
    (lambda sys, s: tangent_dimension(closure([sys.A, sys.B]), s), "basis"),
    (lambda sys, s: sample_orbit(sys, s, word_length=3), "system"),
    (controllability_report, "system"),
], ids=["tangent_dimension", "sample_orbit", "controllability_report"])
def test_dimension_diagnostic_names_both(entry, what, su2_system):
    wide = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match=f"^{what} dimension 2 does not match state dimension 3$"):
        entry(su2_system, wide)


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


    @pytest.mark.parametrize("kind, closures", [("su2", 0), ("u3", 0), ("so4", 0), ("so4u1", 0), ("torus2", 1)])
    def test_closure_only_when_uncertified(self, kind, closures, monkeypatch):
        # A pair whose unit-scaled commutator is clearly nonzero, certified or not, does not commute: no closure
        # is needed.  Only a pair that may commute pays one.
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
    @pytest.mark.parametrize("kind", ["torus2", "triple_frame", "su2", "so4"])
    def test_one_closure_and_one_classify(self, kind, monkeypatch):
        # The report decides commutation from its own closure, and the moduli reuse that verdict;
        # su(2) and so(4) are certified from the drift frame and need neither.
        calls = _count_calls(monkeypatch, "closure", "classify")
        A, B, c = _fixed_pair(kind)
        rep = controllability_report(ControlSystem(A, B), StateVector(c))
        once, none = {"closure": 1, "classify": 1}, {"closure": 0, "classify": 0}
        assert calls == {"torus2": once, "triple_frame": once, "su2": none, "so4": none}[kind]
        moduli = {"torus2": [[0], [1]], "triple_frame": [[0], [1, 2]], "su2": None, "so4": None}
        assert rep.conserved_moduli == moduli[kind]

    @pytest.mark.parametrize("case", ["torus2", "torus8", "triple_frame"])
    def test_one_eigh_of_the_drift(self, case, monkeypatch):
        # The failed certificate and the moduli read one drift frame: one n x n eigh in all, beside the joint frame's
        # smaller per-cluster eighs.
        golden = Path(__file__).parent / "golden"
        sys, s0 = load_system(golden / f"{case}.system.json"), load_state(golden / f"{case}.state.json")
        shapes, eigh = [], np.linalg.eigh

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        assert controllability_report(sys, s0).conserved_moduli is not None
        assert sum(int(np.prod(shape[:-2])) for shape in shapes if shape[-2:] == (sys.n, sys.n)) == 1

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
    if kind in ("so4", "so7"):
        n = int(kind[2])
        return real_antisymmetric(rng, n), real_antisymmetric(rng, n), random_unit(rng, n)
    if kind == "so4u1":  # so(4) + u(1): the drift's spectrum is shifted off its mirror symmetry
        return real_antisymmetric(rng, 4) + 0.7j * np.eye(4), real_antisymmetric(rng, 4), random_unit(rng, 4)
    if kind == "sp3":  # sp(3) on C^6, in a random frame
        W = haar_unitary(rng, 6)
        A, B = (W @ _symplectic(rng, 6) @ W.conj().T for _ in range(2))
        return A, B, random_unit(rng, 6)
    if kind == "collide":  # levels 0, 1, 2 equally spaced in a random frame: only the per-edge rule certifies it
        W = haar_unitary(rng, 4)
        return W @ np.diag([0.0, 1j, 2j, 0.3j]) @ W.conj().T, random_skew(rng, 4), random_unit(rng, 4)
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

    @pytest.mark.parametrize("kind", ["su2", "u3", "u6", "so4", "so7", "sp3", "torus2", "triple", "collide"])
    @pytest.mark.parametrize("log_s", SCALES)
    def test_report_is_the_same_at_every_scale(self, kind, log_s):
        A, B, c = _fixed_pair(kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _decisions(10.0**log_s * A, 10.0**log_s * B, c) == _decisions(A, B, c)


def _by_closure(sys: ControlSystem, s0: StateVector, monkeypatch) -> orbit.ControllabilityReport:
    """The report with the drift-frame certificates switched off, so that closure decides."""
    with monkeypatch.context() as patch:
        patch.setattr(orbit, "_unitary_class", lambda sys, frame: None)
        patch.setattr(orbit, "_real_class", lambda frame: None)
        return controllability_report(sys, s0)


def _frame(sys: ControlSystem) -> tuple:
    """The drift frame that the report builds for ``sys``, as the certificate reads it."""
    return orbit._generated_algebra(sys)[0]


def _colliding(rng: np.random.Generator, n: int) -> tuple:
    """A generic pair whose drift levels 0, 1, 2 are equally spaced, and from n = 6 on levels 4, 5 a gap as wide, in
    a random frame: the rule that every gap be distinct refuses it, while the remaining edges connect every level."""
    w = rng.normal(size=n)
    w[2] = 2.0 * w[1] - w[0]
    if n > 5:
        w[5] = w[4] + w[1] - w[0]
    W = haar_unitary(rng, n)
    return W @ np.diag(1j * w) @ W.conj().T, random_skew(rng, n)


def _quaternionic(Y: np.ndarray) -> np.ndarray:
    """The sp(n/2) part of a skew-Hermitian ``Y``: the part that commutes with ``J = Omega K``, K complex
    conjugation and ``Omega = [[0, I], [-I, 0]]``, so ``J^2 = -1``."""
    m = len(Y) // 2
    omega = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    return 0.5 * (Y + omega @ Y.conj() @ omega.T)


def _symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """A dense random sp(n/2) element."""
    return _quaternionic(random_skew(rng, n))


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
        certified = orbit._unitary_class(sys, _frame(sys))
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
        sys = ControlSystem(*pair)
        assert orbit._unitary_class(sys, _frame(sys)) is None

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
        certified = orbit._unitary_class(sys, _frame(sys))
        assert (certified and certified.label) == label
        assert controllability_report(sys, s0) == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("log_s", SCALES)
    def test_u6_is_certified_at_every_scale_in_any_frame(self, log_s):
        A, B, _ = _fixed_pair("u6")
        W = haar_unitary(np.random.default_rng(6), 6)
        u6 = AlgebraClass(dim=36, traceless=False, abelian=False, label=AlgebraLabel.FULL_UNITARY)
        for X, Y in ((A, B), (W @ A @ W.conj().T, W @ B @ W.conj().T)):
            sys = ControlSystem(10.0**log_s * X, 10.0**log_s * Y)
            assert orbit._unitary_class(sys, _frame(sys)) == u6

    @pytest.mark.parametrize("n", range(4, 11))
    def test_colliding_gaps_report_equals_closure(self, n, monkeypatch):
        rng = np.random.default_rng([n, 17])
        sys, s0 = ControlSystem(*_colliding(rng, n)), StateVector(random_unit(rng, n))
        omega = _frame(sys)[0]
        gaps = np.sort((omega[:, None] - omega)[np.triu_indices(n, 1)])
        assert np.min(np.diff(gaps)) <= RANK_TOL * np.max(np.abs(omega))  # two gaps collide
        calls = _count_calls(monkeypatch, "closure")
        rep = controllability_report(sys, s0)
        assert calls == {"closure": 0}
        assert rep.algebra_class.label is AlgebraLabel.FULL_UNITARY
        assert rep == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("linked", [False, True], ids=["colliding-only", "also-distinct"])
    def test_level_linked_only_at_a_colliding_gap_falls_back(self, linked, monkeypatch):
        # Levels 0, 1, 2 are equally spaced, so edges (0, 1) and (1, 2) share the gap 1; level 3 couples to 0 and 1
        # at distinct gaps.  Level 2 hangs on level 1 alone, at the shared gap, unless it couples to level 0 too.
        B = np.zeros((4, 4), dtype=complex)
        for a, b in [(3, 0), (3, 1), (1, 2)] + [(0, 2)] * linked:
            B[a, b], B[b, a] = 1.0, -1.0
        sys = ControlSystem(np.diag([0.0, 1j, 2j, 0.3j]), B)
        s0 = StateVector.normalized(np.ones(4, dtype=complex))
        calls = _count_calls(monkeypatch, "closure")
        rep = controllability_report(sys, s0)
        assert calls == {"closure": 1 - linked}
        assert rep == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("log_s", SCALES)
    def test_colliding_pair_is_certified_at_every_scale_in_any_frame(self, log_s):
        A, B, _ = _fixed_pair("collide")
        W = haar_unitary(np.random.default_rng(4), 4)
        u4 = AlgebraClass(dim=16, traceless=False, abelian=False, label=AlgebraLabel.FULL_UNITARY)
        for X, Y in ((A, B), (W @ A @ W.conj().T, W @ B @ W.conj().T)):
            sys = ControlSystem(10.0**log_s * X, 10.0**log_s * Y)
            assert orbit._unitary_class(sys, _frame(sys)) == u4

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

    def test_generic_u200_analyze_is_certified(self, tmp_path):
        # Past n = 128 some of the n(n-1)/2 gaps of a generic drift collide; dropping only their edges still connects
        # every level, where closure would build 40,000 basis elements.
        rng = np.random.default_rng(200)
        sys_path, state_path, out = tmp_path / "u200.json", tmp_path / "state.json", tmp_path / "report.json"
        save_system(ControlSystem(random_skew(rng, 200), random_skew(rng, 200)), sys_path)
        save_state(StateVector(random_unit(rng, 200)), state_path)
        with time_budget(5):
            assert run(["analyze", "--system", str(sys_path), "--state", str(state_path), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert (result["algebra_dim"], result["orbit_dim"], result["verdict"]) == (40000, 399, "OPERATOR_CONTROLLABLE")


def _real_pair(rng: np.random.Generator, kind: str, n: int) -> tuple:
    """A random so(n) or sp(n/2) pair in a random frame."""
    W, draw = haar_unitary(rng, n), real_antisymmetric if kind == "so" else _symplectic
    return tuple(W @ draw(rng, n) @ W.conj().T for _ in range(2)) + (W,)


def _bridged(delta: float) -> tuple:
    """An so(4) pair in its drift's eigenframe whose one e_0 + e_1 coupling, 1e-2 of the largest, is turned by
    ``delta``: levels 0, 1 and their mirrors 3, 2 pair up by J, and ``J^2`` is ``exp(-i delta)`` on levels 0, 1.
    0 gives so(4), pi gives sp(2), and a small angle leaves the J residual near 2e-2 delta, below its band."""
    z, beta = 0.6 + 0.8j, 1e-2 * (0.8 - 0.6j)
    M = np.zeros((4, 4), dtype=complex)
    M[0, 0], M[1, 1], M[0, 1] = 0.3j, -0.5j, z
    M[3, 3], M[2, 2], M[2, 3] = -0.3j, 0.5j, -z
    M[0, 2], M[1, 3] = beta, -np.exp(1j * delta) * beta
    M = np.triu(M, 1) - np.triu(M, 1).conj().T + np.diag(np.diag(M))
    return np.diag([2.0j, 0.7j, -0.7j, -2.0j]), M


def _spin(n: int) -> tuple:
    """``(i J_z, i J_x)`` of spin (n - 1) / 2: J holds, but every gap is 1, so no root is isolated."""
    m = (n - 1) / 2 - np.arange(n)
    raising = np.diag(np.sqrt((n - 1) / 2 * ((n + 1) / 2) - m[1:] * (m[1:] + 1)), 1)
    return np.diag(1j * m), 0.5j * (raising + raising.T)


def _long_root_sp2() -> tuple:
    """An sp(2) pair whose control couples levels only through e_0 - e_1 and the long root 2 e_0."""
    Y = np.zeros((4, 4), dtype=complex)  # basis e_0, e_1, f_0, f_1 with J e_k = f_k, J f_k = -e_k
    Y[0, 1], Y[0, 2] = 1.0, 0.5j
    return np.diag([2.0j, 0.7j, -2.0j, -0.7j]), _quaternionic(Y - Y.conj().T)


class TestRealCertificate:
    """so(n) or sp(n/2) certified from the drift frame's antiunitary symmetry, with closure deciding everything else."""

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("kind, n", [("so", n) for n in range(3, 13)] + [("sp", n) for n in range(4, 13, 2)])
    def test_report_equals_closure(self, kind, n, real, monkeypatch):
        rng = np.random.default_rng([n, 37, real])
        A, B, W = _real_pair(rng, kind, n)
        c = W @ rng.normal(size=n).astype(complex) if real else random_unit(rng, n)
        sys, s0 = ControlSystem(A, B), StateVector.normalized(c)
        certified, phi = orbit._real_class(_frame(sys))
        assert certified == AlgebraClass(
            dim=n * (n - 1) // 2 if kind == "so" else n * (n + 1) // 2, traceless=True, abelian=False,
            label=AlgebraLabel.OTHER,
        )
        assert (phi is None) == (kind == "sp")
        # and no u(n) test either: a mirror-symmetric spectrum never passes it
        calls = _count_calls(monkeypatch, "closure", "_unitary_class")
        rep = controllability_report(sys, s0)
        assert calls == {"closure": 0, "_unitary_class": 0}
        assert rep.orbit_dim == (2 * n - 1 if kind == "sp" else n - 1 if real else 2 * n - 3)
        assert rep == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("kind", ["so4u1", "so5u1_control", "so3u1", "so2so3", "so3so4", "direct_sum", "torus",
                                      "so2", "spin2", "spin3/2"])
    def test_never_certified(self, kind, monkeypatch):
        rng = np.random.default_rng(41)
        if kind.startswith("spin"):  # su(2) irreducible on a real (spin 2) or quaternionic (spin 3/2) space
            A, B = _spin({"spin2": 5, "spin3/2": 4}[kind])
        elif kind == "so4u1":  # the drift's spectrum is shifted off its mirror symmetry
            A, B, _ = _fixed_pair("so4u1")
        elif kind == "so5u1_control":  # the control's trace breaks J
            A, B, _ = _real_pair(rng, "so", 5)
            B = B + 0.7j * np.eye(5)
        elif kind == "so3u1":
            A, B = real_antisymmetric(rng, 3) + 0.7j * np.eye(3), real_antisymmetric(rng, 3)
        elif kind in ("so2so3", "so3so4"):  # J holds, but no coupling joins the blocks
            k, m = int(kind[2]), int(kind[5])
            blocks = [(real_antisymmetric(rng, k), real_antisymmetric(rng, m)) for _ in range(2)]
            W = haar_unitary(rng, k + m)
            A, B = (W @ np.block([[X, np.zeros((k, m))], [np.zeros((m, k)), Y]]) @ W.conj().T for X, Y in blocks)
        elif kind == "direct_sum":
            A, B = _direct_sum(rng)
        elif kind == "torus":
            A, B = _random_pair(rng, "torus", 5)
        else:
            A, B = real_antisymmetric(rng, 2), real_antisymmetric(rng, 2)
        sys, s0 = ControlSystem(A, B), StateVector(random_unit(rng, len(A)))
        assert orbit._real_class(_frame(sys)) is None
        assert controllability_report(sys, s0) == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("share, certified", [(0.0, True), (1e-10, False), (1e-3, False)],
                             ids=["exact", "fragile", "broken"])
    def test_j_residual_in_the_fragile_band_falls_back(self, share, certified, monkeypatch):
        # so(5) with its control shifted by i share max|B| I: J takes M_kk to conj(M_kbkb), so it fails by 2 share on
        # the diagonal, which the walk for J's phases never reads.
        rng = np.random.default_rng(43)
        A, B, _ = _real_pair(rng, "so", 5)
        sys = ControlSystem(A, B + 1j * share * np.max(np.abs(B)) * np.eye(5))
        s0 = StateVector(random_unit(rng, 5))
        assert (orbit._real_class(_frame(sys)) is not None) == certified
        calls = _count_calls(monkeypatch, "closure")
        rep = controllability_report(sys, s0)
        assert calls == {"closure": 0 if certified else 1}
        assert rep == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("delta, dim", [(0.0, 6), (np.pi, 10), (1e-11, None)], ids=["so4", "sp2", "fragile"])
    def test_j_square_in_the_fragile_band_falls_back(self, delta, dim, monkeypatch):
        rng = np.random.default_rng(47)
        W = haar_unitary(rng, 4)
        A, B = (W @ X @ W.conj().T for X in _bridged(delta))
        sys, s0 = ControlSystem(A, B), StateVector(random_unit(rng, 4))
        certified = orbit._real_class(_frame(sys))
        assert (certified and certified[0].dim) == dim
        calls = _count_calls(monkeypatch, "closure")
        rep = controllability_report(sys, s0)
        assert calls == {"closure": 0 if dim else 1}
        assert rep == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("share, orbit_dim", [(0.0, 4), (1e-10, None), (1e-3, 7)],
                             ids=["real", "fragile", "complex"])
    def test_ratio_in_the_fragile_band_falls_back(self, share, orbit_dim, monkeypatch):
        # c = a + i share b in J's real frame: the orbit of so(5) has dimension n - 1 = 4 when a and b are parallel
        # and 2n - 3 = 7 when not; inside the band the tangent rank comes from one closure.
        rng = np.random.default_rng(53)
        A, B, W = _real_pair(rng, "so", 5)
        sys = ControlSystem(A, B)
        s0 = StateVector.normalized(W @ (rng.normal(size=5) + 1j * share * rng.normal(size=5)))
        calls = _count_calls(monkeypatch, "closure")
        rep = controllability_report(sys, s0)
        assert calls == {"closure": 0 if orbit_dim else 1}
        if orbit_dim:
            assert rep.orbit_dim == orbit_dim
        assert rep == _by_closure(sys, s0, monkeypatch)

    def test_long_root_joins_the_mirror_pairs(self, monkeypatch):
        # e_0 - e_1 alone links levels 0-1 and 2-3. The long root 2 e_0 links level 0 to its mirror 3.
        rng = np.random.default_rng(61)
        W = haar_unitary(rng, 4)
        A, B = (W @ X @ W.conj().T for X in _long_root_sp2())
        sys, s0 = ControlSystem(A, B), StateVector(random_unit(rng, 4))
        assert orbit._real_class(_frame(sys))[0].dim == 10
        assert controllability_report(sys, s0) == _by_closure(sys, s0, monkeypatch)

    @pytest.mark.parametrize("kind, dim", [("so7", 21), ("sp3", 21)])
    @pytest.mark.parametrize("log_s", SCALES)
    def test_certified_at_every_scale_in_any_frame(self, kind, dim, log_s):
        A, B, _ = _fixed_pair(kind)
        W = haar_unitary(np.random.default_rng(59), len(A))
        for X, Y in ((A, B), (W @ A @ W.conj().T, W @ B @ W.conj().T)):
            sys = ControlSystem(10.0**log_s * X, 10.0**log_s * Y)
            assert orbit._real_class(_frame(sys))[0].dim == dim

    def test_so48_analyze_is_fast(self, tmp_path):
        # Closure would build a 1128-element basis here, about 12 s; the certificate reads the drift frame.
        rng = np.random.default_rng(48)
        A, B, _ = _real_pair(rng, "so", 48)
        sys_path, state_path, out = tmp_path / "so48.json", tmp_path / "state.json", tmp_path / "report.json"
        save_system(ControlSystem(A, B), sys_path)
        save_state(StateVector(random_unit(rng, 48)), state_path)
        with time_budget(2):
            assert run(["analyze", "--system", str(sys_path), "--state", str(state_path), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert (result["algebra_dim"], result["orbit_dim"], result["verdict"]) == (1128, 93, "RESTRICTED")
