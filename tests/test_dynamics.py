import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachctl import (
    ControlSchedule,
    ControlSystem,
    DriftSpectrum,
    StateVector,
    Trajectory,
    diagonalize_drift,
    drift_hamiltonian,
    matrix_exp,
    moduli_distance_bound,
    propagate,
    propagate_operator,
    realify,
    recurrence_scan,
)

from reachctl import dynamics
from reachctl.dynamics import SEGMENT_BLOCK, forward_pass
from reachctl.matrices import MAX_ENTRIES, skew_eigensystem

from helpers import SIGMA_X, SIGMA_Z, count_eigh_matrices, random_skew, random_unit
from oracles import dense_hitting_index, dense_recurrence_time


# Schedules whose segment j overflows on OVERFLOW_SYSTEM, and where: propagate and propagate_operator
# walk the same blocks, so both name the same segment.
OVERFLOW_SYSTEM = ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X)
OVERFLOWS = {
    "duration": ([(1.0, 0.5), (1e300, 0.5)], 1),  # omega * duration overflows
    "value": ([(1.0, 1e300), (1.0, 0.5)], 0),  # A + eps B overflows
    "second-block": ([(1.0, 0.5)] * (SEGMENT_BLOCK + 6) + [(1e300, 0.5)], SEGMENT_BLOCK + 6),  # in a later block
}


def overflow_message(segments, j):
    duration, value = segments[j]
    return f"segment {j}: the flow over duration {duration!r} at control value {value!r} overflows double precision"


def chunked_recurrence_scan(sys, s0, tol, t_max, dt):
    """Reference: the scan that tabulated every grid distance, 2^17 grid points per chunk.

    Returns ``(return time, outcome)``, the outcome one of ``"stays"`` (never
    leaves the ball), ``"grid-hit"``, ``"refined-hit"`` (no grid point in the
    ball, but the refinement around the closest approach is) and ``"none"``.
    """
    spectrum = diagonalize_drift(sys.A)
    weights = np.abs(spectrum.U.conj().T @ s0.c) ** 2
    lam = spectrum.lambdas

    def dist_array(ts):
        x = np.cos(np.outer(ts, lam))
        return np.sqrt(np.maximum(2.0 * np.sum((1.0 - x) * weights, axis=1), 0.0))

    def bracket(a, b):
        # 33 times across [a, b] per round; the least distance's neighbours are the next bracket
        while True:
            ts = np.linspace(a, b, 33)
            ds = dist_array(ts)
            k = int(np.argmin(ds))
            a_next, b_next = ts[max(k - 1, 0)], ts[min(k + 1, 32)]
            if b_next - a_next >= b - a:
                return float(ts[k]), float(ds[k])
            a, b = a_next, b_next

    count = int(np.floor(t_max / dt + 1e-12))
    chunk = 1 << 17
    departure_time = candidate = best_t = None
    best_d = np.inf
    for start in range(1, count + 1, chunk):
        ts = np.arange(start, min(start + chunk, count + 1)) * dt
        ds = dist_array(ts)
        if departure_time is None:
            outside = np.nonzero(ds > tol)[0]
            if outside.size == 0:
                continue
            departure_time = float(ts[outside[0]])
            ts, ds = ts[outside[0]:], ds[outside[0]:]
        hits = np.nonzero(ds <= tol)[0]
        if hits.size:
            candidate = float(ts[hits[0]])
            break
        k = int(np.argmin(ds))
        if ds[k] < best_d:
            best_d, best_t = float(ds[k]), float(ts[k])
    if departure_time is None:
        return float(dt), "stays"
    center = candidate if candidate is not None else best_t
    refined_t, refined_d = bracket(max(center - dt, departure_time), min(center + dt, count * dt))
    if candidate is not None:
        return (min(candidate, refined_t) if refined_d <= tol else candidate), "grid-hit"
    return (refined_t, "refined-hit") if refined_d <= tol else (None, "none")


def random_recurrence_cases():
    """Seeded diagonal drifts, n = 2..8, at every ``tol`` of the suite.

    Frequencies are integers (exact returns at multiples of 2 pi), random
    reals, or either with some set to zero; some state components are zero,
    and zero-frequency components can hold most of the weight, so the state
    may never leave a wide ball.
    """
    rng = np.random.default_rng(20261018)
    cases = []
    for n in range(2, 9):
        for tol in (1e-9, 1e-6, 1e-3, 0.05, 0.5, 1.9):
            for kind in ("integer", "real", "zeros"):
                if kind == "integer":
                    lam = rng.integers(-3, 4, n).astype(float)
                else:
                    lam = rng.uniform(-4.0, 4.0, n)
                c = random_unit(rng, n)
                if kind == "zeros":
                    lam[rng.random(n) < 0.4] = 0.0
                    c[0] *= 4.0
                c[rng.random(n) < 0.3] = 0.0
                if not np.any(c):
                    c[0] = 1.0
                dt = float(rng.choice([1e-2, 3e-3]))
                cases.append((np.diag(1j * lam), c / np.linalg.norm(c), tol, float(rng.uniform(5.0, 40.0)), dt))
    return cases


RECURRENCE_CASES = random_recurrence_cases()


def per_segment_trajectory(sys, s0, sched, samples_per_segment):
    """Reference: one eigendecomposition per segment, one sample at a time."""
    k = samples_per_segment
    times, states = [0.0], [s0.c.copy()]
    c, t = s0.c, 0.0
    for dur, val in zip(sched.durations, sched.values):
        omega, V = skew_eigensystem(sys.A + val * sys.B)
        d = V.conj().T @ c
        for step in range(1, k + 1):
            tau = dur * step / (k + 1)
            states.append(V @ (np.exp(1j * omega * tau) * d))
            times.append(t + tau)
        c = V @ (np.exp(1j * omega * dur) * d)
        states.append(c)
        t = t + dur
        times.append(t)
    return np.array(times), np.array(states)


def repeating_schedule(kind: str, rng, m: int) -> ControlSchedule:
    """A schedule whose control values repeat: the shapes users write by hand."""
    durations = rng.uniform(0.05, 0.5, m)
    if kind == "drift":
        return ControlSchedule(durations, np.zeros(m))
    if kind == "constant":
        return ControlSchedule.constant(0.7, 0.3 * m, m)
    if kind == "bang-bang":
        return ControlSchedule(durations, np.where(np.arange(m) % 2 == 0, 1.0, -1.0))
    assert kind == "signed-zeros"
    return ControlSchedule(durations, np.where(rng.random(m) < 0.5, 0.0, -0.0))


REPEATING = ["drift", "constant", "bang-bang", "signed-zeros"]


# Library calls that overflow double precision, each refused with a ValueError: a total duration, a segment's sample
# times, a segment's flow from its duration or its control value, and matrix_exp's flow.
OVERFLOW_CALLS = {
    "total-duration": lambda: ControlSchedule([1e308, 1e308], [0.0, 0.0]),
    "sample-times": lambda: propagate(ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X), StateVector(np.array([1.0, 0.0])),
                                      ControlSchedule.constant(0.0, 1e308)),
    **{f"propagate-{case}": lambda segments=segments: propagate(
        OVERFLOW_SYSTEM, StateVector(np.array([1.0, 0.0])), ControlSchedule(*zip(*segments)), samples_per_segment=2)
       for case, (segments, _) in OVERFLOWS.items()},
    **{f"propagate_operator-{case}": lambda segments=segments: propagate_operator(
        OVERFLOW_SYSTEM, ControlSchedule(*zip(*segments))) for case, (segments, _) in OVERFLOWS.items()},
    "matrix_exp": lambda: matrix_exp(1e10j * SIGMA_Z + 1e10j * SIGMA_X, 1e300),
}


@pytest.mark.parametrize("call", OVERFLOW_CALLS.values(), ids=OVERFLOW_CALLS.keys())
def test_overflow_is_one_diagnostic(call):
    # A library caller sees the ValueError alone, with no numpy RuntimeWarning before it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow|not finite"):
            call()


class TestStateVector:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError, match="sphere"):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    def test_normalized_constructor(self):
        s = StateVector.normalized(np.array([3.0, 4.0], dtype=complex))
        assert np.allclose(s.c, [0.6, 0.8])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0], dtype=complex))

    def test_rejects_zero_in_normalized(self):
        with pytest.raises(ValueError):
            StateVector.normalized(np.zeros(3))


class TestControlSystem:
    def test_non_skew_drift_names_entry(self):
        with pytest.raises(ValueError, match=r"A is not skew-Hermitian.*entry"):
            ControlSystem(SIGMA_X, 1j * SIGMA_X)
        with pytest.raises(ValueError, match=r"A is not skew-Hermitian.*entry"):
            ControlSystem(1e-13 * SIGMA_Z, 1e-13j * SIGMA_X)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ControlSystem(1j * SIGMA_Z, np.zeros((3, 3)))


class TestControlSchedule:
    def test_negative_duration_names_segment(self):
        with pytest.raises(ValueError, match="segment 1"):
            ControlSchedule(np.array([1.0, -0.5]), np.array([0.0, 0.0]))
        # Non-finite and zero durations too; of two bad segments only the
        # first is named.
        for durations, message in [
            ([1.0, np.nan], "segment 1: duration must be positive and finite, got nan"),
            ([1.0, np.inf, 2.0], "segment 1: duration must be positive and finite, got inf"),
            ([1.0, 0.0], "segment 1: duration must be positive and finite, got 0.0"),
            ([1.0, -np.inf, 0.0, 1.0], "segment 1: duration must be positive and finite, got -inf"),
            ([0.5, 0.0, -2.0], "segment 1: duration must be positive and finite, got 0.0"),
        ]:
            with pytest.raises(ValueError) as info:
                ControlSchedule(np.array(durations), np.zeros(len(durations)))
            assert str(info.value) == message

    def test_total_duration(self):
        sched = ControlSchedule([0.5, 1.5], [1.0, -1.0])
        assert sched.total_duration == pytest.approx(2.0)
        assert sched.n_segments == 2
        assert sched.segments == [(0.5, 1.0), (1.5, -1.0)]

    @pytest.mark.parametrize("count", [0, 2.0, True, None])
    def test_constant_segment_count_validated(self, count):
        with pytest.raises(ValueError, match=f"^n_segments must be a positive integer, got {count!r}$"):
            ControlSchedule.constant(0.25, 2.0, n_segments=count)

    @pytest.mark.parametrize("name, value, duration", [
        *(("value", bad, 2.0) for bad in (None, "1", True, np.nan, -np.inf, 10**400)),
        *(("duration", 0.25, bad) for bad in (None, "2", True, 0.0, -1.0, np.inf, np.nan)),
    ])
    def test_constant_value_and_duration_validated(self, name, value, duration):
        bad = value if name == "value" else duration
        rule = "a finite real number" if name == "value" else "positive and finite"
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {re.escape(repr(bad))}$"):
            ControlSchedule.constant(value, duration, 2)

    def test_constant_underflowing_duration_names_duration_and_n_segments(self):
        with pytest.raises(ValueError, match=r"^duration / n_segments underflows to 0: 5e-324 / 2$"):
            ControlSchedule.constant(1.0, 5e-324, 2)

    @pytest.mark.parametrize("count", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_constant_count_too_large_for_a_float(self, count):
        with pytest.raises(ValueError, match=r"^duration / n_segments: n_segments is too large for a float$"):
            ControlSchedule.constant(1.0, 1.0, count)

    def test_constant_count_past_the_entries_limit(self):
        message = f"n_segments is too large: it asks for more than {MAX_ENTRIES} array entries"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ControlSchedule.constant(1.0, 1.0, MAX_ENTRIES // 2 + 1)

    def test_constant_splits_equally(self):
        sched = ControlSchedule.constant(0.25, 2.0, n_segments=4)
        assert np.allclose(sched.durations, 0.5)
        assert np.allclose(sched.values, 0.25)


class TestDiagonalizeDrift:
    def test_already_diagonal_sorts_descending(self):
        spec = diagonalize_drift(np.diag([1j, 2j]))
        assert np.allclose(spec.lambdas, [2.0, 1.0])
        # the change of basis is the swap permutation
        assert np.allclose(spec.U, np.array([[0, 1], [1, 0]]), atol=1e-14)

    def test_i_sigma_x(self):
        spec = diagonalize_drift(1j * SIGMA_X)
        assert np.allclose(spec.lambdas, [1.0, -1.0])
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(spec.U), [[r, r], [r, r]], atol=1e-12)
        assert np.allclose(spec.U[:, 0], [r, r], atol=1e-12)
        assert np.allclose(spec.U[:, 1], [r, -r], atol=1e-12)

    def test_zero_matrix_gives_identity_frame(self):
        spec = diagonalize_drift(np.zeros((3, 3)))
        assert np.allclose(spec.lambdas, 0.0)
        assert np.array_equal(spec.U, np.eye(3))

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            diagonalize_drift(SIGMA_X)

    def test_reconstructs_diagonal_form(self):
        rng = np.random.default_rng(21)
        A = random_skew(rng, 5)
        spec = diagonalize_drift(A)
        D = spec.U.conj().T @ A @ spec.U
        assert np.max(np.abs(D - np.diag(1j * spec.lambdas))) <= 1e-9

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(2)
        A = random_skew(rng, 4)
        s1 = diagonalize_drift(A)
        s2 = diagonalize_drift(A)
        assert np.array_equal(s1.U, s2.U)
        assert np.array_equal(s1.lambdas, s2.lambdas)


class TestDriftHamiltonian:
    @pytest.mark.parametrize(
        "c, expected",
        [
            (np.array([1.0, 0.0], dtype=complex), 1.0),
            (np.array([0.0, 1.0], dtype=complex), 2.0),
            (np.array([1.0, 1j]) / np.sqrt(2.0), 1.5),
        ],
    )
    def test_eigenbasis_formula(self, c, expected):
        spec = DriftSpectrum(lambdas=np.array([1.0, 2.0]), U=np.eye(2, dtype=complex))
        assert drift_hamiltonian(spec, StateVector(c)) == pytest.approx(expected)

    def test_realified_form_agrees(self):
        # H = sum lambda_k (a_k^2 + b_k^2) in realified coordinates
        rng = np.random.default_rng(5)
        spec = DriftSpectrum(lambdas=np.array([0.3, -1.2, 2.0]), U=np.eye(3, dtype=complex))
        s = StateVector(random_unit(rng, 3))
        v = realify(s)
        expected = float(np.sum(spec.lambdas * (v[:3] ** 2 + v[3:] ** 2)))
        assert drift_hamiltonian(spec, s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stacked_rows_match_per_state(self, n):
        rng = np.random.default_rng(100 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        sched = ControlSchedule(rng.uniform(0.1, 2.0, 30), rng.uniform(-1.0, 1.0, 30))
        traj = propagate(sys, StateVector(random_unit(rng, n)), sched, samples_per_segment=3)
        spec = diagonalize_drift(sys.A)
        per_state = np.array([drift_hamiltonian(spec, StateVector(row)) for row in traj.states])
        stacked = drift_hamiltonian(spec, traj.states)
        assert stacked.shape == (traj.times.size,)
        scale = float(np.max(np.abs(spec.lambdas)))
        np.testing.assert_allclose(stacked, per_state, rtol=1e-12, atol=1e-12 * scale)

    def test_rejects_mismatched_stack(self):
        spec = DriftSpectrum(lambdas=np.array([1.0, 2.0]), U=np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="spectrum dimension 2"):
            drift_hamiltonian(spec, np.ones((4, 3)))


class TestRealify:
    def test_one_dimensional(self):
        s = StateVector(np.array([(1.0 + 2.0j) / np.sqrt(5.0)]))
        assert np.allclose(realify(s), [1.0 / np.sqrt(5.0), 2.0 / np.sqrt(5.0)])

    def test_imaginary_basis_vector(self):
        assert np.allclose(realify(StateVector(np.array([1j, 0.0]))), [0, 0, 1, 0])

    def test_real_basis_vector(self):
        assert np.allclose(realify(StateVector(np.array([1.0, 0.0]))), [1, 0, 0, 0])

    def test_unit_norm_preserved(self):
        rng = np.random.default_rng(8)
        v = realify(StateVector(random_unit(rng, 6)))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestPropagate:
    def test_diagonal_drift_half_period(self):
        sys = ControlSystem(np.diag([1j, -1j]), 1j * SIGMA_X)
        s0 = StateVector(np.array([1.0, 0.0], dtype=complex))
        traj = propagate(sys, s0, ControlSchedule.constant(0.0, np.pi))
        assert np.allclose(traj.final_state.c, [-1.0, 0.0], atol=1e-12)

    def test_cancellation_schedule_freezes_state(self, torus_system, plus_state):
        # B = 2A, so eps = -1/2 zeroes the generator for any duration
        traj = propagate(torus_system, plus_state, ControlSchedule.constant(-0.5, 7.3))
        for i in range(traj.times.size):
            assert np.allclose(traj.states[i], plus_state.c, atol=1e-12)

    def test_matches_summed_generator_exponential(self, su2_system, basis_state):
        t = 1.37
        traj = propagate(su2_system, basis_state, ControlSchedule.constant(1.0, t))
        expected = matrix_exp(su2_system.A + su2_system.B, t) @ basis_state.c
        assert np.max(np.abs(traj.final_state.c - expected)) <= 1e-12

    def test_sample_layout(self, su2_system, basis_state):
        sched = ControlSchedule([0.4, 0.6], [0.0, 1.0])
        traj = propagate(su2_system, basis_state, sched, samples_per_segment=3)
        # initial + per segment (3 interior + endpoint)
        assert traj.times.size == 1 + 2 * 4
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert traj.times[4] == pytest.approx(0.4)

    @pytest.mark.parametrize("n, m, k, kind", [
        pytest.param(n, m, k, "random", id=f"{n}-{m}-{k}")
        for n, m, k in [(2, 0, 2), (2, 5, 1), (3, SEGMENT_BLOCK, 4), (5, 2 * SEGMENT_BLOCK + 7, 3)]
    ] + [pytest.param(4, 2 * SEGMENT_BLOCK + 7, 2, kind, id=kind) for kind in REPEATING])
    def test_matches_per_segment_reference_bit_for_bit(self, n, m, k, kind):
        # blocks of stacked eigensystems, each decomposing only its distinct
        # values, change nothing: every sample and time equals the
        # one-segment-at-a-time evaluation exactly
        rng = np.random.default_rng(m)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        if kind == "random":
            sched = ControlSchedule(rng.uniform(0.05, 0.5, m), rng.uniform(-1.0, 1.0, m))
        else:
            sched = repeating_schedule(kind, rng, m)
        traj = propagate(sys, s0, sched, samples_per_segment=k)
        times, states = per_segment_trajectory(sys, s0, sched, k)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)

    def test_endpoints_are_the_forward_pass(self):
        rng = np.random.default_rng(12)
        sys = ControlSystem(random_skew(rng, 4), random_skew(rng, 4))
        s0 = StateVector(random_unit(rng, 4))
        m = SEGMENT_BLOCK + 9
        sched = ControlSchedule(rng.uniform(0.05, 0.5, m), rng.uniform(-1.0, 1.0, m))
        ends = forward_pass(sys, sched.durations, sched.values, s0.c)[3]
        traj = propagate(sys, s0, sched, samples_per_segment=2)
        assert np.array_equal(traj.states[3::3], ends)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_batched_forward_pass_rows_are_single_passes(self, n):
        # steering evaluates all its restarts in one stacked call: each row must
        # be the one-schedule pass, and re-propagate to the same endpoints
        rng = np.random.default_rng(40 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.05, 0.5, 11)
        for rows in range(1, 9):
            values = rng.uniform(-2.0, 2.0, (rows, durations.size))
            values[-1] = 0.0
            batched = forward_pass(sys, durations, values, s0.c)
            for i in range(rows):
                single = forward_pass(sys, durations, values[i], s0.c)
                for part, row in zip(single, batched):
                    assert np.array_equal(row[i], part)
                traj = propagate(sys, s0, ControlSchedule(durations, values[i]), samples_per_segment=1)
                assert np.array_equal(traj.states[2::2], batched[3][i])

    @pytest.mark.parametrize("kind, per_block", [("drift", 1), ("constant", 1), ("bang-bang", 2), ("signed-zeros", 2)])
    def test_one_eigendecomposition_per_distinct_value_and_block(self, monkeypatch, kind, per_block):
        # 0.0 and -0.0 are different float64 values and get one decomposition each
        rng = np.random.default_rng(3)
        sys = ControlSystem(random_skew(rng, 3), random_skew(rng, 3))
        s0 = StateVector(random_unit(rng, 3))
        sched = repeating_schedule(kind, rng, 2 * SEGMENT_BLOCK + 7)
        tally = count_eigh_matrices(monkeypatch)
        propagate(sys, s0, sched, samples_per_segment=2)
        assert tally[0] == 3 * per_block
        propagate_operator(sys, sched)
        assert tally[0] == 6 * per_block

    def test_every_distinct_value_is_decomposed(self, monkeypatch):
        rng = np.random.default_rng(5)
        sys = ControlSystem(random_skew(rng, 2), random_skew(rng, 2))
        sched = ControlSchedule(rng.uniform(0.05, 0.5, 100), rng.uniform(-1.0, 1.0, 100))
        tally = count_eigh_matrices(monkeypatch)
        propagate(sys, StateVector(random_unit(rng, 2)), sched)
        assert tally[0] == 100

    @pytest.mark.parametrize("k", [1, 10])
    def test_too_short_segment_is_named(self, su2_system, basis_state, k):
        # a positive duration that cannot move the clock past t = 1.0
        sched = ControlSchedule([1.0, 1e-300, 0.5], [0.0, 1.0, 0.0])
        message = f"segment 1: duration 1e-300 starting at t = 1.0 is too short for its {k + 1} sample times to advance"
        with pytest.raises(ValueError) as info:
            propagate(su2_system, basis_state, sched, samples_per_segment=k)
        assert str(info.value) == message

    def test_short_interior_steps_are_named(self, su2_system, basis_state):
        # the segment ends advance the clock, but its ten interior samples cannot
        sched = ControlSchedule([0.25, 1.0, 5e-16], [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=r"^segment 2: duration 5e-16 starting at t = 1.25 is too short"):
            propagate(su2_system, basis_state, sched, samples_per_segment=10)
        assert propagate(su2_system, basis_state, sched, samples_per_segment=1).times.size == 7

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("segments, j", OVERFLOWS.values(), ids=OVERFLOWS.keys())
    def test_overflowing_segment_is_named(self, basis_state, segments, j):
        with pytest.raises(ValueError) as info:
            propagate(OVERFLOW_SYSTEM, basis_state, ControlSchedule(*zip(*segments)), samples_per_segment=2)
        assert str(info.value) == overflow_message(segments, j)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sample_times_past_double_precision_are_named(self, su2_system, basis_state):
        # The segment and its flow are finite, but its sample offsets 1e308 * m / 11 pass double precision
        # from m = 2 on; they used to be refused as too short to advance.
        sched = ControlSchedule.constant(0.0, 1e308)
        with pytest.raises(ValueError) as info:
            propagate(su2_system, basis_state, sched)
        assert str(info.value) == (
            "segment 0: the sample times of duration 1e+308 starting at t = 0.0 overflow double precision"
        )
        # One sample at 1e308 / 2 is finite, and so is the whole trajectory.
        assert propagate(su2_system, basis_state, sched, samples_per_segment=1).times.tolist() == [0.0, 5e307, 1e308]

    def test_dimension_mismatch(self, su2_system):
        s0 = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="^system dimension 2 does not match state dimension 3$"):
            propagate(su2_system, s0, ControlSchedule.constant(0.0, 1.0))

    def test_rejects_bad_sample_count(self, su2_system, basis_state):
        with pytest.raises(ValueError):
            propagate(su2_system, basis_state, ControlSchedule.constant(0.0, 1.0), samples_per_segment=0)

    @pytest.mark.parametrize("bad", [2.0, True, None, "3"])
    def test_sample_count_must_be_an_integer(self, su2_system, basis_state, bad):
        with pytest.raises(ValueError, match=f"^samples_per_segment must be a positive integer, got {bad!r}$"):
            propagate(su2_system, basis_state, ControlSchedule.constant(0.0, 1.0), samples_per_segment=bad)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_norm_conservation_long_schedules(self, seed, n):
        rng = np.random.default_rng(seed)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        sched = ControlSchedule(rng.uniform(0.1, 5.0, 20), rng.uniform(-2.0, 2.0, 20))
        traj = propagate(sys, s0, sched, samples_per_segment=3)
        assert traj.max_norm_drift() <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_drift_energy_conservation(self, seed, n):
        rng = np.random.default_rng(seed)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        sched = ControlSchedule(rng.uniform(0.1, 5.0, 20), np.zeros(20))
        spec = diagonalize_drift(sys.A)
        traj = propagate(sys, s0, sched, samples_per_segment=3)
        h0 = drift_hamiltonian(spec, s0)
        for i in range(traj.times.size):
            h = drift_hamiltonian(spec, StateVector.normalized(traj.states[i]))
            assert abs(h - h0) <= 1e-9

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_lift_consistency(self, seed):
        rng = np.random.default_rng(seed)
        sys = ControlSystem(random_skew(rng, 3), random_skew(rng, 3))
        s0 = StateVector(random_unit(rng, 3))
        sched = ControlSchedule(rng.uniform(0.1, 2.0, 6), rng.uniform(-1.5, 1.5, 6))
        traj = propagate(sys, s0, sched)
        U = propagate_operator(sys, sched)
        assert np.max(np.abs(traj.final_state.c - U @ s0.c)) <= 1e-10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_schedule_concatenation(self, seed):
        rng = np.random.default_rng(seed)
        sys = ControlSystem(random_skew(rng, 3), random_skew(rng, 3))
        s0 = StateVector(random_unit(rng, 3))
        d = rng.uniform(0.1, 2.0, 6)
        v = rng.uniform(-1.5, 1.5, 6)
        first = propagate(sys, s0, ControlSchedule(d[:3], v[:3]))
        second = propagate(sys, first.final_state, ControlSchedule(d[3:], v[3:]))
        whole = propagate(sys, s0, ControlSchedule(d, v))
        assert np.max(np.abs(second.final_state.c - whole.final_state.c)) <= 1e-10


class TestPropagateOperator:
    def test_half_period_diagonal(self):
        sys = ControlSystem(np.diag([1j, -1j]), 1j * SIGMA_X)
        U = propagate_operator(sys, ControlSchedule.constant(0.0, np.pi))
        assert np.allclose(U, -np.eye(2), atol=1e-12)

    def test_short_segment_near_identity(self, su2_system):
        U = propagate_operator(su2_system, ControlSchedule.constant(1.0, 1e-12))
        assert np.max(np.abs(U - np.eye(2))) <= 1e-9

    def test_unitary(self, su2_system):
        rng = np.random.default_rng(4)
        sched = ControlSchedule(rng.uniform(0.1, 2.0, 8), rng.uniform(-2.0, 2.0, 8))
        U = propagate_operator(su2_system, sched)
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-10

    @pytest.mark.parametrize("n, kind", [pytest.param(n, "random", id=str(n)) for n in [1, 2, 4, 7]]
                             + [pytest.param(3, kind, id=kind) for kind in REPEATING])
    def test_matches_product_of_matrix_exp_factors(self, n, kind):
        rng = np.random.default_rng(n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        if kind == "random":
            m = SEGMENT_BLOCK + 11
            sched = ControlSchedule(rng.uniform(0.05, 1.0, m), rng.uniform(-2.0, 2.0, m))
        else:
            sched = repeating_schedule(kind, rng, 2 * SEGMENT_BLOCK + 7)
        expected = np.eye(n, dtype=complex)
        for dur, val in zip(sched.durations, sched.values):
            expected = matrix_exp(sys.A + val * sys.B, dur) @ expected
        assert np.array_equal(propagate_operator(sys, sched), expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("segments, j", OVERFLOWS.values(), ids=OVERFLOWS.keys())
    def test_overflowing_segment_is_named(self, segments, j):
        # propagate's diagnostic, not an all-NaN "unitary"
        with pytest.raises(ValueError) as info:
            propagate_operator(OVERFLOW_SYSTEM, ControlSchedule(*zip(*segments)))
        assert str(info.value) == overflow_message(segments, j)


class TestTrajectory:
    def test_times_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.5, 1.0]), states=np.eye(2, dtype=complex))

    def test_times_must_increase(self):
        states = np.array([[1, 0], [1, 0], [1, 0]], dtype=complex)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0, 1.0]), states=states)


class TestRecurrenceScan:
    def test_commensurate_frequencies_return_at_common_period(self):
        sys = ControlSystem(np.diag([1j, 2j]), np.diag([1j, 1j]))
        s0 = StateVector.normalized(np.array([0.6, 0.8], dtype=complex))
        rt = recurrence_scan(sys, s0, tol=1e-6, t_max=10.0, dt=1e-3)
        assert rt is not None
        assert rt == pytest.approx(2.0 * np.pi, abs=1e-7)

    def test_degenerate_frequencies(self):
        sys = ControlSystem(np.diag([1j, 1j]), np.diag([1j, 1j]))
        s0 = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
        rt = recurrence_scan(sys, s0, tol=1e-6, t_max=10.0, dt=1e-3)
        assert rt is not None
        assert rt == pytest.approx(2.0 * np.pi, abs=1e-7)

    def test_incommensurate_pair_returns_before_140_pi(self, torus_system, plus_state):
        rt = recurrence_scan(torus_system, plus_state, tol=0.05, t_max=450.0, dt=1e-3)
        assert rt is not None
        assert rt <= 140.0 * np.pi

    def test_agrees_with_dense_oracle(self, torus_system, plus_state):
        rt = recurrence_scan(torus_system, plus_state, tol=0.05, t_max=450.0, dt=1e-3)
        lam = np.array([1.0, np.sqrt(2.0)])
        w = np.abs(plus_state.c) ** 2
        oracle = dense_recurrence_time(lam, w, tol=0.05, t_max=450.0, dt=1e-3)
        assert oracle is not None
        # refinement may sharpen below the grid hit, never past one grid step
        assert rt <= oracle
        assert abs(rt - oracle) <= 1e-3

    def test_fixed_point_is_trivially_recurrent(self):
        sys = ControlSystem(np.zeros((2, 2)), 1j * SIGMA_X)
        s0 = StateVector(np.array([1.0, 0.0], dtype=complex))
        assert recurrence_scan(sys, s0, tol=0.05, t_max=1.0, dt=1e-3) == pytest.approx(1e-3)

    def test_absence_is_none(self):
        # equal weights need dist sqrt(2) excursions; a tiny ball and short
        # horizon leave no room to come back
        sys = ControlSystem(np.diag([1j, 1j * np.sqrt(2.0)]), np.diag([1j, 1j]))
        s0 = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
        assert recurrence_scan(sys, s0, tol=1e-9, t_max=5.0, dt=1e-3) is None

    @pytest.mark.parametrize("tol, t_max, dt", [
        (float("inf"), 1.0, 1e-3),
        (float("nan"), 1.0, 1e-3),
        (0.1, float("inf"), 1e-3),
        (0.1, float("nan"), 1e-3),
        (0.1, 1.0, float("nan")),
        (0.1, 1e308, 1e-3),
    ])
    def test_rejects_non_finite_parameters(self, torus_system, plus_state, tol, t_max, dt):
        with pytest.raises(ValueError):
            recurrence_scan(torus_system, plus_state, tol=tol, t_max=t_max, dt=dt)

    @pytest.mark.parametrize("dt", [1e9, 1e8])
    def test_overflowing_drift_phase_raises(self, dt):
        # t lambda overflows to inf and every distance is NaN, which compares as neither departed
        # nor returned: unchecked, dt = 1e9 read as a fixed point and dt = 1e8 as a return at 1.797e8.
        sys = ControlSystem(np.diag([1e300j, -1e300j]), np.zeros((2, 2)))
        s0 = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match=r"^the drift phase over t_max = 10000000000\.0 overflows double precision$"):
            recurrence_scan(sys, s0, 0.1, 1e10, dt)

    @pytest.mark.parametrize("lam", [1e20, 1e13])
    def test_unresolvable_drift_phase_raises(self, lam):
        # t_max lambda = 1e23 or 1e16: the rounding margin of a distance spans all of [0, 2], so no
        # gap can be certified; unchecked, 1e20 walked all 1e6 grid points and returned None.
        sys = ControlSystem(np.diag([1j * lam, -1j * lam]), np.zeros((2, 2)))
        s0 = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match=r"^the drift phase over t_max = 1000\.0 is too large to resolve a "
                                             r"distance in double precision$"):
            recurrence_scan(sys, s0, 1e-9, 1e3, 1e-3)

    @pytest.mark.parametrize("lam, refused", [(4e15, False), (5e15, True)])
    def test_resolution_limit_is_a_margin_of_2(self, lam, refused):
        # margin = 2 sqrt(eps (t_max lambda + 24)) reaches 2 at a phase of 1/eps - 24, about 4.5e15.
        sys = ControlSystem(np.diag([1j * lam, -1j * lam]), np.zeros((2, 2)))
        s0 = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
        if refused:
            with pytest.raises(ValueError, match="is too large to resolve a distance"):
                recurrence_scan(sys, s0, 0.1, 1.0, 1e-3)
        else:
            recurrence_scan(sys, s0, 0.1, 1.0, 1e-3)

    @pytest.mark.parametrize("name", ["tol", "t_max", "dt"])
    @pytest.mark.parametrize("bad", ["5", None, True, pytest.param(10**400, id="10**400")])
    def test_real_parameter_diagnostic_names_it(self, torus_system, plus_state, name, bad):
        kwargs = {"tol": 0.1, "t_max": 1.0, "dt": 1e-3, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {bad!r}$"):
            recurrence_scan(torus_system, plus_state, **kwargs)

    def test_dimension_mismatch(self, torus_system):
        s0 = StateVector(np.array([1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="^system dimension 2 does not match state dimension 3$"):
            recurrence_scan(torus_system, s0, tol=0.1, t_max=1.0, dt=1e-3)

    def test_parameter_validation(self, torus_system, plus_state):
        with pytest.raises(ValueError):
            recurrence_scan(torus_system, plus_state, tol=0.0, t_max=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            recurrence_scan(torus_system, plus_state, tol=0.1, t_max=1.0, dt=2.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_walk_matches_chunked_scan(self, n):
        # Equal finite positive floats are equal bit for bit.
        for A, c, tol, t_max, dt in RECURRENCE_CASES:
            if A.shape[0] == n:
                sys, s0 = ControlSystem(A, A), StateVector(c)
                expected, _ = chunked_recurrence_scan(sys, s0, tol, t_max, dt)
                assert recurrence_scan(sys, s0, tol, t_max, dt) == expected, (np.diag(A), c, tol, t_max, dt)

    def test_random_suite_covers_every_outcome(self):
        outcomes = set()
        zero_weight = 0
        for A, c, tol, t_max, dt in RECURRENCE_CASES:
            outcomes.add(chunked_recurrence_scan(ControlSystem(A, A), StateVector(c), tol, t_max, dt)[1])
            zero_weight += bool(np.any(c == 0.0))
        assert outcomes == {"stays", "grid-hit", "refined-hit", "none"}
        assert zero_weight >= len(RECURRENCE_CASES) // 4

    @pytest.mark.parametrize("name, tol, t_max", [("torus2", 0.05, 450.0), ("torus8", 0.3, 2000.0)])
    def test_walk_matches_chunked_scan_on_bench_tori(self, name, tol, t_max):
        n = int(name[5:])
        lam = np.sqrt(np.array([1, 2, 3, 5, 7, 11, 13, 17][:n], dtype=float))
        sys = ControlSystem(np.diag(1j * lam), np.diag(2j * lam))
        s0 = StateVector(np.full(n, 1.0 / np.sqrt(n), dtype=complex))
        expected, _ = chunked_recurrence_scan(sys, s0, tol, t_max, 1e-3)
        assert recurrence_scan(sys, s0, tol, t_max, 1e-3) == expected

    def test_fast_drift_without_grid_hit_matches_chunked_scan(self):
        # v dt is about 0.4 of the distance range [0, 2], and no grid point returns into the ball.
        sys = ControlSystem(np.diag([50j, -37.3j]), np.diag([1j, 1j]))
        s0 = StateVector(np.array([0.6, 0.8], dtype=complex))
        expected, outcome = chunked_recurrence_scan(sys, s0, 1e-3, 30.0, 1e-2)
        assert outcome in ("none", "refined-hit")
        assert recurrence_scan(sys, s0, 1e-3, 30.0, 1e-2) == expected

    @pytest.mark.parametrize("block, fanout, reach", [(1, 2, 1.5), (2, 3, 10.0), (3, 7, 0.3)])
    def test_small_blocks_match_chunked_scan(self, monkeypatch, block, fanout, reach):
        # Tiny blocks end early at the open-gap cap; any fan-out and first stride give the same answer.
        monkeypatch.setattr(dynamics, "RECURRENCE_BLOCK", block)
        monkeypatch.setattr(dynamics, "RECURRENCE_FANOUT", fanout)
        monkeypatch.setattr(dynamics, "RECURRENCE_REACH", reach)
        for A, c, tol, t_max, dt in RECURRENCE_CASES[::3]:
            sys, s0 = ControlSystem(A, A), StateVector(c)
            expected, _ = chunked_recurrence_scan(sys, s0, tol, t_max, dt)
            assert recurrence_scan(sys, s0, tol, t_max, dt) == expected, (np.diag(A), c, tol, t_max, dt)

    def test_memory_does_not_grow_with_the_horizon(self):
        # 1e8 grid steps in about 80 blocks, with no return: a table of their distances alone
        # would take 800 MB.
        sys = ControlSystem(np.diag([1j, np.sqrt(2.0) * 1j]), np.diag([1j, 1j]))
        s0 = StateVector(np.full(2, 1.0 / np.sqrt(2.0), dtype=complex))
        tracemalloc.start()
        try:
            assert recurrence_scan(sys, s0, tol=1e-9, t_max=1e5, dt=1e-3) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_torus8_evaluates_few_distances(self, monkeypatch):
        # The bench's torus8 scan (2e6 grid points, no return) costs samples, not grid points:
        # 4,133 distances with the bracket refinement, where a one-point-at-a-time Lipschitz walk took 5,163.
        evaluated, cos = [0], np.cos

        def counted(x, *args, **kwargs):
            evaluated[0] += int(np.prod(np.shape(x)[:-1], dtype=np.int64))
            return cos(x, *args, **kwargs)

        lam = np.sqrt(np.array([1, 2, 3, 5, 7, 11, 13, 17], dtype=float))
        sys = ControlSystem(np.diag(1j * lam), np.diag(2j * lam))
        s0 = StateVector(np.full(8, 1.0 / np.sqrt(8.0), dtype=complex))
        monkeypatch.setattr(np, "cos", counted)
        assert recurrence_scan(sys, s0, tol=0.3, t_max=2000.0, dt=1e-3) is None
        assert evaluated[0] <= 4_500

    def test_torus2_batches_its_cosines(self, monkeypatch):
        # The bench's torus2 scan makes 22 np.cos calls: the grid's blocks and the refinement's
        # rounds, each a batch of times; a refinement one time at a time would take 62 more.
        calls, cos = [0], np.cos

        def counted(x, *args, **kwargs):
            calls[0] += 1
            return cos(x, *args, **kwargs)

        lam = np.array([1.0, np.sqrt(2.0)])
        sys = ControlSystem(np.diag(1j * lam), np.diag(2j * lam))
        s0 = StateVector(np.full(2, 1.0 / np.sqrt(2.0), dtype=complex))
        monkeypatch.setattr(np, "cos", counted)
        assert recurrence_scan(sys, s0, tol=0.05, t_max=450.0, dt=1e-3) == 182.145
        assert calls[0] <= 30

    def test_tiny_grid_step_with_slow_drift(self):
        # v dt underflows to a subnormal here; the step is clipped before dividing.
        sys = ControlSystem(np.diag([1e-12j, 2e-12j]), np.diag([1j, 1j]))
        s0 = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert recurrence_scan(sys, s0, tol=0.05, t_max=1e-290, dt=1e-300) == 1e-300


def hitting_case(seed, n):
    """A random diagonal torus with n = 2..4 frequencies, a unit state d and a target on its curve, at a time of
    either sign, in the eigenbasis: ``(lam, d, g)``."""
    rng = np.random.default_rng([seed, n])
    lam = rng.uniform(-2.0, 2.0, n)
    d = random_unit(rng, n)
    return lam, d, np.exp(1j * lam * rng.uniform(-30.0, 30.0)) * d


def block_scan(lam, d, g, tol, count, dt, projective=False):
    v = float(np.hypot.reduce(np.abs(d) * lam))
    return dynamics._block_scan(lam, d, g, v, tol, count, dt, count * dt * float(np.max(np.abs(lam))),
                                projective=projective)


class TestHittingScan:
    """The block scan toward a target other than the start: each direction's first hit is the dense grid's."""

    @pytest.mark.parametrize("projective", [False, True], ids=["phase", "projective"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_hits_match_dense_grid(self, n, projective):
        hits = 0
        for seed in range(6):
            lam, d, g = hitting_case(seed, n)
            tol, dt, count = 0.05, 0.01, 4000
            for sign in (1.0, -1.0):
                expected, _ = dense_hitting_index(sign * lam, d, g, tol, count, dt, projective)
                hit, t, D = block_scan(sign * lam, d, g, tol, count, dt, projective)
                assert hit == expected, (seed, sign)
                hits += hit is not None
                if hit is not None:  # refined to the local minimum around the hit
                    assert abs(t - hit * dt) <= 1.001 * dt and D <= tol
        assert hits >= 6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_target_off_the_curve_stays_above_the_floor(self, n):
        # A target whose moduli differ from the state's: no grid point hits, and the closest approach keeps the
        # conserved moduli's floor, within the scan's share of the dense grid's least distance.
        for seed in range(4):
            lam, d, _ = hitting_case(seed, n)
            g = random_unit(np.random.default_rng([seed, n, 1]), n)
            sys = ControlSystem(np.diag(1j * lam), np.diag(1j * lam))
            floor = moduli_distance_bound(sys, StateVector(d), StateVector(g))
            tol, dt, count = 0.05, 0.01, 4000
            _, least = dense_hitting_index(lam, d, g, tol, count, dt)
            assert 0.5 * least**2 > 0.5 * tol**2
            hit, t, D = block_scan(lam, d, g, tol, count, dt)
            assert hit is None
            assert 0.5 * D**2 >= floor - 1e-12
            assert D <= least / (1.0 - dynamics.APPROACH_SHARE)

    def test_flat_distance_scans_few_points(self, monkeypatch):
        # The projective distance to an eigenvector is the same at every time: 2e6 grid steps, few samples.
        evaluated, exp = [0], np.exp

        def counted(x, *args, **kwargs):
            evaluated[0] += int(np.prod(np.shape(x)[:-1], dtype=np.int64))
            return exp(x, *args, **kwargs)

        lam, d = np.array([1.0, np.sqrt(2.0)]), np.full(2, np.sqrt(0.5), dtype=complex)
        monkeypatch.setattr(np, "exp", counted)
        hit, t, D = block_scan(lam, d, np.array([1.0, 0.0], dtype=complex), 1e-3, 2_000_000, 1e-3, projective=True)
        assert hit is None and D == pytest.approx(np.sqrt(2.0 - np.sqrt(2.0)))
        assert evaluated[0] <= 50_000

    def test_refuses_past_the_resolution_limit(self):
        lam, d, g = hitting_case(0, 2)
        assert dynamics._block_scan(lam, d, g, 1.0, 0.1, 1000, 1e-3, 1e16) is None
        assert dynamics._block_scan(lam, d, g, 1.0, 0.1, 2**53, 1e-3, 10.0) is None
