import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reachctl import (
    ControlSchedule,
    ControlSystem,
    StateVector,
    SteeringConfig,
    block_moduli,
    commuting_frame,
    controllability_report,
    distance,
    gradient,
    matrix_exp,
    moduli_distance_bound,
    propagate,
    propagate_operator,
    steer,
    verify_reachability,
)

from reachctl import orbit, steering
from reachctl.dynamics import forward_pass

from helpers import (SIGMA_X, SIGMA_Z, count_eigh_matrices, haar_unitary, marquardt_step, optimize_restart_lm,
                     random_skew, random_unit, real_antisymmetric, time_budget)
from oracles import block_expm_distance_gradient, fd_distance_gradient, fd_endpoint_jacobian


def terminal_distance(sys, s0, cert, target):
    final = propagate(sys, s0, cert.schedule, samples_per_segment=1).final_state
    return distance(final, target)


def linearize(sys, durations, values, c0, targets, phase_sensitive):
    """``(f, r, columns)`` of every row: one forward pass, then each row's distance, residual and Jacobian."""
    with np.errstate(over="ignore", invalid="ignore"):
        passes = forward_pass(sys, durations, values, c0)
        f, r = steering._residuals(passes[3][:, -1], targets, phase_sensitive)
        return f, r, steering._jacobians(sys, durations, passes, np.arange(len(values)), targets, phase_sensitive)


class TestSteeringConfig:
    def test_defaults(self):
        cfg = SteeringConfig()
        assert cfg.segments == 20
        assert cfg.horizon == 5.0
        assert cfg.restarts == 8
        assert cfg.max_iterations == 500
        assert cfg.target_distance == 1e-6
        assert cfg.phase_sensitive

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"segments": 0},
            {"horizon": 0.0},
            {"horizon": float("inf")},
            {"restarts": 0},
            {"max_iterations": 0},
            {"target_distance": 0.0},
            {"target_distance": float("inf")},
            {"target_distance": float("nan")},
        ]
        + [{name: bad} for name in ("segments", "restarts", "max_iterations") for bad in (2.0, True, None, "3")]
        + [{name: bad} for name in ("horizon", "target_distance") for bad in ("5", None, True, 10**400)],
    )
    def test_validation(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"^{name} must be "):
            SteeringConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", 2.0, True, None])
    def test_seed_diagnostic_names_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SteeringConfig(seed=seed)

    def test_underflowing_segment_duration_names_horizon_and_segments(self):
        with pytest.raises(ValueError, match=r"^horizon / segments underflows to 0: 5e-324 / 20$"):
            SteeringConfig(horizon=5e-324, segments=20)

    @pytest.mark.parametrize("segments", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_count_too_large_for_a_float_names_horizon_and_segments(self, segments):
        with pytest.raises(ValueError, match=r"^horizon / segments: segments is too large for a float$"):
            SteeringConfig(segments=segments)

    def test_count_within_float_range_is_accepted(self):
        cfg = SteeringConfig(horizon=1e300, segments=10**300)
        assert cfg.horizon / cfg.segments == 1.0


class TestDistance:
    def test_identical_states(self, plus_state):
        assert distance(plus_state, plus_state, True) == 0.0
        assert distance(plus_state, plus_state, False) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_pair(self, basis_state):
        minus = StateVector(-basis_state.c)
        assert distance(basis_state, minus, True) == pytest.approx(2.0)
        assert distance(basis_state, minus, False) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_states(self):
        a = StateVector(np.array([1.0, 0.0], dtype=complex))
        b = StateVector(np.array([0.0, 1.0], dtype=complex))
        assert distance(a, b, True) == pytest.approx(1.0)
        assert distance(a, b, False) == pytest.approx(1.0)

    def test_dimension_mismatch(self, basis_state):
        with pytest.raises(ValueError, match="^target dimension 3 does not match state dimension 2$"):
            distance(basis_state, StateVector(np.array([1.0, 0, 0], dtype=complex)))


class TestGradient:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_matches_central_differences(self, seed, n):
        rng = np.random.default_rng(seed)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        target = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.2, 1.0, 5)
        values = rng.uniform(-1.0, 1.0, 5)
        g = gradient(sys, ControlSchedule(durations, values), s0, target)
        fd = fd_distance_gradient(sys, durations, values, s0, target)
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(g - fd)) / scale <= 1e-6

    def test_projective_mode_matches_differences(self):
        rng = np.random.default_rng(77)
        sys = ControlSystem(random_skew(rng, 3), random_skew(rng, 3))
        s0 = StateVector(random_unit(rng, 3))
        target = StateVector(random_unit(rng, 3))
        durations = rng.uniform(0.2, 1.0, 4)
        values = rng.uniform(-1.0, 1.0, 4)
        g = gradient(sys, ControlSchedule(durations, values), s0, target, phase_sensitive=False)
        fd = fd_distance_gradient(sys, durations, values, s0, target, phase_sensitive=False)
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(g - fd)) / scale <= 1e-6

    def test_zero_control_coupling_gives_zero_gradient(self, basis_state):
        sys = ControlSystem(1j * SIGMA_Z, np.zeros((2, 2)))
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        g = gradient(sys, ControlSchedule.constant(0.3, 2.0, 5), basis_state, target)
        assert np.array_equal(g, np.zeros(5))

    @pytest.mark.parametrize("phase_sensitive", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_augmented_block_exponential(self, n, phase_sensitive):
        # same exact derivative by an independent route, so only rounding differs
        rng = np.random.default_rng(100 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        target = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.05, 1.0, 12)
        values = rng.uniform(-2.0, 2.0, 12)
        g = gradient(sys, ControlSchedule(durations, values), s0, target, phase_sensitive)
        ref = block_expm_distance_gradient(sys, durations, values, s0, target, phase_sensitive)
        assert np.max(np.abs(g - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_empty_schedule(self, su2_system, basis_state, plus_state):
        # no segment: the state stays put, the propagator is I and the gradient is empty
        empty = ControlSchedule([], [])
        assert np.array_equal(propagate(su2_system, basis_state, empty).final_state.c, basis_state.c)
        assert np.array_equal(propagate_operator(su2_system, empty), np.eye(2))
        assert gradient(su2_system, empty, basis_state, plus_state).shape == (0,)

    def test_vanishes_at_exact_minimum(self, su2_system, basis_state):
        sched = ControlSchedule(np.full(4, 0.5), np.array([0.2, -0.4, 0.8, 0.1]))
        target = propagate(su2_system, basis_state, sched, samples_per_segment=1).final_state
        g = gradient(su2_system, sched, basis_state, target)
        assert np.linalg.norm(g) <= 1e-8


class TestSteer:
    def test_backward_along_orbit_target(self, torus_system, plus_state):
        # constant eps = -1 realizes exp(-5A) exactly, so a perfect schedule
        # exists inside the search space
        target = StateVector(matrix_exp(torus_system.A, -5.0) @ plus_state.c)
        cfg = SteeringConfig(segments=20, horizon=5.0, restarts=12, max_iterations=300,
                             target_distance=1e-8, seed=0)
        cert = steer(torus_system, plus_state, target, cfg)
        assert cert.converged
        assert cert.achieved_distance <= 1e-8
        assert terminal_distance(torus_system, plus_state, cert, target) <= 1e-8

    def test_return_to_start_despite_drift(self, torus_system, plus_state):
        # eps = -1/2 cancels the generator, so the start is exactly reachable
        cfg = SteeringConfig(segments=5, horizon=1.0, restarts=4, max_iterations=200,
                             target_distance=1e-10, seed=0)
        cert = steer(torus_system, plus_state, plus_state, cfg)
        assert cert.converged
        assert cert.achieved_distance <= 1e-10

    def test_su2_orbit_targets_all_reachable(self, su2_system, basis_state):
        targets, certs = verify_reachability(su2_system, basis_state, samples=5,
                                             word_length=6, seed=7)
        assert len(targets) == len(certs) == 5
        for target, cert in zip(targets, certs):
            assert cert.converged
            assert terminal_distance(su2_system, basis_state, cert, target) <= 1e-6

    def test_off_orbit_target_flagged_with_floor(self, torus_system, plus_state):
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        bound = moduli_distance_bound(torus_system, plus_state, target)
        cfg = SteeringConfig(segments=20, horizon=5.0, restarts=4, max_iterations=200,
                             target_distance=1e-6, seed=0)
        cert = steer(torus_system, plus_state, target, cfg)
        assert not cert.converged
        assert cert.achieved_distance >= bound - 1e-12

    def test_schedule_spans_horizon(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(su2_system, basis_state, target, SteeringConfig(restarts=2, max_iterations=50))
        assert cert.schedule.total_duration == pytest.approx(5.0, abs=1e-12)
        assert cert.schedule.n_segments == 20

    def test_deterministic_bit_for_bit(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cfg = SteeringConfig(restarts=3, max_iterations=60, seed=5)
        c1 = steer(su2_system, basis_state, target, cfg)
        c2 = steer(su2_system, basis_state, target, cfg)
        assert c1.achieved_distance == c2.achieved_distance
        assert c1.converged == c2.converged
        assert c1.iterations_used == c2.iterations_used
        assert c1.restart_index == c2.restart_index
        assert np.array_equal(c1.schedule.values, c2.schedule.values)
        assert np.array_equal(c1.schedule.durations, c2.schedule.durations)

    def test_objective_monotone_in_iteration_budget(self, su2_system, basis_state):
        # accepted line-search steps never increase the objective, so a
        # longer budget can only match or improve the single-restart result
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        previous = np.inf
        for budget in (1, 2, 4, 8, 16, 32):
            cfg = SteeringConfig(restarts=1, max_iterations=budget, target_distance=1e-14)
            cert = steer(su2_system, basis_state, target, cfg)
            assert cert.achieved_distance <= previous + 1e-15
            previous = cert.achieved_distance

    def test_certificate_self_verifies(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(su2_system, basis_state, target, SteeringConfig(restarts=2, max_iterations=80))
        assert abs(terminal_distance(su2_system, basis_state, cert, target) - cert.achieved_distance) <= 1e-10

    def test_iterates_stay_on_moduli_torus(self, torus_system, plus_state):
        # the terminal state of the returned schedule keeps the conserved
        # moduli at every trajectory sample, converged or not
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        cfg = SteeringConfig(restarts=2, max_iterations=100)
        cert = steer(torus_system, plus_state, target, cfg)
        frame = commuting_frame(torus_system)
        m0 = block_moduli(frame, plus_state)
        traj = propagate(torus_system, plus_state, cert.schedule, samples_per_segment=2)
        for i in range(traj.times.size):
            m = block_moduli(frame, StateVector.normalized(traj.states[i]))
            assert np.max(np.abs(m - m0)) <= 1e-9

    def test_dimension_mismatch(self, su2_system):
        s0 = StateVector(np.array([1.0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            steer(su2_system, s0, s0, SteeringConfig(restarts=1, max_iterations=1))

    @pytest.mark.parametrize("entry", [
        steer,
        lambda sys, s0, target: gradient(sys, ControlSchedule.constant(0.0, 1.0), s0, target),
    ], ids=["steer", "gradient"])
    @pytest.mark.parametrize("wide_target", [False, True])
    def test_dimension_diagnostic_names_both(self, su2_system, basis_state, entry, wide_target):
        wide = StateVector(np.array([1.0, 0, 0], dtype=complex))
        states = (basis_state, wide) if wide_target else (wide, basis_state)
        with pytest.raises(ValueError, match="^system dimension 2 does not match state dimension 3$"):
            entry(su2_system, *states)


def generic4():
    rng = np.random.default_rng(0)
    sys = ControlSystem(random_skew(rng, 4), random_skew(rng, 4))
    return sys, StateVector(random_unit(rng, 4)), StateVector(random_unit(rng, 4))


class TestCertificateRecheck:
    """The optimizer's distance is the one a re-propagation reproduces, bit for bit."""

    @staticmethod
    def recheck(sys, s0, target, cfg):
        cert = steer(sys, s0, target, cfg)
        final = propagate(sys, s0, cert.schedule, samples_per_segment=1).final_state
        assert cert.achieved_distance == distance(final, target, cfg.phase_sensitive)
        return cert

    def test_su2(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = self.recheck(su2_system, basis_state, target, SteeringConfig(restarts=2))
        assert cert.converged

    def test_su2_projective(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0j], dtype=complex))
        self.recheck(su2_system, basis_state, target, SteeringConfig(restarts=2, phase_sensitive=False))

    def test_torus_off_orbit(self, torus_system, plus_state):
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        cfg = SteeringConfig(segments=10, restarts=2, max_iterations=40)
        assert not self.recheck(torus_system, plus_state, target, cfg).converged

    def test_generic_n4(self):
        sys, s0, target = generic4()
        self.recheck(sys, s0, target, SteeringConfig(restarts=2, max_iterations=60))


class TestStopReason:
    def test_converged(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(su2_system, basis_state, target, SteeringConfig(restarts=2))
        assert cert.converged
        assert cert.stop_reason == "converged"

    def test_max_iterations(self, su2_system, basis_state):
        # a target distance below rounding keeps every restart short of it
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cfg = SteeringConfig(restarts=2, max_iterations=5, target_distance=1e-300)
        cert = steer(su2_system, basis_state, target, cfg)
        assert not cert.converged
        assert cert.iterations_used == 5
        assert cert.stop_reason == "max_iterations"

    def test_zero_gradient(self, basis_state):
        # without control coupling the distance cannot move at all; the target keeps the
        # start's moduli, so no floor stops steer before it optimizes
        sys = ControlSystem(1j * SIGMA_Z, np.zeros((2, 2)))
        target = StateVector(np.array([np.exp(1j), 0.0], dtype=complex))
        cert = steer(sys, basis_state, target, SteeringConfig(restarts=2))
        assert not cert.converged
        assert cert.iterations_used == 0
        assert cert.stop_reason == "zero_gradient"

    def test_fixed_point_of_the_line_is_zero_gradient(self, basis_state):
        # |0> spans the kernel of the pair's one generator: no control moves it, and a target with its moduli
        # but another phase is no nearer at any control
        A = np.diag([0.0, 1j])
        target = StateVector(np.array([np.exp(1j), 0.0], dtype=complex))
        cert = steer(ControlSystem(A, 2.0 * A), basis_state, target)
        assert (cert.stop_reason, cert.converged, cert.iterations_used) == ("zero_gradient", False, 0)
        assert np.array_equal(cert.schedule.values, np.zeros(20))

    def test_taken_from_winning_restart(self, su2_system, basis_state):
        # a budget of one iteration leaves every restart short of the target
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(su2_system, basis_state, target, SteeringConfig(restarts=3, max_iterations=1))
        assert cert.stop_reason == "max_iterations"
        assert cert.iterations_used == 1

    def test_nan_distance_is_never_converged(self):
        # A NaN start stops after its one evaluation, with its NaN distance.
        lm = steering._Lm(np.zeros((1, 3)))
        stop = lm.start(np.array([np.nan]), np.full((1, 4), np.nan), SteeringConfig(segments=3))
        assert [steering._STOP_REASONS[code] for code in stop] == ["line_search_exhausted"]
        assert np.isnan(lm.f[0])
        assert not lm.fresh[0]  # and it asks for no Jacobian

    def test_nan_trial_backtracks(self):
        # A non-finite trial is one rejected step, not the end of the descent: the damping grows, and the row
        # steps again, shorter, from where it was.
        cfg = SteeringConfig(segments=3)
        rng = np.random.default_rng(12)
        r, columns = rng.normal(size=(1, 4)), rng.normal(size=(1, 3, 4))
        lm = steering._Lm(np.zeros((1, 3)))
        lm.start(np.array([0.5 * float(r[0] @ r[0])]), r, cfg)
        lm.step(columns)
        stop = lm.take(np.array([np.nan]), np.full((1, 4), np.nan), cfg)
        assert stop[0] == steering._RUNNING
        assert not lm.fresh[0]  # a rejected step forms no Jacobian
        assert lm.step(None)[0] == steering._RUNNING
        assert lm.mu[0] == steering._MU_START * steering._MU_UP
        assert np.array_equal(lm.trial[0], marquardt_step(columns[0], r[0], lm.mu[0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_start_evaluates_once_per_restart(self, basis_state, monkeypatch):
        # A NaN distance at the start ends the restart at once instead of
        # line-searching along a NaN gradient (448 rows in 56 rounds before).
        rows, forward = [0], steering.forward_pass

        def counted(sys, durations, values, c0):
            rows[0] += len(values)
            return forward(sys, durations, values, c0)

        monkeypatch.setattr(steering, "forward_pass", counted)
        sys = ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X)
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cfg = SteeringConfig(horizon=1e300, segments=2)
        cert = steer(sys, basis_state, target, cfg)
        assert rows[0] <= cfg.restarts
        assert cert.stop_reason == "line_search_exhausted"
        assert cert.iterations_used == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_forward_pass_is_not_converged(self, basis_state):
        # 1e10-scale frequencies times 5e299-long segments overflow every phase
        sys = ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X)
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(sys, basis_state, target, SteeringConfig(horizon=1e300, segments=2, restarts=2))
        assert np.isnan(cert.achieved_distance)
        assert not cert.converged
        assert cert.stop_reason != "converged"

    def test_overflowed_steer_warns_nothing(self, basis_state):
        # Called from the library, an overflowing horizon gives its certificate and no numpy warning.
        sys = ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X)
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = steer(sys, basis_state, target, SteeringConfig(horizon=1e300, segments=2, restarts=2))
        assert np.isnan(cert.achieved_distance)
        assert not cert.converged

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    @pytest.mark.parametrize("pair", ["generic3", "torus2"])
    def test_huge_generators_steer_without_warning(self, pair, scale):
        # |g|^2 and the Levenberg-Marquardt scales overflow to inf: the rows stop, and nothing warns
        if pair == "generic3":
            sys, s0 = generic3_start()
            target = StateVector(random_unit(np.random.default_rng(2), 3))
        else:
            sys, s0, target = held_out_torus(np.sqrt(2.0), -2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = steer(ControlSystem(scale * sys.A, scale * sys.B), s0, target, SteeringConfig(restarts=2))
        assert not cert.converged
        assert cert.stop_reason == "line_search_exhausted"

    def test_non_finite_distance_ranks_last(self, monkeypatch, su2_system, basis_state):
        monkeypatch.setattr(steering, "_Lm", scripted(steering._Lm,
            [(1, np.nan, "line_search_exhausted"), (1, 0.5, "line_search_exhausted"),
             (1, np.inf, "line_search_exhausted")]))
        cert = steer(su2_system, basis_state, basis_state, SteeringConfig(restarts=3))
        assert cert.restart_index == 1
        assert cert.achieved_distance == 0.5


def scripted(descent, outcomes):
    """A stand-in for the descent class ``descent``: restart r's rows evaluate ``rounds`` trials, then stop.

    ``outcomes[r]`` is ``(rounds, distance, stop_reason)``; restart r's trial is the constant
    schedule r, and its outcome is that schedule, ``distance``, ``rounds`` iterations and
    ``stop_reason``.
    """
    rounds, achieved, reasons = (np.array(column) for column in zip(*outcomes))
    codes = np.array([steering._STOP_REASONS.index(reason) for reason in reasons])

    class Scripted(descent):
        def __init__(self, starts):
            super().__init__(starts)
            self.restart = self.row % len(outcomes)
            self.trial[:] = self.restart[:, None]
            self.evaluations = np.zeros(len(self.row), int)

        def take(self, *measured):
            self.evaluations += 1
            self.values, self.f, self.iterations = self.trial, achieved[self.restart], rounds[self.restart]
            return np.where(self.evaluations == self.iterations, codes[self.restart], steering._RUNNING)

        def step(self, derivative):
            return np.full(len(self.row), steering._RUNNING)  # no row is ever fresh

        start = take

    return Scripted


class CountingKernels:
    """Tallies the two stages of ``steer``'s lockstep rounds apart.

    Forward stage: ``rounds`` holds the rows of each ``forward_pass`` call, one
    call per round and one row per distinct trial, ``forward_passes`` their sum
    and ``forward_calls`` their count, and ``goals`` each round's targets, one
    per row, as its distances are measured.  Derivative stage: ``derivatives``
    counts the rows of the adjoint sweep, one per distinct schedule whose
    Jacobian is formed, and ``derived`` holds, for each call of the stage, its
    round (counted from 1) and the targets of the rows it serves.
    """

    def __init__(self, monkeypatch):
        self.rounds, self.goals, self.derived, self.derivatives = [], [], [], 0
        forward, sweep = steering.forward_pass, steering._sweep

        def counted_forward(sys, durations, values, c):
            self.rounds.append(1 if np.ndim(values) == 1 else len(values))
            return forward(sys, durations, values, c)

        def counted_sweep(omega, *args):
            self.derivatives += len(omega)
            return sweep(omega, *args)

        def measured(measure):
            def counted_measure(c, targets, phase_sensitive):
                self.goals.append(np.array(targets))
                return measure(c, targets, phase_sensitive)
            return counted_measure

        def derived(derive):
            def counted_derive(sys, durations, passes, rows, targets, phase_sensitive):
                self.derived.append((len(self.rounds), np.array(targets)))
                return derive(sys, durations, passes, rows, targets, phase_sensitive)
            return counted_derive

        monkeypatch.setattr(steering, "forward_pass", counted_forward)
        monkeypatch.setattr(steering, "_sweep", counted_sweep)
        monkeypatch.setattr(steering, "_residuals", measured(steering._residuals))
        monkeypatch.setattr(steering, "_jacobians", derived(steering._jacobians))

    @property
    def forward_passes(self):
        return sum(self.rounds)

    @property
    def forward_calls(self):
        return len(self.rounds)

    @property
    def derived_rows(self):
        """The rows the derivative stage served: one per kept accepted row."""
        return sum(len(goals) for _, goals in self.derived)


class KeptRows:
    """Counts the rows of ``steer``'s lockstep rounds that a derivative is owed to, judged from distances alone.

    A row is owed one when its round moved it to a new point (a start, or a
    trial whose distance the descent took as its own), the round's take left it
    running, and the race kept its target.  ``owed`` sums them over rounds, and
    ``backtracked`` counts the running rows that stayed where they were.
    """

    def __init__(self, monkeypatch):
        self.owed = self.backtracked = 0
        tally = self

        class Probe(steering._Lm):
            def start(self, *measured):
                return self.judge(super().start, *measured)

            def take(self, *measured):
                return self.judge(super().take, *measured)

            def judge(self, take, *measured):
                f = self.f.copy()
                stop = take(*measured)
                running = stop == steering._RUNNING
                # an array attribute, so the race's keep drops the rows of a target it has won
                self.owe = running & (self.f != f)
                tally.backtracked += int(np.count_nonzero(running & (self.f == f)))
                return stop

            def step(self, derivative):
                tally.owed += int(np.count_nonzero(self.owe))
                return super().step(derivative)

        monkeypatch.setattr(steering, "_Lm", Probe)


def sequential_steer(sys, s0, target, cfg):
    """``steer`` with its restarts run one after another, each evaluation a single-row call.

    The reference for the lockstep race.  Restart r's k-th evaluation is in
    round k of the lockstep, so if any restart converged, the winner is the
    converged restart with the fewest evaluations (the race ends in its
    round), then the least distance, then the lowest index.  The restarts
    are the Levenberg-Marquardt reference on ``linearize``, each row's
    forward pass and Jacobian formed whatever the row's fate.  A restart that
    has used more evaluations than the fewest a converged restart needed can
    no longer win, so it stops there.  Otherwise every restart runs to its
    end and steer's rule picks the least distance, ties to the lowest
    restart, a non-finite distance last.  Also returns each restart's
    evaluation count (a stopped restart's is past the race's end, as its full
    count is) and the race's length in rounds: the winner's count if it
    converged, else the longest count.  ``TestLinearize`` proves the rows of
    ``linearize`` and of the stacked step equal to lone ones.  A one-parameter
    pair runs no race: its reference is the hitting scan toward the one
    target, one evaluation long.
    """
    line = steering._one_parameter(sys)
    if line is not None:
        cert = steering._hit(sys, s0, target, cfg, line)
        return (cert.schedule.values, cert.achieved_distance, cert.iterations_used, cert.restart_index,
                cert.stop_reason), [1], 1
    durations = np.full(cfg.segments, cfg.horizon / cfg.segments)
    results, evaluations, fewest = [], [], math.inf
    for r in range(cfg.restarts):
        restart = optimize_restart_lm(cfg, r)
        trial, count, result = next(restart), 0, None
        while count <= fewest:
            count += 1
            f, *derivatives = linearize(sys, durations, trial[None], s0.c, target.c[None], cfg.phase_sensitive)
            try:
                trial = restart.send((float(f[0]), *(d[0] for d in derivatives)))
            except StopIteration as stop:
                result = stop.value
                break
        results.append(result)
        evaluations.append(count)
        if result is not None and result[3] == "converged":
            fewest = min(fewest, count)
    converged = [r for r in range(cfg.restarts) if results[r] is not None and results[r][3] == "converged"]
    if converged:
        best = min(converged, key=lambda r: (evaluations[r], results[r][1], r))
        length = evaluations[best]
    else:
        best = min(range(cfg.restarts), key=lambda r: (not np.isfinite(results[r][1]), results[r][1], r))
        length = max(evaluations)
    values, achieved, iterations, stop_reason = results[best]
    return (values, achieved, iterations, best, stop_reason), evaluations, length


def race_rows(evaluations, length):
    """The evaluations a race of ``length`` rounds makes: each restart's own count, cut at the race's end."""
    return sum(min(count, length) for count in evaluations)


class TestEvaluationBudget:
    """Budgets in forward rows, one per distinct trial of a round, and derivative rows, one per kept accepted row."""

    def test_off_moduli_torus(self, monkeypatch, torus_system, plus_state):
        # A one-parameter pair: the hitting scan finds no hit, and its closest approach is one forward pass.
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        counts = CountingKernels(monkeypatch)
        cert = race_one(torus_system, plus_state, target, SteeringConfig(segments=10, restarts=2))
        assert cert.stop_reason == "max_iterations"
        assert not cert.converged
        assert cert.achieved_distance >= moduli_distance_bound(torus_system, plus_state, target) - 1e-12
        assert (counts.forward_calls, counts.forward_passes, counts.derivatives) == (1, 1, 0)

    def test_off_moduli_torus_default_config(self, monkeypatch, torus_system, plus_state):
        # The default window, 500 horizons each way of the zero schedule's end, scans within the budget.
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        counts = CountingKernels(monkeypatch)
        with time_budget(5):
            cert = race_one(torus_system, plus_state, target, SteeringConfig())
        assert cert.stop_reason == "max_iterations"
        assert not cert.converged
        assert cert.achieved_distance >= moduli_distance_bound(torus_system, plus_state, target) - 1e-12
        assert (counts.forward_calls, counts.forward_passes, counts.derivatives) == (1, 1, 0)

    def test_su2_up_to_down(self, monkeypatch, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cfg = SteeringConfig(restarts=8)
        _, evaluations, length = sequential_steer(su2_system, basis_state, target, cfg)
        counts = CountingKernels(monkeypatch)
        cert = steer(su2_system, basis_state, target, cfg)
        assert cert.converged
        # the race evaluates each restart until the first converged round: Levenberg-Marquardt
        # rows, 32 forward rows in 4 rounds measured, 37 when every restart ran to its own end
        # (the L-BFGS took 56 in 7 rounds, and 83)
        assert counts.forward_passes == race_rows(evaluations, length) <= 40
        assert length <= 5
        assert race_rows(evaluations, length) < sum(evaluations)
        # one lockstep round per round of the race
        assert counts.forward_calls == length < race_rows(evaluations, length)
        # 24 derivative rows measured (32 when every evaluated row formed its Jacobian): none in the
        # converging round, whose rows all leave, and none for a rejected trial
        assert counts.derivatives <= 24
        assert counts.derivatives <= counts.forward_passes - counts.rounds[-1]
        assert all(round_ < length for round_, _ in counts.derived)

    def test_every_evaluated_segment_is_decomposed(self, monkeypatch):
        # optimizer iterates never repeat, so steering shares no eigensystem
        # between segments: the matrices decomposed are the rows times segments
        sys, s0, target = generic4()
        cfg = SteeringConfig(segments=6, restarts=3, max_iterations=30)
        counts = CountingKernels(monkeypatch)
        tally = count_eigh_matrices(monkeypatch)
        steer(sys, s0, target, cfg)
        assert tally[0] == counts.forward_passes * cfg.segments > 0

    def test_one_gradient_per_forward_pass(self, monkeypatch):
        # One derivative per kept accepted row: a row gets its Jacobian exactly when its round moved it to a
        # new point and it runs on, and a rejected trial gets none, in both objectives.
        sys, s0, target = generic4()
        for phase_sensitive in (True, False):
            with monkeypatch.context() as patch:
                kept = KeptRows(patch)
                counts = CountingKernels(patch)
                cfg = SteeringConfig(restarts=3, max_iterations=40, phase_sensitive=phase_sensitive)
                steer(sys, s0, target, cfg)
            assert counts.derived_rows == counts.derivatives == kept.owed > 0
            assert kept.backtracked > 0
            assert counts.derivatives <= counts.forward_passes - kept.backtracked


def held_out_torus(lam, theta):
    """Torus pair with drift frequencies 1 and ``lam``, target ``exp(theta A)`` applied to |+>."""
    A = np.diag([1j, 1j * lam])
    s0 = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
    return ControlSystem(A, 2.0 * A), s0, StateVector(matrix_exp(A, theta) @ s0.c)


def held_out_random(n, k):
    """Random pair k of size n, drawn in order over sizes 2.. and k = 0..3 from one generator."""
    rng = np.random.default_rng(20261018)
    for m in range(2, n + 1):
        for j in range(4):
            A, B = random_skew(rng, m), random_skew(rng, m)
            s0, target = random_unit(rng, m), random_unit(rng, m)
            if (m, j) == (n, k):
                return ControlSystem(A, B), StateVector(s0), StateVector(target)


class TestHeldOutInstances:
    """Default-config steers from a held-out suite of 44 on-orbit instances.

    The suite holds tori with lambda_2 = sqrt3 and sqrt5 at five phase targets
    each, ten su(2) orbit targets, and four random pairs for each n = 2..7.  Its
    tori are one-parameter pairs (``B = 2A``), which the hitting scan serves:
    an optimizer's landscape there is periodic in the total drift time, and the
    L-BFGS that once served them missed the sqrt3, theta = -6 torus at 0.093,
    as Levenberg-Marquardt steps missed the sqrt5, theta = -6 one and
    criterion 6's back target.
    """

    @pytest.mark.parametrize(
        "instance",
        [lambda: held_out_torus(np.sqrt(5.0), 7.0), lambda: held_out_random(6, 1)],
        ids=["torus-sqrt5-theta7", "random-n6-1"],
    )
    def test_solved(self, instance):
        sys, s0, target = instance()
        cert = steer(sys, s0, target, SteeringConfig())
        assert cert.converged
        assert terminal_distance(sys, s0, cert, target) <= 1e-6

    def test_known_non_convergence(self):
        # Once the optimizer's miss, now solved: theta = -6 is the constant control -1.1 over the horizon 5.
        sys, s0, target = held_out_torus(np.sqrt(3.0), -6.0)
        cert = steer(sys, s0, target, SteeringConfig())
        assert (cert.converged, cert.stop_reason, cert.iterations_used, cert.restart_index) == (
            True, "converged", 0, 0)
        np.testing.assert_allclose(cert.schedule.values, -1.1, rtol=1e-8)
        assert terminal_distance(sys, s0, cert, target) <= 1e-6

    @pytest.mark.parametrize("instance, settings, u", [
        (lambda: held_out_torus(np.sqrt(5.0), -6.0), {}, -1.1),
        (lambda: held_out_torus(np.sqrt(2.0), -5.0),
         {"restarts": 12, "max_iterations": 300, "target_distance": 1e-8}, -1.0),
    ], ids=["torus-sqrt5-theta-6", "criterion6-back"])
    def test_levenberg_marquardt_misses_are_solved(self, monkeypatch, instance, settings, u):
        # Both are one-parameter targets that Levenberg-Marquardt steps miss; the scan needs no optimizer.
        sys, s0, target = instance()
        cfg = SteeringConfig(**settings)
        counts = CountingKernels(monkeypatch)
        cert = steer(sys, s0, target, cfg)
        assert cert.converged
        np.testing.assert_allclose(cert.schedule.values, u, rtol=1e-8)
        final = propagate(sys, s0, cert.schedule, samples_per_segment=1).final_state
        assert cert.achieved_distance == distance(final, target) <= cfg.target_distance
        assert (counts.forward_passes, counts.derivatives) == (1, 0)


def su2_up_to_down():
    return ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X), StateVector(np.array([1.0, 0.0], dtype=complex)), \
        StateVector(np.array([0.0, 1.0], dtype=complex))


def off_moduli_torus():
    A = np.diag([1j, 1j * np.sqrt(2.0)])
    plus = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
    return ControlSystem(A, 2.0 * A), plus, StateVector(np.array([1.0, 0.0], dtype=complex))


def off_moduli_torus2d():
    """The 2-D torus, a commuting pair that is not one-parameter, and the off-moduli target of ``off_moduli_torus``."""
    sys, plus, target = off_moduli_torus()
    return ControlSystem(sys.A, np.diag([1j, -1j])), plus, target


def race_one(sys, s0, target, cfg):
    """``steer``'s lockstep race toward one target, without its off-orbit check: the optimizer on a floor."""
    return steering._steer_all(sys, s0, [target], cfg)[0]


def assert_certificate_is(cert, reference, cfg):
    values, achieved, iterations, best, stop_reason = reference
    assert np.array_equal(cert.schedule.values, values)
    assert cert.achieved_distance == achieved
    assert cert.converged == (achieved <= cfg.target_distance)
    assert cert.iterations_used == iterations
    assert cert.restart_index == best
    assert cert.stop_reason == stop_reason


def su2_from_up():
    return su2_up_to_down()[:2]


def generic3_start():
    rng = np.random.default_rng(3)
    return ControlSystem(random_skew(rng, 3), random_skew(rng, 3)), StateVector(random_unit(rng, 3))


def torus2_from_plus():
    return off_moduli_torus()[:2]


def generic5():
    rng = np.random.default_rng(1)
    sys = ControlSystem(random_skew(rng, 5), random_skew(rng, 5))
    return sys, StateVector(random_unit(rng, 5)), StateVector(random_unit(rng, 5))


def generic5_start():
    return generic5()[:2]


def scripted_residuals(starts):
    """Residuals of the controls, one per restart, whose Levenberg-Marquardt descents from ``starts`` end differently.

    0: a linear residual with a zero, which converges;
    1: a linear residual with no zero, which stalls at its least squares;
    2: Rosenbrock's residual in two pairs of controls, whose steps are rejected and
    which runs out of iterations;
    3: a residual that is NaN everywhere but at restart 3's start, so that the
    damping climbs past its cap;
    4: a constant residual, with a zero gradient;
    5: a NaN residual, an overflowed start.
    Each returns ``(f, r, columns)`` at a schedule, with ``columns[j]`` the Jacobian's column j.
    """
    rng = np.random.default_rng(5)
    M, b = rng.normal(size=(6, starts.shape[1])), rng.normal(size=6)

    def evaluation(r, J):
        return 0.5 * float(r @ r), r, J.T.copy()

    def rosenbrock(x):
        r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0], 10.0 * (x[3] - x[2] ** 2), 1.0 - x[2], 0.0, 0.0])
        J = np.zeros((6, 4))
        J[0, :2], J[1, 0], J[2, 2:], J[3, 2] = (-20.0 * x[0], 10.0), -1.0, (-20.0 * x[2], 10.0), -1.0
        return evaluation(r, J)

    def nan_away(x):
        r = M @ x - b if np.array_equal(x, starts[3]) else np.full(6, np.nan)
        return evaluation(r, M)

    return [lambda x: evaluation(M @ (x - 0.5), M), lambda x: evaluation(M @ x - b, M), rosenbrock, nan_away,
            lambda x: evaluation(b, np.zeros_like(M)), lambda x: evaluation(np.full(6, np.nan), M)]


def scripted_race(descent, optimize, scripted, cfg):
    """Rows of the class ``descent`` on ``scripted(starts)``'s residuals, beside the per-restart references
    ``optimize(cfg, r)``: every round's trials and every outcome are the references'.  Returns the stop reasons seen.

    A row's derivative reaches its reference only in a round where the row forms one (it is ``fresh``); any
    other round sends a NaN derivative, which would show in the reference's later trials if it needed one.
    """
    references = [optimize(cfg, r) for r in range(cfg.restarts)]
    pending = [next(reference) for reference in references]
    objectives = scripted(np.array(pending))
    rows = descent(np.array(pending))
    take, reasons = rows.start, set()

    def leave(stop, outcomes):
        assert {int(r) for r in rows.row[stop != steering._RUNNING]} == set(outcomes)
        for i in np.flatnonzero(stop != steering._RUNNING):
            values, achieved, iterations, reason = outcomes[rows.row[i]]
            assert np.array_equal(rows.values[i], values)
            assert np.array_equal(rows.f[i], achieved, equal_nan=True)
            assert (rows.iterations[i], steering._STOP_REASONS[stop[i]]) == (iterations, reason)
            reasons.add(reason)
        rows.keep(stop == steering._RUNNING)

    while rows.row.size:
        for i, r in enumerate(rows.row):
            assert np.array_equal(rows.trial[i], pending[r])
        evaluations = (objectives[r](x) for r, x in zip(rows.row, rows.trial))
        *measured, derivative = [np.array(column) for column in zip(*evaluations)]
        stop = take(*measured, cfg)
        take = rows.take
        outcomes = {}
        for i, r in enumerate(rows.row):
            sent = derivative[i] if rows.fresh[i] else np.full_like(derivative[i], np.nan)
            try:
                pending[r] = references[r].send((float(measured[0][i]), *(column[i] for column in measured[1:]), sent))
            except StopIteration as stopped:
                outcomes[r] = stopped.value
        # a zero gradient is found in the step, every other stop in the take
        later = {r: outcome for r, outcome in outcomes.items() if outcome[3] == "zero_gradient"}
        derivative = derivative[stop == steering._RUNNING]
        leave(stop, {r: outcome for r, outcome in outcomes.items() if r not in later})
        fresh = rows.fresh
        leave(rows.step(derivative[fresh] if np.count_nonzero(fresh) else None), later)
    return reasons


class LmTally:
    """Counts the phases that the Levenberg-Marquardt rows of ``steer``'s lockstep rounds go through.

    ``rejected``: trials that did not lower the distance, after which the row runs
    on with a larger damping; ``mixed``: rounds in which some running rows take a
    step while others have theirs rejected; ``capped``: rows stopped by the
    damping's cap.
    """

    def __init__(self, monkeypatch):
        self.rejected = self.mixed = self.capped = 0
        tally = self

        class Probe(steering._Lm):
            def take(self, f_trial, r_trial, cfg):
                f = self.f
                stop = super().take(f_trial, r_trial, cfg)
                running, accepted = stop == steering._RUNNING, f_trial < f
                tally.rejected += int(np.count_nonzero(running & ~accepted))
                tally.mixed += bool(np.any(running & accepted) and np.any(running & ~accepted))
                tally.capped += int(np.count_nonzero(~running & (self.mu > steering._MU_MAX)))
                return stop

        monkeypatch.setattr(steering, "_Lm", Probe)


class TestLockstepEqualsSequential:
    """Advancing the restarts together changes no certificate field, bit for bit."""

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize(
        "instance, settings, entry",
        [
            (su2_up_to_down, {}, steer),
            # steer proves these targets off the orbit; the scan, and on the 2-D torus the race, still has to
            # run on the floor
            (off_moduli_torus, {}, race_one),
            (off_moduli_torus, {"segments": 10, "restarts": 2}, race_one),
            (off_moduli_torus2d, {}, race_one),
            (off_moduli_torus2d, {"segments": 10, "restarts": 2}, race_one),
            (generic4, {"restarts": 4}, steer),
            (lambda: held_out_torus(np.sqrt(5.0), 7.0), {}, steer),
            (lambda: held_out_random(6, 1), {}, steer),
            (lambda: held_out_torus(np.sqrt(3.0), -6.0), {}, steer),
            (generic4, {"restarts": 4, "max_iterations": 60}, steer),
            (generic5, {}, steer),
        ],
        ids=["su2", "torus-off-moduli", "torus-off-moduli-10x2", "torus2d-off-moduli", "torus2d-off-moduli-10x2",
             "generic4", "torus-sqrt5-theta7", "random-n6-1", "torus-sqrt3-theta-6", "generic4-wrapped",
             "generic5-rejected"],
    )
    def test_certificate_fields(self, instance, settings, entry, phase_sensitive):
        sys, s0, target = instance()
        cfg = SteeringConfig(phase_sensitive=phase_sensitive, **settings)
        cert = entry(sys, s0, target, cfg)
        reference, _, _ = sequential_steer(sys, s0, target, cfg)
        assert_certificate_is(cert, reference, cfg)

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("instance, settings", [
        (generic4, {"restarts": 4, "max_iterations": 60, "target_distance": 1e-8}),
        (generic5, {}),
    ], ids=["generic4-wrapped", "generic5-rejected"])
    def test_certificate_cases_mix_phases(self, monkeypatch, instance, settings, phase_sensitive):
        # Some rows have their trials rejected in rounds where others step, and every certificate field is
        # still the per-restart reference's.
        tally = LmTally(monkeypatch)
        sys, s0, target = instance()
        cfg = SteeringConfig(phase_sensitive=phase_sensitive, **settings)
        assert_certificate_is(steer(sys, s0, target, cfg), sequential_steer(sys, s0, target, cfg)[0], cfg)
        assert tally.rejected > 0
        assert tally.mixed > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scripted_lm_rows_equal_reference_every_round(self, monkeypatch):
        # Six restarts on scripted residuals share one _Lm: every round's trials
        # and every outcome equal the per-restart reference's, through every stop reason.
        cfg = SteeringConfig(segments=4, restarts=6, max_iterations=6)
        tally = LmTally(monkeypatch)
        reasons = scripted_race(steering._Lm, optimize_restart_lm, scripted_residuals, cfg)
        assert min(tally.rejected, tally.mixed, tally.capped) > 0
        assert reasons == set(steering._STOP_REASONS)

    def test_generic5_verify_equals_per_restart_race(self, monkeypatch):
        # 20 targets of a generic n = 5 pair: 160 rows a round, past numpy's
        # temporary-elision size, in both phase modes, against one steer per target;
        # its Levenberg-Marquardt rows have steps rejected in rounds where others step
        sys, s0 = generic5_start()
        tally = LmTally(monkeypatch)
        targets, certs = verify_reachability(sys, s0, samples=20)
        for cfg in (SteeringConfig(), SteeringConfig(phase_sensitive=False)):
            if not cfg.phase_sensitive:
                certs = steering._steer_all(sys, s0, targets, cfg)
            for cert, target in zip(certs, targets):
                assert_certificate_is(cert, sequential_steer(sys, s0, target, cfg)[0], cfg)
        assert min(tally.rejected, tally.mixed) > 0

    @pytest.mark.parametrize(
        "instance, samples",
        [(su2_from_up, 4), (su2_from_up, 20), (generic3_start, 4), (torus2_from_plus, 4)],
        ids=["su2x4", "su2x20", "generic3x4", "torus2x4"],
    )
    def test_verify_equals_one_steer_per_target(self, monkeypatch, instance, samples):
        sys, s0 = instance()
        counts = CountingKernels(monkeypatch)
        targets, certs = verify_reachability(sys, s0, samples=samples)
        rounds, passes = counts.forward_calls, counts.forward_passes
        cfg = SteeringConfig()
        lengths = []
        for target, cert in zip(targets, certs):
            reference, _, length = sequential_steer(sys, s0, target, cfg)
            assert_certificate_is(cert, reference, cfg)
            lengths.append(length)
        if steering._one_parameter(sys) is None:
            # one wave under the default ROUND_BYTES: one lockstep round per round of the longest race
            assert rounds == max(lengths) < sum(lengths)
        else:
            # no race: one forward pass per target, of its constant schedule
            assert rounds == passes == samples
        # verify steers phase-sensitively; the code it shares with steer also runs projectively
        cfg = SteeringConfig(phase_sensitive=False)
        for target, cert in zip(targets, steering._steer_all(sys, s0, targets, cfg)):
            assert_certificate_is(cert, sequential_steer(sys, s0, target, cfg)[0], cfg)

    def test_torus2_certificates_are_constant_schedules(self):
        # the torus2 cases above pin hitting-scan certificates: constant schedules, converged, with no iteration
        _, certs = verify_reachability(*torus2_from_plus(), samples=4)
        for cert in certs:
            assert (cert.converged, cert.stop_reason, cert.iterations_used, cert.restart_index) == (
                True, "converged", 0, 0)
            assert np.all(cert.schedule.values == cert.schedule.values[0])


class TestRace:
    """A target's restarts race: the first round in which one converges ends them all."""

    @pytest.mark.parametrize(
        "outcomes, winner",
        [
            ([(3, 5e-7, "converged"), (3, 2e-7, "converged"), (5, 0.1, "max_iterations")], 1),
            ([(4, 0.5, "max_iterations"), (3, 3e-7, "converged"), (3, 3e-7, "converged")], 1),
            ([(2, 9e-7, "converged"), (3, 1e-9, "converged")], 0),
        ],
        ids=["least-distance", "tie-to-lowest-index", "later-round-loses"],
    )
    def test_winner_among_first_converged_round(self, monkeypatch, su2_system, basis_state, outcomes, winner):
        monkeypatch.setattr(steering, "_Lm", scripted(steering._Lm, outcomes))
        counts = CountingKernels(monkeypatch)
        cert = steer(su2_system, basis_state, basis_state, SteeringConfig(restarts=len(outcomes)))
        rounds, achieved, stop_reason = outcomes[winner]
        assert (cert.restart_index, cert.achieved_distance, cert.stop_reason) == (winner, achieved, stop_reason)
        assert cert.converged
        # every restart is evaluated up to the winning round, and none after it
        assert counts.forward_calls == rounds
        assert counts.forward_passes == sum(min(r, rounds) for r, _, _ in outcomes)

    def test_converged_target_leaves_the_batch(self, monkeypatch, su2_system, basis_state):
        # the drift alone carries |0> to `early`, so restart 0 (the zero schedule) converges in round 1
        early = propagate(su2_system, basis_state, ControlSchedule.constant(0.0, 5.0, 20),
                          samples_per_segment=1).final_state
        late = StateVector(np.array([0.0, 1.0], dtype=complex))
        cfg = SteeringConfig()
        counts = CountingKernels(monkeypatch)
        certs = steering._steer_all(su2_system, basis_state, [early, late], cfg)
        assert (certs[0].converged, certs[0].restart_index, certs[0].iterations_used) == (True, 0, 0)
        rows_of_early = [int(np.all(goals == early.c, axis=1).sum()) for goals in counts.goals]
        assert rows_of_early[0] == cfg.restarts
        assert sum(rows_of_early[1:]) == 0
        assert len(counts.goals) > 1
        # the two targets share their restarts' starts, passed once; early converged in round 1, so
        # none of its rows formed a derivative, and late's 8 did
        assert counts.rounds[0] == cfg.restarts
        assert not any(np.all(goals == early.c, axis=1).any() for _, goals in counts.derived)
        assert [len(goals) for round_, goals in counts.derived if round_ == 1] == [cfg.restarts]
        for target, cert in zip([early, late], certs):
            assert_certificate_is(cert, sequential_steer(su2_system, basis_state, target, cfg)[0], cfg)

    def test_off_moduli_torus_runs_every_restart(self, monkeypatch):
        # no restart converges, so the race never ends early: the default-config
        # certificate is the least distance over every restart run to its own end
        sys, s0, target = off_moduli_torus2d()
        cfg = SteeringConfig()
        reference, evaluations, length = sequential_steer(sys, s0, target, cfg)
        assert reference[4] != "converged"
        counts = CountingKernels(monkeypatch)
        assert_certificate_is(race_one(sys, s0, target, cfg), reference, cfg)
        assert counts.forward_passes == sum(evaluations)
        assert counts.forward_calls == length == max(evaluations)

    # One su(2) target's restarts at the default config: 8 restarts x 20 segments x 2**2 complex entries.
    SU2_TARGET_BYTES = 16 * 8 * 20 * 2**2

    @pytest.mark.parametrize("round_bytes, per_wave", [(1, 1), (3 * SU2_TARGET_BYTES, 3)],
                             ids=["below-one-target", "three-targets"])
    def test_waves_change_no_certificate(self, monkeypatch, round_bytes, per_wave):
        sys, s0 = su2_from_up()
        counts = CountingKernels(monkeypatch)
        targets, certs = verify_reachability(sys, s0, samples=20)
        one_wave, derived = len(counts.goals), len(counts.derived)
        # the one wave's 20 targets tile the same 8 starts: its first round passes 8 schedules
        assert counts.rounds[0] == 8 < len(counts.goals[0]) == 160
        monkeypatch.setattr(steering, "ROUND_BYTES", round_bytes)
        waved = steering._steer_all(sys, s0, targets, SteeringConfig())
        rounds = counts.goals[one_wave:]
        assert len(rounds) > one_wave
        assert max(len(goals) for goals in rounds) <= per_wave * 8
        assert max(counts.rounds[one_wave:]) <= per_wave * 8
        assert max(len(goals) for _, goals in counts.derived[derived:]) <= per_wave * 8
        for cert, ref in zip(waved, certs):
            assert_certificate_is(cert, (ref.schedule.values, ref.achieved_distance, ref.iterations_used,
                                         ref.restart_index, ref.stop_reason), SteeringConfig())


class TestTwoStages:
    """A round's forward stage passes each distinct trial once; its derivative stage serves the kept accepted rows."""

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    def test_verify_first_round_passes_each_start_once(self, monkeypatch, phase_sensitive):
        # 4 targets x 8 restarts: 32 rows, 8 distinct starts.  Every certificate is one steer's, bit for bit;
        # projectively each row's residual and Jacobian are projected with its own target.
        sys, s0 = su2_from_up()
        targets, _ = verify_reachability(sys, s0, samples=4)
        cfg = SteeringConfig(phase_sensitive=phase_sensitive)
        counts = CountingKernels(monkeypatch)
        certs = steering._steer_all(sys, s0, targets, cfg)
        assert counts.rounds[0] == cfg.restarts
        assert len(counts.goals[0]) == 4 * cfg.restarts
        # the first derivative stage serves all 32 rows from 8 adjoint sweeps' rows
        first, goals = counts.derived[0]
        assert first == 1 and len(goals) == 4 * cfg.restarts
        assert counts.derivatives < counts.derived_rows
        monkeypatch.undo()
        for target, cert in zip(targets, certs):
            reference = steer(sys, s0, target, cfg)
            assert_certificate_is(cert, (reference.schedule.values, reference.achieved_distance,
                                         reference.iterations_used, reference.restart_index,
                                         reference.stop_reason), cfg)

    @pytest.mark.parametrize("instance, samples", [(su2_from_up, 4), (generic3_start, 4), (torus2_from_plus, 4)],
                             ids=["su2x4", "generic3x4", "torus2x4"])
    def test_converging_round_forms_no_derivative(self, monkeypatch, instance, samples):
        # In the round in which a target's race ends, and after it, none of its rows forms a derivative.
        sys, s0 = instance()
        counts = CountingKernels(monkeypatch)
        targets, certs = verify_reachability(sys, s0, samples=samples)
        derived, cfg = list(counts.derived), SteeringConfig()
        won = [(target, sequential_steer(sys, s0, target, cfg)[2]) for target, cert in zip(targets, certs)
               if cert.converged]
        assert won
        for target, length in won:
            rounds = [round_ for round_, goals in derived if np.all(goals == target.c, axis=1).any()]
            assert max(rounds, default=0) < length

    def test_rejected_lm_trial_forms_no_derivative(self):
        # A trial that does not lower the distance leaves the row where it was, with the Jacobian it held:
        # the next trial is Marquardt's step on it at a 4x damping, and no Jacobian is asked for.
        cfg = SteeringConfig(segments=3)
        rng = np.random.default_rng(11)
        r, columns = rng.normal(size=(1, 4)), rng.normal(size=(1, 3, 4))
        lm = steering._Lm(np.zeros((1, 3)))
        assert lm.start(np.array([0.5 * float(r[0] @ r[0])]), r, cfg)[0] == steering._RUNNING
        assert lm.fresh.tolist() == [True]
        assert lm.step(columns)[0] == steering._RUNNING
        assert lm.take(np.array([10.0]), rng.normal(size=(1, 4)), cfg)[0] == steering._RUNNING
        assert lm.fresh.tolist() == [False]
        assert lm.step(None)[0] == steering._RUNNING
        step = marquardt_step(columns[0], r[0], steering._MU_START * steering._MU_UP)
        assert np.array_equal(lm.trial[0], np.zeros(3) + step)
        assert np.array_equal(lm.columns, columns)

def counted_closures(monkeypatch) -> list:
    """Patch the closure that ``orbit`` calls, the package's one caller, to tally its calls; returns the live tally."""
    tally, inner = [0], orbit.closure

    def counted(generators):
        tally[0] += 1
        return inner(generators)

    monkeypatch.setattr(orbit, "closure", counted)
    return tally


def off_orbit_floor(sys, s0, target, phase_sensitive):
    """``steer``'s floor: ``moduli_distance_bound``'s ``F``, or ``F (2 - F)`` projectively."""
    F = moduli_distance_bound(sys, s0, target)
    return F if phase_sensitive else F * (2.0 - F)


def at_floor(floor, phase_sensitive):
    """A target from |+> on the diagonal torus pairs whose off-orbit floor is ``floor``: its moduli turn by an angle
    delta.

    The phase-sensitive floor is ``F = 1 - cos(delta)``, and the projective one ``F (2 - F)``.
    """
    F = floor if phase_sensitive else 1.0 - np.sqrt(1.0 - floor)
    delta = np.arccos(1.0 - F)
    return StateVector(np.array([np.cos(np.pi / 4 - delta), np.sin(np.pi / 4 - delta)], dtype=complex))


class TestOffOrbit:
    """``steer`` proves a moduli-violating target off the orbit before it optimizes, and runs no restart."""

    @pytest.mark.parametrize("phase_sensitive, floor", [(True, 1.0 - np.sqrt(0.5)), (False, 0.5)],
                             ids=["phase", "projective"])
    def test_certificate_is_the_zero_schedule(self, monkeypatch, phase_sensitive, floor):
        sys, s0, target = off_moduli_torus()
        cfg = SteeringConfig(segments=10, restarts=2, phase_sensitive=phase_sensitive)
        counts = CountingKernels(monkeypatch)
        cert = steer(sys, s0, target, cfg)
        assert off_orbit_floor(sys, s0, target, phase_sensitive) == pytest.approx(floor, rel=1e-15)
        assert (cert.stop_reason, cert.iterations_used, cert.restart_index, cert.converged) == ("off_orbit", 0, 0, False)
        assert np.array_equal(cert.schedule.values, np.zeros(10))
        assert np.array_equal(cert.schedule.durations, np.full(10, 0.5))
        assert cert.achieved_distance >= floor - 1e-12
        final = propagate(sys, s0, cert.schedule, samples_per_segment=1).final_state
        assert cert.achieved_distance == distance(final, target, phase_sensitive)
        # one forward pass of one schedule, and no gradient
        assert (counts.forward_calls, counts.forward_passes, counts.derivatives) == (1, 1, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_floor_holds_over_random_schedules(self, seed):
        # A commuting n = 4 pair in a random frame, with one two-level joint eigenspace.
        rng = np.random.default_rng([seed, 91])
        W = haar_unitary(rng, 4)
        A, B = (W @ np.diag(1j * np.array(levels)) @ W.conj().T
                for levels in ([1.0, 1.0, np.sqrt(2.0), -0.3], [0.5, 0.5, -1.0, 2.0]))
        sys, s0, target = ControlSystem(A, B), StateVector(random_unit(rng, 4)), StateVector(random_unit(rng, 4))
        floors = {ps: off_orbit_floor(sys, s0, target, ps) for ps in (True, False)}
        assert floors[False] == pytest.approx(floors[True] * (2.0 - floors[True]))
        # The phase-aware floor is at least the moduli-only one, 0.5 * sum (m0 - mt)^2.
        frame = commuting_frame(sys)
        moduli_floor = 0.5 * np.sum((block_moduli(frame, s0) - block_moduli(frame, target)) ** 2)
        assert floors[True] >= moduli_floor - 1e-15
        assert floors[True] > 0.01
        for _ in range(40):
            sched = ControlSchedule(rng.uniform(0.1, 2.0, 6), rng.uniform(-3.0, 3.0, 6))
            final = propagate(sys, s0, sched, samples_per_segment=1).final_state
            for ps, floor in floors.items():
                assert distance(final, target, ps) >= floor - 1e-12

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    def test_phase_floor_proves_equal_moduli_target_off_orbit(self, monkeypatch, phase_sensitive):
        # A 2-level joint eigenspace only turns by a phase: from (1, 0, 1)/sqrt2 the target (0, 1, 1)/sqrt2 has
        # the same block moduli, but its part in that block is orthogonal to the start's, so the floor is 0.5.
        A = np.diag([1j, 1j, 1j * np.sqrt(2.0)])
        sys = ControlSystem(A, 2.0 * A)
        s0, target = (StateVector(np.array(c) / np.sqrt(2.0)) for c in ([1.0, 0.0, 1.0], [0.0, 1.0, 1.0]))
        assert moduli_distance_bound(sys, s0, target) == pytest.approx(0.5, rel=1e-15)
        counts = CountingKernels(monkeypatch)
        cert = steer(sys, s0, target, SteeringConfig(phase_sensitive=phase_sensitive))
        assert (cert.stop_reason, cert.iterations_used, cert.converged) == ("off_orbit", 0, False)
        assert counts.derivatives == 0
        rng = np.random.default_rng(3)
        for _ in range(20):
            sched = ControlSchedule(rng.uniform(0.1, 2.0, 4), rng.uniform(-3.0, 3.0, 4))
            final = propagate(sys, s0, sched, samples_per_segment=1).final_state
            assert distance(final, target, phase_sensitive) >= off_orbit_floor(sys, s0, target, phase_sensitive) - 1e-12

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    def test_merged_block_keeps_only_the_moduli_floor(self, phase_sensitive):
        # B's levels 0 and 1 differ by 1e-11, below RANK_TOL, so they share a block; yet the control u = 5e10 turns
        # their relative phase by pi in time 2 pi, and (1, 1, 0)/sqrt2 reaches (1, -1, 0)/sqrt2.  Only the block's
        # modulus binds there, so the floor is 0 and steer must not call the target off the orbit.
        sys = ControlSystem(np.diag([1j, 1j, 1j * np.sqrt(2.0)]), np.diag([0.0, 1e-11j, 1j]))
        s0, target = (StateVector(np.array(c, dtype=complex) / np.sqrt(2.0)) for c in ([1.0, 1.0, 0.0],
                                                                                        [1.0, -1.0, 0.0]))
        frame = commuting_frame(sys)
        assert sorted(zip(map(len, frame.blocks), frame.exact)) == [(1, True), (2, False)]
        floor = off_orbit_floor(sys, s0, target, phase_sensitive)
        assert floor == 0.0
        final = propagate(sys, s0, ControlSchedule(np.array([2 * np.pi]), np.array([5e10])),
                          samples_per_segment=1).final_state
        reached = distance(final, target, phase_sensitive)
        assert floor <= reached <= 1e-9
        cfg = SteeringConfig(restarts=1, max_iterations=5, phase_sensitive=phase_sensitive)
        assert steer(sys, s0, target, cfg).stop_reason != "off_orbit"

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("ratio, off_orbit", [(50.0, False), (200.0, True)])
    def test_floor_in_the_rounding_band_runs_the_optimizer(self, monkeypatch, phase_sensitive, ratio, off_orbit):
        # A floor within 100 target distances is left to the optimizer, which cannot converge below it either.
        sys, s0, _ = off_moduli_torus2d()
        cfg = SteeringConfig(segments=10, restarts=2, max_iterations=20, phase_sensitive=phase_sensitive)
        target = at_floor(ratio * cfg.target_distance, phase_sensitive)
        assert off_orbit_floor(sys, s0, target, phase_sensitive) == pytest.approx(
            ratio * cfg.target_distance, rel=1e-6)
        counts = CountingKernels(monkeypatch)
        cert = steer(sys, s0, target, cfg)
        assert (cert.stop_reason == "off_orbit") == off_orbit
        assert (counts.derivatives > 0) == (not off_orbit)
        assert not cert.converged

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("ratio, off_orbit", [(50.0, False), (200.0, True)])
    def test_floor_in_the_rounding_band_runs_the_scan(self, monkeypatch, phase_sensitive, ratio, off_orbit):
        # On a one-parameter pair, such a floor is left to the hitting scan, which finds no hit below it.
        sys, s0, _ = off_moduli_torus()
        cfg = SteeringConfig(segments=10, restarts=2, max_iterations=20, phase_sensitive=phase_sensitive)
        target = at_floor(ratio * cfg.target_distance, phase_sensitive)
        counts = CountingKernels(monkeypatch)
        cert = steer(sys, s0, target, cfg)
        assert cert.stop_reason == ("off_orbit" if off_orbit else "max_iterations")
        assert (counts.forward_passes, counts.derivatives) == (1, 0)
        assert not cert.converged
        assert cert.achieved_distance >= off_orbit_floor(sys, s0, target, phase_sensitive) - 1e-12

    @pytest.mark.parametrize("pair", ["su2", "generic4", "so3u1"])
    def test_non_commuting_pair_pays_no_closure(self, monkeypatch, pair):
        if pair == "su2":
            sys, s0, target = su2_up_to_down()
        elif pair == "generic4":
            sys, s0, target = generic4()
        else:  # so(3) + u(1): no drift-frame certificate, so analyze pays a closure
            rng = np.random.default_rng(0)
            sys = ControlSystem(real_antisymmetric(rng, 3) + 0.7j * np.eye(3), real_antisymmetric(rng, 3))
            s0, target = StateVector(np.eye(3)[0]), StateVector(random_unit(rng, 3))
        closures = counted_closures(monkeypatch)
        cert = steer(sys, s0, target, SteeringConfig(restarts=2, max_iterations=5))
        assert cert.stop_reason != "off_orbit"
        assert closures[0] == 0
        controllability_report(sys, s0)
        assert closures[0] == (pair == "so3u1")

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300])
    def test_off_orbit_at_every_scale(self, scale):
        # The floor is scale-free; only the zero schedule's distance moves with the drift's phases.
        sys, s0, target = off_moduli_torus()
        scaled = ControlSystem(scale * sys.A, scale * sys.B)
        cfg = SteeringConfig(segments=10, restarts=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = steer(scaled, s0, target, cfg)
            assert off_orbit_floor(scaled, s0, target, True) == off_orbit_floor(sys, s0, target, True)
            final = propagate(scaled, s0, cert.schedule, samples_per_segment=1).final_state
        assert (cert.stop_reason, cert.iterations_used, cert.restart_index, cert.converged) == ("off_orbit", 0, 0, False)
        assert np.array_equal(cert.schedule.values, np.zeros(10))
        assert cert.achieved_distance == distance(final, target)
        assert cert.achieved_distance >= 1.0 - np.sqrt(0.5) - 1e-12


class TestBatchedGradient:
    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_equal_gradient_bit_for_bit(self, n, phase_sensitive):
        # Each stacked row's distance and J^T r are the lone distance and gradient, bit for bit: gradient is the
        # one-row composition of a round's two stages.  64 rows at n = 6 pass numpy's 256 KiB temporary-elision size
        rng = np.random.default_rng(300 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.05, 1.0, 9)
        for rows in [*range(1, 9), 40, 64]:
            values = rng.uniform(-2.0, 2.0, (rows, durations.size))
            values[rows // 2] = 0.0
            targets = np.array([random_unit(rng, n) for _ in range(rows)])
            f, r, columns = linearize(sys, durations, values, s0.c, targets, phase_sensitive)
            g = [columns[i] @ r[i] for i in range(rows)]
            assert f.shape == (rows,) and columns.shape == (rows, durations.size, 2 * n)
            for i in range(rows):
                sched, target = ControlSchedule(durations, values[i]), StateVector(targets[i])
                end = StateVector(forward_pass(sys, durations, values[i], s0.c)[3][-1])
                assert f[i] == distance(end, target, phase_sensitive)
                assert np.array_equal(g[i], gradient(sys, sched, s0, target, phase_sensitive))


class TestLinearize:
    """``linearize``: the residual and real endpoint Jacobian that Levenberg-Marquardt rows step on."""

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("n", ["su2", 2, 3, 4, 5])
    def test_columns_match_expm_differences(self, n, phase_sensitive):
        rng = np.random.default_rng(400 + (0 if n == "su2" else n))
        if n == "su2":
            sys, n = ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X), 2
        else:
            sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0, target = StateVector(random_unit(rng, n)), StateVector(random_unit(rng, n))
        durations, values = rng.uniform(0.2, 1.0, 6), rng.uniform(-1.0, 1.0, 6)
        f, r, columns = linearize(sys, durations, values[None], s0.c, target.c[None], phase_sensitive)
        assert r.shape == (1, 2 * n) and columns.shape == (1, 6, 2 * n)
        fd = fd_endpoint_jacobian(sys, durations, values, s0, target, phase_sensitive)
        assert np.max(np.abs(columns[0].T - fd)) <= 1e-6 * np.max(np.abs(fd))
        # the residual is the oracle's own, and half its squared norm the distance
        end = propagate(sys, s0, ControlSchedule(durations, values), samples_per_segment=1).final_state
        assert f[0] == distance(end, target, phase_sensitive)
        assert 0.5 * float(r[0] @ r[0]) == pytest.approx(f[0], rel=1e-12)

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_columns_times_residual_is_the_gradient(self, n, phase_sensitive):
        # J^T r is the distance's gradient, against the augmented block exponential's, an independent route
        rng = np.random.default_rng(500 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.05, 1.0, 9)
        values = rng.uniform(-2.0, 2.0, (8, 9))
        targets = np.array([random_unit(rng, n) for _ in range(8)])
        f, r, columns = linearize(sys, durations, values, s0.c, targets, phase_sensitive)
        for i in range(8):
            g = block_expm_distance_gradient(sys, durations, values[i], s0, StateVector(targets[i]), phase_sensitive)
            assert np.max(np.abs(columns[i] @ r[i] - g)) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rows_equal_lone_rows_bit_for_bit(self, n, phase_sensitive):
        rng = np.random.default_rng(600 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.05, 1.0, 7)
        for rows in (1, 3, 8, 32):
            values = rng.uniform(-2.0, 2.0, (rows, durations.size))
            targets = np.array([random_unit(rng, n) for _ in range(rows)])
            stacked = linearize(sys, durations, values, s0.c, targets, phase_sensitive)
            for i in range(rows):
                lone = linearize(sys, durations, values[i:i + 1], s0.c, targets[i:i + 1], phase_sensitive)
                for a, b in zip(stacked, lone):
                    assert np.array_equal(a[i], b[0])

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    def test_repeated_rows_take_their_own_targets(self, monkeypatch, phase_sensitive):
        # The forward stage passes a repeated trial once and the Jacobian's sweep runs once per distinct
        # pass, yet every row's distance, residual and Jacobian is the lone row's toward its own target.
        rng = np.random.default_rng(800)
        sys = ControlSystem(random_skew(rng, 3), random_skew(rng, 3))
        s0 = StateVector(random_unit(rng, 3))
        durations = rng.uniform(0.05, 1.0, 5)
        schedules = rng.uniform(-2.0, 2.0, (2, 5))
        values = schedules[[0, 1, 0, 0, 1]]
        targets = np.array([random_unit(rng, 3) for _ in range(5)])
        inverse, passes = steering._forward(sys, durations, values, s0.c)
        assert inverse.tolist() == [0, 1, 0, 0, 1] and len(passes[0]) == 2
        sweeps = []
        sweep = steering._sweep
        monkeypatch.setattr(steering, "_sweep", lambda omega, *args: sweeps.append(len(omega)) or sweep(omega, *args))
        f, r = steering._residuals(passes[3][inverse, -1], targets, phase_sensitive)
        columns = steering._jacobians(sys, durations, passes, inverse, targets, phase_sensitive)
        assert sweeps == [2]
        for i in range(5):
            lone = linearize(sys, durations, values[i:i + 1], s0.c, targets[i:i + 1], phase_sensitive)
            for a, b in zip((f, r, columns), lone):
                assert np.array_equal(a[i], b[0])

    @pytest.mark.parametrize("n", [2, 4])
    def test_step_rows_equal_lone_rows_bit_for_bit(self, n):
        # Each row of the stacked J^T r, J D^-1 J^T and solve, and so of the step, is the lone row's.
        rng = np.random.default_rng(700 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.05, 1.0, 20)
        for rows in (1, 3, 8, 32):
            values = rng.uniform(-2.0, 2.0, (rows, durations.size))
            targets = np.array([random_unit(rng, n) for _ in range(rows)])
            f, r, columns = linearize(sys, durations, values, s0.c, targets, True)
            mu = rng.uniform(1e-6, 1.0, rows)
            D = steering._dots(columns.reshape(-1, 2 * n), columns.reshape(-1, 2 * n)).reshape(rows, -1)
            scaled = columns / D[..., None]
            gradients = (columns @ r[..., None])[..., 0]
            products = columns.swapaxes(1, 2) @ scaled
            solved = np.linalg.solve(products + mu[:, None, None] * np.eye(2 * n), r[..., None])
            lm = steering._Lm(values)
            lm.r, lm.columns, lm.mu = r, columns, mu
            lm._propose(np.ones(rows, bool))
            for i in range(rows):
                assert np.array_equal(gradients[i], columns[i] @ r[i])
                assert np.array_equal(products[i], columns[i].T @ scaled[i])
                assert np.array_equal(solved[i], np.linalg.solve(products[i] + mu[i] * np.eye(2 * n), r[i][:, None]))
                assert np.array_equal(lm.trial[i], values[i] + marquardt_step(columns[i], r[i], mu[i]))


class TestRouting:
    """One-parameter pairs take the hitting scan; every other pair Levenberg-Marquardt steps."""

    @staticmethod
    def routed(monkeypatch, sys, s0, target, cfg):
        """Whether ``steer``'s race built an ``_Lm``, and the certificate."""
        built = []

        class Recorded(steering._Lm):
            def __init__(self, starts):
                built.append("_Lm")
                super().__init__(starts)

        monkeypatch.setattr(steering, "_Lm", Recorded)
        cert = race_one(sys, s0, target, cfg)
        return built, cert

    @pytest.mark.parametrize("pair", ["B=2A", "B=0", "A=0"])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_one_parameter_pairs_take_the_scan(self, monkeypatch, pair, scale):
        rng = np.random.default_rng(9)
        W = haar_unitary(rng, 3)
        A = W @ np.diag(1j * np.array([1.0, np.sqrt(2.0), -0.4])) @ W.conj().T
        A, B = {"B=2A": (A, 2.0 * A), "B=0": (A, np.zeros((3, 3))), "A=0": (np.zeros((3, 3)), A)}[pair]
        sys = ControlSystem(scale * A, scale * B)
        assert steering._one_parameter(sys) is not None
        s0, target = StateVector(random_unit(rng, 3)), StateVector(random_unit(rng, 3))
        counts = CountingKernels(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            built, cert = self.routed(monkeypatch, sys, s0, target, SteeringConfig())
        assert built == []
        assert (counts.forward_calls, counts.forward_passes, counts.derivatives) == (1, 1, 0)
        assert (cert.iterations_used, cert.restart_index) == (0, 0)
        assert np.all(cert.schedule.values == cert.schedule.values[0])
        if pair == "B=0":
            assert (cert.stop_reason, cert.schedule.values[0]) == ("zero_gradient", 0.0)
        elif scale == 1e300 and pair == "B=2A":  # the zero schedule's phases are past double precision
            assert (cert.stop_reason, cert.schedule.values[0]) == ("line_search_exhausted", 0.0)
        else:  # a random target is off the curve: the closest approach
            assert cert.stop_reason == "max_iterations"

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), pair=st.sampled_from(["B=bA", "A=0"]),
           beta=st.floats(-3.0, 3.0).filter(lambda beta: abs(beta) >= 0.05), theta=st.floats(-40.0, 40.0),
           phase_sensitive=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_one_parameter_targets_converge(self, seed, n, pair, beta, theta, phase_sensitive):
        # Every point exp(theta X) c0 of the curve, inside the scan's window, is one constant control away.
        rng = np.random.default_rng(seed)
        W = haar_unitary(rng, n)
        A = W @ np.diag(1j * rng.uniform(-2.0, 2.0, n)) @ W.conj().T
        sys = ControlSystem(A, beta * A) if pair == "B=bA" else ControlSystem(np.zeros((n, n)), A)
        s0 = StateVector(random_unit(rng, n))
        target = StateVector(matrix_exp(A, theta / np.linalg.norm(A)) @ s0.c)
        cfg = SteeringConfig(phase_sensitive=phase_sensitive)
        cert = steer(sys, s0, target, cfg)
        assert (cert.converged, cert.stop_reason, cert.iterations_used, cert.restart_index) == (
            True, "converged", 0, 0)
        assert np.all(cert.schedule.values == cert.schedule.values[0])
        final = propagate(sys, s0, cert.schedule, samples_per_segment=1).final_state
        assert cert.achieved_distance == distance(final, target, phase_sensitive)

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("tilt, one_parameter", [(1e-13, True), (1e-6, False)])
    def test_parallel_within_the_band(self, tilt, one_parameter, scale):
        # B = -3A tilted off A's line by a unit-scaled tilt: within 100 RANK_TOL it is one-parameter
        rng = np.random.default_rng(10)
        A, X = random_skew(rng, 4), random_skew(rng, 4)
        B = -3.0 * A + tilt * 3.0 * np.linalg.norm(A) * X / np.linalg.norm(X)
        assert (steering._one_parameter(ControlSystem(scale * A, scale * B)) is not None) == one_parameter

    @pytest.mark.parametrize("instance", [su2_up_to_down, generic4], ids=["su2", "generic4"])
    def test_generic_pairs_take_lm(self, monkeypatch, instance):
        built, cert = self.routed(monkeypatch, *instance(), SteeringConfig())
        assert built == ["_Lm"]
        assert cert.converged

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 8) for k in range(4)])
    def test_every_held_out_random_pair_converges(self, n, k):
        sys, s0, target = held_out_random(n, k)
        cert = steer(sys, s0, target, SteeringConfig())
        assert cert.converged
        assert terminal_distance(sys, s0, cert, target) <= 1e-6

    def test_long_schedule_forms_no_segments_squared_array(self):
        # Marquardt's step is solved in the 2n-dimensional residual space: at 4096 segments a
        # (rows, segments, segments) array would take 1 GiB; the round's peak stays within a few
        # of its (rows, segments, n, n) complex stacks.
        import tracemalloc

        sys, s0, target = su2_up_to_down()
        cfg = SteeringConfig(segments=4096, restarts=2, max_iterations=2)
        stack = 16 * cfg.restarts * cfg.segments * sys.n**2
        tracemalloc.start()
        try:
            cert = steer(sys, s0, target, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.iterations_used > 0
        assert peak <= 24 * stack


class TestVerifyReachability:
    def test_deterministic(self, su2_system, basis_state):
        t1, c1 = verify_reachability(su2_system, basis_state, samples=3, word_length=4, seed=11)
        t2, c2 = verify_reachability(su2_system, basis_state, samples=3, word_length=4, seed=11)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.c, b.c)
        for a, b in zip(c1, c2):
            assert a.achieved_distance == b.achieved_distance
            assert np.array_equal(a.schedule.values, b.schedule.values)

    def test_negative_seed_names_seed(self, su2_system, basis_state):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            verify_reachability(su2_system, basis_state, samples=1, seed=-1)

    def test_sample_count_validated(self, su2_system, basis_state):
        with pytest.raises(ValueError):
            verify_reachability(su2_system, basis_state, samples=0)

    @pytest.mark.parametrize("name, bad", [
        *((name, bad) for name in ("samples", "word_length", "seed") for bad in (2.0, True, None, "3")),
        ("word_length", -1),
    ])
    def test_counts_raise_before_closure(self, su2_system, basis_state, monkeypatch, name, bad):
        # The arguments are checked before any work: no forward pass runs.
        forbid_forward_passes(monkeypatch, "the argument check")
        with pytest.raises(ValueError, match=f"^{name} must be a (positive|non-negative) integer, got {bad!r}$"):
            verify_reachability(su2_system, basis_state, **{name: bad})

    def test_dimension_mismatch_raises_before_closure(self, su2_system, monkeypatch):
        forbid_forward_passes(monkeypatch, "the dimension check")
        wide = StateVector(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="system dimension 2 does not match state dimension 3"):
            verify_reachability(su2_system, wide, samples=1)

    @pytest.mark.parametrize("pair", ["su2", "torus2", "so3u1"])
    def test_makes_no_closure(self, monkeypatch, pair):
        # Targets are words of the system's own flows: no Lie algebra is built, certified pair or not.
        if pair == "su2":
            sys, s0 = ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X), StateVector(np.array([1.0, 0.0]))
        elif pair == "torus2":
            sys, s0 = off_moduli_torus()[:2]
        else:
            rng = np.random.default_rng(0)
            sys = ControlSystem(real_antisymmetric(rng, 3) + 0.7j * np.eye(3), real_antisymmetric(rng, 3))
            s0 = StateVector(np.eye(3)[0])
        closures = counted_closures(monkeypatch)
        targets, _ = verify_reachability(sys, s0, samples=2, word_length=3)
        assert closures[0] == 0
        assert not hasattr(steering, "closure")
        seeds = np.random.default_rng(7).integers(0, 2**63 - 1, size=2)  # the master's per-sample seeds
        for target, seed in zip(targets, seeds.tolist()):
            assert np.array_equal(target.c, orbit.sample_orbit(sys, s0, 3, seed=seed)[0].c)

    def test_torus2_passes_at_its_defaults(self, torus_system, plus_state):
        # The paper's non-compact case: every target is a point of the curve, hit by one constant control.
        targets, certs = verify_reachability(torus_system, plus_state)
        assert [cert.converged for cert in certs] == [True] * 20
        for target, cert in zip(targets, certs):
            final = propagate(torus_system, plus_state, cert.schedule, samples_per_segment=1).final_state
            assert cert.achieved_distance == distance(final, target)

    def test_overflowing_word_raises_without_warning(self, basis_state):
        sys = ControlSystem(1e308j * SIGMA_Z, 1e308j * SIGMA_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^orbit word factor \d+: the flow over duration .* overflows "
                                                 r"double precision$"):
                verify_reachability(sys, basis_state, samples=2)


def forbid_forward_passes(monkeypatch, check):
    """Make every forward pass that ``orbit`` or ``steering`` would run fail loudly."""
    def no_forward_pass(*args):
        raise AssertionError(f"a forward pass ran before {check}")

    for module in (orbit, steering):
        monkeypatch.setattr(module, "forward_pass", no_forward_pass)
