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
    distance,
    gradient,
    matrix_exp,
    moduli_distance_bound,
    propagate,
    steer,
    verify_reachability,
)

from reachctl import steering
from reachctl.dynamics import forward_pass

from helpers import SIGMA_X, SIGMA_Z, count_eigh_matrices, lbfgs_direction, optimize_restart, random_skew, random_unit
from oracles import block_expm_distance_gradient, fd_distance_gradient


def terminal_distance(sys, s0, cert, target):
    final = propagate(sys, s0, cert.schedule, samples_per_segment=1).final_state
    return distance(final, target)


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
        # a target distance near rounding keeps every restart short of it
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cfg = SteeringConfig(restarts=2, max_iterations=5, target_distance=1e-14)
        cert = steer(su2_system, basis_state, target, cfg)
        assert not cert.converged
        assert cert.iterations_used == 5
        assert cert.stop_reason == "max_iterations"

    def test_zero_gradient(self, basis_state):
        # without control coupling the distance cannot move at all
        sys = ControlSystem(1j * SIGMA_Z, np.zeros((2, 2)))
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(sys, basis_state, target, SteeringConfig(restarts=2))
        assert not cert.converged
        assert cert.iterations_used == 0
        assert cert.stop_reason == "zero_gradient"

    def test_taken_from_winning_restart(self, su2_system, basis_state):
        # a budget of one iteration leaves every restart short of the target
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(su2_system, basis_state, target, SteeringConfig(restarts=3, max_iterations=1))
        assert cert.stop_reason == "max_iterations"
        assert cert.iterations_used == 1

    def test_nan_distance_is_never_converged(self):
        # A NaN start stops after its one evaluation, with its NaN distance.
        lbfgs = steering._Lbfgs(np.zeros((1, 3)))
        stop = lbfgs.start(np.array([np.nan]), np.full((1, 3), np.nan), SteeringConfig(segments=3))
        assert [steering._STOP_REASONS[code] for code in stop] == ["line_search_exhausted"]
        assert np.isnan(lbfgs.f[0])

    def test_nan_trial_backtracks(self):
        # A non-finite trial is one failed step of the line search, not the end of it.
        cfg = SteeringConfig(segments=3)
        values = np.random.default_rng((cfg.seed, 1)).uniform(-1.0, 1.0, 3)
        lbfgs = steering._Lbfgs(values[None].copy())
        lbfgs.start(np.array([1.0]), np.ones((1, 3)), cfg)
        first = lbfgs.trial[0].copy()
        stop = lbfgs.advance(np.array([np.nan]), np.full((1, 3), np.nan), cfg)
        assert stop[0] == steering._RUNNING
        np.testing.assert_allclose(lbfgs.trial[0] - values, 0.5 * (first - values), rtol=0, atol=1e-15)

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

    def test_non_finite_distance_ranks_last(self, monkeypatch, su2_system, basis_state):
        monkeypatch.setattr(steering, "_Lbfgs", scripted_lbfgs(
            [(1, np.nan, "line_search_exhausted"), (1, 0.5, "line_search_exhausted"),
             (1, np.inf, "line_search_exhausted")]))
        cert = steer(su2_system, basis_state, basis_state, SteeringConfig(restarts=3))
        assert cert.restart_index == 1
        assert cert.achieved_distance == 0.5


def scripted_lbfgs(outcomes):
    """An ``_Lbfgs`` stand-in: restart r's rows evaluate ``rounds`` trials, then stop.

    ``outcomes[r]`` is ``(rounds, distance, stop_reason)``; restart r's trial is the constant
    schedule r, and its outcome is that schedule, ``distance``, ``rounds`` iterations and
    ``stop_reason``.
    """
    rounds, achieved, reasons = (np.array(column) for column in zip(*outcomes))
    codes = np.array([steering._STOP_REASONS.index(reason) for reason in reasons])

    class Scripted(steering._Lbfgs):
        def __init__(self, starts):
            super().__init__(starts)
            self.restart = self.row % len(outcomes)
            self.trial[:] = self.restart[:, None]
            self.evaluations = np.zeros(len(self.row), int)

        def advance(self, f_trial, g_trial, cfg):
            self.evaluations += 1
            self.values, self.f, self.iterations = self.trial, achieved[self.restart], rounds[self.restart]
            return np.where(self.evaluations == self.iterations, codes[self.restart], steering._RUNNING)

        start = advance

    return Scripted


class CountingKernels:
    """Counts the schedules ``steer`` evaluates: the rows of its ``forward_pass`` and batched gradient calls.

    A lockstep round evaluates one row per running restart in one call, so
    ``forward_passes`` and ``gradients`` count evaluations, and
    ``forward_calls`` counts rounds.
    """

    def __init__(self, monkeypatch):
        self.forward_passes = self.gradients = self.forward_calls = 0
        self.goals = []  # the target rows of each round's gradient call
        forward, grad = steering.forward_pass, steering._batched_gradient

        def counted_forward(sys, durations, values, c):
            self.forward_calls += 1
            self.forward_passes += 1 if np.ndim(values) == 1 else len(values)
            return forward(sys, durations, values, c)

        def counted_gradient(B, durations, forward, targets, phase_sensitive):
            self.gradients += len(targets)
            self.goals.append(np.array(targets))
            return grad(B, durations, forward, targets, phase_sensitive)

        monkeypatch.setattr(steering, "forward_pass", counted_forward)
        monkeypatch.setattr(steering, "_batched_gradient", counted_gradient)


def sequential_steer(sys, s0, target, cfg):
    """``steer`` with its restarts run one after another to their own ends, each evaluation a single-row call.

    The reference for the lockstep race.  Restart r's k-th evaluation is in
    round k of the lockstep, so if any restart converged, the winner is the
    converged restart with the fewest evaluations (the race ends in its
    round), then the least distance, then the lowest index.  Otherwise every
    restart runs to its end and steer's rule picks the least distance, ties to
    the lowest restart, a non-finite distance last.  Also returns each
    restart's evaluation count and the race's length in rounds: the winner's
    count if it converged, else the longest count.
    """
    durations = np.full(cfg.segments, cfg.horizon / cfg.segments)
    results, evaluations = [], []
    for r in range(cfg.restarts):
        restart = optimize_restart(cfg, r)
        trial, count = next(restart), 0
        while True:
            count += 1
            forward = forward_pass(sys, durations, trial, s0.c)
            f = distance(StateVector(forward[3][-1]), target, cfg.phase_sensitive)
            g = gradient(sys, ControlSchedule(durations, trial), s0, target, cfg.phase_sensitive)
            try:
                trial = restart.send((f, g))
            except StopIteration as stop:
                results.append(stop.value)
                break
        evaluations.append(count)
    converged = [r for r in range(cfg.restarts) if results[r][3] == "converged"]
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
    """Budgets in objective evaluations, each one forward pass and one gradient on it."""

    def test_off_moduli_torus(self, monkeypatch, torus_system, plus_state):
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        counts = CountingKernels(monkeypatch)
        cert = steer(torus_system, plus_state, target, SteeringConfig(segments=10, restarts=2))
        assert cert.stop_reason == "line_search_exhausted"
        assert not cert.converged
        assert cert.achieved_distance >= moduli_distance_bound(torus_system, plus_state, target) - 1e-12
        assert counts.gradients == counts.forward_passes <= 40

    def test_off_moduli_torus_default_config(self, monkeypatch, torus_system, plus_state):
        # 20 segments and 8 restarts: a restart on its floor stops at the first
        # trial that moves the distance by rounding only, instead of halving
        # the step down to its smallest value (89 calls measured, 195 without)
        target = StateVector(np.array([1.0, 0.0], dtype=complex))
        counts = CountingKernels(monkeypatch)
        cert = steer(torus_system, plus_state, target, SteeringConfig())
        assert cert.stop_reason == "line_search_exhausted"
        assert not cert.converged
        assert cert.achieved_distance >= moduli_distance_bound(torus_system, plus_state, target) - 1e-12
        assert counts.gradients == counts.forward_passes <= 120

    def test_su2_up_to_down(self, monkeypatch, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cfg = SteeringConfig(restarts=8)
        _, evaluations, length = sequential_steer(su2_system, basis_state, target, cfg)
        counts = CountingKernels(monkeypatch)
        cert = steer(su2_system, basis_state, target, cfg)
        assert cert.converged
        # the race evaluates each restart until the first converged round (56 calls
        # measured, 83 when every restart ran to its own end)
        assert counts.gradients == counts.forward_passes == race_rows(evaluations, length) <= 150
        assert race_rows(evaluations, length) < sum(evaluations)
        # one lockstep round per round of the race
        assert counts.forward_calls == length < race_rows(evaluations, length)

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
        # every evaluated schedule gets exactly one gradient row
        sys, s0, target = generic4()
        counts = CountingKernels(monkeypatch)
        steer(sys, s0, target, SteeringConfig(restarts=3, max_iterations=40))
        assert counts.gradients == counts.forward_passes > 0


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
    """Default-config steers whose outcome the exploratory phase and ``_ALPHA_MAX`` decide.

    Taken from a held-out suite of 44 on-orbit instances (tori with lambda_2 =
    sqrt3 and sqrt5 at five phase targets each, ten su(2) orbit targets, four
    random pairs for each n = 2..7): the L-BFGS steer solves 40 of them, the
    Armijo steepest descent it replaced solved 39.  These are the instances on
    which the two differ.
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
        # The periodic phase landscape is crossed only by long early steps:
        # the descent solved this target, no restart of the L-BFGS reaches
        # its basin.  A change that solves it should update this test.
        sys, s0, target = held_out_torus(np.sqrt(3.0), -6.0)
        cert = steer(sys, s0, target, SteeringConfig())
        assert not cert.converged
        assert cert.stop_reason == "line_search_exhausted"
        assert cert.achieved_distance == pytest.approx(0.0930556, abs=1e-6)


def su2_up_to_down():
    return ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X), StateVector(np.array([1.0, 0.0], dtype=complex)), \
        StateVector(np.array([0.0, 1.0], dtype=complex))


def off_moduli_torus():
    A = np.diag([1j, 1j * np.sqrt(2.0)])
    plus = StateVector.normalized(np.array([1.0, 1.0], dtype=complex))
    return ControlSystem(A, 2.0 * A), plus, StateVector(np.array([1.0, 0.0], dtype=complex))


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


class PhaseTally:
    """Counts the phases that the rows of ``steer``'s lockstep rounds go through.

    ``wrapped``: curvature pairs pushed past the memory's ``_MEMORY`` slots;
    ``rejected``: accepted steps whose pair failed the ``s.y`` test; ``resets``:
    non-empty memories cleared by a non-descent direction; ``mixed``: rounds in
    which some running rows backtrack while others start a line search.
    """

    def __init__(self, monkeypatch):
        self.wrapped = self.rejected = self.resets = self.mixed = 0
        tally, pushes = self, {}

        class Probe(steering._Lbfgs):
            def advance(self, f_trial, g_trial, cfg):
                newest, count, values = self.rho[:, 0].copy(), self.count.copy(), self.values.copy()
                stop = super().advance(f_trial, g_trial, cfg)
                reset = (count > 0) & (self.count == 0)
                pushed = (self.rho[:, 0] != newest) & ~reset
                moved = np.any(self.values != values, axis=1)
                running = stop == steering._RUNNING
                for row in self.row[pushed]:  # keyed by race, each an _Lbfgs of its own
                    pushes[id(self), row] = pushes.get((id(self), row), 0) + 1
                    tally.wrapped += pushes[id(self), row] > steering._MEMORY
                tally.rejected += int(np.count_nonzero(moved & running & ~pushed & ~reset))
                tally.resets += int(np.count_nonzero(reset))
                tally.mixed += bool(np.any(running & moved) and np.any(running & ~moved))
                return stop

        monkeypatch.setattr(steering, "_Lbfgs", Probe)


def lockstep_reference(sys, s0, targets, cfg):
    """The per-restart reference optimizer advanced in lockstep rounds, as ``steer``'s race advances its rows.

    Each round evaluates every running restart's trial in one ``forward_pass``
    and one batched gradient, so each row sees the kernel outputs ``steer``'s
    row does however large the round; each restart is its own
    ``optimize_restart`` generator.  Returns ``sequential_steer``'s reference
    tuple per target.
    """
    durations = np.full(cfg.segments, cfg.horizon / cfg.segments)
    goals = np.stack([target.c for target in targets])
    runs = {(t, r): optimize_restart(cfg, r) for t in range(len(targets)) for r in range(cfg.restarts)}
    trials = {key: next(run) for key, run in runs.items()}
    results = [{} for _ in targets]
    while trials:
        active = list(trials)
        forward = forward_pass(sys, durations, np.stack([trials[key] for key in active]), s0.c)
        rows = goals[[t for t, _ in active]]
        grads = steering._batched_gradient(sys.B, durations, forward, rows, cfg.phase_sensitive)
        won = set()
        for i, (t, r) in enumerate(active):
            f = distance(StateVector(forward[3][i, -1]), StateVector(rows[i]), cfg.phase_sensitive)
            try:
                trials[t, r] = runs[t, r].send((f, grads[i]))
            except StopIteration as stop:
                results[t][r] = stop.value
                del trials[t, r]
                won |= {t} if stop.value[3] == "converged" else set()
        trials = {key: trial for key, trial in trials.items() if key[0] not in won}
    references = []
    for outcomes in results:
        # steer's rule: the least distance, a non-finite one last, ties to the lowest restart
        finite = {r: np.isfinite(outcomes[r][1]) for r in outcomes}
        best = min(outcomes, key=lambda r: (not finite[r], outcomes[r][1] if finite[r] else 0.0, r))
        values, achieved, iterations, stop_reason = outcomes[best]
        references.append((values, achieved, iterations, best, stop_reason))
    return references


def scripted_objectives(starts):
    """Objectives of the controls, one per restart, whose descents from ``starts`` go through different phases.

    0: an ill-conditioned quadratic, long enough to wrap the pair memory;
    1: a periodic landscape with restart 1's start near a crest, so that its
    first step crosses negative curvature and fails the ``s.y`` test;
    2: the quadratic of 0, its gradient overflowing once the distance drops
    below 1, so that a non-finite direction clears a non-empty memory;
    3: a well-conditioned quadratic that converges;
    4: a quadratic whose gradient overstates its slope 1e4-fold, so that
    trials that lower the distance still fail Armijo's test.
    Each returns ``(f, g)`` at a schedule.
    """
    m = starts.shape[1]
    scale, centre = np.logspace(0, 3, m), np.linspace(-0.5, 0.5, m)

    def conditioned(x):
        return 0.25 + 0.5 * float(scale @ (x - centre) ** 2), scale * (x - centre)

    def periodic(x):
        phase = 2.0 * (x - starts[1]) + 0.3
        return 4.5 + float(np.sum(np.cos(phase))), -2.0 * np.sin(phase)

    def overflowing(x):
        f, g = conditioned(x)
        return f, np.where(np.arange(m) == 0, np.inf, g) if f < 1.0 else g

    def converging(x):
        return 1.5 * float(np.sum((x - centre) ** 2)), 3.0 * (x - centre)

    def misscaled(x):
        return 1.0 + 0.5 * float(np.sum((x - centre) ** 2)), 1e4 * (x - centre)

    return [conditioned, periodic, overflowing, converging, misscaled]


class TestLockstepEqualsSequential:
    """Advancing the restarts together changes no certificate field, bit for bit."""

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize(
        "instance, settings",
        [
            (su2_up_to_down, {}),
            (off_moduli_torus, {}),
            (off_moduli_torus, {"segments": 10, "restarts": 2}),
            (generic4, {"restarts": 4}),
            (lambda: held_out_torus(np.sqrt(5.0), 7.0), {}),
            (lambda: held_out_random(6, 1), {}),
            (lambda: held_out_torus(np.sqrt(3.0), -6.0), {}),
            (generic4, {"restarts": 4, "max_iterations": 60}),
            (generic5, {}),
        ],
        ids=["su2", "torus-off-moduli", "torus-off-moduli-10x2", "generic4",
             "torus-sqrt5-theta7", "random-n6-1", "torus-sqrt3-theta-6", "generic4-wrapped", "generic5-rejected"],
    )
    def test_certificate_fields(self, instance, settings, phase_sensitive):
        sys, s0, target = instance()
        cfg = SteeringConfig(phase_sensitive=phase_sensitive, **settings)
        cert = steer(sys, s0, target, cfg)
        reference, _, _ = sequential_steer(sys, s0, target, cfg)
        assert_certificate_is(cert, reference, cfg)

    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("instance, settings, phase", [
        (generic4, {"restarts": 4, "max_iterations": 60}, "wrapped"),
        (generic5, {}, "rejected"),
    ], ids=["generic4-wrapped", "generic5-rejected"])
    def test_certificate_cases_mix_phases(self, monkeypatch, instance, settings, phase, phase_sensitive):
        # so the cases above pin rounds whose rows wrap the pair memory, or
        # reject a pair, while other rows backtrack or start a line search
        tally = PhaseTally(monkeypatch)
        steer(*instance(), SteeringConfig(phase_sensitive=phase_sensitive, **settings))
        assert getattr(tally, phase) > 0
        assert tally.mixed > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scripted_rows_equal_reference_every_round(self, monkeypatch):
        # Five restarts on scripted objectives share one _Lbfgs: every round's
        # trials and every outcome equal the per-restart reference's.
        cfg = SteeringConfig(segments=4, restarts=5, max_iterations=80)
        tally = PhaseTally(monkeypatch)
        references = [optimize_restart(cfg, r) for r in range(cfg.restarts)]
        pending = [next(reference) for reference in references]
        objectives = scripted_objectives(np.array(pending))
        lbfgs = steering._Lbfgs(np.array(pending))
        update, reasons = lbfgs.start, set()
        while lbfgs.row.size:
            outcomes = {}
            for i, r in enumerate(lbfgs.row):
                assert np.array_equal(lbfgs.trial[i], pending[r])
            f, g = (np.array(column) for column in zip(*(objectives[r](x) for r, x in zip(lbfgs.row, lbfgs.trial))))
            for i, r in enumerate(lbfgs.row):
                try:
                    pending[r] = references[r].send((float(f[i]), g[i]))
                except StopIteration as stop:
                    outcomes[r] = stop.value
            stop = update(f, g, cfg)
            update = lbfgs.advance
            assert {int(r) for r in lbfgs.row[stop != steering._RUNNING]} == set(outcomes)
            for i in np.flatnonzero(stop != steering._RUNNING):
                values, achieved, iterations, reason = outcomes[lbfgs.row[i]]
                assert np.array_equal(lbfgs.values[i], values)
                assert (lbfgs.f[i], lbfgs.iterations[i], steering._STOP_REASONS[stop[i]]) == (achieved, iterations, reason)
                reasons.add(reason)
            lbfgs.keep(stop == steering._RUNNING)
        assert min(tally.wrapped, tally.rejected, tally.resets, tally.mixed) > 0
        assert {"converged", "line_search_exhausted"} <= reasons

    def test_non_descent_row_forgets_its_pairs(self):
        # No stored pair has s.y <= 0, so -H g is always a descent direction up
        # to rounding; a negative rho makes row 0's an ascent one.  That row
        # goes down the gradient with an empty memory, beside row 1's two-loop.
        g = np.array([[1.0, 0.5, -0.25], [1.0, 0.5, -0.25]])
        s, y, rho = np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]), [-1.0, 0.5]
        lbfgs = steering._Lbfgs(np.zeros((2, 3)))
        lbfgs.g, lbfgs.pairs[:, 0, 0], lbfgs.pairs[:, 0, 1], lbfgs.count[:] = g, s, y, 1
        lbfgs.rho[:, 0], lbfgs.gamma[:] = rho, [1.0 / (r * float(y @ y)) for r in rho]
        assert float(g[0] @ lbfgs_direction(g[0], [(s, y, rho[0])])) > 0.0
        lbfgs._search(np.ones(2, bool), steering._dots(g, g))
        assert np.array_equal(lbfgs.d, [-g[0], lbfgs_direction(g[1], [(s, y, rho[1])])])
        assert lbfgs.slope[0] == -float(g[0] @ g[0])
        assert (lbfgs.count.tolist(), lbfgs.gamma[0], np.count_nonzero(lbfgs.rho[0])) == ([0, 1], 1.0, 0)

    def test_generic5_verify_equals_per_restart_race(self, monkeypatch):
        # 20 targets of a generic n = 5 pair: 160 rows a round, in both phase
        # modes, against the per-restart reference fed the same kernel outputs
        sys, s0 = generic5_start()
        tally = PhaseTally(monkeypatch)
        targets, certs = verify_reachability(sys, s0, samples=20)
        for cfg in (SteeringConfig(), SteeringConfig(phase_sensitive=False)):
            if not cfg.phase_sensitive:
                certs = steering._steer_all(sys, s0, targets, cfg)
            for cert, reference in zip(certs, lockstep_reference(sys, s0, targets, cfg)):
                assert_certificate_is(cert, reference, cfg)
        assert min(tally.wrapped, tally.rejected, tally.mixed) > 0

    @pytest.mark.parametrize(
        "instance, samples",
        [(su2_from_up, 4), (su2_from_up, 20), (generic3_start, 4), (torus2_from_plus, 4)],
        ids=["su2x4", "su2x20", "generic3x4", "torus2x4"],
    )
    def test_verify_equals_one_steer_per_target(self, monkeypatch, instance, samples):
        sys, s0 = instance()
        counts = CountingKernels(monkeypatch)
        targets, certs = verify_reachability(sys, s0, samples=samples)
        rounds = counts.forward_calls
        cfg = SteeringConfig()
        lengths = []
        for target, cert in zip(targets, certs):
            reference, _, length = sequential_steer(sys, s0, target, cfg)
            assert_certificate_is(cert, reference, cfg)
            lengths.append(length)
        # one wave under the default ROUND_BYTES: one lockstep round per round of the longest race
        assert rounds == max(lengths) < sum(lengths)
        # verify steers phase-sensitively; the lockstep code it shares with steer also runs projectively
        cfg = SteeringConfig(phase_sensitive=False)
        for target, cert in zip(targets, steering._steer_all(sys, s0, targets, cfg)):
            assert_certificate_is(cert, sequential_steer(sys, s0, target, cfg)[0], cfg)

    def test_torus2_certificates_include_exhausted_restarts(self):
        # so the torus2 cases above pin a winning restart that stopped as line_search_exhausted
        _, certs = verify_reachability(*torus2_from_plus(), samples=4)
        assert "line_search_exhausted" in {cert.stop_reason for cert in certs}


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
        monkeypatch.setattr(steering, "_Lbfgs", scripted_lbfgs(outcomes))
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
        for target, cert in zip([early, late], certs):
            assert_certificate_is(cert, sequential_steer(su2_system, basis_state, target, cfg)[0], cfg)

    def test_off_moduli_torus_runs_every_restart(self, monkeypatch):
        # no restart converges, so the race never ends early: the default-config
        # certificate is the least distance over every restart run to its own end
        sys, s0, target = off_moduli_torus()
        cfg = SteeringConfig()
        reference, evaluations, length = sequential_steer(sys, s0, target, cfg)
        assert reference[4] != "converged"
        counts = CountingKernels(monkeypatch)
        assert_certificate_is(steer(sys, s0, target, cfg), reference, cfg)
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
        one_wave = len(counts.goals)
        monkeypatch.setattr(steering, "ROUND_BYTES", round_bytes)
        waved = steering._steer_all(sys, s0, targets, SteeringConfig())
        rounds = counts.goals[one_wave:]
        assert len(rounds) > one_wave
        assert max(len(goals) for goals in rounds) <= per_wave * 8
        for cert, ref in zip(waved, certs):
            assert_certificate_is(cert, (ref.schedule.values, ref.achieved_distance, ref.iterations_used,
                                         ref.restart_index, ref.stop_reason), SteeringConfig())


class TestBatchedGradient:
    @pytest.mark.parametrize("phase_sensitive", [True, False], ids=["phase", "projective"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_equal_gradient_bit_for_bit(self, n, phase_sensitive):
        rng = np.random.default_rng(300 + n)
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.05, 1.0, 9)
        for rows in range(1, 9):
            values = rng.uniform(-2.0, 2.0, (rows, durations.size))
            values[rows // 2] = 0.0
            targets = np.array([random_unit(rng, n) for _ in range(rows)])
            forward = forward_pass(sys, durations, values, s0.c)
            batched = steering._batched_gradient(sys.B, durations, forward, targets, phase_sensitive)
            assert batched.shape == (rows, durations.size)
            for i in range(rows):
                single = gradient(sys, ControlSchedule(durations, values[i]), s0, StateVector(targets[i]),
                                  phase_sensitive)
                assert np.array_equal(batched[i], single)


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
        def no_closure(generators):
            raise AssertionError("closure ran before the argument check")

        monkeypatch.setattr(steering, "closure", no_closure)
        with pytest.raises(ValueError, match=f"^{name} must be a (positive|non-negative) integer, got {bad!r}$"):
            verify_reachability(su2_system, basis_state, **{name: bad})

    def test_dimension_mismatch_raises_before_closure(self, su2_system, monkeypatch):
        def no_closure(generators):
            raise AssertionError("closure ran before the dimension check")

        monkeypatch.setattr(steering, "closure", no_closure)
        wide = StateVector(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="system dimension 2 does not match state dimension 3"):
            verify_reachability(su2_system, wide, samples=1)
