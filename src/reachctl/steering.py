"""Control synthesis: steer an initial state to a target on its orbit.

This is the constructive companion to the orbit analysis: given a target that
lies on the orbit, a multi-start quasi-Newton (L-BFGS) optimizer over
piecewise-constant schedules produces a concrete control witnessing
reachability, with exact segment-wise derivatives taken in the segment
eigenbases of the forward pass that the objective has already computed.  The
restarts advance together, and so do those of every target of a
:func:`verify_reachability` call: each round makes one stacked forward pass
and one batched gradient over every ``(target, restart)`` still running.  A
target's restarts race: in the round where one of them converges, the others
leave the batch, and the certificate is the least distance among the
restarts that converged in that round (ties to the lowest index).  A target
that never converges runs every restart to its end and keeps the least
distance.  Targets are independent, so a verify gives the certificates of
one :func:`steer` per target.  The targets go in waves of as many as keep a
round's largest complex array, ``rows * segments * n**2`` entries, within
``ROUND_BYTES``; a lone target always runs.  A certificate that fails to
converge is a flagged optimizer failure and nothing more -- reachability of
orbit points is a theorem, so non-convergence is never evidence against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSchedule, ControlSystem, StateVector, forward_pass
from .lie import closure
from .matrices import _check_count, _check_dimension, _check_positive
from .orbit import sample_orbit

__all__ = [
    "SteeringConfig",
    "ReachabilityCertificate",
    "distance",
    "gradient",
    "steer",
    "verify_reachability",
]

# Armijo sufficient-decrease constant, line search bounds and L-BFGS memory.
_ARMIJO = 1e-4
_ALPHA_MAX = 4.0
_ALPHA_MIN = 1e-16
_MEMORY = 8

# The largest complex array of a lockstep round, ``rows * segments * n**2``
# entries of 16 bytes, stays within this many bytes: several targets' restarts
# share a round only while it does (a lone target's restarts always do).
ROUND_BYTES = 2**25


@dataclass(frozen=True)
class SteeringConfig:
    """Optimizer settings for :func:`steer`.

    ``phase_sensitive`` selects the exact sphere distance (default) rather
    than the projective overlap objective; the orbit lives on the sphere with
    phases, so phase-sensitive is the faithful notion.
    """

    segments: int = 20
    horizon: float = 5.0
    restarts: int = 8
    max_iterations: int = 500
    target_distance: float = 1e-6
    seed: int = 0
    phase_sensitive: bool = True

    def __post_init__(self):
        _check_count(self.segments, "segments")
        _check_positive(self.horizon, "horizon")
        if not self.horizon / self.segments > 0:
            raise ValueError(f"horizon / segments underflows to 0: {self.horizon!r} / {self.segments}")
        _check_count(self.restarts, "restarts")
        _check_count(self.max_iterations, "max_iterations")
        _check_positive(self.target_distance, "target_distance")
        _check_count(self.seed, "seed", 0)


@dataclass
class ReachabilityCertificate:
    """A schedule plus the terminal distance it achieves.

    ``converged`` means ``achieved_distance <= target_distance``; the
    schedule can be re-propagated by anyone to check the claim, which makes
    certificates self-verifying.  ``stop_reason`` says why the winning
    restart stopped: ``"converged"``, ``"max_iterations"``,
    ``"zero_gradient"`` or ``"line_search_exhausted"`` (the line search
    backtracked below its smallest step, or a trial step stalled).  A
    converged certificate comes from the first round in which any restart
    converged, so ``restart_index`` names the fastest restart, not the one
    that would have got closest.  ``iterations_used`` counts the winning
    restart's line searches, not its objective evaluations: a line search
    evaluates one or more trial steps.
    """

    schedule: ControlSchedule
    achieved_distance: float
    converged: bool
    iterations_used: int
    restart_index: int
    stop_reason: str


def _raw_distance(c: np.ndarray, t: np.ndarray, phase_sensitive: bool) -> float:
    if phase_sensitive:
        diff = c - t
        return float(0.5 * np.real(np.vdot(diff, diff)))
    overlap = np.vdot(t, c)
    return float(1.0 - np.abs(overlap) ** 2)


def distance(s: StateVector, target: StateVector, phase_sensitive: bool = True) -> float:
    """Distance objective between two unit states.

    Phase-sensitive: ``0.5 * |c - c_target|^2`` in [0, 2], the exact squared
    chordal distance on the sphere.  Projective: ``1 - |<c_target, c>|^2`` in
    [0, 1], which quotients the global phase.
    """
    _check_dimension("target", target.n, s.n)
    return _raw_distance(s.c, target.c, phase_sensitive)


def gradient(
    sys: ControlSystem,
    sched: ControlSchedule,
    s0: StateVector,
    target: StateVector,
    phase_sensitive: bool = True,
) -> np.ndarray:
    """Exact derivative of the terminal distance in each segment's control value.

    With ``A + eps_j B = V_j diag(i omega_j) V_j^dagger`` the derivative of
    ``exp(dt_j (A + eps_j B))`` in ``eps_j`` is ``V_j (phi_j * V_j^dagger B V_j)
    V_j^dagger``, ``phi_j`` holding the divided differences of ``exp(dt_j z)``
    over pairs of ``i omega_j`` in sinc form (GRAPE in DYNAMO's form).  It is
    stacked over segments; only the adjoint's backward sweep loops.  This is the
    one-schedule form of the row-batched kernel with which :func:`steer`
    differentiates all its restarts' trials in one call per round, and it
    equals that kernel's row bit for bit.
    """
    _check_dimension("system", sys.n, s0.n, target.n)
    rows = tuple(part[None] for part in forward_pass(sys, sched.durations, sched.values, s0.c))
    return _batched_gradient(sys.B, sched.durations, rows, target.c[None], phase_sensitive)[0]


def _batched_gradient(
    B: np.ndarray, durations: np.ndarray, forward: tuple, targets: np.ndarray, phase_sensitive: bool
) -> np.ndarray:
    """:func:`gradient` of each row ``i`` of an ``(r, m)`` :func:`forward_pass` toward ``targets[i]``."""
    omega, V, coords, ends = forward
    V_dagger = V.conj().swapaxes(-1, -2)

    if phase_sensitive:
        w, prefactor = ends[:, -1] - targets, 1.0 + 0.0j
    else:
        overlaps = [np.vdot(t, c) for t, c in zip(targets, ends[:, -1])]
        w, prefactor = targets, -2.0 * np.conj(np.array(overlaps))[:, None]

    # adjoint[:, j] = V_j^dagger w_j, with w_j the adjoint state leaving segment j.
    backward = np.exp(-1j * omega * durations[:, None])
    adjoint = np.empty_like(coords)
    V_j, V_dagger_j = V.swapaxes(1, 0), V_dagger.swapaxes(1, 0)
    backward_j, adjoint_j = (a[..., None].swapaxes(1, 0) for a in (backward, adjoint))
    w = w[..., None]
    for j in range(durations.size - 1, -1, -1):
        x = np.matmul(V_dagger_j[j], w, out=adjoint_j[j])
        w = V_j[j] @ (backward_j[j] * x)

    dt = durations[:, None, None]
    mean = omega[..., :, None] + omega[..., None, :]
    gap = omega[..., :, None] - omega[..., None, :]
    phi = dt * np.exp(0.5j * dt * mean) * np.sinc(dt * gap / (2.0 * np.pi))
    frechet = phi * (V_dagger @ B @ V)
    pairing = adjoint.conj()[..., None, :] @ (frechet @ coords[..., None])
    return np.real(prefactor * pairing[..., 0, 0])


def _lbfgs_direction(g: np.ndarray, pairs: list) -> np.ndarray:
    """The L-BFGS step ``-H g``: the two-loop recursion over ``(s, y, 1 / s.y)`` pairs, oldest first.

    The initial inverse Hessian is ``gamma I`` with ``gamma = s.y / y.y`` of the newest pair.
    """
    q = g.copy()
    coefficients = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        coefficients.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(coefficients)):
        q += (a - rho * float(y @ q)) * s
    return -q


def _optimize_restart(cfg: SteeringConfig, restart: int):
    """One restart's L-BFGS: ``f, g = yield trial`` evaluates; returns ``(values, f, iterations, stop_reason)``."""
    if restart == 0:
        # The zero schedule: the pure-drift baseline is always examined.
        values = np.zeros(cfg.segments)
    else:
        rng = np.random.default_rng((cfg.seed, restart))
        values = rng.uniform(-1.0, 1.0, cfg.segments)

    f, g = yield values
    pairs = []  # the last _MEMORY (s, y, 1 / s.y) curvature pairs, oldest first
    step = 1.0
    exploring = True
    iterations = 0
    while not f <= cfg.target_distance:  # a NaN distance never counts as converged
        if not math.isfinite(f):
            # An overflowed start: every trial along a NaN direction is NaN too.
            return values, f, iterations, "line_search_exhausted"
        if iterations == cfg.max_iterations:
            return values, f, iterations, "max_iterations"
        if float(g @ g) <= 1e-28:
            return values, f, iterations, "zero_gradient"
        iterations += 1
        d = _lbfgs_direction(g, pairs)
        slope = float(g @ d)
        if not slope < 0.0:
            pairs.clear()
            d, slope = -g, -float(g @ g)
        # Exploratory phase: until the first backtrack, double the last step
        # (up to _ALPHA_MAX) so early steps can cross shallow local minima.
        step = min(2.0 * step, _ALPHA_MAX) if exploring else 1.0
        while step >= _ALPHA_MIN:
            trial = values + step * d
            f_trial, g_trial = yield trial
            if f_trial <= cfg.target_distance:
                return trial, f_trial, iterations, "converged"
            if abs(f - f_trial) <= 1e-12 * f:
                # A stall, such as a moduli floor: the trial moved f by rounding only.
                if f_trial < f:
                    values, f = trial, f_trial
                return values, f, iterations, "line_search_exhausted"
            if f_trial < f and f_trial <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
            exploring = False
        else:
            return values, f, iterations, "line_search_exhausted"
        s, y = trial - values, g_trial - g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs.append((s, y, 1.0 / sy))
            del pairs[:-_MEMORY]
        values, f, g = trial, f_trial, g_trial
    return values, f, iterations, "converged"


def _steer_all(
    sys: ControlSystem, s0: StateVector, targets: list[StateVector], cfg: SteeringConfig
) -> list[ReachabilityCertificate]:
    """:func:`steer` for every target, in waves of targets that keep each round under ``ROUND_BYTES``."""
    wave = max(1, ROUND_BYTES // (16 * cfg.restarts * cfg.segments * sys.n**2))
    return [cert for lo in range(0, len(targets), wave) for cert in _race(sys, s0, targets[lo:lo + wave], cfg)]


def _race(
    sys: ControlSystem, s0: StateVector, targets: list[StateVector], cfg: SteeringConfig
) -> list[ReachabilityCertificate]:
    """:func:`steer`'s lockstep rounds over every ``(target, restart)`` at once: one certificate per target."""
    durations = np.full(cfg.segments, cfg.horizon / cfg.segments)
    goals = np.stack([target.c for target in targets])
    runs = {(t, r): _optimize_restart(cfg, r) for t in range(len(targets)) for r in range(cfg.restarts)}
    trials = {key: next(run) for key, run in runs.items()}
    results = [{} for _ in targets]
    while trials:
        active = list(trials)
        forward = forward_pass(sys, durations, np.stack([trials[key] for key in active]), s0.c)
        rows = goals[[t for t, _ in active]]
        grads = _batched_gradient(sys.B, durations, forward, rows, cfg.phase_sensitive)
        won = set()
        for i, (t, r) in enumerate(active):
            f = _raw_distance(forward[3][i, -1], rows[i], cfg.phase_sensitive)
            try:
                trials[t, r] = runs[t, r].send((f, grads[i]))
            except StopIteration as stop:
                results[t][r] = stop.value
                del trials[t, r]
                if stop.value[3] == "converged":
                    won.add(t)
        # The race: once a restart of t has converged, t's other restarts leave the batch.
        trials = {key: trial for key, trial in trials.items() if key[0] not in won}

    certificates = []
    for outcomes in results:
        # A converged distance is below every other one, so this picks among the winning round's.
        best = min(outcomes, key=lambda r: (not np.isfinite(outcomes[r][1]), outcomes[r][1], r))
        values, achieved, iterations, stop_reason = outcomes[best]
        certificates.append(ReachabilityCertificate(
            schedule=ControlSchedule(durations, values),
            achieved_distance=achieved,
            converged=achieved <= cfg.target_distance,
            iterations_used=iterations,
            restart_index=best,
            stop_reason=stop_reason,
        ))
    return certificates


def steer(
    sys: ControlSystem,
    s0: StateVector,
    target: StateVector,
    cfg: SteeringConfig | None = None,
) -> ReachabilityCertificate:
    """Synthesize a piecewise-constant control driving ``s0`` toward ``target``.

    Runs ``cfg.restarts`` independent L-BFGS descents over equal-duration
    segments spanning the horizon.  Restart 0 starts from the all-zeros
    schedule; restart ``r`` draws initial values uniformly from [-1, 1] with a
    generator derived from ``(cfg.seed, r)``, so results are reproducible.
    The restarts race: the first certificate to converge is returned, and
    when several converge in the same round, the smallest achieved distance,
    ties to the smallest restart index.  If none converges, every restart
    runs to its end and the best certificate (smallest achieved distance,
    ties to the smallest restart index, a non-finite distance from an
    overflow last) is returned.

    Each evaluation is one forward pass and the exact gradient on it.  The
    restarts advance together: each round stacks the pending trial of every
    running restart into one ``(r, segments)`` array for one
    :func:`forward_pass` and one batched gradient, and a restart that stops
    leaves the batch, as do all of them in the round one converges.  Rows are
    computed bit for bit as lone evaluations, and round k evaluates each
    running restart's k-th trial, so the result is that of running the
    restarts one after another and keeping the converged one with the fewest
    evaluations.  ``iterations_used`` counts the winning restart's line
    searches.  A round holds several arrays of ``restarts * segments * n**2``
    complex entries, so large settings can raise MemoryError.

    The direction is the two-loop recursion over the last 8 curvature pairs
    (``-g`` when that is not a descent direction), and a backtracking
    (halving) Armijo line search with strict decrease takes the step.  While
    every line search of the restart has accepted its first trial, that trial
    doubles the last step, from 2 up to 4, so early steps can cross the
    local minima of periodic landscapes; after the first backtrack it is the
    unit step.  A restart stops at the first evaluation within
    ``cfg.target_distance`` (``"converged"``), after ``cfg.max_iterations``
    line searches, at a zero gradient, or as ``"line_search_exhausted"`` when
    the line search fails, a trial step changes the distance by at most a
    relative 1e-12 (a stall, such as a moduli floor), or the starting distance
    is not finite (an overflow), which costs one evaluation.

    A non-converged certificate is a valid, flagged outcome: it reports that
    the optimizer failed (or the target is off the orbit), never that an
    orbit point is unreachable.

    Raises
    ------
    ValueError
        Naming both dimensions when a state's is not the system's.
    """
    cfg = cfg or SteeringConfig()
    _check_dimension("system", sys.n, s0.n, target.n)
    return _steer_all(sys, s0, [target], cfg)[0]


def verify_reachability(
    sys: ControlSystem,
    s0: StateVector,
    samples: int = 20,
    word_length: int = 6,
    seed: int = 7,
) -> tuple[list[StateVector], list[ReachabilityCertificate]]:
    """Sample orbit points and steer to each: the end-to-end reachability check.

    Targets come from :func:`reachctl.orbit.sample_orbit`, so they lie on the
    orbit by construction and the check never presupposes what it is testing.
    Per-sample seeds are drawn from a master generator seeded with ``seed``.
    Every target is steered to with the default :class:`SteeringConfig`, and
    the targets' restarts advance together in the lockstep rounds of
    :func:`steer`, each target racing its own restarts, so the certificates
    equal one :func:`steer` per target.  A wave of targets costs as many
    rounds as its longest race: the round its first restart converged in, or
    its longest restart's evaluations if none converged.  Targets go in
    waves of as many as keep a round's largest complex array, ``targets *
    restarts * segments * n**2`` entries of 16 bytes, within ``ROUND_BYTES``
    (32 MiB): the default 20 samples run in one wave up to n = 25, and more
    samples or a larger n take more waves, not more memory per round.
    Returns the targets and one certificate each, in order.

    Raises
    ------
    ValueError
        Before the closure runs, naming a bad count (``samples``,
        ``word_length``, ``seed``) or both dimensions when they differ.
    """
    _check_count(samples, "samples")
    _check_count(word_length, "word_length", 0)
    _check_count(seed, "seed", 0)
    _check_dimension("system", sys.n, s0.n)
    basis = closure([sys.A, sys.B])
    master = np.random.default_rng(seed)
    sample_seeds = [int(x) for x in master.integers(0, 2**63 - 1, size=samples)]
    targets = [sample_orbit(basis, s0, word_length, seed=s)[0] for s in sample_seeds]
    return targets, _steer_all(sys, s0, targets, SteeringConfig())
