"""Control synthesis: steer an initial state to a target on its orbit.

This is the constructive companion to the orbit analysis: given a target that
lies on the orbit, a multi-start quasi-Newton (L-BFGS) optimizer over
piecewise-constant schedules produces a concrete control witnessing
reachability, with exact segment-wise derivatives taken in the segment
eigenbases of the forward pass that the objective has already computed.  The
restarts advance together, and so do those of every target of a
:func:`verify_reachability` call: each round makes one stacked forward pass
and one batched gradient over every ``(target, restart)`` still running.  The
L-BFGS itself holds its state as arrays with one row per running ``(target,
restart)``: points, distances, gradients, line-search steps and the last
curvature pairs.  A round computes every row's direction and line-search
decision with a few vector operations whatever its row count, each row bit for
bit as a restart run alone, and a row that stops leaves through a mask.  A
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


def _dots(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row-wise ``x[i] @ z[i]``: a stack of ``(1, m) @ (m, 1)`` products, each bit for bit the 1-d product."""
    return (x[:, None, :] @ z[:, :, None])[:, 0, 0]


def _distances(ends: np.ndarray, goals: np.ndarray, phase_sensitive: bool) -> np.ndarray:
    """:func:`_raw_distance` of each row ``ends[i]`` to ``goals[i]``, bit for bit."""
    if phase_sensitive:
        diff = ends - goals
        return 0.5 * _dots(diff.conj(), diff).real
    # A batched overlap, or its square, can differ from the lone one in the last bit.
    return np.array([_raw_distance(c, t, False) for c, t in zip(ends, goals)])


def _lbfgs_directions(g: np.ndarray, pairs: np.ndarray, rho: np.ndarray, gamma: np.ndarray, depth: int) -> np.ndarray:
    """Each row's L-BFGS step ``-H g``: the two-loop recursion over its curvature pairs.

    ``pairs[:, j]`` holds each row's j-th newest ``(s, y)`` and ``rho[:, j]`` its ``1 / s.y``, for
    ``j < depth``.  The initial inverse Hessian is ``gamma I``, with ``gamma = s.y / y.y`` of the
    newest pair (1 with none).  An absent pair has ``rho = 0``, so its coefficient and both its
    updates are exact zeros.
    """
    # The recursion on -g is the negated recursion on g, exactly up to the sign of a zero: every
    # step is odd in q.  Each row is a (1, segments) matrix, so every product is one batched matmul.
    q = -g[:, None, :]
    vectors, columns, rho = pairs[:, :, :, None, :], pairs[..., None], rho[:, :, None, None]
    a = []
    for j in range(depth):
        a.append(rho[:, j] * (q @ columns[:, j, 0]))
        q -= a[j] * vectors[:, j, 1]
    q *= gamma[:, None, None]
    for j in range(depth - 1, -1, -1):
        q += (a[j] - rho[:, j] * (q @ columns[:, j, 1])) * vectors[:, j, 0]
    return q[:, 0]


# Why a row stopped: an index into _STOP_REASONS, or _RUNNING while it runs on.
_STOP_REASONS = ("converged", "max_iterations", "zero_gradient", "line_search_exhausted")
_RUNNING, _CONVERGED, _MAX_ITERATIONS, _ZERO_GRADIENT, _EXHAUSTED = range(-1, 4)


class _Lbfgs:
    """The L-BFGS descents of a lockstep round's rows, each attribute an array with one entry per row.

    Row ``i`` descends from ``starts[i]``; ``row`` holds its index into ``starts``.  ``trial`` is
    the schedule it waits to have evaluated: its start, then ``values + step * d``, with
    ``values``, ``f`` and ``g`` its current point, distance and gradient, ``slope`` the line
    search's ``g . d``, ``exploring`` true until its first backtrack, and ``iterations`` its count
    of line searches.  ``pairs``, of shape
    ``(rows, _MEMORY, 2, segments)``, and ``rho`` hold its last ``count`` curvature pairs ``(s,
    y)`` and their ``1 / s.y``, newest first, and ``gamma`` scales its initial inverse Hessian.
    Every row takes its first evaluation in :meth:`start` and each later one in :meth:`advance`.
    """

    def __init__(self, starts: np.ndarray):
        rows, segments = starts.shape
        self.row, self.trial = np.arange(rows), starts
        self.values, self.g, self.d = starts, np.zeros((rows, segments)), np.zeros((rows, segments))
        self.f, self.slope, self.step, self.gamma = np.zeros(rows), np.zeros(rows), np.ones(rows), np.ones(rows)
        self.exploring, self.iterations, self.count = np.ones(rows, bool), np.zeros(rows, int), np.zeros(rows, int)
        self.pairs, self.rho = np.zeros((rows, _MEMORY, 2, segments)), np.zeros((rows, _MEMORY))

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows outside ``mask``."""
        self.__dict__.update({name: array[mask] for name, array in vars(self).items()})

    def start(self, f: np.ndarray, g: np.ndarray, cfg: SteeringConfig) -> np.ndarray:
        """Take each row's evaluation at its start and set its first trial; returns each row's stop code."""
        self.f, self.g = f, g
        gg = _dots(g, g)
        # A NaN distance never counts as converged.  An overflowed start stops
        # at once: every trial along a NaN direction is NaN too.
        stop = np.where(f <= cfg.target_distance, _CONVERGED, np.where(
            ~np.isfinite(f), _EXHAUSTED, np.where(gg <= 1e-28, _ZERO_GRADIENT, _RUNNING)))
        self._search(stop == _RUNNING, gg)
        return stop

    def advance(self, f_trial: np.ndarray, g_trial: np.ndarray, cfg: SteeringConfig) -> np.ndarray:
        """Take each row's trial evaluation and set its next trial; returns each row's stop code.

        A stopped row's ``values``, ``f`` and ``iterations`` are its outcome.
        """
        f, step = self.f, self.step
        converged = f_trial <= cfg.target_distance
        # Converged, or stalled (such as on a moduli floor): the trial moved f by rounding only.
        settled = converged | (np.abs(f - f_trial) <= 1e-12 * f)
        decrease = f_trial < f
        # Armijo's sufficient decrease; a settled row stops whatever this says.
        accepted = decrease & (f_trial <= f + _ARMIJO * step * self.slope)
        failed = ~(settled | accepted)
        if np.count_nonzero(accepted):
            self._remember(accepted, g_trial)

        moved = accepted | settled & decrease
        self.values = np.where(moved[:, None], self.trial, self.values)
        self.g = np.where(accepted[:, None], g_trial, self.g)
        self.f = np.where(moved, f_trial, f)
        self.step = step = np.where(failed, 0.5 * step, step)
        self.exploring &= ~failed
        gg = _dots(self.g, self.g)
        go = accepted & ~settled & (self.iterations != cfg.max_iterations) & ~(gg <= 1e-28)
        running = go | failed & (step >= _ALPHA_MIN)
        self._search(go, gg)
        if np.count_nonzero(running) == len(running):
            return np.full(len(running), _RUNNING)
        return np.where(running, _RUNNING, np.where(converged, _CONVERGED, np.where(
            ~accepted | settled, _EXHAUSTED, np.where(self.iterations == cfg.max_iterations, _MAX_ITERATIONS, _ZERO_GRADIENT))))

    def _remember(self, accepted: np.ndarray, g_trial: np.ndarray) -> None:
        """Push the curvature pair ``(s, y)`` of each accepted step whose ``s.y`` is clearly positive."""
        pair = np.empty_like(self.pairs[:, 0])
        s = np.subtract(self.trial, self.values, out=pair[:, 0])
        y = np.subtract(g_trial, self.g, out=pair[:, 1])
        sy, yy = _dots(s, y), _dots(y, y)
        curved = accepted & (sy > 1e-12 * np.sqrt(_dots(s, s)) * np.sqrt(yy))
        # Each curved row's pairs move one slot older (copyto buffers the overlap), the oldest dropping out.
        np.copyto(self.pairs[:, 1:], self.pairs[:, :-1], where=curved[:, None, None, None])
        np.copyto(self.rho[:, 1:], self.rho[:, :-1], where=curved[:, None])
        np.copyto(self.pairs[:, 0], pair, where=curved[:, None, None])
        rho = np.divide(1.0, sy, out=self.rho[:, 0], where=curved)
        np.divide(1.0, rho * yy, out=self.gamma, where=curved)
        self.count = np.minimum(self.count + curved, _MEMORY)

    def _search(self, go: np.ndarray, gg: np.ndarray) -> None:
        """Start a line search on each ``go`` row, then set every row's trial."""
        if np.count_nonzero(go):
            # Every row gets its direction: one mid-search gets its own again, bit for bit.
            g = self.g
            self.d = d = _lbfgs_directions(g, self.pairs, self.rho, self.gamma, int(self.count.max()))
            self.slope = slope = _dots(g, d)
            reset = ~(slope < 0.0)
            if np.count_nonzero(reset):  # not a descent direction: forget the pairs and go down the gradient
                d[reset], slope[reset] = -g[reset], -gg[reset]
                self.count[reset], self.rho[reset], self.gamma[reset] = 0, 0.0, 1.0
            self.iterations += go
            # Exploratory phase: until the first backtrack, double the last step
            # (up to _ALPHA_MAX) so early steps can cross shallow local minima.
            self.step = np.where(go, np.where(self.exploring, np.minimum(2.0 * self.step, _ALPHA_MAX), 1.0), self.step)
        self.trial = self.values + self.step[:, None] * self.d


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
    # The zero schedule (the pure-drift baseline is always examined), then seeded uniform draws.
    starts = [np.zeros(cfg.segments)] + [
        np.random.default_rng((cfg.seed, r)).uniform(-1.0, 1.0, cfg.segments) for r in range(1, cfg.restarts)
    ]
    # Row t * restarts + r is restart r of target t; a row that stops leaves its outcome here.
    lbfgs = _Lbfgs(np.tile(np.stack(starts), (len(targets), 1)))
    update = lbfgs.start  # the first round evaluates the starts, every later one the trials
    values, achieved = np.empty_like(lbfgs.trial), np.empty(len(lbfgs.row))
    iterations, stops = np.zeros(len(lbfgs.row), int), np.full(len(lbfgs.row), _RUNNING)
    target = lbfgs.row // cfg.restarts
    aims = goals[target]
    while target.size:
        forward = forward_pass(sys, durations, lbfgs.trial, s0.c)
        grads = _batched_gradient(sys.B, durations, forward, aims, cfg.phase_sensitive)
        stop = update(_distances(forward[3][:, -1], aims, cfg.phase_sensitive), grads, cfg)
        update = lbfgs.advance
        done = stop != _RUNNING
        if np.count_nonzero(done):
            rows = lbfgs.row[done]
            values[rows], achieved[rows], iterations[rows], stops[rows] = (
                lbfgs.values[done], lbfgs.f[done], lbfgs.iterations[done], stop[done])
            # The race: once a restart of t has converged, t's other restarts leave the batch.
            won = np.zeros(len(targets), bool)
            won[target[stop == _CONVERGED]] = True
            lbfgs.keep(~done & ~won[target])
            target = lbfgs.row // cfg.restarts
            aims = goals[target]

    certificates, finite = [], np.isfinite(achieved)
    for t in range(len(targets)):
        rows = [row for row in range(t * cfg.restarts, (t + 1) * cfg.restarts) if stops[row] != _RUNNING]
        # A converged distance is below every other one, so this picks among the winning round's.
        best = min(rows, key=lambda row: (not finite[row], achieved[row] if finite[row] else 0.0, row))
        certificates.append(ReachabilityCertificate(
            schedule=ControlSchedule(durations, values[best]),
            achieved_distance=float(achieved[best]),
            converged=bool(achieved[best] <= cfg.target_distance),
            iterations_used=int(iterations[best]),
            restart_index=best - t * cfg.restarts,
            stop_reason=_STOP_REASONS[stops[best]],
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
    leaves the batch, as do all of them in the round one converges.  The
    optimizer's state is arrays over those rows too, so a round's directions,
    Armijo tests and step halvings are a few vector operations over the rows,
    not a loop over restarts.  Rows are computed bit for bit as lone
    evaluations, and round k evaluates each running restart's k-th trial, so
    the result is that of running the restarts one after another and keeping
    the converged one with the fewest evaluations.  ``iterations_used`` counts the winning restart's line
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
