"""Control synthesis: steer an initial state to a target on its orbit.

This is the constructive companion to the orbit analysis: given a target that
lies on the orbit, a multi-start descent over piecewise-constant schedules
produces a concrete control witnessing reachability, with exact segment-wise
derivatives taken in the segment eigenbases of the forward pass that the
objective has already computed.  Steering to an orbit point is a
zero-residual least-squares problem, so a pair's rows take Levenberg-Marquardt
steps on the endpoint residual and its Jacobian, and converge quadratically.
A one-parameter pair (``A`` parallel to ``B``, or one of them zero) is the
exception: its landscape is periodic in the total drift time, and its rows
take quasi-Newton (L-BFGS) steps on the gradient, whose long exploratory
steps cross it.  The restarts advance together, and so do those of every
target of a :func:`verify_reachability` call, in rounds over every ``(target,
restart)`` still running.  A round has two stages.  The forward stage makes
one stacked forward pass over the round's distinct trials (a verify's targets
share their restarts' starts) and gives every row its distance, and its
residual, to its own target; from these alone the rows decide what they
accept and whether they stop, and the race drops the targets it has won.  The
derivative stage makes one adjoint sweep over only the rows that run on from
a new point, a start or an accepted trial, and gives each its Jacobian (once
per distinct trial) or its gradient: a rejected trial, a backtrack and a
converging round form none.  Every row is bit for bit a lone evaluation
whatever the round's size.  Each optimizer holds its state as arrays with one
row per running ``(target, restart)``: the Levenberg-Marquardt one points,
distances, residuals, Jacobians and dampings, the L-BFGS one points,
distances, gradients, line-search steps and the last curvature pairs.  A
round computes every row's step with a few stacked operations whatever its
row count, each row bit for bit as a restart run alone, and a row that stops
leaves through a mask.  A target's restarts race: in the round where one of
them converges, the others leave the batch, and the certificate is the least
distance among the restarts that converged in that round (ties to the lowest
index).  A
target that never converges runs every restart to its end and keeps the least
distance, unless :func:`steer` proves it off the orbit first and runs no
restart.  A verify's targets are words of the system's own flows, orbit
points by construction (:func:`reachctl.orbit.sample_orbit`), and they are
independent, so a verify gives the certificates of one :func:`steer` per
target.  The targets go in waves of as many as keep a round's largest
complex array, ``rows * segments * n**2`` entries, within ``ROUND_BYTES``; a
lone target always runs.  A certificate that fails to converge is a flagged
optimizer failure and nothing more -- reachability of orbit points is a
theorem, so non-convergence is never evidence against it.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSchedule, ControlSystem, StateVector, forward_pass
from .matrices import RANK_TOL, _check_count, _check_dimension, _check_entries, _check_positive, _check_share
from .orbit import moduli_distance_bound, sample_orbit

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

# Levenberg-Marquardt damping: its start, its factors on an accepted and a rejected step, the cap past
# which a row stops, and the floor of the scale D relative to its largest entry.
_MU_START, _MU_DOWN, _MU_UP, _MU_MAX = 1e-3, 3.0, 4.0, 1e16
_SCALE_FLOOR = 1e-12

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
        _check_share(self.horizon, self.segments, "horizon", "segments")
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
    ``"zero_gradient"`` or ``"line_search_exhausted"``: a trial step stalled,
    the starting distance was not finite, or, on a Levenberg-Marquardt row,
    rejected steps drove the damping past its cap, and on an L-BFGS row (a
    one-parameter pair) the line search backtracked below its smallest step.  It is
    ``"off_orbit"`` when :func:`steer` proved the target off the orbit
    before it optimized: the conserved moduli put a floor clearly above
    ``target_distance`` under every distance a schedule can reach, so no
    restart ran, and the certificate holds restart 0's start (the zero
    schedule), its distance, restart 0 and 0 iterations.  A
    converged certificate comes from the first round in which any restart
    converged, so ``restart_index`` names the fastest restart, not the one
    that would have got closest.  ``iterations_used`` counts the winning
    restart's accepted Levenberg-Marquardt steps, or on a one-parameter pair
    its L-BFGS line searches, not its objective evaluations: a rejected step
    costs an evaluation and no iteration, and a line search evaluates one or
    more trial steps.
    """

    schedule: ControlSchedule
    achieved_distance: float
    converged: bool
    iterations_used: int
    restart_index: int
    stop_reason: str


def _dots(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row-wise ``x[i] @ z[i]``: a stack of ``(1, m) @ (m, 1)`` products, each bit for bit the 1-d product."""
    return (x[:, None, :] @ z[:, :, None])[:, 0, 0]


def _objective(ends: np.ndarray, targets: np.ndarray, phase_sensitive: bool) -> tuple:
    """Each row's distance from ``ends[i]`` to ``targets[i]``, and the seed of its adjoint sweep.

    Returns ``(f, w, prefactor)``: ``f[i]`` moves with the end state by ``Re(prefactor[i] * <w[i], dc>)``.
    """
    if phase_sensitive:
        w = ends - targets
        return 0.5 * _dots(w.conj(), w).real, w, 1.0 + 0.0j
    # A batched overlap, or its square, can differ from the lone one in the last bit.
    overlaps = np.array([np.vdot(t, c) for t, c in zip(targets, ends)])
    return np.array([1.0 - np.abs(overlap) ** 2 for overlap in overlaps]), targets, -2.0 * np.conj(overlaps)[:, None]


def distance(s: StateVector, target: StateVector, phase_sensitive: bool = True) -> float:
    """Distance objective between two unit states.

    Phase-sensitive: ``0.5 * |c - c_target|^2`` in [0, 2], the exact squared
    chordal distance on the sphere.  Projective: ``1 - |<c_target, c>|^2`` in
    [0, 1], which quotients the global phase.
    """
    _check_dimension("target", target.n, s.n)
    return float(_objective(s.c[None], target.c[None], phase_sensitive)[0][0])


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
    one-row composition of a lockstep round's two stages, a forward pass and
    the derivative stage with which :func:`steer` takes a one-parameter pair's
    gradients, and every row of those stages equals it bit for bit, whatever
    the round's size.  On any other pair, :func:`steer` takes the endpoint
    residual ``r`` and its Jacobian ``J`` in the control values instead, and
    ``J^T r`` is this gradient up to rounding.  An empty schedule has the
    empty gradient.
    """
    _check_dimension("system", sys.n, s0.n, target.n)
    if not sched.durations.size:
        return np.zeros(0)
    with np.errstate(over="ignore", invalid="ignore"):
        passes = forward_pass(sys, sched.durations, sched.values[None], s0.c)
        return _gradients(sys, sched.durations, passes, np.zeros(1, int), target.c[None], phase_sensitive)[0]


def _forward(sys: ControlSystem, durations: np.ndarray, values: np.ndarray, c0: np.ndarray) -> tuple:
    """``(inverse, passes)``: one :func:`forward_pass` of the rows of ``values`` told apart by their bytes, row ``i``'s
    ``inverse[i]``, numbered by a dict as :func:`reachctl.dynamics._segment_blocks` numbers control values."""
    distinct = {}
    inverse = np.array([distinct.setdefault(row.tobytes(), len(distinct)) for row in values])
    if len(distinct) < len(values):
        values = np.frombuffer(b"".join(distinct), dtype=float).reshape(len(distinct), -1)
    return inverse, forward_pass(sys, durations, values, c0)


def _distances(c: np.ndarray, targets: np.ndarray, phase_sensitive: bool) -> tuple[np.ndarray]:
    """``(f,)``: each end state's :func:`distance` to its target, all that an L-BFGS row takes from its forward pass."""
    return _objective(c, targets, phase_sensitive)[:1]


def _residuals(c: np.ndarray, targets: np.ndarray, phase_sensitive: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(f, r)``: each end state's :func:`distance` to its target and its real residual, ``f[i] = |r[i]|**2 / 2`` up to
    rounding: ``r = c_T - t``, or projectively ``sqrt2 (I - t t^dagger) c_T`` (``|(I - t t^dagger) c|**2 = 1 - |<t,
    c>|**2`` on unit states), as real ``2n``-vectors ``(Re, Im)``."""
    if phase_sensitive:
        r = c - targets
    else:
        # The end state loses its part along the target; sqrt2 makes f = |r|^2 / 2.
        r = np.sqrt(2.0) * (c - _dots(targets.conj(), c)[:, None] * targets)
    return _objective(c, targets, phase_sensitive)[0], np.concatenate((r.real, r.imag), axis=-1)


def _gradients(sys: ControlSystem, durations: np.ndarray, passes: tuple, rows: np.ndarray, targets: np.ndarray,
               phase_sensitive: bool) -> np.ndarray:
    """Each row's :func:`gradient` toward ``targets[i]``, its schedule's pass being row ``rows[i]`` of the
    :func:`forward_pass` output ``passes``: one adjoint sweep, seeded by the target."""
    omega, V, coords, ends = (a[rows] for a in passes)
    V_dagger = V.conj().swapaxes(-1, -2)
    _, w, prefactor = _objective(ends[:, -1], targets, phase_sensitive)
    adjoint = _sweep(omega, V, V_dagger, durations, w[..., None])[..., 0]
    pairing = adjoint.conj()[..., None, :] @ _derivatives(sys, omega, V, V_dagger, durations, coords)
    return np.real(prefactor * pairing[..., 0, 0])


def _jacobians(sys: ControlSystem, durations: np.ndarray, passes: tuple, rows: np.ndarray, targets: np.ndarray,
               phase_sensitive: bool) -> np.ndarray:
    """Each row's real endpoint Jacobian, ``(rows, m, 2n)``, its schedule's pass being row ``rows[i]`` of ``passes``.

    ``columns[i, j]`` is the derivative of :func:`_residuals`' ``r[i]`` in segment j's control value, so
    ``columns[i] @ r[i]`` is :func:`gradient`.  The adjoint sweep is carried on the ``n x n`` identity, column j
    being ``adjoint_j^dagger (frechet_j coords_j)``, once per distinct pass; projectively, each row's columns
    then lose their part along its own target.
    """
    distinct = {}
    inverse = [distinct.setdefault(row, len(distinct)) for row in rows.tolist()]
    omega, V, coords = (a[list(distinct)] for a in passes[:3])
    V_dagger = V.conj().swapaxes(-1, -2)
    identity = np.broadcast_to(np.eye(sys.n, dtype=complex), (len(distinct), sys.n, sys.n))
    adjoint = _sweep(omega, V, V_dagger, durations, identity)
    derivatives = _derivatives(sys, omega, V, V_dagger, durations, coords)
    columns = (adjoint.conj().swapaxes(-1, -2) @ derivatives)[inverse, ..., 0]
    if not phase_sensitive:
        columns = np.sqrt(2.0) * (columns - (columns @ targets.conj()[..., None]) * targets[:, None, :])
    return np.concatenate((columns.real, columns.imag), axis=-1)


def _sweep(
    omega: np.ndarray, V: np.ndarray, V_dagger: np.ndarray, durations: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """The adjoint sweep: ``adjoint[:, j] = V_j^dagger w_j``, with ``w_j`` the ``(n, k)`` adjoint leaving segment j.

    ``w`` is each row's ``(n, k)`` adjoint at the end of the schedule: one vector for the gradient, the
    identity for the Jacobian.  Returns ``adjoint``, of shape ``(r, m, n, k)``.
    """
    backward = np.exp(-1j * omega * durations[:, None])
    adjoint = np.empty(omega.shape + w.shape[-1:], dtype=complex)
    V_j, V_dagger_j = V.swapaxes(1, 0), V_dagger.swapaxes(1, 0)
    backward_j, adjoint_j = backward[..., None].swapaxes(1, 0), adjoint.swapaxes(1, 0)
    for j in range(durations.size - 1, -1, -1):
        x = np.matmul(V_dagger_j[j], w, out=adjoint_j[j])
        w = V_j[j] @ (backward_j[j] * x)
    return adjoint


def _derivatives(
    sys: ControlSystem, omega: np.ndarray, V: np.ndarray, V_dagger: np.ndarray, durations: np.ndarray,
    coords: np.ndarray,
) -> np.ndarray:
    """``frechet_j coords_j``, shape ``(r, m, n, 1)``: each segment's derivative of its end state, in its eigenbasis.

    With ``A + eps_j B = V_j diag(i omega_j) V_j^dagger``, the derivative of ``exp(dt_j (A + eps_j B))``
    in ``eps_j`` is ``V_j frechet_j V_j^dagger``, ``frechet_j = phi_j * V_j^dagger B V_j``.
    """
    dt = durations[:, None, None]
    mean = omega[..., :, None] + omega[..., None, :]
    gap = omega[..., :, None] - omega[..., None, :]
    phi = dt * np.exp(0.5j * dt * mean) * np.sinc(dt * gap / (2.0 * np.pi))
    # Not ``phi * (...)``: on a large stack numpy would multiply in place on the temporary with
    # the operands swapped, and complex products are not bitwise commutative.
    # One GEMM for every segment's V^dagger B: each entry is the same length-n product as the stacked one's.
    frechet = np.multiply(phi, (V_dagger.reshape(-1, sys.n) @ sys.B).reshape(V.shape) @ V)
    return frechet @ coords[..., None]


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
    the schedule it waits to have evaluated: its start, then ``values + alpha * d``, with
    ``values``, ``f`` and ``g`` its current point, distance and gradient, ``alpha`` and ``slope``
    its line search's step and ``g . d``, ``exploring`` true until its first backtrack, and
    ``iterations`` its count of line searches.  ``pairs``, of shape
    ``(rows, _MEMORY, 2, segments)``, and ``rho`` hold its last ``count`` curvature pairs ``(s,
    y)`` and their ``1 / s.y``, newest first, and ``gamma`` scales its initial inverse Hessian.
    A round is two calls.  :meth:`start` (the first round) or :meth:`take` (every later one) takes
    each row's distance at its trial and decides from it alone; ``fresh`` marks the rows that run
    on from a new point, a finite start or an accepted trial, and only they need a gradient.
    :meth:`step` takes those gradients and sets every row's next trial.
    """

    def __init__(self, starts: np.ndarray):
        rows, segments = starts.shape
        self.row, self.trial, self.fresh = np.arange(rows), starts, np.zeros(rows, bool)
        self.values, self.g, self.d = starts, np.zeros((rows, segments)), np.zeros((rows, segments))
        self.f, self.slope, self.alpha, self.gamma = np.zeros(rows), np.zeros(rows), np.ones(rows), np.ones(rows)
        self.exploring, self.iterations, self.count = np.ones(rows, bool), np.zeros(rows, int), np.zeros(rows, int)
        self.pairs, self.rho = np.zeros((rows, _MEMORY, 2, segments)), np.zeros((rows, _MEMORY))

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows outside ``mask``."""
        self.__dict__.update({name: array[mask] for name, array in vars(self).items()})

    def start(self, f: np.ndarray, cfg: SteeringConfig) -> np.ndarray:
        """Take each row's distance at its start; returns each row's stop code."""
        self.f = f
        converged = f <= cfg.target_distance
        # A NaN distance never counts as converged.  An overflowed start stops
        # at once: every trial along a NaN direction is NaN too.
        self.fresh = ~converged & np.isfinite(f)
        return np.where(converged, _CONVERGED, np.where(self.fresh, _RUNNING, _EXHAUSTED))

    def take(self, f_trial: np.ndarray, cfg: SteeringConfig) -> np.ndarray:
        """Take each row's distance at its trial; returns each row's stop code.

        A stopped row's ``values``, ``f`` and ``iterations`` are its outcome.  A fresh row moves to
        its trial in :meth:`step`, which needs the point it leaves.
        """
        f, alpha = self.f, self.alpha
        converged = f_trial <= cfg.target_distance
        # Converged, or stalled (such as on a moduli floor): the trial moved f by rounding only.
        settled = converged | (np.abs(f - f_trial) <= 1e-12 * f)
        decrease = f_trial < f
        # Armijo's sufficient decrease; a settled row stops whatever this says.
        accepted = decrease & (f_trial <= f + _ARMIJO * alpha * self.slope)
        failed = ~(settled | accepted)
        self.fresh = fresh = accepted & ~settled & (self.iterations != cfg.max_iterations)
        self.values = np.where(((accepted | settled & decrease) & ~fresh)[:, None], self.trial, self.values)
        self.f = np.where(accepted | settled & decrease, f_trial, f)
        self.alpha = alpha = np.where(failed, 0.5 * alpha, alpha)
        self.exploring &= ~failed
        running = fresh | failed & (alpha >= _ALPHA_MIN)
        if np.count_nonzero(running) == len(running):
            return np.full(len(running), _RUNNING)
        return np.where(running, _RUNNING, np.where(converged, _CONVERGED, np.where(
            ~accepted | settled, _EXHAUSTED, _MAX_ITERATIONS)))

    def step(self, g: np.ndarray | None) -> np.ndarray:
        """Move each fresh row to its trial with its gradient ``g`` (None when no row is fresh), and set every row's
        next trial; returns each row's stop code, ``_ZERO_GRADIENT`` for a fresh row whose gradient vanishes."""
        fresh = self.fresh
        if g is not None:
            self._remember(fresh, g)
            self.values = np.where(fresh[:, None], self.trial, self.values)
            self.g[fresh] = g
        gg = _dots(self.g, self.g)
        zero = fresh & (gg <= 1e-28)
        self._search(fresh & ~zero, gg)
        return np.where(zero, _ZERO_GRADIENT, _RUNNING)

    def _remember(self, fresh: np.ndarray, g: np.ndarray) -> None:
        """Push the pair ``(s, y)`` of each fresh row, ``g`` its new gradient, whose ``s.y`` is clearly positive."""
        pair = np.zeros_like(self.pairs[:, 0])
        pair[fresh, 0] = self.trial[fresh] - self.values[fresh]
        pair[fresh, 1] = g - self.g[fresh]
        s, y = pair[:, 0], pair[:, 1]
        sy, yy = _dots(s, y), _dots(y, y)
        curved = fresh & (sy > 1e-12 * np.sqrt(_dots(s, s)) * np.sqrt(yy))
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
            alpha = self.alpha
            self.alpha = np.where(go, np.where(self.exploring, np.minimum(2.0 * alpha, _ALPHA_MAX), 1.0), alpha)
        self.trial = self.values + self.alpha[:, None] * self.d


class _Lm:
    """The Levenberg-Marquardt descents of a lockstep round's rows, each attribute an array with one entry per row.

    Row ``i`` descends from ``starts[i]``; ``row`` holds its index into ``starts``.  ``trial`` is the
    schedule it waits to have evaluated: its start, then ``values`` plus Marquardt's step from its
    current point ``values``, whose distance, residual and Jacobian columns are ``f``, ``r`` and
    ``columns`` (see :func:`_residuals` and :func:`_jacobians`).  ``mu`` is its damping and
    ``iterations`` its count of accepted steps.  The round protocol is :class:`_Lbfgs`'s, with
    :meth:`start` and :meth:`take` given ``(f, r)`` and :meth:`step` the fresh rows' Jacobians.
    """

    def __init__(self, starts: np.ndarray):
        rows, segments = starts.shape
        self.row, self.trial, self.values, self.fresh = np.arange(rows), starts, starts, np.zeros(rows, bool)
        self.f, self.r, self.columns = np.zeros(rows), np.zeros((rows, 0)), np.zeros((rows, segments, 0))
        self.mu, self.iterations = np.full(rows, _MU_START), np.zeros(rows, int)

    keep = _Lbfgs.keep

    def start(self, f: np.ndarray, r: np.ndarray, cfg: SteeringConfig) -> np.ndarray:
        """Take each row's distance and residual at its start; returns each row's stop code, as :class:`_Lbfgs` does."""
        self.r, self.columns = r, np.empty(r.shape[:1] + self.trial.shape[1:] + r.shape[1:])
        return _Lbfgs.start(self, f, cfg)

    def take(self, f_trial: np.ndarray, r_trial: np.ndarray, cfg: SteeringConfig) -> np.ndarray:
        """Take each row's distance and residual at its trial; returns each row's stop code.

        A trial that lowers the distance is accepted and divides ``mu`` by ``_MU_DOWN``; any other,
        a NaN one too, multiplies it by ``_MU_UP``.  A stopped row's ``values``, ``f`` and
        ``iterations`` are its outcome.
        """
        f = self.f
        converged = f_trial <= cfg.target_distance
        # Converged, or stalled (such as on a moduli floor): the trial moved f by rounding only.
        settled = converged | (np.abs(f - f_trial) <= 1e-12 * f)
        accepted = f_trial < f
        self.values = np.where(accepted[:, None], self.trial, self.values)
        self.f = np.where(accepted, f_trial, f)
        self.r = np.where(accepted[:, None], r_trial, self.r)
        self.iterations += accepted
        self.mu = np.where(accepted, self.mu / _MU_DOWN, self.mu * _MU_UP)
        self.fresh = accepted & ~settled & (self.iterations != cfg.max_iterations)
        running = self.fresh | ~(accepted | settled) & (self.mu <= _MU_MAX)
        if np.count_nonzero(running) == len(running):
            return np.full(len(running), _RUNNING)
        return np.where(running, _RUNNING, np.where(converged, _CONVERGED, np.where(
            ~accepted | settled, _EXHAUSTED, _MAX_ITERATIONS)))

    def step(self, columns: np.ndarray | None) -> np.ndarray:
        """Take each fresh row's Jacobian ``columns`` (None when no row is fresh), and set every row's next trial;
        returns each row's stop code, ``_ZERO_GRADIENT`` for a fresh row whose gradient ``J^T r`` vanishes."""
        zero = np.zeros(len(self.row), bool)
        if columns is not None:
            self.columns[self.fresh] = columns
            g = (columns @ self.r[self.fresh][..., None])[..., 0]
            zero[self.fresh] = _dots(g, g) <= 1e-28
        self._propose(~zero)
        return np.where(zero, _ZERO_GRADIENT, _RUNNING)

    def _propose(self, go: np.ndarray) -> None:
        """Set each ``go`` row's trial to ``values + delta``, with ``(J^T J + mu D) delta = -J^T r``.

        ``D`` is ``diag J^T J``, floored at ``_SCALE_FLOOR`` times its largest entry.  By the push-through
        identity ``delta = -D^-1 J^T (mu I + J D^-1 J^T)^-1 r``: one ``2n x 2n`` solve per row, and no
        ``segments x segments`` array.
        """
        if np.count_nonzero(go):
            columns, r, mu = self.columns[go], self.r[go], self.mu[go]
            flat = columns.reshape(-1, columns.shape[-1])
            D = _dots(flat, flat).reshape(columns.shape[:2])
            scaled = columns / np.maximum(D, _SCALE_FLOOR * D.max(axis=1, keepdims=True))[..., None]
            M = columns.swapaxes(1, 2) @ scaled + mu[:, None, None] * np.eye(columns.shape[-1])
            trial = self.values.copy()
            trial[go] -= (scaled @ np.linalg.solve(M, r[..., None]))[..., 0]
            self.trial = trial


def _one_parameter(sys: ControlSystem) -> bool:
    """Whether every generator ``A + u B`` is a real multiple of one: ``A`` parallel to ``B``, or one of them zero.

    Decided as :func:`reachctl.orbit.commuting_frame`'s gate decides a commutator: on ``A`` and ``B``
    scaled to unit Frobenius norm, ``B`` is within ``100 * RANK_TOL`` of ``A`` or of ``-A``.
    """
    norm_A, norm_B = (np.hypot.reduce(np.abs(X).ravel()) for X in (sys.A, sys.B))  # cannot overflow
    if not (norm_A and norm_B):
        return True
    A, B = sys.A / norm_A, sys.B / norm_B
    return min(np.hypot.reduce(np.abs(B - A).ravel()), np.hypot.reduce(np.abs(B + A).ravel())) <= 100 * RANK_TOL


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
    # A one-parameter pair's rows take L-BFGS steps on the gradient, every other pair's Levenberg-Marquardt ones on
    # the residual and its Jacobian.
    lbfgs = _one_parameter(sys)
    Descent, measure, derive = (_Lbfgs, _distances, _gradients) if lbfgs else (_Lm, _residuals, _jacobians)
    # Row t * restarts + r is restart r of target t; a row that stops leaves its outcome here.
    descent = Descent(np.tile(np.stack(starts), (len(targets), 1)))
    take = descent.start  # the first round takes the starts, every later one the trials
    values, achieved = np.empty_like(descent.trial), np.empty(len(descent.row))
    iterations, stops = np.zeros(len(descent.row), int), np.full(len(descent.row), _RUNNING)

    def leave(stop: np.ndarray) -> np.ndarray:
        """Record the rows that stopped; they leave the batch, as does every row of a target that one has won."""
        keep = stop == _RUNNING
        if np.count_nonzero(keep) < len(keep):
            rows, target = descent.row[~keep], descent.row // cfg.restarts
            values[rows], achieved[rows], iterations[rows], stops[rows] = (
                descent.values[~keep], descent.f[~keep], descent.iterations[~keep], stop[~keep])
            # The race: once a restart of t has converged, t's other restarts leave the batch.
            won = np.zeros(len(targets), bool)
            won[target[stop == _CONVERGED]] = True
            keep &= ~won[target]
            descent.keep(keep)
        return keep

    # Huge generators overflow a row's |g|^2 or scales to inf, which its step and stop rules rank.
    with np.errstate(over="ignore", invalid="ignore"):
        while descent.row.size:
            # Forward stage: each distinct trial once, then each row's distance (and residual) to its own target,
            # from which alone the rows decide, and the race drops the targets it has won.
            inverse, passes = _forward(sys, durations, descent.trial, s0.c)
            stop = take(*measure(passes[3][inverse, -1], goals[descent.row // cfg.restarts], cfg.phase_sensitive), cfg)
            take = descent.take
            inverse = inverse[leave(stop)]
            # Derivative stage: only the rows that run on from a new point, then every row's next trial.
            fresh = descent.fresh
            derivative = derive(sys, durations, passes, inverse[fresh], goals[descent.row[fresh] // cfg.restarts],
                                cfg.phase_sensitive) if np.count_nonzero(fresh) else None
            leave(descent.step(derivative))

    # Each target's least finite distance among its stopped restarts, ties to the lowest index (a
    # converged distance is below every other one, so this picks among the winning round's).  A
    # target with no finite one ran every restart to its end, so it gets restart 0.
    ranked = np.where((stops != _RUNNING) & np.isfinite(achieved), achieved, np.inf)
    best = ranked.reshape(len(targets), cfg.restarts).argmin(axis=1) + cfg.restarts * np.arange(len(targets))
    return [
        ReachabilityCertificate(
            schedule=ControlSchedule(durations, values[row]),
            achieved_distance=float(achieved[row]),
            converged=bool(achieved[row] <= cfg.target_distance),
            iterations_used=int(iterations[row]),
            restart_index=row - t * cfg.restarts,
            stop_reason=_STOP_REASONS[stops[row]],
        )
        for t, row in enumerate(best.tolist())
    ]


def steer(
    sys: ControlSystem,
    s0: StateVector,
    target: StateVector,
    cfg: SteeringConfig | None = None,
) -> ReachabilityCertificate:
    """Synthesize a piecewise-constant control driving ``s0`` toward ``target``.

    Runs ``cfg.restarts`` independent descents over equal-duration
    segments spanning the horizon.  Restart 0 starts from the all-zeros
    schedule; restart ``r`` draws initial values uniformly from [-1, 1] with a
    generator derived from ``(cfg.seed, r)``, so results are reproducible.
    The restarts race: the first certificate to converge is returned, and
    when several converge in the same round, the smallest achieved distance,
    ties to the smallest restart index.  If none converges, every restart
    runs to its end and the best certificate (smallest achieved distance,
    ties to the smallest restart index, a non-finite distance from an
    overflow last) is returned.

    The restarts advance together: each round stacks the pending trial of
    every running restart into one ``(r, segments)`` array, and evaluates it
    in two stages.  The forward stage is one :func:`forward_pass` over the
    distinct trials, which gives each restart its distance (and residual);
    from the distances alone each restart accepts or rejects its trial and
    decides whether it stops, and a restart that stops leaves the batch, as
    do all of them in the round one converges.  The derivative stage is one
    adjoint sweep over the restarts that run on from a new point, their start
    or an accepted trial, and only they get a Jacobian (or a gradient); the
    others step again from the one they hold.  The optimizer's state is
    arrays over those rows too, so a round's steps and decisions are a few
    stacked operations over the rows, not a loop over restarts.  Rows are
    computed bit for bit as lone evaluations, and round k evaluates each
    running restart's k-th trial, so the result is that of running the
    restarts one after another and keeping the converged one with the fewest
    evaluations.  A round holds several arrays of ``restarts * segments *
    n**2`` complex entries, so large settings can raise MemoryError.

    A pair that is not one-parameter takes Levenberg-Marquardt steps.  Each
    evaluation is one forward pass, the residual ``r`` (``c_T - t``
    phase-sensitively, ``sqrt2 (I - t t^dagger) c_T`` projectively, so that
    the distance is ``|r|^2 / 2``) and its real Jacobian ``J`` in the control
    values, from an adjoint sweep carried on the ``n x n`` identity.  The
    step is Marquardt's, ``(J^T J + mu D) delta = -J^T r`` with ``D = diag
    J^T J``, solved as one ``2n x 2n`` system per row, so it forms no
    ``segments x segments`` array.  ``mu`` starts at 1e-3, is divided by 3
    when a trial lowers the distance (the step is accepted) and multiplied by
    4 when it does not.  ``iterations_used`` counts accepted steps.  A
    restart stops at the first evaluation within ``cfg.target_distance``
    (``"converged"``), after ``cfg.max_iterations`` accepted steps, at a zero
    gradient ``J^T r``, or as ``"line_search_exhausted"`` when rejected steps
    drive ``mu`` past 1e16, a trial step changes the distance by at most a
    relative 1e-12 (a stall), or the starting distance is not finite (an
    overflow), which costs one evaluation.

    A one-parameter pair (``A`` parallel to ``B``, or one of them zero, on
    generators scaled to unit norm, within ``100 * RANK_TOL``) takes L-BFGS
    steps on the exact gradient instead: its landscape is periodic in the
    total drift time, and Levenberg-Marquardt steps miss targets that the
    L-BFGS's long early steps reach.  The direction is the two-loop recursion
    over the last 8 curvature pairs (``-g`` when that is not a descent
    direction), and a backtracking (halving) Armijo line search with strict
    decrease takes the step.  While every line search of the restart has
    accepted its first trial, that trial doubles the last step, from 2 up to
    4, so early steps can cross the local minima of periodic landscapes;
    after the first backtrack it is the unit step.  ``iterations_used``
    counts line searches, and a restart stops as above, with
    ``"line_search_exhausted"`` when the line search backtracks below its
    smallest step, a trial stalls (such as on a moduli floor), or the start
    is not finite.

    Before any restart, a commuting pair's target is checked against the
    floor ``F`` of :func:`reachctl.orbit.moduli_distance_bound` under every
    reachable distance: ``F`` phase-sensitively, ``F (2 - F)`` projectively,
    since the reached state ``c`` has ``|<t, c>| <= sum_b |<t_b, c_b>| <=
    1 - F``: an exact block's ``c_b`` is ``c0_b`` turned by a phase, and
    any other block's ``|<t_b, c_b>|`` is at most ``|t_b| |c0_b|``.  A pair
    that clearly does not commute gets no floor and pays no closure.  A
    floor above ``100 * cfg.target_distance``, clear of the rounding band,
    proves the target off the orbit: the certificate is
    ``"off_orbit"``, restart 0's zero schedule evaluated once (one forward
    pass, so re-propagating the schedule gives its distance bit for bit),
    never converged, and no restart runs.  :func:`verify_reachability` skips
    this check, since its targets are orbit points by construction.

    A non-converged certificate is a valid, flagged outcome: it reports that
    the optimizer failed, or that the target is off the orbit, never that an
    orbit point is unreachable.

    Raises
    ------
    ValueError
        Naming both dimensions when a state's is not the system's, or
        ``restarts * segments`` when a round would hold more than
        ``matrices.MAX_ENTRIES`` entries per array.
    """
    cfg = cfg or SteeringConfig()
    _check_dimension("system", sys.n, s0.n, target.n)
    _check_entries("restarts * segments", cfg.restarts, cfg.segments, sys.n**2)
    floor = moduli_distance_bound(sys, s0, target)
    if (floor if cfg.phase_sensitive else floor * (2.0 - floor)) > 100 * cfg.target_distance:
        # Restart 0's start, evaluated as a round evaluates it.
        durations, values = np.full(cfg.segments, cfg.horizon / cfg.segments), np.zeros(cfg.segments)
        with np.errstate(over="ignore", invalid="ignore"):
            ends = forward_pass(sys, durations, values[None], s0.c)[3][:, -1]
            achieved = float(_objective(ends, target.c[None], cfg.phase_sensitive)[0][0])
        return ReachabilityCertificate(
            schedule=ControlSchedule(durations, values),
            achieved_distance=achieved,
            converged=achieved <= cfg.target_distance,
            iterations_used=0,
            restart_index=0,
            stop_reason="off_orbit",
        )
    return _steer_all(sys, s0, [target], cfg)[0]


def verify_reachability(
    sys: ControlSystem,
    s0: StateVector,
    samples: int = 20,
    word_length: int = 6,
    seed: int = 7,
) -> tuple[list[StateVector], list[ReachabilityCertificate]]:
    """Sample orbit points and steer to each: the end-to-end reachability check.

    Each target is a word of ``word_length`` signed-time flows ``exp(t_k (A
    + u_k B))`` of the system itself (:func:`reachctl.orbit.sample_orbit`).
    Those flows generate the group whose orbit is the reachable set, so the
    targets lie on the orbit by construction, the check never presupposes
    what it is testing, and no Lie algebra is built.  Per-sample seeds are
    drawn from a master generator seeded with ``seed``.
    Every target is steered to with the default :class:`SteeringConfig`, and
    the targets' restarts advance together in the lockstep rounds of
    :func:`steer`, each target racing its own restarts: Levenberg-Marquardt
    rows, or L-BFGS rows on a one-parameter pair, whose ``iterations_used``
    count accepted steps or line searches as :func:`steer`'s do.  Every
    target tiles the same restart starts, so the first round's forward pass
    carries each start once and its Jacobian sweep runs once per start, while
    each row's residual and Jacobian take its own target.  Every row of a
    round, its distance, its derivative and its step, is bit for bit a lone
    row's whatever the round's size, so the certificates equal one
    :func:`steer` per target, bit for bit.  A wave of targets costs as many
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
        Before any forward pass, naming a bad count (``samples``,
        ``word_length``, ``seed``), one that asks for more than
        ``matrices.MAX_ENTRIES`` array entries, or both dimensions when they
        differ; or naming the first factor of a sampled word whose flow
        overflows double precision.
    """
    _check_count(samples, "samples")
    _check_count(word_length, "word_length", 0)
    _check_count(seed, "seed", 0)
    _check_dimension("system", sys.n, s0.n)
    _check_entries("samples", samples, sys.n)
    _check_entries("word_length", word_length, sys.n**2)
    master = np.random.default_rng(seed)
    sample_seeds = [int(x) for x in master.integers(0, 2**63 - 1, size=samples)]
    targets = [sample_orbit(sys, s0, word_length, seed=s)[0] for s in sample_seeds]
    return targets, _steer_all(sys, s0, targets, SteeringConfig())
