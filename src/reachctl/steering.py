"""Control synthesis: steer an initial state to a target on its orbit.

This is the constructive companion to the orbit analysis: given a target on
the orbit, a piecewise-constant control witnesses reachability.  A
one-parameter pair (``A`` parallel to ``B``, or one of them zero) has every
generator a real multiple of one ``X``, so its orbit is the curve ``s ->
exp(s X) c0`` and every real ``s`` is one constant control: a hitting scan
along the curve (the block scan of :func:`reachctl.dynamics.recurrence_scan`)
finds it with no optimizer.  Every other pair takes a multi-start
Levenberg-Marquardt descent: steering to an orbit point is a zero-residual
least-squares problem, whose rows step on the endpoint residual and its exact
Jacobian, taken in the segment eigenbases of the forward pass.  The restarts
advance together, and so do those of every target of a
:func:`verify_reachability` call, in rounds of two stages.  The forward stage
makes one stacked forward pass over the round's distinct trials (a verify's
targets share their restarts' starts) and gives every row its distance and
residual to its own target; from these alone the rows decide what they accept
and whether they stop, and the race drops the targets it has won.  The
derivative stage makes one adjoint sweep over only the rows that run on from
a new point, a start or an accepted trial, once per distinct trial.  The
optimizer holds its state as arrays with one row per running ``(target,
restart)``, a row that stops leaves through a mask, and every row is bit for
bit a restart run alone whatever the round's size.  Targets go in waves that
keep a round's largest complex array, ``rows * segments * n**2`` entries,
within ``ROUND_BYTES``.  A certificate that fails to converge is a flagged
failure and nothing more -- reachability of orbit points is a theorem, so
non-convergence is never evidence against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSchedule, ControlSystem, StateVector, _block_scan, forward_pass
from .matrices import (
    RANK_TOL, _check_count, _check_dimension, _check_entries, _check_positive, _check_share, skew_eigensystems,
)
from .orbit import moduli_distance_bound, sample_orbit

__all__ = [
    "SteeringConfig",
    "ReachabilityCertificate",
    "distance",
    "gradient",
    "steer",
    "verify_reachability",
]

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

    ``converged`` means ``achieved_distance <= target_distance``; anyone can
    re-propagate the schedule to check the claim.  ``stop_reason`` says why
    the winning restart stopped: ``"converged"``, ``"max_iterations"``,
    ``"zero_gradient"``, or ``"line_search_exhausted"`` when a trial step
    stalled, the starting distance was not finite, or rejected steps drove
    the damping past its cap.  A converged certificate comes from the first
    round in which any restart converged, so ``restart_index`` names the
    fastest restart.  ``iterations_used`` counts the winning restart's
    accepted Levenberg-Marquardt steps.  A one-parameter pair's certificate
    is a hitting scan's constant schedule, with restart 0 and 0 iterations;
    unless it converged, it is ``"max_iterations"`` when the scan's window
    holds no hit (the schedule is the closest approach),
    ``"line_search_exhausted"`` when the scan refuses (a phase past double
    precision) or the start is not finite, and ``"zero_gradient"`` when the
    control moves nothing.  ``"off_orbit"`` means :func:`steer` proved the
    target off the orbit first: the certificate is the zero schedule, with
    restart 0 and 0 iterations.
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


def _objective(ends: np.ndarray, targets: np.ndarray, phase_sensitive: bool) -> np.ndarray:
    """Each row's distance from ``ends[i]`` to ``targets[i]``."""
    if phase_sensitive:
        w = ends - targets
        return 0.5 * _dots(w.conj(), w).real
    # A batched overlap, or its square, can differ from the lone one in the last bit.
    return np.array([1.0 - np.abs(np.vdot(t, c)) ** 2 for t, c in zip(targets, ends)])


def distance(s: StateVector, target: StateVector, phase_sensitive: bool = True) -> float:
    """Distance objective between two unit states.

    Phase-sensitive: ``0.5 * |c - c_target|^2`` in [0, 2], the exact squared
    chordal distance on the sphere.  Projective: ``1 - |<c_target, c>|^2`` in
    [0, 1], which quotients the global phase.
    """
    _check_dimension("target", target.n, s.n)
    return float(_objective(s.c[None], target.c[None], phase_sensitive)[0])


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
    stacked over segments; only the adjoint's backward sweep loops.  The
    gradient is ``J^T r``: the endpoint residual ``r`` (``c_T - t``
    phase-sensitively, ``sqrt2 (I - t t^dagger) c_T`` projectively, so that
    the distance is ``|r|^2 / 2``) and its real Jacobian ``J`` in the control
    values, as one row of the lockstep round on which :func:`steer`'s
    Levenberg-Marquardt steps are taken.  An empty schedule has the empty
    gradient.
    """
    _check_dimension("system", sys.n, s0.n, target.n)
    if not sched.durations.size:
        return np.zeros(0)
    with np.errstate(over="ignore", invalid="ignore"):
        passes = forward_pass(sys, sched.durations, sched.values[None], s0.c)
        _, r = _residuals(passes[3][:, -1], target.c[None], phase_sensitive)
        columns = _jacobians(sys, sched.durations, passes, np.zeros(1, int), target.c[None], phase_sensitive)
        return columns[0] @ r[0]


def _forward(sys: ControlSystem, durations: np.ndarray, values: np.ndarray, c0: np.ndarray) -> tuple:
    """``(inverse, passes)``: one :func:`forward_pass` of the rows of ``values`` told apart by their bytes, row ``i``'s
    ``inverse[i]``, numbered by a dict as :func:`reachctl.dynamics._segment_blocks` numbers control values."""
    distinct = {}
    inverse = np.array([distinct.setdefault(row.tobytes(), len(distinct)) for row in values])
    if len(distinct) < len(values):
        values = np.frombuffer(b"".join(distinct), dtype=float).reshape(len(distinct), -1)
    return inverse, forward_pass(sys, durations, values, c0)


def _residuals(c: np.ndarray, targets: np.ndarray, phase_sensitive: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(f, r)``: each end state's :func:`distance` to its target and its real residual, ``f[i] = |r[i]|**2 / 2`` up to
    rounding: ``r = c_T - t``, or projectively ``sqrt2 (I - t t^dagger) c_T`` (``|(I - t t^dagger) c|**2 = 1 - |<t,
    c>|**2`` on unit states), as real ``2n``-vectors ``(Re, Im)``."""
    if phase_sensitive:
        r = c - targets
    else:
        # The end state loses its part along the target; sqrt2 makes f = |r|^2 / 2.
        r = np.sqrt(2.0) * (c - _dots(targets.conj(), c)[:, None] * targets)
    return _objective(c, targets, phase_sensitive), np.concatenate((r.real, r.imag), axis=-1)


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

    ``w`` is each row's ``(n, k)`` adjoint at the end of the schedule, the identity for the Jacobian.  Returns
    ``adjoint``, of shape ``(r, m, n, k)``.
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


# Why a row stopped: an index into _STOP_REASONS, or _RUNNING while it runs on.
_STOP_REASONS = ("converged", "max_iterations", "zero_gradient", "line_search_exhausted")
_RUNNING, _CONVERGED, _MAX_ITERATIONS, _ZERO_GRADIENT, _EXHAUSTED = range(-1, 4)


class _Lm:
    """The Levenberg-Marquardt descents of a lockstep round's rows, each attribute an array with one entry per row.

    Row ``i`` descends from ``starts[i]``; ``row`` holds its index into ``starts``.  ``trial`` is the
    schedule it waits to have evaluated: its start, then ``values`` plus Marquardt's step from its
    current point ``values``, whose distance, residual and Jacobian columns are ``f``, ``r`` and
    ``columns`` (see :func:`_residuals` and :func:`_jacobians`).  ``mu`` is its damping and
    ``iterations`` its count of accepted steps.  A round is two calls.  :meth:`start` (the first
    round) or :meth:`take` (every later one) takes each row's distance and residual at its trial and
    decides from them alone; ``fresh`` marks the rows that run on from a new point, a finite start or
    an accepted trial, and only they need a Jacobian.  :meth:`step` takes those Jacobians and sets
    every row's next trial.
    """

    def __init__(self, starts: np.ndarray):
        rows, segments = starts.shape
        self.row, self.trial, self.values, self.fresh = np.arange(rows), starts, starts, np.zeros(rows, bool)
        self.f, self.r, self.columns = np.zeros(rows), np.zeros((rows, 0)), np.zeros((rows, segments, 0))
        self.mu, self.iterations = np.full(rows, _MU_START), np.zeros(rows, int)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows outside ``mask``."""
        self.__dict__.update({name: array[mask] for name, array in vars(self).items()})

    def start(self, f: np.ndarray, r: np.ndarray, cfg: SteeringConfig) -> np.ndarray:
        """Take each row's distance and residual at its start; returns each row's stop code."""
        self.f, self.r, self.columns = f, r, np.empty(r.shape[:1] + self.trial.shape[1:] + r.shape[1:])
        converged = f <= cfg.target_distance
        # A NaN distance never counts as converged.  An overflowed start stops
        # at once: every step from a NaN residual is NaN too.
        self.fresh = ~converged & np.isfinite(f)
        return np.where(converged, _CONVERGED, np.where(self.fresh, _RUNNING, _EXHAUSTED))

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


def _one_parameter(sys: ControlSystem) -> tuple | None:
    """``(X, a, b)`` with ``A = a X``, ``B = b X`` and ``X`` of unit Frobenius norm when every generator ``A + u B``
    is a real multiple of one (``A`` parallel to ``B``, or one of them zero), else None.

    Decided as :func:`reachctl.orbit.commuting_frame`'s gate decides a commutator: on ``A`` and ``B``
    scaled to unit Frobenius norm, ``B`` is within ``100 * RANK_TOL`` of ``A`` or of ``-A``.
    """
    norm_A, norm_B = (float(np.hypot.reduce(np.abs(X).ravel())) for X in (sys.A, sys.B))  # cannot overflow
    if not norm_A:
        return (sys.B / norm_B if norm_B else sys.B), 0.0, norm_B
    X = sys.A / norm_A
    if not norm_B:
        return X, norm_A, 0.0
    for sign in (1.0, -1.0):
        if np.hypot.reduce(np.abs(sys.B / norm_B - sign * X).ravel()) <= 100 * RANK_TOL:
            return X, norm_A, sign * norm_B
    return None


def _constant(
    sys: ControlSystem, s0: StateVector, target: StateVector, cfg: SteeringConfig, u: float, stop_reason: str
) -> ReachabilityCertificate:
    """The certificate of the constant control ``u`` over ``cfg.segments`` equal segments, evaluated by one forward
    pass as a round evaluates a row, so re-propagating it gives its distance bit for bit: 0 iterations, restart 0,
    and ``stop_reason`` unless it converged."""
    durations, values = np.full(cfg.segments, cfg.horizon / cfg.segments), np.full(cfg.segments, u)
    with np.errstate(over="ignore", invalid="ignore"):
        ends = forward_pass(sys, durations, values[None], s0.c)[3][:, -1]
        achieved = float(_objective(ends, target.c[None], cfg.phase_sensitive)[0])
    converged = achieved <= cfg.target_distance
    return ReachabilityCertificate(
        schedule=ControlSchedule(durations, values),
        achieved_distance=achieved,
        converged=converged,
        iterations_used=0,
        restart_index=0,
        stop_reason="converged" if converged else stop_reason,
    )


def _hit(
    sys: ControlSystem, s0: StateVector, target: StateVector, cfg: SteeringConfig, line: tuple
) -> ReachabilityCertificate:
    """:func:`steer` on the one-parameter pair ``line = (X, a, b)``: the constant control whose flow ends nearest
    along the orbit's curve ``exp(s X) c0`` to where the zero schedule ends, at ``s0 = a T``, among those within the
    scan's ``tol``; or, with none, the closest approach.

    The curve is scanned forward and backward from ``s0`` over ``cfg.max_iterations`` horizons each way, on the
    grid ``tol / v`` (``v = |X c(s0)|``, the curve's speed), ``tol`` being half the distance that converges: the
    grid point nearest an exact hit is then within ``tol / 2``.  A hit ``s0 +- t`` is the control ``+-t / (T
    b)`` held over the horizon ``T``.
    """
    X, a, b = line
    horizon, window = cfg.horizon, cfg.max_iterations * cfg.horizon
    start = a * horizon
    if not b:
        return _constant(sys, s0, target, cfg, 0.0, "zero_gradient")
    if not math.isfinite(start):
        return _constant(sys, s0, target, cfg, 0.0, "line_search_exhausted")
    lam, V = skew_eigensystems(1j * X)
    d = np.exp(1j * lam * start) * (V.conj().T @ s0.c)  # the zero schedule's end, in X's eigenbasis
    g = V.conj().T @ target.c
    v = math.hypot(*(np.abs(d) * lam))
    if v == 0.0:  # the state is a fixed point of every flow
        return _constant(sys, s0, target, cfg, 0.0, "zero_gradient")
    # The phase-sensitive distance is D^2 / 2, and the projective one at most D^2.
    tol = 0.5 * math.sqrt(2.0 * cfg.target_distance if cfg.phase_sensitive else cfg.target_distance)
    dt = tol / v
    count = math.ceil(min(window / dt, 2.0**53))  # the scan refuses 2**53 steps
    phase = float(np.max(np.abs(lam))) * (abs(start) + count * dt)
    scans = []
    for sign in (1.0, -1.0):
        scan = _block_scan(sign * lam, d, g, v, tol, count, dt, phase, projective=not cfg.phase_sensitive)
        if scan is None:
            return _constant(sys, s0, target, cfg, 0.0, "line_search_exhausted")
        scans.append((sign, *scan))
        if scan[0] is not None:  # a hit bounds the other direction's, and one at the start ends the search
            if not scan[0]:
                break
            count = scan[0]
    hits = [scan for scan in scans if scan[1] is not None]
    # The hit nearest s0, ties to the forward one; without one, the closest approach.
    sign, _, t, _ = min(hits, key=lambda scan: scan[2]) if hits else min(scans, key=lambda scan: scan[3])
    u = sign * t / horizon / b
    if not math.isfinite(u):
        return _constant(sys, s0, target, cfg, 0.0, "line_search_exhausted")
    return _constant(sys, s0, target, cfg, u, "max_iterations")


def _steer_all(
    sys: ControlSystem, s0: StateVector, targets: list[StateVector], cfg: SteeringConfig
) -> list[ReachabilityCertificate]:
    """:func:`steer` for every target: by the hitting scan on a one-parameter pair, otherwise in waves of targets
    that keep each round under ``ROUND_BYTES``."""
    line = _one_parameter(sys)
    if line is not None:
        return [_hit(sys, s0, target, cfg, line) for target in targets]
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
    lm = _Lm(np.tile(np.stack(starts), (len(targets), 1)))
    take = lm.start  # the first round takes the starts, every later one the trials
    values, achieved = np.empty_like(lm.trial), np.empty(len(lm.row))
    iterations, stops = np.zeros(len(lm.row), int), np.full(len(lm.row), _RUNNING)

    def leave(stop: np.ndarray) -> np.ndarray:
        """Record the rows that stopped; they leave the batch, as does every row of a target that one has won."""
        keep = stop == _RUNNING
        if np.count_nonzero(keep) < len(keep):
            rows, target = lm.row[~keep], lm.row // cfg.restarts
            values[rows], achieved[rows], iterations[rows], stops[rows] = (
                lm.values[~keep], lm.f[~keep], lm.iterations[~keep], stop[~keep])
            # The race: once a restart of t has converged, t's other restarts leave the batch.
            won = np.zeros(len(targets), bool)
            won[target[stop == _CONVERGED]] = True
            keep &= ~won[target]
            lm.keep(keep)
        return keep

    # Huge generators overflow a row's |g|^2 or scales to inf, which its step and stop rules rank.
    with np.errstate(over="ignore", invalid="ignore"):
        while lm.row.size:
            # Forward stage: each distinct trial once, then each row's distance and residual to its own target,
            # from which alone the rows decide, and the race drops the targets it has won.
            inverse, passes = _forward(sys, durations, lm.trial, s0.c)
            stop = take(*_residuals(passes[3][inverse, -1], goals[lm.row // cfg.restarts], cfg.phase_sensitive), cfg)
            take = lm.take
            inverse = inverse[leave(stop)]
            # Derivative stage: only the rows that run on from a new point, then every row's next trial.
            fresh = lm.fresh
            columns = _jacobians(sys, durations, passes, inverse[fresh], goals[lm.row[fresh] // cfg.restarts],
                                 cfg.phase_sensitive) if np.count_nonzero(fresh) else None
            leave(lm.step(columns))

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

    First, a commuting pair's target is checked against the floor ``F`` of
    :func:`reachctl.orbit.moduli_distance_bound` under every reachable
    distance: ``F`` phase-sensitively, ``F (2 - F)`` projectively, since the
    reached state ``c`` has ``|<t, c>| <= sum_b |<t_b, c_b>| <= 1 - F``.  A
    pair that clearly does not commute gets no floor and pays no closure.  A
    floor above ``100 * cfg.target_distance``, clear of the rounding band,
    proves the target off the orbit: the certificate is ``"off_orbit"``, the
    zero schedule evaluated by one forward pass, and nothing else runs.

    A one-parameter pair (``A = a X`` and ``B = b X``, decided on generators
    scaled to unit norm within ``100 * RANK_TOL``) needs no optimizer: the
    constant control ``u`` held over the horizon ``T`` ends at ``exp(s X)
    c0`` with ``s = (a + u b) T``.  A hitting scan runs forward and backward
    along the curve from the zero schedule's end, ``s0 = a T``, over
    ``cfg.max_iterations`` horizons each way, on a grid fine enough that an
    exact hit cannot fall between its points, and refines the first hit each
    way to its local minimum.  The hit nearest ``s0`` (or, with none, the
    closest approach) gives ``u = (s / T - a) / b`` over ``cfg.segments``
    equal segments, evaluated by one forward pass, whose distance decides
    ``converged``.

    Every other pair runs ``cfg.restarts`` Levenberg-Marquardt descents over
    ``cfg.segments`` equal segments.  Restart 0 starts from the zero
    schedule, restart ``r`` from uniform draws in [-1, 1] seeded by
    ``(cfg.seed, r)``.  The restarts race in lockstep rounds (see the module
    docstring): the first round in which any converges ends them all, and
    gives the least distance among its converged restarts, ties to the
    lowest index; if none converges, every restart runs to its end and the
    least distance wins, a non-finite one last.  The result equals running
    the restarts one after another, bit for bit.  Each step is Marquardt's,
    ``(J^T J + mu D) delta = -J^T r`` with ``D = diag J^T J``, on the
    residual ``r`` (``c_T - t``, or projectively ``sqrt2 (I - t t^dagger)
    c_T``, so the distance is ``|r|^2 / 2``) and its real Jacobian ``J`` in
    the control values, solved as one ``2n x 2n`` system per row.  ``mu``
    starts at 1e-3, is divided by 3 when a trial lowers the distance (an
    accepted step) and multiplied by 4 when it does not.  A restart stops
    within ``cfg.target_distance`` (``"converged"``), after
    ``cfg.max_iterations`` accepted steps, at a zero gradient ``J^T r``, or as
    ``"line_search_exhausted"`` when ``mu`` passes 1e16, a trial changes the
    distance by at most a relative 1e-12, or the start is not finite.  A
    round holds arrays of ``restarts * segments * n**2`` complex entries, so
    large settings can raise MemoryError.

    A non-converged certificate reports that the search failed, or that the
    target is off the orbit, never that an orbit point is unreachable.

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
        return _constant(sys, s0, target, cfg, 0.0, "off_orbit")  # restart 0's start, evaluated as a round would
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
    Every target is steered to with the default :class:`SteeringConfig`,
    and the certificates equal one :func:`steer` per target, bit for bit.
    On a one-parameter pair each target takes the hitting scan.  Otherwise
    the targets' restarts race together in :func:`steer`'s lockstep rounds;
    every target tiles the same starts, so the first round's forward pass and
    Jacobian sweep carry each start once.  Targets go in waves of as many as
    keep ``targets * restarts * segments * n**2`` complex entries within
    ``ROUND_BYTES`` (32 MiB): the default 20 samples run in one wave up to
    n = 25.
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
