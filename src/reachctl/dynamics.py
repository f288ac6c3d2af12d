"""State and propagator dynamics of the bilinear system c' = A c + B c eps(t).

States are unit vectors on the complex sphere; admissible controls are
piecewise-constant schedules, so every flow is an exact product of segment
exponentials and no ODE-solver drift contaminates conservation checks.  The
drift part is, after diagonalization, a collection of phase rotations
``d_k -> exp(i lambda_k t) d_k``; in real coordinates this is a classical
Hamiltonian system with energy ``H = sum_k lambda_k (a_k^2 + b_k^2)``, which
is why the drift flow keeps returning near its starting point
(:func:`recurrence_scan` finds such returns, certifying whole gaps of its time
grid at once by a Lipschitz bound).
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrices import (
    RANK_TOL, _check_count, _check_dimension, _check_entries, _check_positive, _check_real, _check_share,
    _check_skew_hermitian, canonical_skew_eigensystem, eigensystem_exp, skew_eigensystems, square_matrix,
)

__all__ = [
    "SPHERE_TOL",
    "StateVector",
    "ControlSystem",
    "DriftSpectrum",
    "ControlSchedule",
    "Trajectory",
    "diagonalize_drift",
    "drift_hamiltonian",
    "realify",
    "forward_pass",
    "propagate",
    "propagate_operator",
    "recurrence_scan",
]

# Membership in the unit sphere is enforced to this absolute tolerance.
SPHERE_TOL = 1e-9

# Segments per stacked eigendecomposition; bounds memory on long schedules.
SEGMENT_BLOCK = 64

# Times per round of the recurrence refinement's bracket.
REFINE_POINTS = 33

# Recurrence scan: samples per block and open gaps per refinement (bounding its memory whatever
# the horizon), the distance the drift moves over the first stride, and the parts each open gap
# is cut into.
RECURRENCE_BLOCK = 1024
RECURRENCE_REACH = 1.5
RECURRENCE_FANOUT = 4

# A hitting scan keeps its closest approach within this share of the least grid distance: its hits are
# exact, but a flat distance (one that a target off the curve can have) would leave every gap open.
APPROACH_SHARE = 0.125


@dataclass
class StateVector:
    """Unit-norm complex amplitude vector (a point of the sphere S)."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError(f"state must be a 1-d vector, got shape {c.shape}")
        if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
            raise ValueError("state has non-finite entries")
        off = abs(float(np.sum(np.abs(c) ** 2)) - 1.0)
        if off > SPHERE_TOL:
            raise ValueError(f"state is off the unit sphere: |sum |c_k|^2 - 1| = {off:.3e}")
        self.c = c

    @property
    def n(self) -> int:
        return self.c.size

    @classmethod
    def normalized(cls, c) -> "StateVector":
        """Construct from an arbitrary nonzero vector by rescaling to unit norm."""
        v = np.asarray(c, dtype=complex)
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(v / norm)


@dataclass
class ControlSystem:
    """The generator pair (A, B): drift ``A`` and control coupling ``B``."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = square_matrix(self.A, "A")
        B = square_matrix(self.B, "B")
        if A.shape != B.shape:
            raise ValueError(f"A and B must have equal shapes, got {A.shape} and {B.shape}")
        _check_skew_hermitian(A, "A")
        _check_skew_hermitian(B, "B")
        self.A = A
        self.B = B

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass
class DriftSpectrum:
    """Drift eigenfrequencies and the unitary change of basis diagonalizing A.

    ``A = U diag(i lambda_1, ..., i lambda_n) U^dagger`` with real ``lambdas``
    sorted descending.
    """

    lambdas: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        U = square_matrix(self.U, "U")
        if lam.ndim != 1 or lam.size != U.shape[0]:
            raise ValueError("lambdas must be a real n-vector matching U")
        off = float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))))
        if off > RANK_TOL * 1:  # the scale is the largest entry of I
            raise ValueError(f"U is not unitary: max |U^dagger U - I| = {off:.3e}")
        self.lambdas = lam
        self.U = U

    @property
    def n(self) -> int:
        return self.U.shape[0]


@dataclass
class ControlSchedule:
    """Piecewise-constant control as parallel arrays of durations and values."""

    durations: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.durations, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if d.ndim != 1 or v.ndim != 1 or d.size != v.size:
            raise ValueError("durations and values must be 1-d arrays of equal length")
        bad = ~(np.isfinite(d) & (d > 0.0))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ValueError(f"segment {k}: duration must be positive and finite, got {d[k]}")
        if not np.all(np.isfinite(v)):
            k = int(np.argmax(~np.isfinite(v)))
            raise ValueError(f"segment {k}: control value is not finite")
        with np.errstate(over="ignore"):  # the ValueError below is the one diagnostic
            total = d.sum()
        if d.size and not np.isfinite(total):
            raise ValueError("total duration is not finite")
        self.durations = d
        self.values = v

    @property
    def n_segments(self) -> int:
        return self.durations.size

    @property
    def total_duration(self) -> float:
        return float(self.durations.sum())

    @property
    def segments(self) -> list:
        """Ordered (duration, value) pairs."""
        return [(float(d), float(v)) for d, v in zip(self.durations, self.values)]

    @classmethod
    def constant(cls, value: float, duration: float, n_segments: int = 1) -> "ControlSchedule":
        """Constant control ``value`` over ``duration`` split into equal segments."""
        _check_real(value, "value")
        _check_positive(duration, "duration")
        _check_count(n_segments, "n_segments")
        share = _check_share(duration, n_segments, "duration", "n_segments")
        _check_entries("n_segments", n_segments, 2)
        return cls(durations=np.full(n_segments, share), values=np.full(n_segments, float(value)))


@dataclass
class Trajectory:
    """Sampled state history: ``times[i]`` against row ``states[i]``."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=complex)
        if t.ndim != 1 or s.ndim != 2 or s.shape[0] != t.size:
            raise ValueError("times must be 1-d and states (len(times), n)")
        if t.size and (t[0] != 0.0 or np.any(np.diff(t) <= 0)):
            raise ValueError("times must start at 0 and increase strictly")
        self.times = t
        self.states = s

    def state(self, i: int) -> StateVector:
        return StateVector(self.states[i])

    @property
    def final_state(self) -> StateVector:
        return StateVector(self.states[-1])

    def max_norm_drift(self) -> float:
        """Largest deviation of ``sum |c_k|^2`` from 1 over all samples."""
        return float(np.max(np.abs(np.sum(np.abs(self.states) ** 2, axis=1) - 1.0)))


def diagonalize_drift(A) -> DriftSpectrum:
    """Eigenfrequencies and eigenbasis of a skew-Hermitian drift generator.

    The eigenvalues of ``A`` are ``i lambda_k`` with real ``lambda_k``,
    returned sorted descending; exact ties are broken by the first differing
    eigenvector component and each eigenvector's phase is pinned, so the
    output is deterministic run to run.

    Raises
    ------
    ValueError
        If ``A`` is not skew-Hermitian.
    """
    M = square_matrix(A, "A")
    _check_skew_hermitian(M, "A")
    omega, V = canonical_skew_eigensystem(M)
    return DriftSpectrum(lambdas=omega, U=V)


def drift_hamiltonian(spectrum: DriftSpectrum, s: StateVector | np.ndarray) -> float | np.ndarray:
    """Drift energy ``sum_k lambda_k |d_k|^2`` with ``d = U^dagger c``.

    Writing ``d_k = a_k + i b_k`` this is ``sum_k lambda_k (a_k^2 + b_k^2)``,
    the conserved Hamiltonian of the drift flow in realified coordinates.
    ``s`` is one StateVector, giving a float, or an ``(m, n)`` stack of state
    rows (such as ``Trajectory.states``), giving the ``m`` energies as an array.
    """
    c = s.c if isinstance(s, StateVector) else np.asarray(s, dtype=complex)
    if c.ndim not in (1, 2) or c.shape[-1] != spectrum.n:
        raise ValueError(f"spectrum dimension {spectrum.n} does not match state shape {c.shape}")
    d = np.abs(c @ spectrum.U.conj())
    d *= d
    energy = d @ spectrum.lambdas
    return float(energy) if c.ndim == 1 else energy


def realify(s: StateVector) -> np.ndarray:
    """View the state as a real 2n-vector ``(a_1..a_n, b_1..b_n)``, ``c_k = a_k + i b_k``."""
    return np.concatenate((s.c.real, s.c.imag))


def forward_pass(sys: ControlSystem, durations: np.ndarray, values: np.ndarray, c: np.ndarray) -> tuple:
    """``(omega, V, coords, ends)``: segment eigensystems and the states they carry ``c`` through.

    ``coords[j] = V_j^dagger c_{j-1}`` and ``ends[j] = c_j = V_j (exp(i omega_j dt_j) *
    coords[j])`` with ``c_{-1} = c``.  ``values`` is one schedule ``(m,)`` or a stack of
    schedules ``(r, m)`` over the same ``durations``; every output then gains the leading row
    axis, and row ``i`` equals the one-schedule pass of ``values[i]`` bit for bit, which is how
    steering evaluates all its restarts in one call per round.  Every segment gets its own
    eigendecomposition: iterates never repeat a value between segments, though whole rows can
    (a verify's targets share their starts); steering passes each once.  States cross segments
    only in :func:`_carry`, here and in :func:`propagate`, so certificates re-check bit for bit.
    """
    omega, V = skew_eigensystems(1j * (sys.A + values[..., None, None] * sys.B))
    return (omega, V) + _carry(omega, V, durations, c)


def _carry(omega: np.ndarray, V: np.ndarray, durations: np.ndarray, c: np.ndarray) -> tuple:
    """``(coords, ends)`` of :func:`forward_pass` for given segment eigensystems: the one state carry loop."""
    phases = np.exp(1j * omega * durations[:, None])
    coords = np.empty_like(phases)
    ends = np.empty_like(phases)
    # Segment-first views with states as columns: matmul writes coords and ends in place and
    # one buffer takes every phase product, the cheapest per-segment step for one or many rows.
    V_j, V_dagger_j = V.swapaxes(-3, 0), V.conj().swapaxes(-1, -2).swapaxes(-3, 0)
    phase_j, coords_j, ends_j = (a[..., None].swapaxes(-3, 0) for a in (phases, coords, ends))
    c = c[:, None]
    product = np.empty(coords_j.shape[1:], dtype=complex)
    for V_dagger, V_seg, phase, x, end in zip(V_dagger_j, V_j, phase_j, coords_j, ends_j):
        np.matmul(V_dagger, c, out=x)
        c = np.matmul(V_seg, np.multiply(phase, x, out=product), out=end)
    return coords, ends


def _segment_blocks(sys: ControlSystem, sched: ControlSchedule):
    """``(part, omega, V)`` for each slice ``part`` of ``SEGMENT_BLOCK`` segments: the one walk over ``sched``'s blocks.

    A block decomposes each distinct control value once, compared by its float64 bits (``0.0`` and
    ``-0.0`` stay apart), so every row equals the one-per-segment decomposition bit for bit; a dict
    numbers the values in order of appearance (``np.unique`` would sort, and its first call alone
    adds about 0.4 MB of resident memory).  Its first segment whose phase ``omega dt`` is not finite
    raises a ValueError naming it before the block is yielded: ``V`` is finite and unitary, or NaN
    along with ``omega``, so whatever the block carries is finite exactly when its phases are.
    """
    for lo in range(0, sched.n_segments, SEGMENT_BLOCK):
        part = slice(lo, lo + SEGMENT_BLOCK)
        values, durations = sched.values[part], sched.durations[part]
        slot = {}
        inverse = [slot.setdefault(bits, len(slot)) for bits in values.view(np.uint64).tolist()]
        repeats = len(slot) < values.size  # if nothing repeats, skip the array of distinct values and the gather
        distinct = np.array(list(slot), dtype=np.uint64).view(float) if repeats else values
        with np.errstate(over="ignore", invalid="ignore"):  # the ValueError below is the one diagnostic
            omega, V = skew_eigensystems(1j * (sys.A + distinct[:, None, None] * sys.B))
            omega, V = (omega[inverse], V[inverse]) if repeats else (omega, V)
            overflowed = ~np.isfinite(omega * durations[:, None]).all(axis=1)
        if overflowed.any():
            j = int(np.argmax(overflowed))
            raise ValueError(f"segment {lo + j}: the flow over duration {float(durations[j])!r} at control value "
                             f"{float(values[j])!r} overflows double precision")
        yield part, omega, V


def propagate(
    sys: ControlSystem,
    s0: StateVector,
    sched: ControlSchedule,
    samples_per_segment: int = 10,
) -> Trajectory:
    """Exact piecewise-constant flow of ``c' = (A + eps B) c``.

    On each segment with constant value ``eps`` the state is advanced by the
    exact exponential ``exp(dt (A + eps B))`` evaluated through the unitary
    eigendecomposition, so the unit norm is conserved to rounding no matter
    how long the schedule runs.  Segments go in blocks of ``SEGMENT_BLOCK``,
    and a block makes one eigendecomposition per distinct control value, so
    pure-drift, constant and bang-bang schedules pay almost nothing for it;
    the samples equal the one-per-segment evaluation bit for bit.
    ``samples_per_segment`` interior points are recorded per segment in
    addition to the segment endpoints.

    Raises
    ------
    ValueError
        Naming both dimensions when they differ or ``samples_per_segment``
        when it is not a positive integer or asks for more than
        ``matrices.MAX_ENTRIES`` states in all; on a segment whose sample
        times overflow double precision, or one too short for its sample
        times to advance past the one before; or on a
        segment whose flow overflows double precision (decided from its
        phases, before the block is carried: an interior sample's phase is a
        fraction of its segment's).
    """
    k = _check_count(samples_per_segment, "samples_per_segment")
    _check_dimension("system", sys.n, s0.n)
    _check_entries("samples_per_segment", sched.n_segments, k + 1, sys.n)

    durations = sched.durations
    t_end = np.cumsum(durations)
    t_start = np.concatenate(([0.0], t_end[:-1]))
    with np.errstate(over="ignore"):  # the ValueError below is the one diagnostic
        taus = durations[:, None] * np.arange(1, k + 1) / (k + 1)
    overflowed = ~np.isfinite(taus[:, -1])  # a segment's last offset is its largest
    if np.any(overflowed):
        j = int(np.argmax(overflowed))
        raise ValueError(
            f"segment {j}: the sample times of duration {float(durations[j])!r} starting at "
            f"t = {float(t_start[j])!r} overflow double precision"
        )
    times = np.concatenate(([0.0], np.column_stack((t_start[:, None] + taus, t_end)).ravel()))
    stalled = np.diff(times) <= 0.0
    if np.any(stalled):
        j = int(np.argmax(stalled)) // (k + 1)
        raise ValueError(
            f"segment {j}: duration {float(durations[j])!r} starting at t = {float(t_start[j])!r} "
            f"is too short for its {k + 1} sample times to advance"
        )
    states = np.empty((times.size, sys.n), dtype=complex)
    states[0] = s0.c
    grid = states[1:].reshape(sched.n_segments, k + 1, sys.n)
    for part, omega, V in _segment_blocks(sys, sched):
        coords, ends = _carry(omega, V, durations[part], states[part.start * (k + 1)])
        inner = np.exp(1j * omega[:, None, :] * taus[part, :, None]) * coords[:, None, :]
        grid[part, :k] = np.matmul(V[:, None], inner[..., None])[..., 0]
        grid[part, k] = ends
    return Trajectory(times=times, states=states)


def propagate_operator(sys: ControlSystem, sched: ControlSchedule) -> np.ndarray:
    """Propagator ``U(T)``: the ordered product of segment exponentials.

    Later segments multiply on the left, and ``U(0) = I``.  Each factor
    ``V diag(exp(i omega dt)) V^dagger`` is unitary to rounding, so the
    product is too.  It walks the blocks of :func:`propagate`: each block of
    ``SEGMENT_BLOCK`` segments makes one eigendecomposition per distinct
    control value, and the first segment whose flow overflows raises its
    ValueError, decided from its phases, before the block is carried.
    """
    U = np.eye(sys.n, dtype=complex)
    for part, omega, V in _segment_blocks(sys, sched):
        for F in eigensystem_exp(omega, V, sched.durations[part, None]):
            U = F @ U
    return U


def _block_scan(lam: np.ndarray, d: np.ndarray, g: np.ndarray, v: float, tol: float, count: int, dt: float,
                phase: float, depart: bool = False, projective: bool = False) -> tuple | None:
    """The one Lipschitz block scan: the first grid time ``k dt``, ``0 <= k <= count``, at which a flow brings a
    state within ``tol`` of a target, and its closest approach.

    ``d`` and ``g`` are the state and the target in the flow's eigenbasis, where the flow turns the
    coordinates by ``exp(i lam t)`` (``-lam`` runs it backward).  The distance is ``D = |exp(i lam t) d -
    g|``, or projectively ``sqrt(2 - 2 |sum_k conj(g_k) d_k exp(i lam_k t)|)``.  Phase-sensitively ``D^2 = C
    + 2 sum_k rho_k (1 - cos(lam_k t + phi_k))``, with ``rho = |d| |g|``, ``phi = arg d - arg g`` and ``C =
    sum (|d| - |g|)^2``, all exactly 0 but rho for a return (``g = d``).  The flow moves at the constant speed
    ``v = |lam d|``, so both distances are v-Lipschitz (Shubert's bound).  The scan evaluates ``D`` at
    samples ``stride`` points apart, all at once, and bounds every grid distance between two samples by
    ``(D_a + D_b)/2 -+ (v span/2 + margin)``, ``margin`` being the rounding of ``D``.  Only a gap whose bounds
    admit an event -- the departure, a hit, or an approach closer than every distance before it -- is cut
    into ``RECURRENCE_FANOUT`` parts and sampled again, down to single grid steps, so the answer is the full
    grid scan's, and memory is bounded by ``RECURRENCE_BLOCK``.  Without ``depart`` an approach must be closer
    by the share ``APPROACH_SHARE``, so the closest approach is within that share of the grid's.  The first
    stride moves the state by about ``RECURRENCE_REACH``.

    Returns ``(hit, t, D)``: the first grid index within ``tol``, or None, and the time and distance that a
    bracket refines around it, or without one around the closest grid approach.  With ``depart`` a grid
    time counts only once the state has left the ball, and a state that never leaves gives ``(None, dt,
    0.0)``.  Returns None when ``margin`` spans the whole range [0, 2] or the grid has 2**53 steps or more;
    ``phase`` bounds every phase whose rounding reaches ``D``.
    """
    rho, phi = np.abs(d) * np.abs(g), np.angle(d) - np.angle(g)
    C = float(np.sum((np.abs(d) - np.abs(g)) ** 2))
    turned = bool(phi.any())
    shifted = projective or turned or C > 0.0
    # Twice the float64 error of one distance: rounding t * lam, the cosines and the sum put D^2 off by
    # under eps (phase + 4n + 16), which reaches D as its square root near 0.  A target other than the
    # state rounds a second phase per term, lam t + phi or the exponential of the projective sum (phi holds
    # the state's own phases, which phase bounds too), and the angles and C add their rounding: eps (2 phase
    # + 4n + 32).
    eps = np.finfo(float).eps
    margin = 2.0 * math.sqrt(eps * ((2.0 * phase + 16 if shifted else phase) + 4 * lam.size + 16))
    if not (margin < 2.0 and count < 2**53):  # every distance is rounding noise: nothing can be certified
        return None
    z = np.conj(g) * d

    def dists(t: np.ndarray) -> np.ndarray:
        # the distance at each time, one row of cosines (or exponentials) per time
        x = np.outer(t, lam)
        if projective:
            return np.sqrt(np.maximum(2.0 - 2.0 * np.abs(np.exp(1j * x) @ z), 0.0))
        if turned:
            x += phi
        squares = 2.0 * np.sum((1.0 - np.cos(x)) * rho, axis=1)
        if C:
            squares += C
        return np.sqrt(np.maximum(squares, 0.0))

    # The first stride moves the state by about RECURRENCE_REACH (a float division gives inf, not a
    # warning, if v dt underflows).
    stride = int(min(count, max(1.0, RECURRENCE_REACH / v / dt)))
    fan = np.arange(RECURRENCE_FANOUT + 1)

    def block(lo: int, size: int, best: float | None) -> tuple[int, np.ndarray, np.ndarray]:
        """``(hi, k, D)``: grid points ``k`` from ``lo`` to ``hi`` and their distances, the others certified.

        Samples every ``stride`` points up to ``size`` strides ahead, then cuts each gap that may hold an
        event into ``RECURRENCE_FANOUT`` and samples again, down to single steps.  Before departure
        (``best`` None) the event is a point above ``tol``; after it, a point below the least distance
        at or before it (``best`` is that of earlier blocks), or without ``depart`` a hit or an approach
        as above.  Past ``RECURRENCE_BLOCK`` open gaps the
        block ends at the first one left over, which bounds its memory.
        """
        running = np.maximum if best is None else np.minimum
        hi = min(count, lo + size * stride)
        k = np.append(np.arange(lo, hi, stride), hi)
        d = dists(k * dt)
        points, values = [k], [d]
        a, span, d_a, d_b = k[:-1], np.diff(k), d[:-1], d[1:]
        ahead = running.accumulate(np.append(0.0 if best is None else best, d_a))[1:]  # at each left end
        while True:
            mid, half = (d_a + d_b) / 2.0, span * (v * dt / 2.0) + margin
            if best is None:
                open_ = (ahead <= tol) & (mid + half > tol)
            elif depart:
                open_ = mid - half < ahead
            else:
                open_ = (mid - half < (1.0 - APPROACH_SHARE) * ahead) | (mid - half <= tol)
            open_ &= span > 1
            gaps = np.flatnonzero(open_)
            if gaps.size > RECURRENCE_BLOCK:
                hi = int(a[gaps[RECURRENCE_BLOCK]])
                gaps = gaps[:RECURRENCE_BLOCK]
            if gaps.size == 0:
                k, d = np.concatenate(points), np.concatenate(values)
                inside = k <= hi
                return hi, k[inside], d[inside]
            a, span, d_a, d_b, ahead = a[gaps], span[gaps], d_a[gaps], d_b[gaps], ahead[gaps]
            k = a[:, None] + span[:, None] * fan // RECURRENCE_FANOUT
            inner = dists(k[:, 1:-1].ravel() * dt).reshape(len(a), -1)
            points.append(k[:, 1:-1].ravel())
            values.append(inner.ravel())
            ahead = running.accumulate(np.column_stack((ahead, inner)), axis=1).ravel()
            d = np.column_stack((d_a, inner, d_b))
            a, span, d_a, d_b = k[:, :-1].ravel(), np.diff(k).ravel(), d[:, :-1].ravel(), d[:, 1:].ravel()

    first, best_k, best_d = 0, 0, math.inf
    if depart:
        first = None
        lo, size = 0, RECURRENCE_FANOUT
        while first is None and lo < count:
            hi, k, d = block(lo, size, None)
            above = d > tol
            if above.any():
                first = int(k[above].min())
                best_k, best_d = first, float(d[k == first][0])
            lo, size = hi, min(2 * size, RECURRENCE_BLOCK)
        if first is None:
            return None, float(dt), 0.0
    hit, lo = None, first
    while lo < count:
        lo, k, d = block(lo, RECURRENCE_BLOCK, best_d)
        within = d <= tol
        if within.any():
            hit = int(k[within].min())
            break
        low = float(d.min())
        if low < best_d:
            best_k, best_d = int(k[d == low].min()), low

    center = (best_k if hit is None else hit) * dt
    a = max(center - dt, first * dt)
    b = min(center + dt, count * dt)
    while True:  # each round's least distance and its two neighbours bracket the next round
        t = np.linspace(a, b, REFINE_POINTS)
        d = dists(t)
        i = int(np.argmin(d))  # ties go to the first index
        a_next, b_next = t[max(i - 1, 0)], t[min(i + 1, REFINE_POINTS - 1)]
        if b_next - a_next >= b - a:
            break
        a, b = a_next, b_next
    return hit, float(t[i]), float(d[i])


def recurrence_scan(
    sys: ControlSystem,
    s0: StateVector,
    tol: float,
    t_max: float,
    dt: float,
) -> float | None:
    """First drift-flow return time into the ``tol``-ball around the start.

    Scans the grid ``k dt`` up to ``t_max``.  The state must first leave the
    ball before a grid time counts as a return; the first return, or without
    one the closest approach after departure, is sharpened by a vectorized
    bracket through the same distance kernel.  A state that never leaves the
    ball (a drift fixed point) reports ``dt``; None means no return before
    ``t_max``, a valid outcome; a drift phase ``t_max max|lambda|`` past
    double precision raises ValueError: an infinite one, and one whose
    rounding margin spans the whole distance range [0, 2].

    This is the Lipschitz block scan :func:`_block_scan` toward the start
    itself, with its departure rule: its answer is the full grid scan's, and
    its memory is bounded whatever the horizon.
    """
    for value, name in ((tol, "tol"), (dt, "dt"), (t_max, "t_max")):
        _check_positive(value, name)
    if not (dt < t_max and t_max / dt < 2.0**53):
        raise ValueError(f"need 0 < dt < t_max and fewer than 2**53 grid steps, got dt={dt}, t_max={t_max}")
    _check_dimension("system", sys.n, s0.n)

    lam, U = canonical_skew_eigensystem(sys.A)
    d = U.conj().T @ s0.c
    count = int(np.floor(t_max / dt + 1e-12))
    v = math.hypot(*(np.abs(d) * lam))  # hypot scales: no overflow or underflow
    if v == 0.0:
        return float(dt)
    phase = t_max * float(np.max(np.abs(lam)))
    if not math.isfinite(phase):  # every distance would be NaN: neither departed nor returned
        raise ValueError(f"the drift phase over t_max = {float(t_max)!r} overflows double precision")
    scan = _block_scan(lam, d, d, v, tol, count, dt, phase, depart=True)
    if scan is None:
        raise ValueError(f"the drift phase over t_max = {float(t_max)!r} is too large to resolve a distance "
                         "in double precision")
    hit, refined_t, refined_d = scan
    hit = None if hit is None else hit * dt
    if refined_d > tol:
        return hit
    return refined_t if hit is None else min(hit, refined_t)
