"""Independent reference implementations the tests check the package against.

Everything here deliberately avoids the package's own algorithms: ranks come
from flag construction instead of Gram-Schmidt worklists, gradients from
central differences instead of exact derivative blocks, and recurrence times
from a plain dense scan without refinement.
"""

import numpy as np
import scipy.linalg

from reachctl import ControlSystem, StateVector, propagate


def _realvec(X: np.ndarray) -> np.ndarray:
    return np.concatenate((X.real.ravel(), X.imag.ravel()))


def _rank(rows: list, rank_tol: float) -> int:
    M = np.vstack(rows)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))


def bracket_flag_rank(generators, rank_tol: float = 1e-10, max_depth: int | None = None) -> int:
    """Dimension of the Lie algebra generated by brute nested bracketing.

    Builds the flag V_1 = span(generators), V_{k+1} = V_k + [generators, V_k]
    up to depth max_depth (default n^2) and returns the final real rank.
    Right-normed brackets span the generated algebra and the flag is
    stationary once one step adds nothing, so stopping at rank stabilization
    is exact.  The frontier of each level is pruned to a rank-increasing
    subset, which preserves spans (the bracket is linear in its second slot)
    while keeping the enumeration polynomial.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    gens = [g for g in gens if np.linalg.norm(g) > 0.0]
    if not gens:
        return 0
    n = gens[0].shape[0]
    if max_depth is None:
        max_depth = n * n

    rows = []
    frontier = []
    rank = 0
    for g in gens:
        if _rank(rows + [_realvec(g)], rank_tol) > rank:
            rows.append(_realvec(g))
            frontier.append(g)
            rank += 1

    for _ in range(2, max_depth + 1):
        new_frontier = []
        for g in gens:
            for w in frontier:
                X = g @ w - w @ g
                if _rank(rows + [_realvec(X)], rank_tol) > rank:
                    rows.append(_realvec(X))
                    new_frontier.append(X)
                    rank += 1
        if not new_frontier:
            break
        frontier = new_frontier
    return rank


def fd_distance_gradient(
    sys: ControlSystem,
    durations: np.ndarray,
    values: np.ndarray,
    s0: StateVector,
    target: StateVector,
    phase_sensitive: bool = True,
    step: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of the terminal distance, via propagate."""
    from reachctl import ControlSchedule

    def objective(v):
        traj = propagate(sys, s0, ControlSchedule(durations, v), samples_per_segment=1)
        c = traj.states[-1]
        if phase_sensitive:
            diff = c - target.c
            return float(0.5 * np.real(np.vdot(diff, diff)))
        return float(1.0 - np.abs(np.vdot(target.c, c)) ** 2)

    grad = np.zeros(values.size)
    for j in range(values.size):
        vp = values.copy()
        vm = values.copy()
        vp[j] += step
        vm[j] -= step
        grad[j] = (objective(vp) - objective(vm)) / (2.0 * step)
    return grad


def block_expm_distance_gradient(
    sys: ControlSystem,
    durations: np.ndarray,
    values: np.ndarray,
    s0: StateVector,
    target: StateVector,
    phase_sensitive: bool = True,
) -> np.ndarray:
    """Exact terminal-distance gradient from augmented block exponentials.

    The derivative of ``exp(dt (A + eps B))`` in ``eps`` is the top-right block
    of ``expm([[dt G, dt B], [0, dt G]])`` with ``G = A + eps B`` (Van Loan).
    Each segment is one scipy ``expm`` of the doubled matrix, chained through
    dense products: no eigendecomposition and no difference step.
    """
    n = sys.n
    zero = np.zeros((n, n))
    blocks = [scipy.linalg.expm(dt * np.block([[sys.A + v * sys.B, sys.B], [zero, sys.A + v * sys.B]]))
              for dt, v in zip(durations, values)]
    states = [s0.c]
    for E in blocks:
        states.append(E[:n, :n] @ states[-1])
    if phase_sensitive:
        w, prefactor = states[-1] - target.c, 1.0
    else:
        w, prefactor = target.c, -2.0 * np.conj(np.vdot(target.c, states[-1]))
    grad = np.zeros(len(blocks))
    for j in range(len(blocks) - 1, -1, -1):
        grad[j] = np.real(prefactor * np.vdot(w, blocks[j][:n, n:] @ states[j]))
        w = blocks[j][:n, :n].conj().T @ w
    return grad


def word_state(sys: ControlSystem, s0: StateVector, word: np.ndarray) -> np.ndarray:
    """The state ``exp(t_m (A + u_m B)) ... exp(t_1 (A + u_1 B)) c0`` of a word of ``(u_k, t_k)`` rows.

    One scipy ``expm`` per factor, applied in row order by dense products: no
    eigendecomposition, and a negative duration is just a negative scalar.
    """
    c = s0.c
    for u, t in word:
        c = scipy.linalg.expm(t * (sys.A + u * sys.B)) @ c
    return c


def dense_recurrence_time(
    lambdas: np.ndarray,
    weights: np.ndarray,
    tol: float,
    t_max: float,
    dt: float,
) -> float | None:
    """First grid return after first departure, by exhaustive evaluation."""
    ts = np.arange(1, int(np.floor(t_max / dt)) + 1) * dt
    gap = 2.0 * np.sum(weights * (1.0 - np.cos(np.outer(ts, lambdas))), axis=1)
    ds = np.sqrt(np.maximum(gap, 0.0))
    outside = np.nonzero(ds > tol)[0]
    if outside.size == 0:
        return float(dt)
    after = np.nonzero(ds[outside[0]:] <= tol)[0]
    if after.size == 0:
        return None
    return float(ts[outside[0] + after[0]])


def fd_endpoint_jacobian(
    sys: ControlSystem,
    durations: np.ndarray,
    values: np.ndarray,
    s0: StateVector,
    target: StateVector,
    phase_sensitive: bool = True,
    step: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of the real endpoint residual, each endpoint a product of scipy ``expm`` factors.

    The residual is ``c - t`` phase-sensitively and ``sqrt2 (c - <t, c> t)`` projectively, as the real
    vector ``(Re, Im)``, so that half its squared norm is the distance.  Column j of the ``(2n, m)``
    result is its derivative in segment j's control value: no eigendecomposition and no adjoint.
    """
    def residual(v):
        c = s0.c
        for dt, u in zip(durations, v):
            c = scipy.linalg.expm(dt * (sys.A + u * sys.B)) @ c
        r = c - target.c if phase_sensitive else np.sqrt(2.0) * (c - np.vdot(target.c, c) * target.c)
        return np.concatenate((r.real, r.imag))

    columns = []
    for j in range(values.size):
        vp = values.copy()
        vm = values.copy()
        vp[j] += step
        vm[j] -= step
        columns.append((residual(vp) - residual(vm)) / (2.0 * step))
    return np.array(columns).T


def dense_hitting_index(
    lambdas: np.ndarray,
    d: np.ndarray,
    g: np.ndarray,
    tol: float,
    count: int,
    dt: float,
    projective: bool = False,
) -> tuple[int | None, float]:
    """First grid index ``k`` in ``0..count`` at which ``exp(i lambdas k dt) d`` is within ``tol`` of ``g``, or None,
    and the least grid distance, by exhaustive evaluation.

    The distance is the plain norm of the difference, or projectively ``sqrt(2 - 2 |<g, c>|)``: complex
    exponentials of every grid time, with no cosine form and no Lipschitz bound.
    """
    states = np.exp(1j * np.outer(np.arange(count + 1) * dt, lambdas)) * d
    if projective:
        ds = np.sqrt(np.maximum(2.0 - 2.0 * np.abs(states @ np.conj(g)), 0.0))
    else:
        ds = np.linalg.norm(states - g, axis=1)
    hits = np.flatnonzero(ds <= tol)
    return (int(hits[0]) if hits.size else None), float(ds.min())
