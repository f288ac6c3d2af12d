"""Shared constants and generators for the test suite, and the per-restart reference optimizer."""

import contextlib
import math
import signal

import numpy as np

from reachctl.matrices import SKEW_TOL
from reachctl.steering import _MU_DOWN, _MU_MAX, _MU_START, _MU_UP, _SCALE_FLOOR, SteeringConfig

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


@contextlib.contextmanager
def time_budget(seconds: int):
    """Raise TimeoutError in the block once ``seconds`` have passed, so a call that hangs fails its test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_skew(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """A dense random skew-Hermitian matrix with entries of the given scale."""
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (M - M.conj().T)


def is_skew(X) -> bool:
    """``X + X^dagger`` vanishes to within ``SKEW_TOL`` in the max-entry norm, relative to ``X``'s (zero passes)."""
    M = np.asarray(X, dtype=complex)
    return float(np.max(np.abs(M + M.conj().T))) <= SKEW_TOL * float(np.max(np.abs(M)))


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniformly random unit vector in C^n."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def real_antisymmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    """A dense random real antisymmetric matrix (an so(n) element) as complex."""
    M = rng.normal(size=(n, n))
    return (0.5 * (M - M.T)).astype(complex)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar-random n x n unitary (QR of a Ginibre matrix, phases fixed)."""
    Z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def count_eigh_matrices(monkeypatch) -> list:
    """Patch ``np.linalg.eigh`` to tally the matrices it decomposes; returns the one-item tally."""
    tally, eigh = [0], np.linalg.eigh

    def counted(a, *args, **kwargs):
        tally[0] += int(np.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return tally


def restart_start(cfg: SteeringConfig, restart: int) -> np.ndarray:
    """Restart r's starting schedule: the zero schedule (the pure-drift baseline), then seeded uniform draws."""
    if restart == 0:
        return np.zeros(cfg.segments)
    return np.random.default_rng((cfg.seed, restart)).uniform(-1.0, 1.0, cfg.segments)


def marquardt_step(columns: np.ndarray, r: np.ndarray, mu: float) -> np.ndarray:
    """Marquardt's step ``delta`` with ``(J^T J + mu D) delta = -J^T r``, ``D = diag J^T J`` floored at ``_SCALE_FLOOR``
    times its largest entry, for one row: ``columns[j]`` is the Jacobian's column j.

    Solved in the residual space, ``delta = -D^-1 J^T (mu I + J D^-1 J^T)^-1 r``, as lone products.
    """
    D = np.array([float(column @ column) for column in columns])
    scaled = columns / np.maximum(D, _SCALE_FLOOR * D.max())[:, None]
    M = columns.T @ scaled + mu * np.eye(r.size)
    return -(scaled @ np.linalg.solve(M, r[:, None]))[:, 0]


def optimize_restart_lm(cfg: SteeringConfig, restart: int):
    """One restart's Levenberg-Marquardt descent: ``f, r, columns = yield trial`` evaluates; returns ``(values, f,
    iterations, stop_reason)``, with ``iterations`` its accepted steps.

    The per-restart form of the steering optimizer, one generator per restart and one lone evaluation per
    trial: the reference that the row-batched Levenberg-Marquardt rows of ``steer`` must equal bit for bit.
    """
    values = restart_start(cfg, restart)
    f, r, columns = yield values
    mu = _MU_START
    iterations = 0
    while not f <= cfg.target_distance:  # a NaN distance never counts as converged
        if not math.isfinite(f):
            return values, f, iterations, "line_search_exhausted"
        if iterations == cfg.max_iterations:
            return values, f, iterations, "max_iterations"
        g = columns @ r
        if float(g @ g) <= 1e-28:
            return values, f, iterations, "zero_gradient"
        while True:
            trial = values + marquardt_step(columns, r, mu)
            f_trial, r_trial, columns_trial = yield trial
            if f_trial <= cfg.target_distance:
                return trial, f_trial, iterations + 1, "converged"
            if abs(f - f_trial) <= 1e-12 * f:
                # A stall: the trial moved f by rounding only.
                if f_trial < f:
                    values, f, iterations = trial, f_trial, iterations + 1
                return values, f, iterations, "line_search_exhausted"
            if f_trial < f:
                break
            mu *= _MU_UP
            if not mu <= _MU_MAX:
                return values, f, iterations, "line_search_exhausted"
        mu /= _MU_DOWN
        iterations += 1
        values, f, r, columns = trial, f_trial, r_trial, columns_trial
    return values, f, iterations, "converged"
