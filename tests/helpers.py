"""Shared constants and generators for the test suite, and the per-restart reference optimizer."""

import contextlib
import math
import signal

import numpy as np

from reachctl.matrices import SKEW_TOL
from reachctl.steering import _ALPHA_MAX, _ALPHA_MIN, _ARMIJO, _MEMORY, SteeringConfig

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


def lbfgs_direction(g: np.ndarray, pairs: list) -> np.ndarray:
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


def optimize_restart(cfg: SteeringConfig, restart: int):
    """One restart's L-BFGS: ``f, g = yield trial`` evaluates; returns ``(values, f, iterations, stop_reason)``.

    The per-restart form of the steering optimizer, one generator per restart
    and one lone evaluation per trial: the reference that the row-batched
    optimizer of ``steer`` must equal bit for bit.
    """
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
        d = lbfgs_direction(g, pairs)
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
