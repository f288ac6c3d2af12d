"""Shared constants and generators for the test suite."""

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def random_skew(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """A dense random skew-Hermitian matrix with entries of the given scale."""
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (M - M.conj().T)


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
