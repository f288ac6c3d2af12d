"""Dense complex-matrix primitives for bilinear control analysis.

Everything in this package reduces to a handful of operations on square
complex matrices: testing skew-Hermiticity, commutators, the real Frobenius
pairing, and matrix exponentials.  They live here so that validation happens
once and the numerically delicate choices are made in one place.

The exponential of a skew-Hermitian generator goes through a unitary
eigendecomposition (``i X`` is Hermitian), which makes propagators unitary to
machine rounding; generic matrices fall back to scipy's scaling-and-squaring
Pade exponential.
"""

import numpy as np
import scipy.linalg

__all__ = [
    "RANK_TOL",
    "SKEW_TOL",
    "square_matrix",
    "is_skew_hermitian",
    "bracket",
    "frobenius_inner",
    "matrix_exp",
    "skew_eigensystem",
    "segment_eigensystems",
    "canonical_skew_eigensystem",
]


# Numerical cutoffs shared across the toolkit, both relative to the input
# magnitude so that verdicts do not change when the generators are rescaled:
# the singular-value / residual cutoff of every span and rank decision, and
# the largest entry deviation a skew-Hermiticity check allows.
RANK_TOL = 1e-10
SKEW_TOL = 1e-12


def square_matrix(X, name: str = "matrix") -> np.ndarray:
    """Coerce ``X`` to a validated square complex array.

    Raises
    ------
    ValueError
        If the array is not square with n >= 1 or contains NaN/Inf entries.
    """
    M = np.asarray(X, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"{name} must be a square n x n array with n >= 1, got shape {M.shape}")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError(f"{name} has non-finite entries")
    return M


def is_skew_hermitian(X, name: str | None = None) -> bool:
    """Test whether ``X + X^dagger`` vanishes to within ``SKEW_TOL``.

    The deviation is measured in the max-entry norm, relative to
    ``max(1, max-entry norm of X)`` so the verdict does not change under
    rescaling.  Given a ``name``, a failing ``X`` raises ValueError naming it,
    the worst violation and its entry, instead of returning False.
    """
    M = square_matrix(X)
    deviation = np.abs(M + M.conj().T)
    worst = float(np.max(deviation))
    if worst <= SKEW_TOL * max(1.0, float(np.max(np.abs(M)))):
        return True
    if name is not None:
        i, j = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        raise ValueError(f"{name} is not skew-Hermitian: max violation {worst:.3e} at entry ({i}, {j})")
    return False


def bracket(X, Y) -> np.ndarray:
    """Commutator ``[X, Y] = XY - YX``.

    The bracket of two skew-Hermitian matrices is again skew-Hermitian, which
    is what makes iterated bracketing generate a real Lie algebra of
    anti-Hermitian generators.

    Raises
    ------
    ValueError
        If the operands have different dimensions.
    """
    A = square_matrix(X, "bracket operand X")
    B = square_matrix(Y, "bracket operand Y")
    if A.shape != B.shape:
        raise ValueError(f"bracket needs equal shapes, got {A.shape} and {B.shape}")
    return A @ B - B @ A


def frobenius_inner(X, Y) -> float:
    """Real Frobenius pairing ``Re tr(X^dagger Y)``.

    Taking the real part makes the skew-Hermitian matrices a real
    inner-product space, matching the fact that the generated Lie algebra is
    a real vector space.
    """
    A = square_matrix(X, "inner-product operand X")
    B = square_matrix(Y, "inner-product operand Y")
    if A.shape != B.shape:
        raise ValueError(f"inner product needs equal shapes, got {A.shape} and {B.shape}")
    return float(np.real(np.vdot(A, B)))


def skew_eigensystem(X) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``X = V diag(i * omega) V^dagger`` of a skew-Hermitian matrix.

    ``i X`` is Hermitian, so this is an ``eigh`` under the hood: ``omega`` is
    real (returned descending) and ``V`` is unitary to rounding.  No
    skew-Hermiticity check is performed here; callers validate.
    """
    H = 1j * square_matrix(X)
    h, V = np.linalg.eigh(H)  # ascending h; omega = -h comes out descending
    return -h, V


def segment_eigensystems(A: np.ndarray, B: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``skew_eigensystem`` of each ``A + values[..., j] * B``, bit for bit, in one stacked ``eigh``.

    Returns ``omega[..., m, n]`` and ``V[..., m, n, n]`` for ``values`` of shape ``(..., m)``;
    ``A`` and ``B`` are a validated ``ControlSystem`` pair.
    """
    h, V = np.linalg.eigh(1j * (A + values[..., None, None] * B))
    return -h, V


def canonical_skew_eigensystem(X) -> tuple[np.ndarray, np.ndarray]:
    """``skew_eigensystem`` with a deterministic gauge.

    Each eigenvector's largest-magnitude entry is rotated onto the positive
    real axis, and exactly tied eigenfrequencies are ordered by the first
    differing eigenvector component (larger component first).  This pins the
    output for repeated runs even on degenerate spectra.
    """
    omega, V = skew_eigensystem(X)
    V = V.copy()
    n = V.shape[0]
    for k in range(n):
        col = V[:, k]
        pivot = int(np.argmax(np.abs(col)))
        p = col[pivot]
        if np.abs(p) > 0:
            V[:, k] = col * (np.conj(p) / np.abs(p))

    def column_key(k: int):
        return tuple(x for entry in V[:, k] for x in (-entry.real, -entry.imag))

    order = sorted(range(n), key=lambda k: (-omega[k], column_key(k)))
    return omega[order], V[:, order]


def matrix_exp(X, t: float) -> np.ndarray:
    """Matrix exponential ``exp(t X)``.

    Skew-Hermitian inputs (to ``SKEW_TOL``) are exponentiated through the
    unitary eigendecomposition, so the result is unitary up to rounding
    regardless of ``|t|``.  Anything else falls back to scipy's
    scaling-and-squaring Pade approximant.

    Raises
    ------
    ValueError
        If ``X`` has non-finite entries or ``t`` is not finite.
    """
    M = square_matrix(X)
    if not np.isfinite(t):
        raise ValueError(f"exponential parameter must be finite, got {t}")
    if t == 0.0:
        return np.eye(M.shape[0], dtype=complex)
    if is_skew_hermitian(M):
        omega, V = skew_eigensystem(M)
        return (V * np.exp(1j * t * omega)) @ V.conj().T
    return scipy.linalg.expm(t * M)
