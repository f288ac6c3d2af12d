"""Dense complex-matrix primitives for bilinear control analysis.

Everything in this package reduces to a handful of operations on square
complex matrices: checking skew-Hermiticity, commutators, the real Frobenius
pairing, and matrix exponentials.  They live here so that validation happens
once and the numerically delicate choices are made in one place.

The exponential of a skew-Hermitian generator goes through a unitary
eigendecomposition (``i X`` is Hermitian), which makes propagators unitary to
machine rounding.
"""

import math

import numpy as np

__all__ = [
    "RANK_TOL",
    "SKEW_TOL",
    "square_matrix",
    "bracket",
    "frobenius_inner",
    "matrix_exp",
    "skew_eigensystem",
    "skew_eigensystems",
    "eigensystem_exp",
    "canonical_skew_eigensystem",
]


# Numerical cutoffs shared across the toolkit: the residual cutoff of every
# span, rank and commutation decision, and the largest entry deviation a
# skew-Hermiticity check allows.  Each decision is ``residual <= TOL * scale``
# with ``scale`` the norm of its own operands, so rescaling changes no verdict.
RANK_TOL = 1e-10
SKEW_TOL = 1e-12


# A Python float, so that it compares any int exactly.
_FLOAT_MAX = float(np.finfo(float).max)

# The most array entries the counts of one call may ask for, 4 GiB of complex numbers: hundreds of times what any
# input of the benchmark, the demos or the acceptance criteria asks for, and refused before any work is done.
MAX_ENTRIES = 2**28


# The argument rules of every public entry: a count, the array entries counts ask for, a finite positive real, a
# finite real, a positive share of a total over a count, a state's dimension, a skew-Hermitian generator.
def _check_count(value, name: str, least: int = 1) -> int:
    """``value`` as an ``int``: a Python or numpy integer, never a bool, of at least ``least`` (1 or 0)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be a {'positive' if least else 'non-negative'} integer, got {value!r}")
    return int(value)


def _check_entries(name: str, *counts) -> None:
    """The array entries that the count ``name`` asks for, the exact product of already checked ``counts``, are at
    most ``MAX_ENTRIES``."""
    if math.prod(map(int, counts)) > MAX_ENTRIES:
        raise ValueError(f"{name} is too large: it asks for more than {MAX_ENTRIES} array entries")


def _is_real(value) -> bool:
    """A Python or numpy integer or float, never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_positive(value, name: str) -> None:
    """A real number, never a bool, in (0, inf): an ``int`` too large for a float counts as infinite."""
    if not (_is_real(value) and 0 < value <= _FLOAT_MAX):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_real(value, name: str) -> None:
    """A real number, never a bool, of either sign and finite: an ``int`` too large for a float counts as infinite."""
    if not (_is_real(value) and -_FLOAT_MAX <= value <= _FLOAT_MAX):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _check_share(total, count: int, total_name: str, count_name: str) -> float:
    """``total / count`` of an already checked positive ``total`` and count: a count too large for a float, or a
    quotient that underflows to 0, raises a ValueError naming both."""
    if count > _FLOAT_MAX:
        raise ValueError(f"{total_name} / {count_name}: {count_name} is too large for a float")
    share = total / count
    if not share > 0:
        raise ValueError(f"{total_name} / {count_name} underflows to 0: {total!r} / {count}")
    return share


def _check_dimension(what: str, n: int, *dims: int) -> None:
    """Each state dimension of ``dims`` is the ``what`` dimension ``n``."""
    for m in dims:
        if m != n:
            raise ValueError(f"{what} dimension {n} does not match state dimension {m}")


def _check_skew_hermitian(M: np.ndarray, name: str) -> None:
    """``M``, as :func:`square_matrix` returned it, has ``max |M + M^dagger| <= SKEW_TOL max |M|`` (zero passes, at
    any scale); a failure names ``name``, the worst violation and its entry."""
    deviation = np.abs(M + M.conj().T)
    worst = float(np.max(deviation))
    if worst > SKEW_TOL * float(np.max(np.abs(M))):
        i, j = np.unravel_index(int(np.argmax(deviation)), deviation.shape)
        raise ValueError(f"{name} is not skew-Hermitian: max violation {worst:.3e} at entry ({i}, {j})")


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
    return skew_eigensystems(1j * square_matrix(X))


def skew_eigensystems(iX: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one ``eigh``: :func:`skew_eigensystem`, bit for bit, of each matrix of a stack ``X`` given as ``i X``.

    Nothing is validated.  Callers form ``i X`` in one expression, such as ``1j * (A + v * B)``,
    so no other stack-sized temporary lives through the ``eigh``.
    """
    h, V = np.linalg.eigh(iX)  # ascending h; omega = -h comes out descending
    return -h, V


def eigensystem_exp(omega: np.ndarray, V: np.ndarray, t) -> np.ndarray:
    """The one exponential: ``exp(t X) = V diag(exp(i t omega)) V^dagger`` from ``X``'s eigensystem.

    Broadcasts over stacks and over ``t``, a scalar or an array shaped ``omega.shape[:-1] + (1,)``.
    """
    return (V * np.exp(1j * t * omega)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def canonical_skew_eigensystem(X) -> tuple[np.ndarray, np.ndarray]:
    """``skew_eigensystem`` with a deterministic gauge.

    Each eigenvector's largest-magnitude entry is rotated onto the positive
    real axis, and exactly tied eigenfrequencies are ordered by the first
    differing eigenvector component (larger component first).  This pins the
    output for repeated runs even on degenerate spectra.
    """
    omega, V = skew_eigensystem(X)
    n = V.shape[0]
    pivots = V[np.argmax(np.abs(V), axis=0), np.arange(n)]  # nonzero: V's columns are unit vectors
    V = V * (np.conj(pivots) / np.abs(pivots))
    # Sort keys, most significant last: Im V[n-1], Re V[n-1], ..., Im V[0], Re V[0], then omega.
    keys = np.stack((V.real, V.imag), axis=1).reshape(2 * n, n)[::-1]
    order = np.lexsort(np.vstack((-keys, -omega)))
    return omega[order], V[:, order]


def matrix_exp(X, t: float) -> np.ndarray:
    """Matrix exponential ``exp(t X)``.

    ``t == 0`` gives the exact identity; otherwise ``X`` must be
    skew-Hermitian (to ``SKEW_TOL``), and the result is unitary to rounding.

    Raises
    ------
    ValueError
        If ``X`` has non-finite entries, ``t`` is not a finite real number,
        ``t != 0`` and ``X`` is not skew-Hermitian, or the flow over ``t``
        overflows double precision.
    """
    M = square_matrix(X)
    _check_real(t, "t")
    if t == 0.0:
        return np.eye(M.shape[0], dtype=complex)
    _check_skew_hermitian(M, "matrix_exp generator")
    with np.errstate(over="ignore", invalid="ignore"):  # the ValueError below is the one diagnostic
        U = eigensystem_exp(*skew_eigensystems(1j * M), t)
    if not np.isfinite(U).all():
        raise ValueError(f"the flow over t = {float(t)!r} overflows double precision")
    return U
