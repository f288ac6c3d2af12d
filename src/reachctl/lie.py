"""Generation and classification of the Lie algebra spanned by control generators.

The reachable set of a bilinear system is governed by the smallest real Lie
algebra containing the drift and control generators.  :func:`closure` builds
an orthonormal basis of that algebra by iterated bracketing with on-the-fly
Gram-Schmidt completion, :func:`member` measures distance from its span, and
:func:`classify` names the algebra when it is one of the standard
controllability-relevant cases (all of u(n), su(n), or abelian).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .matrices import RANK_TOL, _check_entries, _check_skew_hermitian, square_matrix

__all__ = [
    "LieAlgebraBasis",
    "AlgebraLabel",
    "AlgebraClass",
    "closure",
    "member",
    "classify",
]


@dataclass
class LieAlgebraBasis:
    """Orthonormal real basis of a matrix Lie algebra of skew-Hermitian generators.

    Attributes
    ----------
    n : int
        Ambient matrix dimension.
    elements : ndarray
        ``(dim, n, n)`` complex array of unit-Frobenius-norm, pairwise
        orthogonal (real Frobenius pairing) skew-Hermitian matrices spanning
        the algebra, as :func:`closure` builds it.
    provenance : list of str
        For each element, the bracket word that produced it, e.g.
        ``"[g0,[g0,g1]]"``.  Seed generators are named ``g0``, ``g1``, ... by
        input position.
    """

    n: int
    elements: np.ndarray
    provenance: list

    @property
    def dim(self) -> int:
        return len(self.elements)


class AlgebraLabel(str, enum.Enum):
    """Controllability-relevant classification of a generated algebra."""

    FULL_UNITARY = "FULL_UNITARY"
    SPECIAL_UNITARY = "SPECIAL_UNITARY"
    ABELIAN = "ABELIAN"
    OTHER = "OTHER"


@dataclass
class AlgebraClass:
    """Dimension and structure flags of a generated algebra."""

    dim: int
    traceless: bool
    abelian: bool
    label: AlgebraLabel


def _realify(X) -> np.ndarray:
    # n x n complex matrices (stacked along leading axes) as real vectors of
    # their interleaved (Re, Im) entries, a view where X is contiguous: the
    # real Frobenius pairing becomes the plain dot product.
    X = np.ascontiguousarray(X, dtype=complex)
    return X.reshape(X.shape[:-2] + (X.shape[-2] * X.shape[-1],)).view(np.float64)


def _orthogonal_residual(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # Classical Gram-Schmidt against the orthonormal rows of Q, applied twice
    # ("twice is enough"): two matrix-vector products per pass.
    for _ in range(2):
        w = w - (Q @ w) @ Q
    return w


def closure(generators) -> LieAlgebraBasis:
    """Orthonormal basis of the smallest real Lie algebra containing ``generators``.

    The basis is one real matrix of up to n^2 rows by 2n^2 floats (at most
    16n^4 bytes), a row per element holding its interleaved real and imaginary
    parts, and its complex view is the ``(rows, n, n)`` stack the brackets
    use.  Full, it doubles its rows in place by a realloc, so memory follows
    the algebra's dimension and no growth copy is kept beside it; a doubling
    past ``matrices.MAX_ENTRIES`` complex entries (rows x n^2) raises a
    ValueError naming n instead of allocating.  It is
    seeded with the orthonormalized generators (the *seeds*) and grown
    breadth-first.  The generated algebra is the smallest subspace that
    contains the generators and is invariant under ``ad_s`` for every seed
    ``s`` (Jacobi identity; Jurdjevic, *Geometric Control Theory*, 1997,
    ch. 3), so only brackets ``[seed_i, e_j]`` are needed, never those of two
    non-seed elements.  Elements are taken in order of admission, and each
    is bracketed with every seed admitted before it, so provenance words are
    right-normed, ``[g_k,word]``.  A generator that lies in the span of the
    earlier ones is rejected and is not a seed.  Each bracket is
    projected onto the orthogonal complement of the current span by classical
    Gram-Schmidt applied twice (two matrix-vector products per pass), and the
    normalized residual is appended whenever its norm exceeds ``RANK_TOL``
    times its scale: a generator's own norm, or 1 for a bracket of two unit
    basis elements (the product of their norms), so a zero candidate is never
    admitted.  Generation stops when every element has been bracketed or
    the count reaches n^2 (the dimension of u(n)), so termination is
    certain and at most ``seeds x dim`` brackets are projected.  Only the
    generators are validated; brackets of basis elements are formed directly
    on the stacked array as ``P - P^dagger`` with ``P = XY``, which is
    exactly skew-Hermitian in floating point.

    Parameters
    ----------
    generators : sequence of array-like
        Non-empty collection of skew-Hermitian matrices of equal dimension.

    Returns
    -------
    LieAlgebraBasis

    Raises
    ------
    ValueError
        If the list is empty, dimensions are mixed, a generator fails the
        skew-Hermiticity check (the offender is named by position), or the
        basis would outgrow ``matrices.MAX_ENTRIES``.
    """
    gens = [square_matrix(g, f"generator {k}") for k, g in enumerate(generators)]
    if not gens:
        raise ValueError("closure requires at least one generator")
    n = gens[0].shape[0]
    for k, g in enumerate(gens):
        if g.shape != (n, n):
            raise ValueError(f"generator {k} has shape {g.shape}, expected {(n, n)}")
        _check_skew_hermitian(g, f"generator {k}")

    cap = n * n
    Q = np.empty((min(cap, len(gens)), 2 * cap))  # rows 0 .. dim-1 are the orthonormal basis
    E = Q.view(complex).reshape(len(Q), n, n)
    dim = 0
    words: list = []

    def admit(w: np.ndarray, scale: float) -> bool:
        nonlocal E, dim
        if dim >= cap:
            return False
        residual = _orthogonal_residual(w, Q[:dim])
        norm = float(np.linalg.norm(residual))
        if norm <= RANK_TOL * scale:
            return False
        if dim == len(Q):
            rows = min(cap, 2 * dim)
            _check_entries(f"the closure of {n} x {n} generators", rows, cap)  # refused before it is allocated
            Q.resize((rows, 2 * cap), refcheck=False)  # E, Q's only view, is rebuilt next
            E = Q.view(complex).reshape(len(Q), n, n)
        Q[dim] = residual / norm
        dim += 1
        return True

    for k, g in enumerate(gens):
        # An exact power of two keeps g's norm and projection finite and nonzero at any scale.
        w = _realify(g)
        w = np.ldexp(w, -np.frexp(np.max(np.abs(w)))[1])
        if admit(w, float(np.linalg.norm(w.view(complex)))):
            words.append(f"g{k}")
    seeds = dim  # elements below ``seeds`` are the admitted generators

    j = 0
    while j < dim < cap:
        for i in range(min(j, seeds)):
            # For skew-Hermitian X and Y, YX = (XY)^dagger: one product instead of
            # two, and a bracket skew-Hermitian to the last bit, so the rounding of
            # XY - YX no longer pushes an element past the SKEW_TOL check.
            P = E[i] @ E[j]
            if admit(_realify(P - P.conj().T), 1.0):
                words.append(f"[{words[i]},{words[j]}]")
        j += 1

    return LieAlgebraBasis(n=n, elements=E[:dim], provenance=words)


def member(basis: LieAlgebraBasis, X) -> float:
    """Frobenius norm of ``X`` minus its orthogonal projection onto ``span(basis)``.

    Zero (to rounding) means ``X`` lies in the algebra.  The projection uses
    real coefficients, matching the algebra's structure as a real vector
    space; a matrix with a component outside the skew-Hermitian cone simply
    reports that component as part of the residual.
    """
    M = square_matrix(X)
    if M.shape != (basis.n, basis.n):
        raise ValueError(f"member got shape {M.shape}, basis dimension is {basis.n}")
    residual = _orthogonal_residual(_realify(M), _realify(basis.elements))
    return float(np.linalg.norm(residual))


def classify(basis: LieAlgebraBasis) -> AlgebraClass:
    """Dimension, tracelessness, and commutativity flags, plus a headline label.

    ``FULL_UNITARY`` when the dimension is n^2 (all of u(n)),
    ``SPECIAL_UNITARY`` when it is n^2 - 1 with every element traceless
    (su(n)), ``ABELIAN`` when all pairwise brackets vanish, ``OTHER``
    otherwise.  For n = 1 the full and abelian conditions coincide and the
    stronger ``FULL_UNITARY`` label wins.  Traceless means
    ``|tr E_i| <= RANK_TOL ||E_i||``; abelian, ``||[E_i, E_j]|| <= RANK_TOL ||E_i|| ||E_j||``.
    """
    E = basis.elements
    dim = basis.dim
    n = basis.n
    norms = np.linalg.norm(E, axis=(1, 2))
    traces = np.abs(np.trace(E, axis1=1, axis2=2))
    traceless = bool(np.all(traces <= RANK_TOL * norms))
    # One row of brackets at a time, [E_i, E_j] for every j > i: the
    # temporary stays the size of the basis.
    abelian = True
    for i in range(dim - 1):
        W = E[i] @ E[i + 1 :] - E[i + 1 :] @ E[i]
        if np.any(np.linalg.norm(W, axis=(1, 2)) > RANK_TOL * norms[i] * norms[i + 1 :]):
            abelian = False
            break

    if dim == n * n:
        label = AlgebraLabel.FULL_UNITARY
    elif dim == n * n - 1 and traceless:
        label = AlgebraLabel.SPECIAL_UNITARY
    elif abelian and dim >= 1:
        label = AlgebraLabel.ABELIAN
    else:
        label = AlgebraLabel.OTHER
    return AlgebraClass(dim=dim, traceless=traceless, abelian=abelian, label=label)
