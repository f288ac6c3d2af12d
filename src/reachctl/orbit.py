"""Orbit geometry of the group generated by the control Lie algebra.

The set of states reachable from ``c0`` equals the orbit of ``c0`` under the
connected group whose Lie algebra is generated by the drift and control
matrices -- and this holds whether or not that group is compact or closed.
The group itself may therefore be impossible to materialize (think of a dense
irrational winding on a torus), so everything here works infinitesimally or
by construction: the orbit dimension is the rank of the algebra's action at
the state, orbit points are produced as explicit products of one-parameter
subgroup elements, and when the generated algebra is abelian -- the one
commutation decision, which the report takes from the transition-graph
certificate or else from its own closure -- one builder computes the
conserved moduli that confine the orbit to a torus.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSystem, StateVector
from .lie import AlgebraClass, AlgebraLabel, LieAlgebraBasis, classify, closure
from .matrices import (
    RANK_TOL, _check_count, _check_dimension, _check_entries, canonical_skew_eigensystem, eigensystem_exp,
    skew_eigensystems,
)

__all__ = [
    "GroupWord",
    "Verdict",
    "ControllabilityReport",
    "CommutingFrame",
    "tangent_dimension",
    "sample_orbit",
    "commuting_frame",
    "block_moduli",
    "conserved_moduli",
    "moduli_distance_bound",
    "controllability_report",
]

# Orbit-sample factor durations are drawn uniformly from [-DURATION_SCALE, DURATION_SCALE].
DURATION_SCALE = 2.0


class Verdict(str, enum.Enum):
    """Outcome of the controllability analysis."""

    STATE_CONTROLLABLE = "STATE_CONTROLLABLE"
    OPERATOR_CONTROLLABLE = "OPERATOR_CONTROLLABLE"
    RESTRICTED = "RESTRICTED"


@dataclass
class GroupWord:
    """A group element as an ordered product of one-parameter factors.

    ``factors`` is a list of (generator, duration) pairs, applied in list
    order: the state reached is ``exp(t_m X_m) ... exp(t_1 X_1) c``.  The
    skew-Hermitian generators share one stacked ``eigh``; ``t = 0`` is the identity.
    """

    factors: list

    def apply(self, s: StateVector) -> StateVector:
        c = s.c
        if self.factors:
            omega, V = skew_eigensystems(1j * np.array([X for X, _ in self.factors], dtype=complex))
            for (_, t), omega_k, V_k in zip(self.factors, omega, V):
                if t != 0.0:
                    c = eigensystem_exp(omega_k, V_k, t) @ c
        return StateVector.normalized(c)


@dataclass
class CommutingFrame:
    """Common eigenstructure of a commuting generator pair.

    ``U`` diagonalizes both generators: ``A = U diag(i lambdas_a) U^dagger``
    and ``B = U diag(i lambdas_b) U^dagger`` up to tolerance.  ``blocks``
    groups the indices by joint eigenvalue; within each block the basis is an
    arbitrary rotation, so only block-wise moduli are honest invariants.
    """

    lambdas_a: np.ndarray
    lambdas_b: np.ndarray
    U: np.ndarray
    blocks: list


@dataclass
class ControllabilityReport:
    """Everything the analysis concludes about one (system, state) pair."""

    algebra_dim: int
    algebra_class: AlgebraClass
    orbit_dim: int
    sphere_dim: int
    verdict: Verdict
    conserved_moduli: list | None
    summary: str


def tangent_dimension(basis: LieAlgebraBasis, s: StateVector) -> int:
    """Dimension of the orbit through ``s``: rank of the algebra's action there.

    The tangent vectors ``X c`` for ``X`` in the basis are stacked as
    realified columns of a (2n) x dim matrix whose numerical rank (singular
    values above ``RANK_TOL`` relative to the largest) is the local orbit
    dimension.  No group enumeration is involved, so the answer is unaffected
    by the group being non-compact or non-closed.
    """
    _check_dimension("basis", basis.n, s.n)
    if basis.dim == 0:
        return 0
    V = (basis.elements @ s.c).T
    sv = np.linalg.svd(np.vstack((V.real, V.imag)), compute_uv=False)
    return int(np.sum(sv > RANK_TOL * sv[0]))


def sample_orbit(
    basis: LieAlgebraBasis,
    s0: StateVector,
    word_length: int,
    seed: int = 0,
) -> tuple[StateVector, GroupWord]:
    """A reproducible point of the orbit through ``s0`` with its group word.

    Draws ``word_length`` (generator, duration) pairs -- the generator
    uniformly from the basis, the duration uniformly from
    ``[-DURATION_SCALE, DURATION_SCALE]`` -- from a generator seeded by
    ``seed``, and applies the corresponding one-parameter factors in order.
    The result lies on the orbit by construction, which is what makes it a
    trustworthy steering target: no reachability is presupposed.
    """
    word_length = _check_count(word_length, "word_length", 0)
    _check_count(seed, "seed", 0)
    _check_dimension("basis", basis.n, s0.n)
    _check_entries("word_length", word_length, basis.n**2)
    rng = np.random.default_rng(seed)
    factors = []
    if basis.dim > 0:
        for _ in range(word_length):
            gi = int(rng.integers(basis.dim))
            factors.append((basis.elements[gi], float(rng.uniform(-DURATION_SCALE, DURATION_SCALE))))
    word = GroupWord(factors)
    return word.apply(s0), word


def _joint_frame(sys: ControlSystem) -> CommutingFrame:
    # The joint eigenbasis of a pair already known to commute: see commuting_frame.
    norm_a, norm_b = (float(np.hypot.reduce(np.abs(M).ravel())) for M in (sys.A, sys.B))  # cannot overflow

    lam_a, U = canonical_skew_eigensystem(sys.A)
    lam_b = np.zeros(sys.n)

    M = U.conj().T @ sys.B @ U
    blocks = []
    for idx in np.split(np.arange(sys.n), np.flatnonzero(np.abs(np.diff(lam_a)) > RANK_TOL * norm_a) + 1):
        Mb = M[np.ix_(idx, idx)]
        omega_b, Vb = skew_eigensystems(1j * (0.5 * (Mb - Mb.conj().T)))  # strip commutator-sized noise
        U[:, idx] = U[:, idx] @ Vb
        lam_b[idx] = omega_b
        cuts = np.flatnonzero(np.abs(np.diff(omega_b)) > RANK_TOL * norm_b) + 1
        blocks += [block.tolist() for block in np.split(idx, cuts)]
    return CommutingFrame(lambdas_a=lam_a, lambdas_b=lam_b, U=U, blocks=blocks)


def _unitary_class(sys: ControlSystem) -> AlgebraClass | None:
    """The generated algebra's class when the drift's transition graph certifies u(n) or su(n), else None.

    In the drift eigenbasis ``A = U diag(i omega) U^dagger``, ``ad_A`` turns the (i, j) entry of
    ``M = U^dagger B U`` at the transition gap ``omega_i - omega_j``.  When the gaps are nonzero and pairwise
    distinct, polynomials in ``ad_A`` isolate each entry, so the algebra holds the (i, j) rotations of every
    nonzero coupling ``M_ij``; when those couplings connect all n levels, their brackets span su(n), and the
    algebra is u(n), or su(n) when both traces vanish (Turinici and Rabitz, Chem. Phys. 267, 1 (2001); Altafini,
    J. Math. Phys. 43, 2051 (2002)).  Each test is ``value > RANK_TOL * scale`` on its own operands
    (``max |omega|``, ``max |M|``, a generator's Frobenius norm), and every value must clear its threshold by
    100x either way, where closure's rank decisions agree with it; a value inside that fragile band, n < 2, and
    every failed test give None.  That leaves so(n) pairs (gaps in +- pairs), tori, direct sums and equally
    spaced ladders to closure.  One ``eigh`` and two products: O(n^3).
    """
    n = sys.n
    if n < 2:
        return None
    # Each generator's |trace| and Frobenius norm, taken without overflow.
    traces = [(abs(np.trace(X)), float(np.hypot.reduce(np.abs(X).ravel()))) for X in (sys.A, sys.B)]
    if any(RANK_TOL / 100 * norm < trace <= 100 * RANK_TOL * norm for trace, norm in traces):
        return None
    omega, U = skew_eigensystems(1j * sys.A)
    gaps = np.sort((omega[:, None] - omega)[np.triu_indices(n, 1)])  # non-negative: omega descends
    if not np.min(np.diff(gaps, prepend=0.0)) > 100 * RANK_TOL * np.max(np.abs(omega)):
        return None  # a zero gap or two equal ones, or too close to tell
    M = U.conj().T @ sys.B @ U
    coupling = np.abs(M - M.conj().T)  # exactly symmetric, and so is the graph
    edges = coupling > 100 * RANK_TOL * np.max(coupling)
    reached = np.arange(n) == 0
    while not reached.all():
        grown = reached | edges[reached].any(axis=0)
        if np.array_equal(grown, reached):
            return None  # some levels are not coupled to the rest, or only faintly
        reached = grown
    traceless = all(trace <= RANK_TOL / 100 * norm for trace, norm in traces)
    return AlgebraClass(
        dim=n * n - 1 if traceless else n * n,
        traceless=traceless,
        abelian=False,
        label=AlgebraLabel.SPECIAL_UNITARY if traceless else AlgebraLabel.FULL_UNITARY,
    )


def _generated_algebra(sys: ControlSystem) -> tuple[AlgebraClass, LieAlgebraBasis | None]:
    # The class of the algebra (A, B) generate: certified without a basis, or else classified from the one closure.
    algebra_class = _unitary_class(sys)
    if algebra_class is not None:
        return algebra_class, None
    basis = closure([sys.A, sys.B])
    return classify(basis), basis


def commuting_frame(sys: ControlSystem) -> CommutingFrame | None:
    """Common eigenbasis of (A, B) when they commute, else None.

    The pair commutes when the algebra it generates is abelian, the decision
    ``analyze`` reports, and it is taken the way the report takes it: a pair
    the transition-graph certificate calls u(n) or su(n) is answered without
    a closure, any other pair costs one.  Starts from the drift eigenbasis
    and, inside each degenerate drift eigenspace, diagonalizes the control
    generator's restriction, so the returned frame is a joint eigenbasis even
    when the drift alone does not determine one; inside a cluster of several
    equal drift frequencies the basis is ``eigh``'s.  Blocks group indices
    with equal joint eigenvalue pairs.  Drift and control eigenvalues split at
    gaps above ``RANK_TOL ||A||`` and ``RANK_TOL ||B||``, so rounding noise
    where B vanishes stays one block.
    """
    return _joint_frame(sys) if _generated_algebra(sys)[0].abelian else None


def block_moduli(frame: CommutingFrame, s: StateVector) -> np.ndarray:
    """Per-block amplitude norms ``sqrt(sum_{k in block} |d_k|^2)``, ``d = U^dagger c``."""
    _check_dimension("frame", frame.U.shape[0], s.n)
    d = frame.U.conj().T @ s.c
    return np.array([float(np.sqrt(np.sum(np.abs(d[block]) ** 2))) for block in frame.blocks])


def conserved_moduli(sys: ControlSystem) -> list | None:
    """Index groups whose amplitude norms every admissible control conserves.

    Present exactly when the generated algebra is abelian (see
    :func:`commuting_frame`): every generator ``A + eps B`` is then diagonal
    in the common eigenbasis, so each joint eigenspace's modulus is invariant
    no matter what the control does, which confines the reachable set to a
    torus inside the sphere.  Absent (``None``) otherwise.
    """
    frame = commuting_frame(sys)
    return None if frame is None else frame.blocks


def moduli_distance_bound(sys: ControlSystem, s0: StateVector, target: StateVector) -> float:
    """A-priori floor on the phase-sensitive distance to ``target``.

    For a commuting system every reachable state keeps the block moduli of
    ``s0``, and per block the reverse triangle inequality gives
    ``|c_block - t_block| >= |m0 - mt|``, so no control can bring the
    half-squared distance below ``0.5 * sum (m0 - mt)^2``.  Returns 0 when
    the generated algebra is not abelian (no moduli obstruction).  A state
    whose dimension is not the system's raises ValueError.
    """
    _check_dimension("system", sys.n, s0.n, target.n)
    frame = commuting_frame(sys)
    if frame is None:
        return 0.0
    m0 = block_moduli(frame, s0)
    mt = block_moduli(frame, target)
    return float(0.5 * np.sum((m0 - mt) ** 2))


def controllability_report(sys: ControlSystem, s0: StateVector) -> ControllabilityReport:
    """Full analysis: generate the algebra, rank its action, assemble the verdict.

    ``OPERATOR_CONTROLLABLE`` when the algebra is all of u(n) or su(n) (every
    unitary, up to phase, is then reachable at the propagator level);
    ``STATE_CONTROLLABLE`` when the orbit fills the sphere (dimension 2n-1);
    ``RESTRICTED`` otherwise, with the conserved moduli when the algebra is
    abelian.  The verdict rests on the rank of the generated algebra's action
    alone; compactness or closedness of the generated group is never
    consulted and never needed.

    A generic pair is certified u(n) or su(n) from the drift's transition
    graph (one ``eigh`` of A, O(n^3)), and its report is built without a
    closure: dimension n^2, or n^2 - 1 when both traces vanish, and an orbit
    that fills the sphere.  Every other pair, and a certificate test too
    close to its threshold to tell, makes one closure and one ``classify``.
    The report is the same either way.
    """
    _check_dimension("system", sys.n, s0.n)
    algebra_class, basis = _generated_algebra(sys)
    sphere_dim = 2 * sys.n - 1
    # su(n) acts transitively on the sphere, so a certified algebra needs no rank.
    orbit_dim = sphere_dim if basis is None else tangent_dimension(basis, s0)

    if algebra_class.label in (AlgebraLabel.FULL_UNITARY, AlgebraLabel.SPECIAL_UNITARY):
        verdict = Verdict.OPERATOR_CONTROLLABLE
    elif orbit_dim == sphere_dim:
        verdict = Verdict.STATE_CONTROLLABLE
    else:
        verdict = Verdict.RESTRICTED
    moduli = _joint_frame(sys).blocks if verdict is Verdict.RESTRICTED and algebra_class.abelian else None

    parts = [
        f"generated algebra has dimension {algebra_class.dim} ({algebra_class.label.value}) "
        f"inside u({sys.n}) of dimension {sys.n * sys.n}",
        f"orbit through the state has dimension {orbit_dim}; the sphere has dimension {sphere_dim}",
        f"verdict: {verdict.value}",
        "the verdict follows from the rank of the generated algebra's action alone; "
        "no compactness or closedness assumption on the generated group is used",
    ]
    if moduli is not None:
        parts.append(
            "the reachable set is confined to the torus fixed by the conserved moduli "
            f"index groups {moduli}"
        )
    summary = "; ".join(parts) + "."

    return ControllabilityReport(
        algebra_dim=algebra_class.dim,
        algebra_class=algebra_class,
        orbit_dim=orbit_dim,
        sphere_dim=sphere_dim,
        verdict=verdict,
        conserved_moduli=moduli,
        summary=summary,
    )
