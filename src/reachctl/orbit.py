"""Orbit geometry of the group generated by the control Lie algebra.

The set of states reachable from ``c0`` equals the orbit of ``c0`` under the
connected group whose Lie algebra is generated by the drift and control
matrices -- and this holds whether or not that group is compact or closed.
The group itself may therefore be impossible to materialize (think of a dense
irrational winding on a torus), so everything here works infinitesimally or
by construction: the orbit dimension is the rank of the algebra's action at
the state, orbit points are produced as explicit products of one-parameter
subgroup elements, and for commuting (torus) systems the conserved moduli
that confine the orbit are computed outright.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSystem, StateVector, diagonalize_drift
from .lie import AlgebraClass, AlgebraLabel, LieAlgebraBasis, classify, closure
from .matrices import RANK_TOL, bracket, canonical_skew_eigensystem, eigensystem_exp, skew_eigensystems

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
    if basis.n != s.n:
        raise ValueError(f"basis dimension {basis.n} does not match state dimension {s.n}")
    if basis.dim == 0:
        return 0
    V = (basis.elements @ s.c).T
    sv = np.linalg.svd(np.vstack((V.real, V.imag)), compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
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
    if int(word_length) != word_length or word_length < 0:
        raise ValueError(f"word_length must be a nonnegative integer, got {word_length}")
    rng = np.random.default_rng(seed)
    factors = []
    if basis.dim > 0:
        for _ in range(int(word_length)):
            gi = int(rng.integers(basis.dim))
            factors.append((basis.elements[gi], float(rng.uniform(-DURATION_SCALE, DURATION_SCALE))))
    word = GroupWord(factors)
    return word.apply(s0), word


def _cluster_spans(values: np.ndarray, cluster_tol: float) -> list:
    # Split a descending-sorted value list into runs of consecutive entries
    # whose gaps stay within cluster_tol; returns index lists.
    spans = []
    start = 0
    for k in range(1, values.size + 1):
        if k == values.size or abs(values[k - 1] - values[k]) > cluster_tol:
            spans.append(list(range(start, k)))
            start = k
    return spans


def commuting_frame(sys: ControlSystem) -> CommutingFrame | None:
    """Common eigenbasis of (A, B) when they commute, else None.

    Starts from the drift eigenbasis and, inside each degenerate drift
    eigenspace, diagonalizes the control generator's restriction, so the
    returned frame is a joint eigenbasis even when the drift alone does not
    determine one.  Blocks group indices with equal joint eigenvalue pairs.
    """
    commutator = bracket(sys.A, sys.B)
    scale = max(1.0, float(np.linalg.norm(sys.A) * np.linalg.norm(sys.B)))
    if float(np.linalg.norm(commutator)) > RANK_TOL * scale:
        return None

    spectrum = diagonalize_drift(sys.A)
    lam_a = spectrum.lambdas.copy()
    U = spectrum.U.copy()
    n = sys.n
    lam_b = np.zeros(n)

    M = U.conj().T @ sys.B @ U
    cluster_tol_a = RANK_TOL * max(1.0, float(np.max(np.abs(lam_a))) if n else 1.0)
    blocks = []
    for span in _cluster_spans(lam_a, cluster_tol_a):
        idx = np.array(span)
        Mb = M[np.ix_(idx, idx)]
        Mb = 0.5 * (Mb - Mb.conj().T)  # strip commutator-sized noise
        omega_b, Vb = canonical_skew_eigensystem(Mb)
        U[:, idx] = U[:, idx] @ Vb
        lam_b[idx] = omega_b
        cluster_tol_b = RANK_TOL * max(1.0, float(np.max(np.abs(omega_b))))
        for sub in _cluster_spans(omega_b, cluster_tol_b):
            blocks.append([int(idx[i]) for i in sub])
    return CommutingFrame(lambdas_a=lam_a, lambdas_b=lam_b, U=U, blocks=blocks)


def block_moduli(frame: CommutingFrame, s: StateVector) -> np.ndarray:
    """Per-block amplitude norms ``sqrt(sum_{k in block} |d_k|^2)``, ``d = U^dagger c``."""
    d = frame.U.conj().T @ s.c
    return np.array([float(np.sqrt(np.sum(np.abs(d[block]) ** 2))) for block in frame.blocks])


def conserved_moduli(sys: ControlSystem) -> list | None:
    """Index groups whose amplitude norms every admissible control conserves.

    Present exactly when A and B commute (within tolerance): every generator
    ``A + eps B`` is then diagonal in the common eigenbasis, so each joint
    eigenspace's modulus is invariant no matter what the control does, which
    confines the reachable set to a torus inside the sphere.  Absent
    (``None``) when ``[A, B] != 0``.
    """
    frame = commuting_frame(sys)
    if frame is None:
        return None
    return [list(block) for block in frame.blocks]


def moduli_distance_bound(sys: ControlSystem, s0: StateVector, target: StateVector) -> float:
    """A-priori floor on the phase-sensitive distance to ``target``.

    For a commuting system every reachable state keeps the block moduli of
    ``s0``, and per block the reverse triangle inequality gives
    ``|c_block - t_block| >= |m0 - mt|``, so no control can bring the
    half-squared distance below ``0.5 * sum (m0 - mt)^2``.  Returns 0 for
    non-commuting systems (no moduli obstruction).
    """
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
    ``RESTRICTED`` otherwise, with the conserved moduli reported when the
    generators commute.  The verdict rests on the rank of the generated
    algebra's action alone; compactness or closedness of the generated group
    is never consulted and never needed.
    """
    basis = closure([sys.A, sys.B])
    algebra_class = classify(basis)
    orbit_dim = tangent_dimension(basis, s0)
    sphere_dim = 2 * sys.n - 1
    moduli = conserved_moduli(sys)

    if algebra_class.label in (AlgebraLabel.FULL_UNITARY, AlgebraLabel.SPECIAL_UNITARY):
        verdict = Verdict.OPERATOR_CONTROLLABLE
    elif orbit_dim == sphere_dim:
        verdict = Verdict.STATE_CONTROLLABLE
    else:
        verdict = Verdict.RESTRICTED

    parts = [
        f"generated algebra has dimension {basis.dim} ({algebra_class.label.value}) "
        f"inside u({sys.n}) of dimension {sys.n * sys.n}",
        f"orbit through the state has dimension {orbit_dim}; the sphere has dimension {sphere_dim}",
        f"verdict: {verdict.value}",
        "the verdict follows from the rank of the generated algebra's action alone; "
        "no compactness or closedness assumption on the generated group is used",
    ]
    if verdict is Verdict.RESTRICTED and moduli is not None:
        parts.append(
            "the reachable set is confined to the torus fixed by the conserved moduli "
            f"index groups {moduli}"
        )
    summary = "; ".join(parts) + "."

    return ControllabilityReport(
        algebra_dim=basis.dim,
        algebra_class=algebra_class,
        orbit_dim=orbit_dim,
        sphere_dim=sphere_dim,
        verdict=verdict,
        conserved_moduli=moduli,
        summary=summary,
    )
