"""Controllability toolkit for bilinear systems c' = A c + B c eps(t).

With skew-Hermitian A and B the flow stays on the unit sphere, and the set
of states reachable from c0 with piecewise-constant controls is exactly the
orbit of c0 under the group generated by A and B -- also when that group is
non-compact.  The package generates the Lie algebra, ranks its action to get
orbit dimensions and verdicts, simulates exactly, finds drift recurrences,
and synthesizes steering controls that witness reachability constructively.
"""

__version__ = "0.1.0"

from .matrices import (
    RANK_TOL,
    SKEW_TOL,
    bracket,
    canonical_skew_eigensystem,
    frobenius_inner,
    matrix_exp,
    skew_eigensystem,
)
from .lie import (
    AlgebraClass,
    AlgebraLabel,
    LieAlgebraBasis,
    classify,
    closure,
    member,
)
from .dynamics import (
    ControlSchedule,
    ControlSystem,
    DriftSpectrum,
    StateVector,
    Trajectory,
    diagonalize_drift,
    drift_hamiltonian,
    propagate,
    propagate_operator,
    realify,
    recurrence_scan,
)
from .orbit import (
    CommutingFrame,
    ControllabilityReport,
    GroupWord,
    Verdict,
    block_moduli,
    commuting_frame,
    conserved_moduli,
    controllability_report,
    moduli_distance_bound,
    sample_orbit,
    tangent_dimension,
)
from .steering import (
    ReachabilityCertificate,
    SteeringConfig,
    distance,
    gradient,
    steer,
    verify_reachability,
)

__all__ = [
    "__version__",
    "RANK_TOL",
    "SKEW_TOL",
    "bracket",
    "canonical_skew_eigensystem",
    "frobenius_inner",
    "matrix_exp",
    "skew_eigensystem",
    "AlgebraClass",
    "AlgebraLabel",
    "LieAlgebraBasis",
    "classify",
    "closure",
    "member",
    "ControlSchedule",
    "ControlSystem",
    "DriftSpectrum",
    "StateVector",
    "Trajectory",
    "diagonalize_drift",
    "drift_hamiltonian",
    "propagate",
    "propagate_operator",
    "realify",
    "recurrence_scan",
    "CommutingFrame",
    "ControllabilityReport",
    "GroupWord",
    "Verdict",
    "block_moduli",
    "commuting_frame",
    "conserved_moduli",
    "controllability_report",
    "moduli_distance_bound",
    "sample_orbit",
    "tangent_dimension",
    "ReachabilityCertificate",
    "SteeringConfig",
    "distance",
    "gradient",
    "steer",
    "verify_reachability",
]
