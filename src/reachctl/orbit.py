"""Orbit geometry of the group generated by the control Lie algebra.

The set of states reachable from ``c0`` equals the orbit of ``c0`` under the
connected group whose Lie algebra is generated by the drift and control
matrices -- and this holds whether or not that group is compact or closed.
The group itself may therefore be impossible to materialize (think of a dense
irrational winding on a torus), so everything here works infinitesimally or
by construction: the orbit dimension is the rank of the algebra's action at
the state, orbit points are produced as explicit words of the system's own
flows, and when the generated algebra is abelian -- the one commutation
decision, which the report takes from the drift-frame certificates or else
from its own closure -- one builder computes the conserved moduli that
confine the orbit to a torus.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSystem, StateVector, forward_pass
from .lie import AlgebraClass, AlgebraLabel, LieAlgebraBasis, classify, closure
from .matrices import RANK_TOL, _check_count, _check_dimension, _check_entries, skew_eigensystems

__all__ = [
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

# Orbit-sample factors draw controls uniformly from [-1, 1] and durations from [-DURATION_SCALE, DURATION_SCALE].
DURATION_SCALE = 2.0


class Verdict(str, enum.Enum):
    """Outcome of the controllability analysis."""

    STATE_CONTROLLABLE = "STATE_CONTROLLABLE"
    OPERATOR_CONTROLLABLE = "OPERATOR_CONTROLLABLE"
    RESTRICTED = "RESTRICTED"


@dataclass
class CommutingFrame:
    """Common eigenstructure of a commuting generator pair.

    ``U`` diagonalizes both generators: ``A = U diag(i lambdas_a) U^dagger``
    and ``B = U diag(i lambdas_b) U^dagger`` up to tolerance.  ``blocks``
    groups the indices by joint eigenvalue, splitting at gaps above
    ``RANK_TOL`` times the generator's norm; within each block the basis is
    an arbitrary rotation, so block-wise moduli are the invariants.
    ``exact[k]`` says that block k's joint eigenvalues agree to rounding
    (``64 n eps`` times the norm): every flow turns that block's part of a
    state by one phase.  A block merged across a smaller nonzero gap keeps
    only its modulus, since an unbounded control turns the relative phases.
    """

    lambdas_a: np.ndarray
    lambdas_b: np.ndarray
    U: np.ndarray
    blocks: list
    exact: list


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
    sys: ControlSystem,
    s0: StateVector,
    word_length: int,
    seed: int = 0,
) -> tuple[StateVector, np.ndarray]:
    """A reproducible point of the orbit through ``s0`` with its word of flows.

    One draw ``w = default_rng(seed).uniform(-1, 1, (word_length, 2))`` gives
    factor k's control ``u_k = w[k, 0]`` and duration ``t_k = DURATION_SCALE *
    w[k, 1]``, and the state is ``exp(t_m (A + u_m B)) ... exp(t_1 (A + u_1
    B)) c0``, carried by :func:`reachctl.dynamics.forward_pass` (a negative
    duration is only a phase there).  Each factor is an element of the group
    that A and B generate, so the state lies on the orbit by construction,
    compact group or not: no reachability is presupposed, which is what
    makes it a trustworthy steering target.  Returns the state and the
    ``(word_length, 2)`` array of ``(u_k, t_k)``; a word of length 0 returns
    ``s0``.  A factor whose flow overflows double precision raises a
    ValueError naming it.
    """
    word_length = _check_count(word_length, "word_length", 0)
    _check_count(seed, "seed", 0)
    _check_dimension("system", sys.n, s0.n)
    _check_entries("word_length", word_length, sys.n**2)
    word = np.random.default_rng(seed).uniform(-1.0, 1.0, (word_length, 2)) * (1.0, DURATION_SCALE)
    if not word_length:
        return s0, word
    with np.errstate(over="ignore", invalid="ignore"):  # the ValueError below is the one diagnostic
        ends = forward_pass(sys, word[:, 1], word[:, 0], s0.c)[3]
    overflowed = ~np.isfinite(ends).all(axis=1)
    if overflowed.any():
        k = int(np.argmax(overflowed))
        raise ValueError(f"orbit word factor {k}: the flow over duration {float(word[k, 1])!r} at control value "
                         f"{float(word[k, 0])!r} overflows double precision")
    return StateVector.normalized(ends[-1]), word


def _joint_frame(frame: tuple) -> CommutingFrame:
    # The joint eigenbasis of a pair already known to commute, from its drift frame: see commuting_frame.
    lam_a, U, M, norm_a, norm_b = frame
    U, lam_b, blocks = U.copy(), np.zeros(lam_a.size), []
    for idx in np.split(np.arange(lam_a.size), np.flatnonzero(np.abs(np.diff(lam_a)) > RANK_TOL * norm_a) + 1):
        Mb = M[np.ix_(idx, idx)]
        omega_b, Vb = skew_eigensystems(1j * (0.5 * (Mb - Mb.conj().T)))  # strip commutator-sized noise
        U[:, idx] = U[:, idx] @ Vb
        lam_b[idx] = omega_b
        cuts = np.flatnonzero(np.abs(np.diff(omega_b)) > RANK_TOL * norm_b) + 1
        blocks += [block.tolist() for block in np.split(idx, cuts)]
    rounding = 64 * lam_a.size * np.finfo(float).eps
    exact = [bool(np.ptp(lam_a[b]) <= rounding * norm_a and np.ptp(lam_b[b]) <= rounding * norm_b) for b in blocks]
    return CommutingFrame(lambdas_a=lam_a, lambdas_b=lam_b, U=U, blocks=blocks, exact=exact)


def _isolated(gaps: np.ndarray, floor: float) -> np.ndarray:
    # Which of the non-negative ``gaps`` clear zero and both of their sorted neighbours by more than ``floor``.
    order = np.argsort(gaps)
    spacing = np.diff(gaps[order], prepend=0.0)  # each sorted gap's distance to the one below, or to zero
    isolated = np.empty(gaps.size, dtype=bool)
    isolated[order] = np.minimum(spacing, np.append(spacing[1:], np.inf)) > floor
    return isolated


def _layers(edges: np.ndarray) -> list:
    # The breadth-first layers of the level graph ``edges`` (a symmetric boolean n x n array) from level 0, as index
    # arrays: level 0, then the levels one edge further out, and so on.  They hold all n levels exactly when the
    # edges connect them.
    reached = np.arange(len(edges)) == 0
    layer, layers = reached.copy(), []
    while layer.any():
        layers.append(np.flatnonzero(layer))
        layer = edges[layer].any(axis=0) & ~reached
        reached |= layer
    return layers


def _unitary_class(sys: ControlSystem, frame: tuple) -> AlgebraClass | None:
    """The generated algebra's class when the drift's transition graph certifies u(n) or su(n), else None.

    ``frame`` is the drift frame of :func:`_generated_algebra`: ``A = U diag(i omega) U^dagger`` and
    ``M = U^dagger B U``.  ``ad_A`` turns the (i, j) entry of ``M`` at the transition gap ``omega_i - omega_j``.
    An edge (i, j) is usable when its gap is nonzero and differs from every other gap, so that polynomials in
    ``ad_A`` isolate its entry, and its coupling ``M_ij`` is nonzero: the algebra then holds the (i, j) rotations.
    When the usable edges connect all n levels, their brackets span su(n), and the algebra is u(n), or su(n) when
    both traces vanish (Turinici and Rabitz, Chem. Phys. 267, 1 (2001); Altafini, J. Math. Phys. 43, 2051 (2002)).
    Each test is ``value > RANK_TOL * scale`` on its own operands (``max |omega|``, ``max |M|``, a generator's
    Frobenius norm), and every value the certificate relies on must clear its threshold by 100x, where closure's
    rank decisions agree with it: a trace inside that fragile band gives None, and a gap spacing or a coupling
    inside it drops only its own edge.  n < 2 and levels the usable edges leave apart give None too: so(n) and
    sp(n/2) pairs (gaps in +- pairs, so only the mirror edges stay usable), which :func:`_real_class` has tried
    first, and tori, direct sums and equally spaced ladders, which go to closure.  After the frame's ``eigh``,
    O(n^2 log n).
    """
    omega, _, M, *norms = frame
    n = omega.size
    if n < 2:
        return None
    traces = [(abs(np.trace(X)), norm) for X, norm in zip((sys.A, sys.B), norms)]
    if any(RANK_TOL / 100 * norm < trace <= 100 * RANK_TOL * norm for trace, norm in traces):
        return None
    i, j = np.triu_indices(n, 1)
    usable = np.zeros((n, n), dtype=bool)
    usable[i, j] = _isolated(omega[i] - omega[j], 100 * RANK_TOL * np.max(np.abs(omega)))  # omega descends
    coupling = np.abs(M - M.conj().T)  # exactly symmetric, and so is the graph
    edges = (usable | usable.T) & (coupling > 100 * RANK_TOL * np.max(coupling))
    if sum(map(len, _layers(edges))) < n:
        return None  # some levels are not coupled to the rest, or only faintly or at colliding gaps
    traceless = all(trace <= RANK_TOL / 100 * norm for trace, norm in traces)
    return AlgebraClass(
        dim=n * n - 1 if traceless else n * n,
        traceless=traceless,
        abelian=False,
        label=AlgebraLabel.SPECIAL_UNITARY if traceless else AlgebraLabel.FULL_UNITARY,
    )


def _real_class(frame: tuple) -> tuple[AlgebraClass, np.ndarray | None] | None:
    """so(n) or sp(n/2) when the drift frame certifies the generated algebra as one, with J's phases for so(n).

    ``frame`` is the drift frame of :func:`_generated_algebra`, and level k's mirror is ``kb = n - 1 - k``.  The
    certificate needs n >= 3 and a mirror-symmetric, simple spectrum: ``omega_kb = -omega_k``, and every spacing
    nonzero.  It looks for the antiunitary ``J d = exp(i phi) * conj(d[::-1])`` that commutes with ``M``: the walk
    over the clear couplings from level 0 sets ``phi_c = phi_a - arg M_ac - arg M_(ab cb)``, each level from its
    heaviest reached neighbour, and every entry must then satisfy ``M_ac = exp(i (phi_a - phi_c)) conj(M_(ab cb))``.
    ``J^2 = diag(exp(i (phi_k - phi_kb)))`` must be +1 at every level (so(n)) or -1 at every level (sp(n/2)).

    Roots.  Level k carries the weight ``e_k = -e_kb`` (the middle level of odd n carries 0), so the transition
    (i, j) carries the root ``e_i - e_j``.  The representative transitions, i < j with i + j < n - 1 and for sp(n/2)
    also the long roots ``2 e_k`` at i + j = n - 1, carry each positive root once, at the gap ``omega_i - omega_j``
    of their forced partner (jb, ib) too.  A representative is usable when its gap clears zero and both sorted
    neighbours and its coupling ``M_ij`` is clear, as in :func:`_unitary_class`; it links levels i-j and jb-ib.
    The pair is certified when the links connect every level: so(n), dimension n(n-1)/2, or sp(n/2), n(n+1)/2,
    traceless, not abelian, labelled OTHER.

    Proof.  J commutes with A and B, so the algebra L lies in the skew-Hermitian matrices that commute with J:
    so_J(n) when ``J^2 = 1`` and sp_J(n/2) when ``J^2 = -1``.  On its complexification ``ad_A`` is 0 on the
    diagonal and i times the root's gap on each root space, so polynomials in ``ad_A`` isolate from M each usable
    root's 1-dimensional root space: L_C holds it, and its negative, since L_C is closed under ``X -> -X^dagger``.
    The level graph is the mirror double cover of the signed root graph on the indices k < n/2 (and the middle
    level of odd n).  On each component of that graph, sign flips ``e_k -> -e_k`` (automorphisms of the root
    system) make a spanning tree read ``e_a - e_b``, and its roots generate the component's A-type roots.  The
    cover is connected only if a root ``e_a + e_b`` or ``2 e_k`` joins the quotient's one component (D_m, C_m), or
    short roots ``e_k`` join every component to the middle level (B_m).  Sums of roots whose partial sums are
    roots (``[g_a, g_b] = g_(a+b)``) then give every root of D_m, B_m or C_m, and the root spaces generate the
    whole algebra.  Every test is ``residual <= RANK_TOL * scale`` with the 100x fragile band of
    :func:`_unitary_class`, so a test that fails or falls inside the band gives None, and closure decides.  After
    the frame's ``eigh``, O(n^2 log n).
    """
    omega, _, M, *_ = frame
    n = omega.size
    if n < 3:
        return None
    width, peak = np.max(np.abs(omega)), np.max(np.abs(M))
    mirrored = np.max(np.abs(omega + omega[::-1])) <= RANK_TOL / 100 * width
    if not (mirrored and np.min(-np.diff(omega)) > 100 * RANK_TOL * width and peak > 0):
        return None  # no simple mirror-symmetric spectrum, or no control
    M = M / peak  # unit-scale entries: the tests cannot under- or overflow
    coupling = np.abs(M)
    clear = coupling > 100 * RANK_TOL
    layers, phi = _layers(clear), np.zeros(n)
    if sum(map(len, layers)) < n:
        return None
    reached = layers[0]
    for layer in layers[1:]:
        a = reached[np.argmax(coupling[np.ix_(reached, layer)], axis=0)]
        phi[layer] = phi[a] - np.angle(M[a, layer]) - np.angle(M[n - 1 - a, n - 1 - layer])
        reached = np.concatenate((reached, layer))
    if np.max(np.abs(M - np.exp(1j * (phi[:, None] - phi)) * M[::-1, ::-1].conj())) > RANK_TOL / 100:
        return None
    square = np.exp(1j * (phi - phi[::-1]))  # J^2 = diag(square)
    sign = 1.0 if square[0].real > 0 else -1.0
    if np.max(np.abs(square - sign)) > RANK_TOL / 100:
        return None
    k = np.arange(n)
    bound = n - 1 if sign > 0 else n  # i + j = n - 1 is the long root 2 e_i of sp(n/2)
    i, j = np.nonzero((k[:, None] < k) & (k[:, None] + k < bound))
    usable = _isolated(omega[i] - omega[j], 100 * RANK_TOL * width) & clear[i, j]
    i, j = i[usable], j[usable]
    links = np.zeros((n, n), dtype=bool)
    links[i, j] = links[n - 1 - j, n - 1 - i] = True
    if sum(map(len, _layers(links | links.T))) < n:
        return None
    dim = n * (n - 1) // 2 if sign > 0 else n * (n + 1) // 2
    algebra_class = AlgebraClass(dim=dim, traceless=True, abelian=False, label=AlgebraLabel.OTHER)
    return algebra_class, phi if sign > 0 else None


def _real_orbit_dim(frame: tuple, phi: np.ndarray, s: StateVector) -> int | None:
    # The orbit dimension of ``s`` under a certified so(n) with J's phases ``phi``: write ``c = a + ib`` with a and b
    # fixed by J.  2n - 3 when a and b are independent, n - 1 when they are parallel, and None when the ratio of
    # the 2n x 2 realified ``[a b]``'s singular values lies within the fragile band.
    d = frame[1].conj().T @ s.c
    Jd = np.exp(1j * phi) * d[::-1].conj()
    ab = np.column_stack((d + Jd, (d - Jd) / 1j)) / 2
    sv = np.linalg.svd(np.vstack((ab.real, ab.imag)), compute_uv=False)
    if sv[1] > 100 * RANK_TOL * sv[0]:
        return 2 * s.n - 3
    return s.n - 1 if sv[1] <= RANK_TOL / 100 * sv[0] else None


def _generated_algebra(sys: ControlSystem) -> tuple[tuple, AlgebraClass, LieAlgebraBasis | None, np.ndarray | None]:
    # The drift frame (omega, U, M = U^dagger B U, ||A||, ||B||) from the one eigh of A, with norms that cannot
    # overflow, and the class of the algebra (A, B) generate: certified from the frame, or else from the one closure,
    # whose basis comes third; fourth, J's phases when the frame certifies so(n).
    omega, U = skew_eigensystems(1j * sys.A)
    frame = (omega, U, U.conj().T @ sys.B @ U, *(float(np.hypot.reduce(np.abs(X).ravel())) for X in (sys.A, sys.B)))
    # A mirror-symmetric spectrum never passes the u(n) certificate at n >= 3, and _real_class refuses n < 3.
    real = _real_class(frame)
    if real is not None:
        algebra_class, phi = real
        return frame, algebra_class, None, phi
    algebra_class = _unitary_class(sys, frame)
    if algebra_class is not None:
        return frame, algebra_class, None, None
    basis = closure([sys.A, sys.B])
    return frame, classify(basis), basis, None


def commuting_frame(sys: ControlSystem) -> CommutingFrame | None:
    """Common eigenbasis of (A, B) when they commute, else None.

    The pair commutes when the algebra it generates is abelian, the decision
    ``analyze`` reports.  With A and B scaled to unit Frobenius norm (a zero
    generator commutes), a commutator clearly above ``100 * RANK_TOL`` gives
    None at once: ``[A, B]`` is Frobenius-orthogonal to span{A, B} for normal
    A and B, so closure's own rule would admit it.  Any other pair is decided
    as the report decides it: one ``eigh`` of A builds the drift frame, a
    pair it certifies as u(n), su(n), so(n) or sp(n/2) costs no closure, and
    the rest cost one.  The joint frame starts from that
    drift eigenbasis and, inside each degenerate drift eigenspace,
    diagonalizes the control generator's restriction, so the returned frame
    is a joint eigenbasis even when the drift alone does not determine one;
    inside a cluster of several equal drift frequencies the basis is
    ``eigh``'s.  Blocks group indices with equal joint eigenvalue pairs, in
    descending drift order.  Drift and control eigenvalues split at gaps
    above ``RANK_TOL ||A||`` and ``RANK_TOL ||B||``, so rounding noise where
    B vanishes stays one block.
    """
    norms = (np.hypot.reduce(np.abs(X).ravel()) for X in (sys.A, sys.B))  # cannot overflow
    A, B = (X / norm if norm else X for X, norm in zip((sys.A, sys.B), norms))
    if np.hypot.reduce(np.abs(A @ B - B @ A).ravel()) > 100 * RANK_TOL:
        return None
    frame, algebra_class, *_ = _generated_algebra(sys)
    return _joint_frame(frame) if algebra_class.abelian else None


def _block_parts(frame: CommutingFrame, s: StateVector) -> list:
    # The parts of ``d = U^dagger c`` in the frame's blocks, in block order.
    _check_dimension("frame", frame.U.shape[0], s.n)
    d = frame.U.conj().T @ s.c
    return [d[block] for block in frame.blocks]


def block_moduli(frame: CommutingFrame, s: StateVector) -> np.ndarray:
    """Per-block amplitude norms ``sqrt(sum_{k in block} |d_k|^2)``, ``d = U^dagger c``."""
    return np.array([float(np.sqrt(np.sum(np.abs(part) ** 2))) for part in _block_parts(frame, s)])


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

    For a commuting system every generator ``A + eps B`` is diagonal in the
    joint frame, so each block's modulus is conserved: block b's part
    ``c_b`` of a reachable state has ``|c_b| = |c0_b|``, and ``|c_b -
    t_b|^2 >= (|c0_b| - |t_b|)^2``.  On an exact block (see
    :class:`CommutingFrame`) every generator is one imaginary scalar, so
    ``c_b`` is ``c0_b`` turned by a phase, and ``|c_b - t_b|^2 >= |c0_b|^2
    + |t_b|^2 - 2 |<t_b, c0_b>|``.  No control can bring the half-squared
    distance below the sum of those half bounds, each clamped at 0 against
    rounding, whatever basis the block has.  Returns 0 when the generated
    algebra is not abelian (no moduli obstruction).  A state whose
    dimension is not the system's raises ValueError.
    """
    _check_dimension("system", sys.n, s0.n, target.n)
    frame = commuting_frame(sys)
    if frame is None:
        return 0.0
    terms = [0.5 * (np.vdot(p0, p0).real + np.vdot(pt, pt).real) - abs(np.vdot(pt, p0)) if exact
             else 0.5 * (np.linalg.norm(p0) - np.linalg.norm(pt)) ** 2
             for p0, pt, exact in zip(_block_parts(frame, s0), _block_parts(frame, target), frame.exact)]
    return float(np.sum(np.maximum(terms, 0.0)))


def controllability_report(sys: ControlSystem, s0: StateVector) -> ControllabilityReport:
    """Full analysis: generate the algebra, rank its action, assemble the verdict.

    ``OPERATOR_CONTROLLABLE`` when the algebra is all of u(n) or su(n) (every
    unitary, up to phase, is then reachable at the propagator level);
    ``STATE_CONTROLLABLE`` when the orbit fills the sphere (dimension 2n-1);
    ``RESTRICTED`` otherwise, with the conserved moduli when the algebra is
    abelian.  The verdict rests on the rank of the generated algebra's action
    alone; compactness or closedness of the generated group is never
    consulted and never needed.

    One ``eigh`` of A builds the drift frame, which serves the
    certificates and the moduli.  A generic pair is certified u(n) or su(n)
    from the frame's transition graph, O(n^3) in all, and its report is
    built without a closure: dimension n^2, or n^2 - 1 when both traces
    vanish, and an orbit that fills the sphere.  A real or quaternionic
    pair is certified so(n) or sp(n/2) from the frame's antiunitary
    symmetry J and its root graph: dimension n(n-1)/2 or n(n+1)/2.  sp(n/2)
    fills the sphere; the so(n) orbit of ``c = a + ib``, a and b fixed by
    J, has dimension 2n - 3 when a and b are independent and n - 1 when
    they are parallel, read from the two singular values of ``[a b]``.
    Every other pair, and a certificate test too close to its threshold
    to tell, makes one closure and one ``classify``; an so(n) state whose
    singular-value ratio is too close to tell makes one closure for its
    tangent rank.  The report is the same either way.
    """
    _check_dimension("system", sys.n, s0.n)
    frame, algebra_class, basis, phi = _generated_algebra(sys)
    sphere_dim = 2 * sys.n - 1
    if basis is not None:
        orbit_dim = tangent_dimension(basis, s0)
    elif phi is None:  # su(n) and sp(n/2) act transitively on the sphere, so they need no rank
        orbit_dim = sphere_dim
    else:
        orbit_dim = _real_orbit_dim(frame, phi, s0) or tangent_dimension(closure([sys.A, sys.B]), s0)

    if algebra_class.label in (AlgebraLabel.FULL_UNITARY, AlgebraLabel.SPECIAL_UNITARY):
        verdict = Verdict.OPERATOR_CONTROLLABLE
    elif orbit_dim == sphere_dim:
        verdict = Verdict.STATE_CONTROLLABLE
    else:
        verdict = Verdict.RESTRICTED
    moduli = _joint_frame(frame).blocks if verdict is Verdict.RESTRICTED and algebra_class.abelian else None

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
