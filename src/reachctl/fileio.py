"""JSON serialization of systems, states, schedules, and result payloads.

All files are plain JSON with complex numbers as [re, im] pairs and matrices
row-major.  Loaders raise ValueError with diagnostics that name the file and
the offending field (and segment or entry where applicable), so the command
line can surface them verbatim.  Rendering always uses sorted keys and fixed
indentation, which makes every emitted document byte-identical across runs
and stable under a parse/re-render round trip.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from .dynamics import ControlSchedule, ControlSystem, StateVector, Trajectory, diagonalize_drift, drift_hamiltonian
from .orbit import ControllabilityReport
from .steering import ReachabilityCertificate

__all__ = [
    "load_system",
    "load_state",
    "load_schedule",
    "save_system",
    "save_state",
    "save_schedule",
    "system_payload",
    "state_payload",
    "schedule_payload",
    "report_payload",
    "trajectory_payload",
    "certificate_payload",
    "recurrence_payload",
    "verification_payload",
    "render",
    "inputs_digest",
]


def _read_json(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ValueError(f"{p}: cannot read file ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{p}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integer literals past the digit limit
        raise ValueError(f"{p}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError(f"{p}: invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{p}: top-level value must be a JSON object")
    return doc


def _field(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise ValueError(f"{path}: missing field '{key}'")
    return doc[key]


def _pair_floats(row: list, out: list, path, field: str, where) -> None:
    """Append the ``re, im`` floats of each ``[re, im]`` pair of ``row`` to ``out``.

    ``where(j)`` names entry ``j`` in a diagnostic.  JSON numbers load as exactly ``int`` or
    ``float`` (a ``bool`` is neither), and only an ``int`` can overflow ``float``.
    """
    for j, pair in enumerate(row):
        if type(pair) is not list or len(pair) != 2:
            raise ValueError(f"{path}: field '{field}': {where(j)} must be a [re, im] number pair")
        re, im = pair
        if (type(re) is not float and type(re) is not int) or (type(im) is not float and type(im) is not int):
            raise ValueError(f"{path}: field '{field}': {where(j)} must be a [re, im] number pair")
        try:
            out.append(float(re))
            out.append(float(im))
        except OverflowError:
            raise ValueError(f"{path}: field '{field}': {where(j)} is too large for a float") from None


def _parse_vector(raw, n: int, path, field: str) -> np.ndarray:
    if type(raw) is not list or len(raw) != n:
        raise ValueError(f"{path}: field '{field}' must be a list of {n} [re, im] pairs")
    flat = []
    _pair_floats(raw, flat, path, field, lambda k: f"entry {k}")
    return np.array(flat).view(complex)


def _parse_matrix(raw, n: int, path, field: str) -> np.ndarray:
    if type(raw) is not list or len(raw) != n:
        raise ValueError(f"{path}: field '{field}' must be a list of {n} rows")
    flat = []
    for i, row in enumerate(raw):
        if type(row) is not list or len(row) != n:
            raise ValueError(f"{path}: field '{field}': row {i} must hold {n} [re, im] pairs")
        _pair_floats(row, flat, path, field, lambda j: f"entry ({i}, {j})")
    return np.array(flat).view(complex).reshape(n, n)


def _parse_n(doc: dict, path) -> int:
    n = _field(doc, "n", path)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{path}: field 'n' must be a positive integer")
    return n


def load_system(path) -> ControlSystem:
    """Parse a system file ``{"n", "A", "B"}`` into a validated ControlSystem.

    Skew-Hermiticity is enforced at load; violations raise ValueError naming
    the file, the matrix, and the worst entry.
    """
    doc = _read_json(path)
    n = _parse_n(doc, path)
    A = _parse_matrix(_field(doc, "A", path), n, path, "A")
    B = _parse_matrix(_field(doc, "B", path), n, path, "B")
    try:
        return ControlSystem(A, B)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_state(path) -> StateVector:
    """Parse a state file ``{"n", "c"}`` into a validated unit StateVector."""
    doc = _read_json(path)
    n = _parse_n(doc, path)
    c = _parse_vector(_field(doc, "c", path), n, path, "c")
    try:
        return StateVector(c)
    except ValueError as exc:
        raise ValueError(f"{path}: field 'c': {exc}") from exc


def load_schedule(path) -> ControlSchedule:
    """Parse a controls file ``{"segments": [{"duration", "value"}, ...]}``."""
    doc = _read_json(path)
    raw = _field(doc, "segments", path)
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: field 'segments' must be a non-empty list")
    flat = []  # duration, value, duration, value, ...
    for k, seg in enumerate(raw):
        if type(seg) is not dict:
            raise ValueError(f"{path}: field 'segments': segment {k} must be an object")
        for key in ("duration", "value"):
            if key not in seg:
                raise ValueError(f"{path}: field 'segments': segment {k} is missing '{key}'")
            x = seg[key]
            if type(x) is not float and type(x) is not int:
                raise ValueError(f"{path}: field 'segments': segment {k}: '{key}' must be a number")
            try:
                flat.append(float(x))
            except OverflowError:
                raise ValueError(f"{path}: field 'segments': segment {k}: '{key}' is too large for a float") from None
    durations, values = np.array(flat).reshape(-1, 2).T.copy()
    try:
        return ControlSchedule(durations, values)
    except ValueError as exc:
        raise ValueError(f"{path}: field 'segments': {exc}") from exc


def _pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_pairs(v: np.ndarray) -> list:
    return [_pair(z) for z in np.asarray(v)]


def _matrix_pairs(M: np.ndarray) -> list:
    return [[_pair(z) for z in row] for row in np.asarray(M)]


def system_payload(sys: ControlSystem) -> dict:
    return {"n": sys.n, "A": _matrix_pairs(sys.A), "B": _matrix_pairs(sys.B)}


def state_payload(s: StateVector) -> dict:
    return {"n": s.n, "c": _vector_pairs(s.c)}


def schedule_payload(sched: ControlSchedule) -> dict:
    return {
        "segments": [
            {"duration": float(d), "value": float(v)} for d, v in sched.segments
        ]
    }


def save_system(sys: ControlSystem, path) -> None:
    Path(path).write_text(render(system_payload(sys)))


def save_state(s: StateVector, path) -> None:
    Path(path).write_text(render(state_payload(s)))


def save_schedule(sched: ControlSchedule, path) -> None:
    Path(path).write_text(render(schedule_payload(sched)))


def report_payload(report: ControllabilityReport) -> dict:
    """ControllabilityReport as a JSON-ready dict."""
    return {
        "algebra_dim": int(report.algebra_dim),
        "algebra_class": {
            "dim": int(report.algebra_class.dim),
            "traceless": bool(report.algebra_class.traceless),
            "abelian": bool(report.algebra_class.abelian),
            "label": report.algebra_class.label.value,
        },
        "orbit_dim": int(report.orbit_dim),
        "sphere_dim": int(report.sphere_dim),
        "verdict": report.verdict.value,
        "conserved_moduli": (
            None
            if report.conserved_moduli is None
            else [[int(i) for i in block] for block in report.conserved_moduli]
        ),
        "summary": report.summary,
    }


def trajectory_payload(traj: Trajectory, sys: ControlSystem, sched: ControlSchedule) -> dict:
    """Trajectory summary: final state, norm drift, energy drift for pure drift.

    The drift-Hamiltonian drift is reported only when the schedule is
    identically zero (pure drift); under a nonzero control the drift energy
    is not conserved and the entry is null.
    """
    payload = {
        "final_time": float(traj.times[-1]),
        "final_state": _vector_pairs(traj.states[-1]),
        "max_norm_drift": float(traj.max_norm_drift()),
        "n_samples": int(traj.times.size),
        "max_hamiltonian_drift": None,
    }
    if np.all(sched.values == 0.0):
        # Energies of the normalized samples, H(c / |c|) = H(c) / |c|^2, so
        # norm drift (reported above) does not leak into the energy drift.
        states = traj.states
        norms2 = np.einsum("ij,ij->i", states.real, states.real) + np.einsum("ij,ij->i", states.imag, states.imag)
        energies = drift_hamiltonian(diagonalize_drift(sys.A), states) / norms2
        payload["max_hamiltonian_drift"] = float(np.max(np.abs(energies - energies[0])))
    return payload


def certificate_payload(cert: ReachabilityCertificate) -> dict:
    return {
        "schedule": schedule_payload(cert.schedule),
        "achieved_distance": float(cert.achieved_distance),
        "converged": bool(cert.converged),
        "iterations_used": int(cert.iterations_used),
        "restart_index": int(cert.restart_index),
        "stop_reason": cert.stop_reason,
    }


def recurrence_payload(return_time: float | None, tol: float, t_max: float, dt: float) -> dict:
    return {
        "found": return_time is not None,
        "return_time": None if return_time is None else float(return_time),
        "tol": float(tol),
        "t_max": float(t_max),
        "dt": float(dt),
    }


def verification_payload(targets, certificates) -> dict:
    """Achieved-distance table plus the overall PASS/FAIL verdict."""
    rows = []
    for k, (target, cert) in enumerate(zip(targets, certificates)):
        rows.append(
            {
                "index": k,
                "target": _vector_pairs(target.c),
                "achieved_distance": float(cert.achieved_distance),
                "converged": bool(cert.converged),
                "restart_index": int(cert.restart_index),
                "iterations_used": int(cert.iterations_used),
                "stop_reason": cert.stop_reason,
            }
        )
    n_converged = sum(1 for cert in certificates if cert.converged)
    return {
        "samples": rows,
        "n_samples": len(rows),
        "n_converged": int(n_converged),
        "verdict": "PASS" if n_converged == len(rows) else "FAIL",
    }


def render(payload: dict) -> str:
    """Serialize a payload deterministically: sorted keys, two-space indent.

    Parsing the output and rendering it again reproduces the exact bytes,
    which is what makes reports round-trip and repeat byte-identically.  JSON
    has no NaN or infinity, so a payload holding one raises ValueError.
    """
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("the result holds NaN or infinity: the computation overflowed double precision") from None


def inputs_digest(paths) -> str:
    """Order-sensitive sha256 digest over the raw bytes of the input files."""
    h = hashlib.sha256()
    for path in paths:
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
    return h.hexdigest()
