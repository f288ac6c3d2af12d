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
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .dynamics import ControlSchedule, ControlSystem, StateVector, Trajectory, diagonalize_drift, drift_hamiltonian
from .matrices import _check_count
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
    "read_input",
]


def read_input(path) -> bytes:
    """The raw bytes of an input file, for a loader to parse and :func:`inputs_digest` to hash."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"{Path(path)}: cannot read file ({exc.strerror or exc})") from exc


def _read_json(path, data: bytes | None) -> dict:
    p = Path(path)
    try:
        text = (read_input(p) if data is None else data).decode("utf-8")
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


def _float(x: int, path, field: str, where, *at) -> float:
    """A JSON integer as a float; ``where(*at)`` names it in the diagnostic if it is too large for one.

    JSON numbers load as exactly ``int`` or ``float`` (a ``bool`` is neither), and only an ``int``
    needs converting or can overflow ``float``.
    """
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{path}: field '{field}': {where(*at)} is too large for a float") from None


def _pair_floats(row: list, out: list, path, field: str, where) -> None:
    """Append the ``re, im`` floats of each ``[re, im]`` pair of ``row`` to ``out``; ``where(j)`` names entry ``j``."""
    for j, pair in enumerate(row):
        if type(pair) is not list or len(pair) != 2:
            raise ValueError(f"{path}: field '{field}': {where(j)} must be a [re, im] number pair")
        re, im = pair
        if (type(re) is not float and type(re) is not int) or (type(im) is not float and type(im) is not int):
            raise ValueError(f"{path}: field '{field}': {where(j)} must be a [re, im] number pair")
        out.append(re if type(re) is float else _float(re, path, field, where, j))
        out.append(im if type(im) is float else _float(im, path, field, where, j))


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


def load_system(path, data: bytes | None = None) -> ControlSystem:
    """Parse a system file ``{"n", "A", "B"}`` into a validated ControlSystem.

    Skew-Hermiticity is enforced at load; violations raise ValueError naming
    the file, the matrix, and the worst entry.  Like every loader, it parses
    ``data`` when given (the file's bytes from :func:`read_input`) and reads
    ``path`` otherwise; ``path`` names the file in diagnostics either way.
    """
    doc = _read_json(path, data)
    n = _check_count(_field(doc, "n", path), f"{path}: field 'n'")
    A = _parse_matrix(_field(doc, "A", path), n, path, "A")
    B = _parse_matrix(_field(doc, "B", path), n, path, "B")
    try:
        return ControlSystem(A, B)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_state(path, data: bytes | None = None) -> StateVector:
    """Parse a state file ``{"n", "c"}`` into a validated unit StateVector."""
    doc = _read_json(path, data)
    n = _check_count(_field(doc, "n", path), f"{path}: field 'n'")
    c = _parse_vector(_field(doc, "c", path), n, path, "c")
    try:
        return StateVector(c)
    except ValueError as exc:
        raise ValueError(f"{path}: field 'c': {exc}") from exc


def load_schedule(path, data: bytes | None = None) -> ControlSchedule:
    """Parse a controls file ``{"segments": [{"duration", "value"}, ...]}``."""
    doc = _read_json(path, data)
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
            flat.append(x if type(x) is float else _float(x, path, "segments", "segment {}: '{}'".format, k, key))
    durations, values = np.array(flat).reshape(-1, 2).T.copy()
    try:
        return ControlSchedule(durations, values)
    except ValueError as exc:
        raise ValueError(f"{path}: field 'segments': {exc}") from exc


def _pairs(a) -> list:
    # Each complex entry as [re, im] floats, nested as the array is.
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def system_payload(sys: ControlSystem) -> dict:
    return {"n": sys.n, "A": _pairs(sys.A), "B": _pairs(sys.B)}


def state_payload(s: StateVector) -> dict:
    return {"n": s.n, "c": _pairs(s.c)}


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
    """ControllabilityReport as a JSON-ready dict: its fields, whose str enums render as their values."""
    return asdict(report)


def trajectory_payload(traj: Trajectory, sys: ControlSystem, sched: ControlSchedule) -> dict:
    """Trajectory summary: final state, norm drift, energy drift for pure drift.

    The drift-Hamiltonian drift is reported only when the schedule is
    identically zero (pure drift); under a nonzero control the drift energy
    is not conserved and the entry is null.
    """
    payload = {
        "final_time": float(traj.times[-1]),
        "final_state": _pairs(traj.states[-1]),
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


def _certificate_fields(cert: ReachabilityCertificate) -> dict:
    # A certificate's outcome, every field but the schedule, shared by its own payload and its verify row.
    return {f.name: getattr(cert, f.name) for f in fields(cert) if f.name != "schedule"}


def certificate_payload(cert: ReachabilityCertificate) -> dict:
    return {"schedule": schedule_payload(cert.schedule), **_certificate_fields(cert)}


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
    rows = [
        {"index": k, "target": _pairs(target.c), **_certificate_fields(cert)}
        for k, (target, cert) in enumerate(zip(targets, certificates))
    ]
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


def inputs_digest(blobs) -> str:
    """Order-sensitive sha256 digest over the raw bytes of the input files, as parsed."""
    h = hashlib.sha256()
    for data in blobs:
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()
