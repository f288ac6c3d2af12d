"""Output checks for benchmark jobs, and a self-test that the checks bite.

Expected values come from how each input was built (see ``workloads``) or
from references written here: a dense recurrence grid scan and products of
``scipy.linalg.expm`` factors.  They are computed once per run, outside any
timed or traced region.  Steering certificates are re-checked by
re-propagating their schedule through ``reachctl.dynamics.propagate``, which
must reproduce the reported distance bit for bit.
"""

import copy
import json

import numpy as np
import scipy.linalg

NORM_DRIFT_MAX = 1e-10
FINAL_STATE_TOL = 1e-8
HAMILTONIAN_DRIFT_MAX = 1e-9
FLOOR_SLACK = 1e-12
TARGET_DISTANCE = 1e-6  # the CLI default for --target-distance
SCAN_CHUNK = 1 << 16


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def dense_recurrence_time(lambdas, weights, tol, t_max, dt):
    """First grid time after the first departure at which the drift flow is back within ``tol``."""
    lam = np.asarray(lambdas, dtype=float)
    w = np.asarray(weights, dtype=float)
    count = int(np.floor(t_max / dt + 1e-12))
    departed = False
    for start in range(1, count + 1, SCAN_CHUNK):
        ts = np.arange(start, min(start + SCAN_CHUNK, count + 1)) * dt
        ds = np.sqrt(np.maximum(2.0 * np.sum(w * (1.0 - np.cos(np.outer(ts, lam))), axis=1), 0.0))
        if not departed:
            out = np.nonzero(ds > tol)[0]
            if out.size == 0:
                continue
            departed = True
            ts, ds = ts[out[0]:], ds[out[0]:]
        hits = np.nonzero(ds <= tol)[0]
        if hits.size:
            return float(ts[hits[0]])
    return float(dt) if not departed else None


def expm_final_state(job) -> np.ndarray:
    sys_doc = _load_json(job.files["system"])
    A, B = _matrix(sys_doc["A"]), _matrix(sys_doc["B"])
    c = _vector(_load_json(job.files["state"])["c"])
    for seg in _load_json(job.files["controls"])["segments"]:
        c = scipy.linalg.expm(seg["duration"] * (A + seg["value"] * B)) @ c
    return c


def expected_for(job) -> dict:
    """Reference values that need computation; the rest of ``job.expect`` is literal."""
    if job.command == "recurrence":
        e = job.expect
        return {"return_time": dense_recurrence_time(e["lambdas"], e["weights"], e["tol"], e["t_max"], e["dt"])}
    if job.command == "simulate":
        return {"final_state": expm_final_state(job)}
    return {}


def _recheck_distance(job, result) -> float:
    # reachctl is importable only once run.py has put the checkout's src on the path.
    from reachctl.dynamics import ControlSchedule, propagate
    from reachctl.fileio import load_state, load_system

    sys_ = load_system(job.files["system"])
    s0 = load_state(job.files["from"])
    target = load_state(job.files["to"])
    segments = result["schedule"]["segments"]
    sched = ControlSchedule(np.array([s["duration"] for s in segments]),
                            np.array([s["value"] for s in segments]))
    diff = propagate(sys_, s0, sched, samples_per_segment=1).states[-1] - target.c
    return float(0.5 * np.real(np.vdot(diff, diff)))


def check(job, code: int, report: dict, expected: dict) -> list:
    """Problems with one job's exit code and parsed report; empty when it is correct."""
    e = job.expect
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    if report.get("command") != job.command:
        return [f"report command {report.get('command')!r}"]
    r = report["result"]
    if job.command == "analyze":
        need(code == 0, f"exit {code}")
        for key in ("algebra_dim", "orbit_dim", "verdict", "conserved_moduli"):
            if key in e:
                need(r[key] == e[key], f"{key} {r[key]!r} != {e[key]!r}")
    elif job.command == "recurrence":
        need(code == 0, f"exit {code}")
        want = expected["return_time"]
        if want is None:
            need(not r["found"] and r["return_time"] is None, f"found a return at {r['return_time']}")
        else:
            need(r["found"] and r["return_time"] is not None
                 and abs(r["return_time"] - want) <= e["dt"],
                 f"return_time {r['return_time']} vs dense scan {want}")
    elif job.command == "steer":
        if e["converged"]:
            need(code == 0 and r["converged"], f"exit {code}, converged {r['converged']}")
            need(r["achieved_distance"] <= TARGET_DISTANCE, f"achieved_distance {r['achieved_distance']}")
        else:
            need(code == 2 and not r["converged"], f"exit {code}, converged {r['converged']}")
            need(r["achieved_distance"] >= e["floor"] - FLOOR_SLACK,
                 f"achieved_distance {r['achieved_distance']} below the moduli floor {e['floor']}")
        rechecked = _recheck_distance(job, r)
        need(rechecked == r["achieved_distance"],
             f"schedule re-propagates to {rechecked!r}, certificate says {r['achieved_distance']!r}")
    elif job.command == "verify":
        need(code == 0 and r["verdict"] == "PASS", f"exit {code}, verdict {r['verdict']}")
        rows = r["samples"]
        need(len(rows) == e["samples"] and r["n_samples"] == e["samples"], f"{len(rows)} sample rows")
        bad = [row["index"] for row in rows if not (row["converged"] and row["achieved_distance"] <= TARGET_DISTANCE)]
        need(not bad and r["n_converged"] == len(rows), f"unconverged rows {bad}")
    elif job.command == "simulate":
        need(code == 0, f"exit {code}")
        need(r["max_norm_drift"] <= NORM_DRIFT_MAX, f"max_norm_drift {r['max_norm_drift']}")
        gap = float(np.max(np.abs(_vector(r["final_state"]) - expected["final_state"])))
        need(gap <= FINAL_STATE_TOL, f"final state {gap:.3e} from the expm product")
        if e["pure_drift"]:
            h = r["max_hamiltonian_drift"]
            need(h is not None and h <= HAMILTONIAN_DRIFT_MAX, f"max_hamiltonian_drift {h}")
    else:
        problems.append(f"unknown command {job.command}")
    return problems


def check_bytes(first: bytes, again: bytes) -> list:
    return [] if again == first else ["report bytes differ from the first pass"]


def _corruptions(job, report: dict):
    """(label, corrupted report) pairs that a working checker must reject."""
    r = report["result"]
    if job.command == "analyze":
        bad = copy.deepcopy(report)
        bad["result"]["verdict"] = "RESTRICTED" if r["verdict"] != "RESTRICTED" else "STATE_CONTROLLABLE"
        yield "flipped verdict", bad
    elif job.command == "steer":
        bad = copy.deepcopy(report)
        bad["result"]["schedule"]["segments"][0]["value"] += 1e-3
        yield "schedule that does not re-check", bad
    elif job.command == "verify":
        bad = copy.deepcopy(report)
        bad["result"]["samples"][-1]["converged"] = False
        yield "verify with one unconverged row", bad
        bad = copy.deepcopy(report)
        bad["result"]["verdict"] = "FAIL"
        yield "flipped verdict", bad
    elif job.command == "simulate":
        bad = copy.deepcopy(report)
        bad["result"]["final_state"][0][0] += 1e-6
        yield "perturbed final state", bad
    elif job.command == "recurrence":
        bad = copy.deepcopy(report)
        found = r["return_time"] is not None
        bad["result"]["found"] = not found
        bad["result"]["return_time"] = None if found else job.expect["t_max"] / 2.0
        yield "flipped recurrence outcome", bad


def self_test(jobs, codes, reports, expected, first_bytes) -> tuple[int, list]:
    """Feed corrupted copies of correct reports to the checker.

    Returns the number of corrupted cases and the labels of those the checker
    failed to reject.
    """
    cases, missed = 0, []
    for i, job in enumerate(jobs):
        for label, bad in _corruptions(job, reports[i]):
            cases += 1
            if not check(job, codes[i], bad, expected[i]):
                missed.append(f"{job.name}: {label}")
        cases += 1
        if not check_bytes(first_bytes[i], first_bytes[i] + b" "):
            missed.append(f"{job.name}: report bytes differ between passes")
    return cases, missed
