"""Seeded inputs and job lists for the benchmark workloads.

Every input is generated from the workload seed and written as a JSON file in
the format the ``reachctl`` CLI reads; the program sees only those files.  A
job is one ``reachctl`` invocation plus what its report must satisfy, stated
from how the input was constructed rather than from anything the program
computes.

Seeds vary the inputs but not the amount of work.  Random generator pairs
and schedules have a cost fixed by their size.  The optimizer's iteration
counts swing by 20x between random instances, so the steer and verify jobs
use fixed instances instead; the su(2) and generic ones are expressed in a
Haar-random unitary frame drawn from the seed.  Distances and gradients are
frame-invariant, so the iteration counts stay the same while every matrix
entry the optimizer handles changes.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Square roots of 1 and the first primes are linearly independent over the
# rationals, so a diagonal drift with these frequencies winds densely around
# its torus (the non-compact-group case).
TORUS_SQUARES = (1, 2, 3, 5, 7, 11, 13, 17)

# Fixed instance for the generic steer job; its seed picks a pair the
# optimizer solves in about a second with four restarts.
GENERIC_STEER_N = 4
GENERIC_STEER_INSTANCE = 0
VERIFY_SAMPLES = 4


@dataclass
class Job:
    """One CLI invocation and the facts its report must satisfy."""

    name: str
    command: str
    argv: list
    expect: dict
    files: dict = field(default_factory=dict)


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).ravel()]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(path)


def write_system(path: Path, A: np.ndarray, B: np.ndarray) -> str:
    return _write(path, {"n": A.shape[0], "A": [_pairs(row) for row in A], "B": [_pairs(row) for row in B]})


def write_state(path: Path, c: np.ndarray) -> str:
    return _write(path, {"n": int(c.size), "c": _pairs(c)})


def write_schedule(path: Path, durations: np.ndarray, values: np.ndarray) -> str:
    segments = [{"duration": float(d), "value": float(v)} for d, v in zip(durations, values)]
    return _write(path, {"segments": segments})


def random_skew(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (M - M.conj().T)


def random_real_antisymmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return (0.5 * (M - M.T)).astype(complex)


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def torus_pair(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal incommensurate drift A, control B = 2A, and its frequencies."""
    lambdas = np.sqrt(np.array(TORUS_SQUARES[:n], dtype=float))
    A = np.diag(1j * lambdas)
    return A, 2.0 * A, lambdas


def _uniform_state(n: int) -> np.ndarray:
    return np.full(n, 1.0 / math.sqrt(n), dtype=complex)


def _rotate(W, *mats):
    return [W @ M @ W.conj().T for M in mats]


def steer_verify(work: Path, seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = []

    W = haar_unitary(rng, 2)
    A, B = _rotate(W, 1j * SIGMA_Z, 1j * SIGMA_X)
    su2 = write_system(work / "su2.json", A, B)
    up = write_state(work / "su2_up.json", W[:, 0])
    down = write_state(work / "su2_down.json", W[:, 1])
    jobs.append(Job("steer su2 up->down", "steer",
                    ["steer", "--system", su2, "--from", up, "--to", down],
                    {"converged": True}, {"system": su2, "from": up, "to": down}))

    A, B, _ = torus_pair(2)
    torus = write_system(work / "torus2.json", A, B)
    plus = write_state(work / "torus2_plus.json", _uniform_state(2))
    off = write_state(work / "torus2_off.json", np.array([1.0, 0.0], dtype=complex))
    # Every reachable state keeps the block moduli (1/sqrt2, 1/sqrt2); the
    # target's are (1, 0), so half the squared moduli gap is a hard floor.
    floor = 0.5 * ((1.0 / math.sqrt(2.0) - 1.0) ** 2 + 0.5)
    jobs.append(Job("steer torus2 off-moduli", "steer",
                    ["steer", "--system", torus, "--from", plus, "--to", off,
                     "--segments", "10", "--restarts", "2"],
                    {"converged": False, "floor": floor},
                    {"system": torus, "from": plus, "to": off}))

    base = np.random.default_rng(GENERIC_STEER_INSTANCE)
    n = GENERIC_STEER_N
    GA, GB, c0, c1 = random_skew(base, n), random_skew(base, n), random_unit(base, n), random_unit(base, n)
    W = haar_unitary(rng, n)
    A, B = _rotate(W, GA, GB)
    gen = write_system(work / "generic4.json", A, B)
    g0 = write_state(work / "generic4_from.json", W @ c0)
    g1 = write_state(work / "generic4_to.json", W @ c1)
    jobs.append(Job("steer generic4", "steer",
                    ["steer", "--system", gen, "--from", g0, "--to", g1, "--restarts", "4"],
                    {"converged": True}, {"system": gen, "from": g0, "to": g1}))

    jobs.append(Job(f"verify su2 x{VERIFY_SAMPLES}", "verify",
                    ["verify", "--system", su2, "--state", up, "--samples", str(VERIFY_SAMPLES),
                     "--word-length", "6", "--seed", "7"],
                    {"samples": VERIFY_SAMPLES}))
    return jobs


def analyze_recur(work: Path, seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for n in (2, 4, 6, 8, 10):
        sys_ = write_system(work / f"generic{n}.json", random_skew(rng, n), random_skew(rng, n))
        st = write_state(work / f"generic{n}_state.json", random_unit(rng, n))
        jobs.append(Job(f"analyze generic{n}", "analyze",
                        ["analyze", "--system", sys_, "--state", st],
                        {"algebra_dim": n * n, "verdict": "OPERATOR_CONTROLLABLE"}))
    for n in (6, 8, 10):
        A, B = random_real_antisymmetric(rng, n), random_real_antisymmetric(rng, n)
        sys_ = write_system(work / f"so{n}.json", A, B)
        st = write_state(work / f"so{n}_state.json", random_unit(rng, n))
        # A complex state c = a + ib with independent a, b has an so(n) orbit
        # of dimension (n - 1) + (n - 2).
        jobs.append(Job(f"analyze so{n}", "analyze",
                        ["analyze", "--system", sys_, "--state", st],
                        {"algebra_dim": n * (n - 1) // 2, "orbit_dim": 2 * n - 3,
                         "verdict": "RESTRICTED"}))
    torus_files = {}
    for n in (2, 8):
        A, B, lambdas = torus_pair(n)
        sys_ = write_system(work / f"torus{n}.json", A, B)
        st = write_state(work / f"torus{n}_state.json", _uniform_state(n))
        torus_files[n] = (sys_, st, lambdas)
        jobs.append(Job(f"analyze torus{n}", "analyze",
                        ["analyze", "--system", sys_, "--state", st],
                        {"algebra_dim": 1, "orbit_dim": 1, "verdict": "RESTRICTED",
                         "conserved_moduli": [[k] for k in range(n)]}))
    for n, tol, t_max in ((2, 0.05, 450.0), (8, 0.3, 2000.0)):
        sys_, st, lambdas = torus_files[n]
        dt = 1e-3
        jobs.append(Job(f"recurrence torus{n}", "recurrence",
                        ["recurrence", "--system", sys_, "--state", st, "--tol", repr(tol),
                         "--tmax", repr(t_max), "--dt", repr(dt)],
                        {"lambdas": lambdas.tolist(), "weights": [1.0 / n] * n,
                         "tol": tol, "t_max": t_max, "dt": dt}))
    return jobs


def simulate_long(work: Path, seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for label, n, m, driven in (("driven2", 2, 2000, True), ("driven8", 8, 2000, True),
                                ("driven32", 32, 1000, True), ("drift8", 8, 2000, False)):
        A, B = random_skew(rng, n), random_skew(rng, n)
        c0 = random_unit(rng, n)
        durations = rng.uniform(0.05, 0.5, m)
        values = rng.uniform(-1.0, 1.0, m) if driven else np.zeros(m)
        sys_ = write_system(work / f"{label}.json", A, B)
        st = write_state(work / f"{label}_state.json", c0)
        ctl = write_schedule(work / f"{label}_controls.json", durations, values)
        jobs.append(Job(f"simulate {label} x{m}", "simulate",
                        ["simulate", "--system", sys_, "--state", st, "--controls", ctl,
                         "--samples-per-segment", "10"],
                        {"segments": m, "pure_drift": not driven},
                        {"system": sys_, "state": st, "controls": ctl}))
    return jobs


# Workload name -> input generator.  BENCHMARK.json gives the reason for each.
WORKLOADS = {
    "steer-verify": steer_verify,
    "analyze-recur": analyze_recur,
    "simulate-long": simulate_long,
}
