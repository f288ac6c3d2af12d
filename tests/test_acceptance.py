"""Acceptance gate: one test per release criterion, at stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get exactly one pass/fail
line per criterion.  Each test also enforces the runtime budget the
criterion carries, measured around the library calls alone.
"""

import json
import time

import numpy as np
import scipy.linalg
import pytest

from reachctl import (
    AlgebraLabel,
    ControlSchedule,
    ControlSystem,
    RANK_TOL,
    StateVector,
    SteeringConfig,
    Verdict,
    classify,
    closure,
    controllability_report,
    diagonalize_drift,
    drift_hamiltonian,
    gradient,
    matrix_exp,
    member,
    moduli_distance_bound,
    propagate,
    propagate_operator,
    recurrence_scan,
    steer,
    verify_reachability,
)
from reachctl.cli import run
from reachctl.fileio import save_state, save_system

from helpers import EYE2, SIGMA_X, SIGMA_Z, random_skew, random_unit
from oracles import bracket_flag_rank, dense_recurrence_time, fd_distance_gradient

SU2_A = 1j * SIGMA_Z
SU2_B = 1j * SIGMA_X


def test_criterion_1_closure_dimensions_and_labels():
    start = time.perf_counter()
    su2 = closure([SU2_A, SU2_B])
    su2_elapsed = time.perf_counter() - start
    assert su2.dim == 3
    assert classify(su2).label is AlgebraLabel.SPECIAL_UNITARY
    assert su2_elapsed < 1.0

    start = time.perf_counter()
    u2 = closure([1j * EYE2, SU2_A, SU2_B])
    u2_elapsed = time.perf_counter() - start
    assert u2.dim == 4
    assert classify(u2).label is AlgebraLabel.FULL_UNITARY
    assert u2_elapsed < 1.0


def test_criterion_2_closure_matches_nested_bracket_oracle():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    agreements = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = random_skew(rng, n)
        B = random_skew(rng, n)
        dim = closure([A, B]).dim
        oracle = bracket_flag_rank([A, B], rank_tol=RANK_TOL, max_depth=n * n)
        agreements += dim == oracle
    elapsed = time.perf_counter() - start
    assert agreements == 50
    assert elapsed < 60.0


def test_criterion_3_norm_and_energy_conservation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        durations = rng.uniform(0.1, 5.0, 20)
        values = rng.uniform(-1.0, 1.0, 20)
        driven = propagate(sys, s0, ControlSchedule(durations, values))
        assert driven.max_norm_drift() <= 1e-10

        drift_only = propagate(sys, s0, ControlSchedule(durations, np.zeros(20)))
        spectrum = diagonalize_drift(sys.A)
        h0 = drift_hamiltonian(spectrum, s0)
        energies = [drift_hamiltonian(spectrum, drift_only.state(i))
                    for i in range(len(drift_only.times))]
        assert max(abs(h - h0) for h in energies) <= 1e-9


def test_criterion_4_incommensurate_drift_recurrence():
    sys = ControlSystem(np.diag([1j, 1j * np.sqrt(2.0)]), 2.0 * np.diag([1j, 1j * np.sqrt(2.0)]))
    s0 = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    start = time.perf_counter()
    rt = recurrence_scan(sys, s0, tol=0.05, t_max=450.0, dt=1e-3)
    elapsed = time.perf_counter() - start
    assert rt is not None
    assert rt <= 140.0 * np.pi
    oracle = dense_recurrence_time((1.0, np.sqrt(2.0)), (0.5, 0.5), 0.05, 450.0, 1e-3)
    assert oracle is not None
    assert abs(rt - oracle) <= 1e-3
    assert elapsed < 10.0


def test_criterion_5_reachability_certified_on_controllable_system():
    sys = ControlSystem(SU2_A, SU2_B)
    s0 = StateVector(np.array([1.0, 0.0], dtype=complex))
    start = time.perf_counter()
    targets, certs = verify_reachability(sys, s0, samples=20, word_length=6, seed=7)
    elapsed = time.perf_counter() - start
    assert len(certs) == 20
    assert all(c.converged for c in certs)
    assert all(c.achieved_distance <= 1e-6 for c in certs)
    assert elapsed < 120.0


def test_criterion_6_noncompact_commuting_system():
    A = np.diag([1j, 1j * np.sqrt(2.0)])
    sys = ControlSystem(A, 2.0 * A)
    c0 = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))
    start = time.perf_counter()

    report = controllability_report(sys, c0)
    assert report.algebra_dim == 1
    assert report.orbit_dim == 1
    assert report.verdict is Verdict.RESTRICTED
    assert report.conserved_moduli == [[0], [1]]

    back_target = StateVector(matrix_exp(A, -5.0) @ c0.c)
    cfg_back = SteeringConfig(segments=20, horizon=5.0, restarts=12,
                              max_iterations=300, target_distance=1e-8, seed=0)
    cert_back = steer(sys, c0, back_target, cfg_back)
    assert cert_back.converged
    assert cert_back.stop_reason == "converged"  # an orbit point gets no off-orbit floor
    assert cert_back.achieved_distance <= 1e-8

    off_target = StateVector(np.array([1.0, 0.0], dtype=complex))
    bound = moduli_distance_bound(sys, c0, off_target)
    assert bound == pytest.approx(1.0 - 1.0 / np.sqrt(2.0))
    cfg_off = SteeringConfig(restarts=4, max_iterations=200, seed=0)
    cert_off = steer(sys, c0, off_target, cfg_off)
    assert not cert_off.converged
    # the floor proves the target off the orbit before any restart runs
    assert (cert_off.stop_reason, cert_off.iterations_used) == ("off_orbit", 0)
    assert cert_off.achieved_distance >= bound - 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_7_short_propagators_stay_in_generated_group():
    sys = ControlSystem(SU2_A, SU2_B)
    basis = closure([sys.A, sys.B])
    rng = np.random.default_rng(7)
    for _ in range(20):
        durations = rng.uniform(0.01, 0.0625, 8)
        values = rng.uniform(-1.0, 1.0, 8)
        U = propagate_operator(sys, ControlSchedule(durations, values))
        L = scipy.linalg.logm(U)
        # short total duration keeps the log inside the principal branch
        assert np.linalg.norm(L, 2) < np.pi / 2.0
        assert member(basis, L) <= 1e-6


def test_criterion_8_gradient_matches_central_differences():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        sys = ControlSystem(random_skew(rng, n), random_skew(rng, n))
        s0 = StateVector(random_unit(rng, n))
        target = StateVector(random_unit(rng, n))
        m = int(rng.integers(3, 7))
        durations = rng.uniform(0.2, 1.0, m)
        values = rng.uniform(-1.0, 1.0, m)
        g = gradient(sys, ControlSchedule(durations, values), s0, target)
        fd = fd_distance_gradient(sys, durations, values, s0, target)
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(g - fd)) / scale <= 1e-6


def test_criterion_9_reports_are_byte_identical_across_runs(tmp_path):
    sys_path = tmp_path / "system.json"
    from_path = tmp_path / "from.json"
    to_path = tmp_path / "to.json"
    save_system(ControlSystem(SU2_A, SU2_B), sys_path)
    save_state(StateVector(np.array([1.0, 0.0], dtype=complex)), from_path)
    save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), to_path)

    steer_args = ["steer", "--system", str(sys_path), "--from", str(from_path),
                  "--to", str(to_path), "--restarts", "4", "--seed", "11"]
    first = tmp_path / "steer1.json"
    second = tmp_path / "steer2.json"
    assert run(steer_args + ["--out", str(first)]) == 0
    assert run(steer_args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    verify_args = ["verify", "--system", str(sys_path), "--state", str(from_path),
                   "--samples", "3", "--word-length", "4", "--seed", "7"]
    first_v = tmp_path / "verify1.json"
    second_v = tmp_path / "verify2.json"
    assert run(verify_args + ["--out", str(first_v)]) == 0
    assert run(verify_args + ["--out", str(second_v)]) == 0
    assert first_v.read_bytes() == second_v.read_bytes()

    for path in (first, first_v):
        report = json.loads(path.read_text())
        assert set(report) == {"command", "inputs_digest", "result", "tool_version"}
