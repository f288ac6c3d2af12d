import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reachctl
from reachctl import ControlSchedule, ControlSystem, StateVector, cli, orbit, steering
from reachctl.cli import run
from reachctl.fileio import save_schedule, save_state, save_system, state_payload, system_payload
from reachctl.matrices import MAX_ENTRIES

from helpers import SIGMA_X, SIGMA_Z, time_budget

# tests/golden/<case>.analyze.json is the report of
# `reachctl analyze --system <case>.system.json --state <case>.state.json`, and
# tests/golden/torus2.recurrence.<flags>.json that of `reachctl recurrence` on torus2 with the flags
# of GOLDEN_RECURRENCE: demo 03's tolerances and horizon, and a tolerance too tight to return.
# tests/golden/<case>.steer[.<flags>].json is the report of `reachctl steer` from <case>.state.json
# to <case>.target.json with the flags and exit code of GOLDEN_STEER, and su2.verify.samples4.json
# that of `reachctl verify --samples 4` on su2.
GOLDEN = Path(__file__).parent / "golden"
# torus8 is the benchmark's torus from the uniform state; triple_frame is the triple in a fixed
# non-diagonal unitary frame, so its degenerate drift cluster carries a frame eigh picks.
GOLDEN_CASES = ["su2", "so4", "torus2", "torus8", "triple", "triple_frame", "zero_control", "near_parallel", "n1"]
GOLDEN_RECURRENCE = {
    **{f"tol{tol}": ["--tol", tol, "--tmax", "3000", "--dt", "1e-3"] for tol in ("0.3", "0.1", "0.05", "0.01")},
    "tol1e-6.tmax50": ["--tol", "1e-6", "--tmax", "50"],
}
GOLDEN_STEER = {
    "su2.steer": ([], 0),  # converges
    "torus2.steer.segments10.restarts2": (["--segments", "10", "--restarts", "2"], 2),  # off the orbit
}


@pytest.fixture
def su2_files(tmp_path, su2_system, basis_state):
    sys_path = tmp_path / "system.json"
    state_path = tmp_path / "state.json"
    save_system(su2_system, sys_path)
    save_state(basis_state, state_path)
    return str(sys_path), str(state_path)


@pytest.fixture
def torus_files(tmp_path, torus_system, plus_state):
    sys_path = tmp_path / "torus.json"
    state_path = tmp_path / "plus.json"
    save_system(torus_system, sys_path)
    save_state(plus_state, state_path)
    return str(sys_path), str(state_path)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestAnalyze:
    def test_su2(self, su2_files, tmp_path):
        sys_path, state_path = su2_files
        out = str(tmp_path / "report.json")
        code = run(["analyze", "--system", sys_path, "--state", state_path, "--out", out])
        assert code == 0
        report = read_report(out)
        assert report["command"] == "analyze"
        assert report["tool_version"]
        assert len(report["inputs_digest"]) == 64
        assert report["result"]["verdict"] == "OPERATOR_CONTROLLABLE"
        assert report["result"]["algebra_dim"] == 3

    def test_torus_restricted(self, torus_files, tmp_path):
        sys_path, state_path = torus_files
        out = str(tmp_path / "report.json")
        code = run(["analyze", "--system", sys_path, "--state", state_path, "--out", out])
        assert code == 0
        result = read_report(out)["result"]
        assert result["verdict"] == "RESTRICTED"
        assert result["orbit_dim"] == 1
        assert result["conserved_moduli"] == [[0], [1]]

    def test_small_scale_su2_has_no_moduli(self, tmp_path, basis_state):
        sys_path = tmp_path / "su2_small.json"
        state_path = tmp_path / "state.json"
        save_system(ControlSystem(1e-6j * SIGMA_Z, 1e-6j * SIGMA_X), sys_path)
        save_state(basis_state, state_path)
        out = tmp_path / "report.json"
        assert run(["analyze", "--system", str(sys_path), "--state", str(state_path), "--out", str(out)]) == 0
        result = read_report(out)["result"]
        assert result["verdict"] == "OPERATOR_CONTROLLABLE"
        assert result["algebra_dim"] == 3
        assert result["conserved_moduli"] is None

    def test_small_non_skew_input_exits_1(self, tmp_path, capsys):
        # 1e-13 sigma_z is Hermitian, not skew-Hermitian, however small
        doc = {
            "n": 2,
            "A": [[[1e-13, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e-13, 0.0]]],
            "B": [[[0.0, 0.0], [0.0, 1e-13]], [[0.0, 1e-13], [0.0, 0.0]]],
        }
        sys_path = tmp_path / "tiny_hermitian.json"
        sys_path.write_text(json.dumps(doc))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"n": 2, "c": [[1.0, 0.0], [0.0, 0.0]]}))
        assert run(["analyze", "--system", str(sys_path), "--state", str(state_path)]) == 1
        err = capsys.readouterr().err
        assert "tiny_hermitian.json" in err
        assert "A is not skew-Hermitian" in err

    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_report_matches_golden(self, case, tmp_path):
        # Analyze reports hold only integers, booleans and strings, so their
        # bytes do not depend on the BLAS build and are pinned exactly.
        out = tmp_path / "report.json"
        stem = GOLDEN / case
        argv = ["analyze", "--system", f"{stem}.system.json", "--state", f"{stem}.state.json", "--out", str(out)]
        assert run(argv) == 0
        assert out.read_bytes() == Path(f"{stem}.analyze.json").read_bytes()

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale_matches_golden(self, scale, tmp_path, basis_state):
        # Squaring these entries over- or underflows; the verdict must not notice.
        sys_path, state_path, out = tmp_path / "su2.json", tmp_path / "state.json", tmp_path / "report.json"
        save_system(ControlSystem(scale * 1j * SIGMA_Z, scale * 1j * SIGMA_X), sys_path)
        save_state(basis_state, state_path)
        assert run(["analyze", "--system", str(sys_path), "--state", str(state_path), "--out", str(out)]) == 0
        assert read_report(out)["result"] == read_report(GOLDEN / "su2.analyze.json")["result"]

    def test_stdout_default(self, su2_files, capsys):
        sys_path, state_path = su2_files
        assert run(["analyze", "--system", sys_path, "--state", state_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "analyze"

    def test_missing_file_exits_1(self, su2_files, tmp_path, capsys):
        sys_path, _ = su2_files
        code = run(["analyze", "--system", sys_path, "--state", str(tmp_path / "ghost.json")])
        assert code == 1
        assert "ghost.json" in capsys.readouterr().err

    def test_unwritable_out_exits_1(self, su2_files, tmp_path, capsys):
        sys_path, state_path = su2_files
        out = tmp_path / "missing" / "r.json"
        code = run(["analyze", "--system", sys_path, "--state", state_path, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"reachctl analyze: error: {out}: cannot write report (")
        assert not out.exists()


class TestOutFile:
    """``--out`` is written over in place: exactly the report's bytes, the same inode and mode, untouched on exit 1."""

    def analyze(self, su2_files, *extra):
        sys_path, state_path = su2_files
        return run(["analyze", "--system", sys_path, "--state", state_path, *extra])

    @pytest.mark.parametrize("old", [b"x" * 8192, b"{}\n"], ids=["longer", "shorter"])
    def test_existing_out_holds_exactly_the_report(self, su2_files, tmp_path, capsys, old):
        assert self.analyze(su2_files) == 0
        report = capsys.readouterr().out.encode()
        out = tmp_path / "report.json"
        out.write_bytes(old)
        assert self.analyze(su2_files, "--out", str(out)) == 0
        assert out.read_bytes() == report

    def test_keeps_inode_and_mode(self, su2_files, tmp_path):
        out = tmp_path / "report.json"
        out.write_bytes(b"x" * 8192)
        out.chmod(0o604)
        before = out.stat()
        assert self.analyze(su2_files, "--out", str(out)) == 0
        after = out.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_dev_null_exits_0(self, su2_files, capsys):
        assert self.analyze(su2_files, "--out", os.devnull) == 0
        assert capsys.readouterr() == ("", "")

    def test_directory_exits_1_with_one_line(self, su2_files, tmp_path, capsys):
        assert self.analyze(su2_files, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"reachctl analyze: error: {tmp_path}: cannot write report (Is a directory)\n"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exit_1_leaves_out_untouched(self, tmp_path, basis_state, capsys):
        sys_path, state_path = tmp_path / "big.json", tmp_path / "state.json"
        save_system(ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X), sys_path)
        save_state(basis_state, state_path)
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.5, 1e300), controls)
        out = tmp_path / "report.json"
        out.write_bytes(b"an earlier report\n")
        before = out.stat()
        code = run(["simulate", "--system", str(sys_path), "--state", str(state_path),
                    "--controls", str(controls), "--samples-per-segment", "1", "--out", str(out)])
        assert code == 1
        assert "overflows double precision" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier report\n"
        assert out.stat().st_mtime_ns == before.st_mtime_ns


class TestSimulate:
    def test_pure_drift_reports_energy(self, su2_files, tmp_path):
        sys_path, state_path = su2_files
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.0, 2.0, 4), controls)
        out = str(tmp_path / "report.json")
        code = run(["simulate", "--system", sys_path, "--state", state_path,
                    "--controls", str(controls), "--out", out])
        assert code == 0
        result = read_report(out)["result"]
        assert result["max_norm_drift"] <= 1e-10
        assert result["max_hamiltonian_drift"] <= 1e-9
        assert result["final_time"] == pytest.approx(2.0)

    def test_driven_energy_is_null(self, su2_files, tmp_path):
        sys_path, state_path = su2_files
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.7, 1.0, 2), controls)
        out = str(tmp_path / "report.json")
        run(["simulate", "--system", sys_path, "--state", state_path,
             "--controls", str(controls), "--out", out])
        assert read_report(out)["result"]["max_hamiltonian_drift"] is None

    def test_negative_duration_diagnostic(self, su2_files, tmp_path, capsys):
        sys_path, state_path = su2_files
        controls = tmp_path / "controls.json"
        controls.write_text(json.dumps(
            {"segments": [{"duration": 1.0, "value": 0.0}, {"duration": -1.0, "value": 0.0}]}
        ))
        code = run(["simulate", "--system", sys_path, "--state", state_path,
                    "--controls", str(controls)])
        assert code == 1
        assert "segment 1" in capsys.readouterr().err

    def test_too_short_duration_diagnostic(self, su2_files, tmp_path, capsys):
        sys_path, state_path = su2_files
        controls = tmp_path / "controls.json"
        controls.write_text(json.dumps(
            {"segments": [{"duration": 1.0, "value": 0.0}, {"duration": 1e-300, "value": 0.5}]}
        ))
        out = tmp_path / "report.json"
        code = run(["simulate", "--system", sys_path, "--state", state_path,
                    "--controls", str(controls), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"reachctl simulate: error: {controls}: field 'segments': segment 1: duration 1e-300 "
            "starting at t = 1.0 is too short for its 11 sample times to advance\n"
        )
        assert not out.exists()

    def test_sample_time_overflow_diagnostic(self, su2_files, tmp_path, capsys):
        sys_path, state_path = su2_files
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.0, 1e308), controls)
        out = tmp_path / "report.json"
        code = run(["simulate", "--system", sys_path, "--state", state_path,
                    "--controls", str(controls), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"reachctl simulate: error: {controls}: field 'segments': segment 0: the sample times of "
            "duration 1e+308 starting at t = 0.0 overflow double precision\n"
        )
        assert not out.exists()

    def test_sample_count_diagnostic_names_no_file(self, su2_files, tmp_path, capsys):
        sys_path, state_path = su2_files
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.0, 1.0), controls)
        code = run(["simulate", "--system", sys_path, "--state", state_path,
                    "--controls", str(controls), "--samples-per-segment", "0"])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl simulate: error: samples_per_segment must be a positive integer, got 0\n"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exits_1_without_report(self, tmp_path, basis_state, capsys):
        sys_path, state_path = tmp_path / "big.json", tmp_path / "state.json"
        save_system(ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X), sys_path)
        save_state(basis_state, state_path)
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.5, 1e300), controls)
        out = tmp_path / "report.json"
        code = run(["simulate", "--system", str(sys_path), "--state", str(state_path),
                    "--controls", str(controls), "--samples-per-segment", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"reachctl simulate: error: {controls}: field 'segments': segment 0: the flow over "
            "duration 1e+300 at control value 0.5 overflows double precision\n"
        )
        assert not out.exists()

    def test_overflow_stderr_is_one_line(self, tmp_path, basis_state):
        # Run as a process, so numpy's RuntimeWarnings would reach stderr too.
        sys_path, state_path = tmp_path / "big.json", tmp_path / "state.json"
        save_system(ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X), sys_path)
        save_state(basis_state, state_path)
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.5, 1e300), controls)
        package_root = str(Path(reachctl.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "reachctl.cli", "simulate", "--system", str(sys_path),
             "--state", str(state_path), "--controls", str(controls), "--samples-per-segment", "1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"reachctl simulate: error: {controls}: field 'segments': segment 0: the flow over "
            "duration 1e+300 at control value 0.5 overflows double precision\n"
        )


class TestSteer:
    def test_converging_run_exits_0(self, su2_files, tmp_path):
        sys_path, from_path = su2_files
        to_path = tmp_path / "target.json"
        save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), to_path)
        out = str(tmp_path / "cert.json")
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", str(to_path),
                    "--restarts", "4", "--seed", "0", "--out", out])
        assert code == 0
        result = read_report(out)["result"]
        assert result["converged"] is True
        assert result["achieved_distance"] <= 1e-6
        assert len(result["schedule"]["segments"]) == 20

    def test_non_convergence_exits_2(self, torus_files, tmp_path):
        sys_path, from_path = torus_files
        to_path = tmp_path / "offorbit.json"
        save_state(StateVector(np.array([1.0, 0.0], dtype=complex)), to_path)
        out = str(tmp_path / "cert.json")
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", str(to_path),
                    "--restarts", "2", "--out", out])
        assert code == 2
        result = read_report(out)["result"]
        assert result["converged"] is False
        # conservation keeps the distance above the moduli mismatch floor
        assert result["achieved_distance"] >= (1.0 - 1.0 / np.sqrt(2.0)) - 1e-12

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_target_distance_exits_1(self, su2_files, tmp_path, capsys, value):
        sys_path, from_path = su2_files
        to_path = tmp_path / "target.json"
        save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), to_path)
        out = tmp_path / "cert.json"
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", str(to_path),
                    "--restarts", "1", "--target-distance", value, "--out", str(out)])
        assert code == 1
        assert "target_distance must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_report_states_stop_reason(self, torus_files, tmp_path):
        sys_path, from_path = torus_files
        to_path = tmp_path / "offorbit.json"
        save_state(StateVector(np.array([1.0, 0.0], dtype=complex)), to_path)
        out = str(tmp_path / "cert.json")
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", str(to_path),
                    "--segments", "10", "--restarts", "1", "--out", out])
        assert code == 2
        result = read_report(out)["result"]
        # the conserved moduli prove the target off the orbit before any restart runs
        assert result["stop_reason"] == "off_orbit"
        assert result["iterations_used"] == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exits_1_without_certificate(self, tmp_path, basis_state, capsys):
        sys_path, from_path, to_path = tmp_path / "big.json", tmp_path / "from.json", tmp_path / "to.json"
        save_system(ControlSystem(1e10j * SIGMA_Z, 1e10j * SIGMA_X), sys_path)
        save_state(basis_state, from_path)
        save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), to_path)
        out = tmp_path / "cert.json"
        code = run(["steer", "--system", str(sys_path), "--from", str(from_path), "--to", str(to_path),
                    "--horizon", "1e300", "--segments", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl steer: error: --horizon 1e+300 / --segments 2: the flow over segments of "
            "duration 5e+299 overflows double precision\n"
        )
        assert not out.exists()

    def test_off_orbit_overflow_exits_1_without_certificate(self, tmp_path, basis_state, capsys):
        # A commuting pair and a target with other moduli: the zero schedule of the off-orbit certificate overflows.
        sys_path, from_path, to_path = tmp_path / "big.json", tmp_path / "from.json", tmp_path / "to.json"
        save_system(ControlSystem(1e10j * SIGMA_Z, 2e10j * SIGMA_Z), sys_path)
        save_state(basis_state, from_path)
        save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), to_path)
        out = tmp_path / "cert.json"
        code = run(["steer", "--system", str(sys_path), "--from", str(from_path), "--to", str(to_path),
                    "--horizon", "1e300", "--segments", "2", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl steer: error: --horizon 1e+300 / --segments 2: the flow over segments of "
            "duration 5e+299 overflows double precision\n"
        )
        assert not out.exists()

    def test_underflowing_horizon_exits_1_before_steering(self, su2_files, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(steering, "forward_pass", None)  # any evaluation would fail loudly
        sys_path, from_path = su2_files
        out = tmp_path / "cert.json"
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", from_path,
                    "--horizon", "5e-324", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl steer: error: horizon / segments underflows to 0: 5e-324 / 20\n"
        )
        assert not out.exists()

    def test_huge_segment_count_exits_1(self, su2_files, tmp_path, capsys):
        sys_path, from_path = su2_files
        out = tmp_path / "cert.json"
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", from_path,
                    "--segments", "1" + "0" * 400, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl steer: error: horizon / segments: segments is too large for a float\n"
        )
        assert not out.exists()

    def test_negative_seed_names_seed(self, su2_files, capsys):
        sys_path, from_path = su2_files
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", from_path,
                    "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl steer: error: seed must be a non-negative integer, got -1\n"
        )

    def test_out_of_memory_exits_1(self, su2_files, tmp_path, capsys, monkeypatch):
        # a large --segments or --restarts can exhaust memory in a lockstep round;
        # the kernel is made to fail rather than allocating anything large
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(steering, "forward_pass", no_memory)
        sys_path, from_path = su2_files
        out = tmp_path / "cert.json"
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", from_path,
                    "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl steer: error: out of memory (Unable to allocate 8.00 GiB for an array)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("name", GOLDEN_STEER)
    def test_report_matches_golden(self, name, tmp_path):
        # Seeded restarts make a certificate repeat byte for byte, schedule and outcome alike.
        flags, exit_code = GOLDEN_STEER[name]
        stem = GOLDEN / name.split(".")[0]
        out = tmp_path / "cert.json"
        argv = ["steer", "--system", f"{stem}.system.json", "--from", f"{stem}.state.json",
                "--to", f"{stem}.target.json", *flags, "--out", str(out)]
        assert run(argv) == exit_code
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    def test_projective_flag(self, su2_files, tmp_path):
        sys_path, from_path = su2_files
        to_path = tmp_path / "target.json"
        save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), to_path)
        code = run(["steer", "--system", sys_path, "--from", from_path, "--to", str(to_path),
                    "--restarts", "2", "--projective", "--out", str(tmp_path / "c.json")])
        assert code == 0


class TestRecurrence:
    def test_found_return(self, torus_files, tmp_path):
        sys_path, state_path = torus_files
        out = str(tmp_path / "rec.json")
        code = run(["recurrence", "--system", sys_path, "--state", state_path,
                    "--tol", "0.05", "--tmax", "450", "--out", out])
        assert code == 0
        result = read_report(out)["result"]
        assert result["found"] is True
        assert result["return_time"] <= 140.0 * np.pi

    def test_absence_is_explicit(self, torus_files, tmp_path):
        sys_path, state_path = torus_files
        out = str(tmp_path / "rec.json")
        code = run(["recurrence", "--system", sys_path, "--state", state_path,
                    "--tol", "1e-9", "--tmax", "5", "--out", out])
        assert code == 0
        result = read_report(out)["result"]
        assert result["found"] is False
        assert result["return_time"] is None

    @pytest.mark.parametrize("flags", GOLDEN_RECURRENCE)
    def test_report_matches_golden(self, flags, tmp_path):
        # A return on the grid, or none at all, does not depend on the refinement: these bytes are pinned.
        out = tmp_path / "rec.json"
        stem = GOLDEN / "torus2"
        argv = ["recurrence", "--system", f"{stem}.system.json", "--state", f"{stem}.state.json",
                *GOLDEN_RECURRENCE[flags], "--out", str(out)]
        assert run(argv) == 0
        assert out.read_bytes() == Path(f"{stem}.recurrence.{flags}.json").read_bytes()

    def test_fixed_point_returns_at_once(self, tmp_path):
        sys_path, state_path = tmp_path / "fixed.json", tmp_path / "up.json"
        save_system(ControlSystem(np.zeros((2, 2)), 1j * SIGMA_X), sys_path)
        save_state(StateVector(np.array([1.0, 0.0], dtype=complex)), state_path)
        out = str(tmp_path / "rec.json")
        start = time.perf_counter()
        code = run(["recurrence", "--system", str(sys_path), "--state", str(state_path),
                    "--tol", "0.05", "--tmax", "1e12", "--dt", "1e-3", "--out", out])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert read_report(out)["result"]["return_time"] == 1e-3

    @pytest.mark.parametrize("flags", [
        ["--tol", "0.05", "--tmax", "inf"],
        ["--tol", "inf", "--tmax", "5"],
        ["--tol", "0.05", "--tmax", "5", "--dt", "nan"],
        ["--tol", "0.05", "--tmax", "1e308"],
    ])
    def test_non_finite_parameters_exit_1(self, torus_files, tmp_path, capsys, flags):
        sys_path, state_path = torus_files
        out = tmp_path / "rec.json"
        code = run(["recurrence", "--system", sys_path, "--state", state_path, *flags, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("reachctl recurrence: error: ")
        assert not out.exists()


    @pytest.mark.parametrize("dt", ["1e9", "1e8"])
    def test_overflowing_drift_phase_exits_1(self, tmp_path, capsys, dt):
        sys_path, state_path = tmp_path / "fast.json", tmp_path / "plus.json"
        save_system(ControlSystem(np.diag([1e300j, -1e300j]), np.zeros((2, 2))), sys_path)
        save_state(StateVector.normalized(np.array([1.0, 1.0], dtype=complex)), state_path)
        out = tmp_path / "rec.json"
        code = run(["recurrence", "--system", str(sys_path), "--state", str(state_path),
                    "--tol", "0.1", "--tmax", "1e10", "--dt", dt, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("reachctl recurrence: error: the drift phase over "
                                           "t_max = 10000000000.0 overflows double precision\n")
        assert not out.exists()

    def test_unresolvable_drift_phase_exits_1(self, tmp_path, capsys):
        sys_path, state_path = tmp_path / "fast.json", tmp_path / "plus.json"
        save_system(ControlSystem(np.diag([1e13j, -1e13j]), np.zeros((2, 2))), sys_path)
        save_state(StateVector.normalized(np.array([1.0, 1.0], dtype=complex)), state_path)
        out = tmp_path / "rec.json"
        code = run(["recurrence", "--system", str(sys_path), "--state", str(state_path),
                    "--tol", "1e-9", "--tmax", "1e3", "--dt", "1e-3", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == ("reachctl recurrence: error: the drift phase over t_max = 1000.0 "
                                           "is too large to resolve a distance in double precision\n")
        assert not out.exists()


class TestVerify:
    def test_su2_passes(self, su2_files, tmp_path):
        sys_path, state_path = su2_files
        out = str(tmp_path / "verify.json")
        code = run(["verify", "--system", sys_path, "--state", state_path,
                    "--samples", "4", "--word-length", "4", "--seed", "7", "--out", out])
        assert code == 0
        result = read_report(out)["result"]
        assert result["verdict"] == "PASS"
        assert result["n_converged"] == 4
        assert len(result["samples"]) == 4

    def test_torus2_passes(self, torus_files, tmp_path):
        # The paper's non-compact case passes at the default settings.
        sys_path, state_path = torus_files
        out = str(tmp_path / "verify.json")
        assert run(["verify", "--system", sys_path, "--state", state_path, "--out", out]) == 0
        result = read_report(out)["result"]
        assert (result["verdict"], result["n_converged"]) == ("PASS", 20)

    def test_report_matches_golden(self, tmp_path):
        out = tmp_path / "verify.json"
        stem = GOLDEN / "su2"
        argv = ["verify", "--system", f"{stem}.system.json", "--state", f"{stem}.state.json",
                "--samples", "4", "--out", str(out)]
        assert run(argv) == 0
        assert out.read_bytes() == (GOLDEN / "su2.verify.samples4.json").read_bytes()

    def test_repeat_runs_byte_identical(self, su2_files, tmp_path):
        sys_path, state_path = su2_files
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        args = ["verify", "--system", sys_path, "--state", state_path,
                "--samples", "3", "--word-length", "4", "--seed", "5"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_negative_seed_names_seed(self, su2_files, capsys):
        sys_path, state_path = su2_files
        code = run(["verify", "--system", sys_path, "--state", state_path, "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl verify: error: seed must be a non-negative integer, got -1\n"
        )

    def test_makes_no_closure(self, su2_files, tmp_path, monkeypatch):
        # The targets are words of the system's own flows: verify builds no Lie algebra.
        calls, inner = [], orbit.closure
        monkeypatch.setattr(orbit, "closure", lambda generators: calls.append(1) or inner(generators))
        sys_path, state_path = su2_files
        assert run(["verify", "--system", sys_path, "--state", state_path, "--samples", "2",
                    "--out", str(tmp_path / "verify.json")]) == 0
        assert calls == []

    def test_overflowing_word_exits_1_with_one_line(self, tmp_path, basis_state, capsys):
        sys_path, state_path = tmp_path / "big.json", tmp_path / "up.json"
        save_system(ControlSystem(1e308j * SIGMA_Z, 1e308j * SIGMA_X), sys_path)
        save_state(basis_state, state_path)
        out = tmp_path / "verify.json"
        code = run(["verify", "--system", str(sys_path), "--state", str(state_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("reachctl verify: error: orbit word factor ")
        assert err.endswith(" overflows double precision\n") and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_exits_1(self, su2_files, tmp_path, capsys, monkeypatch):
        # a lockstep round holds at least one sample's restarts, so a large system can exhaust memory;
        # the kernel is made to fail rather than allocating anything large
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(steering, "forward_pass", no_memory)
        sys_path, state_path = su2_files
        out = tmp_path / "verify.json"
        code = run(["verify", "--system", sys_path, "--state", state_path, "--samples", "2",
                    "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "reachctl verify: error: out of memory (Unable to allocate 8.00 GiB for an array)\n"
        )
        assert not out.exists()


class TestArgumentHandling:
    @pytest.mark.parametrize("command", ["analyze", "simulate", "steer", "recurrence", "verify"])
    def test_state_dimension_mismatch_names_file(self, command, su2_files, tmp_path, capsys):
        sys_path, state_path = su2_files
        wide = tmp_path / "wide.json"
        save_state(StateVector(np.array([1.0, 0.0, 0.0])), wide)
        controls = tmp_path / "controls.json"
        save_schedule(ControlSchedule.constant(0.0, 1.0), controls)
        states = ["--from", state_path, "--to", str(wide)] if command == "steer" else ["--state", str(wide)]
        extra = {"simulate": ["--controls", str(controls)],
                 "recurrence": ["--tol", "0.1", "--tmax", "1"]}.get(command, [])
        code = run([command, "--system", sys_path, *states, *extra])
        assert code == 1
        assert capsys.readouterr().err == (
            f"reachctl {command}: error: {wide}: field 'n': 3 does not match "
            f"the dimension 2 of system {sys_path}\n"
        )

    def test_unknown_subcommand_exits_1(self, capsys):
        assert run(["explode"]) == 1
        capsys.readouterr()

    def test_unknown_flag_exits_1(self, su2_files, capsys):
        sys_path, state_path = su2_files
        assert run(["analyze", "--system", sys_path, "--state", state_path, "--wat"]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        assert "analyze" in capsys.readouterr().out

    def test_parser_is_built_once_and_reused(self, su2_files, tmp_path, capsys):
        # A parse error and --help leave nothing behind in the cached parser: the next
        # run's report equals that of a fresh process.
        sys_path, state_path = su2_files
        fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
        argv = ["analyze", "--system", sys_path, "--state", state_path]
        package_root = str(Path(reachctl.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "reachctl.cli", *argv, "--out", str(fresh)],
                              capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert run(["analyze", "--system", sys_path, "--wat"]) == 1
        assert run(["--help"]) == 0
        assert run(argv + ["--out", str(reused)]) == 0
        capsys.readouterr()
        assert cli._build_parser() is cli._build_parser()
        assert reused.read_bytes() == fresh.read_bytes()

    def test_digest_covers_the_bytes_parsed(self, su2_files, tmp_path, monkeypatch):
        # The state file changes after it was read and parsed; the report digests what was analyzed.
        sys_path, state_path = su2_files
        parsed = [Path(sys_path).read_bytes(), Path(state_path).read_bytes()]
        load_state = cli.load_state

        def load_then_rewrite(path, *args):
            state = load_state(path, *args)
            save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), path)
            return state

        monkeypatch.setattr(cli, "load_state", load_then_rewrite)
        out = tmp_path / "report.json"
        assert run(["analyze", "--system", sys_path, "--state", state_path, "--out", str(out)]) == 0
        assert Path(state_path).read_bytes() != parsed[1]
        expected = hashlib.sha256(b"".join(hashlib.sha256(data).digest() for data in parsed)).hexdigest()
        assert read_report(out)["inputs_digest"] == expected

    def test_non_skew_input_cites_entry(self, tmp_path, capsys):
        doc = {
            "n": 2,
            "A": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            "B": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]],
        }
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(doc))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"n": 2, "c": [[1.0, 0.0], [0.0, 0.0]]}))
        code = run(["analyze", "--system", str(sys_path), "--state", str(state_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "not skew-Hermitian" in err
        assert "entry" in err


class TestReportRoundTrip:
    def test_serialize_parse_serialize(self, su2_files, tmp_path):
        from reachctl.fileio import render

        sys_path, state_path = su2_files
        out = tmp_path / "report.json"
        run(["analyze", "--system", sys_path, "--state", state_path, "--out", str(out)])
        text = out.read_text()
        assert render(json.loads(text)) == text


def _su2_system_doc(entry):
    doc = system_payload(ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X))
    doc["A"][0][1] = entry
    return json.dumps(doc)


HUGE = 10**400  # a JSON integer literal no float can hold


class TestLoaderFuzz:
    """Malformed input files exit 1 with a diagnostic, never a traceback."""

    @pytest.mark.parametrize("which, text, detail", [
        pytest.param("system", _su2_system_doc([HUGE, 0]),
                     "field 'A': entry (0, 1) is too large for a float", id="huge-matrix-entry"),
        pytest.param("state", json.dumps({"n": 2, "c": [[1, 0], [0, -HUGE]]}),
                     "field 'c': entry 1 is too large for a float", id="huge-state-entry"),
        pytest.param("controls", json.dumps({"segments": [{"duration": HUGE, "value": 0}]}),
                     "field 'segments': segment 0: 'duration' is too large for a float",
                     id="huge-duration"),
        pytest.param("controls",
                     json.dumps({"segments": [{"duration": 1, "value": 0}, {"duration": 1, "value": -HUGE}]}),
                     "field 'segments': segment 1: 'value' is too large for a float", id="huge-value"),
        pytest.param("controls", "[" * 100000, "invalid JSON: nested too deeply", id="deep-array"),
        pytest.param("state", '{"n": 2, "c": ' + "[" * 100000, "invalid JSON: nested too deeply",
                     id="deep-field"),
        pytest.param("state", '{"n": ' + "7" * 5000 + "}", "invalid JSON", id="integer-past-digit-limit"),
        pytest.param("system", b'{"n": 2, \xff}', "not UTF-8 text (byte 9: invalid start byte)", id="not-utf8"),
    ])
    def test_malformed_file_exits_1(self, tmp_path, capsys, which, text, detail):
        paths = {name: tmp_path / f"{name}.json" for name in ("system", "state", "controls")}
        paths["system"].write_text(_su2_system_doc([0, 0]))
        paths["state"].write_text(json.dumps(state_payload(StateVector(np.array([1.0, 0.0], dtype=complex)))))
        paths["controls"].write_text(json.dumps({"segments": [{"duration": 1.0, "value": 0.5}]}))
        paths[which].write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "report.json"
        code = run(["simulate", "--system", str(paths["system"]), "--state", str(paths["state"]),
                    "--controls", str(paths["controls"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"reachctl simulate: error: {paths[which]}: ")
        assert detail in err
        assert "Traceback" not in err
        assert not out.exists()


class TestBoundedCounts:
    """A count that asks for more array entries than ``MAX_ENTRIES`` exits 1 before any work, naming it."""

    @pytest.mark.parametrize("command, flags, name", [
        ("steer", ["--restarts", str(HUGE)], "restarts * segments"),
        ("verify", ["--word-length", str(HUGE)], "word_length"),
        ("verify", ["--samples", str(HUGE)], "samples"),
        ("simulate", ["--samples-per-segment", str(HUGE)], "samples_per_segment"),
    ], ids=["steer-restarts", "verify-word-length", "verify-samples", "simulate-samples-per-segment"])
    def test_huge_count_exits_1_naming_it(self, tmp_path, capsys, command, flags, name):
        controls, out, state = tmp_path / "controls.json", tmp_path / "report.json", str(GOLDEN / "su2.state.json")
        save_schedule(ControlSchedule.constant(0.5, 1.0, 4), controls)
        inputs = {"steer": ["--from", state, "--to", str(GOLDEN / "su2.target.json")],
                  "simulate": ["--state", state, "--controls", str(controls)],
                  "verify": ["--state", state]}[command]
        with time_budget(5):
            assert run([command, "--system", str(GOLDEN / "su2.system.json"), *inputs, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"reachctl {command}: error: {name} is too large: it asks for more "
                                           f"than {MAX_ENTRIES} array entries\n")
        assert not out.exists()
