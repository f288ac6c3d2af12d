import json
import os
import stat

import numpy as np
import pytest

from reachctl import (
    ControlSchedule,
    ControlSystem,
    StateVector,
    SteeringConfig,
    Trajectory,
    controllability_report,
    propagate,
    steer,
)
from reachctl.fileio import (
    certificate_payload,
    inputs_digest,
    load_schedule,
    load_state,
    load_system,
    read_input,
    recurrence_payload,
    render,
    report_payload,
    save_schedule,
    save_state,
    save_system,
    schedule_payload,
    state_payload,
    system_payload,
    trajectory_payload,
    verification_payload,
    write_in_place,
)

from helpers import SIGMA_X, SIGMA_Z


@pytest.fixture
def su2_files(tmp_path, su2_system, basis_state):
    sys_path = tmp_path / "system.json"
    state_path = tmp_path / "state.json"
    save_system(su2_system, sys_path)
    save_state(basis_state, state_path)
    return sys_path, state_path


class TestWriteInPlace:
    @pytest.mark.parametrize("old", ["x" * 4096, "{}", ""], ids=["longer", "shorter", "empty"])
    def test_overwrite_holds_exactly_the_new_text(self, tmp_path, old):
        path = tmp_path / "out.json"
        path.write_text(old)
        write_in_place(path, '{\n  "a": 1\n}\n')
        assert path.read_bytes() == b'{\n  "a": 1\n}\n'

    def test_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("x" * 100)
        path.chmod(0o640)
        before = path.stat()
        write_in_place(path, "{}\n")
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)

    def test_new_file_mode_matches_open(self, tmp_path):
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        write_in_place(ours, "{}\n")
        theirs.write_text("{}\n")
        assert stat.S_IMODE(ours.stat().st_mode) == stat.S_IMODE(theirs.stat().st_mode)

    def test_special_file_is_written_and_not_cut(self):
        write_in_place(os.devnull, "{}\n")

    def test_directory_raises_oserror(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            write_in_place(tmp_path, "{}\n")

    @pytest.mark.parametrize("save, value", [
        (save_system, ControlSystem(1j * SIGMA_Z, 1j * SIGMA_X)),
        (save_state, StateVector(np.array([1.0, 0.0], dtype=complex))),
        (save_schedule, ControlSchedule.constant(0.5, 1.0)),
    ], ids=["system", "state", "schedule"])
    def test_savers_raise_plain_oserror(self, tmp_path, save, value):
        with pytest.raises(OSError) as info:
            save(value, tmp_path / "missing" / "out.json")
        assert type(info.value) is FileNotFoundError

    def test_save_state_over_longer_file_round_trips(self, tmp_path, su2_system, plus_state):
        path = tmp_path / "state.json"
        save_system(su2_system, path)
        save_state(plus_state, path)
        assert path.read_text() == render(state_payload(plus_state))
        assert np.array_equal(load_state(path).c, plus_state.c)


class TestLoadSystem:
    def test_round_trip(self, tmp_path, su2_system):
        path = tmp_path / "sys.json"
        save_system(su2_system, path)
        loaded = load_system(path)
        assert np.array_equal(loaded.A, su2_system.A)
        assert np.array_equal(loaded.B, su2_system.B)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ValueError, match="nope.json"):
            load_system(tmp_path / "nope.json")

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_system(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"n": 2, "A": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]}))
        with pytest.raises(ValueError, match="missing field 'B'"):
            load_system(path)

    def test_non_skew_matrix_cites_entry(self, tmp_path):
        doc = {
            "n": 2,
            "A": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],  # sigma_x
            "B": [[[0.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]]],
        }
        path = tmp_path / "notskew.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"notskew.json.*A is not skew-Hermitian.*entry"):
            load_system(path)

    def test_malformed_pair_locates_entry(self, tmp_path):
        doc = {"n": 2, "A": [[[0, 0], [0, 0]], [[0, 0], "x"]], "B": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"entry \(1, 1\)"):
            load_system(path)


class TestLoadState:
    def test_round_trip(self, tmp_path, plus_state):
        path = tmp_path / "state.json"
        save_state(plus_state, path)
        assert np.array_equal(load_state(path).c, plus_state.c)

    def test_off_sphere_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 2, "c": [[1.0, 0.0], [1.0, 0.0]]}))
        with pytest.raises(ValueError, match="field 'c'"):
            load_state(path)

    def test_wrong_length_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 3, "c": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="list of 3"):
            load_state(path)


class TestLoadSchedule:
    def test_round_trip(self, tmp_path):
        sched = ControlSchedule([0.5, 1.0], [1.0, -0.25])
        path = tmp_path / "controls.json"
        save_schedule(sched, path)
        loaded = load_schedule(path)
        assert np.array_equal(loaded.durations, sched.durations)
        assert np.array_equal(loaded.values, sched.values)

    def test_negative_duration_names_segment(self, tmp_path):
        doc = {"segments": [{"duration": 1.0, "value": 0.0}, {"duration": -2.0, "value": 0.0}]}
        path = tmp_path / "controls.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="segment 1"):
            load_schedule(path)

    def test_missing_key_names_segment(self, tmp_path):
        doc = {"segments": [{"duration": 1.0}]}
        path = tmp_path / "controls.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="segment 0 is missing 'value'"):
            load_schedule(path)

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps({"segments": []}))
        with pytest.raises(ValueError, match="non-empty"):
            load_schedule(path)


ROW = [[0, 0], [0, 0]]
HUGE = 10**400  # a JSON integer literal no float can hold


class TestParserMessages:
    """Each malformed entry gets one exact message, naming the file, the field and the entry."""

    @pytest.mark.parametrize("doc, message", [
        pytest.param({"segments": [{"duration": 1.0, "value": True}]},
                     "field 'segments': segment 0: 'value' must be a number", id="bool-value"),
        pytest.param({"segments": [{"duration": False}]},
                     "field 'segments': segment 0: 'duration' must be a number", id="bool-duration-first"),
        pytest.param({"segments": [{"duration": 1.0, "value": 0.5}, {"duration": 1.0, "value": "0.5"}]},
                     "field 'segments': segment 1: 'value' must be a number", id="string-value"),
        pytest.param({"segments": [{"duration": 1.0, "value": 0.0}, [1.0, 0.0]]},
                     "field 'segments': segment 1 must be an object", id="list-segment"),
        pytest.param({"segments": [{"value": 0.0}]},
                     "field 'segments': segment 0 is missing 'duration'", id="missing-duration"),
        pytest.param({"segments": [{"duration": 1}]},
                     "field 'segments': segment 0 is missing 'value'", id="missing-value"),
        pytest.param({"segments": [{"duration": 1, "value": HUGE}]},
                     "field 'segments': segment 0: 'value' is too large for a float", id="huge-value"),
        pytest.param({"segments": [{"duration": -HUGE, "value": "x"}]},
                     "field 'segments': segment 0: 'duration' is too large for a float", id="huge-duration-first"),
    ])
    def test_schedule(self, tmp_path, doc, message):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_schedule(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("A, B, message", [
        pytest.param([ROW, [[0, 0], [True, 0]]], [ROW, ROW],
                     "field 'A': entry (1, 1) must be a [re, im] number pair", id="bool-entry"),
        pytest.param([ROW, ROW], [[[0, "0"], [0, 0]], ROW],
                     "field 'B': entry (0, 0) must be a [re, im] number pair", id="string-entry"),
        pytest.param([ROW, [[0, 0], [0, -HUGE]]], [ROW, ROW],
                     "field 'A': entry (1, 1) is too large for a float", id="huge-entry"),
        pytest.param([ROW, [[0, 0]]], [ROW, ROW],
                     "field 'A': row 1 must hold 2 [re, im] pairs", id="short-row"),
        pytest.param([ROW, ROW], [ROW, [[0, 0], [0, 0, 0]]],
                     "field 'B': entry (1, 1) must be a [re, im] number pair", id="three-element-pair"),
        pytest.param([ROW, [[HUGE, 0], [0, True]]], [ROW, ROW],
                     "field 'A': entry (1, 0) is too large for a float", id="first-bad-entry-wins"),
        pytest.param([ROW], [ROW, ROW], "field 'A' must be a list of 2 rows", id="short-matrix"),
    ])
    def test_system(self, tmp_path, A, B, message):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"n": 2, "A": A, "B": B}))
        with pytest.raises(ValueError) as info:
            load_system(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("c, message", [
        pytest.param([[1, 0], [False, 0]], "field 'c': entry 1 must be a [re, im] number pair", id="bool-entry"),
        pytest.param([[1, 0], [0, HUGE]], "field 'c': entry 1 is too large for a float", id="huge-entry"),
        pytest.param([[1, 0], {"re": 0}], "field 'c': entry 1 must be a [re, im] number pair", id="object-entry"),
    ])
    def test_state(self, tmp_path, c, message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 2, "c": c}))
        with pytest.raises(ValueError) as info:
            load_state(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("n", [0, -1, 2.0, True, None, "2"])
    @pytest.mark.parametrize("loader", [load_system, load_state])
    def test_bad_n(self, tmp_path, loader, n):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"n": n, "A": [ROW, ROW], "B": [ROW, ROW], "c": [[1, 0], [0, 0]]}))
        with pytest.raises(ValueError) as info:
            loader(path)
        assert str(info.value) == f"{path}: field 'n' must be a positive integer, got {n!r}"

    def test_integer_entries_parse_as_floats(self, tmp_path):
        path = tmp_path / "controls.json"
        path.write_text(json.dumps({"segments": [{"duration": 2, "value": -0.0}, {"duration": 0.5, "value": 3}]}))
        sched = load_schedule(path)
        assert sched.durations.tolist() == [2.0, 0.5] and sched.values.tolist() == [-0.0, 3.0]
        assert np.signbit(sched.values[0])


class TestPayloads:
    def test_complexes_serialize_as_pairs(self, su2_system):
        payload = system_payload(su2_system)
        assert payload["n"] == 2
        assert payload["A"][0][0] == [0.0, 1.0]
        assert payload["A"][0][1] == [0.0, 0.0]
        assert payload["B"][0][1] == [0.0, 1.0]

    def test_state_payload_pairs(self):
        s = StateVector(np.array([1j, 0.0]))
        assert state_payload(s) == {"n": 2, "c": [[0.0, 1.0], [0.0, 0.0]]}

    def test_report_payload_schema(self, torus_system, plus_state):
        payload = report_payload(controllability_report(torus_system, plus_state))
        assert payload["verdict"] == "RESTRICTED"
        assert payload["algebra_dim"] == 1
        assert payload["orbit_dim"] == 1
        assert payload["sphere_dim"] == 3
        assert payload["conserved_moduli"] == [[0], [1]]
        assert payload["algebra_class"]["label"] == "ABELIAN"
        assert isinstance(payload["summary"], str)

    def test_trajectory_payload_reports_energy_only_for_pure_drift(self, su2_system, basis_state):
        drift_only = propagate(su2_system, basis_state, ControlSchedule.constant(0.0, 2.0))
        driven = propagate(su2_system, basis_state, ControlSchedule.constant(1.0, 2.0))
        p0 = trajectory_payload(drift_only, su2_system, ControlSchedule.constant(0.0, 2.0))
        p1 = trajectory_payload(driven, su2_system, ControlSchedule.constant(1.0, 2.0))
        assert p0["max_hamiltonian_drift"] is not None
        assert p0["max_hamiltonian_drift"] <= 1e-9
        assert p1["max_hamiltonian_drift"] is None
        assert p0["max_norm_drift"] <= 1e-10
        assert p0["final_time"] == pytest.approx(2.0)

    def test_energy_drift_ignores_norm_drift(self, su2_system, basis_state):
        # Each sample's energy is that of the normalized state, so norm drift
        # (reported on its own) does not show up as energy drift.
        sched = ControlSchedule.constant(0.0, 2.0, 4)
        traj = propagate(su2_system, basis_state, sched)
        scaled = Trajectory(traj.times, traj.states * np.linspace(1.0, 1.001, traj.times.size)[:, None])
        payload = trajectory_payload(scaled, su2_system, sched)
        assert payload["max_norm_drift"] > 1e-3
        assert payload["max_hamiltonian_drift"] <= 1e-12

    def test_certificate_payload(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        cert = steer(su2_system, basis_state, target, SteeringConfig(restarts=2, max_iterations=60))
        payload = certificate_payload(cert)
        assert set(payload) == {"schedule", "achieved_distance", "converged",
                                "iterations_used", "restart_index", "stop_reason"}
        assert payload["stop_reason"] == cert.stop_reason
        assert len(payload["schedule"]["segments"]) == 20

    def test_recurrence_payload_absence(self):
        payload = recurrence_payload(None, 0.05, 10.0, 1e-3)
        assert payload["found"] is False
        assert payload["return_time"] is None

    def test_verification_payload_verdicts(self, su2_system, basis_state):
        target = StateVector(np.array([0.0, 1.0], dtype=complex))
        good = steer(su2_system, basis_state, target, SteeringConfig(restarts=2, max_iterations=120))
        assert good.converged
        table = verification_payload([target], [good])
        assert table["verdict"] == "PASS"
        assert table["n_converged"] == 1
        assert table["samples"][0]["stop_reason"] == "converged"
        bad = steer(su2_system, basis_state, target, SteeringConfig(restarts=1, max_iterations=1,
                                                                    target_distance=1e-12))
        table = verification_payload([target, target], [good, bad])
        assert table["verdict"] == "FAIL"
        assert table["samples"][1]["converged"] is False
        assert table["samples"][1]["stop_reason"] == bad.stop_reason == "max_iterations"


class TestRender:
    def test_round_trip_byte_identical(self, torus_system, plus_state):
        payload = report_payload(controllability_report(torus_system, plus_state))
        text = render(payload)
        assert render(json.loads(text)) == text
        assert text.endswith("\n")

    def test_keys_sorted(self):
        assert render({"b": 1, "a": 2}).index('"a"') < render({"b": 1, "a": 2}).index('"b"')

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_raises(self, value):
        with pytest.raises(ValueError, match="^the result holds NaN or infinity: the computation overflowed"):
            render({"result": {"b": [1.0, [2.0, value]], "a": None}})


class TestInputsDigest:
    def test_deterministic_and_order_sensitive(self, su2_files):
        sys_bytes, state_bytes = (read_input(path) for path in su2_files)
        d1 = inputs_digest([sys_bytes, state_bytes])
        d2 = inputs_digest([sys_bytes, state_bytes])
        d3 = inputs_digest([state_bytes, sys_bytes])
        assert d1 == d2
        assert d1 != d3
        assert len(d1) == 64

    def test_content_sensitive(self, su2_files, tmp_path):
        sys_path, state_path = su2_files
        before = inputs_digest([read_input(sys_path), read_input(state_path)])
        save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), state_path)
        assert inputs_digest([read_input(sys_path), read_input(state_path)]) != before
