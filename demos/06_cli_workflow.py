"""
The command-line workflow, end to end
=====================================

Everything the library does is reachable from the `reachctl` command line
through JSON files on disk.  This script builds the input files for the
standard two-level system, then walks the subcommands: analyze, simulate,
steer, and verify.  It runs the command line as `python -m reachctl.cli`,
which works from a source checkout as well as from an installed package.  Reports are deterministic: rerunning a command with the
same inputs and seed reproduces the output byte for byte.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from reachctl import ControlSchedule, ControlSystem, StateVector
from reachctl.fileio import save_schedule, save_state, save_system


def reachctl(*args):
    proc = subprocess.run([sys.executable, "-m", "reachctl.cli", *args], capture_output=True, text=True)
    print(f"$ reachctl {' '.join(args)}   (exit {proc.returncode})")
    if proc.stderr:
        print(proc.stderr.strip())
    return proc


work = Path(tempfile.mkdtemp(prefix="reachctl-demo-"))
print(f"working in {work}\n")

# Input files: complex numbers are stored as [re, im] pairs throughout.
A = np.array([[1j, 0], [0, -1j]])
B = np.array([[0, 1j], [1j, 0]])
save_system(ControlSystem(A, B), work / "system.json")
save_state(StateVector(np.array([1.0, 0.0], dtype=complex)), work / "up.json")
save_state(StateVector(np.array([0.0, 1.0], dtype=complex)), work / "down.json")
save_schedule(ControlSchedule.constant(0.5, 4.0, 8), work / "controls.json")

# analyze: algebra dimension, orbit dimension, verdict.
proc = reachctl("analyze", "--system", str(work / "system.json"),
                "--state", str(work / "up.json"))
result = json.loads(proc.stdout)["result"]
print(f"  verdict: {result['verdict']}, algebra dim {result['algebra_dim']}\n")

# simulate: run a schedule, report conservation diagnostics.
proc = reachctl("simulate", "--system", str(work / "system.json"),
                "--state", str(work / "up.json"),
                "--controls", str(work / "controls.json"))
result = json.loads(proc.stdout)["result"]
print(f"  final time {result['final_time']}, norm drift {result['max_norm_drift']:.1e}\n")

# steer: synthesize a control taking "up" to "down"; exit 0 means converged.
proc = reachctl("steer", "--system", str(work / "system.json"),
                "--from", str(work / "up.json"), "--to", str(work / "down.json"),
                "--restarts", "4", "--out", str(work / "cert.json"))
cert = json.loads((work / "cert.json").read_text())["result"]
print(f"  converged: {cert['converged']}, distance {cert['achieved_distance']:.1e}\n")

# verify: steer to sampled orbit points; PASS means every sample was reached.
proc = reachctl("verify", "--system", str(work / "system.json"),
                "--state", str(work / "up.json"),
                "--samples", "5", "--word-length", "4",
                "--out", str(work / "verify.json"))
verdict = json.loads((work / "verify.json").read_text())["result"]["verdict"]
print(f"  verdict: {verdict}\n")

# Determinism: a second verify run with the same inputs is byte-identical.
reachctl("verify", "--system", str(work / "system.json"),
         "--state", str(work / "up.json"),
         "--samples", "5", "--word-length", "4",
         "--out", str(work / "verify2.json"))
same = (work / "verify.json").read_bytes() == (work / "verify2.json").read_bytes()
print(f"  repeated run byte-identical: {same}")
