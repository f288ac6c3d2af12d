"""
Reachability without compactness
================================

When A = diag(i, i sqrt(2)) and B = 2A, the generated group is a
non-compact line winding densely around a torus.  The classical closure
argument for "reachable set = orbit" breaks here, but the conclusion
survives: the recurrence of the drift substitutes for compactness.  The
orbit through c0 = (1,1)/sqrt(2) is a one-dimensional curve, every point of
it can be hit exactly, and nothing off it can even be approached beyond an
a-priori floor.
"""

import numpy as np

from reachctl import (
    ControlSystem,
    StateVector,
    SteeringConfig,
    conserved_moduli,
    controllability_report,
    matrix_exp,
    moduli_distance_bound,
    steer,
)

A = np.diag([1j, 1j * np.sqrt(2.0)])
sys = ControlSystem(A, 2.0 * A)
c0 = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))

report = controllability_report(sys, c0)
print(f"algebra dimension: {report.algebra_dim}")
print(f"orbit dimension:   {report.orbit_dim} (sphere has {2 * sys.n - 1})")
print(f"verdict:           {report.verdict.value}")
print(f"conserved moduli blocks: {conserved_moduli(sys)}")
print(report.summary)
print()

# Backward along the orbit: the target exp(-5A) c0 needs eps = -1 held for
# five time units.  The optimizer has no access to that closed form and
# still finds a schedule reaching it to 1e-8.
target_back = StateVector(matrix_exp(A, -5.0) @ c0.c)
cfg = SteeringConfig(segments=20, horizon=5.0, restarts=12,
                     max_iterations=300, target_distance=1e-8, seed=0)
cert = steer(sys, c0, target_back, cfg)
print(f"backward-orbit target: converged={cert.converged}, "
      f"distance {cert.achieved_distance:.2e} (restart {cert.restart_index})")

# Off the orbit: (1, 0) has different moduli (|c_1|, |c_2|) than c0, and
# those moduli are conserved by every admissible control.  The floor they
# put under every reachable distance is known before any optimization, so
# steer proves the target off the orbit and runs no restart: its
# certificate is the zero schedule, which stays above the floor.
target_off = StateVector(np.array([1.0, 0.0], dtype=complex))
bound = moduli_distance_bound(sys, c0, target_off)
cert_off = steer(sys, c0, target_off, SteeringConfig(restarts=4, max_iterations=200))
print(f"moduli-violating target: converged={cert_off.converged}, "
      f"stop reason {cert_off.stop_reason}, {cert_off.iterations_used} iterations")
print(f"  a-priori floor:           {bound:.15f}")
print(f"  zero schedule's distance: {cert_off.achieved_distance:.15f}")
