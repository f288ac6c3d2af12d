"""
Synthesizing a steering control on a two-level system
=====================================================

For the controllable pair A = i sigma_z, B = i sigma_x, every unit state is
reachable from every other.  Here the claim is made constructive: steering
to a reachable target is a zero-residual least-squares problem, so
Levenberg-Marquardt steps on the endpoint residual and its exact Jacobian
over piecewise-constant control values produce an explicit schedule, in a few
iterations (accepted steps), and re-simulating that schedule checks the
certificate against the simulator it came from.
"""

import numpy as np

from reachctl import (
    ControlSystem,
    StateVector,
    SteeringConfig,
    distance,
    propagate,
    steer,
    verify_reachability,
)

A = np.array([[1j, 0], [0, -1j]])
B = np.array([[0, 1j], [1j, 0]])
sys = ControlSystem(A, B)

start = StateVector(np.array([1.0, 0.0], dtype=complex))
target = StateVector(np.array([0.6, 0.8j]))

cert = steer(sys, start, target, SteeringConfig(restarts=4, seed=0))
print(f"converged: {cert.converged} after {cert.iterations_used} iterations"
      f" (restart {cert.restart_index})")
print(f"achieved distance: {cert.achieved_distance:.2e}")

# The certificate is just a schedule; replaying it through the simulator
# must land on the target to the same tolerance.
final = propagate(sys, start, cert.schedule).final_state
print(f"replay distance:   {distance(final, target):.2e}")

print("schedule (duration, value):")
for duration, value in cert.schedule.segments:
    print(f"  {duration:.3f}  {value:+.4f}")

# The end-to-end check: sample points of the orbit through the start state
# (here, the whole sphere) and steer to each one.
targets, certs = verify_reachability(sys, start, samples=5, word_length=6, seed=7)
verdict = "PASS" if all(c.converged for c in certs) else "FAIL"
print(f"orbit samples steered: {sum(c.converged for c in certs)}/{len(certs)} -> {verdict}")
