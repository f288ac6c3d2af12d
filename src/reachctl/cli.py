"""Command-line interface: analyze, simulate, steer, recurrence, verify.

Every subcommand reads JSON input files, runs the corresponding library
routine, and writes a single JSON report ``{"command", "inputs_digest",
"result", "tool_version"}`` to ``--out`` (standard output by default).  Exit
codes: 0 on success or a PASS verdict, 1 on any validation error or when
memory runs out, 2 when verify reports FAIL or steer fails to converge.  All
randomness flows from explicit seeds, so identical inputs and flags reproduce
reports byte for byte.
"""

import argparse
import functools
import sys as _sys

import numpy as np

from . import __version__
from .dynamics import propagate, recurrence_scan
from .fileio import (
    certificate_payload,
    inputs_digest,
    load_schedule,
    load_state,
    load_system,
    read_input,
    recurrence_payload,
    render,
    report_payload,
    trajectory_payload,
    verification_payload,
    write_in_place,
)
from .orbit import controllability_report
from .steering import SteeringConfig, steer, verify_reachability

__all__ = ["run", "main"]


@functools.cache  # built on the first run, not at import, and reused by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachctl",
        description=(
            "Controllability toolkit for bilinear systems c' = A c + B c eps(t) "
            "with skew-Hermitian A, B: Lie-algebra analysis, exact simulation, "
            "drift recurrence scans, and optimizer-backed reachability checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", required=True, help="system file {n, A, B}")
        p.add_argument("--out", default=None, help="report path (default: stdout)")

    p = sub.add_parser("analyze", help="controllability report for a system and state")
    common(p)
    p.add_argument("--state", required=True, help="state file {n, c}")

    p = sub.add_parser("simulate", help="propagate a state under a control schedule")
    common(p)
    p.add_argument("--state", required=True, help="state file {n, c}")
    p.add_argument("--controls", required=True, help="controls file {segments}")
    p.add_argument("--samples-per-segment", type=int, default=10, dest="samples_per_segment")

    p = sub.add_parser("steer", help="synthesize a control toward a target state")
    common(p)
    p.add_argument("--from", required=True, dest="from_state", help="initial state file")
    p.add_argument("--to", required=True, dest="to_state", help="target state file")
    p.add_argument("--segments", type=int, default=SteeringConfig.segments)
    p.add_argument("--horizon", type=float, default=SteeringConfig.horizon)
    p.add_argument("--restarts", type=int, default=SteeringConfig.restarts)
    p.add_argument("--seed", type=int, default=SteeringConfig.seed)
    p.add_argument("--target-distance", type=float, default=SteeringConfig.target_distance, dest="target_distance")
    p.add_argument("--projective", action="store_true", help="optimize the phase-insensitive overlap distance")

    p = sub.add_parser("recurrence", help="first drift-flow return time into a tol-ball")
    common(p)
    p.add_argument("--state", required=True, help="state file {n, c}")
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--tmax", type=float, required=True, dest="t_max")
    p.add_argument("--dt", type=float, default=1e-3)

    p = sub.add_parser("verify", help="sample orbit targets and steer to each")
    common(p)
    p.add_argument("--state", required=True, help="state file {n, c}")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--word-length", type=int, default=6, dest="word_length")
    p.add_argument("--seed", type=int, default=7)

    return parser


def _emit(report: dict, out: str | None) -> None:
    text = render(report)
    if out is None:
        _sys.stdout.write(text)
    else:
        try:
            write_in_place(out, text)
        except OSError as exc:
            raise ValueError(f"{out}: cannot write report ({exc.strerror or exc})") from exc


def _load(system_path, *state_paths, controls=None) -> tuple:
    """``(digest, system, *states[, schedule])``, every state's dimension checked against the system's once.

    Each file is read once, so the digest covers exactly the bytes that were parsed.
    """
    blobs = []

    def read(path):
        blobs.append(read_input(path))
        return blobs[-1]

    sys_ = load_system(system_path, read(system_path))
    states = [load_state(path, read(path)) for path in state_paths]
    for path, s in zip(state_paths, states):
        if s.n != sys_.n:
            raise ValueError(f"{path}: field 'n': {s.n} does not match the dimension {sys_.n} "
                             f"of system {system_path}")
    schedule = [] if controls is None else [load_schedule(controls, read(controls))]
    return (inputs_digest(blobs), sys_, *states, *schedule)


@np.errstate(over="ignore", invalid="ignore")
def run(argv) -> int:
    """Parse ``argv``, execute one subcommand, and write its report.

    Returns the process exit code instead of raising, so it can be embedded
    and tested without touching the interpreter's exit machinery.  Floating
    point overflow raises no numpy warning: ``propagate`` names the segment
    whose flow overflowed, ``steer`` the ``--horizon`` and ``--segments`` that
    did, and a NaN left in any other result is rejected by ``render``; the
    diagnostic is then the one line on stderr.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1

    try:
        if args.command == "analyze":
            digest, sys_, s0 = _load(args.system, args.state)
            result = report_payload(controllability_report(sys_, s0))
            exit_code = 0
        elif args.command == "simulate":
            digest, sys_, s0, sched = _load(args.system, args.state, controls=args.controls)
            try:
                traj = propagate(sys_, s0, sched, samples_per_segment=args.samples_per_segment)
            except ValueError as exc:
                # A diagnostic that names a segment is about the controls file; one about
                # --samples-per-segment is about a flag and keeps its own wording.
                if not str(exc).startswith("segment "):
                    raise
                raise ValueError(f"{args.controls}: field 'segments': {exc}") from exc
            result = trajectory_payload(traj, sys_, sched)
            exit_code = 0
        elif args.command == "steer":
            digest, sys_, s0, target = _load(args.system, args.from_state, args.to_state)
            cfg = SteeringConfig(
                segments=args.segments,
                horizon=args.horizon,
                restarts=args.restarts,
                target_distance=args.target_distance,
                seed=args.seed,
                phase_sensitive=not args.projective,
            )
            cert = steer(sys_, s0, target, cfg)
            if not np.isfinite(cert.achieved_distance):
                # Every restart (or an off-orbit target's zero schedule) overflowed: the flags set the segment
                # duration, the schedule is not to blame.
                raise ValueError(f"--horizon {cfg.horizon!r} / --segments {cfg.segments}: the flow over "
                                 f"segments of duration {cfg.horizon / cfg.segments!r} overflows double precision")
            result = certificate_payload(cert)
            exit_code = 0 if cert.converged else 2
        elif args.command == "recurrence":
            digest, sys_, s0 = _load(args.system, args.state)
            rt = recurrence_scan(sys_, s0, tol=args.tol, t_max=args.t_max, dt=args.dt)
            result = recurrence_payload(rt, args.tol, args.t_max, args.dt)
            exit_code = 0
        else:
            digest, sys_, s0 = _load(args.system, args.state)
            targets, certs = verify_reachability(
                sys_,
                s0,
                samples=args.samples,
                word_length=args.word_length,
                seed=args.seed,
            )
            result = verification_payload(targets, certs)
            exit_code = 0 if result["verdict"] == "PASS" else 2
        report = {
            "command": args.command,
            "inputs_digest": digest,
            "result": result,
            "tool_version": __version__,
        }
        _emit(report, args.out)
    except ValueError as exc:
        _sys.stderr.write(f"reachctl {args.command}: error: {exc}\n")
        return 1
    except MemoryError as exc:
        _sys.stderr.write(f"reachctl {args.command}: error: out of memory ({exc or 'allocation failed'})\n")
        return 1
    return exit_code


def main() -> None:
    _sys.exit(run(_sys.argv[1:]))


if __name__ == "__main__":
    main()
