"""reachctl benchmark: CLI workloads timed end to end, and a traced run per module.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload steer-verify --seed 1 --seconds 30 --trace 0

The benchmark imports ``reachctl`` from the checkout's ``src`` directory,
writes the workload's seeded inputs under ``.bench_work/``, and drives the
CLI entry point ``reachctl.cli.run(argv)`` in-process, one job at a time in a
closed loop.  One pass runs the workload's job list once; each job is timed
around ``cli.run``, so its time includes load, compute, render and report
write.  The first pass is the warm-up and reference: its reports are checked
against values known by construction, and every later pass must reproduce
its report bytes.

``--trace 0`` times untraced passes for ``--seconds`` and reports medians
over passes: ``pass_s``, the wall time of one pass, and per subcommand the
per-pass sum of its job times (``analyze_s``, ``steer_s``, ...).  A fixed
reference kernel (``reference_seconds``) is timed before every pass and
after the last; ``pass_over_ref`` divides each pass time by the mean of the
two reference times around it, which cancels most of the drift in host
speed that a shared machine shows from minute to minute, and is the pass
metric BENCHMARK.json gates.  ``setup_s`` is the median time a fresh
interpreter takes to import ``reachctl.cli``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``tracer``).  Either way the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the metrics BENCHMARK.json names; the indented JSON before it gives
every metric with its sample count and quartiles, the self-test of the
checker and the machine facts.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: the load is one process with no
# added threads, and on a small shared host an OpenBLAS worker waiting for a
# busy core slows a 32 x 32 eigh by more than 10x.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from checks import check, check_bytes, expected_for, self_test  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
SUBCOMMANDS = ("analyze", "simulate", "steer", "verify", "recurrence")

# Layer metric prefix -> the end-to-end metrics it should move, and on which
# workload.  Every per-subcommand time is part of pass_s and pass_over_ref.
PREDICTIONS = {
    "matrices": "steer_s, verify_s, certificates_per_s on steer-verify; simulate_s, segments_per_s on simulate-long",
    "steering": "steer_s, verify_s, certificates_per_s on steer-verify; zero calls on the other workloads",
    "lie": "analyze_s on analyze-recur",
    "orbit": "analyze_s on analyze-recur; verify_s a little on steer-verify",
    "dynamics.recurrence_scan": "recurrence_s on analyze-recur",
    "dynamics": "simulate_s, segments_per_s on simulate-long",
    "fileio": "simulate_s on simulate-long through the pure-drift job; negligible elsewhere",
    "cli": "pass_s and pass_over_ref on every workload",
    "trace": "nothing: it is the cost of tracing itself",
}


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def import_reachctl():
    if not (SRC / "reachctl" / "cli.py").is_file():
        fail(f"no reachctl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reachctl.cli

    if Path(reachctl.cli.__file__).resolve().parent != (SRC / "reachctl").resolve():
        fail(f"imported reachctl from {reachctl.cli.__file__}, not from {SRC}")
    return reachctl.cli


def time_setup(repeats: int) -> list:
    """Wall time for a fresh interpreter to import the CLI module, once per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import reachctl.cli"], env=env, cwd=ROOT, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def summary(values, unit: str) -> dict:
    """Median, quartiles and sample count; a higher percentile only with ten samples beyond it."""
    values = sorted(values)
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def machine_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import threadpoolctl  # noqa: F401

        live = "threadpoolctl is installed but not consulted"
    except ImportError:
        live = "unknown: threadpoolctl is not installed"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"] + " (set by the benchmark)",
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"] + " (set by the benchmark)",
        "blas_threads_live": live,
        "load": "one process, one job at a time (closed loop), no added threads",
    }


class Runner:
    """Runs passes of one workload's jobs and checks every report."""

    def __init__(self, cli, jobs, out_dir: Path):
        self.cli = cli
        self.jobs = jobs
        self.outs = [str(out_dir / f"report{i}.json") for i in range(len(jobs))]
        self.first_bytes, self.codes, self.reports, self.expected = [], [], [], []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, tracer=None) -> list:
        """Run every job once; returns the job times in seconds."""
        times = []
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            argv = job.argv + ["--out", self.outs[i]]
            start = time.perf_counter()
            code = self.cli.run(argv)
            times.append(time.perf_counter() - start)
            self._record(i, code)
        return times

    def _record(self, i: int, code: int) -> None:
        data = Path(self.outs[i]).read_bytes()
        self.attempted += 1
        if i == len(self.first_bytes):  # reference pass: full check
            self.first_bytes.append(data)
            self.codes.append(code)
            self.reports.append(json.loads(data))
            self.expected.append(expected_for(self.jobs[i]))
            problems = check(self.jobs[i], code, self.reports[i], self.expected[i])
        else:
            problems = check_bytes(self.first_bytes[i], data)
            if code != self.codes[i]:
                problems.append(f"exit {code}, first pass exited {self.codes[i]}")
        if problems:
            self.failed += 1
            self.problems.append(f"{self.jobs[i].name}: {'; '.join(problems)}")


def reference_seconds(rounds: int = 4500) -> float:
    """Wall time of a fixed mix of the kinds of work reachctl spends its time on.

    Each round does interpreter-bound small-matrix arithmetic with input
    coercion (as in closure), a 4 x 4 eigendecomposition applied to a state
    (as in the segment kernel), and every tenth round a 32 x 32 one.  Timed
    before and after every pass, it tracks how fast the host ran such work
    around that pass, so the pass time divided by it cancels most of the
    drift in host speed that shared machines show from minute to minute.
    """
    rng = np.random.default_rng(0)
    M4 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    M32 = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    H4, H32 = M4 + M4.conj().T, M32 + M32.conj().T
    X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    c = rng.normal(size=4) + 0j
    start = time.perf_counter()
    for k in range(rounds):
        Y = np.asarray(X, dtype=complex)
        if np.all(np.isfinite(Y.real)) and np.all(np.isfinite(Y.imag)):
            Y = Y - float(np.real(np.vdot(X, Y))) / 36.0 * X
        w, V = np.linalg.eigh(H4)
        c = V @ (np.exp(1j * w) * (V.conj().T @ c))
        if k % 10 == 0:
            np.linalg.eigh(H32)
    return time.perf_counter() - start


def run_passes(runner, seconds: float, traced: bool) -> dict:
    """Untraced (and, with ``traced``, alternating traced) passes for ``seconds``.

    Returns the untraced and traced job times per pass, the reference times
    taken before each untraced pass and after the last one, the layer
    metrics of each traced pass, and the spans of the first traced pass.
    """
    out = {"plain": [], "traced": [], "reference": [], "layers": [], "spans": None}
    start = time.perf_counter()
    while True:
        out["reference"].append(reference_seconds())
        out["plain"].append(runner.one_pass())
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                out["traced"].append(runner.one_pass(tracer))
            finally:
                tracer.remove()
            out["layers"].append(tracer.layer_metrics())
            if out["spans"] is None:
                out["spans"] = tracer.span_arrays()
        elapsed = time.perf_counter() - start
        rounds = len(out["plain"])
        if rounds >= 2 and elapsed * (rounds + 1) / rounds > seconds:
            break
    out["reference"].append(reference_seconds())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The default single steering worker is what gets measured.
    os.environ.pop("REACHCTL_THREADS", None)
    cli = import_reachctl()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        setup = [] if args.trace else time_setup(SETUP_REPEATS)
        jobs = build(work, args.seed)
        runner = Runner(cli, jobs, work)

        runner.one_pass()  # warm-up and reference pass: checked, not timed
        cases, missed = self_test(jobs, runner.codes, runner.reports, runner.expected, runner.first_bytes)
        passes = run_passes(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = passes["plain"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "job_median_s": {job.name: statistics.median(p[i] for p in plain) for i, job in enumerate(jobs)},
        "passes": len(plain),
        "self_test": {"corrupted_cases": cases, "not_rejected": missed},
        "problems": runner.problems,
        "machine": machine_facts(),
    }
    if args.trace:
        metrics = trace_metrics(passes["layers"], [sum(p) for p in plain], [sum(p) for p in passes["traced"]])
        np.savez_compressed(WORK / f"spans-{args.workload}.npz", **passes["spans"])
        detail["predictions"] = PREDICTIONS
    else:
        metrics = end_to_end_metrics(jobs, plain, passes["reference"], setup, runner)
    detail["metrics"] = metrics
    print(json.dumps(detail, indent=1, sort_keys=True))

    reported = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) was not measured")
        reported[m["name"]] = {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
    result = {
        "correct": runner.failed == 0 and not missed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(jobs, passes, reference, setup, runner) -> dict:
    m = {
        "setup_s": summary(setup, "s"),
        "pass_s": summary([sum(p) for p in passes], "s") | {"samples": [sum(p) for p in passes]},
        "reference_s": summary(reference, "s") | {"samples": reference},
        # Each pass over the mean of the two reference times around it.
        "pass_over_ref": summary([2.0 * sum(p) / (a + b) for p, a, b in zip(passes, reference, reference[1:])],
                                 "ratio"),
    }
    for sub in SUBCOMMANDS:
        idx = [i for i, job in enumerate(jobs) if job.command == sub]
        if idx:
            m[f"{sub}_s"] = summary([sum(p[i] for i in idx) for p in passes], "s")
    cert_jobs = [i for i, job in enumerate(jobs) if job.command in ("steer", "verify")]
    if cert_jobs:
        certs = 0
        for i in cert_jobs:
            r = runner.reports[i]["result"]
            certs += r["n_converged"] if jobs[i].command == "verify" else int(runner.codes[i] == 0)
        m["certificates_per_s"] = summary([certs / sum(p[i] for i in cert_jobs) for p in passes], "1/s")
    sim_jobs = [i for i, job in enumerate(jobs) if job.command == "simulate"]
    if sim_jobs:
        segments = sum(jobs[i].expect["segments"] for i in sim_jobs)
        m["segments_per_s"] = summary([segments / sum(p[i] for i in sim_jobs) for p in passes], "1/s")
    m["failed_ratio"] = {"value": runner.failed / runner.attempted, "unit": "ratio",
                         "n": runner.attempted}
    m["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB", "n": 1}
    return m


def trace_metrics(per_pass, plain_times, traced_times) -> dict:
    first = per_pass[0]
    m = {}
    for name, value in first.items():
        if name.endswith(".self_s"):
            m[name] = summary([p[name] for p in per_pass], "s")
        else:
            unit = "count" if isinstance(value, int) else "ratio"
            m[name] = {"value": value, "unit": unit, "n": len(per_pass),
                       "repeats_exactly": all(p[name] == value for p in per_pass)}
    m["trace.overhead_ratio"] = {
        "value": statistics.median(traced_times) / statistics.median(plain_times) - 1.0,
        "unit": "ratio", "n": len(traced_times)}
    return m


if __name__ == "__main__":
    sys.exit(main())
