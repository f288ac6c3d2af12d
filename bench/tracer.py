"""Outside-in tracing of reachctl's modules for the per-layer metrics.

The tracer replaces, for the duration of one pass, every binding of each
traced public function: in its defining module and in every ``reachctl``
module that imported it by name.  Each call then records a span (name,
start, end, parent span, job id) in memory.  The numpy/scipy kernels the
package reaches (``numpy.linalg.eigh``, ``numpy.linalg.svd``,
``scipy.linalg.expm``) are counted rather than spanned.  No source file of
the package changes, and the bindings are restored when the pass ends.

Self time of a span is its duration minus the time its child spans cover.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function name) -> span name.  Several public functions of fileio
# share one span name, so their calls and self time are summed.
TRACED = {
    ("reachctl.cli", "run"): "cli.run",
    ("reachctl.fileio", "load_system"): "fileio.load",
    ("reachctl.fileio", "load_state"): "fileio.load",
    ("reachctl.fileio", "load_schedule"): "fileio.load",
    ("reachctl.fileio", "report_payload"): "fileio.payload",
    ("reachctl.fileio", "trajectory_payload"): "fileio.payload",
    ("reachctl.fileio", "certificate_payload"): "fileio.payload",
    ("reachctl.fileio", "recurrence_payload"): "fileio.payload",
    ("reachctl.fileio", "verification_payload"): "fileio.payload",
    ("reachctl.fileio", "schedule_payload"): "fileio.payload",
    ("reachctl.fileio", "render"): "fileio.render",
    ("reachctl.fileio", "inputs_digest"): "fileio.digest",
    ("reachctl.lie", "closure"): "lie.closure",
    ("reachctl.lie", "classify"): "lie.classify",
    ("reachctl.matrices", "bracket"): "lie.bracket",
    ("reachctl.matrices", "frobenius_inner"): "lie.frobenius_inner",
    ("reachctl.orbit", "controllability_report"): "orbit.controllability_report",
    ("reachctl.orbit", "tangent_dimension"): "orbit.tangent_dimension",
    ("reachctl.orbit", "commuting_frame"): "orbit.commuting_frame",
    ("reachctl.orbit", "sample_orbit"): "orbit.sample_orbit",
    ("reachctl.dynamics", "propagate"): "dynamics.propagate",
    ("reachctl.dynamics", "recurrence_scan"): "dynamics.recurrence_scan",
    ("reachctl.dynamics", "diagonalize_drift"): "dynamics.diagonalize_drift",
    ("reachctl.dynamics", "drift_hamiltonian"): "dynamics.drift_hamiltonian",
    ("reachctl.steering", "steer"): "steering.steer",
    ("reachctl.steering", "verify_reachability"): "steering.verify_reachability",
    ("reachctl.steering", "gradient"): "steering.gradient",
    ("reachctl.matrices", "skew_eigensystem"): "matrices.skew_eigensystem",
    ("reachctl.matrices", "matrix_exp"): "matrices.matrix_exp",
    ("reachctl.matrices", "square_matrix"): "matrices.square_matrix",
}
SPAN_NAMES = sorted(set(TRACED.values()))

# (module, attribute) -> kernel counter name.
KERNELS = {
    ("numpy.linalg", "eigh"): "eigh",
    ("numpy.linalg", "svd"): "svd",
    ("scipy.linalg", "expm"): "expm",
}


class Tracer:
    """Spans and kernel counts for the passes run between ``install`` and ``remove``."""

    def __init__(self):
        self.name_index = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.spans = []  # (name index, start, end, parent span, job id)
        self.stack = []  # open span ids
        self.job = -1
        self.steer_depth = 0
        self.kernel_calls = defaultdict(int)
        self.eigh_matrices = 0
        self.eigh_matrices_in_steer = 0
        self.segments_propagated = 0
        self.closure_admitted = 0
        self.certificates = []  # (converged, iterations_used) of every steer call
        self._saved = []
        self._observers = {
            "dynamics.propagate": self._on_propagate,
            "lie.closure": self._on_closure,
            "steering.steer": self._on_steer,
        }

    def _span(self, name, fn):
        index = self.name_index[name]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        observe = self._observers.get(name)
        is_steer = name == "steering.steer"

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if is_steer:
                self.steer_depth += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_steer:
                    self.steer_depth -= 1
                spans[sid] = (index, start, end, parent, self.job)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _kernel(self, name, fn):
        def counted(*args, **kwargs):
            self.kernel_calls[name] += 1
            if name == "eigh":
                a = args[0] if args else kwargs["a"]
                count = int(np.prod(np.shape(a)[:-2], dtype=np.int64))
                self.eigh_matrices += count
                if self.steer_depth:
                    self.eigh_matrices_in_steer += count
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _on_propagate(self, args, kwargs, out):
        sched = args[2] if len(args) > 2 else kwargs["sched"]
        self.segments_propagated += int(sched.n_segments)

    def _on_closure(self, args, kwargs, out):
        # Elements admitted from brackets, as opposed to seed generators.
        self.closure_admitted += sum(1 for w in out.provenance if w.startswith("["))

    def _on_steer(self, args, kwargs, out):
        self.certificates.append((bool(out.converged), int(out.iterations_used)))

    def install(self):
        replacements = {}
        for (mod, attr), name in TRACED.items():
            original = getattr(sys.modules[mod], attr)
            replacements[id(original)] = (original, self._span(name, original))
        for (mod, attr), name in KERNELS.items():
            original = getattr(sys.modules[mod], attr)
            replacements[id(original)] = (original, self._kernel(name, original))
        targets = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "reachctl" or key.startswith("reachctl."))]
        targets += [sys.modules[mod] for mod, _ in KERNELS]
        for module in targets:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def remove(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def span_arrays(self) -> dict:
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "names": np.array(SPAN_NAMES),
            "name": rows[:, 0].astype(np.int32),
            "start": rows[:, 1],
            "end": rows[:, 2],
            "parent": rows[:, 3].astype(np.int64),
            "job": rows[:, 4].astype(np.int32),
        }

    def layer_metrics(self) -> dict:
        """Calls and self time per span name, plus the layer counters and ratios."""
        a = self.span_arrays()
        size = len(SPAN_NAMES)
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                              minlength=len(duration))
        self_time = np.bincount(a["name"], weights=duration - covered, minlength=size)
        calls = np.bincount(a["name"], minlength=size)

        m = {}
        for k, name in enumerate(SPAN_NAMES):
            m[f"{name}.calls"] = int(calls[k])
            m[f"{name}.self_s"] = float(self_time[k])

        idx = self.name_index
        closure_spans = np.nonzero(a["name"] == idx["lie.closure"])[0]
        brackets_in_closure = int(np.sum(np.isin(a["parent"], closure_spans) & (a["name"] == idx["lie.bracket"])))
        gradients = m["steering.gradient.calls"]
        steers = len(self.certificates)

        m["matrices.eigh.calls"] = self.kernel_calls["eigh"]
        m["matrices.eigh.matrices"] = self.eigh_matrices
        m["matrices.svd.calls"] = self.kernel_calls["svd"]
        m["matrices.expm_fallback.calls"] = self.kernel_calls["expm"]
        m["steering.iterations"] = gradients
        m["steering.eigh_matrices_per_iteration"] = self.eigh_matrices_in_steer / gradients if gradients else 0.0
        m["steering.converged_ratio"] = sum(c for c, _ in self.certificates) / steers if steers else 0.0
        m["steering.winner_iteration_share"] = (
            sum(i for _, i in self.certificates) / gradients if gradients else 0.0)
        m["lie.admit_ratio"] = self.closure_admitted / brackets_in_closure if brackets_in_closure else 0.0
        m["dynamics.segments_propagated"] = self.segments_propagated
        return m
