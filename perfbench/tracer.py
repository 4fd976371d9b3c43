"""Spans around calls into gotd, recorded from outside the package.

``Tracer.install`` swaps every public function of the traced modules for
a timing wrapper at *every* ``gotd`` module attribute that holds it,
found by identity, so re-exports and ``from .x import y`` copies (for
example ``fastproj.pcg`` or ``algorithm.pinv_apply``) are caught, and a
call that a later change moves to another module is still seen.  The
manifold and constraint contract methods and ``FactoredPoint.dense`` are
wrapped on their classes, which also covers projector closures built
inside ``problems``.  ``uninstall`` puts the originals back, so untraced
passes run the program untouched.

Spans stay in memory as tuples and are written out by ``write_csv``.
"""

import csv
import functools
import importlib
import inspect
import statistics
import time

TRACED_MODULES = (
    "problems", "constraints", "manifolds", "algorithm",
    "fastproj", "solvers", "feasibility", "cli",
)
CONTRACT_METHODS = {
    "FixedRankManifold": ("tangent_project", "retract", "project"),
    "SparsityManifold": ("tangent_project", "retract", "project"),
    "FactoredPoint": ("dense",),
    "ObliqueConstraint": ("value", "dh", "dh_adjoint", "gram_solve", "project"),
    "HyperboloidConstraint": ("value", "dh", "dh_adjoint", "gram_solve", "project"),
    "StiefelConstraint": ("value", "dh", "dh_adjoint", "gram_solve", "project"),
}
# the objectives and gradients of all three problems are one layer each
ALIASES = {
    f"problems.{p}_{kind}": f"problems.{layer}"
    for p in ("sphere", "hyperbolic", "modes")
    for kind, layer in (("objective", "f"), ("grad", "grad_f"))
}


def _note(name, result):
    """A count carried by a span: bytes built, or solver sweeps."""
    if name == "manifolds.dense":
        return result.nbytes
    if name == "solvers.pcg":
        return result.iters
    if name == "feasibility.alternating_projections":
        return result.iters
    return None


class Tracer:
    """Records (name, phase, parent, start, end, self, note) per call."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._swapped = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]  # span index, time in child spans
            tracer.spans.append(None)
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                note = None if result is None else _note(name, result)
                tracer.spans[frame[0]] = (
                    name, tracer.phase, parent, start, end, end - start - frame[1], note
                )
            return result

        return traced

    def install(self):
        modules = [importlib.import_module("gotd")]
        modules += [importlib.import_module(f"gotd.{m}") for m in TRACED_MODULES]
        replace = {}
        for short, module in zip(TRACED_MODULES, modules[1:]):
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue  # imported here; wrapped where it is defined
                if inspect.isfunction(value):
                    name = f"{short}.{attr}"
                    replace[id(value)] = (value, self._wrap(ALIASES.get(name, name), value))
                elif inspect.isclass(value) and attr in CONTRACT_METHODS:
                    for method in CONTRACT_METHODS[attr]:
                        original = value.__dict__[method]
                        self._swapped.append((value, method, original))
                        setattr(value, method, self._wrap(f"{short}.{method}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._swapped.append((module, attr, value))
                    setattr(module, attr, replace[id(value)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._swapped):
            setattr(owner, attr, original)
        self._swapped = []

    def write_csv(self, path):
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "phase", "name", "start_s", "end_s", "self_s", "note"])
            for i, (name, phase, parent, start, end, self_s, note) in enumerate(self.spans):
                out.writerow([i, parent, phase, name, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", f"{self_s:.9f}",
                              "" if note is None else note])


# (metric, unit, phase, span name, statistic).  Solve-phase figures are per
# gotd_run iteration; set-up, polish and write figures are per run.
LAYERS = [
    ("manifolds.tangent_project.self_ms", "ms/iter", "solve", "manifolds.tangent_project", "self"),
    ("manifolds.retract.self_ms", "ms/iter", "solve", "manifolds.retract", "self"),
    ("manifolds.dense.self_ms", "ms/iter", "solve", "manifolds.dense", "self"),
    ("manifolds.tangent_project.calls", "calls/iter", "solve", "manifolds.tangent_project", "calls"),
    ("manifolds.dense.calls", "calls/iter", "solve", "manifolds.dense", "calls"),
    ("manifolds.dense.mb", "MB/iter", "solve", "manifolds.dense", "mb"),
    ("problems.f.self_ms", "ms/iter", "solve", "problems.f", "self"),
    ("problems.grad_f.self_ms", "ms/iter", "solve", "problems.grad_f", "self"),
    ("constraints.value.self_ms", "ms/iter", "solve", "constraints.value", "self"),
    ("constraints.dh.self_ms", "ms/iter", "solve", "constraints.dh", "self"),
    ("constraints.dh_adjoint.self_ms", "ms/iter", "solve", "constraints.dh_adjoint", "self"),
    ("constraints.gram_solve.self_ms", "ms/iter", "solve", "constraints.gram_solve", "self"),
    ("constraints.dh.calls", "calls/iter", "solve", "constraints.dh", "calls"),
    ("constraints.dh_adjoint.calls", "calls/iter", "solve", "constraints.dh_adjoint", "calls"),
    ("algorithm.feasibility_direction.total_ms", "ms/iter", "solve", "algorithm.feasibility_direction", "total"),
    ("algorithm.optimality_direction.total_ms", "ms/iter", "solve", "algorithm.optimality_direction", "total"),
    ("algorithm.tangent_intersection_project.self_ms", "ms/iter", "solve", "algorithm.tangent_intersection_project", "self"),
    ("algorithm.gotd_run.self_ms", "ms/iter", "solve", "algorithm.gotd_run", "self"),
    ("fastproj.build_workspace.self_ms", "ms/iter", "solve", "fastproj.build_workspace", "self"),
    ("fastproj.project_hyperboloid_lowrank.self_ms", "ms/iter", "solve", "fastproj.project_hyperboloid_lowrank", "self"),
    ("fastproj.apply_reduced_gram.self_ms", "ms/iter", "solve", "fastproj.apply_reduced_gram", "self"),
    ("solvers.pcg.self_ms", "ms/iter", "solve", "solvers.pcg", "self"),
    ("solvers.pcg.iters_p50", "count", "solve", "solvers.pcg", "note_p50"),
    ("solvers.pcg.iters_max", "count", "solve", "solvers.pcg", "note_max"),
    ("solvers.pinv_apply.self_ms", "ms/iter", "solve", "solvers.pinv_apply", "self"),
    ("solvers.sym_sylvester_solve.self_ms", "ms/iter", "solve", "solvers.sym_sylvester_solve", "self"),
    ("solvers.truncated_svd.setup_ms", "ms", "setup", "solvers.truncated_svd", "total"),
    ("manifolds.project.setup_ms", "ms", "setup", "manifolds.project", "total"),
    ("feasibility.alternating_projections.total_ms", "ms", "polish", "feasibility.alternating_projections", "total"),
    ("feasibility.sweeps", "count", "polish", "feasibility.alternating_projections", "note_max"),
    ("constraints.project.self_ms", "ms", "polish", "constraints.project", "self"),
    ("algorithm.write_trace_csv.total_ms", "ms", "write", "algorithm.write_trace_csv", "total"),
]


def layer_metrics(spans, iterations):
    """Per-layer figures from the spans of one traced set-up and solve.

    A layer that does not run on a workload reads 0.
    """
    per = {}
    for name, phase, _, start, end, self_s, note in spans:
        entry = per.setdefault((phase, name), [0, 0.0, 0.0, []])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
        if note is not None:
            entry[3].append(note)
    out = {}
    for metric, unit, phase, name, stat in LAYERS:
        calls, total, self_s, notes = per.get((phase, name), (0, 0.0, 0.0, []))
        scale = 1.0 / max(iterations, 1) if phase == "solve" else 1.0
        value = {
            "self": 1e3 * self_s * scale,
            "total": 1e3 * total * scale,
            "calls": calls * scale,
            "mb": sum(notes) / 1e6 * scale,
            "note_p50": statistics.median(notes) if notes else 0,
            "note_max": max(notes) if notes else 0,
        }[stat]
        out[metric] = (value, unit)
    return out
