"""Benchmark of gotd: one workload per route to the optimality direction.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

A round is the workload's fixed set of instances for ``--seed``
(``Workload.instances`` of them).  ``--trace 0`` (end-to-end): warm up,
set the round up ``Workload.setups`` times (``setup_s`` is the median),
then solve the round again and again until ``--seconds`` have passed
(``solve_s`` is the median round).  Every solve of an instance is one
operation, and every solve is checked.  Times are scaled to the host
speed measured by ``HostSpeed`` in the same run.

``--trace 1`` (per layer): one traced set-up of the round, then three
solves of it: untraced, traced, and under ``tracemalloc``.  The traced
and untraced traces must agree outside ``time_s``.

Other outputs (environment block, per-round figures, spans, traces) go
to ``perfbench/results/``.
"""

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

# the program under test is this checkout's src/gotd, never an installed copy
sys.path.insert(0, str(SRC))
try:
    import gotd
except ImportError as exc:
    sys.exit(f"cannot import gotd from {SRC}: {exc}")
if SRC not in Path(gotd.__file__).resolve().parents:
    sys.exit(f"gotd was imported from {gotd.__file__}, not from {SRC}")

import numpy as np
from gotd import algorithm

import checks
import workloads
from tracer import Tracer, layer_metrics


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields[:8])


def environment(cpu_before):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu_after = cpu_times()
    steal = None
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        steal = (cpu_after[0] - cpu_before[0]) / (cpu_after[1] - cpu_before[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "steal_share": steal,
    }


class HostSpeed:
    """A fixed numpy kernel, timed next to the measured work.

    The speed of a shared host drifts by 15% and more over minutes, and a
    fixed numpy kernel slows down together with the solves: over 20 s
    windows, raw solve times ranged over 30% while their ratios to this
    kernel's time ranged over 8%.  Every end-to-end time is therefore
    scaled to a kernel time of ``REFERENCE_S``, the kernel's time on a
    quiet host, through the median of the kernel's times taken before and
    after the set-ups and after every solve.  The raw wall times are kept
    in the detail line.
    """

    REFERENCE_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((1000, 1200))
        self._u = np.linalg.qr(rng.standard_normal((1000, 5)))[0]
        self._v = np.linalg.qr(rng.standard_normal((1200, 5)))[0]
        self._s = rng.standard_normal((1024, 10))
        self._h = rng.standard_normal((1024, 1024))
        self.samples = []

    def sample(self):
        """Time the kernel once: thin products on a dense matrix, then
        small-array work like a compressed-modes step."""
        t0 = time.perf_counter()
        for _ in range(8):
            self._u @ (self._u.T @ self._a) + (self._a @ self._v) @ self._v.T
        for _ in range(100):
            x = np.where(self._s > 0.0, self._s, 0.0)
            np.linalg.eigh(x.T @ x)
            self._h @ x
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from this run's wall times to reference-kernel times."""
        return self.REFERENCE_S / statistics.median(self.samples)


def iteration_ms(outs):
    """Wall time of each iteration of each solve, from the traces
    (trace_every = 1)."""
    found = []
    for out in outs:
        stamps = [r.wall_seconds for r in out.result.trace]
        found += [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
    return found


def warm_up(workload, seed):
    """Touch numpy, LAPACK and every code path of the workload on a small
    instance, so that no first-call cost lands in a timed region."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((300, 240))
    np.linalg.svd(A, full_matrices=False)
    np.linalg.qr(A)
    np.linalg.eigh(A.T @ A)
    for inst in workload.build_round(seed, small=True):
        workloads.solve(inst)


class Run:
    """Operation counts and failure messages of one benchmark run.

    An operation is one solve: ``gotd_run`` plus the polish.  A set-up
    that raises ends the benchmark run with a traceback instead.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def solve(self, label, inst, tracer=None):
        """One operation; an exception or an aborted run counts as failed."""
        self.attempted += 1
        try:
            out = workloads.solve(inst, tracer)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if out.result.status is algorithm.RunStatus.ABORTED:
            print(f"{label}: aborted: {out.result.reason}", file=sys.stderr)
            self.failed += 1
            return None
        return out

    def solve_round(self, insts, label, tracer=None):
        """Solve every instance of a round; None marks a failed solve."""
        return [self.solve(f"{label} {j}", inst, tracer) for j, inst in enumerate(insts)]

    def require(self, label, found):
        for msg in found:
            print(f"{label}: {msg}", file=sys.stderr)
        self.wrong += [f"{label}: {msg}" for msg in found]


def round_trace(outs):
    """The trace records of a round's solves, one after the other."""
    return [rec for out in outs for rec in out.result.trace]


def end_to_end(workload, seed, seconds, run):
    speed = HostSpeed()
    speed.sample()
    raw_setup_s, reference, insts = [], None, None
    for i in range(workload.setups):
        insts = None  # every set-up starts from the same memory state
        t0 = time.perf_counter()
        insts = workload.build_round(seed)
        raw_setup_s.append(time.perf_counter() - t0)
        arrays = [a for inst in insts for a in workloads.instance_arrays(inst)]
        if reference is None:
            reference = arrays
        elif not all(map(np.array_equal, reference, arrays)):
            run.require(f"setup {i}", ["set-up is not deterministic"])
    speed.sample()

    raw_solve_s, raw_iter_ms, iters, rows = [], [], None, None
    t_start = time.perf_counter()
    while True:
        label = f"round {len(raw_solve_s)}"
        outs = []
        for j, inst in enumerate(insts):
            outs.append(run.solve(f"{label} {j}", inst))
            speed.sample()
        if None not in outs:
            raw_solve_s.append(sum(out.seconds for out in outs))
            raw_iter_ms += iteration_ms(outs)
            for inst, out in zip(insts, outs):
                run.require(label, workloads.failures(workload, inst, out))
            round_rows = workloads.trace_rows(round_trace(outs))
            if rows is None:
                rows, iters = round_rows, sum(out.result.iterations for out in outs)
            elif round_rows != rows:
                run.require(label, ["trace differs from the first round's"])
        if time.perf_counter() - t_start >= seconds:
            break
    if not raw_solve_s:
        return {}, {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    scale = speed.scale()
    metrics = {
        "setup_s": (scale * statistics.median(raw_setup_s), "s"),
        "solve_s": (scale * statistics.median(raw_solve_s), "s"),
        "iter_ms_p50": (scale * statistics.median(raw_iter_ms), "ms"),
        "iters": (iters, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {"raw_setup_s": raw_setup_s, "raw_solve_s": raw_solve_s,
              "raw_iter_ms_p50": statistics.median(raw_iter_ms),
              "kernel_s": speed.samples, "scale": scale, "iter_samples": len(raw_iter_ms)}
    return metrics, detail


def per_layer(workload, seed, run, name):
    tracer = Tracer()
    tracer.install()
    try:
        insts = workload.build_round(seed)
    finally:
        tracer.uninstall()

    plain = run.solve_round(insts, "untraced solve")
    tracer.install()
    try:
        traced = run.solve_round(insts, "traced solve", tracer)
        if None not in traced:
            tracer.phase = "write"
            algorithm.write_trace_csv(round_trace(traced), RESULTS / f"{name}-traced.csv")
    finally:
        tracer.uninstall()
    tracemalloc.start()
    try:
        alloc = run.solve_round(insts, "tracemalloc solve")
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if None in plain + traced + alloc:
        return {}, {}

    algorithm.write_trace_csv(round_trace(plain), RESULTS / f"{name}-untraced.csv")
    for label, outs in (("untraced solve", plain), ("traced solve", traced)):
        for inst, out in zip(insts, outs):
            run.require(label, workloads.failures(workload, inst, out))
    run.require("traces", checks.trace_failures(
        (RESULTS / f"{name}-untraced.csv").read_text().splitlines(),
        (RESULTS / f"{name}-traced.csv").read_text().splitlines(),
    ))
    tracer.write_csv(RESULTS / f"{name}-spans.csv")

    plain_p50 = statistics.median(iteration_ms(plain))
    traced_p50 = statistics.median(iteration_ms(traced))
    metrics = layer_metrics(tracer.spans, sum(out.result.iterations for out in traced))
    metrics["solve.alloc_peak_mb"] = (alloc_peak / 1e6, "MB")
    metrics["trace.overhead_ms"] = (traced_p50 - plain_p50, "ms")
    detail = {"untraced_iter_ms_p50": plain_p50, "traced_iter_ms_p50": traced_p50,
              "spans": len(tracer.spans)}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed
    name = f"{workload.name}-seed{seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)

    cpu_before = cpu_times()
    warm_up(workload, seed)
    run = Run()
    if args.trace:
        metrics, detail = per_layer(workload, seed, run, name)
    else:
        metrics, detail = end_to_end(workload, seed, args.seconds, run)
    env = environment(cpu_before)

    report = {
        "correct": not run.wrong and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(report, workload=workload.name, seed=seed, env=env,
                  detail=detail, wrong=run.wrong)
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
