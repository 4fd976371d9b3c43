"""Command-line benchmark runner.

Grammar::

    gotd <experiment> [--key value]... [--config path]

with experiments ``sphere``, ``hyperbolic`` and ``modes``.  Values from a
flat key=value config file (one pair per line, ``#`` comments) fill in
anything not given as a flag; flags win.  Each run writes a CSV trace and
prints a one-line summary on stdout.  Exit codes: 0 converged, 2 budget
exhausted, 1 aborted or bad usage.
"""

import argparse
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .algorithm import GotdConfig, RunStatus, gotd_run, write_trace_csv
from .errors import GotdError, UsageError
from .feasibility import alternating_projections
from .problems import (
    gen_hyperbolic_data,
    gen_modes_problem,
    gen_sphere_data,
    init_hyperbolic,
    init_modes,
    init_sphere,
    make_hyperbolic_problem,
    make_modes_problem,
    make_sphere_problem,
)

MAP_TOL = 1e-10
MAP_MAX_ITER = 100


@dataclass
class RunConfig:
    """One experiment invocation, fully resolved."""

    experiment: str
    # problem parameters (per experiment; unused ones stay None)
    m: Optional[int] = None
    n: Optional[int] = None
    r: Optional[int] = None
    os: Optional[float] = None
    r_true: Optional[int] = None
    tail: Optional[float] = None
    p: Optional[int] = None
    L: Optional[float] = None
    rho: Optional[float] = None
    # run parameters
    alpha: float = 1.0
    beta: Optional[float] = None
    tol: float = 1e-10
    max_iter: Optional[int] = None
    trace_every: int = 1
    seed: int = 0
    out: Optional[str] = None
    postprocess_map: bool = False

    def validate(self):
        if self.alpha <= 0:
            raise UsageError("alpha must be positive")
        if self.beta is not None and self.beta <= 0:
            raise UsageError("beta must be positive")
        if self.tol < 0:
            raise UsageError("tol must be nonnegative")
        if self.max_iter is not None and self.max_iter < 1:
            raise UsageError("max-iter must be at least 1")
        if self.trace_every < 1:
            raise UsageError("trace-every must be at least 1")
        required = {
            "sphere": ("m", "n", "r", "os"),
            "hyperbolic": ("n", "m", "r_true", "r"),
            "modes": ("n", "p", "L", "rho"),
        }[self.experiment]
        for key in required:
            if getattr(self, key) is None:
                raise UsageError(f"missing parameter --{key.replace('_', '-')}")
            if not getattr(self, key) > 0:
                raise UsageError(f"parameter {key} must be positive")


_DEFAULTS = {
    "sphere": {"beta": 10.0, "max_iter": 2000},
    "hyperbolic": {"beta": 0.2, "max_iter": 2000, "tail": 0.3},
    "modes": {"max_iter": 5000},  # beta defaults to L^2 / (4 n^2)
}


def _build(config: RunConfig):
    """Instantiate (problem, x0, beta) for a resolved RunConfig."""
    if config.experiment == "sphere":
        data = gen_sphere_data(config.m, config.n, config.r, config.os, config.seed)
        problem = make_sphere_problem(data)
        x0 = init_sphere(data, config.seed)
        beta = config.beta
    elif config.experiment == "hyperbolic":
        data = gen_hyperbolic_data(
            config.n, config.m, config.r_true, config.seed, config.tail
        )
        problem = make_hyperbolic_problem(data, config.r)
        x0 = init_hyperbolic(data, config.r)
        f0 = problem.f(x0)
        problem.extra_metric = lambda X: problem.f(X) / f0
        beta = config.beta
    else:
        data = gen_modes_problem(config.n, config.p, config.L, config.rho)
        problem = make_modes_problem(data)
        x0 = init_modes(data, config.seed)
        beta = config.beta if config.beta is not None else data.beta_default
    return problem, x0, beta


def run_experiment(config: RunConfig) -> int:
    """Build the problem, run the iteration, write the trace, print the
    summary.  Returns the process exit code."""
    config.validate()
    problem, x0, beta = _build(config)
    run_cfg = GotdConfig(
        alpha=config.alpha,
        beta=beta,
        max_iter=config.max_iter,
        tol=config.tol,
        trace_every=config.trace_every,
    )
    result = gotd_run(problem, x0, run_cfg)

    out_path = config.out or f"gotd_{config.experiment}_seed{config.seed}.csv"
    write_trace_csv(result.trace, out_path)

    last = result.trace[-1] if result.trace else None
    extra = "" if last is None or last.extra_metric is None else f"{last.extra_metric:.6e}"
    summary = (
        f"experiment={config.experiment} status={result.status.value} "
        f"iters={last.iteration if last else 0} "
        f"time_s={last.wall_seconds if last else 0.0:.3f} "
        f"f={last.f_value if last else float('nan'):.6e} "
        f"feas={last.feas_norm if last else float('nan'):.6e} "
        f"extra={extra}"
    )
    if config.postprocess_map and result.status is not RunStatus.ABORTED:
        mapped = alternating_projections(
            problem.manifold,
            problem.constraint,
            result.point,
            tol=MAP_TOL,
            max_iter=MAP_MAX_ITER,
        )
        summary += f" map_feas={mapped.feas_norm:.6e} map_iters={mapped.iters}"
    print(summary)
    if result.status is RunStatus.ABORTED:
        print(f"aborted: {result.reason}", file=sys.stderr)
        return 1
    return 0 if result.status is RunStatus.CONVERGED else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser):
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    parser.add_argument("--trace-every", dest="trace_every", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seeds", type=str, default=None, metavar="A..B",
                        help="run seeds A through B sequentially")
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--config", type=str, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="gotd", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)

    sp = sub.add_parser("sphere", help="low-rank fit of unit-norm rows")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--r", type=int, default=None)
    sp.add_argument("--os", type=float, default=None)
    _add_common(sp)

    hy = sub.add_parser("hyperbolic", help="low-rank hyperbolic embedding fit")
    hy.add_argument("--n", type=int, default=None)
    hy.add_argument("--m", type=int, default=None)
    hy.add_argument("--r-true", dest="r_true", type=int, default=None)
    hy.add_argument("--r", type=int, default=None)
    hy.add_argument("--tail", type=float, default=None)
    hy.add_argument("--postprocess-map", dest="postprocess_map",
                    action="store_true", default=None)
    _add_common(hy)

    mo = sub.add_parser("modes", help="compressed modes")
    mo.add_argument("--n", type=int, default=None)
    mo.add_argument("--p", type=int, default=None)
    mo.add_argument("--L", type=float, default=None)
    mo.add_argument("--rho", type=float, default=None)
    _add_common(mo)
    return parser


def _read_config_file(path) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


_FIELD_KEYS = {f.name for f in fields(RunConfig)}
_INT_KEYS = {"m", "n", "r", "r_true", "p", "max_iter", "trace_every", "seed"}
_FLOAT_KEYS = {"os", "tail", "L", "rho", "alpha", "beta", "tol"}
_BOOL_KEYS = {"postprocess_map"}


def _coerce(key: str, val: str):
    if key in _INT_KEYS:
        return int(val)
    if key in _FLOAT_KEYS:
        return float(val)
    if key in _BOOL_KEYS:
        if val.lower() in ("1", "true", "yes", "on"):
            return True
        if val.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"cannot parse boolean {key}={val}")
    return val


def parse_config(argv) -> tuple:
    """Resolve argv (+ optional config file) into a RunConfig and the
    optional seed range.  Precedence: flags > config file > defaults."""
    args = build_parser().parse_args(argv)
    experiment = args.experiment
    merged = dict(_DEFAULTS[experiment])
    if args.config is not None:
        for key, val in _read_config_file(args.config).items():
            if key not in _FIELD_KEYS or key == "experiment":
                raise UsageError(f"unknown config key: {key}")
            merged[key] = _coerce(key, val)
    for key in _FIELD_KEYS:
        if key == "experiment":
            continue
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    merged.setdefault("postprocess_map", False)
    config = RunConfig(experiment=experiment, **merged)

    seeds = None
    if args.seeds is not None:
        try:
            a, b = args.seeds.split("..")
            seeds = range(int(a), int(b) + 1)
        except ValueError as exc:
            raise UsageError(f"cannot parse --seeds {args.seeds!r}") from exc
    return config, seeds


def main(argv=None) -> int:
    try:
        config, seeds = parse_config(sys.argv[1:] if argv is None else argv)
        if seeds is None:
            return run_experiment(config)
        worst = 0
        base_out = config.out
        for seed in seeds:
            config.seed = seed
            config.out = (
                f"{base_out.rsplit('.', 1)[0]}_seed{seed}.csv" if base_out else None
            )
            worst = max(worst, run_experiment(config))
        return worst
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except GotdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
