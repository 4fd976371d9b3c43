"""Command-line benchmark runner.

Grammar::

    gotd <experiment> [--key value]... [--config path] [--seeds A..B]

with experiments ``sphere``, ``hyperbolic`` and ``modes``.  Their flags
are stated in ``EXPERIMENTS``; ``_build`` sets each one up, and
``run_experiment`` adds the hyperbolic trace's f / f0 column.  A config
file's ``key = value`` lines (``#`` comments; keys are flag names, with
``_`` or ``-``) are read as flags placed before the command line's, so
the same parser checks them and flags win.  Each run writes a CSV trace
and prints a one-line summary on stdout; under ``--seeds``, seed N writes
to ``--out`` without its extension, plus ``_seed<N>.csv``.  Exit codes:
0 converged, 2 budget exhausted, 1 aborted, bad usage or an unwritable
``--out``.
"""

import argparse
import os
import sys

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


# experiment -> (help, parameter types, defaults).  A parameter with neither
# a default nor type bool is required and must be positive.
EXPERIMENTS = {
    "sphere": (
        "low-rank fit of unit-norm rows",
        {"m": int, "n": int, "r": int, "os": float},
        {"beta": 10.0, "max_iter": 2000},
    ),
    "hyperbolic": (
        "low-rank hyperbolic embedding fit",
        {"n": int, "m": int, "r_true": int, "r": int, "tail": float,
         "postprocess_map": bool},
        {"beta": 0.2, "max_iter": 2000, "tail": 0.3},
    ),
    "modes": (
        "compressed modes",
        {"n": int, "p": int, "L": float, "rho": float},
        {"max_iter": 5000},  # beta defaults to L^2 / (4 n^2)
    ),
}


def _seed_range(text) -> range:
    """``A..B`` as the seeds A through B."""
    a, _, b = text.partition("..")
    try:
        seeds = range(int(a), int(b) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


# flags every experiment takes; their defaults are set in build_parser
RUN_FLAGS = {
    "alpha": float, "beta": float, "tol": float, "max_iter": int,
    "trace_every": int, "seed": int, "seeds": _seed_range, "out": str,
    "config": str,
}


def _build(config):
    """Instantiate (problem, x0, beta) for parsed flags."""
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
        beta = config.beta
    else:
        data = gen_modes_problem(config.n, config.p, config.L, config.rho)
        problem = make_modes_problem(data)
        x0 = init_modes(data, config.seed)
        beta = config.beta if config.beta is not None else data.beta_default
    return problem, x0, beta


def _gotd_config(config, beta) -> GotdConfig:
    try:
        return GotdConfig(alpha=config.alpha, beta=beta, max_iter=config.max_iter,
                          tol=config.tol, trace_every=config.trace_every)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def run_experiment(config) -> int:
    """Build the problem, run the iteration, write the trace, print the
    summary.  Returns the process exit code."""
    out_path = config.out or f"gotd_{config.experiment}_seed{config.seed}.csv"
    open(out_path, "a").close()  # an unwritable path fails here, not after the run
    problem, x0, beta = _build(config)
    result = gotd_run(problem, x0, _gotd_config(config, beta))
    if config.experiment == "hyperbolic":
        # the extra column is the objective ratio f / f0, from the traced f
        for rec in result.trace:
            rec.extra_metric = rec.f_value / result.trace[0].f_value
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
    if getattr(config, "postprocess_map", False) and result.status is not RunStatus.ABORTED:
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> _Parser:
    parser = _Parser(prog="gotd", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (help_text, params, defaults) in EXPERIMENTS.items():
        sp = sub.add_parser(name, help=help_text)
        for key, kind in {**params, **RUN_FLAGS}.items():
            if kind is bool:
                sp.add_argument(_flag(key), action="store_true")
            else:
                sp.add_argument(_flag(key), type=kind)
        sp.set_defaults(alpha=1.0, tol=1e-10, trace_every=1, seed=0, **defaults)
    return parser


def _config_flags(path, kinds) -> list:
    """The flags a ``key = value`` config file stands for; ``kinds`` maps
    each accepted key to its type."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        kind = kinds.get(key.replace("-", "_"))
        if kind is None:
            raise UsageError(f"unknown config key: {key}")
        if kind is not bool:
            flags.append(f"{_flag(key)}={val}")
        elif val.lower() in ("1", "true", "yes", "on"):
            flags.append(_flag(key))
        elif val.lower() not in ("0", "false", "no", "off"):
            raise UsageError(f"cannot parse boolean {key}={val}")
    return flags


def parse_config(argv) -> tuple:
    """Resolve argv (and the config file it names) into the parsed flags
    and the optional seed range, or raise UsageError.  Precedence: flags >
    config file > defaults."""
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    _, params, defaults = EXPERIMENTS[args.experiment]
    if args.config is not None:
        flags = _config_flags(args.config, {**params, **RUN_FLAGS})
        i = argv.index(args.experiment) + 1
        args = parser.parse_args(argv[:i] + flags + argv[i:])
    for key, kind in params.items():
        if kind is bool or key in defaults:
            continue
        if getattr(args, key) is None:
            raise UsageError(f"missing parameter {_flag(key)}")
        if not getattr(args, key) > 0:
            raise UsageError(f"parameter {key} must be positive")
    if args.seed < 0 or (args.seeds is not None and args.seeds.start < 0):
        raise UsageError("seeds must be nonnegative")
    # checks the run parameters; the modes default beta, L^2 / (4 n^2), is positive
    _gotd_config(args, 1.0 if args.beta is None else args.beta)
    return args, args.seeds


def main(argv=None) -> int:
    try:
        config, seeds = parse_config(sys.argv[1:] if argv is None else argv)
        if seeds is None:
            return run_experiment(config)
        worst = 0
        base_out = config.out
        for seed in seeds:
            config.seed = seed
            config.out = f"{os.path.splitext(base_out)[0]}_seed{seed}.csv" if base_out else None
            worst = max(worst, run_experiment(config))
        return worst
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GotdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
