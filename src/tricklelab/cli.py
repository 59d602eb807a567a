"""Command-line front end: analytics, exact laws, simulation, comparisons.

Everything emits machine-readable CSV (default) or JSON; figures are
reproduced as plot-ready data files rather than images.  All commands are
deterministic given their flags and seed.

Exit codes: 0 success, 2 flag validation, 3 engine error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import analytics, gf
from .core import TrickleParams
from .simulate import (
    DegenerateInputError,
    LineTopology,
    NonTerminationError,
    RENEWAL_BLOCK,
    ks_distance,
    monte_carlo,
)

EXIT_ENGINE_ERROR = 3
EXIT_IO_ERROR = 4

GF_DP_TOL = 1e-9

CSV_BLOCK = 1 << 14  # CSV rows or JSON array items formatted and written at a time


class EngineMismatchError(RuntimeError):
    """Transform-route output disagrees with the dynamic-programming oracle."""


def _parse_tau(text: str) -> float:
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return math.inf
    return float(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricklelab",
        description="Trickle propagation lab for line networks: closed-form "
        "analytics, exact finite-size laws, and protocol simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=False, reps=False, sim=False):
        p.add_argument("--R", type=int, required=True, help="transmission range")
        p.add_argument("--eta", type=float, default=0.5,
                       help="listen-only fraction at tau_l (default 0.5)")
        if n:
            p.add_argument("--n", type=int, required=True, help="target node index")
        if reps:
            p.add_argument("--reps", type=int, default=10000, help="replications")
            p.add_argument("--seed", type=int, default=None,
                           help="base seed (default: $TRICKLE_LAB_SEED or 0)")
        if sim:
            p.add_argument("--k", type=int, default=1, help="redundancy constant")
            p.add_argument("--tau-h", type=_parse_tau, default=math.inf,
                           dest="tau_h", metavar="TAU_H",
                           help="maximum interval size; 'inf' for unbounded")
            p.add_argument("--engine", choices=("protocol", "renewal"),
                           default="renewal",
                           help="full protocol event loop, or the equivalent "
                           "update-size-chain sampler (k=1, unbounded tau_h)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       dest="output_format", help="output format")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("analyze", help="asymptotic rates and variances")
    common(p)

    p = sub.add_parser("exact", help="exact hop pmf and delay moments (DP route)")
    common(p, n=True)

    p = sub.add_parser("gf", help="exact laws via generating functions, "
                       "cross-checked against the DP route")
    common(p, n=True)

    p = sub.add_parser("simulate", help="Monte Carlo propagation events")
    common(p, n=True, reps=True, sim=True)

    p = sub.add_parser("compare", help="empirical moments vs normal approximation")
    common(p, n=True, reps=True, sim=True)

    p = sub.add_parser("sweep-eta", help="delay rate and variance over an eta grid")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--steps", type=int, default=101,
                   help="output grid points on [0, 1] (the argmin is exact)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   dest="output_format")
    p.add_argument("--out", default=None)
    return parser


def _charges(args: argparse.Namespace) -> tuple[int, int]:
    """The (array element updates, floats of working arrays) that a query is
    charged: bounds on its work and on its memory's growth with its size."""
    costs = [(0, 0)]
    if args.command in ("exact", "gf"):
        costs.append(gf.dp_cost(args.R, args.n))
    if args.command == "gf":
        costs.append(gf.transform_cost(args.R, args.n))
    if args.command in ("analyze", "compare", "sweep-eta"):
        costs.append(analytics.solve_cost(args.R))
    if args.command == "sweep-eta":
        # a grid point takes 24-44 B of traced peak memory in either format
        # (its columns, and its record in JSON), charged 72 B
        costs.append((0, 9 * args.steps))
    if args.command in ("simulate", "compare"):
        # traced peak memory per replication at R = 5, n = 250: 16 B for
        # simulate in either format (the two sample arrays) and 80 B for compare
        costs.append((0, (10 if args.command == "compare" else 2) * args.reps))
        if args.engine == "protocol":
            # one event's node arrays, epochs, update times and queue: 357 B
            # of peak memory per node at R = 30, k = 1 (each broadcast adds
            # about 120 B, a count bounded only by the event's time)
            costs.append((0, 45 * (args.n + 1)))
        if args.engine == "renewal":
            # a lane-step takes 10-23 ns and a block's lockstep step 7-22 us,
            # by machine load: about 5 and 4000 updates
            blocks = -(-args.reps // RENEWAL_BLOCK)
            costs.append((gf.max_hops(args.R, args.n) * (5 * args.reps + 4000 * blocks), 0))
    return tuple(map(sum, zip(*costs)))


def _validate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if getattr(args, "R", 1) < 1:
        parser.error(f"--R must be >= 1, got {args.R}")
    if getattr(args, "n", 1) < 1:
        parser.error(f"--n must be >= 1, got {args.n}")
    eta = getattr(args, "eta", 0.0)
    if not 0.0 <= eta <= 1.0:
        parser.error(f"--eta must lie in [0, 1], got {eta}")
    if getattr(args, "reps", 1) < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    if "seed" in args and args.seed is None:  # fill in the default seed
        text = os.environ.get("TRICKLE_LAB_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            parser.error(f"TRICKLE_LAB_SEED must be an integer, got {text!r}")
    if getattr(args, "seed", 0) < 0:
        parser.error(f"the seed (--seed or TRICKLE_LAB_SEED) must be >= 0, got {args.seed}")
    if getattr(args, "k", 1) < 1:
        parser.error(f"--k must be >= 1, got {args.k}")
    if getattr(args, "steps", 2) < 2:
        parser.error(f"--steps must be >= 2, got {args.steps}")
    if args.command == "gf" and args.n > gf.TRANSFORM_MAX_N:
        parser.error(f"gf --n {args.n} is over the accuracy limit of {gf.TRANSFORM_MAX_N}: its "
                     "delay variance E[T^2] - E[T]^2 cancels as n grows; use exact")
    work, cells = _charges(args)
    if work > gf.MAX_WORK or cells > gf.MAX_CELLS:
        parser.error(f"this {args.command} query needs up to {work:.1e} array element "
                     f"updates and {cells:.1e} floats of working arrays, over the "
                     f"limits of {gf.MAX_WORK:.0e} and {gf.MAX_CELLS:.0e}")
    tau_h = getattr(args, "tau_h", math.inf)
    if not tau_h >= 1.0:  # tau_l is 1; also rejects NaN
        parser.error(f"--tau-h must be >= 1 (tau_l), got {tau_h}")
    if args.command == "compare" and args.reps < 2:
        parser.error(f"compare needs --reps >= 2 for sample variances, got {args.reps}")
    if args.command == "compare" and (args.k != 1 or args.tau_h != math.inf):
        parser.error("compare's analytic column is the k=1, unbounded-tau_h "
                     "normal approximation; use simulate for --k > 1 or finite --tau-h")
    if getattr(args, "engine", None) == "renewal":
        if args.k != 1:
            parser.error("the renewal engine models k=1; use --engine protocol")
        if args.tau_h != math.inf:
            parser.error("the renewal engine assumes unbounded tau_h; "
                         "use --engine protocol for finite --tau-h")


# --- output -------------------------------------------------------------------


def _cells(columns, lo: int) -> list:
    """The cells of rows lo .. lo + CSV_BLOCK - 1 of the columns in row-major
    order; an array's values become Python ints and floats."""
    cells = np.empty((min(CSV_BLOCK, len(columns[0]) - lo), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        cells[:, j] = column[lo:lo + CSV_BLOCK]
    return cells.ravel().tolist()


def _json_block(fields, lo: int, item: str, sep: str, plain: bool) -> str:
    """Items lo .. lo + CSV_BLOCK - 1 of the fields as _json_array writes them
    (a function of its own, so that a block's values are freed before the
    next block's are made)."""
    cells = _cells(fields, lo) if len(fields) > 1 else fields[0][lo:lo + CSV_BLOCK].ravel().tolist()
    if not (plain and math.isfinite(sum(cells))):
        cells = map(json.dumps, cells)  # NaN, Infinity, true: json's own text
    return sep.join([item] * min(CSV_BLOCK, len(fields[0]) - lo)) % tuple(cells)


def _layout(brackets: str, items: list[str]) -> str:
    """The item texts as json.dumps(indent=2) lays them out in brackets, as
    an item of an array that is a payload value."""
    if not items:
        return brackets
    return brackets[0] + "\n      " + ",\n      ".join(items) + "\n    " + brackets[1]


def _json_text(value) -> str:
    """json.dumps text of a payload value that is not an array: a container
    laid out by indent=2, one level in."""
    indent = 2 if isinstance(value, (dict, list, tuple)) else None  # None: json's C encoder
    return json.dumps(value, indent=indent).replace("\n", "\n  ")


def _json_array(write, array: np.ndarray) -> None:
    """Write the text of a numpy array's .tolist() as json.dumps(indent=2)
    writes it as a payload value, CSV_BLOCK items at a time; a structured
    array as a list of flat dicts keyed by its field names.

    An item is a value (1-D), a row (2-D) or a record, and a block is one %
    operation: the item template, with a %s per value, joined by the item
    separator once per item and applied to the block's values in row-major
    order.  %s is str(), which is json's float and int text for finite Python
    floats and ints; a block of bools, or whose values do not sum to a finite
    float (NaN, +-inf, or a sum past the float range), is written through
    json's own encoder, one value at a time.  Other arrays (empty, 0-D, 3-D
    and up, not numeric) are written whole by _json_text.
    """
    names = array.dtype.names
    fields = [array[name] for name in names] if names else [array]
    kinds = {field.dtype.kind for field in fields}
    if not (array.size and kinds <= set("biuf") and array.ndim in ((1,) if names else (1, 2))):
        write(_json_text(array.tolist()))
        return
    if names:
        item = _layout("{}", [json.dumps(name).replace("%", "%%") + ": %s" for name in names])
    else:
        item = "%s" if array.ndim == 1 else _layout("[]", ["%s"] * array.shape[1])
    sep = ",\n    "
    for lo in range(0, len(array), CSV_BLOCK):
        write(sep if lo else "[\n    ")
        write(_json_block(fields, lo, item, sep, "b" not in kinds))
    write("\n  ]")


def emit(result, out_path: str | None) -> None:
    """Write a command's result: a JSON payload (a dict), or a CSV
    (header, columns) pair, each written CSV_BLOCK rows or array items at a
    time as soon as they are formatted.

    JSON is byte for byte json.dumps(payload, indent=2) + "\\n" with each
    numpy array as its .tolist().  The payload is one flat object with string
    keys, its values written one at a time: an array by _json_array, anything
    else by _json_text (an array inside another value raises json's
    TypeError).  A CSV cell is str() of a Python int, float or string, and a
    block is one % operation: the row template "%s,...,%s\\n" repeated once
    per row, applied to the block's cells in row-major order.  numpy columns
    are converted block by block, so the text of one block at a time is held.
    """
    try:
        with (contextlib.nullcontext(sys.stdout) if out_path is None
              else open(out_path, "w", newline="")) as fh:
            if isinstance(result, dict):
                sep = "{\n  "
                for key, value in result.items():
                    fh.write(sep + json.dumps(key) + ": ")
                    if isinstance(value, np.ndarray):
                        _json_array(fh.write, value)
                    else:
                        fh.write(_json_text(value))
                    sep = ",\n  "
                fh.write("\n}\n" if result else "{}\n")
                return
            header, columns = result
            fh.write(",".join(header) + "\n")
            row = ",".join(["%s"] * len(columns)) + "\n"
            for lo in range(0, len(columns[0]), CSV_BLOCK):
                fh.write(row * min(CSV_BLOCK, len(columns[0]) - lo) % tuple(_cells(columns, lo)))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO_ERROR)


# --- commands -----------------------------------------------------------------
#
# A command returns only the rendering that --format asks for.


def _cmd_analyze(args):
    stats = analytics.asymptotic_stats(args.R, args.eta)
    scalars = {
        "R": args.R,
        "eta": args.eta,
        "mu_U": stats.mu_U,
        "mu_theta": stats.mu_theta,
        "hop_rate": analytics.hop_rate(args.R),
        "delay_rate": analytics.delay_rate(args.R, args.eta),
        "gamma_U_sq": stats.gamma_U_sq,
        "gamma_theta_sq": stats.gamma_theta_sq,
        "Delta": stats.Delta,
        "sigma_H_sq": stats.sigma_H_sq,
        "sigma_T_sq": stats.sigma_T_sq,
    }
    if args.output_format == "csv":
        return list(scalars), [[v] for v in scalars.values()]
    return {**scalars, "Z": stats.Z, "M": stats.M}


def _pmf_result(args, pmf, mean, variance, *dp_pmf):
    if args.output_format == "csv":
        header = ["m", "probability", "dp_probability"][:2 + len(dp_pmf)]
        return header, [range(len(pmf)), pmf, *dp_pmf]
    return {"n": args.n, "R": args.R, "eta": args.eta, "mean": mean,
            "variance": variance, "pmf": pmf}


def _cmd_exact(args):
    pmf, mean, variance = gf.exact_law_dp(args.R, args.eta, args.n)
    return _pmf_result(args, pmf, mean, variance)


def _cmd_gf(args):
    pmf = gf.hop_pmf_gf(args.R, args.n)
    mean, second = gf.delay_moments_gf(args.R, args.eta, args.n)
    variance = second - mean ** 2
    dp_pmf, dp_mean, dp_var = gf.exact_law_dp(args.R, args.eta, args.n)
    if len(pmf) != len(dp_pmf):
        raise EngineMismatchError(f"the generating-function pmf has {len(pmf)} "
                                  f"entries and the DP oracle's {len(dp_pmf)}")
    pmf_err = float(np.max(np.abs(pmf - dp_pmf)))
    mean_err = abs(mean - dp_mean) / dp_mean
    # relative to the variance, but no finer than 1e-4 of E[T^2]: below that
    # both variances are cancellation noise of E[T^2] - E[T]^2
    var_err = abs(variance - dp_var) / max(dp_var, 1e-4 * second)
    if pmf_err > GF_DP_TOL or mean_err > GF_DP_TOL or var_err > GF_DP_TOL:
        raise EngineMismatchError(
            f"generating-function results drifted from the DP oracle: "
            f"pmf {pmf_err:.3e}, mean {mean_err:.3e}, variance {var_err:.3e}"
        )
    return _pmf_result(args, pmf, mean, variance, dp_pmf)


def _run_samples(args):
    params = TrickleParams(k=args.k, tau_h=args.tau_h, eta=args.eta)
    topo = LineTopology(n=args.n, R=args.R)
    return monte_carlo(params, topo, args.reps, seed=args.seed, engine=args.engine)


def _cmd_simulate(args):
    samples = _run_samples(args)
    if args.output_format == "csv":
        return ["rep", "H", "T"], [range(args.reps), samples.h_samples, samples.t_samples]
    return {**samples.meta, "H": samples.h_samples, "T": samples.t_samples}


def _cmd_compare(args):
    samples = _run_samples(args)
    (mean_h, std_h), (mean_t, std_t) = analytics.normal_approx(args.R, args.eta, args.n)
    h = samples.h_samples.astype(float)
    t = samples.t_samples
    try:
        ks_t = ks_distance(t, (mean_t, std_t))
    except DegenerateInputError:
        ks_t = math.nan  # zero analytic spread (R = 1, eta = 1); null in JSON
    metrics = ["mean_H", "var_H", "mean_T", "var_T", "ks_T"]
    empirical = np.array([h.mean(), h.var(ddof=1), t.mean(), t.var(ddof=1), ks_t])
    analytic = np.array([mean_h, std_h**2, mean_t, std_t**2, 0.0])
    if args.output_format == "csv":
        return ["metric", "empirical", "analytic"], [metrics, empirical, analytic]
    return {
        "R": args.R, "n": args.n, "eta": args.eta, "k": args.k,
        "reps": args.reps, "seed": args.seed, "engine": args.engine,
        "table": [{"metric": m, "empirical": None if math.isnan(e) else e, "analytic": a}
                  for m, e, a in zip(metrics, empirical.tolist(), analytic.tolist())],
    }


def _cmd_sweep_eta(args):
    chain = analytics.solve_chain(args.R)  # one solve for the grid and the argmin
    eta = np.append(np.linspace(0.0, 1.0, args.steps), chain.argmin()[0])
    columns = [eta, analytics.delay_rate(args.R, eta), chain.sigma_T_sq(eta)]
    if args.output_format == "csv":
        return (["eta", "delay_rate", "sigma_T_sq", "kind"],
                [*columns, ["grid"] * args.steps + ["argmin"]])
    keys = ["eta", "delay_rate", "sigma_T_sq"]
    points = np.empty(args.steps + 1, dtype=[(key, float) for key in keys])  # one record a point
    for key, column in zip(keys, columns):
        points[key] = column
    return {"R": args.R, "steps": args.steps, "grid": points[:-1],
            "argmin": dict(zip(keys, points[-1].item()))}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "exact": _cmd_exact,
    "gf": _cmd_gf,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "sweep-eta": _cmd_sweep_eta,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        result = _COMMANDS[args.command](args)
    except (NonTerminationError, gf.TruncationInsufficientError,
            EngineMismatchError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE_ERROR
    emit(result, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
