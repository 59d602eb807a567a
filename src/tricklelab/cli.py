"""Command-line front end: analytics, exact laws, simulation, comparisons.

Everything emits machine-readable CSV (default) or JSON; figures are
reproduced as plot-ready data files rather than images.  All commands are
deterministic given their flags and seed.

Exit codes: 0 success, 2 flag validation, 3 engine error, 4 I/O failure.
"""

from __future__ import annotations

import argparse
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
    ks_distance,
    monte_carlo,
)

EXIT_ENGINE_ERROR = 3
EXIT_IO_ERROR = 4

GF_DP_TOL = 1e-9


class EngineMismatchError(RuntimeError):
    """Transform-route output disagrees with the dynamic-programming oracle."""


def _parse_tau(text: str) -> float:
    if text.strip().lower() in ("inf", "infinite", "infinity"):
        return math.inf
    return float(text)


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
    costs = []
    if args.command in ("exact", "gf"):
        costs.append(gf.dp_cost(args.R, args.n))
    if args.command == "gf":
        costs.append(gf.transform_cost(args.R, args.n))
    if args.command in ("analyze", "compare", "sweep-eta"):
        costs.append(analytics.solve_cost(args.R))
    if args.command == "sweep-eta":
        # a grid point's row list, JSON dict and text take about 1.3 kB
        costs.append((0, 160 * args.steps))
    if costs:
        work, cells = map(sum, zip(*costs))
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


# --- dataset emission ---------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit(dataset: dict, output_format: str, out_path: str | None) -> None:
    """Write a dataset as CSV (header + rows) or JSON with stable key order.

    `dataset` carries `columns` plus either `rows` of values or `lines` of
    already formatted CSV rows for tabular output, and `json` for the JSON
    rendering.
    """
    if output_format == "json":
        text = json.dumps(dataset["json"], indent=2) + "\n"
    else:
        lines = [",".join(dataset["columns"])]
        if "lines" in dataset:
            lines.extend(dataset["lines"])
        else:
            lines.extend(",".join(_fmt(v) for v in row) for row in dataset["rows"])
        text = "\n".join(lines) + "\n"
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO_ERROR)


# --- commands -----------------------------------------------------------------


def _cmd_analyze(args) -> dict:
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
    payload = dict(scalars)
    payload["Z"] = stats.Z.tolist()
    payload["M"] = stats.M.tolist()
    return {
        "columns": list(scalars),
        "rows": [list(scalars.values())],
        "json": payload,
    }


def _pmf_dataset(args, pmf, mean, variance, dp_pmf=None) -> dict:
    columns = ["m", "probability"] + (["dp_probability"] if dp_pmf is not None else [])
    rows = []
    for m, p in enumerate(pmf):
        row = [m, float(p)]
        if dp_pmf is not None:
            row.append(float(dp_pmf[m]))
        rows.append(row)
    payload = {
        "n": args.n,
        "R": args.R,
        "eta": args.eta,
        "mean": mean,
        "variance": variance,
        "pmf": [float(p) for p in pmf],
    }
    return {"columns": columns, "rows": rows, "json": payload}


def _cmd_exact(args) -> dict:
    pmf, mean, variance = gf.exact_law_dp(args.R, args.eta, args.n)
    return _pmf_dataset(args, pmf, mean, variance)


def _cmd_gf(args) -> dict:
    pmf = gf.hop_pmf_gf(args.R, args.n)
    moments = gf.delay_moments_gf(args.R, args.eta, args.n)
    mean = moments[0]
    variance = moments[1] - moments[0] ** 2
    dp_pmf, dp_mean, dp_var = gf.exact_law_dp(args.R, args.eta, args.n)
    if len(pmf) != len(dp_pmf):
        raise EngineMismatchError(f"the generating-function pmf has {len(pmf)} "
                                  f"entries and the DP oracle's {len(dp_pmf)}")
    pmf_err = float(np.max(np.abs(pmf - dp_pmf)))
    mean_err = abs(mean - dp_mean) / dp_mean
    # relative to the variance, but no finer than 1e-4 of E[T^2]: below that
    # both variances are cancellation noise of E[T^2] - E[T]^2
    var_err = abs(variance - dp_var) / max(dp_var, 1e-4 * moments[1])
    if pmf_err > GF_DP_TOL or mean_err > GF_DP_TOL or var_err > GF_DP_TOL:
        raise EngineMismatchError(
            f"generating-function results drifted from the DP oracle: "
            f"pmf {pmf_err:.3e}, mean {mean_err:.3e}, variance {var_err:.3e}"
        )
    return _pmf_dataset(args, pmf, mean, variance, dp_pmf=dp_pmf)


def _run_samples(args):
    params = TrickleParams(k=args.k, tau_h=args.tau_h, eta=args.eta)
    topo = LineTopology(n=args.n, R=args.R)
    return monte_carlo(params, topo, args.reps, seed=args.seed, engine=args.engine)


def _cmd_simulate(args) -> dict:
    samples = _run_samples(args)
    h = samples.h_samples.tolist()
    t = samples.t_samples.tolist()
    payload = dict(samples.meta)
    payload["H"] = h
    payload["T"] = t
    lines = [f"{i},{hi},{ti!r}" for i, (hi, ti) in enumerate(zip(h, t))]
    return {"columns": ["rep", "H", "T"], "lines": lines, "json": payload}


def _cmd_compare(args) -> dict:
    samples = _run_samples(args)
    (mean_h, std_h), (mean_t, std_t) = analytics.normal_approx(args.R, args.eta, args.n)
    h = samples.h_samples.astype(float)
    t = samples.t_samples
    try:
        ks_t = ks_distance(t, (mean_t, std_t))
    except DegenerateInputError:
        ks_t = math.nan  # zero analytic spread (R = 1, eta = 1); null in JSON
    rows = [
        ["mean_H", float(h.mean()), mean_h],
        ["var_H", float(h.var(ddof=1)), std_h**2],
        ["mean_T", float(t.mean()), mean_t],
        ["var_T", float(t.var(ddof=1)), std_t**2],
        ["ks_T", ks_t, 0.0],
    ]
    payload = {
        "R": args.R, "n": args.n, "eta": args.eta, "k": args.k,
        "reps": args.reps, "seed": args.seed, "engine": args.engine,
        "table": [{"metric": m, "empirical": None if math.isnan(e) else e, "analytic": a}
                  for m, e, a in rows],
    }
    return {"columns": ["metric", "empirical", "analytic"], "rows": rows,
            "json": payload}


def _cmd_sweep_eta(args) -> dict:
    chain = analytics.solve_chain(args.R)  # one solve for the grid and the argmin
    grid = np.linspace(0.0, 1.0, args.steps)
    columns = (grid, analytics.delay_rate(args.R, grid), chain.sigma_T_sq(grid))
    rows = [row + ["grid"] for row in np.column_stack(columns).tolist()]
    eta_star, var_star = chain.argmin()
    rows.append([eta_star, analytics.delay_rate(args.R, eta_star), var_star, "argmin"])
    point = lambda r: {"eta": r[0], "delay_rate": r[1], "sigma_T_sq": r[2]}
    payload = {
        "R": args.R,
        "steps": args.steps,
        "grid": [point(r) for r in rows[:-1]],
        "argmin": point(rows[-1]),
    }
    return {"columns": ["eta", "delay_rate", "sigma_T_sq", "kind"], "rows": rows,
            "json": payload}


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
        dataset = _COMMANDS[args.command](args)
    except (NonTerminationError, gf.TruncationInsufficientError,
            EngineMismatchError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE_ERROR
    emit(dataset, args.output_format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
