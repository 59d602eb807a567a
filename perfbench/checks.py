"""Checks of every query's output against the reference law or a property.

Each check raises CheckError with a message naming what is wrong.  The
statistical checks compare a sample mean with the exact mean within Z_MEAN
standard errors, and a sample variance with the exact variance within Z_VAR
standard errors of the sample variance (from the exact fourth central
moment).  Their false-alarm rates are given in the README.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from reference import Law, exact_law, rate_slopes

Z_MEAN = 5.0
Z_VAR = 6.0
EXACT_TOL = 1e-9   # pmf entries (absolute), delay moments (relative)
RATE_TOL = 1e-8    # asymptotic rates against the slopes of exact moments (relative)
SLOPE_N = 800      # slopes are taken between SLOPE_N and 2 * SLOPE_N
SUPPORT_TOL = 1e-9  # rounding allowance on eta * H <= T <= H


class CheckError(AssertionError):
    """A query's output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def paper_model(p: dict) -> bool:
    """k = 1 and unbounded tau_h: the configuration the reference law describes."""
    return p.get("k", 1) == 1 and p.get("tau_h", math.inf) == math.inf


def close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


@functools.lru_cache(maxsize=None)
def law(R: int, n: int, eta: float) -> Law:
    return exact_law(R, n, eta)


# T = eta * H + (1 - eta) * S with (H, S) free of eta, so the law of H, the
# mean delay (linear in eta) and the delay variance (quadratic) at any eta
# follow from three etas by Lagrange interpolation, exact in exact arithmetic.
_ETA_NODES = (0.0, 0.5, 1.0)


def _at_eta(values: np.ndarray, eta: float) -> float:
    x = _ETA_NODES
    basis = [math.prod((eta - x[j]) / (x[i] - x[j]) for j in range(3) if j != i)
             for i in range(3)]
    return float(np.dot(basis, values))


@functools.lru_cache(maxsize=None)
def _slopes_at_nodes(R: int) -> dict[str, np.ndarray]:
    table = [rate_slopes(R, e, SLOPE_N) for e in _ETA_NODES]
    return {key: np.array([row[key] for row in table]) for key in table[0]}


def slopes(R: int, eta: float) -> dict[str, float]:
    """Reference rates at any eta."""
    return {key: _at_eta(values, eta) for key, values in _slopes_at_nodes(R).items()}


@functools.lru_cache(maxsize=None)
def _laws_at_nodes(R: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    laws = [exact_law(R, n, e, order=2) for e in _ETA_NODES]
    return (laws[0].hop_pmf, np.array([w.delay_mean for w in laws]),
            np.array([w.delay_var for w in laws]))


def exact_moments(R: int, n: int, eta: float) -> tuple[np.ndarray, float, float]:
    """Reference hop pmf, delay mean and delay variance at any eta."""
    pmf, means, variances = _laws_at_nodes(R, n)
    return pmf, _at_eta(means, eta), _at_eta(variances, eta)


# --- sample statistics --------------------------------------------------------


def check_mean_var(name: str, mean: float, var: float, count: int,
                   exact_mean: float, exact_var: float, exact_m4: float) -> None:
    """Sample mean and sample variance (ddof=1) of `count` draws against the law."""
    se_mean = math.sqrt(exact_var / count)
    require(abs(mean - exact_mean) <= Z_MEAN * se_mean,
            f"{name}: sample mean {mean!r} is {abs(mean - exact_mean) / se_mean:.1f} "
            f"standard errors from the exact {exact_mean!r}")
    var_of_var = exact_m4 / count - exact_var**2 * (count - 3) / (count * (count - 1))
    se_var = math.sqrt(max(var_of_var, 0.0))
    require(abs(var - exact_var) <= Z_VAR * se_var,
            f"{name}: sample variance {var!r} vs exact {exact_var!r} "
            f"(allowed {Z_VAR} x {se_var:.3g})")


def check_against_law(h: np.ndarray, t: np.ndarray, ref: Law) -> None:
    n = len(h)
    check_mean_var("H", float(h.mean()), float(h.var(ddof=1)), n,
                   ref.hop_mean, ref.hop_var, ref.hop_central(4))
    check_mean_var("T", float(t.mean()), float(t.var(ddof=1)), n,
                   ref.delay_mean, ref.delay_var, ref.delay_central(4))


def read_samples(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rep, H, T columns of a `simulate` CSV dump."""
    with open(path) as fh:
        header = fh.readline().strip()
        require(header == "rep,H,T", f"unexpected sample header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(data.shape[1] == 3, f"sample rows have {data.shape[1]} columns, not 3")
    return data[:, 0], data[:, 1], data[:, 2]


def check_samples(p: dict, rep: np.ndarray, h: np.ndarray, t: np.ndarray) -> None:
    """A `simulate` dump: every replication present and complete.

    In the paper's model (k = 1, unbounded tau_h) the samples must also follow
    the reference law: each holding time lies in [eta, 1], and the mean and
    variance of H and T must match the exact ones.
    """
    R, n, eta, reps = p["R"], p["n"], p["eta"], p["reps"]
    require(len(rep) == reps and np.array_equal(rep, np.arange(reps)),
            f"expected replications 0..{reps - 1}, got {len(rep)} rows")
    require(bool(np.all(np.isfinite(h)) and np.all(np.isfinite(t))), "non-finite sample")
    require(bool(np.all(h == np.round(h))), "non-integer hop count")
    require(bool(np.all(h >= math.ceil(n / R))), f"hop count below ceil(n/R) = {math.ceil(n / R)}")
    require(bool(np.all(t > 0.0)), "non-positive delay")
    if paper_model(p):
        require(bool(np.all(h <= n)), f"hop count above n = {n}")
        require(bool(np.all(t >= eta * h - SUPPORT_TOL * h)), "delay below eta * H")
        require(bool(np.all(t <= h + SUPPORT_TOL * h)), "delay above H")
        check_against_law(h, t, law(R, n, eta))


def check_compare(p: dict, payload: dict) -> float:
    """A `compare` table; returns the empirical mean delay."""
    R, n, eta, reps = p["R"], p["n"], p["eta"], p["reps"]
    rows = {row["metric"]: row for row in payload["table"]}
    require(set(rows) == {"mean_H", "var_H", "mean_T", "var_T", "ks_T"},
            f"unexpected compare rows {sorted(rows)}")
    ref = law(R, n, eta)
    emp = {key: rows[key]["empirical"] for key in rows}
    check_mean_var("H", emp["mean_H"], emp["var_H"], reps,
                   ref.hop_mean, ref.hop_var, ref.hop_central(4))
    check_mean_var("T", emp["mean_T"], emp["var_T"], reps,
                   ref.delay_mean, ref.delay_var, ref.delay_central(4))
    rate = slopes(R, eta)
    for key, rate_key in (("mean_H", "hop_rate"), ("var_H", "sigma_H_sq"),
                          ("mean_T", "delay_rate"), ("var_T", "sigma_T_sq")):
        require(close(rows[key]["analytic"], n * rate[rate_key], RATE_TOL),
                f"analytic {key} {rows[key]['analytic']!r} != n * {rate_key} "
                f"{n * rate[rate_key]!r}")
    ks = emp["ks_T"]
    require(1.0 / (2 * reps) <= ks <= 1.0, f"KS distance {ks!r} outside [1/(2N), 1]")
    return emp["mean_T"]


# --- exact and asymptotic laws ------------------------------------------------


def check_pmf_law(p: dict, payload: dict) -> None:
    """`gf` and `exact`: hop pmf and delay mean and variance at (R, n, eta)."""
    R, n, eta = p["R"], p["n"], p["eta"]
    require(payload["R"] == R and payload["n"] == n, "output is for another network")
    ref_pmf, ref_mean, ref_var = exact_moments(R, n, eta)
    pmf = np.asarray(payload["pmf"], dtype=float)
    width = max(len(pmf), len(ref_pmf))
    pad = lambda a: np.pad(a, (0, width - len(a)))
    err = float(np.max(np.abs(pad(pmf) - pad(ref_pmf))))
    require(err <= EXACT_TOL, f"hop pmf off the reference by {err:.3e}")
    require(abs(pmf.sum() - 1.0) <= EXACT_TOL, f"hop pmf sums to {pmf.sum()!r}")
    require(close(payload["mean"], ref_mean, EXACT_TOL),
            f"delay mean {payload['mean']!r} vs reference {ref_mean!r}")
    require(close(payload["variance"], ref_var, EXACT_TOL),
            f"delay variance {payload['variance']!r} vs reference {ref_var!r}")


def check_analyze(p: dict, payload: dict) -> None:
    ref = slopes(p["R"], p["eta"])
    for key, expected in ref.items():
        require(close(payload[key], expected, RATE_TOL),
                f"analyze {key} {payload[key]!r} vs exact-moment slope {expected!r}")


def check_sweep(p: dict, payload: dict) -> None:
    grid = payload["grid"]
    steps = p["steps"]
    require(len(grid) == steps, f"{len(grid)} grid points, expected {steps}")
    for i, point in enumerate(grid):
        require(close(point["eta"], i / (steps - 1), 1e-12), f"grid point {i} at eta {point['eta']!r}")
        ref = slopes(p["R"], point["eta"])
        for key in ("delay_rate", "sigma_T_sq"):
            require(close(point[key], ref[key], RATE_TOL),
                    f"sweep {key} at eta {point['eta']!r}: {point[key]!r} vs {ref[key]!r}")
    best = payload["argmin"]
    require(0.0 <= best["eta"] <= 1.0, f"argmin eta {best['eta']!r} outside [0, 1]")
    low = min(point["sigma_T_sq"] for point in grid)
    require(best["sigma_T_sq"] <= low * (1.0 + 1e-12),
            f"argmin sigma_T_sq {best['sigma_T_sq']!r} above the grid minimum {low!r}")


# --- protocol traces -----------------------------------------------------------


def wavefront_holds(trace: dict) -> bool:
    """Each effective broadcast comes from the block the previous one updated.

    Node 0 sends the first.  This holds for k = 1 with unbounded tau_h only:
    with k >= 2, or with a finite tau_h that lets idle updated nodes fire
    again, a node of an older block may send before any node of the newest.
    """
    lo = hi = frontier = 0
    for _, sender, updated in trace["broadcasts"]:
        if updated == 0:
            continue
        if not lo <= sender <= hi:
            return False
        lo, hi = frontier + 1, frontier + updated
        frontier += updated
    return True


def check_trace(p: dict, trace: dict) -> None:
    n = p["n"]
    times = trace["update_time"]
    require(len(times) == n + 1 and times[0] == 0.0, "update_time must start at node 0 at time 0")
    require(all(math.isfinite(x) for x in times), "a node was never updated")
    require(all(a <= b for a, b in zip(times, times[1:])), "update times decrease along the line")
    require(trace["end_to_end_delay"] == times[n], "end_to_end_delay != update_time[n]")
    sent = trace["broadcasts"]
    require(trace["message_count"] == len(sent), "message_count != number of broadcasts")
    require(1 <= trace["hop_count"] <= trace["message_count"], "need 1 <= hop_count <= message_count")
    require(trace["hop_count"] == sum(1 for b in sent if b[2] > 0),
            "hop_count != broadcasts that updated a node")
    require(sum(b[2] for b in sent) == n, "updates do not add up to n nodes")
    require(all(a[0] <= b[0] for a, b in zip(sent, sent[1:])), "broadcast times decrease")
    if paper_model(p):
        require(wavefront_holds(trace), "an effective broadcast came from outside the newest block")


def check_query(query, out_path: str) -> float | None:
    """Check one query's output file; returns the mean delay of a Monte Carlo query."""
    p = query.params
    if query.command == "simulate":
        rep, h, t = read_samples(out_path)
        check_samples(p, rep, h, t)
        return float(t.mean())
    with open(out_path) as fh:
        payload = json.load(fh)
    if query.command == "compare":
        return check_compare(p, payload)
    if query.command in ("gf", "exact"):
        check_pmf_law(p, payload)
    elif query.command == "analyze":
        check_analyze(p, payload)
    elif query.command == "sweep-eta":
        check_sweep(p, payload)
    else:
        raise CheckError(f"no check for command {query.command!r}")
    return None


def check_eta_order(mean_delays: dict[tuple[str, int, float], float]) -> None:
    """Mean delay at eta = 0 below that at eta = 0.5, per command and R.

    Keys are (command, R, eta) of k = 1, unbounded-tau_h Monte Carlo queries.
    """
    for (command, R, eta), value in mean_delays.items():
        if eta == 0.0 and (command, R, 0.5) in mean_delays:
            other = mean_delays[(command, R, 0.5)]
            require(value < other, f"{command} R={R}: mean delay at eta=0 {value!r} "
                    f"not below eta=0.5 {other!r}")
