"""Exact finite-size hop-count and delay distributions for line propagation.

Two independent routes to the same laws:

* a transform route: the visit transforms of the update-size chain, one per
  state u <= min(R, n) (the states that a size up to n can reach), counting
  the visits to u by nodes covered and hops taken (or elapsed time, as
  moment-series coefficients), held as arrays (state, node row, hop or
  time column) and solved by one forward pass over node rows; the master
  series, whose row n holds P[hops = m at size n] (or the delay moment
  series at size n), sums each state's visits less their step.  One step
  function per mode, a hop-column shift or the product with a Toeplitz
  matrix of holding-time moments, serves both the pass and the master;
* a dynamic-programming route: one forward pass over hops, on (last update
  size, nodes covered), that carries the probability and the first two
  moments of elapsed time together, yielding the hop pmf and the delay mean
  and variance at once; used as the accuracy oracle.  The mass reaching
  each next size is a suffix sum over the current sizes, which one matrix
  product per hop forms for every size at once, and only the live band of
  coverage columns is kept, so a hop costs O(min(R, n) * band), band <= n,
  in a number of numpy calls that does not grow with min(R, n) while the
  band is narrow.  Both routes cost O(n min(R, n) M) per query, with
  M = max_hops(R, n) about 2n / (R + 1) the largest possible hop count.

Both routes see R only through min(R, n) and the offset R - k of the sizes
that can move to size k, so their cost and arrays do not grow with R.

The command line refuses, before starting it, a query over MAX_WORK or
MAX_CELLS (by dp_cost, transform_cost) and a gf query over TRANSFORM_MAX_N.

Sizes n <= R take a single broadcast, so the hop law there is a point mass
and the delay is one timer draw, uniform on [eta, 1].
"""

from __future__ import annotations

import functools
import math

import numpy as np

# nothing here uses the series ring; geometric stays importable as gf.geometric
# because the benchmark tracer (perfbench/tracer.py) wraps it under that name
from .series import geometric  # noqa: F401

PMF_TAIL_TOL = 1e-12

# The largest exact-law query the command line runs, as bounded by dp_cost and
# transform_cost: MAX_WORK array element updates (a few seconds on one CPU
# core, at up to about 5 ns each) and MAX_CELLS floats of working arrays
# (80 MB).
# A query over either limit is refused before it starts.
MAX_WORK = 10**9
MAX_CELLS = 10**7

# The largest n the command line runs the transform route at: its delay
# variance E[T^2] - E[T]^2 cancels as n grows, and up to here its error
# against exact_law_dp over an 11-point eta grid, relative to the variance
# but no finer than 1e-4 of E[T^2] (the gf command's check), is at most
# 2.8e-10, within that check's 1e-9.
TRANSFORM_MAX_N = 519


class TruncationInsufficientError(RuntimeError):
    """Requested coefficients are not all captured by the truncation order."""


# --- holding-time transform -------------------------------------------------


def step_moment(j: int, eta: float, r: int) -> float:
    """E[nu_j^r] for the holding time nu_j = eta + (1 - eta) * Beta(1, j)."""
    if j < 1:
        raise ValueError("state index must be >= 1")
    total = 0.0
    for q in range(r + 1):
        # E[Beta(1, j)^q] = q! j! / (q + j)!, without forming j! for large j
        beta_q = math.factorial(q) / math.prod(range(j + 1, j + q + 1))
        total += math.comb(r, q) * eta ** (r - q) * (1.0 - eta) ** q * beta_q
    return total


def holding_series(j: int, eta: float, order: int) -> np.ndarray:
    """Coefficients of state j's holding-time moment series,
    sum_r E[nu_j^r] t^r / r! for r <= order."""
    return np.array([step_moment(j, eta, r) / math.factorial(r) for r in range(order + 1)])


def _check_query(R: int, n: int, eta: float = 0.0) -> None:
    if R < 1 or n < 1:
        raise ValueError(f"R and n must be >= 1, got R={R}, n={n}")
    if not 0.0 <= eta <= 1.0:  # also rejects NaN
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


def max_hops(R: int, n: int) -> int:
    """The largest hop count with which an update can reach size n: the
    first broadcast covers R nodes and any two in a row at least R + 1, so
    it is the smallest m with (m // 2)(R + 1) + (m % 2) R >= n."""
    return 2 * (n // (R + 1)) + (n % (R + 1) > 0)


# --- visit transforms ---------------------------------------------------------
#
# V[u] sums, over the steps m of the chain started in state 1 with nothing
# covered, z^(nodes covered after m steps) times a hop or time weight on the
# event that the chain is in state u after m steps.  It solves
#     V[k] = [k == 1] + sum_i P[i,k] z^k step_i(V[i]),
# where step_i charges one transition out of state i on the second variable.
# P[i,k] is 1/i for i >= R - k + 1 (else 0) and each term carries z^k, k >= 1,
# so row a of V[k] (its z^a terms) is the suffix sum over those i of
# step_i(row a - k of V[i]) / i: one pass over rows a = 0 .. n is exact.  Only
# states k <= min(R, n) reach a row a <= n: V[k] - [k == 1] starts at row k.
#
# The transforms are one array, visits[u - 1, a] the row a of V[u] over its
# hop (or time moment-series) column.  A step, step(block, states), takes rows
# to step_i of them: the rows of one state (states its index u - 1) or one row
# of several (states a slice of the states axis).


def _hop_step(block: np.ndarray, states) -> np.ndarray:
    """One transition in hop mode, out of any state: one more hop."""
    out = np.zeros_like(block)
    out[..., 1:] = block[..., :-1]
    return out


@functools.lru_cache(maxsize=1)
def _delay_step(S: int, eta: float):
    """One transition in delay mode out of states 1 .. S: the product of each
    row with the upper-triangular Toeplitz matrix of the state's holding-time
    moment series up to t^2.  Cached, so that the pass (solve_delay_system)
    and the master (delay_master_series) of a query build one table.  Each
    row is its own 1 x 3 product, so the pass and the master round alike."""
    hold = np.array([holding_series(j, eta, 2) for j in range(1, S + 1)])
    lag = np.arange(3) - np.arange(3)[:, None]
    toeplitz = np.where(lag >= 0, hold[:, np.maximum(lag, 0)], 0.0)
    return lambda block, states: (block[..., None, :] @ toeplitz[states])[..., 0, :]


def _forward_pass(R: int, node_degree: int, width: int, step) -> np.ndarray:
    """V[1..S] over rows 0 .. node_degree, S = max(1, min(R, node_degree)),
    one row at a time."""
    S = max(1, min(R, node_degree))
    inv = 1.0 / np.arange(1, S + 1)[:, None]
    visits = np.zeros((S, node_degree + 1, width))
    visits[0, 0, 0] = 1.0
    # suffix[a S + j] sums step_i(row a of V[i]) / i over i > j, so row a of
    # V[k] is suffix[(a - k) S + R - k], S + 1 apart for successive k
    suffix = np.zeros(((node_degree + 1) * S, width))
    lo = max(1, R - S + 1)  # the states k whose suffix starts at a size <= S
    for a in range(node_degree + 1):
        hi = min(a, S)
        if hi >= lo:
            first = (a - hi) * S + R - hi
            visits[lo - 1:hi, a] = suffix[first:first + (hi - lo) * (S + 1) + 1:S + 1][::-1]
        stepped = step(visits[:, a], slice(None)) * inv
        suffix[a * S:a * S + S] = np.cumsum(stepped[::-1], axis=0)[::-1]
    return visits


def solve_hop_system(R: int, node_degree: int, step_degree: int) -> np.ndarray:
    """Visit transforms V[1..S] in hop mode, S = max(1, min(R, node_degree)),
    as an (S, node_degree + 1, step_degree + 1) array: entry [u - 1, a, m] is
    the z^a y^m coefficient of V[u], y counting hops."""
    return _forward_pass(R, node_degree, step_degree + 1, _hop_step)


def solve_delay_system(R: int, eta: float, node_degree: int) -> np.ndarray:
    """Visit transforms V[1..S] in delay mode, S = max(1, min(R, node_degree)),
    as an (S, node_degree + 1, 3) array: entry [u - 1, a, r] is the z^a t^r
    coefficient of V[u], t the time variable of the moment series."""
    S = max(1, min(R, node_degree))
    return _forward_pass(R, node_degree, 3, _delay_step(S, eta))


# --- master series and extraction ---------------------------------------------


def _master_series(visits: np.ndarray, step) -> np.ndarray:
    """1/(1-z) - z/(1-z) sum_u (V[u] - step_u(V[u])), z counting nodes.

    With Z_m the nodes covered after m steps, the hop count at size n is m
    with probability P[Z_(m-1) < n] - P[Z_m < n], and the delay is the time
    of those m steps; row n of this array is therefore the hop pgf (or the
    delay moment series) at size n.  Division by 1 - z is a cumulative sum.
    The sum runs one state at a time, so its temporaries are one state's rows.
    """
    master = np.zeros(visits.shape[1:])
    for u, v in enumerate(visits):  # row a + 1 takes row a: the factor z
        master[1:] += step(v[:-1], u) - v[:-1]
    np.cumsum(master, axis=0, out=master)
    master[:, 0] += 1.0
    return master


def hop_master_series(R: int, n_max: int) -> np.ndarray:
    """(n_max + 1, max_hops(R, n_max) + 1) array whose entry [n, m] is
    P[hop count = m at size n], for n <= n_max and every possible m."""
    return _master_series(solve_hop_system(R, n_max, max_hops(R, n_max)), _hop_step)


def hop_pmf_gf(R: int, n: int) -> np.ndarray:
    """Exact hop-count pmf at size n via the transform route; entry m is
    P[hop count = m] for m <= max_hops(R, n).  Entries below ceil(n / R),
    the fewest hops that cover n nodes, are exact zeros."""
    _check_query(R, n)
    pmf = hop_master_series(R, n)[n].copy()
    pmf[:-(-n // R)] = 0.0  # 1 - cumsum leaves rounding residue there
    tail = abs(1.0 - pmf.sum())
    if tail > PMF_TAIL_TOL:
        raise TruncationInsufficientError(
            f"hop pmf tail mass {tail:.3e} exceeds {PMF_TAIL_TOL} at {len(pmf) - 1} hops"
        )
    return pmf


def delay_master_series(R: int, eta: float, n_max: int) -> np.ndarray:
    """(n_max + 1, 3) array whose row n holds the delay moment series at size n:
    1, E[T] and E[T^2] / 2."""
    visits = solve_delay_system(R, eta, n_max)
    return _master_series(visits, _delay_step(len(visits), eta))


def delay_moments_gf(R: int, eta: float, n: int) -> tuple[float, float]:
    """Exact raw delay moments (E[T], E[T^2]) at size n, transform route."""
    _check_query(R, n, eta)
    row = delay_master_series(R, eta, n)[n]
    if abs(row[0] - 1.0) > 1e-9:
        raise TruncationInsufficientError(
            f"delay transform normalization drifted: M(0) = {row[0]!r} at n={n}"
        )
    return row[1], row[2] * 2.0


# The DP steps its band in one dense product over every size while the band
# holds at most _BAND_CELLS (size, column) cells, about one numpy call's worth
# of arithmetic, and rescans it for underflowed columns after that many.  The
# dense block matrices hold 9 S^2 floats, so they serve at most _DENSE_SIZES.
_BAND_CELLS = 4096
_DENSE_SIZES = 32


def exact_law_dp(R: int, eta: float, n: int) -> tuple[np.ndarray, float, float]:
    """Exact hop-count pmf and delay (mean, variance) at size n by one forward
    dynamic-programming pass (the oracle for the transform route).

    State: (last update size u, nodes covered a < n); from u the next size is
    uniform on {R - u + 1, ..., R} after a holding time nu_u; absorb once
    coverage reaches n.  A state carries its probability and unnormalized
    first two moments of the time elapsed less kappa (the stationary mean
    holding time) per hop, so the variance needs no E[T^2] - E[T]^2.  Only
    sizes u <= S = min(R, n) and the live band of coverage columns are kept.
    Mass moves to size u' as a suffix sum over u >= R - u' + 1, which one
    matrix product per hop forms, written straight into a skewed view of the
    next band (size u' lands u' columns on): while the band is narrow, one
    dense product over every size; once it is wide, S products of 3 x 3 in
    one call and a running sum of S - 1 adds.  A hop costs O(S * band) with
    band <= n, a query O(S n max_hops(R, n)).  Entry m of the pmf is
    P[hop count = m], m = 0 .. max_hops(R, n).
    """
    _check_query(R, n, eta)
    S = min(R, n)
    u = np.arange(1, S + 1)  # a live size is at most the coverage
    e1, e2 = (np.array([step_moment(j, eta, r) for j in u.tolist()]) for r in (1, 2))
    kappa = e1 @ u / u.sum()  # stationary weights are proportional to u
    # step[u - 1] takes (probability, first, second moment) through one
    # holding time nu_u - kappa (moments a, b) and splits it over u next sizes
    step = np.array([[[1.0, 0.0, 0.0], [a, 1.0, 0.0], [b, 2.0 * a, 1.0]] for a, b in
                     zip(e1 - kappa, e2 - 2.0 * kappa * e1 + kappa * kappa)]) / u[:, None, None]
    # a product is (blocks, matrices, sizes per block): output block b takes
    # source block b counted from the top size down, and each later block
    # adds the last row of the one before, a running sum
    per_size = (S, step[::-1, None], 1)
    dense = per_size
    if S <= _DENSE_SIZES:  # size k + 1 takes step[i] @ mass[i] for i >= S - 1 - k
        reach = u[:, None] + u >= S + 1
        matrices = np.where(reach[:, None, :, None], step.transpose(1, 0, 2), 0.0)
        dense = (1, matrices.reshape(1, S, 3, 3 * S), S)
    # mass[u - 1, :, a - lo]; the first broadcast, by the seed u = 1 at a = 0,
    # updates R nodes
    mass = np.zeros((S, 3, 1))
    mass[-1] = step[0, :, :1]
    hops = max_hops(R, n)
    absorbed = np.zeros((hops + 1, 3))  # by hop count; once live mass underflows, zeros
    if n <= R:
        absorbed[1] = mass[-1, :, 0]
    lo, since = R, 0
    for m in range(2, hops + 1):
        width = mass.shape[2]
        blocks, matrices, sizes = dense if S * width <= _BAND_CELLS else per_size
        lo += 1
        cut = n - lo  # the band columns from cut on cover n
        keep = min(S, cut)  # next sizes that can stay live
        W = width + S - 1
        flat = np.zeros(S * (3 * W + 1))
        moved = flat[:3 * S * W].reshape(S, 3, W)
        # row k of a flat (S, 3 W + 1) view starts k columns further on in moved
        skew = flat.reshape(S, 3 * W + 1)[:, :3 * W].reshape(blocks, sizes, 3, W)[..., :width]
        np.matmul(matrices, mass.reshape(blocks, 3 * sizes, width)[::-1, None], out=skew)
        for b in range(1, blocks):
            skew[b] += skew[b - 1, -1]
        if W > cut:  # some band column reaches n
            moved[:keep, :, cut:].sum(axis=(0, 2), out=absorbed[m])
        if keep < S:  # sizes above keep absorb whole; size i reaches this many
            absorbed[m] += np.minimum(u, S - keep) @ (step @ mass.sum(axis=2)[..., None])[..., 0]
        first, last = 0, min(W, cut)
        since += S * width
        if since >= _BAND_CELLS:  # trim the columns whose probability is 0.0
            live = np.flatnonzero(moved[:keep, 0, :last].any(axis=0))
            if not live.size:
                break
            since, first, last = 0, live[0], live[-1] + 1
        if last <= first:
            break
        mass = moved[:, :, first:last]
        lo += first
    pmf, x1, x2 = absorbed.T.copy()
    shift = kappa * np.arange(hops + 1)  # T = X + kappa * m on {hop count = m}
    mean = (x1 + shift * pmf).sum() / pmf.sum()
    d = shift - mean
    variance = (x2 + 2.0 * d * x1 + d * d * pmf).sum() / pmf.sum()
    return pmf, mean, variance


def dp_cost(R: int, n: int) -> tuple[int, int]:
    """Upper bounds on the (cell updates, floats of working arrays) of
    exact_law_dp(R, eta, n), S = min(R, n).  Each of its max_hops(R, n) hops
    updates at most S cells per coverage column, n columns; the dense
    product's 3 S multiply-adds per moment serve only bands of at most
    _BAND_CELLS cells, where a hop takes at most about 1.5 times as long as
    by the per-size product (far less on narrower bands).  After the first
    hop the coverage is at least R, so each of the two skewed bands a hop
    holds is at most S (3 (n - 1) + 1) floats; add the steps and moments
    (12 S), the dense block matrices and their copy in forming them
    (18 S^2) and 6 floats per hop in and out."""
    S, hops = min(R, n), max_hops(R, n)
    dense = 18 * S * S if S <= _DENSE_SIZES else 0
    return S * n * hops, 6 * S * n + 12 * S + dense + 6 * (hops + 1)


def transform_cost(R: int, n: int) -> tuple[int, int]:
    """Upper bounds on the (element updates, floats) of the transform route
    at (R, n), S = min(R, n), M = max_hops(R, n).  A forward pass makes a
    few passes per row over its S states, M + 1 wide (hops) or a 3 x 3
    product (time), and Python worth 7000 updates; the master series makes
    as many per state over the rows.  With W = M + 1 (hops) or 3 (time), the
    pass holds the visits and their suffix sums, 2 S (n + 1) W floats, and
    the master the visits, itself and one state's step, (S + 2)(n + 1) W."""
    S, hops = min(R, n), max_hops(R, n)
    return (n + 1) * (S * (10 * hops + 70) + 7000), 2 * (S + 1) * (n + 1) * (hops + 3)


def hop_pmf_dp(R: int, n: int) -> np.ndarray:
    """Exact hop-count pmf by forward dynamic programming: see exact_law_dp."""
    return exact_law_dp(R, 0.0, n)[0]


def delay_moments_dp(R: int, eta: float, n: int) -> tuple[float, float]:
    """Exact (mean, variance) of the delay by forward dynamic programming."""
    return exact_law_dp(R, eta, n)[1:]
