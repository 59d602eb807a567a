"""Exact finite-size hop-count and delay distributions for line propagation.

Two independent routes to the same laws:

* a transform route: first-passage generating functions of the update-size
  chain, solved as linear systems over a truncated series ring, assembled
  into a master series whose coefficients are P[hops = m at size n] (or the
  delay moment generating function at size n);
* a dynamic-programming route: one forward pass over (nodes covered, last
  update size) that carries the probability and the first two moments of
  elapsed time together, yielding the hop pmf and the delay mean and
  variance at once; used as the accuracy oracle.

Sizes n <= R take a single broadcast, so the hop law there is a point mass
and the delay is one timer draw, uniform on [eta, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import transition_matrix
from .series import TruncatedSeries, geometric

HOP_VAR = "hops"
NODE_VAR = "nodes"
TIME_VAR = "time"

PMF_TAIL_TOL = 1e-12


class TruncationInsufficientError(RuntimeError):
    """Requested coefficients are not all captured by the truncation order."""


# --- holding-time transform -------------------------------------------------


def step_moment(j: int, eta: float, r: int) -> float:
    """E[nu_j^r] for the holding time nu_j = eta + (1 - eta) * Beta(1, j)."""
    if j < 1:
        raise ValueError("state index must be >= 1")
    total = 0.0
    for q in range(r + 1):
        beta_q = math.factorial(q) * math.factorial(j) / math.factorial(q + j)
        total += math.comb(r, q) * eta ** (r - q) * (1.0 - eta) ** q * beta_q
    return total


def holding_series(j: int, eta: float, node_degree: int, order: int) -> TruncatedSeries:
    """Holding-time moment series of state j, sum_r E[nu_j^r] t^r / r!, as
    the node-degree-0 row of a (nodes, time) series."""
    coeffs = np.zeros((node_degree + 1, order + 1))
    coeffs[0, :] = [step_moment(j, eta, r) / math.factorial(r) for r in range(order + 1)]
    return TruncatedSeries((NODE_VAR, TIME_VAR), coeffs)


# --- first-passage systems ---------------------------------------------------


@dataclass(slots=True)
class FirstPassageGF:
    """Transforms of (reward, elapsed) between first entrances to `target`.

    `table[i - 1]` is the transform starting from state i.  Hop mode tracks
    (nodes updated, steps taken); delay mode tracks (nodes updated, elapsed
    time) with the time axis holding moment-series coefficients.
    """

    R: int
    target: int
    table: list[TruncatedSeries]


def _solve_first_passage(R, variables, degrees, sweeps, step) -> list[FirstPassageGF]:
    """Fixed point of table[i] = step(i, P[i,t] z^t + sum_{k != t} P[i,k] z^k table[k])
    for every target t, where z counts nodes and `step` charges one transition
    out of state i on the second variable."""
    P = transition_matrix(R)
    out = []
    for target in range(1, R + 1):
        arrive = [
            TruncatedSeries.monomial(variables, degrees, (target, 0), P[i, target - 1])
            for i in range(R)
        ]
        table = [TruncatedSeries.zeros(variables, degrees) for _ in range(R)]
        for _ in range(sweeps):
            new = []
            for i in range(R):
                acc = arrive[i]
                for k in range(1, R + 1):
                    if k == target or P[i, k - 1] == 0.0:
                        continue
                    acc = acc + P[i, k - 1] * table[k - 1].shifted((k, 0))
                new.append(step(i, acc))
            table = new
        out.append(FirstPassageGF(R=R, target=target, table=table))
    return out


def solve_hop_system(R: int, node_degree: int, step_degree: int) -> list[FirstPassageGF]:
    """First-passage transforms for every target state, hop mode: each step
    multiplies by the step variable.

    Fixed-point iteration: the t-th sweep accounts for all paths of at most
    t steps, and a path of t steps carries node degree >= t and step degree
    exactly t, so min(node_degree, step_degree) + 1 sweeps reach the exact
    truncated solution.
    """
    return _solve_first_passage(
        R, (NODE_VAR, HOP_VAR), (node_degree, step_degree),
        min(node_degree, step_degree) + 1, lambda i, s: s.shifted((0, 1)))


def solve_delay_system(R: int, eta: float, node_degree: int, order: int) -> list[FirstPassageGF]:
    """First-passage transforms in delay mode: one step from state i costs a
    factor of the holding-time transform of state i and z^k on arrival at k."""
    hold = [holding_series(i, eta, node_degree, order).coeffs[0] for i in range(1, R + 1)]

    def step(i: int, s: TruncatedSeries) -> TruncatedSeries:
        # the holding series has only time terms, so the product is a sum of
        # time shifts; exact, where a 2-D convolution may add round-off to
        # the zero constant term that geometric() relies on
        return sum(c * s.shifted((0, r)) for r, c in enumerate(hold[i]))

    return _solve_first_passage(
        R, (NODE_VAR, TIME_VAR), (node_degree, order), node_degree + 1, step)


# --- master series and extraction ---------------------------------------------


def hop_master_series(R: int, n_max: int, m_max: int) -> TruncatedSeries:
    """Series whose (m, n) coefficient is P[hop count = m at size n]."""
    systems = solve_hop_system(R, n_max, m_max)
    variables = (HOP_VAR, NODE_VAR)
    degrees = (m_max, n_max)
    bracket = TruncatedSeries.constant(1.0, variables, degrees)
    for fp in systems:
        first = fp.table[0].transposed()  # from state 1
        back = fp.table[fp.target - 1].transposed()
        bracket = bracket + first * geometric(back)
    ones_nodes = TruncatedSeries.zeros(variables, degrees)
    ones_nodes.coeffs[0, :] = 1.0  # 1 / (1 - z_nodes)
    shifted_mix = (ones_nodes * bracket).shifted((0, 1))
    master = shifted_mix.shifted((1, 0)) - shifted_mix + ones_nodes
    return master


def hop_pmf_table(R: int, n_max: int, m_max: int | None = None) -> np.ndarray:
    """Matrix [m, n] of exact hop-count probabilities for all n <= n_max."""
    if m_max is None:
        m_max = n_max
    master = hop_master_series(R, n_max, m_max)
    return master.coeffs


def hop_pmf_gf(R: int, n: int, m_max: int | None = None) -> np.ndarray:
    """Exact hop-count pmf at size n via the transform route.

    With the default truncation (hop degree n) the support is fully covered;
    an explicit, too-small m_max raises TruncationInsufficientError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    explicit = m_max is not None
    if m_max is None:
        m_max = n
    pmf = hop_pmf_table(R, n, m_max)[:, n]
    tail = abs(1.0 - pmf.sum())
    if tail > PMF_TAIL_TOL:
        if explicit:
            raise TruncationInsufficientError(
                f"hop pmf tail mass {tail:.3e} exceeds {PMF_TAIL_TOL} at m_max={m_max}"
            )
        raise TruncationInsufficientError(
            f"hop pmf tail mass {tail:.3e} at full truncation m_max={m_max}; "
            "this indicates an internal error"
        )
    return pmf


def delay_master_series(R: int, eta: float, n_max: int, order: int = 2) -> TruncatedSeries:
    """Series whose row n holds the delay moment series at size n."""
    systems = solve_delay_system(R, eta, n_max, order)
    variables = (NODE_VAR, TIME_VAR)
    degrees = (n_max, order)

    bracket = 1.0 - holding_series(1, eta, n_max, order)
    for fp in systems:
        first = fp.table[0]
        back = fp.table[fp.target - 1]
        bracket = bracket + (1.0 - holding_series(fp.target, eta, n_max, order)) * (
            first * geometric(back))
    geo = TruncatedSeries.zeros(variables, degrees)
    geo.coeffs[:, 0] = 1.0  # 1 / (1 - z_nodes)
    return geo - (geo * bracket).shifted((1, 0))


def delay_moments_gf(R: int, eta: float, n: int, order: int = 2) -> list[float]:
    """Exact raw delay moments [E[T], E[T^2], ...] at size n, transform route."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    master = delay_master_series(R, eta, n, order)
    row = master.coeffs[n, :]
    if abs(row[0] - 1.0) > 1e-9:
        raise TruncationInsufficientError(
            f"delay transform normalization drifted: M(0) = {row[0]!r} at n={n}"
        )
    return [row[r] * math.factorial(r) for r in range(1, order + 1)]


def exact_law_dp(R: int, eta: float, n: int) -> tuple[np.ndarray, float, float]:
    """Exact hop-count pmf and delay (mean, variance) at size n by one forward
    dynamic-programming pass (the oracle for the transform route).

    State: (nodes covered so far a < n, last update size u); from u the next
    update size is uniform on {R - u + 1, ..., R} after a holding time nu_u;
    absorb once coverage reaches n.  Each state carries its probability and
    the unnormalized first and second moments of the elapsed time.  Entry m
    of the pmf is the mass absorbed at step m, i.e. P[hop count = m].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e1 = [0.0] + [step_moment(u, eta, 1) for u in range(1, R + 1)]
    e2 = [0.0] + [step_moment(u, eta, 2) for u in range(1, R + 1)]
    prob = np.zeros((n, R + 1))
    m1 = np.zeros((n, R + 1))
    m2 = np.zeros((n, R + 1))
    prob[0, 1] = 1.0  # one seed node, nothing covered yet
    pmf = [0.0]
    tot_p = tot_m1 = tot_m2 = 0.0
    while prob.any():
        n_prob = np.zeros_like(prob)
        n_m1 = np.zeros_like(m1)
        n_m2 = np.zeros_like(m2)
        absorbed = 0.0
        for u in range(1, R + 1):
            p = prob[:, u]
            if not p.any():
                continue
            s1 = m1[:, u] + p * e1[u]
            s2 = m2[:, u] + 2.0 * e1[u] * m1[:, u] + p * e2[u]
            w = 1.0 / u
            for up in range(R - u + 1, R + 1):
                # coverage a -> a + up; rows with a + up >= n absorb
                cut = max(n - up, 0)
                if up < n:
                    n_prob[up:, up] += w * p[:cut]
                    n_m1[up:, up] += w * s1[:cut]
                    n_m2[up:, up] += w * s2[:cut]
                mass = w * p[cut:].sum()
                absorbed += mass
                tot_p += mass
                tot_m1 += w * s1[cut:].sum()
                tot_m2 += w * s2[cut:].sum()
        pmf.append(absorbed)
        prob, m1, m2 = n_prob, n_m1, n_m2
    mean = tot_m1 / tot_p
    return np.array(pmf), mean, tot_m2 / tot_p - mean * mean


def hop_pmf_dp(R: int, n: int) -> np.ndarray:
    """Exact hop-count pmf by forward dynamic programming: see exact_law_dp."""
    return exact_law_dp(R, 0.0, n)[0]


def delay_moments_dp(R: int, eta: float, n: int) -> tuple[float, float]:
    """Exact (mean, variance) of the delay by forward dynamic programming."""
    return exact_law_dp(R, eta, n)[1:]
