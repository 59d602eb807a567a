"""Exact finite-size hop-count and delay distributions for line propagation.

Two independent routes to the same laws:

* a transform route: the visit transforms of the update-size chain, one per
  state u, counting the visits to u by nodes covered and hops taken (or
  elapsed time, as moment-series coefficients), solved as one linear system
  over a truncated series ring and assembled into a master series whose
  coefficients are P[hops = m at size n] (or the delay moment generating
  function at size n);
* a dynamic-programming route: one forward pass over (nodes covered, last
  update size) that carries the probability and the first two moments of
  elapsed time together, yielding the hop pmf and the delay mean and
  variance at once; used as the accuracy oracle.

Sizes n <= R take a single broadcast, so the hop law there is a point mass
and the delay is one timer draw, uniform on [eta, 1].
"""

from __future__ import annotations

import math

import numpy as np

from .analytics import transition_matrix
# nothing here inverts a series; geometric stays importable as gf.geometric
# because the benchmark tracer (perfbench/tracer.py) wraps it under that name
from .series import TruncatedSeries, geometric  # noqa: F401

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


def holding_series(j: int, eta: float, order: int) -> np.ndarray:
    """Coefficients of state j's holding-time moment series,
    sum_r E[nu_j^r] t^r / r! for r <= order."""
    return np.array([step_moment(j, eta, r) / math.factorial(r) for r in range(order + 1)])


# --- visit transforms ---------------------------------------------------------
#
# V[u] sums, over the steps m of the chain started in state 1 with nothing
# covered, z^(nodes covered after m steps) times a hop or time weight on the
# event that the chain is in state u after m steps.  It solves
#     V[k] = [k == 1] + sum_i P[i,k] z^k step_i(V[i]),
# where step_i charges one transition out of state i on the second variable.


def _hop_step(i: int, s: TruncatedSeries) -> TruncatedSeries:
    """One transition out of state i + 1 in hop mode: one more hop."""
    return s.shifted((0, 1))


def _delay_step(R: int, eta: float, order: int):
    """One transition out of state i + 1 in delay mode: the product with that
    state's holding-time moment series.  The series has only time terms, so
    the product is a sum of time shifts, free of FFT round-off."""
    hold = [holding_series(j, eta, order) for j in range(1, R + 1)]
    return lambda i, s: sum(c * s.shifted((0, r)) for r, c in enumerate(hold[i]))


def _solve_visits(R, variables, degrees, sweeps, step) -> list[TruncatedSeries]:
    """Jacobi sweeps of the visit system from zero; after t sweeps every path
    of fewer than t steps is accounted for."""
    P = transition_matrix(R)
    zero = TruncatedSeries.zeros(variables, degrees)
    visits = [zero] * R
    for _ in range(sweeps):
        stepped = [step(i, v) for i, v in enumerate(visits)]
        visits = [
            sum((P[i, k] * stepped[i] for i in range(R) if P[i, k]), zero).shifted((k + 1, 0))
            for k in range(R)
        ]
        visits[0] = visits[0] + 1.0
    return visits


def solve_hop_system(R: int, node_degree: int, step_degree: int) -> list[TruncatedSeries]:
    """Visit transforms V[1..R] in hop mode, as (nodes, hops) series.

    A path of m steps carries node degree >= m and hop degree exactly m, so
    min(node_degree, step_degree) + 1 sweeps reach the exact truncated
    solution.
    """
    return _solve_visits(R, (NODE_VAR, HOP_VAR), (node_degree, step_degree),
                         min(node_degree, step_degree) + 1, _hop_step)


def solve_delay_system(R: int, eta: float, node_degree: int, order: int) -> list[TruncatedSeries]:
    """Visit transforms V[1..R] in delay mode, as (nodes, time) series whose
    time axis holds moment-series coefficients; node_degree + 1 sweeps."""
    return _solve_visits(R, (NODE_VAR, TIME_VAR), (node_degree, order),
                         node_degree + 1, _delay_step(R, eta, order))


# --- master series and extraction ---------------------------------------------


def _master_series(visits: list[TruncatedSeries], step) -> TruncatedSeries:
    """1/(1-z) - z/(1-z) sum_u (V[u] - step_u(V[u])), z counting nodes.

    With Z_m the nodes covered after m steps, the hop count at size n is m
    with probability P[Z_(m-1) < n] - P[Z_m < n], and the delay is the time
    of those m steps; row n of this series is therefore the hop pgf (or the
    delay moment series) at size n.  Division by 1 - z is a cumulative sum.
    """
    leave = sum(v - step(i, v) for i, v in enumerate(visits)).shifted((1, 0))
    coeffs = -np.cumsum(leave.coeffs, axis=0)
    coeffs[:, 0] += 1.0
    return TruncatedSeries(leave.variables, coeffs)


def hop_master_series(R: int, n_max: int, m_max: int) -> TruncatedSeries:
    """(nodes, hops) series whose (n, m) coefficient is P[hop count = m at size n]."""
    return _master_series(solve_hop_system(R, n_max, m_max), _hop_step)


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
    pmf = hop_master_series(R, n, m_max).coeffs[n, :]
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
    """(nodes, time) series whose row n holds the delay moment series at size n."""
    return _master_series(solve_delay_system(R, eta, n_max, order),
                          _delay_step(R, eta, order))


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
