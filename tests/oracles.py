"""Independent oracles that the test suite checks the library against.

They take the long way round on purpose: a balance-equation solve instead
of the closed-form stationary law, chain-power sums and per-eta matrix
products instead of the closed forms and the eta-free quadratic in
tricklelab.analytics, a simulated stationary chain instead of the exact
variance rate, and a rational sum over every path instead of the exact-law
dynamic program.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from tricklelab import analytics as an
from tricklelab.simulate import PropagationTrace, replication_stream


@dataclass
class MarkovModel:
    """Update-size chain: transition matrix P and stationary vector pi."""

    R: int
    P: np.ndarray
    pi: np.ndarray


def build_markov(R: int) -> MarkovModel:
    """P and pi from the balance equations pi P = pi, the last one replaced
    by the normalization."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    P = an.transition_matrix(R)
    A = P.T - np.eye(R)
    A[-1, :] = 1.0
    b = np.zeros(R)
    b[-1] = 1.0
    return MarkovModel(R=R, P=P, pi=np.linalg.solve(A, b))


def var_theta1(R: int, eta: float) -> float:
    """Stationary variance of a single inter-transmission time, in closed form."""
    h = an.harmonic(R + 1)
    centered = (2.0 + R) / (2.0 * R) - h / (R * (1.0 + R))
    return 4.0 * (1.0 - eta) ** 2 * ((6.0 + R) / (8.0 + 4.0 * R) - centered**2)


def sigma_T_sq_matrix(R: int, etas) -> np.ndarray:
    """sigma_T_sq at each eta by the per-eta matrix path.

    gamma_theta_sq = Var[theta_1] + 2 pi M Z M 1 - 2 mu_theta^2 with
    M[i-1, j-1] = p_ij E[holding time in i] and Z = (I - P + 1 pi)^-1 from
    the balance-equation pi, then the delay variance rate
    (mu_theta^2 gamma_U_sq + mu_U^2 gamma_theta_sq - 2 mu_U mu_theta Delta) / mu_U^3.
    """
    model = build_markov(R)
    Z = np.linalg.solve(np.eye(R) - model.P + np.outer(np.ones(R), model.pi), np.eye(R))
    i = np.arange(1, R + 1, dtype=float)
    mu_u = an.mean_update_size(R)
    g_u = an.gamma_U_sq(R)
    out = []
    for eta in etas:
        mean_hold = eta + (1.0 - eta) / (i + 1.0)
        M = model.P * mean_hold[:, None]
        mu_t = float(model.pi @ mean_hold)
        g_t = (var_theta1(R, eta) + 2.0 * float(model.pi @ M @ Z @ M @ np.ones(R))
               - 2.0 * mu_t**2)
        delta = an.delta_covariance(R, eta)
        out.append((mu_t**2 * g_u + mu_u**2 * g_t - 2.0 * mu_u * mu_t * delta) / mu_u**3)
    return np.array(out)


def validate_wavefront(trace: PropagationTrace) -> bool:
    """Check that every effective broadcast came from the newest updated block.

    The nodes updated by hop m form a contiguous block right of the frontier;
    hop m + 1's sender must belong to it (hop 1 must come from node 0).

    The property holds only for k = 1 with unbounded tau_h.  Otherwise a node
    behind the newest block may broadcast and update nodes: it fails for
    k = 2 on LineTopology(250, 5) with seeds 0 to 4, and for tau_h = 4,
    eta = 0.5 on LineTopology(100, 5) with seed 98.
    """
    block_lo, block_hi = 0, 0
    frontier = 0
    for (_, sender, updated) in trace.broadcasts:
        if updated == 0:
            continue
        if not block_lo <= sender <= block_hi:
            return False
        block_lo, block_hi = frontier + 1, frontier + updated
        frontier += updated
    return True


def cov_update_sizes_matrix(R: int, j: int) -> float:
    """Cov[U_0, U_j] from stationary weights and j-step transition powers."""
    model = build_markov(R)
    v = np.arange(1, R + 1, dtype=float)
    pj = np.linalg.matrix_power(model.P, j)
    mean = float(model.pi @ v)
    return float(model.pi @ (v * (pj @ v))) - mean * mean


def gamma_U_sq_matrix(R: int, lags: int = 120) -> float:
    """Var[U_0] + 2 sum_j Cov[U_0, U_j] via transition powers."""
    model = build_markov(R)
    v = np.arange(1, R + 1, dtype=float)
    mean = float(model.pi @ v)
    total = float(model.pi @ (v * v)) - mean * mean
    pj = np.eye(R)
    for _ in range(1, lags + 1):
        pj = pj @ model.P
        total += 2.0 * (float(model.pi @ (v * (pj @ v))) - mean * mean)
    return total


def cov_theta1_uj_matrix(R: int, eta: float, j: int) -> float:
    """Cov[theta_1, U_j] via conditional holding means and transition powers."""
    model = build_markov(R)
    i = np.arange(1, R + 1, dtype=float)
    mean_hold = eta + (1.0 - eta) / (i + 1.0)
    pj = np.linalg.matrix_power(model.P, j)
    mu_t = float(model.pi @ mean_hold)
    mu_u = float(model.pi @ i)
    return float(model.pi @ (mean_hold * (pj @ i))) - mu_t * mu_u


def delta_truncated_sum(R: int, eta: float, lags: int = 40) -> float:
    """Delta as the truncated covariance sum, relying on chain reversibility
    to fold the forward cross-terms onto Cov[theta_1, U_j]."""
    total = cov_theta1_uj_matrix(R, eta, 0)
    for j in range(1, lags + 1):
        total += 2.0 * cov_theta1_uj_matrix(R, eta, j)
    return total


def stationary_chain_path(R: int, steps: int, seed: int = 0) -> np.ndarray:
    """Sample the update-size chain from its stationary law for `steps` steps."""
    rnd = replication_stream(seed, 0)
    rr = rnd.random
    # stationary law puts weight 2j / (R (R + 1)) on state j
    cum = np.cumsum(2.0 * np.arange(1, R + 1) / (R * (R + 1)))
    u = int(np.searchsorted(cum, rr())) + 1
    out = np.empty(steps, dtype=np.int64)
    for m in range(steps):
        out[m] = u
        u = R - int(u * rr())
    return out


def estimate_time_variance_rate(
    R: int, eta: float, steps: int, seed: int = 0, batch_len: int = 100
) -> float:
    """Monte Carlo estimate of lim Var[total transmission time] / steps.

    Simulates the stationary update-size chain and integrates the holding
    times out conditionally: the variance rate splits into the batch-means
    variance of per-state mean holding times (serial dependence) plus the
    path average of per-state holding-time variances.  Conditioning removes
    the holding-time sampling noise, keeping the estimate well inside a few
    percent at 10^6 steps.
    """
    path = stationary_chain_path(R, steps, seed)
    u = path.astype(float)
    cond_mean = eta + (1.0 - eta) / (u + 1.0)
    cond_var = (1.0 - eta) ** 2 * u / ((u + 1.0) ** 2 * (u + 2.0))
    batches = steps // batch_len
    sums = cond_mean[: batches * batch_len].reshape(batches, batch_len).sum(axis=1)
    serial = float(np.var(sums, ddof=1)) / batch_len
    return serial + float(cond_var.mean())


def exact_law_paths(R: int, eta: Fraction, n: int) -> tuple[list[Fraction], Fraction, Fraction]:
    """Exact hop pmf and delay (mean, variance) at size n in rational
    arithmetic, summed over every sequence of update sizes.

    Given its sequence of update sizes a path's holding times are independent,
    nu_u = eta + (1 - eta) * Beta(1, u) with mean eta + (1 - eta) / (u + 1)
    and variance (1 - eta)^2 u / ((u + 1)^2 (u + 2)), so each path adds its
    probability times its conditional delay moments.
    """
    eta = Fraction(eta)
    pmf: list[Fraction] = []
    moments = [Fraction(0), Fraction(0)]  # E[T], E[T^2]

    def walk(u, covered, hops, prob, mean, var):
        # one broadcast by the u nodes updated last; it updates `up` more
        prob /= u
        mean += eta + (1 - eta) / (u + 1)
        var += (1 - eta) ** 2 * Fraction(u, (u + 1) ** 2 * (u + 2))
        for up in range(R - u + 1, R + 1):
            if covered + up < n:
                walk(up, covered + up, hops + 1, prob, mean, var)
                continue
            pmf.extend([Fraction(0)] * (hops + 2 - len(pmf)))
            pmf[hops + 1] += prob
            moments[0] += prob * mean
            moments[1] += prob * (var + mean * mean)

    walk(1, 0, 0, Fraction(1), Fraction(0), Fraction(0))
    return pmf, moments[0], moments[1] - moments[0] ** 2
