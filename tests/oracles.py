"""Independent oracles that the test suite checks the library against.

They take the long way round on purpose: chain-power sums instead of the
closed forms in tricklelab.analytics, and a simulated stationary chain
instead of the exact variance rate.
"""

import numpy as np

from tricklelab.analytics import build_markov
from tricklelab.simulate import replication_stream


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
