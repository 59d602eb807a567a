"""Closed-form statistics of the update-size chain and propagation delay.

A propagation event on a line with range R reduces to a Markov renewal
process: the number of nodes updated by each broadcast forms a Markov chain
on {1, ..., R} (from state i, uniform on {R-i+1, ..., R}), and the time
between broadcasts given state u is eta + (1 - eta) * Beta(1, u), the minimum
of u timers drawn uniformly on [eta, 1].  Everything here is per unit tau_l.

Each quantity has a closed form; where transcription is error-prone, the
test suite checks it against an independent matrix path (chain-power sums).
The exact finite-size laws, from the visit transforms of this chain, are in
tricklelab.gf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularMatrixError(RuntimeError):
    """The fundamental-matrix solve failed; indicates an internal bug."""


def harmonic(m: int) -> float:
    """m-th harmonic number by direct summation."""
    return sum(1.0 / j for j in range(1, m + 1))


@dataclass(slots=True)
class MarkovModel:
    """Update-size chain: transition matrix P and stationary vector pi."""

    R: int
    P: np.ndarray
    pi: np.ndarray


@dataclass(slots=True)
class AsymptoticStats:
    """Per-node rates and asymptotic variances of hop count and delay."""

    mu_U: float
    mu_theta: float
    gamma_U_sq: float
    gamma_theta_sq: float
    Delta: float
    sigma_H_sq: float
    sigma_T_sq: float
    Z: np.ndarray
    M: np.ndarray


def transition_matrix(R: int) -> np.ndarray:
    """P[i-1, j-1] = 1/i for R-i < j <= R, else 0."""
    P = np.zeros((R, R))
    for i in range(1, R + 1):
        P[i - 1, R - i:] = 1.0 / i
    return P


def stationary_closed_form(R: int) -> np.ndarray:
    j = np.arange(1, R + 1, dtype=float)
    return 2.0 * j / (R * (R + 1))


def build_markov(R: int) -> MarkovModel:
    """Build P and solve pi P = pi, checking against the closed form 2j/(R(R+1))."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    P = transition_matrix(R)
    # Solve the balance equations with the last one replaced by normalization.
    A = P.T - np.eye(R)
    A[-1, :] = 1.0
    b = np.zeros(R)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    if np.max(np.abs(pi - stationary_closed_form(R))) > 1e-12:
        raise SingularMatrixError(f"stationary solve drifted from closed form at R={R}")
    return MarkovModel(R=R, P=P, pi=pi)


def mean_update_size(R: int) -> float:
    """Expected nodes updated per broadcast in steady state: (2R + 1) / 3."""
    return (2.0 * R + 1.0) / 3.0


def mean_inter_transmission(R: int, eta: float) -> float:
    """Expected time between broadcasts in steady state."""
    return eta + 2.0 * (1.0 - eta) * (R + 1 - harmonic(R + 1)) / (R * (R + 1))


def hop_rate(R: int) -> float:
    """Limit of E[hops] / n: 3 / (2R + 1), independent of eta."""
    return 1.0 / mean_update_size(R)


def delay_rate(R: int, eta: float) -> float:
    """Limit of E[delay] / n."""
    return mean_inter_transmission(R, eta) / mean_update_size(R)


def gamma_U_sq(R: int) -> float:
    """Asymptotic variance rate of the cumulative update count."""
    return (R * R + R - 2.0) / 54.0


def cov_update_sizes(R: int, j: int) -> float:
    """Stationary Cov[U_0, U_j] = (-1/2)^j (R^2 + R - 2) / 18."""
    if j < 0:
        raise ValueError("lag must be nonnegative")
    return (-0.5) ** j * (R * R + R - 2.0) / 18.0


def sigma_H_sq(R: int) -> float:
    """Asymptotic Var[hop count] / n."""
    return (R * R + R - 2.0) / (16.0 * R**3 + 24.0 * R**2 + 12.0 * R + 2.0)


def var_theta1(R: int, eta: float) -> float:
    """Stationary variance of a single inter-transmission time."""
    h = harmonic(R + 1)
    centered = (2.0 + R) / (2.0 * R) - h / (R * (1.0 + R))
    return 4.0 * (1.0 - eta) ** 2 * ((6.0 + R) / (8.0 + 4.0 * R) - centered**2)


def delta_covariance(R: int, eta: float) -> float:
    """Cross-covariance rate between update sizes and inter-transmission times.

    Equals Cov[theta_1, U_0] + 2 * sum_j Cov[theta_1, U_j]; the lagged terms
    decay as (-1/2)^j, so the sum collapses to a third of the lag-0 term.
    """
    h = harmonic(R + 1)
    return (1.0 - eta) * ((4.0 * R + 8.0) * h - (R * R + 9.0 * R + 8.0)) / (9.0 * R * R + 9.0 * R)


def fundamental_matrix(model: MarkovModel) -> np.ndarray:
    """Z = (I - P + 1 pi)^-1."""
    R = model.R
    A = np.eye(R) - model.P + np.outer(np.ones(R), model.pi)
    try:
        return np.linalg.solve(A, np.eye(R))
    except np.linalg.LinAlgError as exc:  # unreachable for a valid chain
        raise SingularMatrixError(str(exc)) from exc


def holding_time_matrix(model: MarkovModel, eta: float) -> np.ndarray:
    """M[i-1, j-1] = p_ij * E[holding time in state i]."""
    i = np.arange(1, model.R + 1, dtype=float)
    mean_hold = eta + (1.0 - eta) / (i + 1.0)
    return model.P * mean_hold[:, None]


def gamma_theta_sq(R: int, eta: float) -> float:
    """Asymptotic variance rate of the cumulative transmission time."""
    return asymptotic_stats(R, eta).gamma_theta_sq


def asymptotic_stats(R: int, eta: float) -> AsymptoticStats:
    """All asymptotic rates and variances for one (R, eta)."""
    model = build_markov(R)
    Z = fundamental_matrix(model)
    M = holding_time_matrix(model, eta)
    mu_u = mean_update_size(R)
    mu_t = mean_inter_transmission(R, eta)
    g_u = gamma_U_sq(R)
    serial = float(model.pi @ M @ Z @ M @ np.ones(R))
    g_t = var_theta1(R, eta) + 2.0 * serial - 2.0 * mu_t * mu_t
    delta = delta_covariance(R, eta)
    s_h = g_u / mu_u**3
    s_t = (mu_t**2 * g_u + mu_u**2 * g_t - 2.0 * mu_u * mu_t * delta) / mu_u**3
    return AsymptoticStats(
        mu_U=mu_u,
        mu_theta=mu_t,
        gamma_U_sq=g_u,
        gamma_theta_sq=g_t,
        Delta=delta,
        sigma_H_sq=s_h,
        sigma_T_sq=s_t,
        Z=Z,
        M=M,
    )


def sigma_T_sq(R: int, eta: float) -> float:
    return asymptotic_stats(R, eta).sigma_T_sq


def normal_approx(
    R: int, eta: float, n: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Normal-limit parameters ((mean_H, std_H), (mean_T, std_T)) at size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    stats = asymptotic_stats(R, eta)
    mean_h = n / stats.mu_U
    std_h = np.sqrt(stats.sigma_H_sq * n)
    mean_t = n * stats.mu_theta / stats.mu_U
    std_t = np.sqrt(stats.sigma_T_sq * n)
    return (mean_h, std_h), (mean_t, std_t)


def minimize_delay_variance(R: int) -> tuple[float, float]:
    """eta minimizing the asymptotic delay variance rate on [0, 1], exactly.

    sigma_T_sq is quadratic in eta (each holding time eta + (1 - eta) *
    Beta(1, u) is affine in eta), so the parabola through eta = 0, 1/2, 1 is
    the function itself and its vertex is the exact minimizer.  The result is
    the lowest of the vertex clipped to [0, 1] and the two endpoints, so a
    boundary minimum comes back as exactly 0.0 or 1.0.
    """
    f0, f_half, f1 = (sigma_T_sq(R, eta) for eta in (0.0, 0.5, 1.0))
    candidates = [(f0, 0.0), (f1, 1.0)]
    curvature = 2.0 * (f0 - 2.0 * f_half + f1)
    if curvature > 0.0:
        vertex = (3.0 * f0 - 4.0 * f_half + f1) / (2.0 * curvature)
        if 0.0 < vertex < 1.0:
            candidates.append((sigma_T_sq(R, vertex), vertex))
    value, eta = min(candidates)
    return eta, value
