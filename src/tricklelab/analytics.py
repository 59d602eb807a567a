"""Closed-form statistics of the update-size chain and propagation delay.

A propagation event on a line with range R reduces to a Markov renewal
process: the number of nodes updated by each broadcast forms a Markov chain
on {1, ..., R} (from state i, uniform on {R-i+1, ..., R}) with stationary law
pi_j = 2j / (R (R + 1)), and the time between broadcasts given state u is
eta + (1 - eta) * Beta(1, u), the minimum of u timers drawn uniformly on
[eta, 1].  Everything here is per unit tau_l.

With s = 1 - eta a holding time is 1 - s (1 - B), B ~ Beta(1, u), so each
eta-dependent quantity is explicit in s: mu_theta = 1 - s (1 - m_B),
gamma_theta_sq = s^2 g_B, Delta = s Delta_B and sigma_T_sq = c0 + c1 s + c2 s^2,
where m_B, g_B and Delta_B are the statistics of the B alone.  The one linear
solve, for the fundamental matrix behind g_B, does not involve eta.

The test suite checks the closed forms against independent matrix paths
(tests/oracles.py).  The exact finite-size laws, from the visit transforms
of this chain, are in tricklelab.gf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def harmonic(m: int) -> float:
    """m-th harmonic number by direct summation."""
    return sum(1.0 / j for j in range(1, m + 1))


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


def mean_update_size(R: int) -> float:
    """Expected nodes updated per broadcast in steady state: (2R + 1) / 3."""
    return (2.0 * R + 1.0) / 3.0


def mean_inter_transmission(R: int, eta):
    """Expected time between broadcasts in steady state (eta may be an array)."""
    return eta + 2.0 * (1.0 - eta) * (R + 1 - harmonic(R + 1)) / (R * (R + 1))


def hop_rate(R: int) -> float:
    """Limit of E[hops] / n: 3 / (2R + 1), independent of eta."""
    return 1.0 / mean_update_size(R)


def delay_rate(R: int, eta):
    """Limit of E[delay] / n (eta may be an array)."""
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
    """Asymptotic Var[hop count] / n = (R^2 + R - 2) / (2 (2R + 1)^3)."""
    return gamma_U_sq(R) / mean_update_size(R) ** 3


def delta_covariance(R: int, eta: float) -> float:
    """Cross-covariance rate between update sizes and inter-transmission times.

    Equals Cov[theta_1, U_0] + 2 * sum_j Cov[theta_1, U_j]; the lagged terms
    decay as (-1/2)^j, so the sum collapses to a third of the lag-0 term.
    """
    h = harmonic(R + 1)
    return (1.0 - eta) * ((4.0 * R + 8.0) * h - (R * R + 9.0 * R + 8.0)) / (9.0 * R * R + 9.0 * R)


def solve_cost(R: int) -> tuple[int, int]:
    """Upper bounds on the (element updates, floats of working memory) of
    solve_chain(R) and the R x R matrices Z and M that analyze writes out: an
    LU solve against R right-hand sides, and 120 bytes per matrix element
    (JSON analyze at R = 300 and 500 peaks at 97 B of traced memory per
    element: the arrays and the text and values of one block of rows; CSV
    at 33 B).  So the work limit alone bounds R, at 793."""
    return 2 * R**3, 15 * R * R


@dataclass(frozen=True, slots=True)
class ChainSolution:
    """The eta-free part of the asymptotic laws at one R, from one solve.

    P is the transition matrix, Z = (I - P + 1 pi)^-1 the fundamental matrix,
    g_B the variance rate of the cumulative B = (holding time - eta) / s, and
    sigma_T_sq(eta) = c0 + c1 s + c2 s^2 the delay variance rate.
    """

    P: np.ndarray
    Z: np.ndarray
    g_B: float
    c0: float
    c1: float
    c2: float

    def sigma_T_sq(self, eta):
        """Asymptotic Var[delay] / n (eta may be an array)."""
        s = 1.0 - eta
        return self.c0 + s * (self.c1 + s * self.c2)

    def argmin(self) -> tuple[float, float]:
        """(eta, sigma_T_sq) at the minimum over eta in [0, 1].

        The vertex s = -c1 / (2 c2) clipped to [0, 1], so a boundary minimum
        comes back as exactly eta = 0.0 or 1.0.  c2 > 0: the Beta noise of
        each holding time adds variance at every s > 0.
        """
        eta = 1.0 - min(max(-self.c1 / (2.0 * self.c2), 0.0), 1.0)
        return eta, self.sigma_T_sq(eta)


def solve_chain(R: int) -> ChainSolution:
    """The fundamental matrix and the delay variance rate's coefficients.

    g_B = E[Var[B | U]] + Var[b(U_0)] + 2 sum_{j >= 1} Cov[b(U_0), b(U_j)]
    with b_u = E[B | u] = 1/(u + 1) and Var[B | u] = u / ((u + 1)^2 (u + 2)).
    For the centred c = b - m_B the last two terms are (pi c) (2 Z - I) c,
    a form without the cancellation of E[B^2] - m_B^2.  With
    mu_theta = 1 - s d, d = 1 - m_B, the delay variance rate
    (mu_theta^2 gamma_U_sq + mu_U^2 gamma_theta_sq - 2 mu_U mu_theta Delta) / mu_U^3
    expands into c0 = sigma_H_sq and the c1, c2 below.
    """
    P = transition_matrix(R)
    pi = stationary_closed_form(R)
    Z = np.linalg.solve(np.eye(R) - P + pi, np.eye(R))
    u = np.arange(1.0, R + 1.0)
    m_b = mean_inter_transmission(R, 0.0)
    c = 1.0 / (u + 1.0) - m_b
    g_b = float(pi @ (u / ((u + 1.0) ** 2 * (u + 2.0)) + c * (2.0 * (Z @ c) - c)))
    mu_u, g_u, d = mean_update_size(R), gamma_U_sq(R), 1.0 - m_b
    delta_b = delta_covariance(R, 0.0)
    return ChainSolution(
        P=P,
        Z=Z,
        g_B=g_b,
        c0=sigma_H_sq(R),
        c1=-2.0 * (d * g_u + mu_u * delta_b) / mu_u**3,
        c2=(d * d * g_u + 2.0 * mu_u * d * delta_b + mu_u**2 * g_b) / mu_u**3,
    )


def asymptotic_stats(R: int, eta: float) -> AsymptoticStats:
    """All asymptotic rates and variances for one (R, eta)."""
    chain = solve_chain(R)
    i = np.arange(1, R + 1, dtype=float)
    mean_hold = eta + (1.0 - eta) / (i + 1.0)
    return AsymptoticStats(
        mu_U=mean_update_size(R),
        mu_theta=mean_inter_transmission(R, eta),
        gamma_U_sq=gamma_U_sq(R),
        gamma_theta_sq=(1.0 - eta) ** 2 * chain.g_B,
        Delta=delta_covariance(R, eta),
        sigma_H_sq=sigma_H_sq(R),
        sigma_T_sq=chain.sigma_T_sq(eta),
        Z=chain.Z,
        M=chain.P * mean_hold[:, None],  # M[i-1, j-1] = p_ij E[holding time in i]
    )


def sigma_T_sq(R: int, eta):
    """Asymptotic Var[delay] / n (eta may be an array)."""
    return solve_chain(R).sigma_T_sq(eta)


def normal_approx(
    R: int, eta: float, n: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Normal-limit parameters ((mean_H, std_H), (mean_T, std_T)) at size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    mu_u = mean_update_size(R)
    mean_h = n / mu_u
    std_h = np.sqrt(sigma_H_sq(R) * n)
    mean_t = n * mean_inter_transmission(R, eta) / mu_u
    std_t = np.sqrt(sigma_T_sq(R, eta) * n)
    return (mean_h, std_h), (mean_t, std_t)


def minimize_delay_variance(R: int) -> tuple[float, float]:
    """eta minimizing the asymptotic delay variance rate on [0, 1], exactly:
    the vertex of the quadratic sigma_T_sq, see ChainSolution.argmin."""
    return solve_chain(R).argmin()
