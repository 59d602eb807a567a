"""Exact hop-count and delay law of line propagation, written apart from tricklelab.

The update-size chain: a propagation event starts with one updated node
(update size u = 1).  Each broadcast comes after a holding time
eta + (1 - eta) * Beta(1, u), the earliest of u timers uniform on [eta, 1],
and updates u' new nodes, u' uniform on {R - u + 1, ..., R}.  The event ends
with the broadcast that brings the count of newly updated nodes to n or more;
H is the number of broadcasts and T the sum of their holding times.

`exact_law` runs a forward dynamic program over (update size, nodes covered),
one broadcast per step, carrying the probability mass and the unnormalised
raw moments of the elapsed time.  Only numpy is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np


@dataclass(frozen=True)
class Law:
    """Exact law of (H, T) at one (R, n, eta)."""

    R: int
    n: int
    eta: float
    hop_pmf: np.ndarray          # hop_pmf[m] = P[H = m]
    delay_raw: tuple[float, ...]  # (E[T], E[T^2], ...)

    @property
    def hop_mean(self) -> float:
        m = np.arange(len(self.hop_pmf))
        return float(m @ self.hop_pmf)

    def hop_central(self, order: int) -> float:
        m = np.arange(len(self.hop_pmf)) - self.hop_mean
        return float((m**order) @ self.hop_pmf)

    @property
    def hop_var(self) -> float:
        return self.hop_central(2)

    @property
    def delay_mean(self) -> float:
        return self.delay_raw[0]

    def delay_central(self, order: int) -> float:
        """E[(T - E[T])^order] from the raw moments."""
        mu = self.delay_mean
        raw = (1.0,) + self.delay_raw
        return sum(comb(order, j) * raw[j] * (-mu) ** (order - j) for j in range(order + 1))

    @property
    def delay_var(self) -> float:
        return self.delay_central(2)


def holding_moments(u: int, eta: float, order: int) -> list[float]:
    """[E[nu^r] for r = 0..order], nu = eta + (1 - eta) * Beta(1, u)."""
    beta = [1.0]  # E[B^q] = prod_{i=1..q} i / (u + i)
    for q in range(1, order + 1):
        beta.append(beta[-1] * q / (u + q))
    return [
        sum(comb(r, q) * eta ** (r - q) * (1.0 - eta) ** q * beta[q] for q in range(r + 1))
        for r in range(order + 1)
    ]


def exact_law(R: int, n: int, eta: float, order: int = 4) -> Law:
    """Exact hop pmf and raw delay moments up to `order` at size n."""
    if R < 1 or n < 1 or not 0.0 <= eta <= 1.0 or order < 2:
        raise ValueError(f"bad law parameters R={R}, n={n}, eta={eta}, order={order}")
    nu = np.array([holding_moments(u, eta, order) if u else [0.0] * (order + 1)
                   for u in range(R + 1)]).T          # nu[r, u]
    binom = [[comb(r, j) for j in range(r + 1)] for r in range(order + 1)]
    inv_u = np.array([0.0] + [1.0 / u for u in range(1, R + 1)])
    # mass[r, u, a]: sum over paths now at update size u with a nodes covered
    # (a < n) of P[path] * T^r, T the time elapsed so far.
    mass = np.zeros((order + 1, R + 1, n))
    mass[0, 1, 0] = 1.0
    hop_pmf = [0.0]
    done = np.zeros(order + 1)
    while mass[0].any():
        after = np.empty_like(mass)  # moments once the next holding time elapses
        for r in range(order + 1):
            after[r] = sum(binom[r][j] * mass[j] * nu[r - j][:, None] for j in range(r + 1))
        after *= inv_u[None, :, None]
        # tail[r, k, a] = sum_{u >= k} after[r, u, a]: the mass that moves to
        # update size u' comes from every u >= R - u' + 1.
        tail = np.cumsum(after[:, ::-1, :], axis=1)[:, ::-1, :]
        nxt = np.zeros_like(mass)
        absorbed = np.zeros(order + 1)
        for up in range(1, R + 1):
            src = tail[:, R - up + 1, :]
            if up < n:
                nxt[:, up, up:] = src[:, : n - up]
            absorbed += src[:, max(n - up, 0):].sum(axis=1)
        hop_pmf.append(absorbed[0])
        done += absorbed
        mass = nxt
    return Law(R=R, n=n, eta=eta, hop_pmf=np.array(hop_pmf),
               delay_raw=tuple(float(x) for x in done[1:] / done[0]))


def rate_slopes(R: int, eta: float, n: int = 600) -> dict[str, float]:
    """Growth per node of the exact moments between sizes n and 2n.

    The moments grow linearly in n up to a constant and terms that vanish
    geometrically, so at large n these slopes are the asymptotic hop and
    delay rates and variance rates.
    """
    lo, hi = exact_law(R, n, eta, order=2), exact_law(R, 2 * n, eta, order=2)
    return {
        "hop_rate": (hi.hop_mean - lo.hop_mean) / n,
        "delay_rate": (hi.delay_mean - lo.delay_mean) / n,
        "sigma_H_sq": (hi.hop_var - lo.hop_var) / n,
        "sigma_T_sq": (hi.delay_var - lo.delay_var) / n,
    }
