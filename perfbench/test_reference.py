"""The reference law against cases derived by hand.

Run with: python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

from reference import exact_law, holding_moments, rate_slopes


def hold_mean(u, eta):
    return eta + (1 - eta) / (u + 1)


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_range_one_every_hop_updates_one_node(n, eta):
    law = exact_law(1, n, eta)
    expected = np.zeros(n + 1)
    expected[n] = 1.0
    np.testing.assert_allclose(law.hop_pmf, expected, atol=1e-15)
    assert law.hop_var == pytest.approx(0.0, abs=1e-12)
    assert law.delay_mean == pytest.approx(n * (1 + eta) / 2, rel=1e-12)
    assert law.delay_var == pytest.approx(n * (1 - eta) ** 2 / 12, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("eta", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("R, n", [(3, 1), (3, 3), (10, 6), (30, 30)])
def test_one_broadcast_covers_n_up_to_R(R, n, eta):
    law = exact_law(R, n, eta)
    np.testing.assert_allclose(law.hop_pmf, [0.0, 1.0])
    # T is one timer, uniform on [eta, 1]
    assert law.delay_mean == pytest.approx((1 + eta) / 2, rel=1e-12)
    assert law.delay_var == pytest.approx((1 - eta) ** 2 / 12, rel=1e-9)
    assert law.delay_central(4) == pytest.approx((1 - eta) ** 4 / 80, rel=1e-6)


def test_range_two_by_hand():
    # R = 2: the first broadcast updates 2 nodes; after u = 2 the next
    # updates 1 or 2 with probability 1/2 each; after u = 1 it updates 2.
    eta = 0.0
    n3 = exact_law(2, 3, eta)
    np.testing.assert_allclose(n3.hop_pmf, [0, 0, 1.0])
    assert n3.delay_mean == pytest.approx(hold_mean(1, eta) + hold_mean(2, eta))

    # n = 4: done after two hops if the second updates 2 nodes, else a third
    # hop from u = 1.  T = A + B + I * C, A, C ~ U[0, 1], B ~ Beta(1, 2),
    # I ~ Bernoulli(1/2), all independent.
    n4 = exact_law(2, 4, eta)
    np.testing.assert_allclose(n4.hop_pmf, [0, 0, 0.5, 0.5])
    assert n4.delay_mean == pytest.approx(1 / 2 + 1 / 3 + 1 / 4)
    assert n4.delay_var == pytest.approx(1 / 12 + 1 / 18 + (1 / 6 - 1 / 16))

    # n = 5: always three hops; the third starts from u = 1 or 2 equally.
    n5 = exact_law(2, 5, 0.5)
    np.testing.assert_allclose(n5.hop_pmf, [0, 0, 0, 1.0])
    expected = hold_mean(1, 0.5) + hold_mean(2, 0.5) + (hold_mean(1, 0.5) + hold_mean(2, 0.5)) / 2
    assert n5.delay_mean == pytest.approx(expected)


def test_holding_moments_match_beta():
    # Beta(1, u) has E[B] = 1/(u+1), E[B^2] = 2/((u+1)(u+2))
    eta, u = 0.2, 3
    m = holding_moments(u, eta, 2)
    b1, b2 = 1 / (u + 1), 2 / ((u + 1) * (u + 2))
    assert m[0] == 1.0
    assert m[1] == pytest.approx(eta + (1 - eta) * b1)
    assert m[2] == pytest.approx(eta**2 + 2 * eta * (1 - eta) * b1 + (1 - eta) ** 2 * b2)


def test_pmf_is_a_distribution_and_moments_match_sampling():
    law = exact_law(5, 60, 0.3)
    assert law.hop_pmf.sum() == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(7)
    hops, times = sample_chain(rng, 5, 60, 0.3, 40_000)
    se = math.sqrt(law.delay_var / len(times))
    assert abs(times.mean() - law.delay_mean) < 5 * se
    assert abs(hops.mean() - law.hop_mean) < 5 * math.sqrt(law.hop_var / len(hops))


def test_slopes_for_range_one():
    s = rate_slopes(1, 0.4, n=50)
    assert s["hop_rate"] == pytest.approx(1.0)
    assert s["sigma_H_sq"] == pytest.approx(0.0, abs=1e-9)
    assert s["delay_rate"] == pytest.approx(0.7)
    assert s["sigma_T_sq"] == pytest.approx(0.36 / 12)


def sample_chain(rng, R, n, eta, reps):
    """Direct simulation of the update-size chain, vectorised over replications."""
    u = np.ones(reps, dtype=int)
    covered = np.zeros(reps, dtype=int)
    hops = np.zeros(reps, dtype=int)
    t = np.zeros(reps)
    live = covered < n
    while live.any():
        k = live.sum()
        t[live] += eta + (1 - eta) * rng.beta(1, u[live], size=k)
        u[live] = R - u[live] + 1 + rng.integers(0, u[live], size=k)
        covered[live] += u[live]
        hops[live] += 1
        live = covered < n
    return hops, t
