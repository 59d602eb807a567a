import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from tricklelab import gf
from tricklelab.analytics import transition_matrix
from tricklelab.series import TruncatedSeries

from oracles import exact_law_by_suffix_adds, exact_law_paths, master_by_ring, visits_by_sweeps


def holding_density(x, j, eta):
    """Density of eta + (1 - eta) * Beta(1, j) on [eta, 1]."""
    y = (x - eta) / (1.0 - eta)
    return j * (1.0 - y) ** (j - 1) / (1.0 - eta)


def quad_moment(j, eta, r):
    val, _ = quad(lambda x: x**r * holding_density(x, j, eta), eta, 1.0)
    return val


def quad_mgf(j, eta, s):
    val, _ = quad(lambda x: math.exp(s * x) * holding_density(x, j, eta), eta, 1.0)
    return val


def series_mgf(j, eta, s, order=60):
    """E[exp(s * nu_j)] summed from the holding-time moment series of state j
    (nu_j <= 1, so 60 terms leave a remainder below 4^61 / 61! for |s| <= 4)."""
    c = gf.holding_series(j, eta, order)
    return float(np.polynomial.polynomial.polyval(s, c))


class TestStepMoments:
    @pytest.mark.parametrize("j", [1, 2, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5])
    def test_against_quadrature(self, j, eta):
        for r in range(5):
            assert gf.step_moment(j, eta, r) == pytest.approx(
                quad_moment(j, eta, r), rel=1e-10)

    def test_first_two_moments_closed(self):
        # mean eta + (1 - eta) / (j + 1)
        assert gf.step_moment(3, 0.2, 1) == pytest.approx(0.2 + 0.8 / 4)
        assert gf.step_moment(1, 0.0, 2) == pytest.approx(1 / 3)


class TestStepMGF:
    """The holding series is the moment generating function of the holding
    time, so summed at s it must match E[exp(s * nu_j)]."""

    def test_uniform_closed_form(self):
        s = 1.7
        assert series_mgf(1, 0.0, s) == pytest.approx((math.exp(s) - 1) / s, rel=1e-14)

    def test_second_state_closed_value(self):
        assert series_mgf(2, 0.0, 1.0) == pytest.approx(2 * (math.e - 2), rel=1e-14)

    def test_zero_argument(self):
        for j in (1, 4):
            assert series_mgf(j, 0.3, 0.0) == 1.0

    @pytest.mark.parametrize("j", [1, 3, 6])
    @pytest.mark.parametrize("eta", [0.0, 0.4])
    @pytest.mark.parametrize("s", [-4.0, -0.01, 0.3, 3.0])
    def test_against_quadrature(self, j, eta, s):
        assert series_mgf(j, eta, s) == pytest.approx(quad_mgf(j, eta, s), rel=1e-11)

    @pytest.mark.parametrize("j", [1, 2, 5])
    @pytest.mark.parametrize("s", [0.5, 2.0])
    def test_incomplete_gamma_form(self, j, s):
        eta = 0.25
        lam = s * (1.0 - eta)
        closed = math.factorial(j) * math.exp(s) * (1.0 / lam) ** j * (
            1.0 - gammaincc(j, lam))
        assert series_mgf(j, eta, s) == pytest.approx(closed, rel=1e-12)

    def test_series_coefficients_are_scaled_moments(self):
        c = gf.holding_series(3, 0.25, 4)
        for r in range(5):
            assert c[r] == pytest.approx(
                gf.step_moment(3, 0.25, r) / math.factorial(r), rel=1e-12)
        assert c[0] == 1.0


class TestHopSystem:
    """The visit transforms V[u]: z counts nodes covered, the second variable
    hops (or elapsed time) before a visit to state u."""

    def test_single_state_solution(self):
        # R = 1 covers one node per hop: V = 1 / (1 - z y) in hop mode, and
        # z^m times the m-th power of the uniform holding series in delay mode
        [v] = gf.solve_hop_system(1, 4, 4)
        assert np.array_equal(v, np.eye(5))
        [v] = gf.solve_delay_system(1, 0.0, 4)
        uniform = [1 / math.factorial(r + 1) for r in range(3)]  # (e^t - 1) / t
        power = np.array([1.0, 0.0, 0.0])
        for m in range(5):
            assert np.allclose(v[m], power, rtol=1e-14, atol=0.0)
            power = np.convolve(power, uniform)[:3]

    def test_forced_jump_to_top_state(self):
        # from state 1 the next update size is R, so one hop reaches only z^2
        visits = gf.solve_hop_system(2, 5, 5)
        assert visits[1, 2, 1] == 1.0
        assert np.count_nonzero(visits[1, :, 1]) == 1
        assert not visits[0, :, 1].any()

    def test_two_state_rational_form(self):
        # R = 2: V1 = 1 + z y V2 / 2 and V2 = z^2 y (V1 + V2 / 2), so with
        # D = 1 - z^2 y / 2 - z^3 y^2 / 2, V1 = (1 - z^2 y / 2) / D, V2 = z^2 y / D
        variables, degrees = ("nodes", "hops"), (12, 12)
        mono = lambda powers, c=1.0: TruncatedSeries.monomial(variables, degrees, powers, c)
        D = 1.0 - mono((2, 1), 0.5) - mono((3, 2), 0.5)
        v1, v2 = (TruncatedSeries(variables, v) for v in gf.solve_hop_system(2, *degrees))
        assert np.max(np.abs((v1 * D - (1.0 - mono((2, 1), 0.5))).coeffs)) < 1e-15
        assert np.max(np.abs((v2 * D - mono((2, 1))).coeffs)) < 1e-15

    @pytest.mark.parametrize("R, mode", [
        pytest.param(R, mode, id=str(R) if mode == "hop" else f"{R}-{mode}")
        for mode in ("hop", "delay") for R in (2, 3, 5)
    ])
    def test_residual_of_defining_equations(self, R, mode):
        # V[k] = [k == 1] + sum_i P[i,k] z^k step_i(V[i]), step_i a shift by
        # one hop, or the product with state i's holding-time moment series
        P = transition_matrix(R)
        if mode == "hop":
            variables, degrees = ("nodes", "hops"), (10, 10)
            visits = gf.solve_hop_system(R, *degrees)
            step = lambda i, s: s.shifted((0, 1))
        else:
            eta = 0.3
            variables, degrees = ("nodes", "time"), (10, 2)
            visits = gf.solve_delay_system(R, eta, degrees[0])

            def step(i, s):
                mgf = TruncatedSeries.zeros(variables, degrees)
                mgf.coeffs[0, :] = [gf.step_moment(i, eta, r) / math.factorial(r)
                                    for r in range(degrees[1] + 1)]
                return mgf * s
        for k in range(1, R + 1):
            rhs = TruncatedSeries.constant(float(k == 1), variables, degrees)
            for i in range(1, R + 1):
                if P[i - 1, k - 1] != 0.0:
                    v = TruncatedSeries(variables, visits[i - 1])
                    rhs = rhs + P[i - 1, k - 1] * step(i, v).shifted((k, 0))
            residual = np.max(np.abs(visits[k - 1] - rhs.coeffs))
            assert residual < 1e-12

    def test_only_the_start_takes_no_step(self):
        for u, v in enumerate(gf.solve_hop_system(3, 6, 6), start=1):
            assert v[:, 0].tolist() == [float(u == 1)] + [0.0] * 6

    def test_coverage_hit_probability_tends_to_renewal_density(self):
        # summing V over states and hops gives P[coverage ever equals a],
        # which tends to 1 / E[U] = 3 / (2R + 1) under the stationary law;
        # a path reaching a nodes takes at most a hops, so hop degree a
        # loses nothing
        a = 150
        for R in (2, 3, 5):
            hit = gf.solve_hop_system(R, a, a)[:, a].sum()
            assert abs(hit - 3 / (2 * R + 1)) < 1e-10


class TestHopLaw:
    def test_point_mass_single_range(self):
        pmf = gf.hop_pmf_gf(1, 5)
        assert np.allclose(pmf, [0, 0, 0, 0, 0, 1.0])

    def test_two_path_case(self):
        pmf = gf.hop_pmf_gf(2, 4)
        assert pmf[2] == pytest.approx(0.5, abs=1e-12)
        assert pmf[3] == pytest.approx(0.5, abs=1e-12)

    def test_first_broadcast_covers_range(self):
        for R in (3, 6):
            for n in range(1, R + 1):
                pmf = gf.hop_pmf_gf(R, n)
                assert pmf[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_dp_oracle(self):
        for R in (2, 3, 4):
            for n in range(1, 26):
                pmf = gf.hop_master_series(R, n)[n]
                dp = gf.hop_pmf_dp(R, n)
                assert len(pmf) == len(dp)
                assert np.max(np.abs(pmf - dp)) < 1e-9

    def test_setting_hop_variable_to_one_gives_normalization(self):
        master = gf.hop_master_series(3, 20)
        norm = master.sum(axis=1)  # hops axis
        assert np.allclose(norm, np.ones(21), atol=1e-9)

    def test_insufficient_truncation_raises(self, monkeypatch):
        # one hop short of the support loses P[hop count = max_hops] = 1/8
        max_hops = gf.max_hops
        monkeypatch.setattr(gf, "max_hops", lambda R, n: max_hops(R, n) - 1)
        with pytest.raises(gf.TruncationInsufficientError):
            gf.hop_pmf_gf(2, 10)

    def test_pmf_has_the_dp_support_and_no_negative_entries(self):
        # the transform pmf ends at max_hops, as the DP's does, and is an
        # exact (positive) zero exactly where the DP's is: below ceil(n / R)
        for R in range(1, 9):
            for n in range(1, 61):
                pmf, dp = gf.hop_pmf_gf(R, n), gf.hop_pmf_dp(R, n)
                assert len(pmf) == len(dp) == gf.max_hops(R, n) + 1
                assert not np.signbit(pmf).any()
                assert np.array_equal(pmf == 0.0, dp == 0.0)

    def test_dp_pmf_sums_to_one(self):
        for R, n in [(1, 7), (2, 13), (5, 40)]:
            assert gf.hop_pmf_dp(R, n).sum() == pytest.approx(1.0, abs=1e-12)


PATH_SUM_CASES = [(R, n, eta) for R in range(1, 6) for n in range(1, 15)
                  for eta in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))]
# a range over gf._DENSE_SIZES steps one size at a time; at n = 40 the sizes
# over 6 cover n at once in the second hop
PATH_SUM_CASES += [(gf._DENSE_SIZES + 1, n, eta) for n in (40, 67)
                   for eta in (Fraction(0), Fraction(1, 2))]

# twice the largest differences from the one-add-per-size oracle over the
# grid of test_matches_suffix_add_oracle on one x86-64 machine (8.4e-16,
# 4.3e-16 and 4.2e-15, at R = 3 or 8 and n = 3000), for BLAS kernels that
# round in another order: the two passes sum in different orders, and each
# is as close as the other to the same pass in long double
ORACLE_PMF_ABS, ORACLE_MEAN_REL, ORACLE_VAR_REL = 2e-15, 1e-15, 1e-14


class TestExactLawDP:
    """exact_law_dp against the rational sum over every path and against the
    same pass with one add per size (tests/oracles.py), including the band
    edges n <= R, n = R + 1 and R = 1."""

    @pytest.mark.parametrize("R, n, eta", PATH_SUM_CASES,
                             ids=["-".join(map(str, case)) for case in PATH_SUM_CASES])
    def test_matches_rational_path_sum(self, R, n, eta):
        pmf, mean, var = exact_law_paths(R, eta, n)
        dp_pmf, dp_mean, dp_var = gf.exact_law_dp(R, float(eta), n)
        assert len(dp_pmf) == len(pmf)
        assert np.max(np.abs(dp_pmf - np.array(pmf, dtype=float))) <= 1e-15
        assert dp_mean == pytest.approx(float(mean), rel=1e-14)
        assert dp_var == pytest.approx(float(var), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("R", [*range(1, 11), gf._DENSE_SIZES - 1, gf._DENSE_SIZES,
                                   gf._DENSE_SIZES + 1, 2 * gf._DENSE_SIZES + 1, 30, 100, 519])
    def test_matches_suffix_add_oracle(self, R, eta):
        # both products (dense while the band is narrow, per size once it is
        # wide), n <= R (one hop), n = R + 1 (every size covers n in the
        # second hop) and n = 3000 (the pmf's tail underflows to 0.0)
        for n in sorted({*range(1, R + 3), 40, 519, 1500, 3000}):
            pmf, mean, var = gf.exact_law_dp(R, eta, n)
            ref_pmf, ref_mean, ref_var = exact_law_by_suffix_adds(R, eta, n)
            assert len(pmf) == len(ref_pmf) == gf.max_hops(R, n) + 1
            assert np.array_equal(pmf == 0.0, ref_pmf == 0.0)
            assert np.max(np.abs(pmf - ref_pmf)) <= ORACLE_PMF_ABS
            assert mean == pytest.approx(ref_mean, rel=ORACLE_MEAN_REL, abs=0.0)
            assert var == pytest.approx(ref_var, rel=ORACLE_VAR_REL, abs=0.0)

    def test_steps_within_work_bound(self):
        # gf.dp_cost counts max_hops(R, n) steps
        for R in range(1, 9):
            for n in range(1, 80):
                assert len(gf.exact_law_dp(R, 0.5, n)[0]) - 1 <= gf.max_hops(R, n)


class TestSupport:
    """The hop count at size n ranges over ceil(n / R) .. max_hops(R, n), and
    both ends occur: R, R, ... covers n fastest and R, 1, R, 1, ... slowest."""

    def test_max_hops_is_the_smallest_covering_count(self):
        cover = lambda R, m: (m // 2) * (R + 1) + (m % 2) * R
        for R in range(1, 12):
            for n in range(1, 200):
                m = gf.max_hops(R, n)
                assert cover(R, m) >= n > cover(R, m - 1)

    def test_dp_support(self):
        for R in range(1, 9):
            for n in range(1, 61):
                pmf = gf.exact_law_dp(R, 0.5, n)[0]
                assert len(pmf) == gf.max_hops(R, n) + 1
                assert np.flatnonzero(pmf)[0] == -(-n // R)
                assert pmf[-1] > 0.0

    @pytest.mark.parametrize("R", range(1, 6))
    def test_rational_path_sum_support(self, R):
        for n in range(1, 13):
            pmf = exact_law_paths(R, Fraction(0), n)[0]
            assert len(pmf) == gf.max_hops(R, n) + 1
            assert [p != 0 for p in pmf].index(True) == -(-n // R)
            assert pmf[-1] > 0

    @pytest.mark.parametrize("R", range(1, 9))
    def test_forward_pass_equals_jacobi_sweeps(self, R):
        # the forward pass over node rows against Jacobi sweeps of the same
        # system in the series ring (tests/oracles.py), with the step degree
        # below, at and above the support, and in delay mode; the pass
        # returns the S = max(1, min(R, n)) states that reach a row <= n,
        # and every other state of the sweeps is exactly zero
        def check(fast, slow, close):
            assert len(fast) == max(1, min(R, n)) and len(slow) == R
            for a, b in zip(fast, slow):
                assert a.shape == b.coeffs.shape
                assert close(a, b.coeffs)
            for k, b in enumerate(slow, start=1):
                rest = b.coeffs.copy()
                rest[0, 0] -= k == 1
                assert not rest[:k].any()  # V[k] - [k == 1] starts at row k
                assert k <= len(fast) or not rest.any()

        for n in range(61):
            M = gf.max_hops(R, n)
            for degree in sorted({max(M - 1, 0), M, M + 2}):
                check(gf.solve_hop_system(R, n, degree), visits_by_sweeps(R, n, degree),
                      lambda a, b: np.max(np.abs(a - b)) <= 1e-16)
            check(gf.solve_delay_system(R, 0.3, n), visits_by_sweeps(R, n, 2, 0.3),
                  lambda a, b: np.allclose(a, b, rtol=1e-15, atol=0.0))


class TestDelayLaw:
    def test_single_hop_sizes_are_one_uniform_draw(self):
        for eta in (0.0, 0.5):
            for n in (1, 3):  # n <= R = 3
                mean, second = gf.delay_moments_gf(3, eta, n)
                assert mean == pytest.approx((1 + eta) / 2, rel=1e-12)
                assert second - mean**2 == pytest.approx((1 - eta) ** 2 / 12, rel=1e-9)

    def test_hand_path_sum(self):
        mean, _ = gf.delay_moments_gf(2, 0.0, 4)
        assert mean == pytest.approx(13 / 12, rel=1e-12)

    def test_uniform_sum_chain(self):
        mean, var = gf.delay_moments_dp(1, 0.3, 7)
        assert mean == pytest.approx(7 * 1.3 / 2, rel=1e-12)
        assert var == pytest.approx(7 * 0.49 / 12, rel=1e-10)

    def test_matches_dp_oracle(self):
        for R in (2, 4, 6):
            for eta in (0.0, 0.25, 0.5):
                for n in (5, 17, 30):
                    mean, second = gf.delay_moments_gf(R, eta, n)
                    var = second - mean ** 2
                    dp_mean, dp_var = gf.delay_moments_dp(R, eta, n)
                    assert abs(mean - dp_mean) / dp_mean < 1e-9
                    assert abs(var - dp_var) / dp_var < 1e-9

    def test_transform_normalizes_at_zero(self):
        master = gf.delay_master_series(3, 0.25, 15)
        assert np.allclose(master[:, 0], np.ones(16), atol=1e-12)


@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 9, 40, 300, 519])
@pytest.mark.parametrize("R", [1, 2, 3, 5, 30, 519])
def test_master_series_equals_ring_oracle(R, n, eta):
    # the master summed over arrays, one state at a time with the pass's own
    # step, against the same sum over the series ring (tests/oracles.py):
    # every row of the hop master and the delay mean bit for bit; the E[T^2]
    # column rounds its three-term Toeplitz sums in another order
    if eta == 0.0:  # the hop master does not depend on eta
        hop = gf.hop_master_series(R, n)
        assert np.array_equal(hop, master_by_ring(gf.solve_hop_system(R, n, gf.max_hops(R, n))))
    delay = gf.delay_master_series(R, eta, n)
    ring = master_by_ring(gf.solve_delay_system(R, eta, n), eta)
    assert np.array_equal(delay[:, :2], ring[:, :2])
    assert np.all(np.abs(delay[:, 2] - ring[:, 2]) <= 64 * np.spacing(ring[:, 2]))


@pytest.mark.parametrize("R, n", [(2, 519), (519, 519)])
def test_transform_cost_bounds_the_measured_peak(R, n):
    # the widest hop master and the most states under the accuracy limit: the
    # floats transform_cost charges bound the peak the route allocates, its
    # holding table included
    gf.hop_pmf_gf(R, n), gf.delay_moments_gf(R, 0.5, n)  # first-call allocations
    gf._delay_step.cache_clear()
    tracemalloc.start()
    try:
        gf.hop_pmf_gf(R, n)
        gf.delay_moments_gf(R, 0.5, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * gf.transform_cost(R, n)[1]
