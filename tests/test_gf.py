import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from tricklelab import gf
from tricklelab.analytics import transition_matrix
from tricklelab.series import TruncatedSeries


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
        assert np.array_equal(v.coeffs, np.eye(5))
        [v] = gf.solve_delay_system(1, 0.0, 4, 3)
        uniform = [1 / math.factorial(r + 1) for r in range(4)]  # (e^t - 1) / t
        power = np.array([1.0, 0.0, 0.0, 0.0])
        for m in range(5):
            assert np.allclose(v.coeffs[m], power, rtol=1e-14, atol=0.0)
            power = np.convolve(power, uniform)[:4]

    def test_forced_jump_to_top_state(self):
        # from state 1 the next update size is R, so one hop reaches only z^2
        visits = gf.solve_hop_system(2, 5, 5)
        assert visits[1].coefficient((2, 1)) == 1.0
        assert np.count_nonzero(visits[1].coeffs[:, 1]) == 1
        assert not visits[0].coeffs[:, 1].any()

    def test_two_state_rational_form(self):
        # R = 2: V1 = 1 + z y V2 / 2 and V2 = z^2 y (V1 + V2 / 2), so with
        # D = 1 - z^2 y / 2 - z^3 y^2 / 2, V1 = (1 - z^2 y / 2) / D, V2 = z^2 y / D
        variables, degrees = (gf.NODE_VAR, gf.HOP_VAR), (12, 12)
        mono = lambda powers, c=1.0: TruncatedSeries.monomial(variables, degrees, powers, c)
        D = 1.0 - mono((2, 1), 0.5) - mono((3, 2), 0.5)
        v1, v2 = gf.solve_hop_system(2, *degrees)
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
            variables, degrees = (gf.NODE_VAR, gf.HOP_VAR), (10, 10)
            visits = gf.solve_hop_system(R, *degrees)
            step = lambda i, s: s.shifted((0, 1))
        else:
            eta = 0.3
            variables, degrees = (gf.NODE_VAR, gf.TIME_VAR), (10, 4)
            visits = gf.solve_delay_system(R, eta, *degrees)

            def step(i, s):
                mgf = TruncatedSeries.zeros(variables, degrees)
                mgf.coeffs[0, :] = [gf.step_moment(i, eta, r) / math.factorial(r)
                                    for r in range(degrees[1] + 1)]
                return mgf * s
        for k in range(1, R + 1):
            rhs = TruncatedSeries.constant(float(k == 1), variables, degrees)
            for i in range(1, R + 1):
                if P[i - 1, k - 1] != 0.0:
                    rhs = rhs + P[i - 1, k - 1] * step(i, visits[i - 1]).shifted((k, 0))
            residual = np.max(np.abs(visits[k - 1].coeffs - rhs.coeffs))
            assert residual < 1e-12

    def test_only_the_start_takes_no_step(self):
        for u, v in enumerate(gf.solve_hop_system(3, 6, 6), start=1):
            assert v.coeffs[:, 0].tolist() == [float(u == 1)] + [0.0] * 6

    def test_coverage_hit_probability_tends_to_renewal_density(self):
        # summing V over states and hops gives P[coverage ever equals a],
        # which tends to 1 / E[U] = 3 / (2R + 1) under the stationary law;
        # a path reaching a nodes takes at most a hops, so hop degree a
        # loses nothing
        a = 150
        for R in (2, 3, 5):
            hit = sum(v.coeffs[a].sum() for v in gf.solve_hop_system(R, a, a))
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
                pmf = gf.hop_master_series(R, n, n).coeffs[n, :]
                dp = gf.hop_pmf_dp(R, n)
                width = max(len(dp), len(pmf))
                a = np.pad(pmf, (0, width - len(pmf)))
                b = np.pad(dp, (0, width - len(dp)))
                assert np.max(np.abs(a - b)) < 1e-9

    def test_setting_hop_variable_to_one_gives_normalization(self):
        master = gf.hop_master_series(3, 20, 20)
        norm = master.coeffs.sum(axis=1)  # hops axis
        assert np.allclose(norm, np.ones(21), atol=1e-9)

    def test_insufficient_explicit_truncation_raises(self):
        with pytest.raises(gf.TruncationInsufficientError):
            gf.hop_pmf_gf(2, 10, m_max=3)

    def test_dp_pmf_sums_to_one(self):
        for R, n in [(1, 7), (2, 13), (5, 40)]:
            assert gf.hop_pmf_dp(R, n).sum() == pytest.approx(1.0, abs=1e-12)


class TestDelayLaw:
    def test_single_hop_sizes_are_one_uniform_draw(self):
        for eta in (0.0, 0.5):
            for n in (1, 3):  # n <= R = 3
                moments = gf.delay_moments_gf(3, eta, n)
                mean, second = moments[0], moments[1]
                assert mean == pytest.approx((1 + eta) / 2, rel=1e-12)
                assert second - mean**2 == pytest.approx((1 - eta) ** 2 / 12, rel=1e-9)

    def test_hand_path_sum(self):
        moments = gf.delay_moments_gf(2, 0.0, 4)
        assert moments[0] == pytest.approx(13 / 12, rel=1e-12)

    def test_uniform_sum_chain(self):
        mean, var = gf.delay_moments_dp(1, 0.3, 7)
        assert mean == pytest.approx(7 * 1.3 / 2, rel=1e-12)
        assert var == pytest.approx(7 * 0.49 / 12, rel=1e-10)

    def test_matches_dp_oracle(self):
        for R in (2, 4, 6):
            for eta in (0.0, 0.25, 0.5):
                for n in (5, 17, 30):
                    m = gf.delay_moments_gf(R, eta, n)
                    mean, var = m[0], m[1] - m[0] ** 2
                    dp_mean, dp_var = gf.delay_moments_dp(R, eta, n)
                    assert abs(mean - dp_mean) / dp_mean < 1e-9
                    assert abs(var - dp_var) / dp_var < 1e-9

    def test_transform_normalizes_at_zero(self):
        master = gf.delay_master_series(3, 0.25, 15, order=2)
        assert np.allclose(master.coeffs[:, 0], np.ones(16), atol=1e-12)

    def test_third_moment_of_uniform_sum(self):
        # sum of 3 iid U(0,1): E[S^3] = 3 m3 + 18 m2 m1 + 6 m1^3 = 4.5
        moments = gf.delay_moments_gf(1, 0.0, 3, order=3)
        assert moments[2] == pytest.approx(4.5, rel=1e-12)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            gf.delay_moments_gf(2, 0.0, 4, order=0)
