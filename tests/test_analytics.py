import numpy as np
import pytest

from tricklelab import analytics as an

from oracles import (
    build_markov,
    cov_theta1_uj_matrix,
    cov_update_sizes_matrix,
    delta_truncated_sum,
    gamma_U_sq_matrix,
    sigma_T_sq_matrix,
    var_theta1,
)

ETA_GRID = np.linspace(0.0, 1.0, 101)


class TestMarkovModel:
    # the balance-equation solve of tests/oracles.py against the closed form
    # pi_j = 2j / (R (R + 1)) that the library uses
    def test_single_state(self):
        m = build_markov(1)
        assert m.P.tolist() == [[1.0]]
        assert m.pi.tolist() == [1.0]

    def test_two_states(self):
        m = build_markov(2)
        assert np.allclose(m.P, [[0.0, 1.0], [0.5, 0.5]])
        assert np.allclose(m.pi, [1 / 3, 2 / 3], atol=1e-14)

    def test_three_state_stationary(self):
        m = build_markov(3)
        assert np.allclose(m.pi, [1 / 6, 1 / 3, 1 / 2], atol=1e-14)

    @pytest.mark.parametrize("R", range(1, 51))
    def test_stationary_matches_closed_form_and_detailed_balance(self, R):
        m = build_markov(R)
        assert np.max(np.abs(m.pi - an.stationary_closed_form(R))) <= 1e-12
        lhs = m.pi[:, None] * m.P
        assert np.max(np.abs(lhs - lhs.T)) <= 1e-12
        assert np.allclose(m.P.sum(axis=1), 1.0, atol=1e-14)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            build_markov(0)


class TestRates:
    def test_mean_update_size(self):
        assert an.mean_update_size(1) == 1.0
        assert an.mean_update_size(5) == pytest.approx(11 / 3, abs=1e-15)

    def test_mean_inter_transmission(self):
        assert an.mean_inter_transmission(1, 0.4) == pytest.approx(0.7)
        assert an.mean_inter_transmission(2, 0.0) == pytest.approx(7 / 18)
        assert an.mean_inter_transmission(5, 0.0) == pytest.approx(71 / 300)

    def test_mean_inter_transmission_cross_check_against_stationary_sum(self):
        for R in (2, 5, 9):
            for eta in (0.0, 0.3, 1.0):
                m = build_markov(R)
                j = np.arange(1, R + 1)
                direct = float(m.pi @ (eta + (1 - eta) / (j + 1)))
                assert an.mean_inter_transmission(R, eta) == pytest.approx(direct, abs=1e-14)

    def test_rates(self):
        assert an.hop_rate(1) == 1.0
        assert an.delay_rate(1, 0.4) == pytest.approx(0.7)
        assert an.hop_rate(5) == pytest.approx(3 / 11)
        assert an.delay_rate(5, 0.0) == pytest.approx(71 / 1100)

    def test_harmonic(self):
        assert an.harmonic(6) == pytest.approx(49 / 20, abs=1e-15)

    def test_mean_inter_transmission_strictly_increasing_in_eta(self):
        etas = np.linspace(0.0, 1.0, 21)
        for R in range(1, 51):
            vals = [an.mean_inter_transmission(R, e) for e in etas]
            assert all(b > a for a, b in zip(vals, vals[1:])), R


class TestCovariances:
    def test_degenerate_chain_has_zero_covariance(self):
        for j in range(5):
            assert an.cov_update_sizes(1, j) == 0.0

    def test_closed_form_values(self):
        assert an.cov_update_sizes(2, 0) == pytest.approx(2 / 9)
        assert an.cov_update_sizes(2, 1) == pytest.approx(-1 / 9)
        assert an.cov_update_sizes(5, 2) == pytest.approx(7 / 18)

    @pytest.mark.parametrize("R", [1, 2, 5, 12, 20])
    def test_matches_matrix_path(self, R):
        for j in range(11):
            closed = an.cov_update_sizes(R, j)
            matrix = cov_update_sizes_matrix(R, j)
            if closed == 0.0:
                assert abs(matrix) < 1e-12
            else:
                assert abs(matrix - closed) / abs(closed) < 1e-10

    def test_gamma_u_matches_lag_sum(self):
        for R in (1, 2, 5, 10):
            assert an.gamma_U_sq(R) == pytest.approx(gamma_U_sq_matrix(R), abs=1e-10)


class TestVariances:
    def test_sigma_h_values(self):
        assert an.sigma_H_sq(1) == 0.0
        assert an.sigma_H_sq(2) == pytest.approx(4 / 250)
        assert an.sigma_H_sq(5) == pytest.approx(28 / 2662)

    def test_sigma_h_is_gamma_over_mean_cubed(self):
        # the library forms gamma_U_sq / mu_U^3; this is the reduced fraction
        for R in range(1, 30):
            assert an.sigma_H_sq(R) == pytest.approx(
                (R * R + R - 2.0) / (2.0 * (2.0 * R + 1.0) ** 3), rel=1e-12, abs=0.0)

    def test_single_state_delay_variance(self):
        for eta in (0.0, 0.25, 0.9):
            s = an.asymptotic_stats(1, eta)
            assert s.sigma_T_sq == pytest.approx((1 - eta) ** 2 / 12, abs=1e-12)
            assert s.Delta == pytest.approx(0.0, abs=1e-12)
            assert s.gamma_U_sq == 0.0
        # one state: every holding time is eta + (1 - eta) * Uniform(0, 1)
        for eta in np.linspace(0.0, 0.99, 100):
            exact = (1 - eta) ** 2 / 12
            assert abs(an.sigma_T_sq(1, eta) - exact) <= 1e-14 * exact, eta

    def test_var_theta1_single_state_is_uniform_variance(self):
        # the closed form that the per-eta matrix oracle uses
        assert var_theta1(1, 0.0) == pytest.approx(1 / 12, abs=1e-15)
        assert var_theta1(1, 0.5) == pytest.approx(0.25 / 12, abs=1e-15)

    def test_constant_holding_time_reduces_to_hop_variance(self):
        # eta = 1 makes every inter-transmission time exactly one unit
        for R in (2, 5, 10, 30):
            s = an.asymptotic_stats(R, 1.0)
            assert s.sigma_T_sq == pytest.approx(s.sigma_H_sq, rel=1e-10)
            assert s.gamma_theta_sq == pytest.approx(0.0, abs=1e-12)

    def test_delta_matches_truncated_covariance_sum(self):
        for R in (1, 2, 5, 10):
            for eta in (0.0, 0.25, 0.5):
                assert abs(an.delta_covariance(R, eta)
                           - delta_truncated_sum(R, eta)) < 1e-8

    def test_theta_lag_covariances_halve_and_alternate(self):
        for R in (2, 5):
            c0 = cov_theta1_uj_matrix(R, 0.0, 0)
            for j in range(1, 8):
                expected = (-0.5) ** j * c0
                assert cov_theta1_uj_matrix(R, 0.0, j) == pytest.approx(
                    expected, abs=1e-12)

    def test_sigma_t_nonnegative_over_grid(self):
        for R in range(1, 101):
            assert np.all(an.sigma_T_sq(R, ETA_GRID) >= 0.0), R

    def test_sigma_t_matches_per_eta_matrix_path(self):
        # the eta-free quadratic against Var[theta_1] + 2 pi M Z M 1 - 2 mu^2
        # formed at each eta from the balance-equation pi
        for R in range(1, 101):
            ours = an.sigma_T_sq(R, ETA_GRID)
            matrix = sigma_T_sq_matrix(R, ETA_GRID)
            err = np.abs(ours - matrix)
            assert np.all((err <= 1e-12 * np.abs(matrix)) | (err <= 1e-16)), R

    def test_array_eta_is_the_scalar_value(self):
        for R in (1, 5, 30):
            values = an.sigma_T_sq(R, ETA_GRID)
            rates = an.delay_rate(R, ETA_GRID)
            for i, eta in enumerate(ETA_GRID.tolist()):
                assert values[i] == an.sigma_T_sq(R, eta)
                assert rates[i] == an.delay_rate(R, eta)

    def test_stats_are_explicit_in_one_minus_eta(self):
        for R in (1, 2, 5, 30):
            base = an.asymptotic_stats(R, 0.0)
            for eta in (0.25, 0.5, 0.9):
                s, st = 1.0 - eta, an.asymptotic_stats(R, eta)
                assert st.mu_theta == pytest.approx(1.0 - s * (1.0 - base.mu_theta), rel=1e-14)
                assert st.gamma_theta_sq == pytest.approx(s * s * base.gamma_theta_sq, rel=1e-14)
                assert st.Delta == pytest.approx(s * base.Delta, rel=1e-14, abs=1e-16)

    def test_hop_statistics_do_not_depend_on_eta(self):
        for eta in (0.0, 0.37, 1.0):
            s = an.asymptotic_stats(7, eta)
            assert s.mu_U == an.mean_update_size(7)
            assert s.sigma_H_sq == an.sigma_H_sq(7)


class TestNormalApprox:
    def test_degenerate_chain(self):
        (mean_h, std_h), (mean_t, std_t) = an.normal_approx(1, 0.0, 50)
        assert mean_h == 50 and std_h == 0.0
        assert mean_t == pytest.approx(25.0)

    def test_sparse_case_values(self):
        (mean_h, _), (mean_t, _) = an.normal_approx(5, 0.0, 250)
        assert mean_h == pytest.approx(750 / 11)
        assert mean_t == pytest.approx(250 * 71 / 1100, rel=1e-12)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            an.normal_approx(5, 0.0, 0)


QUADRATIC_R = [1, 2, 3, 5, 10, 30, 50]


@pytest.mark.parametrize("R", QUADRATIC_R)
def test_delay_variance_rate_is_quadratic_in_eta(R):
    # the premise of the library's explicit quadratic: the per-eta matrix path
    # equals its Lagrange interpolant through eta = 0, 1/2, 1
    etas = np.linspace(0.0, 1.0, 11)
    f0, f_half, f1 = sigma_T_sq_matrix(R, [0.0, 0.5, 1.0])
    for eta, value in zip(etas, sigma_T_sq_matrix(R, etas)):
        interp = (f0 * (eta - 0.5) * (eta - 1.0) / 0.5
                  - f_half * eta * (eta - 1.0) / 0.25
                  + f1 * eta * (eta - 0.5) / 0.5)
        assert value == pytest.approx(interp, rel=0.0, abs=1e-14)


class TestVarianceMinimizer:
    @pytest.mark.parametrize("R", QUADRATIC_R)
    def test_not_above_a_fine_grid(self, R):
        _, value = an.minimize_delay_variance(R)
        low = min(an.sigma_T_sq(R, e) for e in np.linspace(0.0, 1.0, 201))
        assert value <= low * (1.0 + 1e-12)

    def test_sparse_interior_minimum(self):
        eta, value = an.minimize_delay_variance(5)
        assert abs(eta - 0.56) <= 0.03
        assert value <= an.sigma_T_sq(5, 0.5) and value <= an.sigma_T_sq(5, 0.6)

    def test_medium_interior_minimum(self):
        eta, _ = an.minimize_delay_variance(10)
        assert abs(eta - 0.26) <= 0.03

    def test_dense_boundary_minimum_is_exact_zero(self):
        eta, value = an.minimize_delay_variance(30)
        assert eta == 0.0
        assert value == an.sigma_T_sq(30, 0.0)
        assert an.minimize_delay_variance(30) == (0.0, an.sigma_T_sq(30, 0.0))

    @pytest.mark.parametrize("R", QUADRATIC_R)
    def test_minimum_is_the_vertex_of_the_matrix_path(self, R):
        # vertex of the parabola through the per-eta matrix path at 0, 1/2, 1
        f0, f_half, f1 = sigma_T_sq_matrix(R, [0.0, 0.5, 1.0])
        vertex = (3.0 * f0 - 4.0 * f_half + f1) / (4.0 * (f0 - 2.0 * f_half + f1))
        eta, value = an.minimize_delay_variance(R)
        assert eta == pytest.approx(min(max(vertex, 0.0), 1.0), abs=1e-12)
        assert value == an.sigma_T_sq(R, eta)
