"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 6's dense-network ratio threshold is strictly-expected-to-fail; the
exact value is 8.278 (startup transient), see the companion test and the
repository notes.
"""

import math
import time

import numpy as np
import pytest

from tricklelab import analytics as an
from tricklelab import gf
from tricklelab.core import TrickleParams
from tricklelab.simulate import (
    LineTopology,
    ks_distance,
    monte_carlo,
    run_protocol_event,
    validate_wavefront,
)

from oracles import cov_update_sizes_matrix, delta_truncated_sum, estimate_time_variance_rate


def report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {status} ({elapsed:.2f}s) {name}: {detail}")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_stationary_law():
    with Timer() as t:
        worst_pi = 0.0
        worst_balance = 0.0
        for R in range(1, 51):
            model = an.build_markov(R)
            worst_pi = max(worst_pi, float(np.max(np.abs(
                model.pi - an.stationary_closed_form(R)))))
            flow = model.pi[:, None] * model.P
            worst_balance = max(worst_balance, float(np.max(np.abs(flow - flow.T))))
    ok = worst_pi <= 1e-12 and worst_balance <= 1e-12 and t.elapsed < 1.0
    report(1, "stationary law and reversibility, R=1..50", ok,
           f"max pi deviation {worst_pi:.2e}, max balance deviation "
           f"{worst_balance:.2e}", t.elapsed)
    assert worst_pi <= 1e-12
    assert worst_balance <= 1e-12
    assert t.elapsed < 1.0


def test_criterion_2_update_size_covariances():
    with Timer() as t:
        worst = 0.0
        for R in range(1, 21):
            for j in range(11):
                closed = an.cov_update_sizes(R, j)
                matrix = cov_update_sizes_matrix(R, j)
                if closed == 0.0:
                    assert abs(matrix) < 1e-12, (R, j)
                else:
                    worst = max(worst, abs(matrix - closed) / abs(closed))
    ok = worst < 1e-10 and t.elapsed < 1.0
    report(2, "lagged update-size covariances, R<=20, j<=10", ok,
           f"worst relative error {worst:.2e}", t.elapsed)
    assert worst < 1e-10
    assert t.elapsed < 1.0


def test_criterion_3_time_variance_rate_cross_validation():
    with Timer() as t:
        worst_mc = 0.0
        worst_delta = 0.0
        details = []
        for R in (2, 5, 10):
            for eta in (0.0, 0.25, 0.5):
                exact = an.gamma_theta_sq(R, eta)
                mc = estimate_time_variance_rate(R, eta, 10**6,
                                                 seed=1000 + R * 10 + int(eta * 4))
                rel = abs(mc - exact) / exact
                worst_mc = max(worst_mc, rel)
                details.append(f"R={R},eta={eta}:{100 * rel:.2f}%")
                worst_delta = max(worst_delta, abs(
                    an.delta_covariance(R, eta) - delta_truncated_sum(R, eta)))
    ok = worst_mc < 0.02 and worst_delta < 1e-8 and t.elapsed < 30.0
    report(3, "gamma_theta^2 vs 1e6-step Monte Carlo and Delta vs lag sum", ok,
           f"worst MC gap {100 * worst_mc:.2f}% (tol 2%), worst Delta gap "
           f"{worst_delta:.2e}", t.elapsed)
    assert worst_mc < 0.02
    assert worst_delta < 1e-8
    assert t.elapsed < 30.0


def test_criterion_4_delay_variance_minimizers():
    with Timer() as t:
        eta5, _ = an.minimize_delay_variance(5)
        eta10, _ = an.minimize_delay_variance(10)
        eta30, _ = an.minimize_delay_variance(30)
    ok = (abs(eta5 - 0.56) <= 0.03 and abs(eta10 - 0.26) <= 0.03
          and eta30 == 0.0 and t.elapsed < 1.0)
    report(4, "delay-variance minimizers over eta", ok,
           f"R=5: {eta5:.4f} (0.56±0.03), R=10: {eta10:.4f} (0.26±0.03), "
           f"R=30: {eta30} (exactly 0)", t.elapsed)
    assert abs(eta5 - 0.56) <= 0.03
    assert abs(eta10 - 0.26) <= 0.03
    assert eta30 == 0.0
    assert t.elapsed < 1.0


def test_criterion_5_transform_route_equals_dp_oracle():
    with Timer() as t:
        worst_pmf = 0.0
        for R in range(1, 7):
            for n in range(1, 41):
                pmf = gf.hop_master_series(R, n, n).coeffs[n, :]
                dp = gf.hop_pmf_dp(R, n)
                width = max(len(dp), len(pmf))
                a = np.pad(pmf, (0, width - len(pmf)))
                b = np.pad(dp, (0, width - len(dp)))
                worst_pmf = max(worst_pmf, float(np.max(np.abs(a - b))))
                assert abs(b.sum() - 1.0) < 1e-12

        worst_mean = worst_var = 0.0
        for R in range(1, 7):
            for eta in (0.0, 0.25, 0.5):
                master = gf.delay_master_series(R, eta, 40, order=2)
                assert np.allclose(master.coeffs[:, 0], 1.0, atol=1e-9)
                for n in range(1, 41):
                    mean = master.coeffs[n, 1]
                    var = 2.0 * master.coeffs[n, 2] - mean * mean
                    dp_mean, dp_var = gf.delay_moments_dp(R, eta, n)
                    worst_mean = max(worst_mean, abs(mean - dp_mean) / dp_mean)
                    worst_var = max(worst_var, abs(var - dp_var) / dp_var)

        fig_pmf = gf.hop_pmf_gf(4, 20)
        support = np.nonzero(fig_pmf > 1e-12)[0]
        mode = int(np.argmax(fig_pmf))
        fig_sum_gap = abs(fig_pmf.sum() - 1.0)
    ok = (worst_pmf < 1e-9 and worst_mean < 1e-9 and worst_var < 1e-9
          and fig_sum_gap < 1e-9 and t.elapsed < 30.0)
    report(5, "generating functions vs DP over R<=6, n<=40", ok,
           f"worst pmf gap {worst_pmf:.2e}, worst mean gap {worst_mean:.2e}, "
           f"worst variance gap {worst_var:.2e}; R=4,n=20 hop law: support "
           f"{support[0]}..{support[-1]}, mode {mode}, total 1-{fig_sum_gap:.1e}",
           t.elapsed)
    assert worst_pmf < 1e-9
    assert worst_mean < 1e-9
    assert worst_var < 1e-9
    assert fig_sum_gap < 1e-9
    assert t.elapsed < 30.0


@pytest.fixture(scope="module")
def delay_ratio_samples():
    out = {}
    t0 = time.perf_counter()
    for (R, n) in ((5, 250), (30, 1500)):
        for eta in (0.0, 0.5):
            ss = monte_carlo(TrickleParams(k=1, eta=eta), LineTopology(n=n, R=R),
                             reps=100_000, seed=600 + R, engine="renewal")
            out[(R, n, eta)] = ss.t_samples
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_6_delay_ratio_claims(delay_ratio_samples):
    with Timer() as t:
        t_sparse_0 = delay_ratio_samples[(5, 250, 0.0)]
        t_sparse_5 = delay_ratio_samples[(5, 250, 0.5)]
        ratio_sparse = float(t_sparse_5.mean() / t_sparse_0.mean())

        # the quoted point predictions are the asymptotic per-node rates
        pred_0 = 250 * an.delay_rate(5, 0.0)
        pred_5 = 250 * an.delay_rate(5, 0.5)
        pred_gap_0 = abs(pred_0 - 16.14) / 16.14
        pred_gap_5 = abs(pred_5 - 42.2) / 42.2

        # empirical means pinned to the exact finite-size values
        gaps_se = []
        for eta, samples in ((0.0, t_sparse_0), (0.5, t_sparse_5)):
            exact_mean, exact_var = gf.delay_moments_dp(5, eta, 250)
            se = math.sqrt(exact_var / len(samples))
            gaps_se.append(abs(float(samples.mean()) - exact_mean) / se)

        rate_ratio_dense = an.delay_rate(30, 0.5) / an.delay_rate(30, 0.0)
    elapsed = t.elapsed + delay_ratio_samples["elapsed"]
    ok = (ratio_sparse > 2.0 and pred_gap_0 < 0.01 and pred_gap_5 < 0.01
          and max(gaps_se) < 4.0 and abs(rate_ratio_dense - 9.1) < 0.1
          and elapsed < 120.0)
    report(6, "listen-only delay reduction (sparse + predictions)", ok,
           f"R=5 empirical ratio {ratio_sparse:.3f} (>2); predictions "
           f"{pred_5:.3f}/{pred_0:.3f} vs 42.2/16.14 "
           f"({100 * pred_gap_5:.2f}%/{100 * pred_gap_0:.2f}%); empirical "
           f"means within {max(gaps_se):.2f} SE of exact; dense rate ratio "
           f"{rate_ratio_dense:.3f} (~9.1)", elapsed)
    assert ratio_sparse > 2.0
    assert pred_gap_0 < 0.01 and pred_gap_5 < 0.01
    assert max(gaps_se) < 4.0
    assert abs(rate_ratio_dense - 9.1) < 0.1
    assert elapsed < 120.0


def test_criterion_6_dense_ratio_matches_exact_value(delay_ratio_samples):
    # the defensible version of the dense-network claim: the measured ratio
    # equals the exact finite-size ratio (8.278; the ~9.1 figure is the
    # asymptotic rate ratio, which the startup transient erodes at eta=0)
    t0 = delay_ratio_samples[(30, 1500, 0.0)]
    t5 = delay_ratio_samples[(30, 1500, 0.5)]
    ratio = float(t5.mean() / t0.mean())
    m0, v0 = gf.delay_moments_dp(30, 0.0, 1500)
    m5, v5 = gf.delay_moments_dp(30, 0.5, 1500)
    exact_ratio = m5 / m0
    se = exact_ratio * math.sqrt(v0 / (m0**2 * len(t0)) + v5 / (m5**2 * len(t5)))
    assert ratio > 8.0
    assert abs(ratio - exact_ratio) < 4 * se


@pytest.mark.xfail(
    strict=True,
    reason="stated threshold 8.5 is unattainable: the exact mean ratio at "
    "(R=30, n=1500) is 8.278 because node 0's startup wait (mean 1/2) is "
    "~11% of the eta=0 delay; the ~9.1 figure is the asymptotic rate ratio",
)
def test_criterion_6_dense_ratio_as_stated(delay_ratio_samples):
    with Timer() as t:
        t0 = delay_ratio_samples[(30, 1500, 0.0)]
        t5 = delay_ratio_samples[(30, 1500, 0.5)]
        ratio = float(t5.mean() / t0.mean())
    report(6, "dense-network ratio as stated (expected failure)", ratio > 8.5,
           f"R=30 empirical ratio {ratio:.3f}, stated threshold 8.5, exact "
           f"finite-size value 8.278", t.elapsed)
    assert ratio > 8.5


def test_criterion_7_normal_limit():
    with Timer() as t:
        results = {}
        for (R, n, etas, reps) in ((5, 250, (0.0, 0.25, 0.5), 10_000),
                                   (30, 1500, (0.0,), 10_000)):
            for eta in etas:
                ss = monte_carlo(TrickleParams(k=1, eta=eta),
                                 LineTopology(n=n, R=R), reps=reps,
                                 seed=700 + R, engine="renewal")
                mean, var = gf.delay_moments_dp(R, eta, n)
                results[(R, n, eta)] = ks_distance(ss.t_samples,
                                                   (mean, math.sqrt(var)))
        sparse = [results[(5, 250, e)] for e in (0.0, 0.25, 0.5)]
        dense = results[(30, 1500, 0.0)]

        doubling = []
        for n in (250, 500):
            ss = monte_carlo(TrickleParams(k=1, eta=0.0),
                             LineTopology(n=n, R=5), reps=1_000_000,
                             seed=711, engine="renewal")
            mean, var = gf.delay_moments_dp(5, 0.0, n)
            doubling.append(ks_distance(ss.t_samples, (mean, math.sqrt(var))))
    ok = (max(sparse) <= 0.05 and dense <= 0.08
          and doubling[1] < doubling[0] and t.elapsed < 120.0)
    report(7, "delay normality (KS against the normal limit)", ok,
           f"R=5 KS {['%.4f' % d for d in sparse]} (<=0.05), R=30 KS "
           f"{dense:.4f} (<=0.08), doubling n: {doubling[0]:.4f} -> "
           f"{doubling[1]:.4f}", t.elapsed)
    assert max(sparse) <= 0.05
    assert dense <= 0.08
    assert doubling[1] < doubling[0]
    assert t.elapsed < 120.0


def test_criterion_8_protocol_reduces_to_renewal_model():
    with Timer() as t:
        params = TrickleParams(k=1, eta=0.0)
        topo = LineTopology(n=50, R=5)
        reps = 100_000
        ss = monte_carlo(params, topo, reps=reps, seed=800, engine="protocol")
        dp = gf.hop_pmf_dp(5, 50)
        counts = np.bincount(ss.h_samples, minlength=len(dp))
        assert len(counts) == len(dp), "hop count outside the exact support"
        emp = counts / reps
        worst_z = 0.0
        for m, p in enumerate(dp):
            if p == 0.0:
                assert counts[m] == 0, f"mass at impossible hop count {m}"
                continue
            se = math.sqrt(p * (1 - p) / reps)
            worst_z = max(worst_z, abs(emp[m] - p) / se)

        wavefront_ok = all(
            validate_wavefront(run_protocol_event(params, topo, seed=80_000 + s))
            for s in range(300)
        )
    ok = worst_z <= 3.0 and wavefront_ok and t.elapsed < 60.0
    report(8, "full protocol vs update-size chain (1e5 events)", ok,
           f"worst per-bin deviation {worst_z:.2f} MC standard errors "
           f"(<=3), wavefront property on 300 traces: {wavefront_ok}",
           t.elapsed)
    assert worst_z <= 3.0
    assert wavefront_ok
    assert t.elapsed < 60.0


def test_criterion_9_rate_convergence():
    with Timer() as t:
        worst_detail = []
        ok = True
        for R in (2, 5):
            for n in (100, 200, 400):
                pmf = gf.hop_pmf_dp(R, n)
                mean_h = float(np.arange(len(pmf)) @ pmf)
                gap_h = abs(mean_h / n - an.hop_rate(R))
                mean_t, _ = gf.delay_moments_dp(R, 0.0, n)
                gap_t = abs(mean_t / n - an.delay_rate(R, 0.0))
                ok = ok and gap_h <= R / n and gap_t <= R / n
                worst_detail.append(max(gap_h, gap_t) * n / R)
    ok = ok and t.elapsed < 10.0
    report(9, "per-node rates converge at 1/n speed", ok,
           f"largest gap/(R/n) fraction {max(worst_detail):.3f} (<1)", t.elapsed)
    assert ok
    assert t.elapsed < 10.0
