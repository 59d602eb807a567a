"""The checkers accept outputs that follow the law and reject wrong ones.

Run with: python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckError
from reference import exact_law
from test_reference import sample_chain

R, N, ETA, REPS = 5, 60, 0.3, 4000


@pytest.fixture(scope="module")
def samples():
    h, t = sample_chain(np.random.default_rng(3), R, N, ETA, REPS)
    return np.arange(REPS, dtype=float), h.astype(float), t


def params(**kw):
    p = {"R": R, "n": N, "eta": ETA, "reps": REPS, "k": 1, "tau_h": math.inf}
    p.update(kw)
    return p


def test_samples_of_the_law_pass(samples):
    checks.check_samples(params(), *samples)


def test_shifted_sample_mean_is_rejected(samples):
    rep, h, t = samples
    shift = 6 * math.sqrt(exact_law(R, N, ETA).delay_var / REPS)
    with pytest.raises(CheckError, match="T: sample mean"):
        checks.check_samples(params(), rep, h, t + shift)


def test_inflated_sample_variance_is_rejected(samples):
    rep, h, t = samples
    wide = t.mean() + 1.15 * (t - t.mean())
    with pytest.raises(CheckError, match="T: sample variance"):
        checks.check_samples(params(), rep, h, wide)


def test_missing_replication_is_rejected(samples):
    rep, h, t = samples
    with pytest.raises(CheckError, match="replications"):
        checks.check_samples(params(), rep[:-1], h[:-1], t[:-1])


def test_maintenance_samples_need_only_complete_replications():
    rep = np.arange(3.0)
    p = params(reps=3, k=2, tau_h=4.0)
    checks.check_samples(p, rep, np.array([40.0, 45.0, 90.0]), np.array([20.0, 31.0, 70.0]))
    with pytest.raises(CheckError, match="ceil"):
        checks.check_samples(p, rep, np.array([11.0, 45.0, 90.0]), np.array([20.0, 31.0, 70.0]))


def law_payload(R=4, n=20, eta=0.3):
    law = exact_law(R, n, eta)
    return {"R": R, "n": n, "eta": eta, "mean": law.delay_mean,
            "variance": law.delay_var, "pmf": law.hop_pmf.tolist()}


def test_exact_law_output_passes_and_pmf_off_by_1e6_fails():
    p = {"R": 4, "n": 20, "eta": 0.3}
    payload = law_payload()
    checks.check_pmf_law(p, payload)
    m = int(np.argmax(payload["pmf"]))
    payload["pmf"][m] += 1e-6
    payload["pmf"][m + 1] -= 1e-6
    with pytest.raises(CheckError, match="hop pmf off"):
        checks.check_pmf_law(p, payload)


def test_interpolated_moments_equal_the_direct_law():
    for eta in (0.0, 0.13, 0.5, 0.77, 1.0):
        law = exact_law(4, 20, eta)
        pmf, mean, var = checks.exact_moments(4, 20, eta)
        np.testing.assert_allclose(pmf, law.hop_pmf, atol=1e-15)
        assert mean == pytest.approx(law.delay_mean, rel=1e-13)
        assert var == pytest.approx(law.delay_var, rel=1e-11)


def test_delay_moments_off_are_rejected():
    p = {"R": 4, "n": 20, "eta": 0.3}
    payload = law_payload()
    payload["variance"] *= 1 + 1e-7
    with pytest.raises(CheckError, match="delay variance"):
        checks.check_pmf_law(p, payload)


def test_analyze_rates_must_equal_the_exact_moment_slopes():
    p = {"R": 5, "eta": 0.3}
    payload = dict(checks.slopes(5, 0.3))
    checks.check_analyze(p, payload)
    payload["sigma_T_sq"] *= 1 + 1e-6
    with pytest.raises(CheckError, match="sigma_T_sq"):
        checks.check_analyze(p, payload)


def sweep_payload(steps=11):
    grid = []
    for e in np.linspace(0.0, 1.0, steps):
        s = checks.slopes(5, float(e))
        grid.append({"eta": float(e), "delay_rate": s["delay_rate"], "sigma_T_sq": s["sigma_T_sq"]})
    best = min(grid, key=lambda g: g["sigma_T_sq"])
    return {"R": 5, "steps": steps, "grid": grid, "argmin": dict(best)}


def test_sweep_argmin_must_not_exceed_the_grid():
    p = {"R": 5, "steps": 11}
    payload = sweep_payload()
    checks.check_sweep(p, payload)
    payload["argmin"]["sigma_T_sq"] *= 1.001
    with pytest.raises(CheckError, match="argmin"):
        checks.check_sweep(p, payload)


def compare_payload(p):
    law = exact_law(p["R"], p["n"], p["eta"])
    s = checks.slopes(p["R"], p["eta"])
    n = p["n"]
    rows = [("mean_H", law.hop_mean, n * s["hop_rate"]), ("var_H", law.hop_var, n * s["sigma_H_sq"]),
            ("mean_T", law.delay_mean, n * s["delay_rate"]), ("var_T", law.delay_var, n * s["sigma_T_sq"]),
            ("ks_T", 0.05, 0.0)]
    return {"table": [{"metric": m, "empirical": e, "analytic": a} for m, e, a in rows]}


def test_compare_table_checks_both_columns():
    p = params(eta=0.5)
    payload = compare_payload(p)
    checks.check_compare(p, payload)
    payload["table"][0]["empirical"] += 6 * math.sqrt(exact_law(R, N, 0.5).hop_var / REPS)
    with pytest.raises(CheckError, match="H: sample mean"):
        checks.check_compare(p, payload)
    payload = compare_payload(p)
    payload["table"][2]["analytic"] *= 1 + 1e-6
    with pytest.raises(CheckError, match="analytic mean_T"):
        checks.check_compare(p, payload)


def good_trace():
    # n = 4, R = 2: node 0 updates nodes 1-2, node 2 then updates 3-4; a
    # stale broadcast from node 1 updates nobody.
    return {"update_time": [0.0, 0.6, 0.6, 1.1, 1.1],
            "broadcasts": [[0.6, 0, 2], [0.9, 1, 0], [1.1, 2, 2]],
            "hop_count": 2, "end_to_end_delay": 1.1, "message_count": 3}


def test_trace_checks():
    p = {"n": 4, "R": 2, "k": 1, "tau_h": math.inf}
    checks.check_trace(p, good_trace())
    bad = good_trace()
    bad["update_time"][2], bad["update_time"][3] = 1.1, 0.6
    with pytest.raises(CheckError, match="decrease along the line"):
        checks.check_trace(p, bad)
    bad = good_trace()
    bad["end_to_end_delay"] = 1.0
    with pytest.raises(CheckError, match="end_to_end_delay"):
        checks.check_trace(p, bad)
    bad = good_trace()
    bad["hop_count"] = 0
    with pytest.raises(CheckError, match="hop_count"):
        checks.check_trace(p, bad)


def test_wavefront_is_checked_for_the_paper_model_only():
    trace = good_trace()
    trace["broadcasts"][2][1] = 0  # node 0 sends the second hop: outside the newest block
    with pytest.raises(CheckError, match="newest block"):
        checks.check_trace({"n": 4, "R": 2, "k": 1, "tau_h": math.inf}, trace)
    checks.check_trace({"n": 4, "R": 2, "k": 2, "tau_h": math.inf}, trace)
    checks.check_trace({"n": 4, "R": 2, "k": 1, "tau_h": 4.0}, trace)


def test_eta_order():
    checks.check_eta_order({("simulate", 5, 0.0): 20.0, ("simulate", 5, 0.5): 40.0})
    with pytest.raises(CheckError, match="not below"):
        checks.check_eta_order({("simulate", 5, 0.0): 41.0, ("simulate", 5, 0.5): 40.0})
