import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest, norm

from tricklelab import gf
from tricklelab.core import TrickleParams
from tricklelab.simulate import (
    RENEWAL_BLOCK,
    DegenerateInputError,
    LineTopology,
    NonTerminationError,
    PropagationTrace,
    ks_distance,
    monte_carlo,
    replication_stream,
    run_protocol_event,
    sample_renewal_event,
)

from oracles import estimate_time_variance_rate, reference_protocol_event, validate_wavefront


class TestTopology:
    def test_receiver_window_clips_to_line(self):
        topo = LineTopology(n=10, R=3)
        assert list(topo.receivers(0)) == [0, 1, 2, 3]
        assert list(topo.receivers(5)) == [2, 3, 4, 5, 6, 7, 8]
        assert list(topo.receivers(10)) == [7, 8, 9, 10]

    def test_validation(self):
        with pytest.raises(ValueError):
            LineTopology(n=0, R=1)
        with pytest.raises(ValueError):
            LineTopology(n=5, R=0)


class TestProtocolEvent:
    def test_full_range_needs_one_broadcast(self):
        for eta in (0.0, 0.5):
            tr = run_protocol_event(TrickleParams(eta=eta),
                                    LineTopology(n=12, R=12), seed=3)
            assert tr.hop_count == 1
            assert eta <= tr.end_to_end_delay <= 1.0
            assert tr.message_count == 1

    def test_unit_range_hops_once_per_node(self):
        tr = run_protocol_event(TrickleParams(eta=0.0),
                                LineTopology(n=10, R=1), seed=5)
        assert tr.hop_count == 10

    def test_trace_invariants(self):
        for seed in range(10):
            tr = run_protocol_event(TrickleParams(eta=0.0),
                                    LineTopology(n=40, R=4), seed=seed)
            assert tr.update_time[0] == 0.0
            assert all(a <= b for a, b in zip(tr.update_time, tr.update_time[1:]))
            assert tr.end_to_end_delay == tr.update_time[-1]
            assert tr.message_count == len(tr.broadcasts)
            assert tr.hop_count == sum(1 for b in tr.broadcasts if b[2] > 0)
            assert validate_wavefront(tr)
            assert tr.end_to_end_delay >= 0.0

    def test_deterministic_given_seed(self):
        a = run_protocol_event(TrickleParams(eta=0.25), LineTopology(n=30, R=3), seed=11)
        b = run_protocol_event(TrickleParams(eta=0.25), LineTopology(n=30, R=3), seed=11)
        assert a == b

    def test_delay_at_least_eta_per_hop(self):
        for seed in range(5):
            tr = run_protocol_event(TrickleParams(eta=0.5),
                                    LineTopology(n=25, R=5), seed=seed)
            assert tr.end_to_end_delay >= 0.5 * tr.hop_count - 1e-12

    def test_horizon_guard(self):
        with pytest.raises(NonTerminationError):
            run_protocol_event(TrickleParams(eta=0.0), LineTopology(n=10, R=2),
                               seed=0, horizon=1e-9)

    def test_finite_tau_h_event_completes(self):
        tr = run_protocol_event(TrickleParams(eta=0.0, tau_h=8.0),
                                LineTopology(n=15, R=3), seed=2)
        assert tr.end_to_end_delay < math.inf
        assert all(t < math.inf for t in tr.update_time)

    def test_higher_redundancy_event_completes(self):
        tr = run_protocol_event(TrickleParams(k=2, eta=0.0),
                                LineTopology(n=15, R=3), seed=2)
        assert tr.update_time[-1] == tr.end_to_end_delay

    def test_trace_json(self):
        tr = run_protocol_event(TrickleParams(eta=0.0), LineTopology(n=5, R=2), seed=1)
        d = tr.to_dict()
        assert set(d) == {"update_time", "broadcasts", "hop_count",
                          "end_to_end_delay", "message_count"}
        import json
        assert json.loads(tr.to_json()) == d

    def test_traces_match_golden_digest(self):
        # SHA-256 over the JSON of 162 traces (or the NonTerminationError
        # message): a change to the protocol rules, the RNG call order or the
        # tie-breaking changes it, and a faithful rewrite of the event loop
        # must keep it
        digest = hashlib.sha256()
        for R, n in ((2, 40), (30, 120)):
            for k in (1, 2, 3):
                for tau_h in (math.inf, 4.0, 16.0):
                    for eta in (0.0, 0.5, 1.0):
                        for seed in range(3):
                            try:
                                line = run_protocol_event(
                                    TrickleParams(k=k, tau_h=tau_h, eta=eta),
                                    LineTopology(n=n, R=R), seed=seed).to_json()
                            except NonTerminationError as exc:
                                line = f"NonTerminationError: {exc}"
                            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == (
            "895c3f0e24f0747e59504a8a68b47b1713386801cd5e2f53e01b16c001b7ce72")


def _trace_or_error(run, params, topo, seed):
    try:
        return run(params, topo, seed=seed).to_json()
    except NonTerminationError as exc:
        return f"NonTerminationError: {exc}"


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(R=st.integers(1, 6), n=st.integers(1, 30), k=st.integers(1, 3),
       tau_h=st.sampled_from([math.inf, 1.0, 2.0, 4.0, 16.0]),
       eta=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_traces_match_object_per_node_reference(R, n, k, tau_h, eta, seed):
    # every rule branch: stale messages at and above tau_l, k > 1 suppression,
    # tau_h = tau_l, n <= R
    params, topo = TrickleParams(k=k, tau_h=tau_h, eta=eta), LineTopology(n=n, R=R)
    assert (_trace_or_error(run_protocol_event, params, topo, seed)
            == _trace_or_error(reference_protocol_event, params, topo, seed))


def _renewal(R, n, eta, reps, seed):
    ss = monte_carlo(TrickleParams(eta=eta), LineTopology(n=n, R=R), reps=reps,
                     seed=seed, engine="renewal")
    return ss.h_samples, ss.t_samples


def _reference_block(R, n, eta, lanes, seed, block=0):
    """The update-size chain run lane by lane in scalar arithmetic, fed the
    uniforms the block sampler draws: (2, live) per step, live lanes in
    ascending order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
    state = {lane: (1, 0, 0.0) for lane in range(lanes)}  # size, covered, time
    h, t = [0] * lanes, [0.0] * lanes
    hops = 0
    while state:
        x = rng.random((2, len(state))).tolist()
        hops += 1
        for j, lane in enumerate(sorted(state)):
            u, covered, tt = state.pop(lane)
            tt += eta + (1.0 - eta) * (1.0 - x[0][j] ** (1.0 / u))
            u = R - int(u * x[1][j])
            covered += u
            if covered >= n:
                h[lane], t[lane] = hops, tt
            else:
                state[lane] = (u, covered, tt)
    return np.array(h), np.array(t)


class TestRenewalSampler:
    def test_unit_range_is_deterministic_hop_count(self):
        for eta in (0.0, 0.7):
            h, t = sample_renewal_event(1, 5, eta, seed=1)
            assert h == 5
            assert 5 * eta <= t <= 5.0
            h, _ = _renewal(1, 17, eta, 200, seed=3)
            assert np.all(h == 17)

    def test_two_state_hop_split(self):
        ss = monte_carlo(TrickleParams(eta=0.0), LineTopology(n=4, R=2),
                         reps=20_000, seed=7, engine="renewal")
        p2 = float(np.mean(ss.h_samples == 2))
        se = math.sqrt(0.25 / 20_000)
        assert abs(p2 - 0.5) < 4 * se
        assert abs(float(ss.t_samples.mean()) - 13 / 12) < 0.02

    def test_hop_path_invariant_under_eta(self):
        # the chain draw consumes one uniform per step regardless of eta
        for seed in (1, 2, 3):
            h0, _ = sample_renewal_event(4, 60, 0.0, seed=seed)
            h5, _ = sample_renewal_event(4, 60, 0.5, seed=seed)
            assert h0 == h5
        h0, _ = _renewal(4, 60, 0.0, 3000, seed=2)
        h7, _ = _renewal(4, 60, 0.7, 3000, seed=2)
        assert np.array_equal(h0, h7)

    def test_delay_at_least_eta_per_hop(self):
        h, t = sample_renewal_event(3, 50, 0.4, seed=9)
        assert t >= 0.4 * h
        for eta in (0.0, 0.3, 0.8):
            h, t = _renewal(6, 70, eta, 2000, seed=8)
            slack = 1e-12 * h
            assert np.all(eta * h <= t + slack)
            assert np.all(t <= h + slack)

    def test_matches_scalar_chain_on_the_same_uniforms(self):
        # 2**63: a range past n, and past the int64 range
        for R, n, eta in ((4, 30, 0.25), (1, 7, 0.0), (9, 100, 0.6), (2**63, 40, 0.3)):
            h, t = _renewal(R, n, eta, 300, seed=21)
            ref_h, ref_t = _reference_block(R, n, eta, 300, seed=21)
            assert np.array_equal(h, ref_h)
            np.testing.assert_allclose(t, ref_t, rtol=1e-13, atol=0.0)

    def test_single_event_is_a_one_replication_run(self):
        for seed in (0, 5):
            h, t = _renewal(3, 40, 0.2, 1, seed)
            assert sample_renewal_event(3, 40, 0.2, seed=seed) == (h[0], t[0])

    def test_same_seed_and_reps_give_bit_equal_arrays(self):
        a = _renewal(5, 80, 0.3, 5000, seed=4)
        b = _renewal(5, 80, 0.3, 5000, seed=4)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()
        c = _renewal(5, 80, 0.3, 5000, seed=5)
        assert c[1].tobytes() != a[1].tobytes()

    def test_blocks_are_the_sharding_unit(self):
        full_h, full_t = _renewal(4, 20, 0.5, RENEWAL_BLOCK, seed=9)
        h, t = _renewal(4, 20, 0.5, RENEWAL_BLOCK + 1, seed=9)
        assert len(h) == len(t) == RENEWAL_BLOCK + 1
        assert np.array_equal(h[:RENEWAL_BLOCK], full_h)
        assert t[:RENEWAL_BLOCK].tobytes() == full_t.tobytes()
        ref_h, ref_t = _reference_block(4, 20, 0.5, 1, seed=9, block=1)
        assert h[-1] == ref_h[0]
        assert t[-1] == pytest.approx(ref_t[0], rel=1e-13)

    def test_listen_only_delay_equals_hop_count(self):
        h, t = _renewal(5, 90, 1.0, 2000, seed=6)
        assert np.array_equal(t, h.astype(float))

    @pytest.mark.parametrize("R,n,eta", [(2, 40, 0.3), (5, 100, 0.0), (10, 150, 0.8)])
    def test_moments_match_the_exact_law(self, R, n, eta):
        reps = 40_000
        h, t = _renewal(R, n, eta, reps, seed=31)
        pmf, mean_t, var_t = gf.exact_law_dp(R, eta, n)
        m = np.arange(len(pmf))
        mean_h = float(m @ pmf)
        central_h = m - mean_h
        var_h = float(central_h**2 @ pmf)
        mu4_h = float(central_h**4 @ pmf)
        mu4_t = float(np.mean((t - t.mean()) ** 4))  # no exact fourth moment of T
        for x, mean, var, mu4 in ((h.astype(float), mean_h, var_h, mu4_h),
                                  (t, mean_t, var_t, mu4_t)):
            assert abs(x.mean() - mean) <= 5 * math.sqrt(var / reps)
            assert abs(x.var(ddof=1) - var) <= 6 * math.sqrt((mu4 - var**2) / reps)


class TestMonteCarlo:
    def test_single_rep_equals_single_event(self):
        params, topo = TrickleParams(eta=0.0), LineTopology(n=20, R=3)
        ss = monte_carlo(params, topo, reps=1, seed=42, engine="protocol")
        tr = run_protocol_event(params, topo, seed=42)
        assert ss.h_samples[0] == tr.hop_count
        assert ss.t_samples[0] == tr.end_to_end_delay

    def test_replication_order_independent(self):
        params, topo = TrickleParams(eta=0.0), LineTopology(n=15, R=3)
        batch = monte_carlo(params, topo, reps=6, seed=5, engine="protocol")
        for rep in reversed(range(6)):
            tr = run_protocol_event(params, topo,
                                    rng=replication_stream(5, rep))
            assert batch.h_samples[rep] == tr.hop_count
            assert batch.t_samples[rep] == tr.end_to_end_delay

    def test_meta_fields(self):
        ss = monte_carlo(TrickleParams(eta=0.0), LineTopology(n=4, R=2),
                         reps=2, seed=3, engine="renewal")
        assert ss.meta == {"R": 2, "n": 4, "eta": 0.0, "k": 1, "reps": 2,
                           "seed": 3, "engine": "renewal"}
        assert len(ss) == 2

    def test_renewal_engine_requires_unit_redundancy(self):
        with pytest.raises(ValueError):
            monte_carlo(TrickleParams(k=2), LineTopology(n=4, R=2), reps=1,
                        engine="renewal")

    def test_protocol_matches_renewal_moments(self):
        params, topo = TrickleParams(eta=0.0), LineTopology(n=30, R=3)
        proto = monte_carlo(params, topo, reps=4000, seed=13, engine="protocol")
        renew = monte_carlo(params, topo, reps=4000, seed=14, engine="renewal")
        for a, b in ((proto.h_samples.astype(float), renew.h_samples.astype(float)),
                     (proto.t_samples, renew.t_samples)):
            se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            assert abs(a.mean() - b.mean()) <= 3 * se


class TestHoldingTimeLaw:
    def test_gap_between_hops_follows_shifted_beta(self):
        # collect (previous update size, gap) pairs from protocol traces and
        # KS-test each conditional law
        eta = 0.25
        params, topo = TrickleParams(eta=eta), LineTopology(n=60, R=4)
        gaps: dict[int, list[float]] = {u: [] for u in range(1, 5)}
        for seed in range(400):
            tr = run_protocol_event(params, topo, seed=seed)
            effective = [(t, u) for (t, _, u) in tr.broadcasts if u > 0]
            for (t0, u0), (t1, _) in zip(effective, effective[1:]):
                gaps[u0].append(t1 - t0)

        def cdf_factory(u):
            def cdf(t):
                t = np.asarray(t, dtype=float)
                y = np.clip((1.0 - t) / (1.0 - eta), 0.0, 1.0)
                return np.where(t < eta, 0.0, 1.0 - y**u)
            return cdf

        for u in range(1, 5):
            assert len(gaps[u]) > 200
            assert kstest(gaps[u], cdf_factory(u)).pvalue > 0.001


class TestKSDistance:
    def test_standard_normal_samples_close(self):
        x = norm.rvs(size=10_000, random_state=np.random.default_rng(5))
        assert ks_distance(x, (0.0, 1.0)) < 0.02

    def test_constant_samples_far(self):
        assert ks_distance(np.zeros(100), (0.5, 1.0)) >= 0.5

    def test_zero_spread_rejected(self):
        with pytest.raises(DegenerateInputError):
            ks_distance(np.ones(10), (0.0, 0.0))

    @pytest.mark.parametrize("center, spread, size", [
        (0.0, 1.0, 500),
        (0.0, 8.0, 10_000),  # tails: |z| up to 8, where the CDF is within 1e-15 of 0 or 1
        (-4.0, 4.0, 10_000),
        (4.0, 4.0, 10_000),
    ], ids=["body", "wide", "left-tail", "right-tail"])
    def test_matches_scipy(self, center, spread, size):
        z = norm.rvs(center, spread, size=size, random_state=np.random.default_rng(8))
        x = np.clip(z, -8.0, 8.0) * 2 + 1
        ours = ks_distance(x, (1.0, 2.0))
        ref = kstest((x - 1) / 2, "norm").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


class TestVarianceRateEstimate:
    def test_matches_matrix_formula(self):
        from tricklelab.analytics import asymptotic_stats
        est = estimate_time_variance_rate(5, 0.25, 200_000, seed=3)
        assert est == pytest.approx(asymptotic_stats(5, 0.25).gamma_theta_sq, rel=0.05)


def test_wavefront_validator_flags_out_of_block_sender():
    bad = PropagationTrace(
        update_time=[0.0, 0.4, 0.4, 0.9],
        broadcasts=[(0.4, 0, 2), (0.9, 0, 1)],  # second hop sent by node 0
        hop_count=2,
        end_to_end_delay=0.9,
        message_count=2,
    )
    assert not validate_wavefront(bad)
