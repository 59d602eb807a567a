import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from tricklelab.core import (
    NodeState,
    Reaction,
    TAU_INFINITE,
    TrickleParams,
    needs_new_interval,
    on_interval_end,
    on_message,
    on_timer,
    start_interval,
)


def fresh(tau, version=0, c=0, now=0.0):
    return NodeState(tau=tau, c=c, t=tau, interval_start=now, version=version,
                     has_fired=False)


def deliver(state, params, version, now, rnd):
    """A message delivery as the event loop runs it: react, then restart the
    interval if the reaction calls for it."""
    out, reaction = on_message(state, params, version)
    restarted = needs_new_interval(state, params, reaction)
    if restarted:
        out = start_interval(out, params, now, rnd)
    return out, reaction, restarted


class TestParams:
    def test_defaults(self):
        p = TrickleParams()
        assert p.k == 1 and p.tau_l == 1.0 and p.tau_h == TAU_INFINITE and p.eta == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"tau_l": 0.0}, {"tau_l": 2.0, "tau_h": 1.0},
        {"eta": -0.1}, {"eta": 1.5}, {"tau_h": math.nan},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            TrickleParams(**kwargs)


class TestStartInterval:
    def test_no_listen_only_window_covers_whole_interval(self):
        p = TrickleParams(eta=0.0, tau_h=8.0)
        rnd = random.Random(1)
        draws = [start_interval(fresh(1.0), p, 0.0, rnd).t for _ in range(10_000)]
        assert all(0.0 <= t <= 1.0 for t in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.02

    def test_half_listen_only_matches_original_rule(self):
        p = TrickleParams(eta=0.5, tau_h=8.0)
        rnd = random.Random(2)
        draws = [start_interval(fresh(1.0), p, 0.0, rnd).t for _ in range(5_000)]
        assert all(0.5 <= t <= 1.0 for t in draws)

    def test_doubled_interval_keeps_half_window_even_with_eta_zero(self):
        p = TrickleParams(eta=0.0, tau_h=8.0)
        rnd = random.Random(3)
        draws = [start_interval(fresh(4.0), p, 0.0, rnd).t for _ in range(5_000)]
        assert all(2.0 <= t <= 4.0 for t in draws)

    def test_resets_counter_and_flags(self):
        p = TrickleParams(eta=0.25, tau_h=4.0)
        st = NodeState(tau=1.0, c=7, t=0.9, interval_start=-3.0, version=2,
                       has_fired=True)
        out = start_interval(st, p, 5.0, random.Random(0))
        assert out.c == 0 and not out.has_fired
        assert out.interval_start == 5.0 and out.version == 2

    @pytest.mark.parametrize("tau,eta", [(1.0, 0.0), (1.0, 0.3), (2.0, 0.0)])
    def test_offset_uniform_on_window(self, tau, eta):
        # chi-square on 20 equal bins of the drawing window
        p = TrickleParams(eta=eta, tau_h=8.0)
        rnd = random.Random(42)
        lo = eta * tau if tau == p.tau_l else tau / 2
        n = 100_000
        counts = [0] * 20
        width = tau - lo
        for _ in range(n):
            t = start_interval(fresh(tau), p, 0.0, rnd).t
            idx = min(int((t - lo) / width * 20), 19)
            counts[idx] += 1
        assert chisquare(counts).pvalue > 0.001


class TestOnMessage:
    p = TrickleParams(eta=0.0, tau_h=16.0)

    def test_consistent_increments_counter(self):
        st = fresh(1.0, version=0)
        out, reaction = on_message(st, self.p, 0)
        assert reaction is Reaction.CONSISTENT_HEARD
        assert out.c == 1 and out.interval_start == st.interval_start
        assert not needs_new_interval(st, self.p, reaction)

    def test_newer_version_adopted_from_slow_interval(self):
        st = fresh(16.0, version=0)
        out, reaction, restarted = deliver(st, self.p, 1, 2.5, random.Random(0))
        assert reaction is Reaction.ADOPTED_UPDATE and restarted
        assert out.version == 1 and out.tau == self.p.tau_l
        assert out.interval_start == 2.5 and out.c == 0

    def test_adoption_at_minimum_interval_still_resynchronizes(self):
        st = fresh(1.0, version=0, now=1.0)
        out, reaction, restarted = deliver(st, self.p, 3, 1.7, random.Random(1))
        assert restarted and out.interval_start == 1.7 and out.version == 3

    def test_stale_message_resets_slow_node(self):
        st = fresh(8.0, version=2)
        out, reaction, restarted = deliver(st, self.p, 0, 3.0, random.Random(2))
        assert reaction is Reaction.INCONSISTENCY_RESET and restarted
        assert out.tau == self.p.tau_l and out.version == 2

    def test_stale_message_ignored_at_minimum_interval(self):
        st = fresh(1.0, version=1, now=2.0)
        out, reaction, restarted = deliver(st, self.p, 0, 2.2, random.Random(3))
        assert reaction is Reaction.INCONSISTENCY_RESET and not restarted
        assert out == st


class TestOnTimer:
    def test_broadcasts_below_threshold(self):
        p = TrickleParams(k=1)
        st = fresh(1.0, version=5)
        out, version = on_timer(st, p)
        assert version == 5
        assert out.has_fired

    def test_suppressed_at_threshold(self):
        p = TrickleParams(k=1)
        out, version = on_timer(fresh(1.0, c=1), p)
        assert version is None and out.has_fired

    def test_higher_redundancy_allows_more(self):
        p = TrickleParams(k=2)
        _, version = on_timer(fresh(1.0, c=1), p)
        assert version is not None

    def test_own_broadcast_not_counted(self):
        p = TrickleParams(k=2)
        out, _ = on_timer(fresh(1.0, c=0), p)
        assert out.c == 0


class TestIntervalEnd:
    def test_doubles(self):
        p = TrickleParams(tau_h=4.0, eta=0.0)
        out = on_interval_end(fresh(1.0), p, 1.0, random.Random(0))
        assert out.tau == 2.0 and out.interval_start == 1.0

    def test_caps_at_maximum(self):
        p = TrickleParams(tau_l=1.0, tau_h=4.0)
        out = on_interval_end(fresh(3.0), p, 3.0, random.Random(0))
        assert out.tau == 4.0

    def test_maximum_is_fixed_point(self):
        p = TrickleParams(tau_h=4.0)
        out = on_interval_end(fresh(4.0), p, 4.0, random.Random(0))
        assert out.tau == 4.0

    def test_unbounded_keeps_doubling(self):
        p = TrickleParams(tau_h=TAU_INFINITE)
        out = on_interval_end(fresh(8.0), p, 8.0, random.Random(0))
        assert out.tau == 16.0


@settings(max_examples=200, deadline=None)
@given(
    tau_h_exp=st.integers(min_value=0, max_value=6),
    eta=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    steps=st.lists(st.sampled_from(["end", "adopt", "stale"]), max_size=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_tau_stays_on_doubling_ladder_and_t_in_window(tau_h_exp, eta, steps, seed):
    p = TrickleParams(tau_l=1.0, tau_h=float(2**tau_h_exp), eta=eta)
    rnd = random.Random(seed)
    st_node = start_interval(fresh(1.0, version=1), p, 0.0, rnd)
    now = 0.0
    version = 1
    ladder = {min(2.0**i, p.tau_h) for i in range(tau_h_exp + 2)}
    for step in steps:
        now += 0.25
        if step == "end":
            now = st_node.interval_start + st_node.tau
            st_node = on_interval_end(st_node, p, now, rnd)
        elif step == "adopt":
            version += 1
            st_node, _, _ = deliver(st_node, p, version, now, rnd)
        else:
            st_node, _, _ = deliver(st_node, p, 0, now, rnd)
        assert st_node.tau in ladder
        assert p.tau_l <= st_node.tau <= p.tau_h
        lo = eta * st_node.tau if st_node.tau == p.tau_l else st_node.tau / 2
        assert lo - 1e-12 <= st_node.t <= st_node.tau + 1e-12


def test_at_most_one_broadcast_per_interval():
    p = TrickleParams(k=1)
    st = fresh(1.0)
    st, version = on_timer(st, p)
    assert version is not None and st.has_fired
    # driver never re-fires within the interval; a fresh interval re-arms
    st2 = start_interval(st, p, 1.0, random.Random(0))
    assert not st2.has_fired


def test_eta_half_window_equals_original_for_every_tau():
    p = TrickleParams(eta=0.5, tau_h=8.0)
    rnd = random.Random(9)
    for tau in (1.0, 2.0, 4.0, 8.0):
        for _ in range(200):
            t = start_interval(fresh(tau), p, 0.0, rnd).t
            assert tau / 2 <= t <= tau


def test_transitions_do_not_mutate_input():
    p = TrickleParams(eta=0.0, tau_h=4.0)
    st = fresh(1.0, version=1)
    snapshot = NodeState(st.tau, st.c, st.t, st.interval_start, st.version,
                         st.has_fired)
    start_interval(st, p, 1.0, random.Random(0))
    on_message(st, p, 2)
    on_timer(st, p)
    on_interval_end(st, p, 1.0, random.Random(0))
    assert st == snapshot
