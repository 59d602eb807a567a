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
    quiet_state,
    start_interval,
)

J = 1  # the node the transitions act on, with a neighbour on each side


def line(tau, version=0, c=0, now=0.0):
    """Three nodes, each at tau in an interval that started at `now`."""
    return NodeState(tau=[tau] * 3, c=[c] * 3, interval_start=[now] * 3, version=[version] * 3)


def entry(s, j=J):
    return (s.tau[j], s.c[j], s.interval_start[j], s.version[j])


def deliver(s, params, version, now, rnd):
    """A message delivery to node J as the event loop runs it: react, then
    restart the interval if the reaction calls for it."""
    reaction = on_message(s, J, params, version)
    restarted = needs_new_interval(reaction)
    if restarted:
        start_interval(s, J, params, now, rnd)
    return reaction, restarted


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
        s = line(1.0)
        draws = [start_interval(s, J, p, 0.0, rnd) for _ in range(10_000)]
        assert all(0.0 <= t <= 1.0 for t in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.02

    def test_half_listen_only_matches_original_rule(self):
        p = TrickleParams(eta=0.5, tau_h=8.0)
        rnd = random.Random(2)
        s = line(1.0)
        draws = [start_interval(s, J, p, 0.0, rnd) for _ in range(5_000)]
        assert all(0.5 <= t <= 1.0 for t in draws)

    def test_doubled_interval_keeps_half_window_even_with_eta_zero(self):
        p = TrickleParams(eta=0.0, tau_h=8.0)
        rnd = random.Random(3)
        s = line(4.0)
        draws = [start_interval(s, J, p, 0.0, rnd) for _ in range(5_000)]
        assert all(2.0 <= t <= 4.0 for t in draws)

    def test_resets_counter_and_flags(self):
        p = TrickleParams(eta=0.25, tau_h=4.0)
        s = NodeState(tau=[1.0] * 3, c=[7] * 3, interval_start=[-3.0] * 3, version=[2] * 3)
        t = start_interval(s, J, p, 5.0, random.Random(0))
        assert s.c[J] == 0
        assert s.interval_start[J] == 5.0 and s.version[J] == 2
        assert 0.25 <= t <= 1.0 and s.tau[J] == 1.0

    @pytest.mark.parametrize("tau,eta", [(1.0, 0.0), (1.0, 0.3), (2.0, 0.0)])
    def test_offset_uniform_on_window(self, tau, eta):
        # chi-square on 20 equal bins of the drawing window
        p = TrickleParams(eta=eta, tau_h=8.0)
        rnd = random.Random(42)
        lo = eta * tau if tau == p.tau_l else tau / 2
        n = 100_000
        counts = [0] * 20
        width = tau - lo
        s = line(tau)
        for _ in range(n):
            t = start_interval(s, J, p, 0.0, rnd)
            idx = min(int((t - lo) / width * 20), 19)
            counts[idx] += 1
        assert chisquare(counts).pvalue > 0.001


class TestOnMessage:
    p = TrickleParams(eta=0.0, tau_h=16.0)

    def test_consistent_increments_counter(self):
        s = line(1.0, version=0)
        reaction = on_message(s, J, self.p, 0)
        assert reaction is Reaction.CONSISTENT_HEARD
        assert s.c[J] == 1 and s.interval_start[J] == 0.0
        assert not needs_new_interval(reaction)

    def test_newer_version_adopted_from_slow_interval(self):
        s = line(16.0, version=0)
        reaction, restarted = deliver(s, self.p, 1, 2.5, random.Random(0))
        assert reaction is Reaction.ADOPTED_UPDATE and restarted
        assert s.version[J] == 1 and s.tau[J] == self.p.tau_l
        assert s.interval_start[J] == 2.5 and s.c[J] == 0

    def test_adoption_at_minimum_interval_still_resynchronizes(self):
        s = line(1.0, version=0, now=1.0)
        reaction, restarted = deliver(s, self.p, 3, 1.7, random.Random(1))
        assert restarted and s.interval_start[J] == 1.7 and s.version[J] == 3

    def test_stale_message_resets_slow_node(self):
        s = line(8.0, version=2)
        reaction, restarted = deliver(s, self.p, 0, 3.0, random.Random(2))
        assert reaction is Reaction.INCONSISTENCY_RESET and restarted
        assert s.tau[J] == self.p.tau_l and s.version[J] == 2

    def test_stale_message_ignored_at_minimum_interval(self):
        s = line(1.0, version=1, now=2.0)
        before = entry(s)
        reaction, restarted = deliver(s, self.p, 0, 2.2, random.Random(3))
        assert reaction is Reaction.STALE_IGNORED and not restarted
        assert entry(s) == before


class TestOnTimer:
    def test_broadcasts_below_threshold(self):
        p = TrickleParams(k=1)
        s = line(1.0, version=5, now=2.0)
        end, version = on_timer(s, J, p)
        assert version == 5 and end == 3.0

    def test_suppressed_at_threshold(self):
        p = TrickleParams(k=1)
        s = line(1.0, c=1)
        _, version = on_timer(s, J, p)
        assert version is None

    def test_higher_redundancy_allows_more(self):
        p = TrickleParams(k=2)
        _, version = on_timer(line(1.0, c=1), J, p)
        assert version is not None

    def test_own_broadcast_not_counted(self):
        p = TrickleParams(k=2)
        s = line(1.0, c=0)
        on_timer(s, J, p)
        assert s.c[J] == 0


class TestIntervalEnd:
    def test_doubles(self):
        p = TrickleParams(tau_h=4.0, eta=0.0)
        s = line(1.0)
        t = on_interval_end(s, J, p, 1.0, random.Random(0))
        assert s.tau[J] == 2.0 and s.interval_start[J] == 1.0
        assert 1.0 <= t <= 2.0

    def test_caps_at_maximum(self):
        p = TrickleParams(tau_l=1.0, tau_h=4.0)
        s = line(3.0)
        on_interval_end(s, J, p, 3.0, random.Random(0))
        assert s.tau[J] == 4.0

    def test_maximum_is_fixed_point(self):
        p = TrickleParams(tau_h=4.0)
        s = line(4.0)
        on_interval_end(s, J, p, 4.0, random.Random(0))
        assert s.tau[J] == 4.0

    def test_unbounded_keeps_doubling(self):
        p = TrickleParams(tau_h=TAU_INFINITE)
        s = line(8.0)
        on_interval_end(s, J, p, 8.0, random.Random(0))
        assert s.tau[J] == 16.0


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
    s = line(1.0, version=1)
    t = start_interval(s, J, p, 0.0, rnd)
    now = 0.0
    version = 1
    ladder = {min(2.0**i, p.tau_h) for i in range(tau_h_exp + 2)}
    for step in steps:
        now += 0.25
        if step == "end":
            now = s.interval_start[J] + s.tau[J]
            t = on_interval_end(s, J, p, now, rnd)
        else:
            version += step == "adopt"
            if needs_new_interval(on_message(s, J, p, version if step == "adopt" else 0)):
                t = start_interval(s, J, p, now, rnd)
        tau = s.tau[J]
        assert tau in ladder
        assert p.tau_l <= tau <= p.tau_h
        lo = eta * tau if tau == p.tau_l else tau / 2
        assert lo - 1e-12 <= t <= tau + 1e-12


def test_at_most_one_broadcast_per_interval():
    # on_timer hands the driver the end of the interval, the next event it
    # queues for the node, so a timer fires once per interval; a message heard
    # suppresses the next timer (k = 1) until a fresh interval re-arms it
    p = TrickleParams(k=1)
    s = line(1.0, now=2.0)
    end, version = on_timer(s, J, p)
    assert version is not None and end == 3.0
    on_message(s, J, p, version)
    assert on_timer(s, J, p)[1] is None
    start_interval(s, J, p, end, random.Random(0))
    assert on_timer(s, J, p) == (4.0, version)


def test_eta_half_window_equals_original_for_every_tau():
    p = TrickleParams(eta=0.5, tau_h=8.0)
    rnd = random.Random(9)
    for tau in (1.0, 2.0, 4.0, 8.0):
        s = line(tau)
        for _ in range(200):
            t = start_interval(s, J, p, 0.0, rnd)
            assert tau / 2 <= t <= tau


@pytest.mark.parametrize("transition", [
    "start_interval", "on_interval_end", "on_timer",
    "consistent", "adopt", "stale_reset", "stale_ignored",
])
def test_transitions_write_only_entry_j(transition):
    # from quiet_state, whose lists repeat one value per field: a write must
    # replace node J's slot and leave its neighbours as they were
    p = TrickleParams(eta=0.0, tau_h=4.0)
    s = quiet_state(p, 3)
    if transition in ("consistent", "stale_reset", "stale_ignored"):
        s.version[J] = 1
    if transition == "stale_ignored":
        s.tau[J] = p.tau_l
    neighbours = [entry(s, 0), entry(s, 2)]
    lists = [s.tau, s.c, s.interval_start, s.version]
    before = entry(s)
    rnd = random.Random(0)
    if transition == "start_interval":
        start_interval(s, J, p, 1.0, rnd)
    elif transition == "on_interval_end":
        on_interval_end(s, J, p, 1.0, rnd)
    elif transition == "on_timer":
        on_timer(s, J, p)
    else:
        on_message(s, J, p, {"consistent": 1, "adopt": 1}.get(transition, 0))
    assert [entry(s, 0), entry(s, 2)] == neighbours
    assert all(a is b for a, b in zip(
        [s.tau, s.c, s.interval_start, s.version], lists))
    assert all(len(x) == 3 for x in lists)
    # a timer changes no state: the driver keeps its interval end
    assert (entry(s) == before) == (transition in ("stale_ignored", "on_timer"))
