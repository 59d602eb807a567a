"""Line-network propagation: event-driven protocol runs and fast renewal sampling.

One propagation event: n + 1 nodes at unit spacing, broadcast range R, all
idle at tau = tau_h until an update appears at node 0 at time 0.  The
simulator replays the full per-node state machine from :mod:`tricklelab.core`
through a time-ordered event queue.  The renewal engine draws the same
(hop count, delay) law directly from the update-size chain, which is exact
for k = 1 with unbounded tau_h and orders of magnitude cheaper.

The two engines split their random streams differently.  The protocol
engine draws each replication from its own stream, derived from (seed,
replication index), so a protocol sample does not depend on execution order.
The renewal engine samples replications in lockstep, in blocks of
RENEWAL_BLOCK lanes: block b draws from a generator derived from (seed, b),
so a full block's samples do not depend on `reps` or on the other blocks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

# perfbench/tracer.py wraps these names where the event loop looks them up,
# in this module's namespace: keep them here (needs_new_interval too, whose
# test the loop inlines), with one call per delivery, timer, restart and
# interval end.
from .core import (
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

_KIND_TIMER = 0
_KIND_INTERVAL_END = 1

# Lanes per renewal block: the unit of the renewal engine's random streams,
# and the bound on its working memory.
RENEWAL_BLOCK = 1 << 14


class NonTerminationError(RuntimeError):
    """The propagation event exceeded its simulation horizon."""


class DegenerateInputError(ValueError):
    """Input with no usable statistical content (e.g. zero spread)."""


@dataclass(slots=True)
class LineTopology:
    """n + 1 nodes on a line; a broadcast from i reaches |i - j| <= R."""

    n: int
    R: int

    def __post_init__(self) -> None:
        if not self.n >= 1 or self.n % 1:  # also rejects NaN and infinity
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not self.R >= 1 or self.R % 1:
            raise ValueError(f"R must be a positive integer, got {self.R}")

    def receivers(self, sender: int) -> range:
        lo = sender - self.R if sender >= self.R else 0
        hi = min(sender + self.R, self.n)
        return range(lo, hi + 1)


@dataclass(slots=True)
class PropagationTrace:
    """One propagation event: per-node update times and every transmission."""

    update_time: list[float]
    broadcasts: list[tuple[float, int, int]]
    hop_count: int
    end_to_end_delay: float
    message_count: int

    def to_dict(self) -> dict:
        return {
            "update_time": self.update_time,
            "broadcasts": [[t, s, u] for (t, s, u) in self.broadcasts],
            "hop_count": self.hop_count,
            "end_to_end_delay": self.end_to_end_delay,
            "message_count": self.message_count,
        }


@dataclass(slots=True)
class SampleSet:
    """Monte Carlo (hop count, delay) samples plus the generating config."""

    h_samples: np.ndarray
    t_samples: np.ndarray
    meta: dict

    def __len__(self) -> int:
        return len(self.h_samples)


def replication_stream(seed: int, rep: int = 0) -> random.Random:
    """Deterministic per-replication stream; independent across rep indices."""
    raw = np.random.SeedSequence([int(seed), int(rep)]).generate_state(2, np.uint64)
    return random.Random(int(raw[0]) << 64 | int(raw[1]))


def run_protocol_event(
    params: TrickleParams,
    topo: LineTopology,
    seed: int = 0,
    horizon: float | None = None,
    rng: random.Random | None = None,
) -> PropagationTrace:
    """Simulate one full protocol propagation event until node n updates.

    Node 0 holds the new version at time 0 and behaves as freshly updated
    (tau = tau_l, broadcast offset in [eta * tau_l, tau_l]).  Ties in the
    event queue break by (time, node, kind) with message deliveries applied
    synchronously inside the broadcast, receivers in ascending node order.
    """
    n, R = topo.n, topo.R
    if horizon is None:
        horizon = 10.0 * n * params.tau_l
    rnd = rng if rng is not None else replication_stream(seed, 0)

    inf = math.inf
    s = quiet_state(params, n + 1)
    epochs = [0] * (n + 1)
    heap: list[tuple[float, int, int, int]] = []
    push, pop = heappush, heappop
    adopted, reset = Reaction.ADOPTED_UPDATE, Reaction.INCONSISTENCY_RESET

    # An interval's end is queued only once its timer has fired: it never
    # precedes the timer (t <= tau, and kind breaks the tie), and a restart
    # before the timer fires would make it stale anyway.  So a fresh interval
    # queues just its timer.

    # Node 0: freshly updated at time 0.
    s.tau[0] = params.tau_l
    s.version[0] = 1
    push(heap, (start_interval(s, 0, params, 0.0, rnd), 0, _KIND_TIMER, 0))

    if params.tau_h != TAU_INFINITE:
        # Idle nodes sit mid-interval at tau_h with arbitrary phase.
        for j in range(1, n + 1):
            phase = params.tau_h * rnd.random()  # rnd.uniform(0.0, tau_h)
            t = start_interval(s, j, params, -phase, rnd)
            if t < phase:  # its broadcast offset already passed
                push(heap, (-phase + s.tau[j], j, _KIND_INTERVAL_END, 0))
            else:
                push(heap, (-phase + t, j, _KIND_TIMER, 0))

    update_time = [inf] * (n + 1)
    update_time[0] = 0.0
    broadcasts: list[tuple[float, int, int]] = []
    hop_count = 0

    while heap:
        now, node, kind, ep = pop(heap)
        if ep != epochs[node]:
            continue
        if now > horizon:
            done = sum(1 for t in update_time if t < inf)
            raise NonTerminationError(
                f"no full propagation by t={horizon:g}: {done}/{n + 1} nodes "
                f"updated (k={params.k}, tau_h={params.tau_h}, R={R}, n={n})"
            )
        if kind == _KIND_TIMER:
            end, version = on_timer(s, node, params)
            push(heap, (end, node, _KIND_INTERVAL_END, ep))
            if version is None:
                continue
            updated = 0
            for j in topo.receivers(node):
                if j == node:
                    continue
                reaction = on_message(s, j, params, version)
                if reaction is adopted or reaction is reset:  # needs_new_interval(reaction)
                    epochs[j] += 1
                    push(heap, (now + start_interval(s, j, params, now, rnd), j,
                                _KIND_TIMER, epochs[j]))
                    if reaction is adopted:
                        updated += 1
                        update_time[j] = now
            broadcasts.append((now, node, updated))
            if updated:
                hop_count += 1
            if update_time[n] < inf:
                break
        else:
            push(heap, (now + on_interval_end(s, node, params, now, rnd), node,
                        _KIND_TIMER, ep))

    if update_time[n] == inf:
        raise NonTerminationError("event queue drained before node n updated")
    return PropagationTrace(
        update_time=update_time,
        broadcasts=broadcasts,
        hop_count=hop_count,
        end_to_end_delay=update_time[n],
        message_count=len(broadcasts),
    )


def _renewal_samples(R: int, n: int, eta: float, reps: int,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """reps chain samples, cut into blocks of RENEWAL_BLOCK lanes."""
    # From size 1 the next size is R, which covers n in one hop for any
    # R >= n: min(R, n) draws the same samples and keeps R in an int64.
    R = min(R, n)
    h = np.empty(reps, dtype=np.int64)
    t = np.empty(reps, dtype=float)
    for b, lo in enumerate(range(0, reps, RENEWAL_BLOCK)):
        hi = min(lo + RENEWAL_BLOCK, reps)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), b]))
        _renewal_block(rng, R, n, eta, h[lo:hi], t[lo:hi])
    return h, t


def _renewal_block(rng: np.random.Generator, R: int, n: int, eta: float,
                   h_out: np.ndarray, t_out: np.ndarray) -> None:
    """Run len(h_out) chains in lockstep until each covers n nodes.

    Every step draws a (2, live) uniform array for the live lanes: row 0
    gives the holding time, row 1 the next update size.  The live set and
    the size path never depend on eta, so neither does the hop count.
    """
    spread = 1.0 - eta
    lane = np.arange(len(h_out))
    u = np.ones(len(h_out), dtype=np.int64)
    covered = np.zeros(len(h_out), dtype=np.int64)
    t = np.zeros(len(h_out))
    hops = 0
    while lane.size:
        x = rng.random((2, lane.size))
        t += eta + spread * (1.0 - x[0] ** (1.0 / u))
        u = R - (u * x[1]).astype(np.int64)
        covered += u
        hops += 1
        done = covered >= n
        if done.any():
            h_out[lane[done]] = hops
            t_out[lane[done]] = t[done]
            live = ~done
            lane, u, covered, t = lane[live], u[live], covered[live], t[live]


def monte_carlo(
    params: TrickleParams,
    topo: LineTopology,
    reps: int,
    seed: int = 0,
    engine: str = "protocol",
) -> SampleSet:
    """reps independent propagation events.

    The protocol engine runs replication rep on the stream derived from
    (seed, rep), so each of its samples is independent of the order they are
    drawn in.  The renewal engine samples blocks of RENEWAL_BLOCK
    replications in lockstep, block b from a generator derived from
    (seed, b); replications 0 .. RENEWAL_BLOCK - 1 come out the same for
    every reps >= RENEWAL_BLOCK.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if engine not in ("protocol", "renewal"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "renewal" and (params.k != 1 or params.tau_h != TAU_INFINITE):
        raise ValueError("the renewal engine models k = 1 with unbounded tau_h only")
    if engine == "renewal":
        h, t = _renewal_samples(topo.R, topo.n, params.eta, reps, seed)
    else:
        h = np.empty(reps, dtype=np.int64)
        t = np.empty(reps, dtype=float)
        for rep in range(reps):
            trace = run_protocol_event(params, topo, rng=replication_stream(seed, rep))
            h[rep], t[rep] = trace.hop_count, trace.end_to_end_delay
    meta = {
        "R": topo.R,
        "n": topo.n,
        "eta": params.eta,
        "k": params.k,
        "reps": reps,
        "seed": seed,
        "engine": engine,
    }
    return SampleSet(h_samples=h, t_samples=t, meta=meta)


def ks_distance(samples, standardization: tuple[float, float]) -> float:
    """Sup distance between standardized samples' empirical CDF and N(0, 1)."""
    mean, std = standardization
    if not std > 0.0:  # also rejects NaN
        raise DegenerateInputError(f"standard deviation must be positive, got {std}")
    x = np.sort((np.asarray(samples, dtype=float) - mean) / std)
    if len(x) == 0:
        raise DegenerateInputError("no samples")
    z = -x / math.sqrt(2.0)
    cdf = 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, len(z))  # N(0, 1) CDF
    grid = np.arange(len(x) + 1) / len(x)
    return float(max(np.max(cdf - grid[:-1]), np.max(grid[1:] - cdf)))
