"""Trickle node state machine with a configurable listen-only fraction.

Implements the classic "polite gossip" rules: each node runs intervals of
length tau (doubling up to tau_h, reset to tau_l on inconsistency), counts
consistent messages heard during the interval, and broadcasts once per
interval at a random offset t unless suppressed by the redundancy constant k.

The variation implemented here replaces the fixed half-interval listen-only
period at tau = tau_l: the broadcast offset is drawn uniformly from
[eta * tau, tau] instead of [tau / 2, tau].  eta = 1/2 recovers the original
algorithm; eta = 0 lets freshly updated nodes rebroadcast immediately.
Intervals at tau > tau_l always keep the original [tau / 2, tau] window.

The state of a line of nodes is a struct of arrays (`NodeState`, one list
per field, one entry per node).  A transition updates entry j in place and
returns only what the event loop needs.  Randomness comes from an injected
stream with a ``random()`` method (e.g. random.Random or numpy Generator):
an offset on [lo, hi] is ``lo + (hi - lo) * random()``, the value that
random.Random.uniform(lo, hi) returns.  Drivers own scheduling; see the
event loop in :mod:`tricklelab.simulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Sentinel for an unbounded maximum interval: nodes whose tau reached this
# value never schedule timer or interval-end events.
TAU_INFINITE = math.inf


@dataclass(slots=True)
class TrickleParams:
    """Protocol configuration: redundancy constant k, interval bounds, eta."""

    k: int = 1
    tau_l: float = 1.0
    tau_h: float = TAU_INFINITE
    eta: float = 0.5

    def __post_init__(self) -> None:
        if self.k < 1 or int(self.k) != self.k:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not self.tau_l > 0:
            raise ValueError(f"tau_l must be positive, got {self.tau_l}")
        if not self.tau_h >= self.tau_l:  # also rejects NaN
            raise ValueError(f"need tau_l <= tau_h, got {self.tau_l} > {self.tau_h}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


@dataclass(slots=True)
class NodeState:
    """Runtime state of every node of a line: entry j of each list is node j's."""

    tau: list[float]
    c: list[int]
    t: list[float]
    interval_start: list[float]
    version: list[int]
    has_fired: list[bool]


class Reaction(Enum):
    """Outcome of processing a received message."""

    CONSISTENT_HEARD = "consistent_heard"
    ADOPTED_UPDATE = "adopted_update"
    INCONSISTENCY_RESET = "inconsistency_reset"
    STALE_IGNORED = "stale_ignored"


# Module-level aliases: attribute access on an Enum class costs far more than
# a global lookup, and the transitions below run once per message.
_CONSISTENT = Reaction.CONSISTENT_HEARD
_ADOPTED = Reaction.ADOPTED_UPDATE
_RESET = Reaction.INCONSISTENCY_RESET
_STALE = Reaction.STALE_IGNORED


def quiet_state(params: TrickleParams, size: int) -> NodeState:
    """State of `size` nodes idling at tau = tau_h that have not seen any update."""
    tau_h = params.tau_h
    return NodeState([tau_h] * size, [0] * size, [tau_h] * size, [0.0] * size,
                     [0] * size, [False] * size)


def start_interval(s: NodeState, j: int, params: TrickleParams, now: float, rng) -> float:
    """Begin node j's new interval at `now`: reset c, redraw and return the
    broadcast offset t.

    The offset window is [eta * tau, tau] when tau == tau_l and
    [tau / 2, tau] otherwise.
    """
    tau = s.tau[j]
    lo = params.eta * tau if tau == params.tau_l else 0.5 * tau
    t = lo + (tau - lo) * rng.random()
    s.c[j] = 0
    s.t[j] = t
    s.interval_start[j] = now
    s.has_fired[j] = False
    return t


def on_message(s: NodeState, j: int, params: TrickleParams, msg_version: int) -> Reaction:
    """Node j receives a message carrying version `msg_version`.

    Consistent (equal version): increment c.  Newer version: adopt it and
    drop tau to tau_l.  Older version: drop tau to tau_l if currently above
    it (INCONSISTENCY_RESET), otherwise ignore it (STALE_IGNORED).  After an
    adoption or a reset the caller must start a new interval (see
    `needs_new_interval`).
    """
    version = s.version[j]
    if msg_version == version:
        s.c[j] += 1
        return _CONSISTENT
    if msg_version > version:
        s.version[j] = msg_version
        s.tau[j] = params.tau_l
        return _ADOPTED
    # Heard stale data: rebroadcast soon if we had slowed down.
    if s.tau[j] > params.tau_l:
        s.tau[j] = params.tau_l
        return _RESET
    return _STALE


def needs_new_interval(reaction: Reaction) -> bool:
    """Whether the reaction returned by `on_message` requires a fresh interval:
    adoption always resynchronizes (even at tau == tau_l), a reset is returned
    only when tau actually dropped."""
    return reaction is _ADOPTED or reaction is _RESET


def on_timer(s: NodeState, j: int, params: TrickleParams) -> tuple[float, int | None]:
    """Fire node j's broadcast timer.  Returns the end time of its interval
    and the version it transmits: its own iff fewer than k messages were
    heard, else None."""
    s.has_fired[j] = True
    end = s.interval_start[j] + s.tau[j]
    if s.c[j] < params.k:
        return end, s.version[j]
    return end, None


def on_interval_end(s: NodeState, j: int, params: TrickleParams, now: float, rng) -> float:
    """Double node j's tau (capped at tau_h) and start its next interval;
    returns the new broadcast offset."""
    tau = 2.0 * s.tau[j]
    s.tau[j] = tau if tau <= params.tau_h else params.tau_h
    return start_interval(s, j, params, now, rng)
