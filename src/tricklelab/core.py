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

All transitions are pure: they take a NodeState and return a new one, and
randomness comes from an injected stream (anything with a ``uniform(a, b)``
method, e.g. random.Random or numpy Generator).  Drivers own scheduling; see
the event loop in :mod:`tricklelab.simulate`.
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
    """Per-node runtime state.

    Treated as immutable: transition functions return fresh instances.
    """

    tau: float
    c: int
    t: float
    interval_start: float
    version: int
    has_fired: bool


class Reaction(Enum):
    """Outcome of processing a received message."""

    CONSISTENT_HEARD = "consistent_heard"
    ADOPTED_UPDATE = "adopted_update"
    INCONSISTENCY_RESET = "inconsistency_reset"


# Module-level aliases: attribute access on an Enum class costs far more than
# a global lookup, and the transitions below run once per message.
_CONSISTENT = Reaction.CONSISTENT_HEARD
_ADOPTED = Reaction.ADOPTED_UPDATE
_RESET = Reaction.INCONSISTENCY_RESET


def quiet_state(params: TrickleParams) -> NodeState:
    """State of a node idling at tau = tau_h that has not seen any update."""
    return NodeState(
        tau=params.tau_h,
        c=0,
        t=params.tau_h,
        interval_start=0.0,
        version=0,
        has_fired=False,
    )


def start_interval(state: NodeState, params: TrickleParams, now: float, rng) -> NodeState:
    """Begin a new interval at `now`: reset c, redraw the broadcast offset.

    The offset window is [eta * tau, tau] when tau == tau_l and
    [tau / 2, tau] otherwise.
    """
    return _fresh_interval(state.tau, state.version, params, now, rng)


def _fresh_interval(tau: float, version: int, params: TrickleParams, now: float,
                    rng) -> NodeState:
    lo = params.eta * tau if tau == params.tau_l else 0.5 * tau
    return NodeState(tau, 0, rng.uniform(lo, tau), now, version, False)


def on_message(
    state: NodeState, params: TrickleParams, msg_version: int
) -> tuple[NodeState, Reaction]:
    """Process a received message carrying version `msg_version`.

    Consistent (equal version): increment c.  Newer version: adopt it and
    drop tau to tau_l; the caller must then start a new interval (see
    `needs_new_interval`).  Older version: drop tau to tau_l if currently
    above it (new interval required), otherwise no-op.
    """
    version = state.version
    if msg_version == version:
        return (
            NodeState(state.tau, state.c + 1, state.t, state.interval_start,
                      version, state.has_fired),
            _CONSISTENT,
        )
    if msg_version > version:
        return (
            NodeState(params.tau_l, state.c, state.t, state.interval_start,
                      msg_version, state.has_fired),
            _ADOPTED,
        )
    # Heard stale data: rebroadcast soon if we had slowed down.
    if state.tau > params.tau_l:
        return (
            NodeState(params.tau_l, state.c, state.t, state.interval_start,
                      version, state.has_fired),
            _RESET,
        )
    return state, _RESET


def needs_new_interval(old: NodeState, params: TrickleParams, reaction: Reaction) -> bool:
    """Whether the reaction returned by `on_message` requires a fresh interval.

    Adoption always resynchronizes (even at tau == tau_l); a reset only does
    when tau actually dropped.
    """
    if reaction is _CONSISTENT:
        return False
    return reaction is _ADOPTED or old.tau > params.tau_l


def on_timer(state: NodeState, params: TrickleParams) -> tuple[NodeState, int | None]:
    """Fire the broadcast timer: transmit the node's version iff fewer than k
    messages were heard, else return None."""
    fired = NodeState(state.tau, state.c, state.t, state.interval_start,
                      state.version, True)
    if state.c < params.k:
        return fired, state.version
    return fired, None


def on_interval_end(state: NodeState, params: TrickleParams, now: float, rng) -> NodeState:
    """Double tau (capped at tau_h) and start the next interval."""
    tau = 2.0 * state.tau
    if tau > params.tau_h:
        tau = params.tau_h
    return _fresh_interval(tau, state.version, params, now, rng)
