"""Traced runs: spans and counts around the public functions of each module.

Functions are wrapped where their callers look them up: core's functions in
the namespace of tricklelab.simulate, monte_carlo and ks_distance in that of
tricklelab.cli, analytics and gf functions on their modules (the CLI reaches
them as module attributes), geometric in the namespace of tricklelab.gf, and
TruncatedSeries multiplication on the class.  Nothing is recorded outside a
query, so the benchmark's own checks leave no trace.

Functions called once or a few times per query get a span each (name, start,
end, parent span, query).  Functions called per protocol step or per series
product are too many for spans; they are aggregated per name into a call
count and busy time, and their time is charged to the enclosing span so that
its self time stays right.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import tricklelab.analytics
import tricklelab.cli
import tricklelab.gf
import tricklelab.simulate
from tricklelab.series import TruncatedSeries

_SPANNED = [
    (tricklelab.cli, "monte_carlo", "simulate.monte_carlo"),
    (tricklelab.cli, "ks_distance", "simulate.ks_distance"),
    (tricklelab.simulate, "run_protocol_event", "simulate.run_protocol_event"),
    *[(tricklelab.analytics, f, f"analytics.{f}") for f in (
        "asymptotic_stats", "hop_rate", "delay_rate", "sigma_T_sq",
        "normal_approx", "minimize_delay_variance")],
    *[(tricklelab.gf, f, f"gf.{f}") for f in (
        "hop_pmf_gf", "delay_moments_gf", "hop_pmf_dp", "delay_moments_dp",
        "hop_master_series", "delay_master_series",
        "solve_hop_system", "solve_delay_system")],
    (tricklelab.gf, "geometric", "series.geometric"),
]

_AGGREGATED = [
    *[(tricklelab.simulate, f, f"core.{f}") for f in (
        "on_message", "on_timer", "start_interval", "on_interval_end",
        "needs_new_interval", "quiet_state")],
    (tricklelab.simulate, "replication_stream", "simulate.replication_stream"),
    (TruncatedSeries, "__mul__", "series.mul"),
    (TruncatedSeries, "__rmul__", "series.mul"),
]


class Tracer:
    """Records spans and counts while attached and inside a query."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()   # outcomes read from arguments and results
        self._stack: list[list] = []       # [span id, name, start, child seconds]
        self._query: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def attach(self) -> None:
        for owner, attr, name in _SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        for owner, attr, name in _AGGREGATED:
            self._patch(owner, attr, self._aggregated(name, getattr(owner, attr)))

    def detach(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- recording ---------------------------------------------------------

    def query(self, query_id: str, call):
        """Run `call()` as the root span `cli.main` of one query."""
        self._query = query_id
        try:
            return self._span("cli.main", call)
        finally:
            self._query = None

    def _span(self, name, call):
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can name it
        frame = [span_id, name, time.perf_counter(), 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        try:
            return call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            if self._stack:
                self._stack[-1][3] += duration
            self.spans[span_id] = {
                "id": span_id, "parent": parent, "query": self._query, "name": name,
                "start": frame[2], "end": end, "self_s": duration - frame[3],
            }

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._query is None:
                return fn(*args, **kwargs)
            result = self._span(name, lambda: fn(*args, **kwargs))
            if name == "simulate.run_protocol_event":
                self.counts["broadcasts"] += result.message_count
                self.counts["hops"] += result.hop_count
            return result
        return wrapper

    def _aggregated(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._query is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            duration = time.perf_counter() - start
            self.calls[name] += 1
            self.seconds[name] += duration
            if self._stack:
                self._stack[-1][3] += duration
            if name == "core.on_timer" and result[1] is None:
                self.counts["suppressed_timers"] += 1
            elif name == "series.mul":
                other = args[1]
                size = other.coeffs.size if isinstance(other, TruncatedSeries) else 1
                self.counts["mul_coeff_products"] += args[0].coeffs.size * size
            return result
        return wrapper

    # -- reporting ---------------------------------------------------------

    def _span_sum(self, name: str, field: str = "duration") -> float:
        total = 0.0
        for s in self.spans:
            if s["name"] == name:
                total += s["self_s"] if field == "self" else s["end"] - s["start"]
        return total

    def _layer_busy(self, layer: str) -> float:
        """Time inside the layer's outermost spans (nested calls counted once)."""
        names = {s["id"]: s["name"] for s in self.spans}
        prefix = layer + "."
        return sum(
            (s["end"] - s["start"] for s in self.spans
            if s["name"].startswith(prefix)
            and not (s["parent"] is not None and names[s["parent"]].startswith(prefix))),
            0.0,
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); a ratio with no base reads 0."""
        ratio = lambda a, b: a / b if b else 0.0
        core = [n for n in self.calls if n.startswith("core.")]
        events = sum(1 for s in self.spans if s["name"] == "simulate.run_protocol_event")
        return {
            "core.on_message_calls": (self.calls["core.on_message"], "count"),
            "core.on_timer_calls": (self.calls["core.on_timer"], "count"),
            "core.start_interval_calls": (self.calls["core.start_interval"], "count"),
            "core.on_interval_end_calls": (self.calls["core.on_interval_end"], "count"),
            "core.busy_s": (float(sum(self.seconds[n] for n in core)), "s"),
            "core.suppressed_timer_ratio": (ratio(self.counts["suppressed_timers"],
                                                  self.calls["core.on_timer"]), "ratio"),
            "simulate.run_protocol_event_self_s": (
                self._span_sum("simulate.run_protocol_event", "self"), "s"),
            "simulate.broadcasts_per_event": (ratio(self.counts["broadcasts"], events),
                                              "broadcasts/event"),
            "simulate.useful_broadcast_ratio": (ratio(self.counts["hops"], self.counts["broadcasts"]),
                                                "ratio"),
            "simulate.replication_stream_calls": (self.calls["simulate.replication_stream"], "count"),
            "simulate.replication_stream_s": (float(self.seconds["simulate.replication_stream"]), "s"),
            "simulate.monte_carlo_self_s": (self._span_sum("simulate.monte_carlo", "self"), "s"),
            "simulate.ks_distance_s": (self._span_sum("simulate.ks_distance"), "s"),
            "analytics.asymptotic_stats_calls": (
                sum(1 for s in self.spans if s["name"] == "analytics.asymptotic_stats"), "count"),
            "analytics.busy_s": (self._layer_busy("analytics"), "s"),
            "series.mul_calls": (self.calls["series.mul"], "count"),
            "series.mul_s": (float(self.seconds["series.mul"]), "s"),
            "series.mul_coeff_products": (self.counts["mul_coeff_products"], "count"),
            "series.geometric_s": (self._span_sum("series.geometric"), "s"),
            "gf.solve_hop_system_self_s": (self._span_sum("gf.solve_hop_system", "self"), "s"),
            "gf.solve_delay_system_self_s": (self._span_sum("gf.solve_delay_system", "self"), "s"),
            "gf.hop_pmf_dp_s": (self._span_sum("gf.hop_pmf_dp"), "s"),
            "gf.delay_moments_dp_s": (self._span_sum("gf.delay_moments_dp"), "s"),
            "cli.self_s": (self._span_sum("cli.main", "self"), "s"),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "aggregated": {n: {"calls": self.calls[n], "seconds": self.seconds[n]}
                               for n in sorted(self.calls)},
                "counts": dict(self.counts),
            }, fh)
