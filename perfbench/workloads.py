"""The benchmark's workloads: rounds of tricklelab command-line queries.

A run repeats whole rounds.  Round r of a workload holds the same slots in
every run; what changes from round to round is drawn from
Random((workload, seed, r)): the simulation seeds, and eta for the exact and
asymptotic queries.  The cost of a slot hardly depends on those draws, so the
work of a round does not depend on the seed.  Replication counts are chosen so
that the slots of a Monte Carlo workload take about the same time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Query:
    slot: str                 # the query's place in the round
    command: str
    params: dict = field(default_factory=dict)
    output_format: str = "json"

    def argv(self, out_path: str) -> list[str]:
        argv = [self.command]
        for key, value in self.params.items():
            flag = "--tau-h" if key == "tau_h" else f"--{key}"
            argv += [flag, "inf" if value == math.inf else str(value)]
        return argv + ["--format", self.output_format, "--out", out_path]


INF = math.inf

# protocol_mix: the paper's model (k = 1, unbounded tau_h) on a sparse and a
# dense line, then maintenance traffic where idle nodes at a finite tau_h
# gossip the stale version.  (R, eta, k, tau_h, reps); n = 100 throughout.
PROTOCOL_N = 100
PROTOCOL_CONFIGS = [
    (5, 0.0, 1, INF, 170),
    (5, 0.5, 1, INF, 120),
    (30, 0.0, 1, INF, 400),
    (30, 0.5, 1, INF, 270),
    (5, 0.5, 1, 4.0, 60),
    (5, 0.0, 2, 8.0, 100),
    (30, 0.5, 1, 16.0, 170),
    (30, 0.5, 3, 4.0, 90),
]

# renewal_mc: the delay-ratio configurations, simulate and compare each.
RENEWAL_N = 250
RENEWAL_CONFIGS = [(5, 0.0, 6000), (5, 0.5, 6000), (30, 0.0, 10000), (30, 0.5, 10000)]

# exact_laws: transform route on small networks, DP route at large n, and the
# asymptotic queries.
GF_CONFIGS = [(2, 40), (3, 30), (4, 25), (5, 20)]
EXACT_CONFIGS = [(2, 1500), (5, 1500), (10, 1000)]
ASYMPTOTIC_R = [2, 5, 10, 30]

WARMUP = {
    "protocol_mix": Query("warmup", "simulate", {"R": 5, "n": 20, "eta": 0.5, "reps": 5,
                                                 "seed": 0, "engine": "protocol"}, "csv"),
    "renewal_mc": Query("warmup", "simulate", {"R": 5, "n": 50, "eta": 0.5, "reps": 100,
                                               "seed": 0, "engine": "renewal"}, "csv"),
    "exact_laws": Query("warmup", "gf", {"R": 2, "n": 10, "eta": 0.5}),
}


def _protocol_mix(rng: random.Random) -> list[Query]:
    out = []
    for R, eta, k, tau_h, reps in PROTOCOL_CONFIGS:
        slot = f"protocol-R{R}-eta{eta}-k{k}-tauh{tau_h}"
        out.append(Query(slot, "simulate", {
            "R": R, "n": PROTOCOL_N, "eta": eta, "reps": reps,
            "seed": rng.randrange(2**31), "engine": "protocol", "k": k, "tau_h": tau_h,
        }, "csv"))
    return out


def _renewal_mc(rng: random.Random) -> list[Query]:
    out = []
    for command, fmt in (("simulate", "csv"), ("compare", "json")):
        for R, eta, reps in RENEWAL_CONFIGS:
            out.append(Query(f"{command}-R{R}-eta{eta}", command, {
                "R": R, "n": RENEWAL_N, "eta": eta, "reps": reps,
                "seed": rng.randrange(2**31), "engine": "renewal",
            }, fmt))
    return out


def _exact_laws(rng: random.Random) -> list[Query]:
    out = []
    for R, n in GF_CONFIGS:
        out.append(Query(f"gf-R{R}-n{n}", "gf", {"R": R, "n": n, "eta": rng.random()}))
    for R, n in EXACT_CONFIGS:
        out.append(Query(f"exact-R{R}-n{n}", "exact", {"R": R, "n": n, "eta": rng.random()}))
    for R in ASYMPTOTIC_R:
        out.append(Query(f"sweep-eta-R{R}", "sweep-eta", {"R": R, "steps": 101}))
        for i in range(2):
            out.append(Query(f"analyze-R{R}-{i}", "analyze", {"R": R, "eta": rng.random()}))
    return out


WORKLOADS = {
    "protocol_mix": _protocol_mix,
    "renewal_mc": _renewal_mc,
    "exact_laws": _exact_laws,
}


def round_queries(workload: str, seed: int, index: int) -> list[Query]:
    """The queries of round `index` of a workload, drawn from `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{index}"))
