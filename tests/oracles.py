"""Independent oracles that the test suite checks the library against.

They take the long way round on purpose: a balance-equation solve instead
of the closed-form stationary law, chain-power sums and per-eta matrix
products instead of the closed forms and the eta-free quadratic in
tricklelab.analytics, a simulated stationary chain instead of the exact
variance rate, a rational sum over every path instead of the exact-law
dynamic program, the same program with one add per update size instead of
its product per hop, Jacobi sweeps in the series ring instead of the forward
pass over node rows that solves the visit system, the master series summed
in the series ring instead of over arrays, and a protocol event loop
that keeps one immutable state object per node instead of the library's
per-field arrays.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np

from tricklelab import analytics as an
from tricklelab import gf
from tricklelab.core import TAU_INFINITE, TrickleParams
from tricklelab.series import TruncatedSeries
from tricklelab.simulate import (
    LineTopology,
    NonTerminationError,
    PropagationTrace,
    replication_stream,
)


@dataclass
class MarkovModel:
    """Update-size chain: transition matrix P and stationary vector pi."""

    R: int
    P: np.ndarray
    pi: np.ndarray


def build_markov(R: int) -> MarkovModel:
    """P and pi from the balance equations pi P = pi, the last one replaced
    by the normalization."""
    if R < 1:
        raise ValueError(f"R must be >= 1, got {R}")
    P = an.transition_matrix(R)
    A = P.T - np.eye(R)
    A[-1, :] = 1.0
    b = np.zeros(R)
    b[-1] = 1.0
    return MarkovModel(R=R, P=P, pi=np.linalg.solve(A, b))


def var_theta1(R: int, eta: float) -> float:
    """Stationary variance of a single inter-transmission time, in closed form."""
    h = an.harmonic(R + 1)
    centered = (2.0 + R) / (2.0 * R) - h / (R * (1.0 + R))
    return 4.0 * (1.0 - eta) ** 2 * ((6.0 + R) / (8.0 + 4.0 * R) - centered**2)


def sigma_T_sq_matrix(R: int, etas) -> np.ndarray:
    """sigma_T_sq at each eta by the per-eta matrix path.

    gamma_theta_sq = Var[theta_1] + 2 pi M Z M 1 - 2 mu_theta^2 with
    M[i-1, j-1] = p_ij E[holding time in i] and Z = (I - P + 1 pi)^-1 from
    the balance-equation pi, then the delay variance rate
    (mu_theta^2 gamma_U_sq + mu_U^2 gamma_theta_sq - 2 mu_U mu_theta Delta) / mu_U^3.
    """
    model = build_markov(R)
    Z = np.linalg.solve(np.eye(R) - model.P + np.outer(np.ones(R), model.pi), np.eye(R))
    i = np.arange(1, R + 1, dtype=float)
    mu_u = an.mean_update_size(R)
    g_u = an.gamma_U_sq(R)
    out = []
    for eta in etas:
        mean_hold = eta + (1.0 - eta) / (i + 1.0)
        M = model.P * mean_hold[:, None]
        mu_t = float(model.pi @ mean_hold)
        g_t = (var_theta1(R, eta) + 2.0 * float(model.pi @ M @ Z @ M @ np.ones(R))
               - 2.0 * mu_t**2)
        delta = an.delta_covariance(R, eta)
        out.append((mu_t**2 * g_u + mu_u**2 * g_t - 2.0 * mu_u * mu_t * delta) / mu_u**3)
    return np.array(out)


def validate_wavefront(trace: PropagationTrace) -> bool:
    """Check that every effective broadcast came from the newest updated block.

    The nodes updated by hop m form a contiguous block right of the frontier;
    hop m + 1's sender must belong to it (hop 1 must come from node 0).

    The property holds only for k = 1 with unbounded tau_h.  Otherwise a node
    behind the newest block may broadcast and update nodes: it fails for
    k = 2 on LineTopology(250, 5) with seeds 0 to 4, and for tau_h = 4,
    eta = 0.5 on LineTopology(100, 5) with seed 98.
    """
    block_lo, block_hi = 0, 0
    frontier = 0
    for (_, sender, updated) in trace.broadcasts:
        if updated == 0:
            continue
        if not block_lo <= sender <= block_hi:
            return False
        block_lo, block_hi = frontier + 1, frontier + updated
        frontier += updated
    return True


def cov_update_sizes_matrix(R: int, j: int) -> float:
    """Cov[U_0, U_j] from stationary weights and j-step transition powers."""
    model = build_markov(R)
    v = np.arange(1, R + 1, dtype=float)
    pj = np.linalg.matrix_power(model.P, j)
    mean = float(model.pi @ v)
    return float(model.pi @ (v * (pj @ v))) - mean * mean


def gamma_U_sq_matrix(R: int, lags: int = 120) -> float:
    """Var[U_0] + 2 sum_j Cov[U_0, U_j] via transition powers."""
    model = build_markov(R)
    v = np.arange(1, R + 1, dtype=float)
    mean = float(model.pi @ v)
    total = float(model.pi @ (v * v)) - mean * mean
    pj = np.eye(R)
    for _ in range(1, lags + 1):
        pj = pj @ model.P
        total += 2.0 * (float(model.pi @ (v * (pj @ v))) - mean * mean)
    return total


def cov_theta1_uj_matrix(R: int, eta: float, j: int) -> float:
    """Cov[theta_1, U_j] via conditional holding means and transition powers."""
    model = build_markov(R)
    i = np.arange(1, R + 1, dtype=float)
    mean_hold = eta + (1.0 - eta) / (i + 1.0)
    pj = np.linalg.matrix_power(model.P, j)
    mu_t = float(model.pi @ mean_hold)
    mu_u = float(model.pi @ i)
    return float(model.pi @ (mean_hold * (pj @ i))) - mu_t * mu_u


def delta_truncated_sum(R: int, eta: float, lags: int = 40) -> float:
    """Delta as the truncated covariance sum, relying on chain reversibility
    to fold the forward cross-terms onto Cov[theta_1, U_j]."""
    total = cov_theta1_uj_matrix(R, eta, 0)
    for j in range(1, lags + 1):
        total += 2.0 * cov_theta1_uj_matrix(R, eta, j)
    return total


def stationary_chain_path(R: int, steps: int, seed: int = 0) -> np.ndarray:
    """Sample the update-size chain from its stationary law for `steps` steps."""
    rnd = replication_stream(seed, 0)
    rr = rnd.random
    # stationary law puts weight 2j / (R (R + 1)) on state j
    cum = np.cumsum(2.0 * np.arange(1, R + 1) / (R * (R + 1)))
    u = int(np.searchsorted(cum, rr())) + 1
    out = np.empty(steps, dtype=np.int64)
    for m in range(steps):
        out[m] = u
        u = R - int(u * rr())
    return out


def estimate_time_variance_rate(
    R: int, eta: float, steps: int, seed: int = 0, batch_len: int = 100
) -> float:
    """Monte Carlo estimate of lim Var[total transmission time] / steps.

    Simulates the stationary update-size chain and integrates the holding
    times out conditionally: the variance rate splits into the batch-means
    variance of per-state mean holding times (serial dependence) plus the
    path average of per-state holding-time variances.  Conditioning removes
    the holding-time sampling noise, keeping the estimate well inside a few
    percent at 10^6 steps.
    """
    path = stationary_chain_path(R, steps, seed)
    u = path.astype(float)
    cond_mean = eta + (1.0 - eta) / (u + 1.0)
    cond_var = (1.0 - eta) ** 2 * u / ((u + 1.0) ** 2 * (u + 2.0))
    batches = steps // batch_len
    sums = cond_mean[: batches * batch_len].reshape(batches, batch_len).sum(axis=1)
    serial = float(np.var(sums, ddof=1)) / batch_len
    return serial + float(cond_var.mean())


def exact_law_paths(R: int, eta: Fraction, n: int) -> tuple[list[Fraction], Fraction, Fraction]:
    """Exact hop pmf and delay (mean, variance) at size n in rational
    arithmetic, summed over every sequence of update sizes.

    Given its sequence of update sizes a path's holding times are independent,
    nu_u = eta + (1 - eta) * Beta(1, u) with mean eta + (1 - eta) / (u + 1)
    and variance (1 - eta)^2 u / ((u + 1)^2 (u + 2)), so each path adds its
    probability times its conditional delay moments.
    """
    eta = Fraction(eta)
    pmf: list[Fraction] = []
    moments = [Fraction(0), Fraction(0)]  # E[T], E[T^2]

    def walk(u, covered, hops, prob, mean, var):
        # one broadcast by the u nodes updated last; it updates `up` more
        prob /= u
        mean += eta + (1 - eta) / (u + 1)
        var += (1 - eta) ** 2 * Fraction(u, (u + 1) ** 2 * (u + 2))
        for up in range(R - u + 1, R + 1):
            if covered + up < n:
                walk(up, covered + up, hops + 1, prob, mean, var)
                continue
            pmf.extend([Fraction(0)] * (hops + 2 - len(pmf)))
            pmf[hops + 1] += prob
            moments[0] += prob * mean
            moments[1] += prob * (var + mean * mean)

    walk(1, 0, 0, Fraction(1), Fraction(0), Fraction(0))
    return pmf, moments[0], moments[1] - moments[0] ** 2


def step_moment(j: int, eta: float, r: int) -> float:
    """E[nu_j^r] for the holding time nu_j = eta + (1 - eta) * Beta(1, j) of
    one state j, with the rising product (j + 1) ... (j + q) in exact
    integers: the scalar form of tricklelab.gf.step_moment."""
    if j < 1:
        raise ValueError("state index must be >= 1")
    total = 0.0
    for q in range(r + 1):
        # E[Beta(1, j)^q] = q! j! / (q + j)!, without forming j! for large j
        beta_q = math.factorial(q) / math.prod(range(j + 1, j + q + 1))
        total += math.comb(r, q) * eta ** (r - q) * (1.0 - eta) ** q * beta_q
    return total


def exact_law_by_suffix_adds(R: int, eta: float, n: int) -> tuple[np.ndarray, float, float]:
    """The forward pass of tricklelab.gf.exact_law_dp with one numpy add per
    next size: each hop steps every size through its 3 x 3 matrix, then
    forms the suffix sum that reaches size u' one size at a time into a
    shifted copy of the band, and rescans the live band for columns whose
    probability is 0.0.  Only the sizes that hold mass are stepped."""
    u = np.arange(1, min(R, n) + 1)
    e1, e2 = (np.array([step_moment(j, eta, r) for j in u.tolist()]) for r in (1, 2))
    kappa = e1 @ u / u.sum()
    step = np.array([[[1.0, 0.0, 0.0], [a, 1.0, 0.0], [b, 2.0 * a, 1.0]] for a, b in
                     zip(e1 - kappa, e2 - 2.0 * kappa * e1 + kappa * kappa)]) / u[:, None, None]
    mass = np.array([[[1.0], [0.0], [0.0]]])  # mass[u - 1, :, a - lo]; the seed: u = 1, a = 0
    lo, absorbed = 0, []
    while True:
        rows, _, width = mass.shape
        held = step[:rows] @ mass
        lo += 1
        keep = min(R, n - lo)  # next sizes that can stay live
        # moved[u' - 1, :, a + u' - lo]: held summed over u >= R - u' + 1
        moved = np.zeros((keep, 3, width + keep - 1))
        acc = 0.0
        for k in range(R - rows, keep):
            acc = np.add(acc, held[R - 1 - k], out=moved[k, :, k:k + width])
        absorbed.append(moved[:, :, n - lo:].sum(axis=(0, 2)))
        if keep < R:  # sizes above keep absorb whole; row i of held reaches this many
            whole = np.minimum(np.arange(1, rows + 1), R - max(keep, R - rows))
            absorbed[-1] += whole @ held.sum(axis=2)
        live = np.flatnonzero(moved[:, 0, :n - lo].any(axis=0))
        if not live.size:
            break
        mass = moved[:, :, live[0]:live[-1] + 1]
        lo += live[0]
    pmf, x1, x2 = np.array([np.zeros(3)] + absorbed).T.copy()
    shift = kappa * np.arange(len(pmf))  # T = X + kappa * m on {hop count = m}
    mean = (x1 + shift * pmf).sum() / pmf.sum()
    d = shift - mean
    variance = (x2 + 2.0 * d * x1 + d * d * pmf).sum() / pmf.sum()
    # the pass stops once the live mass underflows to 0.0; the rest are zeros
    return np.pad(pmf, (0, gf.max_hops(R, n) + 1 - len(pmf))), mean, variance


def _ring_step(degree: int, eta: float | None, states: int):
    """step_i over the series ring for states i = 1 .. states: a shift by one
    hop (eta None), or the product with state i's holding-time moment series
    up to t^degree, one shifted copy per moment."""
    if eta is None:
        return ("nodes", "hops"), lambda i, s: s.shifted((0, 1))
    hold = [[step_moment(j, eta, r) / math.factorial(r) for r in range(degree + 1)]
            for j in range(1, states + 1)]
    return ("nodes", "time"), lambda i, s: sum(c * s.shifted((0, r)) for r, c in enumerate(hold[i]))


def visits_by_sweeps(R: int, node_degree: int, degree: int, eta: float | None = None):
    """The visit transforms V[1..R] of tricklelab.gf by Jacobi sweeps of
    V[k] = [k == 1] + sum_i P[i,k] z^k step_i(V[i]) from zero, over the series
    ring: in hop mode (eta None) step_i shifts by one hop, in delay mode it
    multiplies by state i's holding-time moment series up to t^degree.  After
    t sweeps every path of fewer than t steps is accounted for, and a path
    that covers at most node_degree nodes takes at most
    max_hops(R, node_degree) steps."""
    P = an.transition_matrix(R)
    variables, step = _ring_step(degree, eta, R)
    zero = TruncatedSeries.zeros(variables, (node_degree, degree))
    visits = [zero] * R
    for _ in range(gf.max_hops(R, node_degree) + 1):
        stepped = [step(i, v) for i, v in enumerate(visits)]
        visits = [
            sum((P[i, k] * stepped[i] for i in range(R) if P[i, k]), zero).shifted((k + 1, 0))
            for k in range(R)
        ]
        visits[0] = visits[0] + 1.0
    return visits


def master_by_ring(visits: np.ndarray, eta: float | None = None) -> np.ndarray:
    """The master series of tricklelab.gf assembled over the series ring from
    the visit transforms that gf.solve_hop_system (eta None) or
    gf.solve_delay_system returns: 1/(1-z) - z/(1-z) sum_u (V[u] -
    step_u(V[u])), each state's visits wrapped as a series and stepped by
    shifted copies."""
    variables, step = _ring_step(visits.shape[2] - 1, eta, len(visits))
    series = [TruncatedSeries(variables, v) for v in visits]
    leave = sum(v - step(i, v) for i, v in enumerate(series)).shifted((1, 0))
    master = -np.cumsum(leave.coeffs, axis=0)
    master[:, 0] += 1.0
    return master


# --- the protocol engine with one immutable state object per node -------------


@dataclass(frozen=True, slots=True)
class ReferenceNode:
    """One node's Trickle state; every transition returns a new one."""

    tau: float
    c: int
    t: float
    interval_start: float
    version: int
    has_fired: bool


def _fresh_interval(tau, version, params, now, rng) -> ReferenceNode:
    lo = params.eta * tau if tau == params.tau_l else 0.5 * tau
    return ReferenceNode(tau, 0, rng.uniform(lo, tau), now, version, False)


def _on_message(node: ReferenceNode, params: TrickleParams, msg_version: int):
    """(new node, adopted, needs a new interval) after hearing msg_version."""
    if msg_version == node.version:
        return ReferenceNode(node.tau, node.c + 1, node.t, node.interval_start,
                             node.version, node.has_fired), False, False
    if msg_version > node.version:
        return ReferenceNode(params.tau_l, node.c, node.t, node.interval_start,
                             msg_version, node.has_fired), True, True
    if node.tau > params.tau_l:
        return ReferenceNode(params.tau_l, node.c, node.t, node.interval_start,
                             node.version, node.has_fired), False, True
    return node, False, False


def reference_protocol_event(params: TrickleParams, topo: LineTopology,
                             seed: int = 0) -> PropagationTrace:
    """run_protocol_event(params, topo, seed) the long way: the same rules,
    random draws (through rng.uniform) and (time, node, kind) tie-breaking,
    on a list of ReferenceNode objects."""
    n, R = topo.n, topo.R
    horizon = 10.0 * n * params.tau_l
    rnd = replication_stream(seed, 0)
    TIMER, END = 0, 1
    nodes = [ReferenceNode(params.tau_h, 0, params.tau_h, 0.0, 0, False)] * (n + 1)
    epochs = [0] * (n + 1)
    heap: list = []

    def schedule(j: int) -> None:
        st = nodes[j]
        if st.tau == TAU_INFINITE:
            return
        if st.has_fired:
            heappush(heap, (st.interval_start + st.tau, j, END, epochs[j]))
        else:
            heappush(heap, (st.interval_start + st.t, j, TIMER, epochs[j]))

    nodes[0] = _fresh_interval(params.tau_l, 1, params, 0.0, rnd)
    schedule(0)
    if params.tau_h != TAU_INFINITE:
        for j in range(1, n + 1):
            phase = rnd.uniform(0.0, params.tau_h)
            st = _fresh_interval(nodes[j].tau, nodes[j].version, params, -phase, rnd)
            if st.t < phase:
                st = ReferenceNode(st.tau, st.c, st.t, st.interval_start, st.version, True)
            nodes[j] = st
            schedule(j)

    update_time = [math.inf] * (n + 1)
    update_time[0] = 0.0
    broadcasts = []
    hop_count = 0
    while heap:
        now, node, kind, ep = heappop(heap)
        if ep != epochs[node]:
            continue
        if now > horizon:
            done = sum(1 for t in update_time if t < math.inf)
            raise NonTerminationError(
                f"no full propagation by t={horizon:g}: {done}/{n + 1} nodes "
                f"updated (k={params.k}, tau_h={params.tau_h}, R={R}, n={n})"
            )
        st = nodes[node]
        if kind == END:
            tau = min(2.0 * st.tau, params.tau_h)
            nodes[node] = _fresh_interval(tau, st.version, params, now, rnd)
            heappush(heap, (now + nodes[node].t, node, TIMER, ep))
            continue
        nodes[node] = ReferenceNode(st.tau, st.c, st.t, st.interval_start, st.version, True)
        heappush(heap, (st.interval_start + st.tau, node, END, ep))
        if st.c >= params.k:
            continue
        updated = 0
        for j in range(max(node - R, 0), min(node + R, n) + 1):
            if j == node:
                continue
            new, adopted, restart = _on_message(nodes[j], params, st.version)
            if restart:
                epochs[j] += 1
                new = _fresh_interval(new.tau, new.version, params, now, rnd)
                heappush(heap, (now + new.t, j, TIMER, epochs[j]))
            nodes[j] = new
            if adopted:
                updated += 1
                update_time[j] = now
        broadcasts.append((now, node, updated))
        hop_count += updated > 0
        if update_time[n] < math.inf:
            break
    if update_time[n] == math.inf:
        raise NonTerminationError("event queue drained before node n updated")
    return PropagationTrace(update_time, broadcasts, hop_count, update_time[n],
                            len(broadcasts))
