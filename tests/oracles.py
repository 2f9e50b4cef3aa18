"""Independent oracles for the test suite.

Everything here is deliberately written from scratch with plain Python loops
(itertools + math, no vectorization) so that agreement with the library is
evidence of correctness rather than of shared code.  Tests freeze values
produced by these oracles; the library is then checked against the frozen
values and, where cheap enough, against the oracles directly.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

# ---------------------------------------------------------------------------
# Dense-game enumeration oracles (raw units throughout).
# ---------------------------------------------------------------------------


def enum_expected_utilities(tensors, i, profile):
    """Expected raw utility of every strategy of player ``i`` by exhaustive
    enumeration of opponent pure profiles."""
    n = len(tensors)
    dims = [len(profile[j]) for j in range(n)]
    out = []
    for x in range(dims[i]):
        total = 0.0
        for s in itertools.product(*(range(dims[j]) for j in range(n))):
            if s[i] != x:
                continue
            p = 1.0
            for j in range(n):
                if j != i:
                    p *= profile[j][s[j]]
            total += p * float(tensors[i][s])
        out.append(total)
    return out


def enum_welfare(tensors, profile):
    """Expected raw welfare E[sum_i u_i(s)] under the product distribution."""
    n = len(tensors)
    dims = [len(profile[j]) for j in range(n)]
    total = 0.0
    for s in itertools.product(*(range(d) for d in dims)):
        p = 1.0
        for j in range(n):
            p *= profile[j][s[j]]
        total += p * sum(float(tensors[i][s]) for i in range(n))
    return total


def enum_opt(tensors):
    """(max welfare, lexicographically first argmax) over pure profiles."""
    n = len(tensors)
    dims = list(tensors[0].shape)
    best, best_s = None, None
    for s in itertools.product(*(range(d) for d in dims)):
        w = sum(float(tensors[i][s]) for i in range(n))
        if best is None or w > best:
            best, best_s = w, s
    return best, best_s


def enum_smoothness_slack(tensors, lam, mu, s_star):
    """min over pure s of [sum_i u_i(s*_i, s_-i) - lam*Opt + mu*W(s)]."""
    n = len(tensors)
    dims = list(tensors[0].shape)
    opt, _ = enum_opt(tensors)
    worst, worst_s = None, None
    for s in itertools.product(*(range(d) for d in dims)):
        dev = 0.0
        for i in range(n):
            swapped = list(s)
            swapped[i] = s_star[i]
            dev += float(tensors[i][tuple(swapped)])
        w = sum(float(tensors[i][s]) for i in range(n))
        slack = dev - lam * opt + mu * w
        if worst is None or slack < worst:
            worst, worst_s = slack, s
    return worst, worst_s, opt


def enum_cost_smoothness_slack(tensors, lam, mu, s_star):
    """min over pure s of [lam*Opt' + mu*C(s) - sum_i c_i(s*_i, s_-i)], with
    Opt' the min total cost; returns (slack, argmin s, Opt')."""
    n = len(tensors)
    profiles = list(itertools.product(*(range(d) for d in tensors[0].shape)))
    opt = min(sum(float(tensors[i][s]) for i in range(n)) for s in profiles)
    worst, worst_s = None, None
    for s in profiles:
        dev = 0.0
        for i in range(n):
            swapped = list(s)
            swapped[i] = s_star[i]
            dev += float(tensors[i][tuple(swapped)])
        c = sum(float(tensors[i][s]) for i in range(n))
        slack = lam * opt + mu * c - dev
        if worst is None or slack < worst:
            worst, worst_s = slack, s
    return worst, worst_s, opt


def enum_cce_deviation_gain(plays, utilities, i, x):
    """Average gain of deviating to pure strategy ``x`` against the empirical
    distribution of play: (1/T) sum_t (u_{i,x}^t - <w_i^t, u_i^t>)."""
    T = len(utilities[i])
    total = 0.0
    for t in range(T):
        realized = sum(
            plays[i][t][k] * utilities[i][t][k] for k in range(len(plays[i][t]))
        )
        total += utilities[i][t][x] - realized
    return total / T


# ---------------------------------------------------------------------------
# Auction oracle: resolve a simultaneous single-unit first-price auction.
# ---------------------------------------------------------------------------


def auction_resolve(values, m, choices):
    """Resolve one pure outcome.

    ``choices[i] = (item, bid)``; the highest bid on each item wins, ties go to
    the lowest player index.  Returns (raw utilities per player, welfare =
    total allocated value: payments are transfers, not welfare losses).
    """
    n = len(choices)
    utilities = [0.0] * n
    welfare = 0.0
    for j in range(m):
        winner, winning_bid = None, None
        for i in range(n):
            item, bid = choices[i]
            if item != j:
                continue
            if winning_bid is None or bid > winning_bid:
                winner, winning_bid = i, bid
        if winner is not None:
            utilities[winner] = values[winner][j] - winning_bid
            welfare += values[winner][j]
    return utilities, welfare


def auction_expected_welfare(values, m, bid_levels, profile):
    """Expected allocated value under the product distribution, by brute
    force over every pure profile (item-major strategy indices)."""
    nb = len(bid_levels)
    strategies = [(j, bid_levels[b]) for j in range(m) for b in range(nb)]
    total = 0.0
    for s in itertools.product(range(m * nb), repeat=len(profile)):
        p = 1.0
        for k, x in enumerate(s):
            p *= profile[k][x]
        if p == 0.0:
            continue
        _, welfare = auction_resolve(values, m, [strategies[x] for x in s])
        total += p * welfare
    return total


def auction_expected_utilities(values, m, bid_levels, i, profile):
    """Expected raw utility of every (item, bid) strategy of player ``i`` by
    brute force over opponent pure strategies.

    Strategy indices follow the item-major layout: index = item * len(levels)
    + bid index.
    """
    n = len(profile)
    nb = len(bid_levels)
    d = m * nb
    strategies = [(j, bid_levels[b]) for j in range(m) for b in range(nb)]
    out = []
    for x in range(d):
        total = 0.0
        for opp in itertools.product(range(d), repeat=n - 1):
            p = 1.0
            others = list(opp)
            for pos, j in enumerate(k for k in range(n) if k != i):
                p *= profile[j][others[pos]]
            if p == 0.0:
                continue
            choices = []
            pos = 0
            for k in range(n):
                if k == i:
                    choices.append(strategies[x])
                else:
                    choices.append(strategies[others[pos]])
                    pos += 1
            utils, _ = auction_resolve(values, m, choices)
            total += p * utils[i]
        out.append(total)
    return out


def auction_opt(values, m, bid_levels):
    """(max welfare, argmax choices) over all pure strategy profiles."""
    n = len(values)
    nb = len(bid_levels)
    d = m * nb
    strategies = [(j, bid_levels[b]) for j in range(m) for b in range(nb)]
    best, best_s = None, None
    for s in itertools.product(range(d), repeat=n):
        _, w = auction_resolve(values, m, [strategies[x] for x in s])
        if best is None or w > best:
            best, best_s = w, s
    return best, best_s


# ---------------------------------------------------------------------------
# Independent two-player dynamics simulator (plain loops, no numpy).
# ---------------------------------------------------------------------------


def matrix_optimistic_hedge_sim(A, eta, T):
    """Optimistic-Hedge self-play on the zero-sum matrix game (row earns
    A[r][c], column earns 1 - A[r][c]): each round both players play
    softmax(eta * (cumulative utilities + previous round's utility vector))
    and observe exact expected utilities.  Returns (plays0, plays1, utils0,
    utils1) as plain nested lists."""
    nr, nc = len(A), len(A[0])
    cum0, last0 = [0.0] * nr, [0.0] * nr
    cum1, last1 = [0.0] * nc, [0.0] * nc
    plays0, plays1, utils0, utils1 = [], [], [], []
    for _ in range(T):
        w0 = softmax([eta * (cum0[k] + last0[k]) for k in range(nr)])
        w1 = softmax([eta * (cum1[k] + last1[k]) for k in range(nc)])
        u0 = [sum(A[r][c] * w1[c] for c in range(nc)) for r in range(nr)]
        u1 = [sum((1.0 - A[r][c]) * w0[r] for r in range(nr)) for c in range(nc)]
        plays0.append(w0)
        plays1.append(w1)
        utils0.append(u0)
        utils1.append(u1)
        for k in range(nr):
            cum0[k] += u0[k]
        for k in range(nc):
            cum1[k] += u1[k]
        last0, last1 = list(u0), list(u1)
    return plays0, plays1, utils0, utils1


def optimistic_hedge_selfplay(expected_utilities, dims, etas, T, responders=()):
    """n-player optimistic-Hedge self-play with exact feedback: each round
    every player i plays softmax(etas[i] * (cumulative utilities + previous
    round's utility vector)), then observes ``expected_utilities(i, profile)``
    (a list, normalized units) at the round's full profile.  Entropic
    optimistic mirror descent with the last-utility predictor plays the same
    softmax (its chained prox steps telescope), so this loop stands for both.
    A player listed in ``responders`` instead plays a point mass on its first
    best response to this round's Hedge plays and the other responders'
    previous plays (uniform before round one).
    Returns (plays, utils): per player, T plain lists."""
    n = len(dims)
    cum = [[0.0] * d for d in dims]
    last = [[0.0] * d for d in dims]
    plays = [[] for _ in range(n)]
    utils = [[] for _ in range(n)]
    prev = [[1.0 / d] * d for d in dims]
    for _ in range(T):
        profile = [prev[i] if i in responders else
                   softmax([etas[i] * (cum[i][k] + last[i][k]) for k in range(dims[i])])
                   for i in range(n)]
        seen = list(profile)  # responders see each other's previous plays
        for i in responders:
            u = list(expected_utilities(i, seen))
            best = max(range(dims[i]), key=u.__getitem__)
            profile[i] = [1.0 if k == best else 0.0 for k in range(dims[i])]
        for i in range(n):
            u = list(expected_utilities(i, profile))
            plays[i].append(profile[i])
            utils[i].append(u)
            cum[i] = [c + x for c, x in zip(cum[i], u)]
            last[i] = u
        prev = profile
    return plays, utils


def dense_selfplay_sim(tensors, etas, T, responders=()):
    """``optimistic_hedge_selfplay`` on a dense game with raw utilities in
    [0, 1] (shift 0, scale 1), fed by ``enum_expected_utilities``."""
    dims = list(tensors[0].shape)
    return optimistic_hedge_selfplay(
        lambda i, profile: enum_expected_utilities(tensors, i, profile), dims, etas, T,
        responders)


# ---------------------------------------------------------------------------
# Plain-Python optimistic learners: FTRL and mirror descent, every predictor.
# ---------------------------------------------------------------------------


def project_simplex_loop(v):
    """Euclidean projection onto the probability simplex: subtract the
    threshold theta that makes the clipped vector sum to one, found by
    scanning the entries in descending order."""
    desc = sorted(v, reverse=True)
    theta, total = 0.0, 0.0
    for k, x in enumerate(desc, start=1):
        total += x
        cand = (total - 1.0) / k
        if x - cand > 0.0:
            theta = cand
    return [max(x - theta, 0.0) for x in v]


def predictor_value(kind, param, history, d):
    """M^t from the utilities seen so far (u^0 = 0 before the first), by the
    closed forms: none 0; last u^{t-1}; window the sum of the last H
    utilities, zero-padded, over H; geometric sum_tau delta^(t-1-tau) u^tau
    over sum_tau delta^(t-1-tau), tau = 0..t-1."""
    if kind == "none" or not history:
        return [0.0] * d
    if kind == "last":
        return list(history[-1])
    if kind == "window":
        H = int(param)
        return [sum(u[k] for u in history[-H:]) / H for k in range(d)]
    seen = [[0.0] * d] + list(history)
    t = len(seen)
    weights = [param ** (t - 1 - tau) for tau in range(t)]
    norm = sum(weights)
    return [sum(wt * u[k] for wt, u in zip(weights, seen)) / norm for k in range(d)]


def optimistic_learner_plays(algorithm, regularizer, eta, kind, param, stream):
    """Plays of an optimistic learner on a fixed utility stream.

    ftrl: w^t = argmax <w, G^{t-1} + M^t> - R(w)/eta, i.e. softmax (entropy)
    or simplex projection (euclidean) of eta*(G^{t-1} + M^t).
    omd:  w^t = prox(M^t, g^{t-1}), g^t = prox(u^t, g^{t-1}), g^0 uniform,
    with the entropy prox g*exp(eta*x)/Z run as the recursion itself and the
    euclidean prox the projection of g + eta*x.
    """
    d = len(stream[0])
    cum = [0.0] * d
    g = [1.0 / d] * d
    history, plays = [], []

    def prox(x):
        if regularizer == "entropy":
            e = [g[k] * math.exp(eta * x[k]) for k in range(d)]
            z = sum(e)
            return [v / z for v in e]
        return project_simplex_loop([g[k] + eta * x[k] for k in range(d)])

    for u in stream:
        m = predictor_value(kind, param, history, d)
        if algorithm == "ftrl":
            z = [eta * (cum[k] + m[k]) for k in range(d)]
            w = softmax(z) if regularizer == "entropy" else project_simplex_loop(z)
        else:
            w = prox(m)
            g = prox(u)
        plays.append(w)
        cum = [cum[k] + u[k] for k in range(d)]
        history.append(list(u))
    return plays


# ---------------------------------------------------------------------------
# Cost-native Hedge: the schedules as plain loops over lists, two fresh sums a
# round.  Only the weights go through numpy, as exp(z - max z) / sum, the
# expression the library's exponential weights are bitwise equal to, so plays
# compare bit for bit.
# ---------------------------------------------------------------------------


def numpy_exp_weights(z):
    import numpy as np  # local: the rest of this module is numpy-free

    z = np.array(z, dtype=float)
    e = np.exp(z - z.max())
    return (e / e.sum()).tolist()


def first_order_hedge_reference(costs):
    """First-order Hedge on a cost stream.  Each round plays the weights of
    -eta * (the epoch's summed cost), then adds the cost to the global and the
    epoch sums; when the best global sum exceeds the budget (first 1), the
    budget doubles until it does not, eta becomes sqrt(max(ln d, 1e-12) /
    budget) and the epoch sum restarts at zero.  Returns the plays and the
    (budget, epoch, eta) after each round."""
    d = len(costs[0])
    budget, epoch = 1.0, 1
    eta = math.sqrt(max(math.log(d), 1e-12) / budget)
    total, epoch_sum = [0.0] * d, [0.0] * d
    plays, states = [], []
    for c in costs:
        plays.append(numpy_exp_weights([-eta * x for x in epoch_sum]))
        total = [a + b for a, b in zip(total, c)]
        epoch_sum = [a + b for a, b in zip(epoch_sum, c)]
        best = min(total)
        if best > budget:
            while best > budget:
                budget *= 2.0
            epoch += 1
            eta = math.sqrt(max(math.log(d), 1e-12) / budget)
            epoch_sum = [0.0] * d
        states.append((budget, epoch, eta))
    return plays, states


def cost_hedge_reference(costs, eta):
    """Fixed-step Hedge on a cost stream: each round plays the weights of
    eta * (the summed complements 1 - c of the costs seen so far)."""
    cum = [0.0] * len(costs[0])
    plays = []
    for c in costs:
        plays.append(numpy_exp_weights([eta * x for x in cum]))
        cum = [a + (1.0 - b) for a, b in zip(cum, c)]
    return plays


# ---------------------------------------------------------------------------
# Regret / variation recomputation from raw trace arrays.
# ---------------------------------------------------------------------------


def independent_regret(plays_i, utilities_i):
    """max_x sum_t u[t][x] - sum_t <w[t], u[t]>, plain loops."""
    T = len(utilities_i)
    d = len(utilities_i[0])
    realized = 0.0
    for t in range(T):
        realized += sum(plays_i[t][k] * utilities_i[t][k] for k in range(d))
    best = max(sum(utilities_i[t][x] for t in range(T)) for x in range(d))
    return best - realized


def independent_variation_sums(utilities_i, plays_i):
    """(sum_t ||u^t - u^{t-1}||_inf^2, sum_t ||w^t - w^{t-1}||_1^2) with the
    u^0 = 0 and w^0 = w^1 conventions."""
    T = len(utilities_i)
    d = len(utilities_i[0])
    sum_du = 0.0
    sum_dw = 0.0
    prev_u = [0.0] * d
    prev_w = list(plays_i[0])
    for t in range(T):
        du = max(abs(utilities_i[t][k] - prev_u[k]) for k in range(d))
        dw = sum(abs(plays_i[t][k] - prev_w[k]) for k in range(d))
        sum_du += du * du
        sum_dw += dw * dw
        prev_u = list(utilities_i[t])
        prev_w = list(plays_i[t])
    return sum_du, sum_dw


def coupling_margin(plays, utilities):
    """min over players i and rounds t >= 2 of
    sum_{j != i} ||w_j^t - w_j^{t-1}||_1 - ||u_i^t - u_i^{t-1}||_inf, 0.0 for a
    single round: nonnegative when each player's utility variation is bounded
    by the opponents' strategy variation."""
    n, T = len(plays), len(plays[0])
    margin = math.inf if T >= 2 else 0.0
    for t in range(1, T):
        for i in range(n):
            dw = sum(sum(abs(a - b) for a, b in zip(plays[j][t], plays[j][t - 1]))
                     for j in range(n) if j != i)
            du = max(abs(a - b) for a, b in zip(utilities[i][t], utilities[i][t - 1]))
            margin = min(margin, dw - du)
    return margin


def recommended_eta_star(mode, n, beta, gamma, T):
    """Step-size cap for the doubling wrapper: 'sum_regret' is
    gamma / ((2 + beta) (n - 1)^2 ln T), which keeps the self-play sum of
    regrets logarithmic; 'individual' is T^{-1/4}, the individual-rate tuning."""
    if n < 2:
        raise ValueError(f"need at least two players, got n={n}")
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if mode == "sum_regret":
        return gamma / ((2.0 + beta) * (n - 1) ** 2 * math.log(T))
    if mode == "individual":
        return float(T) ** -0.25
    raise ValueError(f"mode must be 'sum_regret' or 'individual', got {mode!r}")


def entropy_value(w):
    """R(w) = sum_k w_k ln w_k, with 0 ln 0 = 0."""
    return sum(x * math.log(x) for x in w if x > 0.0)


def euclidean_value(w):
    """R(w) = ||w||_2^2 / 2."""
    return 0.5 * sum(x * x for x in w)


def entropy_omd_prox_terms(utilities, plays, eta):
    """(lhs, rhs) of the mirror-descent prox inequality for entropy OMD with
    the last-utility predictor, from its closed form: g^t = softmax(eta *
    sum_{s<=t} u^s) (g^0 uniform), M^t = u^{t-1} (M^1 = 0), R = ln d.

        lhs = max_x sum_t u^t_x - sum_t <w^t, u^t>
        rhs = ln d / eta + sum_t ||u^t - M^t||_inf ||w^t - g^t||_1
              - (1/2eta) sum_t (||w^t - g^t||_1^2 + ||w^t - g^{t-1}||_1^2)
    """
    T = len(utilities)
    d = len(utilities[0])
    cum = [0.0] * d
    g_prev = softmax(cum)
    m = [0.0] * d
    realized = cross = quad = 0.0
    for t in range(T):
        u, w = utilities[t], plays[t]
        for k in range(d):
            cum[k] += u[k]
        g = softmax([eta * c for c in cum])
        w_g = sum(abs(w[k] - g[k]) for k in range(d))
        w_gprev = sum(abs(w[k] - g_prev[k]) for k in range(d))
        cross += max(abs(u[k] - m[k]) for k in range(d)) * w_g
        quad += w_g * w_g + w_gprev * w_gprev
        realized += sum(w[k] * u[k] for k in range(d))
        g_prev, m = g, list(u)
    best = max(sum(utilities[t][x] for t in range(T)) for x in range(d))
    return best - realized, math.log(d) / eta + cross - quad / (2.0 * eta)


def euclidean_omd_prox_terms(utilities, plays, eta):
    """(lhs, rhs) of the mirror-descent prox inequality for Euclidean OMD
    with the last-utility predictor, in the l2 norm (self-dual): g^t the
    projection of g^{t-1} + eta u^t (g^0 uniform), M^t = u^{t-1} (M^1 = 0),
    R = max_f ||f - uniform||^2 / 2 = (d - 1) / (2d).

        lhs = max_x sum_t u^t_x - sum_t <w^t, u^t>
        rhs = R / eta + sum_t ||u^t - M^t||_2 ||w^t - g^t||_2
              - (1/2eta) sum_t (||w^t - g^t||_2^2 + ||w^t - g^{t-1}||_2^2)
    """
    T = len(utilities)
    d = len(utilities[0])
    g_prev = [1.0 / d] * d
    m = [0.0] * d
    realized = cross = quad = 0.0
    for t in range(T):
        u, w = utilities[t], plays[t]
        g = project_simplex_loop([g_prev[k] + eta * u[k] for k in range(d)])
        w_g2 = sum((w[k] - g[k]) ** 2 for k in range(d))
        w_gprev2 = sum((w[k] - g_prev[k]) ** 2 for k in range(d))
        cross += math.sqrt(sum((u[k] - m[k]) ** 2 for k in range(d))) * math.sqrt(w_g2)
        quad += w_g2 + w_gprev2
        realized += sum(w[k] * u[k] for k in range(d))
        g_prev, m = g, list(u)
    best = max(sum(utilities[t][x] for t in range(T)) for x in range(d))
    return best - realized, (d - 1.0) / (2.0 * d) / eta + cross - quad / (2.0 * eta)


# ---------------------------------------------------------------------------
# Routing-game oracle: independent cost evaluation + finite differences.
# ---------------------------------------------------------------------------


def routing_player_cost(edges, paths, flows, i):
    """Cost of player ``i``: sum_e f_{i,e} * latency_e(total load on e).

    ``edges`` is a list of (u, v, a, b, c) tuples; ``paths[k]`` is player k's
    list of paths, each a tuple of edge indices; ``flows[k][p]`` is the mass
    player k puts on path p.  No feasibility checks: this evaluator exists so
    finite differences can step off the simplex.
    """
    m = len(edges)
    loads = [0.0] * m
    mine = [0.0] * m
    for k in range(len(paths)):
        for p, path in enumerate(paths[k]):
            for e in path:
                loads[e] += flows[k][p]
                if k == i:
                    mine[e] += flows[k][p]
    total = 0.0
    for e in range(m):
        a, b, c = edges[e][2], edges[e][3], edges[e][4]
        total += mine[e] * (a * loads[e] ** 2 + b * loads[e] + c)
    return total


def routing_best_fixed_split(edges, paths, flows, i, iters=3000):
    """A fixed split of player ``i``'s flow that nearly minimizes its cost
    summed over the rounds of ``flows`` (``flows[k][t]``: player k's path
    flows in round t), by exponentiated gradient with an adaptive step.  A
    latency is quadratic in the load, so the others enter only through each
    edge's load sums s1 = sum_t o_t and s2 = sum_t o_t^2.  Whatever split it
    returns is feasible, so its cost bounds the minimum from above."""
    m, T, mine = len(edges), len(flows[i]), paths[i]
    s1, s2 = [0.0] * m, [0.0] * m
    for t in range(T):
        loads = [0.0] * m
        for k in range(len(paths)):
            if k == i:
                continue
            for p, path in enumerate(paths[k]):
                for e in path:
                    loads[e] += flows[k][t][p]
        for e in range(m):
            s1[e] += loads[e]
            s2[e] += loads[e] * loads[e]

    def cost_and_gradient(w):
        x = [0.0] * m
        for p, path in enumerate(mine):
            for e in path:
                x[e] += w[p]
        cost, slope = 0.0, [0.0] * m
        for e in range(m):
            a, b, c = edges[e][2], edges[e][3], edges[e][4]
            # sum_t latency(o_t + x) = a (s2 + 2 x s1 + T x^2) + b (s1 + T x) + c T
            lat = a * (s2[e] + 2.0 * x[e] * s1[e] + T * x[e] ** 2) + b * (s1[e] + T * x[e]) + c * T
            cost += x[e] * lat
            slope[e] = lat + x[e] * (a * (2.0 * s1[e] + 2.0 * T * x[e]) + b * T)
        return cost, [sum(slope[e] for e in path) for path in mine]

    f = sum(flows[i][0])
    w = [f / len(mine)] * len(mine)
    val, g = cost_and_gradient(w)
    step = 1.0
    for _ in range(iters):
        spread = max(g) - min(g)
        if spread == 0.0:
            break
        z = [wp * math.exp(-step * (gp - min(g)) / spread) for wp, gp in zip(w, g)]
        cand = [f * zp / sum(z) for zp in z]
        new, g_new = cost_and_gradient(cand)
        if new < val:
            w, val, g, step = cand, new, g_new, min(1.5 * step, 50.0)
        else:
            step *= 0.5
    return w


def routing_optimistic_hedge_sim(edges, paths, amounts, eta, T):
    """Optimistic Hedge on path costs: each round player k routes
    amounts[k] * softmax(-eta * (sum of past gradients + last gradient)) and
    its gradient on path p is sum_{e in p} [latency_e(L_e) + mine_{k,e} *
    latency_e'(L_e)], L the total edge loads.  Returns (flows, grads) as
    per-player lists of T lists."""
    n, m = len(paths), len(edges)
    cum = [[0.0] * len(paths[k]) for k in range(n)]
    last = [[0.0] * len(paths[k]) for k in range(n)]
    flows = [[] for _ in range(n)]
    grads = [[] for _ in range(n)]
    for _ in range(T):
        w = [[amounts[k] * x for x in softmax(
            [-eta * (cum[k][p] + last[k][p]) for p in range(len(paths[k]))])]
            for k in range(n)]
        mine = [[0.0] * m for _ in range(n)]
        for k in range(n):
            for p, path in enumerate(paths[k]):
                for e in path:
                    mine[k][e] += w[k][p]
        loads = [sum(mine[k][e] for k in range(n)) for e in range(m)]
        for k in range(n):
            g = []
            for path in paths[k]:
                total = 0.0
                for e in path:
                    a, b, c = edges[e][2], edges[e][3], edges[e][4]
                    x = loads[e]
                    total += a * x * x + b * x + c + mine[k][e] * (2.0 * a * x + b)
                g.append(total)
            flows[k].append(w[k])
            grads[k].append(g)
            cum[k] = [cum[k][p] + g[p] for p in range(len(g))]
            last[k] = g
    return flows, grads


def fd_gradient(fn, x, h=1e-5):
    """Central finite differences of a scalar function of a list."""
    grad = []
    for k in range(len(x)):
        plus = list(x)
        minus = list(x)
        plus[k] += h
        minus[k] -= h
        grad.append((fn(plus) - fn(minus)) / (2.0 * h))
    return grad


# ---------------------------------------------------------------------------
# splitmix64 reference (Steele, Lea & Vigna), written from the published
# algorithm with plain integer arithmetic.
# ---------------------------------------------------------------------------


def splitmix64_reference(seed, count):
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


# ---------------------------------------------------------------------------
# Bid-trajectory recomputation from a raw strategy vector.
# ---------------------------------------------------------------------------


def bid_split(weights, m, bid_levels, item):
    """(prob on item, conditional expected bid) from an item-major strategy."""
    nb = len(bid_levels)
    prob = sum(weights[item * nb + b] for b in range(nb))
    if prob == 0.0:
        return 0.0, 0.0
    cond = sum(bid_levels[b] * weights[item * nb + b] for b in range(nb)) / prob
    return prob, cond


def softmax(z):
    top = max(z)
    exps = [math.exp(v - top) for v in z]
    s = sum(exps)
    return [e / s for e in exps]


# ---------------------------------------------------------------------------
# Trace-file layout, one csv.writer row per (round, player).
# ---------------------------------------------------------------------------


def csv_trace_rows(meta, value_names, values, vector_name, vectors):
    """The text ``dynamics._trace_chunks`` must yield: the metadata comment,
    the header, then per round and player ``t, player``, the repr of every
    value and vector entry and the empty cells that pad to the widest player."""
    out = io.StringIO()
    out.write("# meta=" + json.dumps(meta, sort_keys=True) + "\n")
    width = max(v.shape[1] for v in vectors)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "player", *value_names]
                    + [f"{vector_name}_{k}" for k in range(width)])
    pads = [[""] * (width - v.shape[1]) for v in vectors]
    for t in range(len(vectors[0])):
        for i, (vals, vec) in enumerate(zip(values, vectors)):
            writer.writerow([t + 1, i, *map(repr, vals[t].tolist()),
                             *map(repr, vec[t].tolist()), *pads[i]])
    return out.getvalue()


def dense_csv_text(tensors, scale, shift):
    """A dense game's CSV text, as ``games.load_dense_csv`` reads it: the
    header ``n,d1,...,dn`` then, per pure profile in lexicographic order, its
    indices and the repr of every player's normalized utility
    (raw - shift) / scale."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    dims = list(tensors[0].shape)
    writer.writerow([len(tensors), *dims])
    for s in itertools.product(*(range(d) for d in dims)):
        writer.writerow([*s, *(repr((float(t[s]) - shift) / scale) for t in tensors)])
    return out.getvalue()


def float_per_cell_trace(text, k, dims):
    """The numbers of a trace file's body rows, one ``float()`` per cell in a
    plain loop: ``stored[t][i]``, the k values of round t + 1's row of player
    i, and ``vectors[i][t]``, the row's d_i vector entries."""
    n = len(dims)
    body = text.splitlines()[2:]
    T = len(body) // n
    stored = [[None] * n for _ in range(T)]
    vectors = [[None] * T for _ in range(n)]
    for r, line in enumerate(body):
        t, i = divmod(r, n)
        cells = line.split(",")
        if cells[:2] != [str(t + 1), str(i)]:
            raise ValueError(f"line {r + 3} is not round {t + 1}, player {i}")
        numbers = []
        for cell in cells[2:2 + k + dims[i]]:
            numbers.append(float(cell))
        stored[t][i] = numbers[:k]
        vectors[i][t] = numbers[k:]
    return stored, vectors


# ---------------------------------------------------------------------------
# A serial reference engine: the round ``dynamics.run`` documents, one player
# at a time, with no learner groups and no all-players oracle.
# ---------------------------------------------------------------------------


def serial_engine(game, specs, T, mode="utility"):
    """The plays and utilities of ``dynamics.run(game, specs, T, mode)``
    rebuilt player by player: one ``make_learner`` per spec (a prebuilt
    learner is used as given) and each utility vector from the public
    per-player ``game.expected_utilities(i, profile)``.  Each round every
    other learner plays; then every best responder answers utilities (1 - c
    in cost mode) taken at those plays and the other responders' previous
    ones (uniform before round one); then each learner observes its
    utilities, as costs 1 - u where its feedback kind differs from the mode.
    Returns (plays, utils): per player, (T, d_i) arrays, utils in utility
    units (1 - c in cost mode)."""
    import numpy as np  # local: the rest of this module is numpy-free
    from regretlab.learners import BestResponseLearner, OnlineLearner, make_learner

    dims = game.dims
    learners = [s if isinstance(s, OnlineLearner) else make_learner(s, d)
                for s, d in zip(specs, dims)]
    responders = [i for i, lr in enumerate(learners) if isinstance(lr, BestResponseLearner)]
    plays = [np.empty((T, d)) for d in dims]
    utils = [np.empty((T, d)) for d in dims]
    profile = [np.full(d, 1.0 / d) for d in dims]
    for t in range(T):
        seen = [profile[i] if i in responders else np.asarray(lr.play(), dtype=float)
                for i, lr in enumerate(learners)]
        current = list(seen)
        for i in responders:
            u = game.expected_utilities(i, seen)
            learners[i].utilities = 1.0 - u if mode == "cost" else u
            current[i] = np.asarray(learners[i].play(), dtype=float)
        for i, lr in enumerate(learners):
            u = game.expected_utilities(i, current)
            lr.observe(u if (lr.feedback == "cost") == (mode == "cost") else 1.0 - u)
            plays[i][t] = current[i]
            utils[i][t] = 1.0 - u if mode == "cost" else u
        profile = current
    return plays, utils
