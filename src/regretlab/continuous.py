"""Splittable routing games on graphs with convex quadratic edge latencies.

Players divide a fixed flow amount across explicitly enumerated simple paths;
costs are edge latency integrals c_i(w) = sum_e f_{i,e} * latency_e(f_e), and
the per-path gradient is grad_{i,p} = sum_{e in p} [latency_e(f_e) +
f_{i,e} * latency_e'(f_e)].  Each player runs the package's optimistic Hedge
learner (the regularized step with the entropy and the last-utility
predictor) on its negated gradients and routes its flow amount times that
learner's play.  The certificate bounds the sum of linearized regrets, which
dominates every player's true regret by convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .games import _check_cap, _check_step_size
from .learners import Certificate, LearnerSpec, make_learner
from .regularizers import project_simplex

__all__ = [
    "CongestionNetwork",
    "LipschitzBundle",
    "ContinuousTrace",
    "parse_network",
    "gradient",
    "lipschitz_constant",
    "run_continuous",
    "linearized_regret",
    "true_regret",
    "certify_total_regret",
]

PATH_CAP = 64
SEARCH_CAP = 100_000  # edge steps of one player's path search
_TOTAL_REGRET_TOL = 1e-6  # the total-regret certificate's own tolerance, above learners.TOL


@dataclass
class CongestionNetwork:
    """Directed graph with latency a*x^2 + b*x + c per edge and one
    (source, sink, flow) commodity per player.  Path sets are enumerated at
    construction; instances exceeding PATH_CAP paths per player, or whose
    search takes more than SEARCH_CAP steps, are rejected.
    Construction also builds the arrays every evaluation uses: each player's
    (|P_i|, m) path-edge incidence matrix and the (m, 3) coefficients (a, b, c).
    """

    edges: list  # (u, v, a, b, c) with a, b, c >= 0
    players: list  # (source, sink, flow)
    paths: list = field(init=False)  # per player: list of edge-index tuples
    # derived arrays; compare=False keeps == on networks well defined
    incidence: list = field(init=False, compare=False, repr=False)  # per player: (|P_i|, m) 0/1
    coef: np.ndarray = field(init=False, compare=False, repr=False)  # (m, 3) latency a, b, c

    def __post_init__(self):
        self.edges = [(str(u), str(v), float(a), float(b), float(c))
                      for (u, v, a, b, c) in self.edges]
        for (u, v, *coef) in self.edges:  # NaN fails every comparison
            if not all(0.0 <= x < math.inf for x in coef):
                raise ValueError(f"latency coefficients on {u}->{v} must be finite and >= 0")
        self.players = [(str(s), str(t), float(f)) for (s, t, f) in self.players]
        for (s, t, f) in self.players:
            if not 0.0 < f < math.inf:
                raise ValueError(f"flow amount must be positive and finite for {s}->{t}")
        self.paths = [self._simple_paths(s, t) for (s, t, _f) in self.players]
        self.incidence = []
        for paths in self.paths:
            inc = np.zeros((len(paths), self.m))
            for p_idx, path in enumerate(paths):
                inc[p_idx, list(path)] = 1.0  # a simple path uses an edge once
            self.incidence.append(inc)
        self.coef = np.array([e[2:] for e in self.edges], dtype=float)

    def _simple_paths(self, s, t) -> list:
        """The sorted simple paths from s to t.  The search enters only nodes
        that can reach t (one reverse pass), which bounds it on a DAG; on a
        graph with cycles SEARCH_CAP bounds it.  It keeps its own stack of
        out-edge iterators, so a long path cannot exhaust the recursion limit."""
        into, out = {}, {}  # per node: the tails of its in-edges, its out-edge indices
        for idx, (u, v, *_rest) in enumerate(self.edges):
            into.setdefault(v, []).append(u)
            out.setdefault(u, []).append(idx)
        reach, todo = {t}, [t]
        while todo:
            for u in into.get(todo.pop(), ()):
                if u not in reach:
                    reach.add(u)
                    todo.append(u)
        found = [()] if s == t else []
        path, seen, steps = [], {s}, 0  # path: the edges from s to the top node
        stack = [] if found else [iter(out.get(s, ()))]
        while stack and len(found) <= PATH_CAP:
            eidx = next(stack[-1], None)
            if eidx is None:  # the top node is done: step back from it
                stack.pop()
                if path:
                    seen.discard(self.edges[path.pop()][1])
                continue
            v = self.edges[eidx][1]
            if v in seen or v not in reach:
                continue
            steps += 1
            if steps > SEARCH_CAP:
                raise ValueError(f"path search from {s} to {t} exceeds {SEARCH_CAP} steps")
            if v == t:
                found.append((*path, eidx))
            else:
                path.append(eidx)
                seen.add(v)
                stack.append(iter(out.get(v, ())))
        if not found:
            raise ValueError(f"no path from {s} to {t}")
        if len(found) > PATH_CAP:
            raise ValueError(f"paths from {s} to {t} exceed the cap {PATH_CAP}")
        return sorted(found)

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return len(self.edges)

    def latencies(self, x):
        """(latency a*x*x + b*x + c, slope 2*a*x + b) of every edge at the
        edge loads ``x``, an array whose last axis runs over the m edges."""
        a, b, c = self.coef.T
        return a * x * x + b * x + c, 2.0 * a * x + b

    def describe(self) -> dict:
        """The network as trace metadata; ``library.build_game`` rebuilds it."""
        return {"kind": "network", "edges": [list(e) for e in self.edges],
                "players": [list(p) for p in self.players]}

    def edge_loads(self, profile) -> tuple[np.ndarray, np.ndarray]:
        """(per-player L + (n, m) edge flows, total L + (m,) edge flow) of n
        flow arrays of shapes L + (|P_i|,), one leading shape L for all; every
        row must be nonnegative and sum to the player's flow amount."""
        if len(profile) != self.n:
            raise ValueError(f"profile has {len(profile)} flow vectors, "
                             f"network has {self.n} players")
        profile = [np.asarray(w, dtype=float) for w in profile]
        lead = profile[0].shape[:-1]
        for i, (w, (_s, _t, f)) in enumerate(zip(profile, self.players)):
            if w.shape != lead + (len(self.paths[i]),):
                raise ValueError(f"player {i}: flow vector has shape {w.shape}, "
                                 f"expected {lead + (len(self.paths[i]),)}")
            # negated comparisons, so a NaN entry fails them too
            if not (np.all(w >= -1e-9) and np.all(abs(w.sum(axis=-1) - f) <= 1e-9)):
                raise ValueError(f"player {i}: path flows must be >= 0 and sum to {f}")
        return self._edge_loads(profile)

    def _edge_loads(self, profile) -> tuple[np.ndarray, np.ndarray]:
        """``edge_loads`` past its checks: ``profile`` holds one float array
        per player, unchecked here."""
        per = np.stack([w @ inc for w, inc in zip(profile, self.incidence)], axis=-2)
        return per, per.sum(axis=-2)


def parse_network(text: str) -> CongestionNetwork:
    """Line format: ``edge u v a b c`` and ``player s t flow``; ``#`` comments."""
    edges, players = [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "edge" and len(parts) == 6:
                edges.append((parts[1], parts[2], float(parts[3]),
                              float(parts[4]), float(parts[5])))
            elif parts[0] == "player" and len(parts) == 4:
                players.append((parts[1], parts[2], float(parts[3])))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {ln}: cannot parse {raw!r}") from None
    if not edges or not players:
        raise ValueError("network needs at least one edge and one player")
    return CongestionNetwork(edges, players)


def _derive(network: CongestionNetwork, flows):
    """(every player's gradient, L + (|P_i|,); each player's cost, (n,) + L;
    the total cost, L) of flows with a leading shape L, from one checked
    ``edge_loads`` pass."""
    per, total = network.edge_loads(flows)
    lat, slope = network.latencies(total)
    grads = [(lat + per[..., i, :] * slope) @ inc.T for i, inc in enumerate(network.incidence)]
    costs = np.moveaxis(np.sum(per * lat[..., None, :], axis=-1), -1, 0)
    return grads, costs, np.sum(total * lat, axis=-1)


def gradient(network: CongestionNetwork, profile, i: int) -> np.ndarray:
    """Exact gradient of player i's cost in its own path flows."""
    return _derive(network, profile)[0][i]


@dataclass
class LipschitzBundle:
    """K bounds both the latency slope and the slope's own rate of change on
    the feasible range [0, total flow]; L is reported under the two published
    derivations and certificates use the larger one."""

    K: float
    L_paper: float
    L_derived: float

    @property
    def L(self) -> float:
        return max(self.L_paper, self.L_derived)


def lipschitz_constant(network: CongestionNetwork) -> LipschitzBundle:
    F = sum(f for (_s, _t, f) in network.players)
    B = max(f for (_s, _t, f) in network.players)
    K = 0.0
    for e in range(network.m):
        _, _, a, b, _ = network.edges[e]
        K = max(K, 2.0 * a * F + b, 2.0 * a)
    m = network.m
    return LipschitzBundle(K=K, L_paper=2.0 * K * m, L_derived=K * (1.0 + B) * m)


def _tuned_eta(network: CongestionNetwork, bundle: LipschitzBundle, eta: float = math.nan):
    """The tuned step size 1/(2Ln) and whether ``eta`` (when given) is it.
    When every latency is constant, L = 0 and no step is tuned: a given
    ``eta`` is not tuned, and asking for the tuned step is an error."""
    if bundle.L == 0.0:
        if math.isnan(eta):
            raise ValueError("every latency is constant (L = 0), so there is no tuned "
                             "step size; set [learner] eta")
        return math.inf, False
    eta_tuned = 1.0 / (2.0 * bundle.L * network.n)
    return eta_tuned, abs(eta - eta_tuned) <= 1e-12 * max(1.0, eta_tuned)


@dataclass
class ContinuousTrace:
    """A routing run: the ``network``, every player's (T, |P_i|) ``flows`` and
    the ``meta`` (the network's description, eta, T and mode), with the rest
    derived from the flows on construction by ``_derive``: grads[i]
    (T, |P_i|), costs (n, T) with costs[i, t] = c_i(w^t), and total_cost
    (T,).  ``eta`` is the metadata's."""

    network: CongestionNetwork
    flows: list
    meta: dict
    grads: list = field(init=False)
    costs: np.ndarray = field(init=False)
    total_cost: np.ndarray = field(init=False)
    value_names = ("cost", "total_cost")  # the values a trace file stores per row
    vector_name = "flow"

    def __post_init__(self):
        self.grads, self.costs, self.total_cost = _derive(self.network, self.flows)

    @property
    def T(self) -> int:
        return len(self.total_cost)

    @property
    def eta(self) -> float:
        return self.meta["eta"]


def run_continuous(network: CongestionNetwork, eta: float, T: int) -> ContinuousTrace:
    """Optimistic Hedge on costs: player i routes f_i times the play of a
    ``make_learner(LearnerSpec("optimistic_hedge", eta), |P_i|)`` fed its
    negated path gradients, i.e. f_i * softmax(-eta * (sum of past gradients
    + last gradient)), starting from the uniform split.  Each round computes
    the edge loads once and the gradients from them; the flows are checked
    and everything else derived once, over all T rounds.  More than
    ``DEFAULT_ENUM_CAP`` flow cells (T * sum |P_i|) are refused up front."""
    spec = LearnerSpec("optimistic_hedge", eta)  # checks eta
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    width = sum(map(len, network.paths))
    _check_cap(T * width, f"T = {T} rounds of {width} paths make", "play cells")
    F = sum(f for *_, f in network.players)  # a gradient <= sum_e latency + F * slope at F
    _check_step_size(eta, T, sum(3 * a * F * F + 2 * b * F + c for *_, a, b, c in network.edges))
    learners = [make_learner(spec, len(p)) for p in network.paths]
    flows = [np.empty((T, len(p))) for p in network.paths]
    for t in range(T):
        profile = [f * lr.play() for (_s, _t, f), lr in zip(network.players, learners)]
        per, total = network._edge_loads(profile)
        lat, slope = network.latencies(total)
        for i, lr in enumerate(learners):
            lr.observe(-(network.incidence[i] @ (lat + per[i] * slope)))
            flows[i][t] = profile[i]
    meta = {"game": network.describe(), "eta": float(eta), "T": T, "mode": "routing"}
    return ContinuousTrace(network, flows, meta)


def linearized_regret(trace: ContinuousTrace, i: int) -> float:
    """max over path vertices w* of sum_t <w_i^t - w*, grad_i^t>; an upper
    bound on the true regret because costs are convex in own flow."""
    g = trace.grads[i]
    realized = float(np.sum(trace.flows[i] * g))
    f = trace.network.players[i][2]
    best = f * float(g.sum(axis=0).min())
    return realized - best


def true_regret(trace: ContinuousTrace, i: int) -> float:
    """sum_t c_i(w^t) - min_w sum_t c_i(w, w_-i^t), the min taken over the
    scaled simplex.  Latencies are quadratic, so the opponents' loads o_t
    enter the cumulative cost of a fixed split only through S1 = sum_t o_t and
    S2 = sum_t o_t^2: with x = w @ inc it is sum_e x (c1 + c2 x + c3 x^2).
    Projected gradient with backtracking minimizes that convex cubic from the
    uniform split; the minimizer is then costed round by round."""
    net = trace.network
    f = net.players[i][2]
    inc = net.incidence[i]
    # opponents' per-edge loads each round, (T, m) even with no opponents
    others = sum((trace.flows[j] @ net.incidence[j] for j in range(net.n) if j != i),
                 np.zeros((trace.T, net.m)))
    a, b, c = net.coef.T
    s1, s2 = others.sum(axis=0), np.sum(others * others, axis=0)
    c1, c2, c3 = a * s2 + b * s1 + c * trace.T, 2.0 * a * s1 + b * trace.T, a * trace.T

    def cum_cost(w):
        x = w @ inc
        return float(x @ (c1 + x * (c2 + x * c3)))

    w, step = np.full(len(inc), f / len(inc)), 1.0
    val = cum_cost(w)
    for _ in range(10_000):
        x = w @ inc
        g = inc @ (c1 + x * (2.0 * c2 + 3.0 * c3 * x))
        cand = f * project_simplex((w - step * g) / f)
        d = cand - w
        new = cum_cost(cand)
        if new > val + g @ d + (d @ d) / (2.0 * step):  # step too long for the curvature
            step *= 0.5
        elif new < val:
            w, val, step = cand, new, 1.5 * step
        else:  # no further decrease at this precision
            break
    mine = w @ inc
    lat, _ = net.latencies(others + mine)
    realized = sum(trace.costs[i].tolist())  # sequential; pairwise np.sum rounds differently
    return float(realized - np.sum(lat @ mine))


def certify_total_regret(trace: ContinuousTrace, bundle: LipschitzBundle) -> Certificate:
    """Sum of linearized regrets <= n*R/eta at the prescribed step size
    eta = 1/(2 L n), with R = max_i f_i * ln |P_i|."""
    net = trace.network
    n = net.n
    eta_req, tuned = _tuned_eta(net, bundle, trace.eta)
    if not tuned:
        raise ValueError(
            f"trace was run with eta={trace.eta}, bundle prescribes {eta_req}"
        )
    R = max(net.players[i][2] * math.log(len(net.paths[i])) for i in range(n))
    total = sum(linearized_regret(trace, i) for i in range(n))
    rhs = n * R / trace.eta
    return Certificate.check("total_linearized_regret", total, rhs,
                             {"L": bundle.L, "R": R, "eta": trace.eta}, _TOTAL_REGRET_TOL)
