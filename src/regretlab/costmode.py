"""Cost-minimization games and first-order regret machinery.

A cost game is a dense game whose oracle values are per-player costs in
[0, 1]; the dynamics engine feeds utility-maximizing learners 1 - c, while
``FirstOrderHedge`` is cost-native: exponential weights on cumulative cost
with a doubling schedule keyed to the best strategy's cumulative cost, so its
regret scales with the best arm's total cost rather than with T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import SmoothnessCertificate
from .learners import TOL, Certificate, ZeroPredictor, _RegularizedLearner
from .regularizers import NegativeEntropy

__all__ = [
    "CostHedge",
    "FirstOrderHedge",
    "FirstOrderConstants",
    "fit_first_order_constants",
    "certify_cost_welfare",
]


class CostHedge(_RegularizedLearner):
    """Fixed-step Hedge over costs: the entropy step on the complements 1 - c,
    whose play softmax(eta * sum(1 - c)) is exponential weights on cumulative
    cost by the shift invariance of softmax.  The engine feeds utility
    learners the same 1 - c in cost mode, so the two iterate bit for bit."""

    algorithm = "cost_hedge"
    feedback = "cost"

    def __init__(self, d: int, eta: float):
        super().__init__(d, NegativeEntropy(), eta, ZeroPredictor())

    def _observe(self, c: np.ndarray) -> None:
        _RegularizedLearner._observe(self, 1.0 - c)


class FirstOrderHedge(_RegularizedLearner):
    """Cost-native Hedge with a first-order doubling schedule.

    Weights are proportional to exp(-eta_r * cumulative epoch cost): the
    entropy step on ``cumulative``, which holds minus the epoch's cost.  The
    budget L_r starts at 1 and doubles whenever the globally best strategy's
    cumulative cost exceeds it; each breach retunes eta_r = sqrt(ln d / L_r)
    and restarts the epoch sum.  On a stream with a zero-cost strategy the
    budget never breaks, so regret stays bounded independent of T.
    """

    algorithm = "first_order_hedge"
    feedback = "cost"

    def __init__(self, d: int):
        super().__init__(d, NegativeEntropy(), 1.0, ZeroPredictor())  # eta: tuned below
        self.budget, self.epoch = 1.0, 1
        self.global_cum = np.zeros(d)
        self.eta = self._tuned_eta()

    def _tuned_eta(self) -> float:
        return math.sqrt(max(math.log(self.d), 1e-12) / self.budget)

    def _observe(self, c: np.ndarray) -> None:
        bad = [x for x in c.tolist() if not -1e-12 <= x <= 1.0 + 1e-12]  # NaN too
        if bad:
            raise ValueError(f"costs must lie in [0,1], got {bad[0]}")
        self.cumulative -= c
        self.global_cum += c
        best = float(self.global_cum.min())
        if best > self.budget:
            while best > self.budget:
                self.budget *= 2.0
            self.epoch += 1
            self.eta = self._tuned_eta()
            self.cumulative.fill(0.0)


@dataclass
class FirstOrderConstants:
    """Measured constants of the first-order regret shape
    r <= A1 * sqrt(ln d * best_cumulative_cost) + A2 * ln d."""

    A1: float
    A2: float

    def bound(self, d: int, best_cost: float) -> float:
        ln_d = math.log(d)
        return self.A1 * math.sqrt(max(ln_d * best_cost, 0.0)) + self.A2 * ln_d

    def welfare_constant(self, mu: float) -> float:
        """The trace-independent constant A = A1^2 mu/(1-mu)^2 + 2 A2/(1-mu)."""
        if not 0.0 < mu < 1.0:
            raise ValueError(f"mu must lie in (0,1), got {mu}")
        return self.A1**2 * mu / (1.0 - mu) ** 2 + 2.0 * self.A2 / (1.0 - mu)


def _nnls2(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """argmin ||A c - y|| over c >= 0 for a two-column A: the smallest
    residual among the least-squares solution (when nonnegative), each
    column's own fit clipped at 0, and zero, ties to the first in that order."""
    cands = [np.linalg.lstsq(A, y, rcond=None)[0]]
    for j, col in enumerate(A.T):
        nn = col @ col
        cands.append(np.eye(2)[j] * (max(col @ y / nn, 0.0) if nn > 0 else 0.0))
    cands = [c + 0.0 for c in cands + [np.zeros(2)] if np.all(c >= 0)]  # + 0.0: no -0.0
    return min(cands, key=lambda c: np.linalg.norm(A @ c - y))


def fit_first_order_constants(observations) -> FirstOrderConstants:
    """Fit (A1, A2) over (d, best_cumulative_cost, regret) observations.

    Nonnegative least squares on the two basis terms, then a minimal uniform
    inflation so the fitted curve dominates every observation — the constants
    are an honest measured envelope, not an asserted theorem.
    """
    rows, targets = [], []
    for (d, best_cost, reg) in observations:
        ln_d = math.log(d)
        rows.append([math.sqrt(max(ln_d * best_cost, 0.0)), ln_d])
        targets.append(max(float(reg), 0.0))
    A = np.asarray(rows)
    y = np.asarray(targets)
    a1, a2 = _nnls2(A, y).tolist()
    if a1 == 0.0 and a2 == 0.0:
        a2 = 1e-12
    preds = A @ np.array([a1, a2])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(preds > 0, y / np.where(preds > 0, preds, 1.0), np.inf)
    ratios = ratios[y > 0]
    inflate = float(max(1.0, ratios.max())) if ratios.size else 1.0
    if not math.isfinite(inflate):
        # some observation has positive regret but zero predicted bound;
        # fall back to per-term envelopes
        a1 = max((reg / math.sqrt(math.log(d) * bc) for (d, bc, reg) in observations
                  if bc > 0 and reg > 0), default=0.0)
        a2 = max((reg / math.log(d) for (d, _bc, reg) in observations if reg > 0),
                 default=1e-12)
        return FirstOrderConstants(a1, a2)
    return FirstOrderConstants(a1 * inflate, a2 * inflate)


def certify_cost_welfare(
    trace, smoothness: SmoothnessCertificate, constants: FirstOrderConstants,
) -> Certificate:
    """Average-cost bound for smooth cost games with mu in (0, 1):

        (1/T) sum_t C(w^t) <= lam(1+mu)/(mu(1-mu)) * Opt' + A * n * ln d / T

    The first-order precondition (each player's regret against its deviation
    strategy s*_i obeys the measured constants) is checked first; when it
    fails the certificate is reported as vacuous (passed None), not failed.
    Everything comes from the trace: s*_i's costs are column s*_i of 1 - u_i.
    """
    lam, mu = smoothness.lam, smoothness.mu
    if not 0.0 < mu < 1.0:
        raise ValueError(f"the cost-welfare bound needs mu in (0,1), got {mu}")
    if not smoothness.verified:
        raise ValueError("cost-welfare bound requires a verified smoothness certificate")
    if trace.meta.get("mode") != "cost":
        raise ValueError("cost-welfare bound applies to cost-mode traces")
    n, T = trace.n, trace.T
    s_star = smoothness.s_star
    d_max = max(p.shape[1] for p in trace.plays)

    precondition_ok = True
    details: dict = {}
    for i in range(n):
        costs = 1.0 - trace.utilities[i]  # engine stores 1 - c
        dev_costs = costs[:, s_star[i]]
        realized = float(np.sum(trace.plays[i] * costs))
        r_dev = realized - float(dev_costs.sum())
        cap = constants.bound(trace.plays[i].shape[1], float(dev_costs.sum()))
        details[f"player_{i}"] = {"regret_vs_s_star": r_dev, "first_order_cap": cap}
        if r_dev > cap + TOL:
            precondition_ok = False
    avg_cost = float(trace.welfare.mean())
    rhs = (lam * (1.0 + mu) / (mu * (1.0 - mu))) * smoothness.opt \
        + constants.welfare_constant(mu) * n * math.log(d_max) / T
    if not precondition_ok:
        return Certificate("cost_welfare", None, avg_cost, rhs,
                           {"vacuous": "first-order precondition failed", **details})
    return Certificate.check("cost_welfare", avg_cost, rhs, details)
