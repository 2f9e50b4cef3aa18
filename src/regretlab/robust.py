"""Black-box doubling wrapper: restart a parametric learner on a schedule of
variation budgets so it is simultaneously fast in self-play and safe against
adversaries.

The wrapped learner tracks the global utility variation sum (never reset);
whenever it reaches the current budget B_r the budget doubles, the step size
is retuned to min(alpha / sqrt(B_r), eta_star), and a fresh inner learner
replaces the old one (its predictor history and cumulative sums start over).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .learners import (TOL, Certificate, OnlineLearner, _best_vertex_regret, _positive_finite,
                       _term, _wrappable, declared_variation_bound, make_learner, variation_sums)

__all__ = ["DoublingWrapper", "wrap_doubling", "parametric_constants", "certify_robust"]


class DoublingWrapper(OnlineLearner):
    """The doubling schedule around the step-size learner family ``spec``
    describes (``spec.eta`` is ignored: the wrapper owns the step size).

    ``alpha``, the parametric constant of the inner learner's regret bound
    (regret <= alpha/eta + ...), is the family's own (``parametric_constants``);
    ``eta_star`` caps the step size.  Epoch state is exposed for certificates:
    ``epoch``, ``budget``, ``eta``, ``variation_total`` and the ``epoch_log``
    of (round, variation_total, old_budget) entries at each switch.
    """

    algorithm = "robust"

    def __init__(self, spec, d: int, eta_star: float):
        if d < 2:  # alpha = ln 1 = 0 would scale no step size
            raise ValueError(f"a doubling wrapper needs at least 2 strategies, got d = {d}")
        self.alpha = parametric_constants(spec, d)[0]
        _positive_finite("eta_star", eta_star)
        super().__init__(d)
        self.inner_spec = spec
        self.eta_star = float(eta_star)
        self.epoch = 1
        self.budget = 1.0
        self.variation_total = 0.0
        self._prev_u = np.zeros(d)
        self.epoch_log: list[dict] = []
        self._restart()

    def _restart(self) -> None:
        """Retune eta to the budget and start a fresh inner learner."""
        self.eta = min(self.alpha / math.sqrt(self.budget), self.eta_star)
        self.inner = make_learner(replace(self.inner_spec.resolved(), eta=self.eta), self.d)

    def to_dict(self) -> dict:
        """Metadata without a fixed eta, so the reporter attaches no
        constant-step certificate to a wrapped learner."""
        return {"algorithm": "robust", "eta_star": self.eta_star,
                "inner": self.inner_spec.to_dict()}

    def _play(self) -> np.ndarray:
        return self.inner.play()

    def _observe(self, u: np.ndarray) -> None:
        self.inner.observe(u)
        # the trigger: the global sum of ||u^t - u^{t-1}||_inf^2 (u^0 = 0),
        # kept here (learners keep no variation state) and never reset
        self.variation_total += float(np.abs(u - self._prev_u).max()) ** 2
        self._prev_u = u
        if self.variation_total >= self.budget:
            self.epoch_log.append({
                "round": self.t + 1,
                "variation_total": self.variation_total,
                "budget": self.budget,
            })
            self.epoch += 1
            self.budget *= 2.0
            self._restart()


wrap_doubling = DoublingWrapper


def parametric_constants(spec, d: int):
    """The eta-free (alpha, beta, gamma, norm_pair) of a wrappable learner's
    variation bound: its declared constants evaluated at eta = 1."""
    b = declared_variation_bound(replace(_wrappable(spec).resolved(), eta=1.0), d)
    return b.alpha, b.beta, b.gamma, b.norm_pair


def certify_robust(
    utilities, plays, alpha: float, beta: float, gamma: float, eta_star: float,
    tol: float = TOL, norm_pair: str = "l1_linf",
) -> Certificate:
    """Dual bound for a doubling-wrapped learner: regret must not exceed the
    minimum of

        ln T * (2 + alpha/eta* + (2 + eta*·beta) * sum ||du||_*^2)
             - (gamma/eta*) * sum ||dw||^2                         (variation form)
        ln T * (1 + alpha/eta* + (1 + alpha·beta) * sqrt(2 sum ||du||_*^2))
                                                                   (sqrt-T form)

    alpha, beta, gamma are the inner learner's parametric constants (the
    eta-free ones: regret <= alpha/eta + eta*beta*sum_du - (gamma/eta)*sum_dw),
    and ``norm_pair`` picks the norms those constants were derived under.
    """
    lhs = _best_vertex_regret(utilities, plays)
    T = len(utilities)
    if T < 2:
        raise ValueError("the wrapped-learner bound needs T >= 2")
    sum_du2, sum_dw2 = variation_sums(utilities, plays, norm_pair)
    log_t = math.log(T)
    rhs_variation = log_t * (2.0 + alpha / eta_star + _term(2.0 + eta_star * beta, sum_du2)) \
        - _term(gamma / eta_star, sum_dw2)
    rhs_sqrt = log_t * (1.0 + alpha / eta_star
                        + _term(1.0 + alpha * beta, math.sqrt(2.0 * sum_du2)))
    rhs = min(rhs_variation, rhs_sqrt)
    return Certificate.check("robust_bound", lhs, rhs, {
        "rhs_variation": rhs_variation, "rhs_sqrt": rhs_sqrt,
        "sum_du2": sum_du2, "sum_dw2": sum_dw2,
        "alpha": alpha, "beta": beta, "gamma": gamma, "eta_star": eta_star,
    }, tol)

