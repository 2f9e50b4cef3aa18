"""Online learners over the simplex with a uniform play/observe contract.

Each learner plays a mixed strategy once per round, then observes the exact
expected-utility vector for that round.  Learners keep no variation state;
``variation_steps`` alone defines, from a recorded trajectory, the per-round
terms of the two variation sums that every regret certificate consumes:

    sum ||u^t - u^{t-1}||_inf^2   with u^0 = 0,
    sum ||w^t - w^{t-1}||_1^2     with w^0 = w^1 (first round contributes 0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .regularizers import _REGISTRY, NegativeEntropy, get_regularizer

__all__ = [
    "Certificate",
    "RegretReport",
    "VariationBound",
    "LearnerSpec",
    "OnlineLearner",
    "FtrlLearner",
    "OmdLearner",
    "BestResponseLearner",
    "FirstOrderHedge",
    "make_learner",
    "declared_variation_bound",
    "declares_variation_bound",
    "variation_sums",
    "certify_variation_bound",
    "certify_stability",
    "TOL",
]

TOL = 1e-9  # the tol of every certificate's ``lhs <= rhs + tol`` rule but routing's


@dataclass
class Certificate:
    """Outcome of one mechanically checked inequality ``lhs <= rhs + tol``.

    ``check`` builds every checked certificate and owns the pass rule;
    ``passed`` is None only when the check's precondition did not apply
    (vacuous), and ``status`` names the three outcomes.
    """

    name: str
    passed: bool | None
    lhs: float
    rhs: float
    details: dict = field(default_factory=dict)

    @classmethod
    def check(cls, name: str, lhs: float, rhs: float, details: dict,
              tol: float = TOL) -> Certificate:
        return cls(name, bool(lhs <= rhs + tol), lhs, rhs, details)

    @property
    def status(self) -> str:
        return "vacuous" if self.passed is None else ("pass" if self.passed else "fail")


@dataclass
class RegretReport:
    """Per-player regrets in normalized and raw units (a routing run's
    linearized and true regrets), the ordered ``summary`` rows of
    ``experiment.write_report_csv``, and every certificate the trace supports."""

    regrets: list
    regrets_raw: list
    summary: dict
    certificates: list
    extras: dict = field(default_factory=dict)

    def failed(self) -> list:
        return [c for c in self.certificates if c.passed is False]


@dataclass
class VariationBound:
    """Constants (alpha, beta, gamma) of the variation-bounded regret property:

        regret <= alpha + beta * sum ||u^t - u^{t-1}||_*^2
                        - gamma * sum ||w^t - w^{t-1}||^2

    ``norm_pair`` records the primal/dual pairing the constants were derived
    under ("l1_linf" or "l2_l2").
    """

    alpha: float
    beta: float
    gamma: float
    norm_pair: str = "l1_linf"

    def __post_init__(self):
        # alpha = R/eta is 0 for a one-strategy player (R = ln 1)
        if self.alpha < 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError(
                f"variation-bound constants need alpha >= 0 and beta, gamma > 0, "
                f"got ({self.alpha}, {self.beta}, {self.gamma})"
            )

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# predictors: each stateful one keeps its state in the shape it is built
# with, (d,) for one learner or (*lead, d) for a group of learners


class ZeroPredictor:
    def predict(self):
        return 0.0

    def update(self, u: np.ndarray) -> None:
        pass


class LastUtility:
    def __init__(self, shape):
        self._last = np.zeros(shape)  # u^0 = 0

    def predict(self):
        return self._last

    def update(self, u: np.ndarray) -> None:
        self._last = u


class WindowAverage:
    """Average of the last H utilities, zero-padding rounds before the start
    (the divisor is always H).

    Each utility is written to rows k and k + H of a (2H, d) buffer, k
    cycling through 0..H-1, so the window is always the one contiguous slice
    ``[k + 1, k + 1 + H)`` in arrival order, its zero padding first.  The
    window sums along its first axis, one entry at a time in arrival order,
    so a group's rows sum as single learners' do (for d >= 2; numpy sums a
    (H, 1) window pairwise).
    """

    def __init__(self, H: int, shape):
        self.H = H
        self._buf = np.zeros((2 * self.H, *np.atleast_1d(shape)))
        self._k = -1  # buffer row of the latest utility

    def predict(self):
        k = self._k + 1
        return np.add.reduce(self._buf[k : k + self.H], axis=0) / self.H

    def update(self, u: np.ndarray) -> None:
        k = self._k = (self._k + 1) % self.H
        self._buf[k] = self._buf[k + self.H] = u


class GeometricDiscount:
    """Geometrically discounted average of all past utilities.

    M^t = sum_{tau=0}^{t-1} delta^{-tau} u^tau / sum_{tau=0}^{t-1} delta^{-tau}
    with u^0 = 0, computed through the overflow-free recurrences
    N <- delta*N + u and D <- delta*D + 1 (both sides scaled by delta^{t-1}),
    N updated in place.  At delta = 0 the recurrences keep only the last
    utility.
    """

    def __init__(self, delta: float, shape):
        self.delta = delta
        self._num = np.zeros(shape)  # u^0 = 0
        self._den = 1.0

    def predict(self):
        return self._num / self._den

    def update(self, u: np.ndarray) -> None:
        self._num *= self.delta
        self._num += u
        self._den = self.delta * self._den + 1.0


# predictor name -> constructor(predictor_param, state shape)
_PREDICTORS = {
    "none": lambda param, shape: ZeroPredictor(),
    "last": lambda param, shape: LastUtility(shape),
    "window": WindowAverage,
    "geometric": GeometricDiscount,
}


# ---------------------------------------------------------------------------
# learners


class OnlineLearner:
    """Base class enforcing the play/observe alternation.

    ``shape`` is that of each play and each observed utility: (d,), or
    (*lead, d) for a group of learners that steps as one (FTRL and OMD
    only, built by ``_regularized_learner``), row j being learner j's.
    """

    feedback = "utility"
    spec = None  # the LearnerSpec ``make_learner`` built it from

    def __init__(self, d: int, *, _lead: tuple = ()):
        if d < 1:
            raise ValueError(f"strategy count must be >= 1, got {d}")
        self.d = d
        self.shape = (*_lead, d)
        self.t = 0  # completed rounds
        self._pending = None

    def play(self) -> np.ndarray:
        if self._pending is not None:
            raise RuntimeError(f"play() called twice in round {self.t + 1}")
        w = self._play()
        self._pending = w
        return w

    def observe(self, u) -> None:
        if self._pending is None:
            raise RuntimeError(f"observe() called before play() in round {self.t + 1}")
        u = np.array(u, dtype=float)  # own copy: a caller may reuse its buffer
        if u.shape != self.shape:
            raise ValueError(f"utility vector has shape {u.shape}, learner expects {self.shape}")
        self._observe(u)
        self._pending = None
        self.t += 1

    def to_dict(self) -> dict:
        """The learner as trace metadata: its spec's dict, else its class name."""
        return self.spec.to_dict() if self.spec is not None else {"algorithm": type(self).__name__}

    def _play(self) -> np.ndarray:
        raise NotImplementedError

    def _observe(self, u: np.ndarray) -> None:
        raise NotImplementedError


class _RegularizedLearner(OnlineLearner):
    """The step FTRL, OMD and the cost learners share: play argmax_w <w, G +
    M^t> - R(w)/eta, where G is the cumulative utility (updated in place) and
    M^t the predictor's value, then add the observed utility to G."""

    def __init__(self, d: int, regularizer, eta: float, predictor, *, _lead: tuple = ()):
        super().__init__(d, _lead=_lead)
        if not 0.0 < eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {eta}")
        self.reg = regularizer
        self.eta = float(eta)
        self.predictor = predictor
        self.cumulative = np.zeros(self.shape)

    def _play(self) -> np.ndarray:
        return self.reg.ftrl_argmax(self.cumulative + self.predictor.predict(), self.eta)

    def _observe(self, u: np.ndarray) -> None:
        self.cumulative += u
        self.predictor.update(u)


class FtrlLearner(_RegularizedLearner):
    """Optimistic follow-the-regularized-leader.

    With a zero predictor this is plain Hedge (for the entropy regularizer)
    / lazy projected ascent (Euclidean).
    """

    algorithm = "ftrl"


class OmdLearner(_RegularizedLearner):
    """Optimistic mirror descent with secondary sequence g^t.

    Plays w^t = prox(M^t, g^{t-1}); updates g^t = prox(u^t, g^{t-1}).  The
    entropy instance's chained prox steps telescope to exponential weights,
    g^t = softmax(eta G^t) and w^t = softmax(eta (G^{t-1} + M^t)), which is
    FTRL's step, so it runs that step unchanged.  The Euclidean instance
    keeps g itself (``_g``, None for the entropy) in place of G and steps it
    by the projected prox.
    """

    algorithm = "omd"

    def __init__(self, d: int, regularizer, eta: float, predictor, *, _lead: tuple = ()):
        super().__init__(d, regularizer, eta, predictor, _lead=_lead)
        self._g = (None if isinstance(regularizer, NegativeEntropy)
                   else np.broadcast_to(regularizer.initial_point(d), self.shape).copy())

    # FTRL's step is called by its class, not through super(), whose lookup
    # would cost the entropy instance a measurable share of its step
    def _play(self) -> np.ndarray:
        if self._g is None:
            return _RegularizedLearner._play(self)
        return self.reg.prox_step(self._g, self.predictor.predict(), self.eta)

    def _observe(self, u: np.ndarray) -> None:
        if self._g is None:
            return _RegularizedLearner._observe(self, u)
        self._g = self.reg.prox_step(self._g, u, self.eta)
        self.predictor.update(u)


class BestResponseLearner(OnlineLearner):
    """Plays a point mass on the strategy maximizing ``utilities``, the
    current expected utilities the dynamics engine sets before each play.
    Ties break toward the lowest strategy index."""

    algorithm = "bestresponse"
    utilities = None

    def _play(self) -> np.ndarray:
        if self.utilities is None:
            raise RuntimeError("best-response learner has no utilities to respond to "
                               "(run it through the dynamics engine)")
        w = np.zeros(self.d)
        w[int(np.argmax(self.utilities))] = 1.0
        return w

    def _observe(self, u: np.ndarray) -> None:
        pass


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


# ---------------------------------------------------------------------------
# specs and construction


# the config-file vocabulary of algorithms; a resolved spec names ftrl
_ALGORITHMS = {"hedge", "optimistic_hedge", "oftrl", "omd", "bestresponse", "first_order_hedge"}
# per algorithm, the spec fields it fixes (a spec of it leaves them at their
# defaults) and how a message says so: a Hedge fixes its regularizer and
# predictor; best response and first-order Hedge take no step size either
_PREDICTION = ("regularizer", "predictor", "predictor_param")
_FIXED_FIELDS = {
    "hedge": dict.fromkeys(_PREDICTION, "is fixed by"),
    "optimistic_hedge": dict.fromkeys(_PREDICTION, "is fixed by"),
    "bestresponse": dict.fromkeys(("eta", *_PREDICTION), "does not apply to"),
    "first_order_hedge": dict.fromkeys(("eta", *_PREDICTION), "does not apply to"),
}


def _choice(value, where, choices):
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{where} must be one of {', '.join(sorted(choices))}; "
                         f"got {value!r}")
    return value


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _positive_finite(key: str, x) -> None:
    """A doubling wrapper's rule for eta_star, built or read back."""
    if not (_real(x) and 0.0 < x < math.inf):
        raise ValueError(f"{key} must be a positive finite number, got {x!r}")


@dataclass
class LearnerSpec:
    """Declarative learner description (also the config-file vocabulary).

    ``algorithm``: hedge | optimistic_hedge | oftrl | omd | bestresponse |
    first_order_hedge, or ftrl (resolved).  ``predictor``: none | last |
    window | geometric, ``predictor_param`` carrying H (an int) or the discount
    (a float).  Construction checks each value, and that a field the algorithm
    fixes (``_FIXED_FIELDS``) keeps its default; a ValueError names the field."""

    algorithm: str
    eta: float | None = None
    regularizer: str = "entropy"
    predictor: str = "none"
    predictor_param: float | None = None

    def __post_init__(self):
        if self.algorithm != "ftrl":
            _choice(self.algorithm, "algorithm", _ALGORITHMS)
        for key, verb in _FIXED_FIELDS.get(self.algorithm, {}).items():
            if getattr(self, key) != _DEFAULTS[key]:
                raise ValueError(f"{key} {verb} algorithm {self.algorithm!r}")
        if self.eta is not None and not (_real(self.eta) and 0.0 < self.eta < math.inf):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        _choice(self.regularizer, "regularizer", _REGISTRY)
        _choice(self.predictor, "predictor", _PREDICTORS)
        p, kind = self.predictor_param, self.predictor
        if kind not in ("window", "geometric"):
            if p is not None:
                raise ValueError("predictor_param only applies to window/geometric predictors")
            return
        if p is None:
            size = "window size" if kind == "window" else "discount"
            raise ValueError(f"predictor_param ({size}) is required for the {kind} predictor")
        if kind == "window" and not (_real(p) and 1 <= p < math.inf and p == int(p)):
            raise ValueError(f"predictor_param must be a window size >= 1, got {p}")
        if kind == "geometric" and not (_real(p) and 0.0 <= p < 1.0):
            raise ValueError(f"predictor_param must be a discount in [0, 1), got {p}")
        self.predictor_param = int(p) if kind == "window" else float(p)

    def resolved(self) -> "LearnerSpec":
        """Expand the hedge shortcuts into their ftrl form."""
        if self.algorithm == "hedge":
            return LearnerSpec("ftrl", self.eta, "entropy", "none", None)
        if self.algorithm == "optimistic_hedge":
            return LearnerSpec("ftrl", self.eta, "entropy", "last", None)
        if self.algorithm == "oftrl":
            return replace(self, algorithm="ftrl")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(dd: dict) -> "LearnerSpec":
        return LearnerSpec(dd.get("algorithm"), **{k: dd.get(k, v) for k, v in _DEFAULTS.items()})


_DEFAULTS = {f.name: f.default for f in fields(LearnerSpec)[1:]}  # every field but algorithm


# The variation-bound families, keyed by resolved (algorithm, predictor):
# beta(eta, predictor_param) and the c of gamma = 1/(c eta); alpha = R/eta with
# R = ``r_ftrl``.  Plain (zero-predictor) learners and best response carry none.
_VARIATION_BOUNDS = {
    ("ftrl", "last"): (lambda eta, _: eta, 4.0),
    ("ftrl", "window"): (lambda eta, H: eta * H * H, 4.0),
    ("ftrl", "geometric"): (lambda eta, delta: eta / (1.0 - delta) ** 3, 8.0),
    ("omd", "last"): (lambda eta, _: eta, 8.0),
}


def declares_variation_bound(spec: LearnerSpec) -> bool:
    """Whether ``spec``'s family carries variation-bound constants (given a
    step size): a row of ``_VARIATION_BOUNDS``."""
    s = spec.resolved()
    return (s.algorithm, s.predictor) in _VARIATION_BOUNDS


def _wrappable(spec: LearnerSpec) -> LearnerSpec:
    """``spec`` if a doubling wrapper can wrap its family, one that declares
    variation-bound constants; else the one ValueError every caller prefixes."""
    if not declares_variation_bound(spec):
        raise ValueError(f"algorithm {spec.algorithm!r} with predictor {spec.predictor!r} "
                         f"declares no variation bound to wrap")
    return spec


def declared_variation_bound(spec: LearnerSpec, d: int) -> VariationBound | None:
    """The (alpha, beta, gamma) constants of ``spec``'s family at its step
    size, or None for a family without them or a spec without eta."""
    s = spec.resolved()
    row = _VARIATION_BOUNDS.get((s.algorithm, s.predictor))
    if s.eta is None or row is None:
        return None
    beta, c = row
    reg = get_regularizer(s.regularizer)
    eta = float(s.eta)
    return VariationBound(reg.r_ftrl(d) / eta, beta(eta, s.predictor_param),
                          1.0 / (c * eta), "l1_linf" if reg.primal_norm == "l1" else "l2_l2")


def make_learner(spec: LearnerSpec, d: int) -> OnlineLearner:
    """Instantiate a learner from its spec; the first play is always the
    regularizer's initial (uniform) point."""
    s = spec.resolved()
    if s.algorithm in ("ftrl", "omd"):
        return _regularized_learner(spec, d)
    learner = BestResponseLearner(d) if s.algorithm == "bestresponse" else FirstOrderHedge(d)
    learner.spec = spec
    return learner


def _regularized_learner(spec: LearnerSpec, d: int, lead: tuple = ()) -> OnlineLearner:
    """The FTRL or OMD learner of ``spec``; with a leading shape, say (k,), a
    group of k such learners that steps as one: (*lead, d) state, plays and
    utilities, each row bitwise that of a ``make_learner(spec, d)`` fed the
    same rows (d >= 2)."""
    s = spec.resolved()
    if s.eta is None:
        raise ValueError(f"{spec.algorithm} requires eta")
    reg = get_regularizer(s.regularizer)
    cls = FtrlLearner if s.algorithm == "ftrl" else OmdLearner
    predictor = _PREDICTORS[s.predictor](s.predictor_param, (*lead, d))
    learner = cls(d, reg, s.eta, predictor, _lead=lead)
    learner.spec = spec
    return learner


# ---------------------------------------------------------------------------
# certificates


def variation_steps(
    utilities: np.ndarray, plays: np.ndarray, norm_pair: str = "l1_linf"
) -> tuple[np.ndarray, np.ndarray]:
    """Per-round (||u^t - u^{t-1}||_*^2, ||w^t - w^{t-1}||^2), two (T,) arrays,
    under the u^0 = 0, w^0 = w^1 conventions (so the first dw term is 0).

    The norms follow the constants' derivation: "l1_linf" measures du in
    l-infinity and dw in l1; "l2_l2" measures both in l2 (self-dual).
    """
    if norm_pair not in ("l1_linf", "l2_l2"):
        raise ValueError(f"unknown norm pair {norm_pair!r}")
    utilities = np.asarray(utilities, dtype=float)
    plays = np.asarray(plays, dtype=float)
    du = np.diff(utilities, axis=0, prepend=np.zeros((1, utilities.shape[1])))
    dw = np.diff(plays, axis=0, prepend=plays[:1])
    if norm_pair == "l1_linf":
        return np.max(np.abs(du), axis=1) ** 2, np.sum(np.abs(dw), axis=1) ** 2
    return np.sum(du * du, axis=1), np.sum(dw * dw, axis=1)


def variation_sums(
    utilities: np.ndarray, plays: np.ndarray, norm_pair: str = "l1_linf"
) -> tuple[float, float]:
    """(sum ||du||_*^2, sum ||dw||^2): the totals of ``variation_steps``."""
    du2, dw2 = variation_steps(utilities, plays, norm_pair)
    # skip the w^0 = w^1 zero: a leading term would shift pairwise summation
    return float(np.sum(du2)), float(np.sum(dw2[1:]))


def _best_vertex_regret(utilities, plays) -> float:
    """max_k sum_t u^t_k - sum_t <w^t, u^t>: the regret against the best
    vertex in hindsight of two equal-shape (T, d) sequences."""
    utilities = np.asarray(utilities, dtype=float)
    if utilities.shape != np.shape(plays):
        raise ValueError("utility and play sequences must have equal shapes")
    return float(utilities.sum(axis=0).max()) - float(np.sum(plays * utilities))


def _term(constant: float, factor: float) -> float:
    """constant * factor of a bound, where a measured factor of exactly 0
    contributes 0 whatever the constant (an infinite one would give nan)."""
    return constant * factor if factor else 0.0


def certify_variation_bound(utilities, plays, bound: VariationBound,
                            tol: float = TOL) -> Certificate:
    """Check regret <= alpha + beta*sum||du||^2 - gamma*sum||dw||^2, the
    regret taken against the best vertex in hindsight."""
    lhs = _best_vertex_regret(utilities, plays)
    sum_du2, sum_dw2 = variation_sums(utilities, plays, bound.norm_pair)
    rhs = bound.alpha + _term(bound.beta, sum_du2) - _term(bound.gamma, sum_dw2)
    return Certificate.check("variation_bound", lhs, rhs,
                             {"sum_du2": sum_du2, "sum_dw2": sum_dw2, **bound.to_dict()}, tol)


def certify_stability(plays, eta: float) -> Certificate:
    """Consecutive-play stability ||w^{t+1} - w^t||_1 <= 2*eta, every round."""
    plays = np.asarray(plays, dtype=float)
    if len(plays) < 2:
        return Certificate.check("play_stability", 0.0, 2.0 * eta, {})
    steps = np.sum(np.abs(np.diff(plays, axis=0)), axis=1)
    return Certificate.check("play_stability", float(steps.max()), 2.0 * eta,
                             {"argmax_round": int(steps.argmax()) + 1})
