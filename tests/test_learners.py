"""Learner contracts: play/observe alternation, predictor closed forms,
declared variation-bound constants, certificates, stability, bit-identities."""

import math
import re

import numpy as np
import pytest

import oracles as orc
from regretlab import (
    BestResponseLearner,
    FtrlLearner,
    LearnerSpec,
    OmdLearner,
    OnlineLearner,
    VariationBound,
    certify_stability,
    certify_variation_bound,
    declared_variation_bound,
    declares_variation_bound,
    get_regularizer,
    make_learner,
    splitmix64_floats,
    variation_sums,
    wrap_doubling,
)
from regretlab.costmode import CostHedge
from regretlab.learners import (
    GeometricDiscount,
    WindowAverage,
    ZeroPredictor,
    _regularized_learner,
    variation_steps,
)


def drive(learner, stream):
    plays, seen = [], []
    for u in stream:
        plays.append(learner.play())
        learner.observe(u)
        seen.append(np.asarray(u, dtype=float))
    return np.array(plays), np.array(seen)


def random_stream(d, T, seed):
    vals = splitmix64_floats(seed, d * T)
    return [np.array(vals[t * d : (t + 1) * d]) for t in range(T)]


def alternating_stream(d, T):
    a = np.zeros(d)
    a[0] = 1.0
    b = np.zeros(d)
    b[min(1, d - 1)] = 1.0
    return [a if t % 2 == 0 else b for t in range(T)]


SPECS = {
    "hedge": LearnerSpec("hedge", 0.2),
    "optimistic_hedge": LearnerSpec("optimistic_hedge", 0.2),
    "oftrl_window": LearnerSpec("oftrl", 0.2, "entropy", "window", 3),
    "oftrl_geometric": LearnerSpec("oftrl", 0.2, "entropy", "geometric", 0.5),
    "omd_last": LearnerSpec("omd", 0.2, "entropy", "last"),
    "oftrl_euclid": LearnerSpec("oftrl", 0.2, "euclidean", "last"),
}


class TestPlayObserveContract:
    def test_first_play_uniform(self):
        for spec in SPECS.values():
            learner = make_learner(spec, 3)
            np.testing.assert_allclose(learner.play(), [1 / 3] * 3, atol=1e-15)

    def test_play_twice_rejected(self):
        learner = make_learner(SPECS["hedge"], 2)
        learner.play()
        with pytest.raises(RuntimeError, match="twice"):
            learner.play()

    def test_observe_before_play_rejected(self):
        learner = make_learner(SPECS["hedge"], 2)
        with pytest.raises(RuntimeError, match="before play"):
            learner.observe(np.array([0.5, 0.5]))

    def test_dimension_mismatch(self):
        learner = make_learner(SPECS["hedge"], 2)
        learner.play()
        with pytest.raises(ValueError, match="shape"):
            learner.observe(np.array([0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("spec", [SPECS["hedge"], LearnerSpec("bestresponse")],
                             ids=["hedge", "bestresponse"])
    def test_a_learner_needs_a_strategy(self, spec):
        with pytest.raises(ValueError, match=r"^strategy count must be >= 1, got 0$"):
            make_learner(spec, 0)

    @pytest.mark.parametrize("eta", [0.0, -0.1, math.inf, math.nan])
    def test_a_regularized_learner_needs_a_positive_finite_eta(self, eta):
        # LearnerSpec refuses such an eta first; the learner's own rule guards
        # a learner built without a spec
        with pytest.raises(ValueError, match="^eta must be positive and finite, got "):
            FtrlLearner(3, get_regularizer("entropy"), eta, ZeroPredictor())

    def test_plays_on_simplex(self):
        for name, spec in SPECS.items():
            learner = make_learner(spec, 4)
            plays, _ = drive(learner, random_stream(4, 50, seed=hash(name) % 1000))
            assert np.all(np.abs(plays.sum(axis=1) - 1.0) <= 1e-9), name
            assert plays.min() >= -1e-15, name

    @pytest.mark.parametrize("args, outcome", [
        (("hedge", -0.1), "eta must be positive and finite, got -0.1"),
        (("hedge", math.inf), "eta must be positive and finite, got inf"),
        (("hedge", True), "eta must be positive and finite, got True"),
        (("hedge", "0.1"), "eta must be positive and finite, got 0.1"),
        (("hedge", np.float64(0.25)), {"eta": np.float64(0.25)}),
        (("sarsa", 0.1), "algorithm must be one of bestresponse, first_order_hedge, "
                         "hedge, oftrl, omd, optimistic_hedge; got 'sarsa'"),
        ((None, 0.1), "algorithm must be one of bestresponse, first_order_hedge, "
                      "hedge, oftrl, omd, optimistic_hedge; got None"),
        (("ftrl", 0.1, "entropy", "last"), {"algorithm": "ftrl"}),
        (("omd", None, "entropy", "last"), {"eta": None}),
        (("oftrl", 0.1, "l1"), "regularizer must be one of entropy, euclidean; got 'l1'"),
        (("oftrl", 0.1, "entropy", "zz"),
         "predictor must be one of geometric, last, none, window; got 'zz'"),
        (("oftrl", 0.1, "entropy", "window"),
         "predictor_param (window size) is required for the window predictor"),
        (("oftrl", 0.1, "entropy", "window", 0),
         "predictor_param must be a window size >= 1, got 0"),
        (("oftrl", 0.1, "entropy", "window", 2.5),
         "predictor_param must be a window size >= 1, got 2.5"),
        (("oftrl", 0.1, "entropy", "window", math.inf),
         "predictor_param must be a window size >= 1, got inf"),
        (("oftrl", 0.1, "entropy", "window", True),
         "predictor_param must be a window size >= 1, got True"),
        (("oftrl", 0.1, "entropy", "window", 3.0), {"predictor_param": 3}),
        (("oftrl", 0.1, "entropy", "geometric"),
         "predictor_param (discount) is required for the geometric predictor"),
        (("oftrl", 0.1, "entropy", "geometric", 1.0),
         "predictor_param must be a discount in [0, 1), got 1.0"),
        (("oftrl", 0.1, "entropy", "geometric", math.nan),
         "predictor_param must be a discount in [0, 1), got nan"),
        (("oftrl", 0.1, "entropy", "geometric", 0), {"predictor_param": 0.0}),
        (("oftrl", 0.1, "entropy", "last", 2),
         "predictor_param only applies to window/geometric predictors"),
        # a field the algorithm fixes keeps its default
        (("bestresponse", 0.5), "eta does not apply to algorithm 'bestresponse'"),
        (("first_order_hedge", 2.0, "euclidean"),
         "eta does not apply to algorithm 'first_order_hedge'"),
        (("first_order_hedge", None, "euclidean"),
         "regularizer does not apply to algorithm 'first_order_hedge'"),
        (("optimistic_hedge", 0.1, "euclidean"),
         "regularizer is fixed by algorithm 'optimistic_hedge'"),
        (("optimistic_hedge", 0.1, "entropy", "window", 3),
         "predictor is fixed by algorithm 'optimistic_hedge'"),
        (("hedge", 0.1, "entropy", "last"), "predictor is fixed by algorithm 'hedge'"),
        (("bestresponse", None, "entropy", "none"), {"algorithm": "bestresponse"}),
    ], ids=["eta-negative", "eta-inf", "eta-bool", "eta-str", "eta-numpy", "algorithm",
            "algorithm-none", "ftrl", "eta-none", "regularizer", "predictor",
            "window-missing", "window-0", "window-2.5", "window-inf", "window-bool",
            "window-3.0", "geometric-missing", "geometric-1", "geometric-nan",
            "geometric-0", "param-unused", "bestresponse-eta", "first-order-eta",
            "first-order-regularizer", "optimistic-regularizer", "optimistic-window",
            "hedge-last", "bestresponse-defaults"])
    def test_invalid_hyperparameters(self, args, outcome):
        """Each rule of a spec's values: a str outcome is the refusal's
        message, a dict the fields (values and types) of the accepted spec."""
        if isinstance(outcome, str):
            with pytest.raises(ValueError, match="^" + re.escape(outcome) + "$"):
                LearnerSpec(*args)
            return
        spec = LearnerSpec(*args)
        for key, value in outcome.items():
            assert getattr(spec, key) == value
            assert type(getattr(spec, key)) is type(value)

    def test_learner_refusals_past_the_spec(self):
        with pytest.raises(RuntimeError, match="dynamics engine"):
            make_learner(LearnerSpec("bestresponse"), 2).play()  # no utilities set
        with pytest.raises(ValueError, match="^omd requires eta$"):
            make_learner(LearnerSpec("omd", None, "entropy", "last"), 2)


PREDICTORS = [("none", None), ("last", None), ("window", 1), ("window", 2), ("window", 5),
              ("geometric", 0.0), ("geometric", 0.5), ("geometric", 0.9)]


def every_learner(d, eta=0.37):
    """One learner per {ftrl, omd} x {entropy, euclidean} x predictor."""
    for algorithm in ("ftrl", "omd"):
        for reg in ("entropy", "euclidean"):
            for kind, param in PREDICTORS:
                name = f"{algorithm}/{reg}/{kind}{'' if param is None else param}"
                yield name, make_learner(LearnerSpec(algorithm, eta, reg, kind, param), d)


class TestAgainstLearnerOracle:
    """Every learner family against the plain-Python recursions in oracles.py
    (the entropy mirror-descent oracle runs the prox recursion itself)."""

    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("kind, param", PREDICTORS)
    @pytest.mark.parametrize("reg", ["entropy", "euclidean"])
    @pytest.mark.parametrize("algorithm", ["ftrl", "omd"])
    def test_plays_match(self, algorithm, reg, kind, param, d):
        stream = random_stream(d, 300, seed=17 + d)
        plays, _ = drive(make_learner(LearnerSpec(algorithm, 0.37, reg, kind, param), d),
                         stream)
        expected = orc.optimistic_learner_plays(algorithm, reg, 0.37, kind, param,
                                                [u.tolist() for u in stream])
        np.testing.assert_allclose(plays, expected, rtol=0, atol=1e-12)


class TestInPlaceState:
    """Learner state is updated in place; none of it is shared with a play
    already returned or with the caller's utility vectors."""

    def test_returned_plays_are_never_mutated(self):
        for name, learner in every_learner(3):
            held = []
            for u in random_stream(3, 20, seed=23):
                w = learner.play()
                held.append((w, w.copy()))
                learner.observe(u)
            for t, (w, snapshot) in enumerate(held):
                assert np.array_equal(w, snapshot), (name, t)

    def test_observe_never_mutates_the_callers_utilities(self):
        for name, learner in every_learner(3):
            stream = random_stream(3, 20, seed=29)
            copies = [u.copy() for u in stream]
            for u in stream:
                learner.play()
                learner.observe(u)
            for t, (u, c) in enumerate(zip(stream, copies)):
                assert np.array_equal(u, c), (name, t)

    @pytest.mark.parametrize("spec, robust", [
        (LearnerSpec("ftrl", 0.5, "entropy", "none"), False),
        (LearnerSpec("ftrl", 0.5, "entropy", "last"), False),
        (LearnerSpec("ftrl", 0.5, "entropy", "window", 3), False),
        (LearnerSpec("ftrl", 0.5, "entropy", "geometric", 0.5), False),
        (LearnerSpec("omd", 0.5, "euclidean", "last"), False),
        (LearnerSpec("oftrl", 0.5, "entropy", "last"), True),
        (LearnerSpec("first_order_hedge"), False),
    ], ids=["ftrl-none", "ftrl-last", "ftrl-window", "ftrl-geometric", "omd", "doubling",
            "first_order_hedge"])
    def test_a_reused_utility_buffer_plays_like_fresh_arrays(self, spec, robust):
        def build():
            return wrap_doubling(spec, 3, eta_star=0.5) if robust else make_learner(spec, 3)

        fresh, reused, buf = build(), build(), np.empty(3)
        for t, u in enumerate(random_stream(3, 60, seed=37)):
            assert np.array_equal(fresh.play(), reused.play()), t
            fresh.observe(u.copy())
            buf[:] = u
            reused.observe(buf)
            buf[:] = 0.0  # the caller reuses its buffer before the next play
        assert np.array_equal(fresh.play(), reused.play())
        assert getattr(fresh, "variation_total", 0) == getattr(reused, "variation_total", 0)

    def test_entropy_omd_plays_ftrls_argmax(self):
        # g^t is proportional to exp(eta G^t): entropic OMD runs FTRL's step,
        # so the two families play the same bits, alone and as a (4, 5) group
        for kind, param in PREDICTORS:
            stream = random_stream(3, 200, seed=31)
            pf, _ = drive(make_learner(LearnerSpec("ftrl", 0.4, "entropy", kind, param), 3),
                          stream)
            po, _ = drive(make_learner(LearnerSpec("omd", 0.4, "entropy", kind, param), 3),
                          stream)
            assert np.array_equal(po, pf), (kind, param)
            blocks = random_blocks(4, 5, 100, seed=33)
            gf, _ = drive(_regularized_learner(
                LearnerSpec("ftrl", 0.4, "entropy", kind, param), 5, (4,)), blocks)
            go, _ = drive(_regularized_learner(
                LearnerSpec("omd", 0.4, "entropy", kind, param), 5, (4,)), blocks)
            assert gf.shape == (100, 4, 5) and np.array_equal(go, gf), (kind, param)


class TestNonFiniteUtilities:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("reg", ["entropy", "euclidean"])
    @pytest.mark.parametrize("algorithm", ["ftrl", "omd"])
    def test_raise_instead_of_playing_nan(self, algorithm, reg, bad):
        learner = make_learner(LearnerSpec(algorithm, 0.3, reg, "last"), 3)
        learner.play()
        learner.observe([0.2, 0.4, 0.6])
        learner.play()
        with pytest.raises(ValueError, match="non-finite entries"):
            learner.observe([0.5, bad, 0.5])
            learner.play()


def random_blocks(k, d, T, seed):
    """T utility blocks of shape (k, d), each row a random stream's round."""
    vals = splitmix64_floats(seed, k * d * T)
    return [np.array(vals[t * k * d : (t + 1) * k * d]).reshape(k, d) for t in range(T)]


# ("window", 9): a window of 8 or more rows is where numpy's pairwise
# summation would part from a sum taken one row at a time
GROUP_PREDICTORS = PREDICTORS + [("window", 9)]


class TestLearnerGroups:
    """A group of k learners (``_regularized_learner(spec, d, (k,))``) steps as
    one on (k, d) blocks; row j plays bit for bit like a single
    ``make_learner(spec, d)`` fed row j of every block."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("kind, param", GROUP_PREDICTORS)
    @pytest.mark.parametrize("reg", ["entropy", "euclidean"])
    @pytest.mark.parametrize("algorithm", ["ftrl", "omd"])
    def test_rows_play_like_single_learners(self, algorithm, reg, kind, param, k):
        for d in (2, 3, 8):
            spec = LearnerSpec(algorithm, 0.37 if d < 8 else 2.5, reg, kind, param)
            group = _regularized_learner(spec, d, (k,))
            singles = [make_learner(spec, d) for _ in range(k)]
            for t, block in enumerate(random_blocks(k, d, 80, seed=61 + d + k)):
                w = group.play()
                assert w.shape == (k, d)
                for j, single in enumerate(singles):
                    assert w[j].tobytes() == single.play().tobytes(), (d, t, j)
                    single.observe(block[j])
                group.observe(block)
            assert type(group) is type(singles[0]) and group.t == singles[0].t == 80

    @pytest.mark.parametrize("reg", ["entropy", "euclidean"])
    @pytest.mark.parametrize("algorithm", ["ftrl", "omd"])
    def test_a_non_finite_row_raises_the_single_learners_error(self, algorithm, reg):
        spec = LearnerSpec(algorithm, 0.3, reg, "last")
        bad = np.array([[0.2, 0.4, 0.6], [0.5, np.inf, 0.5]])

        def error(learner, u):
            learner.play()
            learner.observe(np.full(u.shape, 0.5))
            learner.play()
            with pytest.raises(ValueError, match="non-finite entries") as err:
                learner.observe(u)
                learner.play()
            return str(err.value)

        assert error(_regularized_learner(spec, 3, (2,)), bad) == error(make_learner(spec, 3), bad[1])

    def test_a_block_of_the_wrong_shape_is_rejected(self):
        group = _regularized_learner(SPECS["optimistic_hedge"], 3, (2,))
        group.play()
        with pytest.raises(ValueError, match=r"shape \(3,\), learner expects \(2, 3\)"):
            group.observe(np.full(3, 0.5))

    @pytest.mark.parametrize("kind, param", GROUP_PREDICTORS)
    @pytest.mark.parametrize("reg", ["entropy", "euclidean"])
    @pytest.mark.parametrize("algorithm", ["ftrl", "omd"])
    def test_returned_block_plays_are_never_written_again(self, algorithm, reg, kind, param):
        group = _regularized_learner(LearnerSpec(algorithm, 0.37, reg, kind, param), 3, (4,))
        held = []
        for block in random_blocks(4, 3, 20, seed=67):
            w = group.play()
            held.append((w, w.copy()))
            group.observe(block)
        for t, (w, snapshot) in enumerate(held):
            assert np.array_equal(w, snapshot), t

    @pytest.mark.parametrize("kind, param", GROUP_PREDICTORS)
    @pytest.mark.parametrize("reg", ["entropy", "euclidean"])
    @pytest.mark.parametrize("algorithm", ["ftrl", "omd"])
    def test_a_reused_utility_block_plays_like_fresh_blocks(self, algorithm, reg, kind, param):
        spec = LearnerSpec(algorithm, 0.5, reg, kind, param)
        fresh, reused = _regularized_learner(spec, 3, (4,)), _regularized_learner(spec, 3, (4,))
        buf = np.empty((4, 3))
        for t, block in enumerate(random_blocks(4, 3, 60, seed=71)):
            assert np.array_equal(fresh.play(), reused.play()), t
            fresh.observe(block.copy())
            buf[:] = block
            reused.observe(buf)
            buf[:] = 0.0  # the caller reuses its block before the next play
        assert np.array_equal(fresh.play(), reused.play())


@pytest.mark.parametrize("eta", [0.0, -0.5, math.nan, math.inf])
@pytest.mark.parametrize("algorithm", ["ftrl", "omd"])
def test_eta_must_be_positive_and_finite(algorithm, eta):
    with pytest.raises(ValueError, match=r"^eta must be positive and finite, got "):
        make_learner(LearnerSpec(algorithm, eta, "entropy", "last"), 3)


class TestSpanAttribution:
    """Profilers attribute play/observe by the learner's class, so subclasses
    implement _play/_observe only, and each family builds its own class."""

    def test_no_learner_overrides_play_or_observe(self):
        seen, todo = [], list(OnlineLearner.__subclasses__())
        while todo:
            cls = todo.pop()
            todo += cls.__subclasses__()
            if cls.__module__.startswith("regretlab."):
                seen.append(cls)
                assert "play" not in vars(cls) and "observe" not in vars(cls), cls
        assert {FtrlLearner, OmdLearner} <= set(seen)

    def test_omd_is_not_an_ftrl_subclass(self):
        # a profiler that takes the first matching family would count OMD as FTRL
        assert not issubclass(OmdLearner, FtrlLearner)
        assert not issubclass(FtrlLearner, OmdLearner)

    def test_families_build_their_own_classes(self):
        for reg in ("entropy", "euclidean"):
            assert type(make_learner(LearnerSpec("omd", 0.1, reg, "last"), 3)) is OmdLearner
            assert type(make_learner(LearnerSpec("oftrl", 0.1, reg, "last"), 3)) is FtrlLearner


class TestClosedForms:
    def test_optimistic_hedge_round_three(self):
        # cumulative (1,0)+(0,1) plus the doubled last utility (0,1) gives
        # effective scores (1,2); at eta = ln 2 the softmax is (1/3, 2/3)
        learner = make_learner(LearnerSpec("optimistic_hedge", math.log(2.0)), 2)
        learner.play()
        learner.observe(np.array([1.0, 0.0]))
        learner.play()
        learner.observe(np.array([0.0, 1.0]))
        np.testing.assert_allclose(learner.play(), [1 / 3, 2 / 3], atol=1e-15)

    def test_geometric_predictor_formula(self):
        # delta = 0.5, u^0 = 0, u^1 = (1,0):
        # M^2 = (0 + 2*(1,0)) / (1 + 2) = (2/3, 0)
        learner = make_learner(LearnerSpec("oftrl", 0.3, "entropy", "geometric", 0.5), 2)
        learner.play()
        learner.observe(np.array([1.0, 0.0]))
        np.testing.assert_allclose(learner.predictor.predict(), [2 / 3, 0.0], atol=1e-15)

    def test_window_zero_pads(self):
        # H = 2 after one observation: (u^1 + 0)/2
        learner = make_learner(LearnerSpec("oftrl", 0.3, "entropy", "window", 2), 2)
        learner.play()
        learner.observe(np.array([1.0, 0.0]))
        np.testing.assert_allclose(learner.predictor.predict(), [0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("make", [lambda d: WindowAverage(3, d),
                                      lambda d: GeometricDiscount(0.5, d)],
                             ids=["window", "geometric"])
    def test_predictor_state_is_sized_at_construction(self, make):
        for d in (1, 4):
            m = make(d).predict()
            assert isinstance(m, np.ndarray) and m.shape == (d,)
            np.testing.assert_array_equal(m, np.zeros(d))

    def test_omd_secondary_update(self):
        # g^1 = prox(g^0, u^1): uniform times exp(eta*u) at eta = ln 2
        learner = make_learner(SPECS["omd_last"], 2)
        learner.eta = math.log(2.0)
        learner.play()
        learner.observe(np.array([1.0, 0.0]))
        g = learner.reg.ftrl_argmax(learner.cumulative, learner.eta)
        np.testing.assert_allclose(g, [2 / 3, 1 / 3], atol=1e-14)

    def test_hedge_is_ftrl_zero_predictor_bitwise(self):
        a = make_learner(LearnerSpec("hedge", 0.37), 3)
        b = make_learner(LearnerSpec("oftrl", 0.37, "entropy", "none"), 3)
        stream = random_stream(3, 200, seed=51)
        pa, _ = drive(a, stream)
        pb, _ = drive(b, stream)
        assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("reg", ["entropy", "euclidean"])
    def test_geometric_zero_is_last_bitwise(self, reg):
        a = make_learner(LearnerSpec("oftrl", 0.37, reg, "geometric", 0.0), 3)
        b = make_learner(LearnerSpec("oftrl", 0.37, reg, "last"), 3)
        stream = random_stream(3, 300, seed=53)
        pa, _ = drive(a, stream)
        pb, _ = drive(b, stream)
        assert np.array_equal(pa, pb)

    def test_window_one_is_last_bitwise(self):
        a = make_learner(LearnerSpec("oftrl", 0.37, "entropy", "window", 1), 3)
        b = make_learner(LearnerSpec("oftrl", 0.37, "entropy", "last"), 3)
        stream = random_stream(3, 200, seed=52)
        pa, _ = drive(a, stream)
        pb, _ = drive(b, stream)
        assert np.array_equal(pa, pb)


class TestDeclaredConstants:
    def test_ftrl_last(self):
        b = declared_variation_bound(LearnerSpec("oftrl", 0.5, "entropy", "last"), 2)
        assert (b.alpha, b.beta, b.gamma) == pytest.approx(
            (math.log(2.0) / 0.5, 0.5, 0.5), abs=1e-12
        )
        assert b.norm_pair == "l1_linf"

    def test_omd_last(self):
        b = declared_variation_bound(LearnerSpec("omd", 0.5, "entropy", "last"), 2)
        assert b.gamma == pytest.approx(1.0 / (8.0 * 0.5), abs=1e-15)

    def test_window(self):
        b = declared_variation_bound(LearnerSpec("oftrl", 0.1, "entropy", "window", 3), 2)
        assert b.beta == pytest.approx(0.9, abs=1e-12)
        assert b.gamma == pytest.approx(2.5, abs=1e-12)

    def test_geometric(self):
        b = declared_variation_bound(LearnerSpec("oftrl", 0.1, "entropy", "geometric", 0.5), 2)
        assert b.beta == pytest.approx(0.1 / 0.125, abs=1e-12)
        assert b.gamma == pytest.approx(1.0 / 0.8, abs=1e-12)

    def test_euclidean_norm_pair(self):
        b = declared_variation_bound(LearnerSpec("oftrl", 0.1, "euclidean", "last"), 4)
        assert b.norm_pair == "l2_l2"
        assert b.alpha == pytest.approx((1.0 - 0.25) / 2.0 / 0.1, abs=1e-12)

    def test_plain_learners_carry_none(self):
        assert declared_variation_bound(LearnerSpec("hedge", 0.1), 2) is None
        assert declared_variation_bound(LearnerSpec("omd", 0.1, "entropy", "none"), 2) is None

    def test_one_strategy_player_has_zero_alpha(self):
        # R = ln 1 = 0, so alpha = R/eta = 0 is a valid constant
        b = declared_variation_bound(LearnerSpec("optimistic_hedge", 0.25), 1)
        assert (b.alpha, b.beta, b.gamma) == (0.0, 0.25, 1.0)
        with pytest.raises(ValueError, match="alpha >= 0"):
            VariationBound(-1e-3, 0.25, 1.0)
        with pytest.raises(ValueError, match="beta, gamma > 0"):
            VariationBound(0.0, 0.0, 1.0)

    def test_predicate_agrees_with_the_constants_table(self):
        for spec in list(SPECS.values()) + [LearnerSpec("omd", 0.1, "entropy", "none"),
                                            LearnerSpec("bestresponse")]:
            has = declared_variation_bound(spec, 3) is not None
            assert declares_variation_bound(spec) == has, spec


class TestInstrumentation:
    """Variation sums are computed from the recorded trajectory."""

    def test_first_round_du(self):
        learner = make_learner(SPECS["hedge"], 2)
        plays, seen = drive(learner, [np.array([1.0, 0.0])])
        du, dw = variation_sums(seen, plays)
        assert du == pytest.approx(1.0, abs=0)  # u^0 = 0 convention
        assert dw == pytest.approx(0.0, abs=0)  # w^0 = w^1 convention

    def test_matches_loop_oracle(self):
        for name, spec in SPECS.items():
            learner = make_learner(spec, 3)
            plays, seen = drive(learner, random_stream(3, 80, seed=61))
            du, dw = orc.independent_variation_sums(seen.tolist(), plays.tolist())
            lib_du, lib_dw = variation_sums(seen, plays)
            assert lib_du == pytest.approx(du, abs=1e-10), name
            assert lib_dw == pytest.approx(dw, abs=1e-10), name

    def test_unknown_norm_pair_is_refused(self):
        with pytest.raises(ValueError, match="^unknown norm pair 'l3'$"):
            variation_steps(np.ones((2, 3)), np.full((2, 3), 1.0 / 3.0), "l3")


class TestVariationBoundCertificate:
    def certify(self, spec, stream, d):
        learner = make_learner(spec, d)
        plays, seen = drive(learner, stream)
        bound = declared_variation_bound(spec, d)
        assert bound is not None
        return certify_variation_bound(seen, plays, bound)

    def test_constant_stream(self):
        spec = LearnerSpec("oftrl", 0.1, "entropy", "last")
        stream = [np.array([1.0, 0.0])] * 50
        cert = self.certify(spec, stream, 2)
        assert cert.passed
        # after round 1 nothing varies: RHS collapses to about alpha + beta
        assert cert.rhs <= cert.details["alpha"] + cert.details["beta"] + 1e-9

    def test_empty_stream(self):
        bound = declared_variation_bound(LearnerSpec("oftrl", 0.1, "entropy", "last"), 2)
        cert = certify_variation_bound(np.zeros((0, 2)), np.zeros((0, 2)), bound)
        assert cert.passed and cert.lhs == 0.0

    def test_alternating_extremes_all_variants(self):
        for name, spec in SPECS.items():
            if declared_variation_bound(spec, 3) is None:
                continue
            cert = self.certify(spec, alternating_stream(3, 1000), 3)
            assert cert.passed, (name, cert.lhs, cert.rhs)

    def test_random_streams_all_variants(self):
        for name, spec in SPECS.items():
            if declared_variation_bound(spec, 3) is None:
                continue
            for seed in range(5):
                cert = self.certify(spec, random_stream(3, 120, seed=700 + seed), 3)
                assert cert.passed, (name, seed, cert.lhs, cert.rhs)

    def test_lhs_is_the_best_vertex_regret(self):
        for name, spec in SPECS.items():
            if declared_variation_bound(spec, 3) is None:
                continue
            for seed in range(3):
                plays, seen = drive(make_learner(spec, 3), random_stream(3, 100, seed=71 + seed))
                cert = certify_variation_bound(seen, plays, declared_variation_bound(spec, 3))
                expect = orc.independent_regret(plays.tolist(), seen.tolist())
                assert cert.lhs == pytest.approx(expect, abs=1e-12), (name, seed)

    def test_shape_mismatch(self):
        bound = declared_variation_bound(LearnerSpec("oftrl", 0.1, "entropy", "last"), 2)
        with pytest.raises(ValueError):
            certify_variation_bound(np.zeros((3, 2)), np.zeros((4, 2)), bound)


class TestStability:
    def test_bounded_steps(self):
        for eta in (0.05, 0.1, 0.5):
            learner = make_learner(LearnerSpec("oftrl", eta, "entropy", "last"), 3)
            plays, _ = drive(learner, random_stream(3, 300, seed=81))
            cert = certify_stability(plays, eta)
            assert cert.passed, (eta, cert.lhs, cert.rhs)

    def test_constant_utilities_tiny_steps(self):
        learner = make_learner(LearnerSpec("oftrl", 0.1, "entropy", "last"), 2)
        plays, _ = drive(learner, [np.array([1.0, 0.0])] * 40)
        cert = certify_stability(plays, 0.1)
        assert cert.passed
        assert cert.lhs <= 0.2

    def test_informational_on_huge_eta(self):
        learner = make_learner(LearnerSpec("hedge", 10.0), 2)
        plays, _ = drive(learner, alternating_stream(2, 20))
        cert = certify_stability(plays, 10.0)
        assert cert.passed  # 2*eta = 20 dominates the l1 diameter 2
        assert cert.lhs <= 2.0 + 1e-12
        assert "argmax_round" in cert.details


class TestProxInequality:
    """OMD trajectories satisfy the mirror-descent prox inequality of their
    own norm pair, its terms recomputed by the closed-form oracles."""

    @staticmethod
    def assert_holds(terms, spec, stream, d):
        plays, seen = drive(make_learner(spec, d), stream)
        lhs, rhs = terms(seen.tolist(), plays.tolist(), spec.eta)
        assert lhs <= rhs + 1e-9, (lhs, rhs)
        return plays, seen, lhs

    def test_holds_on_random_streams(self):
        self.assert_holds(orc.entropy_omd_prox_terms, SPECS["omd_last"],
                          random_stream(3, 200, seed=91), 3)

    def test_holds_on_alternating(self):
        self.assert_holds(orc.entropy_omd_prox_terms, SPECS["omd_last"],
                          alternating_stream(2, 500), 2)

    def test_euclidean_holds_on_alternating(self):
        spec = LearnerSpec("omd", 0.3, "euclidean", "last")
        self.assert_holds(orc.euclidean_omd_prox_terms, spec, alternating_stream(2, 500), 2)

    def test_learner_keeps_no_per_round_lists(self):
        learner = make_learner(SPECS["omd_last"], 3)
        drive(learner, random_stream(3, 50, seed=93))
        assert isinstance(learner, OmdLearner)
        assert [k for k, v in vars(learner).items() if isinstance(v, list)] == []

    # the prox inequality's left side is the variation certificate's regret
    def test_matches_the_closed_form_entropy_recursion(self):
        spec = SPECS["omd_last"]
        plays, seen, lhs = self.assert_holds(orc.entropy_omd_prox_terms, spec,
                                             random_stream(3, 200, seed=92), 3)
        cert = certify_variation_bound(seen, plays, declared_variation_bound(spec, 3))
        assert cert.lhs == pytest.approx(lhs, abs=1e-12)

    def test_euclidean_matches_the_closed_form_l2_recursion(self):
        spec = LearnerSpec("omd", 0.3, "euclidean", "last")
        plays, seen, lhs = self.assert_holds(orc.euclidean_omd_prox_terms, spec,
                                             random_stream(3, 200, seed=92), 3)
        cert = certify_variation_bound(seen, plays, declared_variation_bound(spec, 3))
        assert cert.lhs == pytest.approx(lhs, abs=1e-12)

    @pytest.mark.parametrize("seed, eta", [(0, 0.3), (3, 0.05)])
    def test_euclidean_is_measured_in_l2(self, seed, eta):
        # in l1 and l-infinity, the entropy's pair, these runs broke the bound
        spec = LearnerSpec("omd", eta, "euclidean", "last")
        self.assert_holds(orc.euclidean_omd_prox_terms, spec,
                          np.random.default_rng(seed).random((200, 3)), 3)


class TestBestResponse:
    def test_plays_argmax_point_mass(self):
        learner = make_learner(LearnerSpec("bestresponse"), 3)
        learner.utilities = np.array([0.1, 0.9, 0.4])
        np.testing.assert_allclose(learner.play(), [0.0, 1.0, 0.0], atol=0)
        learner.observe(learner.utilities)
        learner.utilities = np.array([0.5, 0.5, 0.4])  # tie breaks to the lowest index
        np.testing.assert_allclose(learner.play(), [1.0, 0.0, 0.0], atol=0)


def spec_dict(algorithm, eta=None, regularizer="entropy", predictor="none", param=None):
    return {"algorithm": algorithm, "eta": eta, "regularizer": regularizer,
            "predictor": predictor, "predictor_param": param}


class TestToDict:
    """The metadata each kind of learner writes into a trace."""

    @pytest.mark.parametrize("spec, expected", [
        (LearnerSpec("hedge", 0.1), spec_dict("hedge", 0.1)),
        (LearnerSpec("oftrl", 0.25, "euclidean", "window", 3),
         spec_dict("oftrl", 0.25, "euclidean", "window", 3)),
        (LearnerSpec("omd", 0.5, "entropy", "last"), spec_dict("omd", 0.5, predictor="last")),
        (LearnerSpec("bestresponse"), spec_dict("bestresponse")),
        (LearnerSpec("first_order_hedge"), spec_dict("first_order_hedge")),
    ], ids=["hedge", "oftrl", "omd", "bestresponse", "first_order_hedge"])
    def test_a_spec_built_learner_writes_its_spec(self, spec, expected):
        assert make_learner(spec, 2).to_dict() == expected

    def test_a_prebuilt_learner_without_a_spec_writes_its_class_name(self):
        assert BestResponseLearner(2).to_dict() == {"algorithm": "BestResponseLearner"}
        assert CostHedge(2, 0.1).to_dict() == {"algorithm": "CostHedge"}

    def test_a_wrapper_writes_its_schedule_and_inner_spec(self):
        w = wrap_doubling(LearnerSpec("optimistic_hedge"), 2, 0.1)
        assert w.to_dict() == {"algorithm": "robust", "eta_star": 0.1,
                               "inner": spec_dict("optimistic_hedge")}


class TestRegretNonContract:
    def test_regret_can_be_negative(self):
        # a learner that locks onto the best arm early beats every fixed
        # comparator on streams favoring that arm more over time
        learner = make_learner(LearnerSpec("hedge", 2.0), 2)
        stream = [np.array([1.0, 0.0]) if t > 0 else np.array([1.0, 0.9]) for t in range(60)]
        plays, seen = drive(learner, stream)
        assert orc.independent_regret(plays.tolist(), seen.tolist()) < 2.0
