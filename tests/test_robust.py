"""Tests for the doubling wrapper: epoch schedule, dual regret bound, tunings."""

import io
import json
import math

import numpy as np
import pytest

import oracles as orc
from regretlab.cli import main
from regretlab.config import ConfigError, parse_config
from regretlab.dynamics import read_trace_csv, regret, report, run, write_trace_csv
from regretlab.learners import (LearnerSpec, VariationBound, certify_variation_bound,
                                variation_sums)
from regretlab.library import make_matrix_game, make_random_game, splitmix64_floats
from regretlab.robust import (
    certify_robust,
    parametric_constants,
    wrap_doubling,
)

OPT_HEDGE = LearnerSpec("optimistic_hedge")
A_TILTED = [[0.9, 0.2], [0.3, 0.7]]


def drive(learner, utilities):
    plays = []
    for u in utilities:
        plays.append(learner.play())
        learner.observe(np.asarray(u, dtype=float))
    return np.asarray(plays)


def random_stream(seed, T, d):
    vals = splitmix64_floats(seed, T * d)
    return np.asarray(vals).reshape(T, d)


def alternating_stream(T, d=2):
    out = np.zeros((T, d))
    out[::2, 0] = 1.0
    out[1::2, 1] = 1.0
    return out


class TestParametricConstants:
    def test_optimistic_hedge_constants(self):
        a, b, g, pair = parametric_constants(OPT_HEDGE, 2)
        assert a == pytest.approx(math.log(2), abs=1e-15)
        assert b == 1.0
        assert g == 0.25
        assert pair == "l1_linf"

    def test_window_constants(self):
        spec = LearnerSpec("oftrl", predictor="window", predictor_param=2)
        a, b, g, pair = parametric_constants(spec, 3)
        assert a == pytest.approx(math.log(3), abs=1e-15)
        assert b == 4.0  # H^2 at eta = 1
        assert g == 0.25

    def test_euclidean_constants_carry_their_norm_pair(self):
        spec = LearnerSpec("oftrl", regularizer="euclidean", predictor="last")
        _, _, _, pair = parametric_constants(spec, 4)
        assert pair == "l2_l2"

    def test_plain_hedge_declares_nothing_to_wrap(self):
        with pytest.raises(ValueError, match="variation bound"):
            parametric_constants(LearnerSpec("hedge"), 2)


class TestWrapperConstruction:
    def test_rejects_nonpositive_parameters(self):
        for eta_star in (0.0, -1.0):
            with pytest.raises(ValueError, match="eta_star"):
                wrap_doubling(OPT_HEDGE, 2, eta_star=eta_star)

    @pytest.mark.parametrize("key, kwargs", [
        ("eta_star", {"eta_star": math.nan}),
        ("eta_star", {"eta_star": math.inf}),
    ])
    def test_rejects_non_finite_parameters(self, key, kwargs):
        # by the rule and the words of a trace's metadata, which would refuse
        # the trace such a wrapper writes
        bad = kwargs[key]
        with pytest.raises(ValueError,
                           match=rf"^{key} must be a positive finite number, got {bad}$"):
            wrap_doubling(OPT_HEDGE, 2, **kwargs)

    def test_rejects_non_step_size_learners(self):
        with pytest.raises(ValueError, match="^algorithm 'bestresponse' with predictor 'none' "
                                             "declares no variation bound to wrap$"):
            wrap_doubling(LearnerSpec("bestresponse"), 2, eta_star=0.1)

    def test_rejects_a_learner_without_a_variation_bound(self):
        # the trace reader refuses such a wrapper, so the wrapper refuses it first
        with pytest.raises(ValueError, match="^algorithm 'hedge' with predictor 'none' "
                                             "declares no variation bound to wrap$"):
            wrap_doubling(LearnerSpec("hedge", 0.1), 2, 0.5)

    @pytest.mark.parametrize("d", [1, 0])
    def test_rejects_fewer_than_two_strategies(self, d):
        # one strategy's alpha is ln 1 = 0, which would scale no step size
        with pytest.raises(ValueError,
                           match=f"^a doubling wrapper needs at least 2 strategies, got d = {d}$"):
            wrap_doubling(OPT_HEDGE, d, eta_star=0.1)

    @pytest.mark.parametrize("spec, d", [
        (OPT_HEDGE, 2),
        (LearnerSpec("oftrl", regularizer="euclidean", predictor="last"), 3),
        (LearnerSpec("omd", predictor="last"), 5),
    ])
    def test_alpha_is_the_familys_parametric_regret_constant(self, spec, d):
        w = wrap_doubling(spec, d, eta_star=0.1)
        assert w.alpha == parametric_constants(spec, d)[0]
        assert w.alpha == pytest.approx(math.log(d) if spec.regularizer == "entropy"
                                        else 0.5 * (1.0 - 1.0 / d), abs=1e-15)

    def test_initial_tuning(self):
        # alpha = ln 2, eta_star = 0.1: epoch 1 runs at min(ln2/1, 0.1) = 0.1
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        assert w.epoch == 1 and w.budget == 1.0
        assert w.eta == 0.1
        np.testing.assert_array_equal(w.play(), [0.5, 0.5])

    def test_eta_after_first_doubling_still_capped(self):
        # after one trigger B = 2: min(ln2/sqrt(2), 0.1) = 0.1 still
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        drive(w, [[1.0, 0.0]])
        assert w.budget == 2.0
        assert w.eta == 0.1
        # with a generous cap the sqrt tuning becomes active
        w2 = wrap_doubling(OPT_HEDGE, 2, eta_star=10.0)
        drive(w2, [[1.0, 0.0]])
        assert w2.eta == pytest.approx(math.log(2) / math.sqrt(2), abs=1e-15)
        assert w2.eta == pytest.approx(0.49012907173427356, abs=1e-15)

    def test_play_observe_contract_is_inherited(self):
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        w.play()
        with pytest.raises(RuntimeError, match="twice"):
            w.play()


class TestEpochSchedule:
    def test_constant_extreme_stream_switches_exactly_once(self):
        # ||u||_inf = 1 makes variation_total hit B_1 = 1 on round 1 (u0 = 0);
        # afterwards du = 0 so no further switches ever
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        drive(w, [[1.0, 0.3]] * 50)
        assert len(w.epoch_log) == 1
        assert w.epoch_log[0]["round"] == 1
        assert w.epoch_log[0]["variation_total"] == 1.0
        assert w.epoch_log[0]["budget"] == 1.0
        assert w.epoch == 2 and w.budget == 2.0

    def test_small_constant_stream_never_switches(self):
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        drive(w, [[0.5, 0.5]] * 50)
        assert w.epoch_log == [] and w.epoch == 1

    def test_fresh_inner_learner_after_switch(self):
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        drive(w, [[1.0, 0.0]])  # forces a switch
        # the replacement starts from scratch: next play is uniform again
        np.testing.assert_array_equal(w.play(), [0.5, 0.5])

    def test_epoch_count_cap_on_alternating_extremes(self):
        T = 1024
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        drive(w, alternating_stream(T))
        assert w.epoch <= math.ceil(math.log2(T + 1)) + 1
        assert w.variation_total <= T

    def test_epoch_count_cap_on_random_streams(self):
        T = 300
        cap = math.ceil(math.log2(T + 1)) + 1
        for seed in range(200, 210):
            w = wrap_doubling(OPT_HEDGE, 3, eta_star=0.2)
            drive(w, random_stream(seed, T, 3))
            assert w.epoch <= cap

    def test_budget_sandwich_at_every_epoch_end(self):
        # at a switch the variation total I_r satisfies I_r/2 <= B_r <= 2 I_r + 1
        # (one round adds at most 1, so B_r <= I_r < B_r + 1)
        for seed in (220, 221, 222):
            w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.5)
            drive(w, np.minimum(1.0, 3.0 * random_stream(seed, 400, 2)))
            assert w.epoch_log, "stream never triggered a switch"
            for entry in w.epoch_log:
                i_r, b_r = entry["variation_total"], entry["budget"]
                assert b_r <= i_r < b_r + 1.0 + 1e-12
                assert i_r / 2.0 <= b_r <= 2.0 * i_r + 1.0

    def test_eta_nonincreasing_and_capped(self):
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.4)
        etas = []
        for u in alternating_stream(200):
            w.play()
            w.observe(u)
            etas.append(w.eta)
        assert all(e <= 0.4 + 1e-15 for e in etas)
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_variation_total_matches_independent_recomputation(self):
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.2)
        stream = random_stream(230, 60, 2)
        plays = drive(w, stream)
        expect, _ = orc.independent_variation_sums(stream.tolist(), plays.tolist())
        assert w.variation_total == pytest.approx(expect, abs=1e-12)


class TestRobustCertificate:
    ALPHA, BETA, GAMMA = math.log(2), 1.0, 0.25

    def certify(self, stream, plays, eta_star, **kw):
        return certify_robust(stream, plays, self.ALPHA, self.BETA, self.GAMMA,
                              eta_star, **kw)

    def test_needs_two_rounds(self):
        with pytest.raises(ValueError, match="T >= 2"):
            certify_robust([[1.0, 0.0]], [[0.5, 0.5]], 1.0, 1.0, 0.25, 0.1)

    def test_plays_must_match_the_utility_shape(self):
        # a single play row must not broadcast across 50 rounds of utilities
        stream = random_stream(231, 50, 3)
        with pytest.raises(ValueError, match="equal shapes"):
            certify_robust(stream, np.full((1, 3), 1.0 / 3.0), 1.0, 1.0, 0.25, 0.1)

    def test_constant_stream_passes_with_pinned_sqrt_form(self):
        T, eta_star = 100, 0.1
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=eta_star)
        stream = np.tile([1.0, 0.3], (T, 1))
        plays = drive(w, stream)
        cert = self.certify(stream, plays, eta_star)
        assert cert.passed is True
        # sum ||du||^2 = 1 (first round only), so the sqrt form is exactly
        # log T * (1 + alpha/eta* + (1 + alpha) * sqrt(2))
        expect = math.log(T) * (1.0 + self.ALPHA / eta_star
                                + (1.0 + self.ALPHA) * math.sqrt(2.0))
        assert cert.details["rhs_sqrt"] == pytest.approx(expect, abs=1e-12)
        assert cert.details["sum_du2"] == pytest.approx(1.0, abs=1e-15)

    def test_adversarial_alternating_stream_passes(self):
        T, eta_star = 500, 0.1
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=eta_star)
        stream = alternating_stream(T)
        plays = drive(w, stream)
        cert = self.certify(stream, plays, eta_star)
        assert cert.passed is True
        # the sqrt form is the binding one on a linear-variation stream
        assert cert.details["rhs_sqrt"] <= cert.details["rhs_variation"]

    def test_random_streams_pass(self):
        for seed in range(240, 245):
            w = wrap_doubling(OPT_HEDGE, 3, eta_star=0.2)
            stream = random_stream(seed, 300, 3)
            plays = drive(w, stream)
            assert self.certify(stream, plays, 0.2).passed is True

    def test_lhs_is_the_engine_and_variation_regret(self):
        # one best-vertex regret: the engine's and both certificates' left sides
        g = make_random_game(3, [2, 3, 4], seed=250)
        specs = [wrap_doubling(OPT_HEDGE, 2, eta_star=0.1),
                 LearnerSpec("oftrl", 0.2, "entropy", "last"),
                 LearnerSpec("omd", 0.3, "euclidean", "last")]
        tr = run(g, specs, 50)
        for i in range(3):
            u, w = tr.utilities[i], tr.plays[i]
            lhs = self.certify(u, w, 0.1).lhs
            assert lhs == regret(tr, i)
            assert lhs == certify_variation_bound(u, w, VariationBound(1.0, 1.0, 1.0)).lhs
            assert lhs == pytest.approx(orc.independent_regret(w.tolist(), u.tolist()),
                                        abs=1e-12)

    def test_self_play_both_players_certified(self):
        T = 256
        g = make_matrix_game(A_TILTED)
        eta_star = orc.recommended_eta_star("sum_regret", 2, self.BETA, self.GAMMA, T)
        specs = [wrap_doubling(OPT_HEDGE, 2, eta_star), wrap_doubling(OPT_HEDGE, 2, eta_star)]
        tr = run(g, specs, T)
        for i in range(2):
            cert = self.certify(tr.utilities[i], tr.plays[i], eta_star)
            assert cert.passed is True

    def test_versus_best_response_certified(self):
        T = 256
        g = make_matrix_game(A_TILTED)
        eta_star = orc.recommended_eta_star("sum_regret", 2, self.BETA, self.GAMMA, T)
        tr = run(g, [wrap_doubling(OPT_HEDGE, 2, eta_star), LearnerSpec("bestresponse")], T)
        cert = self.certify(tr.utilities[0], tr.plays[0], eta_star)
        assert cert.passed is True

    def test_wrapped_self_play_sum_of_regrets_is_logarithmic(self):
        # with eta* from the sum_regret tuning the sum of regrets obeys
        # n * log(T) * (alpha/eta* + 2) — the wrapped analogue of the constant
        # self-play bound
        T = 256
        g = make_random_game(2, [2, 2], seed=260)
        eta_star = orc.recommended_eta_star("sum_regret", 2, self.BETA, self.GAMMA, T)
        tr = run(g, [wrap_doubling(OPT_HEDGE, 2, eta_star),
                     wrap_doubling(OPT_HEDGE, 2, eta_star)], T)
        total = sum(regret(tr, i) for i in range(2))
        assert total <= 2 * math.log(T) * (self.ALPHA / eta_star + 2.0) + 1e-9

    def test_euclidean_norm_pair_is_honored(self):
        spec = LearnerSpec("oftrl", regularizer="euclidean", predictor="last")
        a, b, gm, pair = parametric_constants(spec, 2)
        w = wrap_doubling(spec, 2, eta_star=0.1)
        stream = random_stream(270, 200, 2)
        plays = drive(w, stream)
        cert = certify_robust(stream, plays, a, b, gm, 0.1, norm_pair=pair)
        assert cert.passed is True
        du2, dw2 = variation_sums(stream, plays, "l2_l2")
        assert cert.details["sum_du2"] == pytest.approx(du2, abs=1e-12)
        assert cert.details["sum_dw2"] == pytest.approx(dw2, abs=1e-12)


class TestRecommendedEtaStar:
    def test_sum_regret_formula(self):
        # beta = 1, gamma = 1/4, n = 4, ln T = 9: 0.25 / (3 * 9 * 9)
        assert orc.recommended_eta_star("sum_regret", 4, 1.0, 0.25, math.exp(9)) == \
            pytest.approx(0.00102880658436214, abs=1e-15)

    def test_sum_regret_two_players_unit_log(self):
        assert orc.recommended_eta_star("sum_regret", 2, 1.0, 0.25, math.e) == \
            pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_individual_rate_tuning(self):
        assert orc.recommended_eta_star("individual", 2, 1.0, 0.25, 4096) == 0.125

    def test_validation(self):
        with pytest.raises(ValueError, match="two players"):
            orc.recommended_eta_star("sum_regret", 1, 1.0, 0.25, 100)
        with pytest.raises(ValueError, match="T"):
            orc.recommended_eta_star("sum_regret", 2, 1.0, 0.25, 1)
        with pytest.raises(ValueError, match="mode"):
            orc.recommended_eta_star("best", 2, 1.0, 0.25, 100)


class TestEngineIntegration:
    def test_wrapped_learners_serialize_without_a_fixed_step_size(self):
        w = wrap_doubling(OPT_HEDGE, 2, eta_star=0.1)
        d = w.to_dict()
        assert d["algorithm"] == "robust"
        assert "eta" not in d and "alpha" not in d  # alpha is the inner family's
        assert d["inner"]["algorithm"] == "optimistic_hedge"

    def test_report_attaches_no_constant_step_certificates(self):
        g = make_matrix_game(A_TILTED)
        eta_star = 0.05
        tr = run(g, [wrap_doubling(OPT_HEDGE, 2, eta_star),
                     wrap_doubling(OPT_HEDGE, 2, eta_star)], 64)
        rep = report(tr)
        # the wrapped-learner dual bounds only: no certificate of a constant step
        assert [c.name for c in rep.certificates] == ["robust_bound[0]", "robust_bound[1]"]
        assert tr.meta["learners"][0]["algorithm"] == "robust"

    def test_trace_round_trips_through_csv(self):
        g = make_matrix_game(A_TILTED)
        tr = run(g, [wrap_doubling(OPT_HEDGE, 2, 0.05),
                     wrap_doubling(OPT_HEDGE, 2, 0.05)], 16)
        back = read_trace_csv(io.StringIO(write_trace_csv(tr), newline=None))
        np.testing.assert_array_equal(back.plays[0], tr.plays[0])
        assert back.meta["learners"][0]["eta_star"] == 0.05

    def test_an_old_traces_alpha_is_ignored(self):
        # alpha is the inner family's constant: a stated one is a key no spec reads
        g = make_matrix_game(A_TILTED)
        text = write_trace_csv(run(g, [wrap_doubling(OPT_HEDGE, 2, 0.05) for _ in range(2)], 16))
        first, rest = text.split("\n", 1)
        meta = json.loads(first[len("# meta="):])
        for entry in meta["learners"]:
            entry["alpha"] = 99.0
        old = read_trace_csv(io.StringIO(f"# meta={json.dumps(meta)}\n{rest}", newline=None))
        new = read_trace_csv(io.StringIO(text, newline=None))
        assert [c.details["alpha"] for c in report(old).certificates] == [math.log(2)] * 2
        assert [(c.lhs, c.rhs) for c in report(old).certificates] \
            == [(c.lhs, c.rhs) for c in report(new).certificates]


class TestOneWrappabilityRule:
    """One fault, a plain-Hedge inner, meets one message behind each entry
    point's own prefix: a config's [robust], the API and a trace's metadata."""

    TAIL = "algorithm 'hedge' with predictor 'none' declares no variation bound to wrap"

    def test_every_entry_point_refuses_a_hedge_inner_in_the_same_words(self, tmp_path, capsys):
        hedge = LearnerSpec("hedge", 0.1)
        with pytest.raises(ConfigError) as config:
            parse_config("[game]\ntype = matrix\nmatrix = 1,0; 0,1\n"
                         "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 10\n"
                         "[robust]\neta_star = 0.5\n")  # [robust] is line 9
        with pytest.raises(ValueError) as wrapper:
            wrap_doubling(hedge, 2, 0.5)
        with pytest.raises(ValueError) as constants:
            parametric_constants(hedge, 2)
        first, rest = write_trace_csv(run(make_matrix_game(A_TILTED),
                                          [wrap_doubling(OPT_HEDGE, 2, 0.5) for _ in range(2)],
                                          4)).split("\n", 1)
        meta = json.loads(first[len("# meta="):])
        meta["learners"][1]["inner"] = hedge.to_dict()
        path = tmp_path / "trace.csv"
        path.write_text(f"# meta={json.dumps(meta)}\n{rest}", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(path)]) == 1
        assert config.value.errors == [f"line 9: [robust] {self.TAIL}"]
        assert str(wrapper.value) == str(constants.value) == self.TAIL
        assert capsys.readouterr().err \
            == f"error: trace line 1: metadata learners[1]: inner.{self.TAIL}\n"
