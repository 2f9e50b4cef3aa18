"""Tests for the repeated-play engine: traces, regrets, certificates, CSV."""

import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

import oracles as orc
import regretlab
from regretlab import dynamics, experiment, games
from regretlab.auctions import AuctionGame, AuctionSpec
from regretlab.config import parse_config
from regretlab.continuous import CongestionNetwork, run_continuous
from regretlab.costmode import CostHedge
from regretlab.dynamics import (
    _TRACE_VALUES,
    Trace,
    _trace_values,
    _units,
    read_trace_csv,
    regret,
    regret_series,
    report,
    run,
    write_trace_csv,
    write_trace_file,
)
from regretlab.experiment import write_report_csv
from regretlab.games import (
    DenseGame,
    SmoothnessCertificate,
    UtilityRangeError,
    load_dense_csv,
    verify_smoothness,
)
from regretlab.learners import BestResponseLearner, LearnerSpec, OnlineLearner, make_learner
from regretlab.library import make_matrix_game, make_random_game
from regretlab.robust import wrap_doubling

A_TILTED = [[0.9, 0.2], [0.3, 0.7]]
CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def hedge(eta):
    return LearnerSpec("hedge", eta=eta)


def opt_hedge(eta):
    return LearnerSpec("optimistic_hedge", eta=eta)


def dense_csv(g):
    """The dense-game CSV text of ``g``."""
    return orc.dense_csv_text(g.tensors, g.scale, g.shift)


def read_text(text):
    """``read_trace_csv`` of a trace's text, as an open text file."""
    return read_trace_csv(io.StringIO(text, newline=None))


class TestRunContract:
    def test_rejects_nonpositive_horizon(self):
        g = make_matrix_game(A_TILTED)
        with pytest.raises(ValueError, match="T"):
            run(g, [hedge(0.1), hedge(0.1)], 0)

    def test_rejects_wrong_spec_count(self):
        g = make_matrix_game(A_TILTED)
        with pytest.raises(ValueError, match="2 players"):
            run(g, [hedge(0.1)], 5)

    def test_rejects_unknown_mode(self):
        g = make_matrix_game(A_TILTED)
        with pytest.raises(ValueError, match="mode"):
            run(g, [hedge(0.1), hedge(0.1)], 5, mode="loss")

    @pytest.mark.parametrize("player", [
        lambda eta: LearnerSpec("oftrl", eta, "entropy", "window", 3),
        lambda eta: make_learner(hedge(eta), 3),
    ], ids=["spec", "prebuilt"])
    def test_a_step_size_too_large_for_the_run_is_refused(self, player):
        # eta * (T + 1) * d must be finite; here T + 1 = 10 and d = 3
        g, top = make_random_game(2, [3, 2], seed=3), float(np.finfo(float).max)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            run(g, [player(top / 40), LearnerSpec("bestresponse")], 9)
        message = f"player 0: eta = {top / 20!r} is too large for T = 9 rounds"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(g, [player(top / 20), LearnerSpec("bestresponse")], 9)

    def test_meta_holds_each_learners_dict(self):
        g = make_matrix_game(A_TILTED)
        tr = run(g, [wrap_doubling(LearnerSpec("oftrl", 1.0, "entropy", "last"), 2, 0.5),
                     LearnerSpec("bestresponse")], 5)
        assert tr.meta["learners"] == [
            {"algorithm": "robust", "eta_star": 0.5,
             "inner": {"algorithm": "oftrl", "eta": 1.0, "regularizer": "entropy",
                       "predictor": "last", "predictor_param": None}},
            {"algorithm": "bestresponse", "eta": None, "regularizer": "entropy",
             "predictor": "none", "predictor_param": None},
        ]
        tr = run(g, [CostHedge(2, 0.1), make_learner(hedge(0.2), 2)], 5, mode="cost")
        assert tr.meta["learners"] == [
            {"algorithm": "CostHedge"},
            {"algorithm": "hedge", "eta": 0.2, "regularizer": "entropy",
             "predictor": "none", "predictor_param": None},
        ]

    def test_trace_shapes_and_ranges(self):
        g = make_random_game(3, [2, 3, 2], seed=17)
        tr = run(g, [opt_hedge(0.2), hedge(0.3), LearnerSpec("omd", 0.2, predictor="last")], 25)
        assert tr.n == 3 and tr.T == 25
        for i, d in enumerate([2, 3, 2]):
            assert tr.plays[i].shape == (25, d)
            assert tr.utilities[i].shape == (25, d)
            np.testing.assert_allclose(tr.plays[i].sum(axis=1), 1.0, atol=1e-12)
            assert tr.plays[i].min() >= 0.0
            assert tr.utilities[i].min() >= 0.0 and tr.utilities[i].max() <= 1.0
        assert tr.welfare.shape == (25,)
        # running variation sums are nondecreasing
        assert np.all(np.diff(tr.du2_cum, axis=1) >= 0)
        assert np.all(np.diff(tr.dw2_cum, axis=1) >= 0)

    def test_first_round_is_uniform(self):
        g = make_matrix_game(A_TILTED)
        tr = run(g, [opt_hedge(0.4), hedge(0.4)], 3)
        np.testing.assert_array_equal(tr.plays[0][0], [0.5, 0.5])
        np.testing.assert_array_equal(tr.plays[1][0], [0.5, 0.5])

    def test_prebuilt_learner_instances_are_accepted(self):
        from regretlab.learners import make_learner

        g = make_matrix_game(A_TILTED)
        pre = make_learner(LearnerSpec("hedge", eta=0.3), 2)
        tr = run(g, [pre, hedge(0.3)], 10)
        # identical to the all-spec run, bit for bit
        tr2 = run(g, [hedge(0.3), hedge(0.3)], 10)
        np.testing.assert_array_equal(tr.plays[0], tr2.plays[0])
        assert tr.meta["learners"][0]["algorithm"] == "hedge"


class FixedPlay(OnlineLearner):
    """Plays ``w`` every round, whatever it is; observes nothing."""

    def __init__(self, w):
        super().__init__(np.shape(w)[-1])
        self.w = w

    def _play(self):
        return self.w

    def _observe(self, u):
        pass


class TestRunChecksPlays:
    """The round loop skips the oracle's per-call profile check; every play
    is shape-checked as it is made and simplex-checked once after the loop."""

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("w", [[0.25, 0.25], [1.5, 0.0], [1.2, -0.2], [np.nan, np.nan],
                                   [np.nan, 1.0], [np.inf, 0.0]],
                             ids=["short", "long", "negative", "nan", "half-nan", "inf"])
    def test_off_simplex_play_is_rejected(self, j, w):
        specs = [hedge(0.3), hedge(0.3)]
        specs[j] = FixedPlay(np.array(w))
        with pytest.raises(ValueError, match=f"^player {j}: strategy is not on the simplex$"):
            run(make_matrix_game(A_TILTED), specs, 5)

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("w", [np.full(3, 1 / 3), np.full((1, 2), 0.5)], ids=["d3", "2d"])
    def test_play_of_the_wrong_shape_is_rejected(self, j, w):
        specs = [hedge(0.3), hedge(0.3)]
        specs[j] = FixedPlay(w)
        msg = f"player {j}: strategy has shape {w.shape}, expected (2,)"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            run(make_matrix_game(A_TILTED), specs, 5)

    def test_utilities_escaping_the_unit_range_are_rejected(self):
        class Leaky(DenseGame):
            def _raw_block(self, profile):
                block, u = super()._raw_block(profile)
                block += 0.5  # u views the block
                return block, u

        A = np.array(A_TILTED)
        with pytest.raises(UtilityRangeError, match="player 0: normalized utilities escape"):
            run(Leaky([A, 1.0 - A]), [hedge(0.3), hedge(0.3)], 5)

    def test_profile_checks_do_not_grow_with_T(self, monkeypatch):
        calls = []
        check = games._check_profile

        def counting(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(games, "_check_profile", counting)
        g = make_random_game(3, [2, 3, 2], seed=5)
        specs = [opt_hedge(0.2), LearnerSpec("omd", 0.3, predictor="last"),
                 LearnerSpec("bestresponse")]
        counts = []
        for T in (5, 50):
            calls.clear()
            run(g, specs, T)
            counts.append(len(calls))
        # the derivation's one check, before its one raw block of every
        # player's utilities, which also gives the welfare
        assert counts == [1, 1]

    def test_auction_derivation_takes_one_win_probability_pass(self, monkeypatch):
        g = AuctionGame(AuctionSpec(3, 2, [[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]], [1.0, 2.0]))
        tr = run(g, [opt_hedge(0.5)] * 3, 12)
        calls = []
        win = AuctionGame._win_probabilities

        def counting(self, profile):
            calls.append(1)
            return win(self, profile)

        monkeypatch.setattr(AuctionGame, "_win_probabilities", counting)
        again = Trace(g, tr.plays, tr.meta)
        assert len(calls) == 1
        np.testing.assert_array_equal(again.welfare, tr.welfare)
        np.testing.assert_array_equal(again.welfare, g.welfare_mixed(tr.plays))
        for i in range(g.n):
            np.testing.assert_array_equal(again.utilities[i], tr.utilities[i])


    def test_a_dense_round_makes_one_all_players_oracle_call(self, monkeypatch):
        g = make_random_game(3, [2, 3, 2], seed=5)
        calls = []
        all_players = DenseGame._raw_block

        def counting_all(self, profile):
            calls.append(1)
            return all_players(self, profile)

        monkeypatch.setattr(DenseGame, "_raw_block", counting_all)
        run(g, [opt_hedge(0.2), LearnerSpec("omd", 0.3, predictor="last"), hedge(0.4)], 9)
        # one per round, one in the derivation over all nine rounds
        assert len(calls) == 10


class TestAgainstSelfplayOracle:
    """n-player self-play through the engine's unchecked round loop matches
    the plain-loop oracle round by round."""

    @pytest.mark.parametrize("dims", [[2, 3, 2], [2, 2, 3, 2]], ids=["n3", "n4"])
    @pytest.mark.parametrize("algorithm", ["oftrl", "omd"])
    def test_dense_game(self, dims, algorithm):
        g = make_random_game(len(dims), dims, seed=41)
        etas = [0.3 + 0.2 * i for i in range(len(dims))]
        tr = run(g, [LearnerSpec(algorithm, eta, "entropy", "last") for eta in etas], 20)
        plays, utils = orc.dense_selfplay_sim(g.tensors, etas, 20)
        for i in range(g.n):
            np.testing.assert_allclose(tr.plays[i], plays[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(tr.utilities[i], utils[i], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("responders", [[2], [0, 2]], ids=["one", "two"])
    def test_dense_game_with_best_responders(self, responders):
        dims = [2, 3, 2]
        g = make_random_game(3, dims, seed=43)
        etas = [0.3, 0.5, 0.7]
        specs = [LearnerSpec("bestresponse") if i in responders else opt_hedge(etas[i])
                 for i in range(3)]
        tr = run(g, specs, 20)
        plays, utils = orc.dense_selfplay_sim(g.tensors, etas, 20, responders)
        for i in range(g.n):
            np.testing.assert_allclose(tr.plays[i], plays[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(tr.utilities[i], utils[i], rtol=0, atol=1e-12)

    def test_auction(self):
        values, levels = [[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]], [1.0, 2.0]
        g = AuctionGame(AuctionSpec(3, 2, values, levels))
        etas = [0.5, 0.8, 1.1]
        tr = run(g, [opt_hedge(eta) for eta in etas], 15)

        def normalized(i, profile):
            raw = orc.auction_expected_utilities(values, 2, levels, i, profile)
            return [(x - g.shift) / g.scale for x in raw]

        plays, utils = orc.optimistic_hedge_selfplay(normalized, g.dims, etas, 15)
        for i in range(g.n):
            np.testing.assert_allclose(tr.plays[i], plays[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(tr.utilities[i], utils[i], rtol=0, atol=1e-12)


class TestAgainstIndependentSimulator:
    """The engine must reproduce a from-scratch optimistic-Hedge simulator."""

    # frozen from oracles.matrix_optimistic_hedge_sim(A_TILTED, 0.5, 40)
    R0 = 0.4076229125887103
    R1 = 0.19941877010799303
    MARGIN = 0.00013237799585058552
    VAR0 = (0.3055618132102719, 0.019746961692509994)

    def _trace(self, T=40):
        return run(make_matrix_game(A_TILTED), [opt_hedge(0.5), opt_hedge(0.5)], T)

    def test_plays_match_oracle_simulator(self):
        tr = self._trace(T=15)
        p0, p1, u0, u1 = orc.matrix_optimistic_hedge_sim(A_TILTED, 0.5, 15)
        np.testing.assert_allclose(tr.plays[0], p0, atol=1e-12)
        np.testing.assert_allclose(tr.plays[1], p1, atol=1e-12)
        np.testing.assert_allclose(tr.utilities[0], u0, atol=1e-12)
        np.testing.assert_allclose(tr.utilities[1], u1, atol=1e-12)

    def test_regrets_match_frozen_oracle_values(self):
        tr = self._trace()
        assert regret(tr, 0) == pytest.approx(self.R0, abs=1e-9)
        assert regret(tr, 1) == pytest.approx(self.R1, abs=1e-9)

    def test_variation_terms_match_frozen_oracle_values(self):
        tr = self._trace()
        du2, dw2 = tr.du2_cum[0, -1], tr.dw2_cum[0, -1]
        assert du2 == pytest.approx(self.VAR0[0], abs=1e-9)
        assert dw2 == pytest.approx(self.VAR0[1], abs=1e-9)

    def test_coupling_margin_matches_frozen_oracle_value(self):
        tr = self._trace()
        assert orc.coupling_margin(tr.plays, tr.utilities) == pytest.approx(self.MARGIN,
                                                                            abs=1e-9)


class TestRegretMachinery:
    def test_uniform_play_against_one_hot_utilities(self):
        # one d=2 player, uniform forever, utilities pinned at (1, 0) by a
        # one-player game: best column earns T, realized is T/2.
        T = 10
        tr = Trace(DenseGame([np.array([1.0, 0.0])]), [np.full((T, 2), 0.5)])
        assert regret(tr, 0) == 5.0
        np.testing.assert_array_equal(regret_series(tr, 0), np.arange(1, 11) * 0.5)

    def test_regret_matches_plain_loop_oracle(self):
        g = make_random_game(3, [2, 3, 2], seed=101)
        specs = [opt_hedge(0.2), hedge(0.5), LearnerSpec("omd", 0.3, predictor="last")]
        tr = run(g, specs, 60)
        for i in range(3):
            expect = orc.independent_regret(tr.plays[i].tolist(), tr.utilities[i].tolist())
            assert regret(tr, i) == pytest.approx(expect, abs=1e-12)
            series = regret_series(tr, i)
            assert series[-1] == pytest.approx(expect, abs=1e-12)

    def test_regret_series_prefixes_match_truncated_traces(self):
        g = make_random_game(2, [2, 2], seed=102)
        tr = run(g, [opt_hedge(0.4), hedge(0.4)], 20)
        series = regret_series(tr, 0)
        for t in (1, 7, 20):
            sub = Trace(g, [p[:t] for p in tr.plays], tr.meta)
            assert series[t - 1] == pytest.approx(regret(sub, 0), abs=1e-12)

    def test_variation_terms_match_loop_oracle(self):
        g = make_random_game(2, [3, 2], seed=103)
        tr = run(g, [opt_hedge(0.3), opt_hedge(0.3)], 30)
        for i in range(2):
            expect = orc.independent_variation_sums(
                tr.utilities[i].tolist(), tr.plays[i].tolist()
            )
            got = tr.du2_cum[i, -1], tr.dw2_cum[i, -1]
            assert got[0] == pytest.approx(expect[0], abs=1e-12)
            assert got[1] == pytest.approx(expect[1], abs=1e-12)

    def test_constant_sum_game_has_constant_unit_welfare(self):
        tr = run(make_matrix_game(A_TILTED), [hedge(0.2), hedge(0.2)], 3)
        np.testing.assert_allclose(tr.welfare, [1.0, 1.0, 1.0], atol=1e-12)


class TestCouplingMargin:
    def test_nonnegative_across_games_and_learners(self):
        cases = [
            (make_matrix_game(A_TILTED), [opt_hedge(0.5), opt_hedge(0.5)]),
            (make_random_game(3, [2, 3, 2], seed=104),
             [opt_hedge(0.2), hedge(0.6), LearnerSpec("omd", 0.3, predictor="last")]),
            (make_random_game(2, [4, 4], seed=105),
             [LearnerSpec("oftrl", 0.3, predictor="window", predictor_param=3),
              LearnerSpec("oftrl", 0.3, predictor="geometric", predictor_param=0.5)]),
        ]
        for g, specs in cases:
            tr = run(g, specs, 40)
            assert orc.coupling_margin(tr.plays, tr.utilities) >= -1e-12

    def test_single_round_margin_is_zero(self):
        tr = run(make_matrix_game(A_TILTED), [hedge(0.1), hedge(0.1)], 1)
        assert orc.coupling_margin(tr.plays, tr.utilities) == 0.0

    def test_matches_hand_recomputation(self):
        tr = run(make_random_game(2, [2, 3], seed=106), [opt_hedge(0.3), hedge(0.4)], 12)
        margin = math.inf
        for t in range(1, 12):
            for i in range(2):
                j = 1 - i
                dw = float(np.abs(tr.plays[j][t] - tr.plays[j][t - 1]).sum())
                du = float(np.abs(tr.utilities[i][t] - tr.utilities[i][t - 1]).max())
                margin = min(margin, dw - du)
        assert orc.coupling_margin(tr.plays, tr.utilities) == pytest.approx(margin, abs=1e-15)


class TestCceGap:
    def test_gap_is_max_regret_over_horizon(self):
        tr = run(make_random_game(2, [2, 3], seed=107), [opt_hedge(0.3), hedge(0.3)], 25)
        rep = report(tr)
        assert rep.summary["cce_gap"] == pytest.approx(max(rep.regrets) / 25, abs=1e-15)

    def test_gap_matches_enumerated_deviation_gain(self):
        # the best fixed-strategy deviation gain against the empirical play
        # distribution is exactly regret / T
        tr = run(make_random_game(2, [3, 2], seed=108), [opt_hedge(0.4), hedge(0.5)], 18)
        rep = report(tr)
        plays = [p.tolist() for p in tr.plays]
        utils = [u.tolist() for u in tr.utilities]
        best = max(
            orc.enum_cce_deviation_gain(plays, utils, i, x)
            for i in range(2)
            for x in range(len(utils[i][0]))
        )
        assert rep.summary["cce_gap"] == pytest.approx(best, abs=1e-12)


def cert_named(rep, name):
    found = [c for c in rep.certificates if c.name == name]
    assert found, f"no certificate named {name}; have {[c.name for c in rep.certificates]}"
    return found[0]


class TestReportCertificates:
    def test_one_round_oftrl_trace_has_zero_play_stability(self):
        tr = run(make_matrix_game(A_TILTED), [opt_hedge(0.5), opt_hedge(0.5)], 1)
        for i in range(2):
            cert = cert_named(report(tr), f"play_stability[{i}]")
            assert cert.passed is True and cert.lhs == 0.0

    def test_sum_regret_bound_for_optimistic_hedge_pair(self):
        # two optimistic-Hedge players at eta = 1/(2(n-1)) = 0.5: the sum of
        # regrets is bounded by n * ln(d) / eta = 4 ln 2, at every horizon.
        tr = run(make_matrix_game(A_TILTED), [opt_hedge(0.5), opt_hedge(0.5)], 200)
        rep = report(tr)
        cert = cert_named(rep, "sum_regret_bound")
        assert cert.rhs == pytest.approx(2.772588722239781, abs=1e-12)
        assert cert.passed is True
        assert rep.summary["sum_regret"] <= cert.rhs + 1e-9

    def test_sum_regret_bound_three_players(self):
        g = make_random_game(3, [3, 3, 3], seed=109)
        eta = 1.0 / (2 * (3 - 1))
        tr = run(g, [opt_hedge(eta)] * 3, 150)
        rep = report(tr)
        cert = cert_named(rep, "sum_regret_bound")
        # n * ln(d) / eta = 2 n (n-1) ln d = 12 ln 3
        assert cert.rhs == pytest.approx(13.183347464017316, abs=1e-12)
        assert cert.passed is True

    def test_sum_regret_bound_for_mirror_descent_pair(self):
        eta = 1.0 / math.sqrt(8.0)
        specs = [LearnerSpec("omd", eta, predictor="last")] * 2
        tr = run(make_matrix_game(A_TILTED), specs, 150)
        rep = report(tr)
        cert = cert_named(rep, "sum_regret_bound")
        assert cert.rhs == pytest.approx(3.921032573874189, abs=1e-12)
        assert cert.passed is True

    def test_sum_regret_bound_absent_when_step_size_too_large(self):
        # eta = 1 makes beta = 1 > gamma/(n-1)^2 = 1/4: no constant-sum claim
        tr = run(make_matrix_game(A_TILTED), [opt_hedge(1.0), opt_hedge(1.0)], 20)
        names = [c.name for c in report(tr).certificates]
        assert "sum_regret_bound" not in names

    def test_sum_regret_bound_absent_with_plain_hedge(self):
        # plain Hedge declares no variation constants, so no sum bound
        tr = run(make_matrix_game(A_TILTED), [hedge(0.5), opt_hedge(0.5)], 20)
        names = [c.name for c in report(tr).certificates]
        assert "sum_regret_bound" not in names

    def test_per_player_certificates_pass(self):
        g = make_random_game(2, [2, 3], seed=110)
        tr = run(g, [opt_hedge(0.5), opt_hedge(0.5)], 120)
        rep = report(tr)
        for name in ("variation_bound[0]", "variation_bound[1]",
                     "play_stability[0]", "play_stability[1]",
                     "regret_vs_stability[0]", "regret_vs_stability[1]"):
            assert cert_named(rep, name).passed is True
        assert rep.failed() == []

    def test_individual_rate_certificate_at_tuned_step_size(self):
        T = 16
        eta = (2 - 1) ** -0.5 * T ** -0.25  # 0.5 exactly
        tr = run(make_matrix_game(A_TILTED), [opt_hedge(eta), opt_hedge(eta)], T)
        rep = report(tr)
        cert = cert_named(rep, "individual_rate[0]")
        assert cert.rhs == pytest.approx((math.log(2) + 4.0) * T**0.25, abs=1e-12)
        assert cert.passed is True

    def test_individual_rate_absent_off_tuning(self):
        tr = run(make_matrix_game(A_TILTED), [opt_hedge(0.3), opt_hedge(0.3)], 16)
        names = [c.name for c in report(tr).certificates]
        assert not any(n.startswith("individual_rate") for n in names)

    def test_mirror_descent_step_reported_in_extras(self):
        specs = [LearnerSpec("omd", 0.2, predictor="last")] * 2
        rep = report(run(make_matrix_game(A_TILTED), specs, 10))
        assert "omd_max_step[0]" in rep.extras
        assert rep.extras["omd_max_step[0]"] >= 0.0

    def test_welfare_floor_with_verified_certificate(self):
        g = DenseGame([np.full((2, 2), 0.6), np.full((2, 2), 0.6)])
        cert = verify_smoothness(g, 1.0, 0.0, (0, 0))
        assert cert.verified
        tr = run(g, [hedge(0.2), hedge(0.2)], 30)
        tr.meta["smoothness"] = {"lambda": 1.0, "mu": 0.0, "s_star": [0, 0]}
        rep = report(tr)
        floor = cert_named(rep, "welfare_floor")
        assert floor.passed is True
        assert rep.summary["avg_welfare"] == pytest.approx(1.2, abs=1e-12)
        # constant game: zero regret, so the floor is exactly lam * Opt
        assert floor.lhs == pytest.approx(1.2, abs=1e-9)

    @pytest.mark.parametrize("mode, lam, mu", [("utility", 2.0, 0.0), ("cost", 0.5, 0.5)])
    def test_refuted_claim_fails_and_attaches_no_welfare_floor(self, mode, lam, mu):
        # identity game, s* = (0, 0): against s = (1, 1) the players' utilities
        # sum to 0 + 1 < lam * Opt = 2; against s = (1, 0) their costs sum to
        # 1 + 1 > lam * Opt + mu * C(s) = 1
        tr = run(make_matrix_game(np.eye(2)), [hedge(0.2), hedge(0.2)], 5, mode)
        tr.meta["smoothness"] = {"lambda": lam, "mu": mu, "s_star": [0, 0]}
        rep = report(tr)
        names = [c.name for c in rep.certificates]
        assert "welfare_floor" not in names and "cost_welfare" not in names
        assert [c.name for c in rep.failed()] == ["smoothness_claim"]

    def test_verified_claim_attaches_the_floor_then_the_claim(self):
        tr = run(make_matrix_game(np.eye(2)), [opt_hedge(0.25)] * 2, 30)
        tr.meta["smoothness"] = {"lambda": 1.0, "mu": 1.0, "s_star": [0, 0]}
        rep = report(tr)
        assert [c.name for c in rep.certificates][-2:] == ["welfare_floor",
                                                          "smoothness_claim"]
        assert rep.failed() == []
        claim = cert_named(rep, "smoothness_claim")
        assert (claim.lhs, claim.details["s_star"], claim.details["opt"]) == (0.0, [0, 0], 1.0)

    @pytest.mark.parametrize("mu, attached", [(0.5, True), (1.0, False)])
    def test_cost_claim_with_mu_below_1_attaches_the_cost_welfare_bound(self, mu, attached):
        tr = run(make_matrix_game(np.full((2, 2), 0.5)),
                 [LearnerSpec("first_order_hedge")] * 2, 40, "cost")
        tr.meta["smoothness"] = {"lambda": 1.0, "mu": mu, "s_star": [0, 0]}
        rep = report(tr)
        names = [c.name for c in rep.certificates]
        assert names == ["smoothness_claim", "cost_welfare"][:1 + attached]
        assert rep.failed() == []
        assert ("first_order_A1" in rep.extras) is ("first_order_A2" in rep.extras) is attached

    @pytest.mark.parametrize("T, names", [(1, []), (2, ["robust_bound[0]", "robust_bound[1]"])])
    def test_wrapped_players_get_their_robust_bound_from_two_rounds(self, T, names):
        players = [wrap_doubling(opt_hedge(0.1), 2, 0.5) for _ in range(2)]
        rep = report(run(make_matrix_game(A_TILTED), players, T))
        assert [c.name for c in rep.certificates] == names
        assert rep.failed() == []

    def test_a_routing_trace_gets_its_routing_report(self):
        # 1/64 is the network's tuned step 1/(2Ln), so the total-regret bound attaches
        net = CongestionNetwork([("s", "t", 1.0, 0.0, 0.0), ("s", "t", 0.0, 0.0, 1.0)],
                                [("s", "t", 1.0)] * 2)
        tr = run_continuous(net, 1.0 / 64.0, 20)
        rep = report(tr)
        assert [c.name for c in rep.certificates] == ["total_linearized_regret"]
        assert rep.summary["eta"] == 1.0 / 64.0 and rep.failed() == []

    def test_full_report_is_an_alias_of_report(self):
        assert experiment.full_report is dynamics.report
        assert "full_report" not in regretlab.__all__

    @pytest.mark.parametrize("mu, passed", [(1.0, True), (0.0, False)])
    def test_the_claim_is_lhs_0_at_most_rhs_the_slack(self, mu, passed):
        g = make_matrix_game(np.eye(2))
        tr = run(g, [LearnerSpec("optimistic_hedge", 0.25)] * 2, 30)
        tr.meta["smoothness"] = {"lambda": 1.0, "mu": mu, "s_star": [0, 0]}
        claim = {c.name: c for c in report(tr).certificates}["smoothness_claim"]
        slack = verify_smoothness(g, 1.0, mu, (0, 0)).slack
        assert (claim.lhs, claim.rhs) == (0.0, slack)
        assert claim.passed is passed is (claim.lhs <= claim.rhs)

    def test_claim_without_s_star_searches_for_one(self):
        g = make_matrix_game(np.eye(2))
        tr = run(g, [LearnerSpec("hedge", 0.25)] * 2, 10)
        tr.meta["smoothness"] = {"lambda": 1.0, "mu": 1.0, "s_star": None}
        rep = report(tr)
        claim = {c.name: c for c in rep.certificates}["smoothness_claim"]
        assert claim.passed is True
        assert len(claim.details["s_star"]) == 2

    def test_wrapped_players_get_robust_bound_certificates(self):
        g = make_matrix_game(np.array([[0.8, 0.1], [0.2, 0.9]]))
        players = [wrap_doubling(LearnerSpec("optimistic_hedge"), 2, 0.5)
                   for _ in range(2)]
        tr = run(g, players, 40)
        rep = report(tr)
        names = {c.name: c for c in rep.certificates}
        assert names["robust_bound[0]"].passed is True
        assert names["robust_bound[1]"].passed is True
        # wrapped learners have no fixed step size, so no per-round
        # variation-bound certificate applies
        assert not any(n.startswith("variation_bound") for n in names)

    def test_cost_mode_adds_first_order_welfare_certificate(self):
        # both players pay a flat 0.5 per round, and (1, 0.5) verifies with slack 0.5
        g = make_matrix_game(np.full((2, 2), 0.5))
        tr = run(g, [LearnerSpec("first_order_hedge")] * 2, 80, "cost")
        tr.meta["smoothness"] = {"lambda": 1.0, "mu": 0.5, "s_star": [0, 0]}
        rep = report(tr)
        names = {c.name: c for c in rep.certificates}
        assert names["smoothness_claim"].passed is True
        cert = names["cost_welfare"]
        assert cert.passed is True
        assert cert.lhs == pytest.approx(1.0, abs=1e-12)  # flat 0.5 + 0.5 cost
        # a zero-regret trace fits zero constants; they must never be negative
        assert rep.extras["first_order_A1"] >= 0.0
        assert rep.extras["first_order_A2"] >= 0.0

    def test_failed_certificates_are_reported_not_hidden(self):
        # a hand-built trace that violates the declared variation bound:
        # play hops between vertices while a one-player game pins the
        # utilities at (0, 1), so the - gamma * sum ||dw||^2 term drives the
        # bound negative
        T = 10
        plays = np.zeros((T, 2))
        plays[::2, 0] = 1.0
        plays[1::2, 1] = 1.0
        meta = {"learners": [LearnerSpec("optimistic_hedge", eta=0.1).to_dict()],
                "T": T, "mode": "utility"}
        tr = Trace(DenseGame([np.array([0.0, 1.0])]), [plays], meta)
        rep = report(tr)
        failed = [c.name for c in rep.failed()]
        assert "variation_bound[0]" in failed

    def test_raw_regrets_scale_with_the_game(self):
        from regretlab.auctions import AuctionGame, AuctionSpec

        g = AuctionGame(AuctionSpec(n=2, m=1, values=[[3.0], [2.0]], bid_levels=[1.0, 2.0]))
        tr = run(g, [opt_hedge(0.3), opt_hedge(0.3)], 15)
        rep = report(tr)
        for i in range(2):
            assert rep.regrets_raw[i] == pytest.approx(rep.regrets[i] * g.scale, abs=1e-12)


class TestCertificateRules:
    def test_a_players_stability_rules_sit_together(self):
        tr = run(make_matrix_game(A_TILTED), [opt_hedge(0.5)] * 2, 16)  # the rate's tuned eta
        assert [c.name for c in report(tr).certificates] == [
            "variation_bound[0]", "variation_bound[1]", "sum_regret_bound",
            "play_stability[0]", "regret_vs_stability[0]", "individual_rate[0]",
            "play_stability[1]", "regret_vs_stability[1]", "individual_rate[1]"]

    # welfare_floor and cost_welfare follow from the verified claim and the
    # regrets of the same plays, so only a trace whose welfare its plays do not
    # give (which the reader refuses) fails them; cost_welfare is such a check
    # while its first-order constants are fitted on the trace it checks
    @pytest.mark.parametrize("mode, mu, welfare, name", [
        ("utility", 0.0, 0.0, "welfare_floor"),  # below the floor lam * Opt = 1
        ("cost", 0.5, 10.0, "cost_welfare"),  # above lam(1+mu)/(mu(1-mu)) Opt' + ~0 = 6
    ])
    def test_a_consistency_check_fails_on_welfare_its_plays_do_not_give(
            self, mode, mu, welfare, name):
        # every player gets (or pays) 0.5 whatever is played: zero regret, and
        # (1, mu) verifies at s* = (0, 0); the welfare is then overwritten
        T = 10
        g = make_matrix_game(np.full((2, 2), 0.5))
        meta = {"game": g.describe(), "T": T, "mode": mode,
                "smoothness": {"lambda": 1.0, "mu": mu, "s_star": [0, 0]}}
        tr = Trace(g, [np.full((T, 2), 0.5)] * 2, meta)
        tr.welfare = np.full(T, welfare)
        assert [c.name for c in report(tr).failed()] == [name]


def trace_bytes(tr):
    return [p.tobytes() for p in tr.plays] + [u.tobytes() for u in tr.utilities]


class TestLearnerGroups:
    """Consecutive players with one FTRL/OMD spec and one strategy count step
    as one group; prebuilt learners stay units of one, so a run of prebuilt
    ``make_learner`` instances is the serial reference, byte for byte."""

    SPECS = [LearnerSpec("oftrl", 0.3, "entropy", "last"),
             LearnerSpec("omd", 0.25, "entropy", "last"),
             LearnerSpec("oftrl", 0.4, "euclidean", "window", 9),
             LearnerSpec("omd", 0.2, "euclidean", "geometric", 0.5),
             LearnerSpec("hedge", 0.5)]

    @staticmethod
    def serial(game, specs):
        return [make_learner(s, game.dims[i]) for i, s in enumerate(specs)]

    @pytest.mark.parametrize("mode", ["utility", "cost"])
    @pytest.mark.parametrize("spec", SPECS, ids=["oftrl", "omd", "euclid-window", "euclid-omd",
                                                 "hedge"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dense_groups_play_like_serial_learners(self, n, spec, mode):
        g = make_random_game(n, [3] * n, seed=200 + n)
        grouped = run(g, [spec] * n, 40, mode)
        assert trace_bytes(grouped) == trace_bytes(run(g, self.serial(g, [spec] * n), 40, mode))

    @pytest.mark.parametrize("mode", ["utility", "cost"])
    def test_auction_group_plays_like_serial_learners(self, mode):
        g = AuctionGame(AuctionSpec(4, 2, [[3.0, 1.0], [2.0, 2.0], [1.0, 3.0], [2.0, 1.5]],
                                    [0.5, 1.0, 2.0]))
        for spec in self.SPECS[:3]:
            grouped = run(g, [spec] * 4, 30, mode)
            assert trace_bytes(grouped) == trace_bytes(run(g, self.serial(g, [spec] * 4), 30,
                                                           mode))

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_a_best_responder_splits_the_group(self, where):
        g = make_random_game(5, [3] * 5, seed=209)
        specs = [self.SPECS[0]] * 5
        specs[where] = LearnerSpec("bestresponse")
        for mode in ("utility", "cost"):
            grouped = run(g, specs, 30, mode)
            assert trace_bytes(grouped) == trace_bytes(run(g, self.serial(g, specs), 30, mode))

    def test_consecutive_equal_specs_form_the_groups(self):
        a, b = self.SPECS[0], self.SPECS[1]
        units = _units([a, a, b, a], [3] * 4)
        assert [players for _, players in units] == [[0, 1], [2], [3]]
        assert [learner.shape for learner, _ in units] == [(2, 3), (3,), (3,)]
        # the hedge shortcut resolves to ftrl with a zero predictor
        units = _units([LearnerSpec("hedge", 0.3), LearnerSpec("ftrl", 0.3)], [2, 2])
        assert [players for _, players in units] == [[0, 1]]

    def test_a_rectangular_game_splits_groups_by_strategy_count(self):
        a = self.SPECS[0]
        units = _units([a] * 6, [2, 2, 3, 3, 1, 1])
        # one-strategy players stay single
        assert [players for _, players in units] == [[0, 1], [2, 3], [4], [5]]
        g = make_random_game(6, [2, 2, 3, 3, 1, 1], seed=210)
        assert trace_bytes(run(g, [a] * 6, 25)) == trace_bytes(run(g, self.serial(g, [a] * 6),
                                                                  25))

    def test_prebuilt_learners_and_other_families_stay_single(self):
        a = self.SPECS[0]
        prebuilt = make_learner(a, 3)
        specs = [a, prebuilt, a, a, LearnerSpec("first_order_hedge"), LearnerSpec("bestresponse")]
        units = _units(specs, [3] * 6)
        assert [players for _, players in units] == [[0], [1], [2, 3], [4], [5]]
        assert units[1][0] is prebuilt

    def test_one_play_and_one_observe_per_group_per_round(self, monkeypatch):
        a, b = self.SPECS[0], self.SPECS[1]
        g = make_random_game(5, [2, 2, 2, 2, 2], seed=211)
        calls = {"play": [], "observe": []}
        for name in calls:
            orig = getattr(OnlineLearner, name)

            def counting(self, *args, orig=orig, name=name):
                calls[name].append(getattr(self, "shape", None))
                return orig(self, *args)

            monkeypatch.setattr(OnlineLearner, name, counting)
        run(g, [a, a, b, a, LearnerSpec("bestresponse")], 7)
        # units {0, 1}, {2}, {3} and the responder, once each per round
        per_round = sorted([(2, 2), (2,), (2,), (2,)])
        for name in calls:
            assert sorted(calls[name]) == sorted(per_round * 7), name

    @pytest.mark.parametrize("dims", [[3, 3, 3], [2, 2, 2, 2], [2, 3, 3, 2]],
                             ids=["n3", "n4", "n4-two-groups"])
    @pytest.mark.parametrize("algorithm", ["oftrl", "omd"])
    def test_groups_match_the_selfplay_oracle(self, dims, algorithm):
        g = make_random_game(len(dims), dims, seed=212)
        etas = [0.45] * len(dims)
        tr = run(g, [LearnerSpec(algorithm, 0.45, "entropy", "last")] * len(dims), 20)
        plays, utils = orc.dense_selfplay_sim(g.tensors, etas, 20)
        for i in range(g.n):
            np.testing.assert_allclose(tr.plays[i], plays[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(tr.utilities[i], utils[i], rtol=0, atol=1e-12)


class TestRunPlays:
    """Each unit records its plays once per round; each player's (T, d) plays
    are then split off as an array of its own."""

    SPEC = LearnerSpec("oftrl", 0.3, "entropy", "last")
    BR = LearnerSpec("bestresponse")

    @pytest.mark.parametrize("mode", ["utility", "cost"])
    @pytest.mark.parametrize("dims, specs", [
        ([3], [SPEC]),
        ([3, 3], [SPEC] * 2),
        ([2, 2, 3, 3, 1], [SPEC] * 5),
        ([4, 4, 4, 4], [SPEC] * 4),
        ([3, 3, 3, 3], [SPEC, SPEC, BR, SPEC]),
    ], ids=["n1", "n2", "rectangular", "n4", "split-by-a-responder"])
    def test_plays_are_contiguous_owned_and_serial_bitwise(self, dims, specs, mode):
        g = make_random_game(len(dims), dims, seed=213)
        grouped = run(g, specs, 23, mode)
        for i, p in enumerate(grouped.plays):
            assert p.shape == (23, dims[i])
            assert p.flags.c_contiguous and p.flags.owndata
        serial = [make_learner(s, d) for s, d in zip(specs, dims)]
        assert trace_bytes(grouped) == trace_bytes(run(g, serial, 23, mode))

    @pytest.mark.parametrize("mode", ["utility", "cost"])
    def test_responders_read_their_rows_of_one_shared_call(self, monkeypatch, mode):
        dims, T = [3, 2, 3, 2], 17
        g = make_random_game(4, dims, seed=215)
        specs = [self.SPEC, self.BR, self.SPEC, self.BR]
        calls, seen = [], []
        raw_block, respond = DenseGame._raw_block, BestResponseLearner._play

        def counting(self, profile):
            calls.append(1)
            return raw_block(self, profile)

        def recording(self):
            seen.append(np.array(self.utilities))
            return respond(self)

        monkeypatch.setattr(DenseGame, "_raw_block", counting)
        monkeypatch.setattr(BestResponseLearner, "_play", recording)
        tr = run(g, specs, T, mode)
        # one call a round for both responders, one for the observations, one
        # in the derivation
        assert len(calls) == 2 * T + 1
        serial = [make_learner(s, d) for s, d in zip(specs, dims)]
        assert trace_bytes(tr) == trace_bytes(run(g, serial, T, mode))
        # each responder's row keeps the per-player oracle's bits: movers'
        # current plays, the other responder's previous play (uniform at t = 0)
        for t in range(T):
            for k, i in enumerate((1, 3)):
                prof = [tr.plays[j][t] if j in (0, 2) else
                        tr.plays[j][t - 1] if t else np.full(dims[j], 1.0 / dims[j])
                        for j in range(4)]
                u = g.expected_utilities(i, prof)
                assert seen[2 * t + k].tobytes() == (1.0 - u if mode == "cost" else u).tobytes()

    def test_a_player_s_plays_are_its_rows_of_the_group_s_play(self, monkeypatch):
        g = make_random_game(3, [2, 2, 2], seed=214)
        seen = []
        orig = OnlineLearner.play

        def recording(self):
            w = orig(self)
            seen.append(np.array(w))
            return w

        monkeypatch.setattr(OnlineLearner, "play", recording)
        tr = run(g, [self.SPEC] * 3, 5)
        assert [w.shape for w in seen] == [(3, 2)] * 5
        for i in range(3):
            assert [p.tobytes() for p in tr.plays[i]] == [w[i].tobytes() for w in seen]


class TestBestResponseDynamics:
    def test_responder_plays_pure_best_responses(self):
        g = make_matrix_game([[1.0, 0.0], [0.0, 1.0]])
        tr = run(g, [hedge(0.2), LearnerSpec("bestresponse")], 12)
        for t in range(12):
            w = tr.plays[1][t]
            assert set(np.round(w, 12)) <= {0.0, 1.0}
            # best response to the row player's CURRENT strategy, ties to
            # the lowest index
            u = g.expected_utilities(1, [tr.plays[0][t], w])
            assert w[int(np.argmax(u))] == 1.0

    def test_first_response_ties_break_low(self):
        # vs the uniform row both columns earn 0.5; index 0 must win the tie
        g = make_matrix_game([[1.0, 0.0], [0.0, 1.0]])
        tr = run(g, [hedge(0.2), LearnerSpec("bestresponse")], 1)
        np.testing.assert_array_equal(tr.plays[1][0], [1.0, 0.0])

    def test_prebuilt_responder_is_wired_like_a_spec(self):
        g = make_matrix_game([[1.0, 0.0], [0.0, 1.0]])
        prebuilt = BestResponseLearner(2)
        tr = run(g, [hedge(0.2), prebuilt], 12)
        ref = run(g, [hedge(0.2), LearnerSpec("bestresponse")], 12)
        for i in range(2):
            np.testing.assert_array_equal(tr.plays[i], ref.plays[i])

    def test_two_responders_react_to_previous_round(self):
        g = make_random_game(2, [2, 2], seed=111)
        tr = run(g, [LearnerSpec("bestresponse"), LearnerSpec("bestresponse")], 8)
        uniform = np.array([0.5, 0.5])
        # round 1: each responds to the other's uniform prior
        for i in range(2):
            u = g.expected_utilities(i, [uniform, uniform])
            assert tr.plays[i][0][int(np.argmax(u))] == 1.0
        # later rounds: responder i reacts to j's previous play
        for t in range(1, 8):
            for i in range(2):
                prof = [None, None]
                prof[i] = tr.plays[i][t]
                prof[1 - i] = tr.plays[1 - i][t - 1]
                u = g.expected_utilities(i, prof)
                assert tr.plays[i][t][int(np.argmax(u))] == 1.0


class TestCostMode:
    def test_utilities_are_complements_of_costs(self):
        g = make_random_game(2, [2, 3], seed=112)
        tr = run(g, [hedge(0.3), hedge(0.3)], 10, mode="cost")
        for t in range(10):
            prof = [tr.plays[i][t] for i in range(2)]
            for i in range(2):
                raw = g.expected_utilities(i, prof)
                np.testing.assert_array_equal(tr.utilities[i][t], 1.0 - raw)

    def test_welfare_records_total_cost(self):
        g = make_random_game(2, [2, 2], seed=113)
        tr = run(g, [hedge(0.3), hedge(0.3)], 8, mode="cost")
        for t in range(8):
            prof = [tr.plays[i][t] for i in range(2)]
            assert tr.welfare[t] == g.welfare_mixed(prof)

    def test_regret_is_identical_in_both_unit_systems(self):
        # utility regret on 1 - c equals cost regret on c: the complement
        # preserves differences
        g = make_random_game(2, [3, 2], seed=114)
        tr = run(g, [hedge(0.4), opt_hedge(0.4)], 40, mode="cost")
        for i in range(2):
            costs = 1.0 - tr.utilities[i]
            realized = float(np.sum(tr.plays[i] * costs))
            best = float(costs.sum(axis=0).min())
            assert regret(tr, i) == pytest.approx(realized - best, abs=1e-12)

    def test_cost_native_hedge_matches_complement_fed_hedge_bitwise(self):
        g = make_random_game(2, [2, 2], seed=115)
        tr_utility = run(g, [hedge(0.3), hedge(0.7)], 30, mode="cost")
        tr_native = run(g, [CostHedge(2, 0.3), hedge(0.7)], 30, mode="cost")
        np.testing.assert_array_equal(tr_utility.plays[0], tr_native.plays[0])
        np.testing.assert_array_equal(tr_utility.plays[1], tr_native.plays[1])

    def test_first_order_hedge_runs_in_cost_mode(self):
        g = make_random_game(2, [2, 2], seed=116)
        tr = run(g, [LearnerSpec("first_order_hedge"), hedge(0.3)], 20, mode="cost")
        np.testing.assert_allclose(tr.plays[0].sum(axis=1), 1.0, atol=1e-12)
        rep = report(tr)  # no declared constants: no certificates for player 0
        assert not any(c.name.endswith("[0]") for c in rep.certificates)


class TestTraceCsv:
    def _trace(self):
        g = make_random_game(2, [2, 3], seed=117)
        return run(g, [opt_hedge(0.3), hedge(0.4)], 12)

    def test_header_layout(self):
        text = write_trace_csv(self._trace())
        lines = text.splitlines()
        assert lines[0].startswith("# meta=")
        assert lines[1] == "t,player,regret_to_date,welfare,du2_cum,dw2_cum," \
                           "strategy_0,strategy_1,strategy_2"

    def test_round_trip_recovers_every_array_exactly(self):
        tr = self._trace()
        back = read_text(write_trace_csv(tr))
        for i in range(2):
            np.testing.assert_array_equal(back.plays[i], tr.plays[i])
            np.testing.assert_array_equal(back.utilities[i], tr.utilities[i])
        np.testing.assert_array_equal(back.welfare, tr.welfare)
        np.testing.assert_array_equal(back.du2_cum, tr.du2_cum)
        np.testing.assert_array_equal(back.dw2_cum, tr.dw2_cum)

    def test_stored_regret_series_matches_recomputation(self):
        text = write_trace_csv(self._trace())
        back = read_text(text)
        rows = [line.split(",") for line in text.splitlines()[2:]]
        for i in range(2):
            stored = [float(r[2]) for r in rows if r[1] == str(i)]
            np.testing.assert_array_equal(stored, regret_series(back, i))
        assert set(back.meta) == {"game", "learners", "T", "mode"}

    def test_write_read_write_is_byte_identical(self):
        text = write_trace_csv(self._trace())
        assert write_trace_csv(read_text(text)) == text

    def test_two_runs_serialize_byte_identically(self):
        assert write_trace_csv(self._trace()) == write_trace_csv(self._trace())

    def test_report_is_recomputable_after_round_trip(self):
        tr = self._trace()
        back = read_text(write_trace_csv(tr))
        a, b = report(tr), report(back)
        assert a.regrets == b.regrets
        assert a.summary == b.summary
        assert [(c.name, c.passed) for c in a.certificates] == \
               [(c.name, c.passed) for c in b.certificates]

    def test_a_prebuilt_learners_class_name_reaches_report_and_reader(self):
        tr = run(make_random_game(2, [2, 3], seed=117), [BestResponseLearner(2), opt_hedge(0.3)],
                 12)
        assert tr.meta["learners"][0] == {"algorithm": "BestResponseLearner"}
        back = read_text(write_trace_csv(tr))
        assert back.meta["learners"] == tr.meta["learners"]
        a, b = report(tr), report(back)
        assert a.regrets == b.regrets
        names = [c.name for c in b.certificates]
        assert names == [c.name for c in a.certificates]
        assert "variation_bound[1]" in names and "variation_bound[0]" not in names

    def test_file_path_round_trip(self, tmp_path):
        tr = self._trace()
        path = tmp_path / "trace.csv"
        write_trace_file(tr, str(path))
        back = read_trace_csv(str(path))
        np.testing.assert_array_equal(back.plays[0], tr.plays[0])

    def test_missing_metadata_line_is_rejected(self):
        with pytest.raises(ValueError, match="metadata"):
            read_text("t,player\n1,0\n")

    def test_truncated_file_is_rejected(self):
        text = write_trace_csv(self._trace())
        lines = text.splitlines()
        with pytest.raises(ValueError, match="rows"):
            read_text("\n".join(lines[:-3]) + "\n")

    def test_auction_trace_round_trips(self):
        from regretlab.auctions import AuctionGame, AuctionSpec

        g = AuctionGame(AuctionSpec(n=2, m=2, values=[[3.0, 1.0], [2.0, 2.0]],
                                    bid_levels=[1.0, 2.0]))
        tr = run(g, [opt_hedge(0.2), opt_hedge(0.2)], 6)
        back = read_text(write_trace_csv(tr))
        np.testing.assert_array_equal(back.utilities[0], tr.utilities[0])
        assert back.meta["game"]["kind"] == "auction"

    def test_text_loaded_dense_game_trace_round_trips(self):
        g = load_dense_csv(dense_csv(make_random_game(2, [2, 3], seed=117)))
        tr = run(g, [opt_hedge(0.3), hedge(0.4)], 12)
        text = write_trace_csv(tr)
        back = read_text(text)
        for i in range(2):
            np.testing.assert_array_equal(back.utilities[i], tr.utilities[i])
        np.testing.assert_array_equal(back.welfare, tr.welfare)
        assert write_trace_csv(back) == text

    def test_embedded_tensors_out_of_their_range_name_the_meta_line(self):
        g = load_dense_csv(dense_csv(make_random_game(2, [2, 3], seed=117)))
        lines = write_trace_csv(run(g, [opt_hedge(0.3), hedge(0.4)], 4)).splitlines()
        meta = json.loads(lines[0][len("# meta="):])
        meta["game"]["tensors"][1][0][2] = 1.5
        lines[0] = "# meta=" + json.dumps(meta)
        lo = min(np.min(t) for t in meta["game"]["tensors"])
        with pytest.raises(ValueError, match="^" + re.escape(
                f"trace line 1: metadata game: raw utilities [{lo}, 1.5] escape the "
                f"declared range [0.0, 1.0]") + "$"):
            read_text("\n".join(lines) + "\n")

    def test_dense_csv_edited_after_the_run_keeps_the_original_game(self, tmp_path):
        payoffs = tmp_path / "payoffs.csv"
        payoffs.write_text(dense_csv(make_random_game(2, [2, 3], seed=117)))
        tr = run(load_dense_csv(payoffs.read_text()), [opt_hedge(0.3), hedge(0.4)], 12)
        path = tmp_path / "trace.csv"
        write_trace_file(tr, str(path))
        payoffs.write_text(dense_csv(make_random_game(2, [2, 3], seed=118)))
        back = read_trace_csv(str(path))
        assert "path" not in back.meta["game"]  # the payoffs are embedded, no file named
        for i in range(2):
            np.testing.assert_array_equal(back.utilities[i], tr.utilities[i])
        assert report(back).regrets == report(tr).regrets

    def test_cost_mode_round_trips_with_complemented_utilities(self):
        g = make_random_game(2, [2, 2], seed=118)
        tr = run(g, [hedge(0.3), hedge(0.3)], 5, mode="cost")
        back = read_text(write_trace_csv(tr))
        np.testing.assert_array_equal(back.utilities[0], tr.utilities[0])
        assert back.meta["mode"] == "cost"

    def _lines(self):
        return write_trace_csv(self._trace()).splitlines()

    def test_deleted_middle_row_is_a_row_count_error(self):
        lines = self._lines()
        del lines[10]
        with pytest.raises(ValueError, match=r"^expected 24 data rows, found 23$"):
            read_text("\n".join(lines) + "\n")

    def test_blank_line_is_an_empty_row(self):
        lines = self._lines()
        lines[10] = ""  # round 5, player 0
        with pytest.raises(ValueError, match=r"^trace line 11: expected round 5, player 0; "
                                             r"found an empty row$"):
            read_text("\n".join(lines) + "\n")

    def test_non_utf8_file_names_its_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValueError, match=rf"^cannot read {re.escape(str(path))}: "
                                             r"'utf-8' codec can't decode"):
            read_trace_csv(str(path))

    @staticmethod
    def _file(tmp_path, lines, newline="\n"):
        path = tmp_path / "edited.csv"
        path.write_bytes("".join(line + newline for line in lines).encode())
        return str(path)

    def test_deleted_middle_row_of_a_file_is_a_row_count_error(self, tmp_path):
        lines = self._lines()
        del lines[10]  # the rows after it no longer match their rounds either
        with pytest.raises(ValueError, match=r"^expected 24 data rows, found 23$"):
            read_trace_csv(self._file(tmp_path, lines))

    @pytest.mark.parametrize("source", ["path", "text"])
    def test_crlf_file_reads_like_its_lf_twin(self, tmp_path, source):
        text = write_trace_csv(self._trace())
        lines = text.splitlines()
        back = (read_trace_csv(self._file(tmp_path, lines, "\r\n")) if source == "path"
                else read_text("\r\n".join(lines) + "\r\n"))
        assert write_trace_csv(back) == text

    def test_non_utf8_byte_after_the_first_chunk_names_its_path(self, tmp_path):
        T = 4 * dynamics._TRACE_CHUNK_ROWS  # about 150 kB: far past the decoder's first block
        data = write_trace_csv(run(make_random_game(2, [2, 3], seed=117),
                                   [opt_hedge(0.3), hedge(0.4)], T)).encode()
        path = tmp_path / "late.csv"
        path.write_bytes(data[:-3] + b"\xff" + data[-2:])  # in the last row's last cell
        with pytest.raises(ValueError, match=rf"^cannot read {re.escape(str(path))}: "
                                             r"'utf-8' codec can't decode byte 0xff"):
            read_trace_csv(str(path))


class TestTraceIoMemory:
    """tracemalloc peaks of trace-file I/O on an auction trace of ten chunks
    (4 bidders, 2 items x 20 bid levels, 600 rounds: 2,400 rows of 46 cells),
    and of the experiment runner that writes trace files."""

    @staticmethod
    def auction(T):
        values = [[2.0, 1.0], [1.5, 1.5], [1.0, 2.0], [1.8, 1.2]]
        g = AuctionGame(AuctionSpec(4, 2, values, [0.05 * k for k in range(1, 21)]))
        return run(g, [opt_hedge(0.3)] * 4, T)

    @pytest.fixture(scope="class")
    def trace(self):
        return self.auction(600)

    @staticmethod
    def traced(call):
        """(result, bytes still held after the call, peak bytes during it)."""
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    def test_writing_holds_the_text_and_one_chunk(self, trace):
        text, _, peak = self.traced(lambda: write_trace_csv(trace))
        # the chunks' text, its join and one chunk's cells (about 2.0x); rows
        # built over all T rounds at once held every row string, their join
        # and whole-T cell arrays (about 4.2x)
        assert peak < 3 * len(text)

    def test_streaming_a_file_holds_one_chunk_of_text(self, tmp_path):
        # 47 chunks (3,000 rounds, 64 a chunk): the stored values plus one
        # chunk's rows, cells and text peak at 0.20x the file, and at 0.40x
        # with 256-round chunks; joining every chunk before writing held the
        # whole text at once (above 1x)
        path = tmp_path / "t.csv"
        long = self.auction(3000)
        result, _, peak = self.traced(lambda: write_trace_file(long, str(path)))
        assert result is None
        assert peak < 0.25 * path.stat().st_size

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "serial"])
    def test_an_auction_experiment_holds_one_arm_at_a_time(self, tmp_path, monkeypatch, fork):
        with open(os.path.join(CONFIG_DIR, "auction_fig1.cfg"), encoding="utf-8") as fh:
            spec = parse_config(fh.read())
        game = experiment.build_game_from_config(spec.game)
        arm = 2 * 8 * spec.T * sum(game.dims)  # one arm's plays plus utilities, in bytes
        if not fork:  # both arms here, one after the other
            monkeypatch.delattr(os, "fork")
        _, _, peak = self.traced(lambda: experiment.run_experiment(spec, str(tmp_path)))
        # 1.42x: the peak is one arm's own run (its plays, its utilities and the
        # derivation's temporaries); the first arm's trace kept through the
        # second run read 2.9x, and both traces kept beside each trace file's
        # whole text 5.1x.  A forked baseline's memory is its child's, untraced.
        assert peak < 1.5 * arm

    def test_an_auction_arm_run_frees_its_group_record(self):
        with open(os.path.join(CONFIG_DIR, "auction_fig1.cfg"), encoding="utf-8") as fh:
            spec = parse_config(fh.read())
        game = experiment.build_game_from_config(spec.game)
        arm = 2 * 8 * spec.T * sum(game.dims)  # one arm's plays plus utilities, in bytes
        players = experiment._arm_players(game, spec.specs_for(game.n), spec.robust)
        _, _, peak = self.traced(lambda: run(game, players, spec.T, spec.mode))
        # 1.39x: the plays, the utilities and the derivation's temporaries; the
        # (T, 4, d) group record kept through the derivation read 1.89x
        assert peak < 1.5 * arm

    def test_reading_a_path_holds_one_line_at_a_time(self, trace, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_file(trace, str(path))
        _, held, peak = self.traced(lambda: read_trace_csv(str(path)))
        # net of the returned trace's arrays, about 0.3x the file; holding the
        # text and its list of lines took about 2.4x
        assert peak - held < 0.5 * path.stat().st_size


# bit patterns of two different quiet NaNs: both print as nan
NAN_PAYLOADS = tuple(np.array([0x7FF8000000000000, 0x7FF8000000000123],
                              dtype=np.uint64).view(float))
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0 / 3.0, *NAN_PAYLOADS,
                  np.inf, -np.inf, 1.0, 0.1 + 0.2, 2.0**-1074 * 3)


class TestTraceRowsMatchCsvWriter:
    """``_trace_chunks`` joined against ``oracles.csv_trace_rows``, one csv.writer
    row per line: the same text, byte for byte."""

    @staticmethod
    def assert_same(values, vectors, names=("a", "b")):
        args = ({"kind": "test", "T": len(vectors[0])}, names, values, "strategy", vectors)
        text = "".join(dynamics._trace_chunks(*args))
        assert text == orc.csv_trace_rows(*args)
        return text.splitlines()

    def test_signed_zeros_in_one_block(self):
        lines = self.assert_same([np.array([[0.0, -0.0], [-0.0, 0.0]])],
                                 [np.array([[-0.0, 1.0], [0.0, 1.0]])])
        assert lines[2:] == ["1,0,0.0,-0.0,-0.0,1.0", "2,0,-0.0,0.0,0.0,1.0"]

    def test_denormals_tiny_values_nans_and_infinities(self):
        vec = np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]])
        lines = self.assert_same([np.array([[NAN_PAYLOADS[1], 1e-300],
                                            [-np.inf, 5e-324]])], [vec])
        assert lines[2].split(",")[2:4] == ["nan", "1e-300"]
        assert set(lines[2].split(",")[4:]) >= {"5e-324", "-5e-324", "0.3333333333333333",
                                                "nan", "inf", "-inf", "-0.0"}

    def test_players_with_two_and_five_strategies_are_padded(self):
        rng = np.random.default_rng(119)
        lines = self.assert_same([rng.random((3, 2)), rng.random((3, 2))],
                                 [rng.random((3, 2)), rng.random((3, 5))])
        assert lines[2].endswith(",,,") and not lines[3].endswith(",")

    @pytest.mark.parametrize("n, T", [(1, 4), (3, 1), (1, 1)])
    def test_one_player_or_one_round(self, n, T):
        rng = np.random.default_rng(120)
        self.assert_same([rng.random((T, 2)) for _ in range(n)],
                         [rng.random((T, 3)) for _ in range(n)])

    def test_seeded_random_blocks(self):
        rng = np.random.default_rng(121)
        pool = np.array(SPECIAL_FLOATS + tuple(rng.random(8)))
        for _ in range(40):
            n, T, k = (int(x) for x in rng.integers(1, 5, size=3))
            dims = rng.integers(1, 7, size=n)
            self.assert_same([rng.choice(pool, (T, k)) for _ in range(n)],
                             [rng.choice(pool, (T, d)) for d in dims],
                             names=tuple(f"v{j}" for j in range(k)))

    @pytest.mark.parametrize("make_game", [
        lambda: make_random_game(3, [2, 4, 3], seed=122),
        lambda: AuctionGame(AuctionSpec(n=2, m=2, values=[[3.0, 1.0], [2.0, 2.0]],
                                        bid_levels=[1.0, 2.0])),
    ], ids=["dense", "auction"])
    def test_trace_files(self, make_game):
        g = make_game()
        tr = run(g, [opt_hedge(0.3)] * g.n, 15)
        assert write_trace_csv(tr) == orc.csv_trace_rows(
            tr.meta, _TRACE_VALUES, _trace_values(tr), "strategy", tr.plays)

    # rounds per chunk of a two-player file
    CHUNK = dynamics._TRACE_CHUNK_ROWS // 2

    @pytest.mark.parametrize("T", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3],
                             ids=["one", "chunk-1", "chunk", "chunk+1", "2chunk+3"])
    def test_chunk_boundaries(self, T):
        rng = np.random.default_rng(123)
        pool = np.array(SPECIAL_FLOATS + tuple(rng.random(8)))
        values = [rng.choice(pool, (T, 2)) for _ in range(2)]
        vectors = [rng.choice(pool, (T, 2)), rng.choice(pool, (T, 5))]
        # the same special patterns on both sides of every chunk boundary
        for t in {min(T - 1, c + s) for c in range(self.CHUNK, T + 1, self.CHUNK)
                  for s in (-1, 0)}:
            for v in (*values, *vectors):
                v[t, :2] = (-0.0, NAN_PAYLOADS[t % 2])
                v[t, -1] = np.inf if t % 2 else -np.inf
        args = ({"kind": "test", "T": T}, ("a", "b"), values, "strategy", vectors)
        assert "".join(dynamics._trace_chunks(*args)) == orc.csv_trace_rows(*args)

    def test_routing_flows_across_a_chunk_boundary(self, tmp_path):
        net = CongestionNetwork([("s", "t", 0.5, 0.1, 0.0), ("s", "t", 0.0, 1.0, 0.2)],
                                [("s", "t", 1.0), ("s", "t", 2.0)])
        tr = run_continuous(net, 0.05, self.CHUNK + 7)
        path = tmp_path / "flows.csv"
        write_trace_file(tr, str(path))
        text = write_trace_csv(tr)
        assert text == orc.csv_trace_rows(tr.meta, tr.value_names, _trace_values(tr),
                                          tr.vector_name, tr.flows)
        assert path.read_bytes() == text.encode()
        assert write_trace_csv(read_trace_csv(str(path))) == text


def bits(a):
    """The int64 bit patterns of a float array: equal bits, not equal values."""
    return np.asarray(a, dtype=float).view(np.int64)


class TestTraceReaderAgainstCellOracle:
    """The reader's row loop (``dynamics._parse_rows``: each distinct cell of a
    row parsed once, the arrays filled a block of rounds at a time) and
    ``read_trace_csv`` against ``oracles.float_per_cell_trace``, one
    ``float()`` per cell: the same bits."""

    BLOCK = dynamics._READ_BLOCK_ROUNDS
    CHUNK = dynamics._TRACE_CHUNK_ROWS // 2  # rounds per chunk of a two-player file

    @staticmethod
    def parse(text, k, dims):
        """``_parse_rows`` of a trace text's body, checked against the oracle."""
        body = text.splitlines()[2:]
        stored, vectors = dynamics._parse_rows(
            (line.split(",") for line in body), len(body) // len(dims), k, dims, "strategy")
        want_stored, want_vectors = orc.float_per_cell_trace(text, k, dims)
        np.testing.assert_array_equal(bits(stored), bits(want_stored))
        for got, want in zip(vectors, want_vectors):
            np.testing.assert_array_equal(bits(got), bits(want))
        return stored, vectors

    @staticmethod
    def assert_reads_like_the_oracle(tr, text, back):
        dims = [v.shape[1] for v in tr.plays]
        _, want = orc.float_per_cell_trace(text, len(_TRACE_VALUES), dims)
        for i in range(tr.n):
            np.testing.assert_array_equal(bits(back.plays[i]), bits(want[i]))
            np.testing.assert_array_equal(bits(back.plays[i]), bits(tr.plays[i]))
            np.testing.assert_array_equal(bits(back.utilities[i]), bits(tr.utilities[i]))
        np.testing.assert_array_equal(bits(back.welfare), bits(tr.welfare))
        assert write_trace_csv(back) == text

    @pytest.mark.parametrize("T", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3],
                             ids=["one", "block-1", "block", "block+1", "2block+3"])
    def test_repeated_signed_zeros_nans_infinities_and_denormals(self, T):
        rng = np.random.default_rng(124)
        # few distinct values, so most rows repeat cells; 0.0 and -0.0 are
        # equal floats but different cells
        pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.25])
        values = [rng.choice(pool, (T, 3)) for _ in range(2)]
        vectors = [rng.choice(pool, (T, 2)), rng.choice(pool, (T, 6))]
        vectors[0][0] = (0.0, -0.0)
        vectors[1][-1] = (-0.0, 0.0, -0.0, 0.0, np.inf, -np.inf)
        text = "".join(dynamics._trace_chunks({"kind": "test", "T": T}, ("a", "b", "c"),
                                              values, "strategy", vectors))
        stored, back = self.parse(text, 3, [2, 6])
        np.testing.assert_array_equal(bits(stored), bits(np.stack(values, axis=1)))
        for got, want in zip(back, vectors):
            np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("T", [1, BLOCK - 1, BLOCK + 1, CHUNK - 1, CHUNK + 1],
                             ids=["one", "block-1", "block+1", "chunk-1", "chunk+1"])
    def test_dense_trace_across_block_and_chunk_boundaries(self, T, tmp_path):
        tr = run(make_random_game(2, [2, 3], seed=117), [opt_hedge(0.3), hedge(0.4)], T)
        path = tmp_path / "trace.csv"
        write_trace_file(tr, str(path))
        text = write_trace_csv(tr)
        self.assert_reads_like_the_oracle(tr, text, read_trace_csv(str(path)))

    def test_rectangular_padded_dense_trace(self):
        tr = run(make_random_game(3, [2, 4, 3], seed=122), [opt_hedge(0.3)] * 3,
                 self.BLOCK + 6)
        text = write_trace_csv(tr)
        assert text.splitlines()[2].endswith(",,")  # player 0 pads two cells
        self.assert_reads_like_the_oracle(tr, text, read_text(text))

    def test_auction_trace_of_tied_strategies(self):
        g = AuctionGame(AuctionSpec(n=2, m=2, values=[[3.0, 1.0], [2.0, 2.0]],
                                    bid_levels=[1.0, 2.0]))
        tr = run(g, [opt_hedge(0.2), opt_hedge(0.2)], self.BLOCK + 1)
        text = write_trace_csv(tr)
        row = text.splitlines()[2].split(",")[6:]
        assert len(set(row)) < len(row)  # round 1 plays uniformly
        self.assert_reads_like_the_oracle(tr, text, read_text(text))

    def test_routing_flows(self, tmp_path):
        net = CongestionNetwork([("s", "t", 0.5, 0.1, 0.0), ("s", "t", 0.0, 1.0, 0.2)],
                                [("s", "t", 1.0), ("s", "t", 2.0)])
        tr = run_continuous(net, 0.05, self.BLOCK + 7)
        path = tmp_path / "flows.csv"
        write_trace_file(tr, str(path))
        text = write_trace_csv(tr)
        back = read_trace_csv(str(path))
        _, want = orc.float_per_cell_trace(text, len(tr.value_names),
                                           [f.shape[1] for f in tr.flows])
        for got, flows, oracle in zip(back.flows, tr.flows, want):
            np.testing.assert_array_equal(bits(got), bits(oracle))
            np.testing.assert_array_equal(bits(got), bits(flows))

    @staticmethod
    def read_edited(line, edit):
        """``read_trace_csv`` of a 12-round, 2 x 3 strategy trace whose
        ``line`` (1-based) had its cells replaced by ``edit(cells)``."""
        tr = run(make_random_game(2, [2, 3], seed=117), [opt_hedge(0.3), hedge(0.4)], 12)
        lines = write_trace_csv(tr).splitlines()
        lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
        return read_text("\n".join(lines) + "\n")

    def test_bad_cell_repeated_in_a_row_is_named_once(self):
        with pytest.raises(ValueError, match="^" + re.escape(
                "trace line 5: could not convert string to float: 'abc'") + "$"):
            self.read_edited(5, lambda c: c[:6] + ["abc", "abc"] + c[8:])

    def test_first_bad_cell_of_a_row_with_repeats_is_named(self):
        # 'xyz' comes first in the row; 'abc' sorts first and repeats
        with pytest.raises(ValueError, match="^" + re.escape(
                "trace line 6: could not convert string to float: 'xyz'") + "$"):
            self.read_edited(6, lambda c: c[:5] + ["xyz", "abc", "abc", c[6]])

    def test_empty_cell_among_repeats_is_a_width_error(self):
        with pytest.raises(ValueError, match="^" + re.escape(
                "trace line 4: expected 4 values and 3 strategy entries, padded with "
                "empty cells to 9 cells") + "$"):
            self.read_edited(4, lambda c: c[:6] + [c[6], c[6], ""])
