"""Tests for cost-minimization machinery: first-order Hedge, smoothness on
cost games, and the average-cost certificate."""

import itertools
import math

import numpy as np
import pytest

import oracles as orc
from regretlab.costmode import (
    CostHedge,
    FirstOrderConstants,
    FirstOrderHedge,
    _nnls2,
    certify_cost_welfare,
    fit_first_order_constants,
)
from regretlab.dynamics import regret, run
from regretlab.games import DenseGame, brute_force_opt, verify_smoothness
from regretlab.learners import FtrlLearner, LearnerSpec, ZeroPredictor
from regretlab.library import make_random_game
from regretlab.regularizers import NegativeEntropy


def drive(learner, costs):
    plays = []
    for c in costs:
        plays.append(learner.play())
        learner.observe(np.asarray(c, dtype=float))
    return np.asarray(plays)


def realized_regret(plays, costs):
    costs = np.asarray(costs, dtype=float)
    return float(np.sum(plays * costs) - costs.sum(axis=0).min())


# two hand-built 2x2 cost tensors: total cost 0 at (0,0) and (1,1), and a
# deviation from s* = (0,0) that earns 2 at profile (1,1)
C0 = [[0.0, 1.0], [0.5, 0.0]]
C1 = [[0.0, 0.5], [1.0, 0.0]]


class TestFirstOrderHedge:
    def test_all_zero_costs_stay_uniform_with_zero_regret(self):
        h = FirstOrderHedge(4)
        costs = np.zeros((200, 4))
        plays = drive(h, costs)
        np.testing.assert_array_equal(plays, np.full((200, 4), 0.25))
        assert realized_regret(plays, costs) == 0.0
        assert h.budget == 1.0 and h.epoch == 1

    def test_one_good_arm_regret_is_horizon_free(self):
        # frozen from a plain-loop simulation of the same tuning: with a
        # zero-cost arm the budget never breaks, so regret converges
        expect = 1.570852281323044
        for T in (1000, 10000):
            h = FirstOrderHedge(4)
            costs = np.tile([0.0, 1.0, 1.0, 1.0], (T, 1))
            plays = drive(h, costs)
            assert realized_regret(plays, costs) == pytest.approx(expect, abs=1e-9)
        assert expect <= 2.0 * math.log(4)  # O(log d), not O(sqrt T)

    def test_budget_doubles_on_best_cost_breaches(self):
        # constant cost 0.3: best cumulative cost 0.3 t crosses 1, 2, 4 at
        # rounds 4, 7 and 14
        h = FirstOrderHedge(2)
        history = []
        for t in range(1, 21):
            h.play()
            h.observe(np.array([0.3, 0.3]))
            history.append((t, h.budget, h.epoch))
        assert [(t, b) for (t, b, _e) in history if b != history[max(t - 2, 0)][1]] \
            == [(4, 2.0), (7, 4.0), (14, 8.0)]
        assert history[-1][2] == 4  # three breaches -> epoch 4

    def test_step_size_follows_the_budget(self):
        h = FirstOrderHedge(3)
        assert h.eta == pytest.approx(math.sqrt(math.log(3)), abs=1e-15)
        drive(h, np.ones((2, 3)))  # best cumulative cost 2 > 1 -> budget 2
        assert h.budget == 2.0
        assert h.eta == pytest.approx(math.sqrt(math.log(3) / 2.0), abs=1e-15)

    def test_epoch_restart_forgets_old_costs(self):
        h = FirstOrderHedge(2)
        drive(h, [[1.0, 1.0], [1.0, 1.0]])  # breach: epoch sums reset
        np.testing.assert_array_equal(h.play(), [0.5, 0.5])

    def test_rejects_costs_outside_unit_range(self):
        h = FirstOrderHedge(2)
        h.play()
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            h.observe(np.array([1.5, 0.0]))

    @pytest.mark.parametrize("c", [[math.nan, 0.5], [0.5, math.nan], [0.2, 0.3, math.nan],
                                   [0.0, math.inf]])
    def test_rejects_a_non_finite_cost_at_any_position(self, c):
        h = FirstOrderHedge(len(c))
        h.play()
        with pytest.raises(ValueError, match=r"^costs must lie in \[0,1\], got (nan|inf)$"):
            h.observe(c)

    def test_adversarial_streams_stay_within_a_first_order_envelope(self):
        # regret / sqrt(ln d * best cumulative cost) bounded by a small
        # constant across deterministic pseudo-random streams
        from regretlab.library import splitmix64_floats

        for seed in range(500, 505):
            T, d = 800, 3
            costs = np.asarray(splitmix64_floats(seed, T * d)).reshape(T, d)
            h = FirstOrderHedge(d)
            plays = drive(h, costs)
            best = float(costs.sum(axis=0).min())
            r = realized_regret(plays, costs)
            assert r <= 4.0 * math.sqrt(math.log(d) * best) + 4.0 * math.log(d)


class TestCostHedge:
    def test_matches_complement_fed_utility_hedge_bitwise(self):
        from regretlab.library import splitmix64_floats

        T, d, eta = 60, 3, 0.4
        costs = np.asarray(splitmix64_floats(77, T * d)).reshape(T, d)
        native = CostHedge(d, eta)
        inner = FtrlLearner(d, NegativeEntropy(), eta, ZeroPredictor())
        for t in range(T):
            a = native.play()
            b = inner.play()
            np.testing.assert_array_equal(a, b)
            native.observe(costs[t])
            inner.observe(1.0 - costs[t])

    def test_prefers_the_cheap_arm(self):
        h = CostHedge(2, 0.5)
        plays = drive(h, np.tile([0.1, 0.9], (30, 1)))
        assert plays[-1][0] > 0.95


def reference_streams(d, seed, T=240):
    """Seeded uniform [0, 1) costs, the same with about 30% exact zeros, and
    the same with arm 0 free in every round."""
    rng = np.random.default_rng(seed)
    costs = rng.random((T, d))
    zeros = np.where(rng.random((T, d)) < 0.3, 0.0, costs)
    free = costs.copy()
    free[:, 0] = 0.0
    return {"uniform": costs, "exact_zeros": zeros, "zero_cost_arm": free}


class TestAgainstReferences:
    """Both cost learners against the plain-loop references in ``oracles``:
    bitwise equal plays, and for first-order Hedge the same budget, epoch and
    eta after every round, over d = 1..8."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_first_order_hedge_matches_its_reference_bitwise(self, d):
        breaches = 0
        for seed in (d, 100 + d):
            for name, costs in reference_streams(d, seed).items():
                plays, states = orc.first_order_hedge_reference(costs.tolist())
                h = FirstOrderHedge(d)
                for t, c in enumerate(costs):
                    np.testing.assert_array_equal(h.play(), plays[t],
                                                  err_msg=f"{name}, seed {seed}, round {t + 1}")
                    h.observe(c)
                    assert (h.budget, h.epoch, h.eta) == states[t], (name, seed, t + 1)
                if name == "zero_cost_arm" and d > 1:
                    assert h.epoch == 1  # the free arm keeps the best sum at 0
                breaches += h.epoch - 1
        assert breaches >= 20  # several per breaking stream

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("eta", [0.05, 0.4, 3.0])
    def test_cost_hedge_matches_its_reference_bitwise(self, d, eta):
        for name, costs in reference_streams(d, 7 * d).items():
            plays = orc.cost_hedge_reference(costs.tolist(), eta)
            h = CostHedge(d, eta)
            for t, c in enumerate(costs):
                np.testing.assert_array_equal(h.play(), plays[t], err_msg=f"{name}, round {t + 1}")
                h.observe(c)


class TestOptMinCost:
    def test_hand_instance(self):
        g = DenseGame([np.array(C0), np.array(C1)])
        value, argmin = brute_force_opt(g, mode="cost")
        assert value == 0.0
        assert argmin == (0, 0)  # lexicographically first of the two zeros

    def test_matches_enumeration(self):
        g = make_random_game(2, [3, 3], seed=403)
        value, argmin = brute_force_opt(g, mode="cost")
        best = min(
            (float(g.tensors[0][s] + g.tensors[1][s]), s)
            for s in itertools.product(range(3), range(3))
        )
        assert value == pytest.approx(best[0], abs=1e-12)
        assert float(g.tensors[0][argmin] + g.tensors[1][argmin]) == \
            pytest.approx(value, abs=1e-12)


class TestCostSmoothness:
    def test_constant_half_costs_are_smooth(self):
        g = DenseGame([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        cert = verify_smoothness(g, 1.0, 0.5, (0, 0), mode="cost")
        assert cert.verified is True
        assert cert.slack == pytest.approx(0.5, abs=1e-12)
        assert cert.opt == pytest.approx(1.0, abs=1e-12)

    def test_hand_instance_is_refuted(self):
        # deviating to s* = (0,0) from profile (1,1) costs 2 while
        # lam*Opt' + mu*C(1,1) = 0: slack is exactly -2
        g = DenseGame([np.array(C0), np.array(C1)])
        cert = verify_smoothness(g, 1.0, 0.5, (0, 0), mode="cost")
        assert cert.verified is False
        assert cert.slack == pytest.approx(-2.0, abs=1e-12)
        assert cert.worst_profile == (1, 1)
        assert cert.opt == 0.0

    def test_random_game_certificate_frozen(self):
        g = make_random_game(2, [3, 3], seed=403)
        cert = verify_smoothness(g, 1.0, 0.5, (2, 1), mode="cost")
        assert cert.verified is True
        assert cert.slack == pytest.approx(0.19940467300138476, abs=1e-9)
        assert cert.opt == pytest.approx(0.7088550238439126, abs=1e-9)

    def test_slack_matches_loop_enumeration(self):
        g = make_random_game(2, [3, 3], seed=404)
        s_star = (1, 2)
        cert = verify_smoothness(g, 0.8, 0.3, s_star, mode="cost")
        opt = min(
            float(g.tensors[0][s] + g.tensors[1][s])
            for s in itertools.product(range(3), range(3))
        )
        worst = min(
            0.8 * opt
            + 0.3 * float(g.tensors[0][s] + g.tensors[1][s])
            - float(g.tensors[0][s_star[0], s[1]] + g.tensors[1][s[0], s_star[1]])
            for s in itertools.product(range(3), range(3))
        )
        assert cert.slack == pytest.approx(worst, abs=1e-12)

    def test_claim_without_s_star_searches(self):
        # the first witness in lexicographic order is the frozen (2, 1) above
        g = make_random_game(2, [3, 3], seed=403)
        cert = verify_smoothness(g, 1.0, 0.5, mode="cost")
        assert cert.verified is True
        assert cert.s_star == (2, 1)
        assert cert.slack == pytest.approx(0.19940467300138476, abs=1e-9)

    def test_parameter_validation(self):
        g = DenseGame([np.array(C0), np.array(C1)])
        with pytest.raises(ValueError, match="lambda"):
            verify_smoothness(g, 0.0, 0.5, (0, 0), mode="cost")
        with pytest.raises(ValueError, match="mu"):
            verify_smoothness(g, 1.0, -0.1, (0, 0), mode="cost")


class TestFirstOrderConstants:
    def test_bound_formula(self):
        c = FirstOrderConstants(2.0, 3.0)
        d, best = 4, 9.0
        assert c.bound(d, best) == pytest.approx(
            2.0 * math.sqrt(math.log(4) * 9.0) + 3.0 * math.log(4), abs=1e-12
        )
        assert c.bound(d, 0.0) == pytest.approx(3.0 * math.log(4), abs=1e-12)

    def test_welfare_constant_formula(self):
        c = FirstOrderConstants(2.0, 3.0)
        # A1^2 mu/(1-mu)^2 + 2 A2/(1-mu) at mu = 0.5: 4*2 + 6*2 = 20
        assert c.welfare_constant(0.5) == pytest.approx(20.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 1.0, 1.5, -0.2])
    def test_welfare_constant_requires_interior_mu(self, mu):
        with pytest.raises(ValueError, match="mu"):
            FirstOrderConstants(1.0, 1.0).welfare_constant(mu)

    def test_fit_dominates_every_observation(self):
        obs = [(2, 0.0, 0.0), (2, 4.0, 1.1), (4, 9.0, 2.0), (8, 16.0, 3.5),
               (2, 1.0, 0.4)]
        c = fit_first_order_constants(obs)
        assert c.A1 >= 0.0 and c.A2 >= 0.0
        for (d, best, reg) in obs:
            assert c.bound(d, best) >= reg - 1e-9

    def test_fit_handles_zero_regret_observations(self):
        c = fit_first_order_constants([(2, 5.0, 0.0), (4, 1.0, 0.0)])
        assert c.A2 > 0.0  # degenerate fit still yields a positive envelope

    def test_fit_handles_zero_cost_positive_regret(self):
        c = fit_first_order_constants([(2, 0.0, 0.7), (2, 4.0, 0.1)])
        assert c.bound(2, 0.0) >= 0.7 - 1e-9

    def test_per_term_fallback_when_a_positive_regret_is_predicted_zero(self):
        # the non-negative fit keeps A2 = 0, so the zero-cost player's positive
        # regret has a zero prediction: each constant becomes its own envelope
        obs = [(2, 100.0, 10.0), (2, 400.0, 30.0), (2, 0.0, 0.01)]
        c = fit_first_order_constants(obs)
        assert c.A1 == pytest.approx(30.0 / math.sqrt(400.0 * math.log(2)), rel=1e-12)
        assert c.A2 == pytest.approx(30.0 / math.log(2), rel=1e-12)
        for (d, best, reg) in obs:
            assert c.bound(d, best) >= reg

    def test_fit_is_deterministic(self):
        obs = [(3, 2.0, 0.9), (3, 8.0, 1.7), (5, 1.0, 0.8)]
        a = fit_first_order_constants(obs)
        b = fit_first_order_constants(obs)
        assert (a.A1, a.A2) == (b.A1, b.A2)


class TestTwoColumnNnls:
    """The two-column solver behind ``fit_first_order_constants`` meets the
    KKT conditions of min ||A c - y|| over c >= 0: c >= 0, and the gradient
    A^T (A c - y) is >= 0 everywhere and 0 where c > 0 (both up to rounding)."""

    @staticmethod
    def assert_kkt(A, y):
        c = _nnls2(A, y)
        grad = A.T @ (A @ c - y)
        scale = np.linalg.norm(A) ** 2 * np.linalg.norm(c) + np.linalg.norm(A) * np.linalg.norm(y)
        tol = 1e-12 * (1.0 + scale)
        assert c.shape == (2,) and np.all(c >= 0.0)
        assert np.all(grad >= -tol), (A, y, c, grad)
        assert np.all(np.abs(grad[c > 0.0]) <= tol), (A, y, c, grad)

    def test_seeded_random_problems(self):
        rng = np.random.default_rng(2015)
        for _ in range(500):
            rows = int(rng.integers(1, 9))
            self.assert_kkt(rng.uniform(0.0, 3.0, (rows, 2)), rng.uniform(-1.0, 3.0, rows))

    def test_identical_rows(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            row = rng.uniform(0.0, 3.0, 2)
            self.assert_kkt(np.tile(row, (4, 1)), rng.uniform(-1.0, 3.0, 4))

    @pytest.mark.parametrize("zero", [0, 1])
    def test_a_zero_column(self, zero):
        rng = np.random.default_rng(11 + zero)
        for _ in range(50):
            A = rng.uniform(0.0, 3.0, (5, 2))
            A[:, zero] = 0.0
            self.assert_kkt(A, rng.uniform(-1.0, 3.0, 5))

    def test_zero_targets_give_zero(self):
        A = np.array([[math.sqrt(math.log(2) * 250.0), math.log(2)]] * 2)
        c = _nnls2(A, np.zeros(2))
        assert [math.copysign(1.0, x) for x in c] == [1.0, 1.0] and c.tolist() == [0.0, 0.0]
        self.assert_kkt(A, np.zeros(2))


class TestCostWelfareCertificate:
    def fit_from_trace(self, tr, d):
        obs = []
        for i in range(tr.n):
            costs = 1.0 - tr.utilities[i]
            best = float(costs.sum(axis=0).min())
            obs.append((d, best, regret(tr, i)))
        return fit_first_order_constants(obs)

    def test_constant_half_cost_game_passes(self):
        g = DenseGame([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        cert = verify_smoothness(g, 1.0, 0.5, (0, 0), mode="cost")
        tr = run(g, [LearnerSpec("hedge", eta=0.2)] * 2, 50, mode="cost")
        out = certify_cost_welfare(tr, cert, FirstOrderConstants(1.0, 1.0))
        assert out.passed is True
        assert out.lhs == pytest.approx(1.0, abs=1e-12)  # average cost n/2
        # smoothness part of the bound alone is 6 * Opt' = 6 >= 1
        assert out.rhs >= 6.0

    def test_all_zero_cost_game_passes(self):
        g = DenseGame([np.zeros((2, 2)), np.zeros((2, 2))])
        cert = verify_smoothness(g, 1.0, 0.5, (0, 0), mode="cost")
        tr = run(g, [LearnerSpec("first_order_hedge")] * 2, 20, mode="cost")
        out = certify_cost_welfare(tr, cert, FirstOrderConstants(1.0, 1.0))
        assert out.passed is True
        assert out.lhs == 0.0

    def test_end_to_end_with_measured_constants(self):
        g = make_random_game(2, [3, 3], seed=403)
        cert = verify_smoothness(g, 1.0, 0.5, (2, 1), mode="cost")
        tr = run(g, [LearnerSpec("first_order_hedge")] * 2, 500, mode="cost")
        consts = self.fit_from_trace(tr, 3)
        out = certify_cost_welfare(tr, cert, consts)
        assert out.passed is True
        assert out.lhs == pytest.approx(1.0968680256153562, abs=1e-9)
        for i in range(2):
            detail = out.details[f"player_{i}"]
            assert detail["regret_vs_s_star"] <= detail["first_order_cap"] + 1e-9

    def test_failed_precondition_is_vacuous_never_failed(self):
        g = make_random_game(2, [3, 3], seed=403)
        cert = verify_smoothness(g, 1.0, 0.5, (2, 1), mode="cost")
        tr = run(g, [LearnerSpec("first_order_hedge")] * 2, 500, mode="cost")
        out = certify_cost_welfare(tr, cert, FirstOrderConstants(0.0, 1e-12))
        assert out.passed is None
        assert "vacuous" in out.details

    def test_interior_mu_is_required(self):
        g = DenseGame([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        cert = verify_smoothness(g, 1.0, 0.0, (0, 0), mode="cost")
        tr = run(g, [LearnerSpec("hedge", eta=0.2)] * 2, 5, mode="cost")
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            certify_cost_welfare(tr, cert, FirstOrderConstants(1.0, 1.0))

    def test_verified_certificate_is_required(self):
        g = DenseGame([np.array(C0), np.array(C1)])
        cert = verify_smoothness(g, 1.0, 0.5, (0, 0), mode="cost")  # refuted
        tr = run(g, [LearnerSpec("hedge", eta=0.2)] * 2, 5, mode="cost")
        with pytest.raises(ValueError, match="verified"):
            certify_cost_welfare(tr, cert, FirstOrderConstants(1.0, 1.0))

    def test_utility_mode_traces_are_rejected(self):
        g = DenseGame([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        cert = verify_smoothness(g, 1.0, 0.5, (0, 0), mode="cost")
        tr = run(g, [LearnerSpec("hedge", eta=0.2)] * 2, 5, mode="utility")
        with pytest.raises(ValueError, match="cost-mode"):
            certify_cost_welfare(tr, cert, FirstOrderConstants(1.0, 1.0))
