"""Tests for splittable routing: parsing, gradients, dynamics, certificates."""

import io
import math
import sys
import time

import numpy as np
import pytest

import oracles as orc
from regretlab import continuous, learners
from regretlab.continuous import (
    CongestionNetwork,
    certify_total_regret,
    gradient,
    linearized_regret,
    lipschitz_constant,
    parse_network,
    run_continuous,
    true_regret,
)
from regretlab.dynamics import read_trace_csv, report, write_trace_csv
from regretlab.library import build_game

TWO_EDGE_TWO_PLAYER = """\
edge s t 0 1 0
edge s t 0 1 0
player s t 1
player s t 1
"""

QUAD_NETWORK = """\
edge s a 0.2 0.3 0.1
edge a t 0.1 0.5 0.0
edge s b 0.0 1.0 0.2
edge b t 0.3 0.2 0.1
edge s t 0.5 0.1 0.3
player s t 1.5
player s t 0.8
"""


def feasible_profile(net, seed):
    """Random feasible flows from the shared deterministic bit stream."""
    vals = orc.splitmix64_reference(seed, 64)
    floats = [(v >> 11) / float(1 << 53) for v in vals]
    idx = 0
    prof = []
    for i in range(net.n):
        k = len(net.paths[i])
        raw = [floats[idx + j] + 1e-3 for j in range(k)]
        idx += k
        s = sum(raw)
        prof.append(np.array([net.players[i][2] * r / s for r in raw]))
    return prof


class TestParsing:
    def test_round_trip_of_a_small_network(self):
        net = parse_network(TWO_EDGE_TWO_PLAYER)
        assert net.n == 2 and net.m == 2
        assert net.paths == [[(0,), (1,)], [(0,), (1,)]]
        assert net == parse_network(TWO_EDGE_TWO_PLAYER)  # derived arrays stay out of ==

    def test_comments_and_blank_lines_are_skipped(self):
        net = parse_network("# header\n\nedge s t 0 1 0  # inline\nplayer s t 1\n")
        assert net.m == 1 and net.n == 1

    def test_parse_error_carries_the_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_network("edge s t 0 1 0\nedge s t 0 one 0\nplayer s t 1\n")

    def test_wrong_arity_is_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_network("edge s t 0 1\nplayer s t 1\n")

    def test_unknown_directive_is_rejected(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_network("edge s t 0 1 0\nplayer s t 1\nroute s t 2\n")

    def test_empty_network_is_rejected(self):
        with pytest.raises(ValueError, match="at least one edge"):
            parse_network("# nothing here\n")

    def test_negative_coefficient_names_the_edge(self):
        with pytest.raises(ValueError, match="s->t"):
            CongestionNetwork([("s", "t", -1.0, 0.0, 0.0)], [("s", "t", 1.0)])

    def test_nonpositive_flow_is_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            CongestionNetwork([("s", "t", 0.0, 1.0, 0.0)], [("s", "t", 0.0)])

    @pytest.mark.parametrize("coef", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                      (0.0, 0.0, -math.inf)], ids=["nan", "inf", "-inf"])
    def test_non_finite_coefficient_names_the_edge(self, coef):
        with pytest.raises(ValueError, match=r"^latency coefficients on s->t must be finite"):
            CongestionNetwork([("s", "t", *coef)], [("s", "t", 1.0)])

    @pytest.mark.parametrize("flow", [math.nan, math.inf])
    def test_non_finite_flow_is_rejected(self, flow):
        with pytest.raises(ValueError, match=r"^flow amount must be positive and finite"):
            CongestionNetwork([("s", "t", 0.0, 1.0, 0.0)], [("s", "t", flow)])

    def test_missing_path_is_rejected(self):
        with pytest.raises(ValueError, match="no path"):
            CongestionNetwork([("s", "t", 0.0, 1.0, 0.0)], [("t", "s", 1.0)])

    @staticmethod
    def layered(layers, direct=False):
        """``layers`` hops of two parallel edges from v0 to v<layers>: 2^layers
        paths, plus one when a direct v0 -> v<layers> edge is added."""
        edges = [(f"v{k}", f"v{k + 1}", 0.0, 1.0, 0.0) for k in range(layers)] * 2
        edges += [("v0", f"v{layers}", 0.0, 1.0, 0.0)] if direct else []
        return CongestionNetwork(edges, [("v0", f"v{layers}", 1.0)])

    def test_path_cap_is_inclusive(self):
        net = self.layered(6)  # 64 paths
        assert len(net.paths[0]) == continuous.PATH_CAP == 64
        assert net.incidence[0].shape == (64, 12)
        with pytest.raises(ValueError, match="^paths from v0 to v6 exceed the cap 64$"):
            self.layered(6, direct=True)  # 65 paths

    def test_path_search_stops_at_the_cap(self):
        # 2^40 paths: enumerating them all would not finish
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceed the cap 64"):
            self.layered(40)
        assert time.perf_counter() - start < 1.0

    @staticmethod
    def dead_ends(layers, back_edge=False):
        """s -> t plus ``layers`` hops of two parallel edges hanging off s:
        2^layers branches that never reach t, and that reach it only through
        s itself when a back edge from the last layer to s is added."""
        edges = [("s", "t", 0.0, 1.0, 0.0)]
        edges += [("s" if k == 0 else f"v{k}", f"v{k + 1}", 0.0, 1.0, 0.0)
                  for k in range(layers)] * 2
        edges += [(f"v{layers}", "s", 0.0, 1.0, 0.0)] if back_edge else []
        return CongestionNetwork(edges, [("s", "t", 1.0)])

    def test_branches_that_cannot_reach_the_sink_are_not_searched(self):
        start = time.perf_counter()
        net = self.dead_ends(40)
        assert time.perf_counter() - start < 1.0
        assert net.paths == [[(0,)]]

    def test_a_cyclic_trap_is_rejected_at_the_step_cap(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^path search from s to t exceeds "
                                             f"{continuous.SEARCH_CAP} steps$"):
            self.dead_ends(40, back_edge=True)
        assert time.perf_counter() - start < 1.0

    def test_a_path_longer_than_the_recursion_limit_is_found(self):
        hops = sys.getrecursionlimit() + 200
        net = CongestionNetwork([(f"v{k}", f"v{k + 1}", 0.0, 1.0, 0.0) for k in range(hops)],
                                [("v0", f"v{hops}", 1.0)])
        assert net.paths == [[tuple(range(hops))]]

    def test_describe_rebuilds_the_network(self):
        net = parse_network(QUAD_NETWORK)
        desc = net.describe()
        assert desc["kind"] == "network"
        assert desc["players"] == [["s", "t", 1.5], ["s", "t", 0.8]]
        back = build_game(desc)
        assert back == net and back.paths == net.paths

    def test_path_explosion_is_rejected(self):
        edges = []
        for k in range(7):  # 2^7 = 128 parallel-pair hops > 64-path cap
            edges.append((f"v{k}", f"v{k+1}", 0.0, 1.0, 0.0))
            edges.append((f"v{k}", f"v{k+1}", 0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="cap"):
            CongestionNetwork(edges, [("v0", "v7", 1.0)])


class TestGradient:
    def test_single_shared_edge_congestion_term(self):
        # two players routing 1 each over the lone unit-slope edge: the load
        # is 2, so each sees latency 2 plus own-flow 1 times slope 1 = 3
        net = CongestionNetwork(
            [("s", "t", 0.0, 1.0, 0.0)], [("s", "t", 1.0), ("s", "t", 1.0)]
        )
        prof = [np.array([1.0]), np.array([1.0])]
        for i in range(2):
            np.testing.assert_allclose(gradient(net, prof, i), [3.0], atol=1e-15)

    def test_constant_latency_has_no_congestion_term(self):
        net = CongestionNetwork(
            [("s", "a", 0.0, 0.0, 2.0), ("a", "t", 0.0, 0.0, 0.5)],
            [("s", "t", 1.0)],
        )
        np.testing.assert_allclose(gradient(net, [np.array([1.0])], 0), [2.5], atol=1e-15)

    def test_infeasible_profile_is_rejected(self):
        net = parse_network(TWO_EDGE_TWO_PLAYER)
        with pytest.raises(ValueError, match="sum to"):
            gradient(net, [np.array([0.7, 0.7]), np.array([0.5, 0.5])], 0)
        with pytest.raises(ValueError, match="shape"):
            gradient(net, [np.array([1.0]), np.array([0.5, 0.5])], 0)

    @pytest.mark.parametrize("count", [1, 3])
    def test_profile_of_the_wrong_length_is_rejected(self, count):
        net = parse_network(TWO_EDGE_TWO_PLAYER)
        prof = [np.array([0.5, 0.5])] * count
        for fn in (net.edge_loads, lambda p: gradient(net, p, 0)):
            with pytest.raises(ValueError, match=f"profile has {count} flow vectors, "
                                                 "network has 2 players"):
                fn(prof)

    def test_matches_finite_differences_on_quadratic_networks(self):
        net = parse_network(QUAD_NETWORK)
        for seed in (300, 301, 302):
            prof = feasible_profile(net, seed)
            base = [p.tolist() for p in prof]
            for i in range(net.n):
                def fn(w, i=i, base=base):
                    full = [list(x) for x in base]
                    full[i] = list(w)
                    return orc.routing_player_cost(net.edges, net.paths, full, i)

                fd = orc.fd_gradient(fn, list(prof[i]))
                np.testing.assert_allclose(gradient(net, prof, i), fd, atol=1e-6)

    def test_player_cost_matches_loop_oracle(self):
        net = parse_network(QUAD_NETWORK)
        prof = feasible_profile(net, 303)
        for i in range(net.n):
            expect = orc.routing_player_cost(
                net.edges, net.paths, [p.tolist() for p in prof], i
            )
            assert continuous._derive(net, prof)[1][i] == pytest.approx(expect, abs=1e-12)


class TestLipschitzBundle:
    def test_unit_slope_three_edges_unit_flow(self):
        net = CongestionNetwork(
            [("s", "t", 0.0, 1.0, 0.0)] * 3, [("s", "t", 1.0)]
        )
        bun = lipschitz_constant(net)
        assert bun.K == 1.0
        assert bun.L_paper == 6.0 and bun.L_derived == 6.0  # coincide at B = 1
        assert bun.L == 6.0

    def test_unit_slope_two_edges_flow_three(self):
        net = CongestionNetwork(
            [("s", "t", 0.0, 1.0, 0.0)] * 2, [("s", "t", 3.0)]
        )
        bun = lipschitz_constant(net)
        assert bun.L_paper == 4.0 and bun.L_derived == 8.0
        assert bun.L == 8.0  # certificates take the safe larger value

    def test_constant_latencies_have_zero_slope_constant(self):
        net = CongestionNetwork(
            [("s", "t", 0.0, 0.0, 2.0)] * 2, [("s", "t", 1.0)]
        )
        bun = lipschitz_constant(net)
        assert bun.K == 0.0 and bun.L == 0.0

    def test_constant_latencies_have_no_tuned_step_size(self):
        net = CongestionNetwork([("s", "t", 0.0, 0.0, 2.0)] * 2, [("s", "t", 1.0)])
        bun = lipschitz_constant(net)
        with pytest.raises(ValueError, match=r"L = 0.*set \[learner\] eta"):
            continuous._tuned_eta(net, bun)
        assert continuous._tuned_eta(net, bun, 0.1) == (math.inf, False)
        rep = report(run_continuous(net, 0.1, 10))
        assert rep.certificates == [] and rep.summary["lipschitz_L"] == 0.0

    def test_quadratic_term_enters_through_total_flow(self):
        # K = max(2aF + b, 2a) with F the total flow over all players
        net = CongestionNetwork(
            [("s", "t", 0.5, 0.1, 0.0)], [("s", "t", 1.0), ("s", "t", 2.0)]
        )
        assert lipschitz_constant(net).K == pytest.approx(0.5 * 2 * 3 + 0.1, abs=1e-15)

    def test_gradient_variation_is_lipschitz_in_strategy_variation(self):
        # ||grad_i(w) - grad_i(y)||_inf <= K(1+B)m * sum_j ||w_j - y_j||_1
        net = parse_network(QUAD_NETWORK)
        bun = lipschitz_constant(net)
        B = max(f for (_s, _t, f) in net.players)
        L = bun.K * (1.0 + B) * net.m
        for seed in range(310, 330):
            wp = feasible_profile(net, seed)
            yp = feasible_profile(net, seed + 1000)
            dsum = sum(float(np.abs(wp[j] - yp[j]).sum()) for j in range(net.n))
            for i in range(net.n):
                dg = float(np.abs(gradient(net, wp, i) - gradient(net, yp, i)).max())
                assert dg <= L * dsum + 1e-12


class TestDynamics:
    def test_validation(self):
        net = parse_network(TWO_EDGE_TWO_PLAYER)
        with pytest.raises(ValueError, match="eta"):
            run_continuous(net, 0.0, 5)
        with pytest.raises(ValueError, match="T"):
            run_continuous(net, 0.1, 0)

    def test_round_one_splits_uniformly(self):
        net = parse_network(QUAD_NETWORK)
        tr = run_continuous(net, 0.05, 1)
        np.testing.assert_allclose(tr.flows[0][0], [0.5, 0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(tr.flows[1][0], [0.8 / 3] * 3, atol=1e-15)

    def test_flow_conservation_every_round(self):
        net = parse_network(QUAD_NETWORK)
        tr = run_continuous(net, 0.05, 50)
        for i in range(net.n):
            f = net.players[i][2]
            np.testing.assert_allclose(tr.flows[i].sum(axis=1), f, atol=1e-9)
            assert tr.flows[i].min() >= 0.0

    def test_symmetric_instance_stays_uniform(self):
        net = CongestionNetwork(
            [("s", "t", 0.0, 1.0, 0.0)] * 2, [("s", "t", 1.0)]
        )
        tr = run_continuous(net, 0.2, 30)
        np.testing.assert_array_equal(tr.flows[0], np.full((30, 2), 0.5))
        assert linearized_regret(tr, 0) == 0.0

    def test_asymmetric_latency_shifts_flow_to_the_cheap_edge(self):
        net = CongestionNetwork(
            [("s", "t", 0.0, 1.0, 0.0), ("s", "t", 0.0, 2.0, 0.0)],
            [("s", "t", 1.0)],
        )
        tr = run_continuous(net, 0.1, 20)
        cheap = tr.flows[0][:, 0]
        assert np.all(np.diff(cheap) > 0)  # monotone drift toward edge 1
        assert cheap[-1] > 0.5

    def test_vanishing_step_size_keeps_iterates_near_uniform(self):
        net = parse_network(QUAD_NETWORK)
        eta = 1e-6
        tr = run_continuous(net, eta, 5)
        for i in range(net.n):
            f = net.players[i][2]
            k = tr.flows[i].shape[1]
            dev = float(np.abs(tr.flows[i] - f / k).max())
            assert dev <= 100.0 * eta

    def test_matches_the_loop_oracle_recursion(self):
        net = parse_network(QUAD_NETWORK)
        tr = run_continuous(net, 0.3, 60)
        flows, grads = orc.routing_optimistic_hedge_sim(
            net.edges, net.paths, [f for (_s, _t, f) in net.players], 0.3, 60)
        for i in range(net.n):
            np.testing.assert_allclose(tr.flows[i], flows[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(tr.grads[i], grads[i], rtol=0, atol=1e-12)

    def test_edge_loads_once_per_round(self, monkeypatch):
        # the round loop calls the unchecked core; after it, the derivation
        # checks every round's flows and makes one more, batched, call
        calls = []
        loads = CongestionNetwork._edge_loads

        def counting(self, profile):
            calls.append(1)
            return loads(self, profile)

        monkeypatch.setattr(CongestionNetwork, "_edge_loads", counting)
        run_continuous(parse_network(QUAD_NETWORK), 0.05, 25)
        assert len(calls) == 25 + 1

    @pytest.mark.parametrize("bad_round", [0, 9])
    def test_infeasible_flows_are_rejected_after_the_loop(self, monkeypatch, bad_round):
        # a learner that drifts off the simplex in one round: its flows no
        # longer sum to the player's amount, and run_continuous must say so
        class Drifting(learners.FtrlLearner):
            def _play(self):
                w = super()._play()
                return w * 1.5 if self.t == bad_round else w

        monkeypatch.setattr(learners, "FtrlLearner", Drifting)
        with pytest.raises(ValueError,
                           match=r"^player 0: path flows must be >= 0 and sum to 1\.5$"):
            run_continuous(parse_network(QUAD_NETWORK), 0.05, 10)

    def test_total_cost_series_matches_hand_recomputation(self):
        net = parse_network(QUAD_NETWORK)
        tr = run_continuous(net, 0.05, 10)
        for t in (0, 4, 9):
            prof = [tr.flows[i][t] for i in range(net.n)]
            expect = sum(orc.routing_player_cost(net.edges, net.paths,
                                                 [p.tolist() for p in prof], i)
                         for i in range(net.n))
            assert tr.total_cost[t] == pytest.approx(expect, abs=1e-12)


class TestRegret:
    def test_single_path_player_has_zero_regret(self):
        net = CongestionNetwork(
            [("s", "t", 0.1, 1.0, 0.0)], [("s", "t", 1.0), ("s", "t", 2.0)]
        )
        tr = run_continuous(net, 0.05, 25)
        assert linearized_regret(tr, 0) == 0.0
        assert linearized_regret(tr, 1) == 0.0

    def test_true_regret_of_a_lone_player_sums_every_round(self):
        # latencies x and 1 on two parallel links, one unit of flow: the best
        # fixed split is (1/2, 1/2) at cost 3/4 per round, so the true regret
        # is the realized cost minus 3T/4 (no opponents, yet T rounds of load)
        net = CongestionNetwork(
            [("s", "t", 0.0, 1.0, 0.0), ("s", "t", 0.0, 0.0, 1.0)], [("s", "t", 1.0)]
        )
        T = 30
        tr = run_continuous(net, 0.1, T)
        realized = sum(orc.routing_player_cost(net.edges, net.paths, [tr.flows[0][t].tolist()], 0)
                       for t in range(T))
        assert true_regret(tr, 0) == pytest.approx(realized - 0.75 * T, abs=1e-8)

    def test_true_regret_below_linearized(self):
        net = parse_network(QUAD_NETWORK)
        tr = run_continuous(net, 0.05, 40)
        for i in range(net.n):
            assert true_regret(tr, i) <= linearized_regret(tr, i) + 1e-9

    @staticmethod
    def cumulative(net, flows, i, split=None):
        """Player i's cost summed round by round, by the loop oracle; with
        ``split``, player i routes that fixed split in every round."""
        total = 0.0
        for t in range(len(flows[0])):
            prof = [flows[j][t] for j in range(net.n)]
            if split is not None:
                prof[i] = split
            total += orc.routing_player_cost(net.edges, net.paths, prof, i)
        return total

    @pytest.mark.parametrize("seed", range(4))
    def test_true_regret_matches_a_ternary_search_on_two_path_players(self, seed):
        # every player has two paths (two parallel links, or two disjoint
        # two-hop routes), and the cumulative cost is convex in the split
        # (x, f - x), so a ternary search over x finds its minimum
        rng = np.random.default_rng(seed)
        hops = [("s", "t")] * 2 if seed % 2 else [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")]
        net = CongestionNetwork([(u, v, *rng.uniform(0.0, 1.0, 3)) for (u, v) in hops],
                                [("s", "t", float(f)) for f in rng.uniform(0.5, 2.0, 3)])
        tr = run_continuous(net, 0.1, 40)
        flows = [[row.tolist() for row in w] for w in tr.flows]
        for i in range(net.n):
            f = net.players[i][2]
            lo, hi = 0.0, f
            for _ in range(60):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                if self.cumulative(net, flows, i, [m1, f - m1]) <= \
                        self.cumulative(net, flows, i, [m2, f - m2]):
                    hi = m2
                else:
                    lo = m1
            best = min(self.cumulative(net, flows, i, [x, f - x]) for x in (0.0, (lo + hi) / 2, f))
            expect = self.cumulative(net, flows, i) - best
            assert true_regret(tr, i) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_true_regret_is_at_least_the_regret_to_an_oracle_split(self, seed):
        # players with four paths each: true_regret subtracts the least
        # cumulative cost of a fixed split, so no split the independent
        # exponentiated-gradient search finds may cost less
        rng = np.random.default_rng(seed)
        hops = [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("a", "b"), ("s", "t")]
        net = CongestionNetwork([(u, v, *rng.uniform(0.0, 1.0, 3)) for (u, v) in hops],
                                [("s", "t", float(f)) for f in rng.uniform(0.5, 2.0, 3)])
        tr = run_continuous(net, 0.05, 300)
        flows = [[row.tolist() for row in w] for w in tr.flows]
        for i in range(net.n):
            split = orc.routing_best_fixed_split(net.edges, net.paths, flows, i)
            regret = self.cumulative(net, flows, i) - self.cumulative(net, flows, i, split)
            assert true_regret(tr, i) >= regret - 1e-9 * abs(regret)

    def test_gradient_space_variation_inequality(self):
        # each player's linearized regret obeys the variation bound with
        # constants (R/eta, eta, 1/(4 eta)), R = f_i ln |P_i|, measured on
        # gradients (sup-norm, grad^0 = 0) and flows (l1, w^0 = w^1)
        net = parse_network(QUAD_NETWORK)
        bun = lipschitz_constant(net)
        eta = 1.0 / (2.0 * bun.L * net.n)
        tr = run_continuous(net, eta, 300)
        for i in range(net.n):
            g, w = tr.grads[i], tr.flows[i]
            dg = np.diff(g, axis=0, prepend=np.zeros((1, g.shape[1])))
            dw = np.diff(w, axis=0)
            sum_dg2 = float((np.abs(dg).max(axis=1) ** 2).sum())
            sum_dw2 = float((np.abs(dw).sum(axis=1) ** 2).sum())
            R = net.players[i][2] * math.log(len(net.paths[i]))
            rhs = R / eta + eta * sum_dg2 - sum_dw2 / (4.0 * eta)
            assert linearized_regret(tr, i) <= rhs + 1e-9


class TestCertificate:
    def test_two_player_parallel_edges(self):
        net = parse_network(TWO_EDGE_TWO_PLAYER)
        bun = lipschitz_constant(net)
        assert bun.L == 4.0
        eta = 1.0 / (2.0 * bun.L * net.n)  # 1/16
        tr = run_continuous(net, eta, 1000)
        cert = certify_total_regret(tr, bun)
        assert cert.passed is True
        assert cert.rhs == pytest.approx(2.0 * math.log(2.0) * 16.0, abs=1e-12)

    def test_quadratic_network(self):
        net = parse_network(QUAD_NETWORK)
        bun = lipschitz_constant(net)
        eta = 1.0 / (2.0 * bun.L * net.n)
        tr = run_continuous(net, eta, 400)
        cert = certify_total_regret(tr, bun)
        assert cert.passed is True
        R = max(f * math.log(3) for (_s, _t, f) in net.players)
        assert cert.rhs == pytest.approx(net.n * R / eta, abs=1e-9)

    def test_equal_constant_latencies_yield_zero_regret(self):
        net = CongestionNetwork(
            [("s", "t", 0.0, 0.0, 2.0)] * 2, [("s", "t", 1.0), ("s", "t", 1.0)]
        )
        tr = run_continuous(net, 0.1, 50)
        assert sum(linearized_regret(tr, i) for i in range(2)) == 0.0

    @pytest.mark.parametrize("over, passed", [(1e-4, False), (1e-8, True)])
    def test_the_tolerance_is_one_millionth(self, over, passed):
        # a total linearized regret `over` above n*R/eta, at the eta that a
        # bundle with L = 1/(2 n eta) tunes: past the 1e-6 tolerance, or within it
        net = parse_network(QUAD_NETWORK)
        tr = run_continuous(net, 0.1, 50)
        total = sum(linearized_regret(tr, i) for i in range(net.n))
        R = max(f * math.log(len(paths)) for (_s, _t, f), paths in zip(net.players, net.paths))
        tr.meta["eta"] = net.n * R / (total - over)
        L = 1.0 / (2.0 * net.n * tr.eta)
        cert = certify_total_regret(tr, continuous.LipschitzBundle(K=0.0, L_paper=L, L_derived=L))
        assert cert.lhs == total and cert.lhs - cert.rhs == pytest.approx(over, rel=1e-3)
        assert cert.passed is passed

    def test_step_size_mismatch_is_rejected(self):
        net = parse_network(TWO_EDGE_TWO_PLAYER)
        bun = lipschitz_constant(net)
        tr = run_continuous(net, 0.1, 10)
        with pytest.raises(ValueError, match="eta"):
            certify_total_regret(tr, bun)


class TestTraceCsv:
    @pytest.mark.parametrize("eta", [1.0 / 64.0, 0.05, 0.3])
    def test_round_trip_is_bitwise(self, eta):
        net = parse_network(QUAD_NETWORK.replace("player s t 0.8", "player s t 0.8\n"
                                                 "player a t 0.6\nedge a b 0.4 0.1 0.0"))
        tr = run_continuous(net, eta, 40)
        tr.meta["seed"] = 3
        text = write_trace_csv(tr)
        back = read_trace_csv(io.StringIO(text, newline=None))
        assert back.network == net and back.eta == eta and back.meta == tr.meta
        for i in range(net.n):
            np.testing.assert_array_equal(back.flows[i], tr.flows[i])
            np.testing.assert_array_equal(back.grads[i], tr.grads[i])
        np.testing.assert_array_equal(back.costs, tr.costs)
        np.testing.assert_array_equal(back.total_cost, tr.total_cost)
        assert write_trace_csv(back) == text

    def test_meta_describes_the_run(self):
        net = parse_network(TWO_EDGE_TWO_PLAYER)
        tr = run_continuous(net, 0.25, 3)
        assert tr.meta == {"game": net.describe(), "eta": 0.25, "T": 3, "mode": "routing"}
