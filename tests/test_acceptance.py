"""Acceptance gate: eleven end-to-end guarantees, one test per guarantee.

Each test exercises a complete shipped promise at the exact parameters it is
stated for; the tolerances are part of the statements, so nothing here may be
loosened.  Test 06 collects every clause of the adversarial lower-bound
promise and is expected to fail on its first clause: the realized dynamics
deliver exactly half of the advertised closed form on the identity game (see
the failure message for the measured ratio).  All other tests must pass.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles as orc
from regretlab.auctions import AuctionGame, AuctionSpec, uniform_values
from regretlab.config import parse_config
from regretlab.continuous import (
    certify_total_regret,
    gradient,
    linearized_regret,
    lipschitz_constant,
    parse_network,
    run_continuous,
)
from regretlab.costmode import (
    certify_cost_welfare,
    fit_first_order_constants,
)
from regretlab.dynamics import regret, regret_series, report, run
from regretlab.experiment import (
    build_game_from_config,
    lower_bound_experiment,
    run_experiment,
)
from regretlab.games import DenseGame, verify_smoothness
from regretlab.learners import (
    FirstOrderHedge,
    LearnerSpec,
    certify_variation_bound,
    declared_variation_bound,
    make_learner,
)
from regretlab.library import (
    make_matrix_game,
    make_random_game,
    masked_values,
)
from regretlab.robust import certify_robust, parametric_constants, wrap_doubling

TOL = 1e-9
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def load_config(name):
    """Parse a shipped config, absolutizing any network path like the CLI does."""
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        spec = parse_config(fh.read())
    path = spec.game.get("path")
    if path is not None and not os.path.isabs(path):
        spec.game["path"] = os.path.join(CONFIG_DIR, path)
    return spec


def drive(spec, d, stream, T):
    """Run one learner against a utility stream; returns (utilities, plays)."""
    learner = make_learner(spec, d)
    plays = np.empty((T, d))
    utils = np.empty((T, d))
    for t in range(T):
        w = learner.play()
        u = np.asarray(stream(t, w), dtype=float)
        learner.observe(u)
        plays[t] = w
        utils[t] = u
    return utils, plays


def adversarial_streams(d):
    """Ten stateless adversarial utility streams in [0, 1]^d, two of which
    react to the learner's current strategy."""
    eye = np.eye(d)
    return [
        lambda t, w: np.ones(d) if t % 2 == 0 else np.zeros(d),
        lambda t, w: eye[t % d],
        lambda t, w: 1.0 - eye[t % d],
        lambda t, w: eye[t % 2],
        lambda t, w: eye[0] if t % 2 == 0 else 1.0 - eye[0],
        lambda t, w: eye[(t // 50) % d],
        lambda t, w: np.array([(t * (j + 1) / 7.0) % 1.0 for j in range(d)]),
        lambda t, w: 0.5 + 0.5 * np.sin((np.arange(d) + 1.0) * t),
        lambda t, w: eye[int(np.argmin(w))],        # reward the neglected arm
        lambda t, w: 1.0 - eye[int(np.argmax(w))],  # punish the favorite arm
    ]


def test_01_variation_certificates_hold_on_arbitrary_streams():
    start = time.perf_counter()
    d, T = 3, 500
    rng = np.random.default_rng(20260815)
    random_streams = rng.random((100, T, d))
    adversarial = adversarial_streams(d)
    variants = []
    for eta in (0.05, 0.1, 0.5):
        variants += [
            LearnerSpec("omd", eta, "entropy", "last"),
            LearnerSpec("oftrl", eta, "entropy", "last"),
            LearnerSpec("oftrl", eta, "entropy", "window", 2),
            LearnerSpec("oftrl", eta, "entropy", "window", 5),
            LearnerSpec("oftrl", eta, "entropy", "geometric", 0.5),
            LearnerSpec("oftrl", eta, "entropy", "geometric", 0.9),
        ]
    assert len(variants) == 18
    checked = 0
    for spec in variants:
        bound = declared_variation_bound(spec, d)
        assert bound is not None, spec
        for k in range(100):
            utils, plays = drive(spec, d, lambda t, w, k=k: random_streams[k, t], T)
            cert = certify_variation_bound(utils, plays, bound, tol=TOL)
            assert cert.passed is True, (spec, "random", k, cert.lhs, cert.rhs)
            checked += 1
        for j, stream in enumerate(adversarial):
            utils, plays = drive(spec, d, stream, T)
            cert = certify_variation_bound(utils, plays, bound, tol=TOL)
            assert cert.passed is True, (spec, "adversarial", j, cert.lhs, cert.rhs)
            checked += 1
    assert checked == 18 * 110
    assert time.perf_counter() - start < 30.0


def test_02_self_play_regret_sum_stays_constant_in_T():
    start = time.perf_counter()
    T = 10_000
    bound_2_2 = None
    for n in (2, 3, 4):
        for d in (2, 3, 4, 5):
            game = make_random_game(n, [d] * n, seed=100 + 10 * n + d)

            eta = 1.0 / (2.0 * (n - 1))
            tr = run(game, [LearnerSpec("oftrl", eta, "entropy", "last")] * n, T)
            prefix = np.sum([regret_series(tr, i) for i in range(n)], axis=0)
            bound = 2.0 * n * (n - 1) * math.log(d)
            assert float(prefix.max()) <= bound + TOL, ("oftrl", n, d, prefix.max())
            if (n, d) == (2, 2):
                bound_2_2 = bound

            eta_omd = 1.0 / (math.sqrt(8.0) * (n - 1))
            tr = run(game, [LearnerSpec("omd", eta_omd, "entropy", "last")] * n, T)
            prefix = np.sum([regret_series(tr, i) for i in range(n)], axis=0)
            bound = n * math.log(d) / eta_omd
            assert float(prefix.max()) <= bound + TOL, ("omd", n, d, prefix.max())
    assert bound_2_2 == pytest.approx(2.772588722239781, abs=1e-12)
    assert time.perf_counter() - start < 120.0


def test_03_auction_optimism_beats_plain_hedge():
    start = time.perf_counter()
    spec = load_config("auction_fig1.cfg")
    game = build_game_from_config(spec.game)
    assert (game.n, game.m, game.dims[0]) == (4, 4, 80)
    opt = run(game, spec.specs_for(game.n), spec.T)
    hed = run(game, [spec.baseline] * game.n, spec.T)

    sum_opt = sum(regret(opt, i) for i in range(game.n))
    sum_hed = sum(regret(hed, i) for i in range(game.n))
    assert sum_opt < sum_hed
    assert sum_opt == pytest.approx(66.0731033071645, abs=TOL)
    assert sum_hed == pytest.approx(66.74690597342465, abs=TOL)

    cap = 4.0 * math.log(80.0) / 0.1
    assert cap == pytest.approx(175.28106538695525, abs=TOL)
    prefix = np.sum([regret_series(opt, i) for i in range(game.n)], axis=0)
    assert float(prefix.max()) <= cap + TOL
    assert float(prefix.max()) == pytest.approx(73.29331384897296, abs=TOL)

    osc_opt = float(np.mean([orc.mean_bid_oscillation(opt, i) for i in range(game.n)]))
    osc_hed = float(np.mean([orc.mean_bid_oscillation(hed, i) for i in range(game.n)]))
    assert osc_opt < osc_hed
    assert osc_opt == pytest.approx(0.003716235754961883, abs=TOL)
    assert osc_hed == pytest.approx(0.003731105463631053, abs=TOL)
    assert time.perf_counter() - start < 180.0


def test_04_tuned_eta_gives_fourth_root_individual_regret():
    start = time.perf_counter()
    n, d, T = 4, 5, 4096
    game = make_random_game(n, [d] * n, seed=7)
    eta = (n - 1) ** -0.5 * T ** -0.25
    tr = run(game, [LearnerSpec("oftrl", eta, "entropy", "last")] * n, T)
    cap = (math.log(d) + 4.0) * math.sqrt(n - 1) * T ** 0.25
    assert cap == pytest.approx(77.72665172991168, abs=TOL)
    for i in range(n):
        assert regret(tr, i) <= cap + TOL, (i, regret(tr, i))

    rep = report(tr)
    rate_certs = [c for c in rep.certificates if c.name.startswith("individual_rate[")]
    assert len(rate_certs) == n
    for cert in rate_certs:
        assert cert.passed is True, (cert.name, cert.lhs, cert.rhs)
        assert cert.rhs == pytest.approx(cap, abs=TOL)
    assert time.perf_counter() - start < 60.0


def test_05_doubling_wrapper_is_robust_against_anything():
    start = time.perf_counter()
    T, eta_star = 1024, 0.5
    inner = LearnerSpec("optimistic_hedge", 1.0)
    alpha, beta, gamma, pair = parametric_constants(inner, 2)
    assert (alpha, beta, gamma, pair) == (math.log(2.0), 1.0, 0.25, "l1_linf")
    game = make_matrix_game(np.array([[0.9, 0.2], [0.3, 0.7]]))

    def check(utilities, plays, label):
        cert = certify_robust(utilities, plays, alpha, beta, gamma, eta_star,
                              tol=TOL, norm_pair=pair)
        assert cert.passed is True, (label, cert.lhs, cert.details)
        assert cert.lhs <= cert.details["rhs_variation"] + TOL, label
        assert cert.lhs <= cert.details["rhs_sqrt"] + TOL, label

    # (a) self-play between two wrapped learners
    tr = run(game, [wrap_doubling(inner, 2, eta_star=eta_star) for _ in range(2)], T)
    for i in range(2):
        check(tr.utilities[i], tr.plays[i], f"self-play player {i}")

    # (b) against a best responder, the sqrt bound still holds
    tr = run(game, [wrap_doubling(inner, 2, eta_star=eta_star),
                    LearnerSpec("bestresponse")], T)
    check(tr.utilities[0], tr.plays[0], "vs best response")
    assert time.perf_counter() - start < 60.0


def test_06_lower_bound_experiment_matches_its_closed_forms():
    start = time.perf_counter()
    problems = []
    for T in (100, 1000):
        res = lower_bound_experiment(1.0, T)
        expected = (T / 2.0) * (math.e - 1.0) / (math.e + 1.0)
        assert res.closed_form_A == pytest.approx(expected, abs=TOL)
        if abs(res.r_game_A - res.closed_form_A) > TOL:
            problems.append(
                f"eta=1, T={T}: realized regret on the identity game is "
                f"{res.r_game_A!r} but the closed form promises "
                f"{res.closed_form_A!r} (ratio {res.r_game_A / res.closed_form_A:.6f})"
            )
        if res.r_game_Aprime < res.closed_form_Aprime_lb - TOL:
            problems.append(
                f"eta=1, T={T}: degenerate-game regret {res.r_game_Aprime!r} fell "
                f"below its floor {res.closed_form_Aprime_lb!r}"
            )
        floor = math.sqrt(T * (1.0 - math.exp(-1.0)) / (math.e + 1.0)) - 1.0
        for eta in (1.0 / T, 0.1, 1.0):
            res = lower_bound_experiment(eta, T)
            worst = max(res.r_game_A, res.r_game_Aprime)
            if worst < floor - TOL:
                problems.append(
                    f"eta={eta}, T={T}: max regret over the two games is {worst!r}, "
                    f"below the sqrt-T floor {floor!r}"
                )
    assert time.perf_counter() - start < 30.0
    assert not problems, "\n".join(problems)


def test_07_auction_oracle_equals_dense_tensor_twin():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    levels = np.array([1.0, 2.0, 3.5])
    for n in (1, 2, 3):
        for m in (1, 2):
            for nb in (1, 2, 3):
                v = 4.0 + n + m
                for values in (uniform_values(n, m, v),
                               masked_values(n, m, v, seed=10 * n + m)):
                    auction = AuctionGame(AuctionSpec(n, m, values, levels[:nb]))
                    dense = DenseGame(auction.utility_tensors(),
                                      scale=auction.scale, shift=auction.shift)
                    assert dense.dims == auction.dims
                    welfare_t = auction.welfare_tensor()
                    d = auction.dims[0]
                    for _ in range(100):
                        profile = [rng.dirichlet(np.ones(d)) for _ in range(n)]
                        for i in range(n):
                            np.testing.assert_allclose(
                                auction.expected_utilities(i, profile),
                                dense.expected_utilities(i, profile),
                                rtol=0.0, atol=1e-12)
                        wt = welfare_t
                        for j in range(n - 1, -1, -1):
                            wt = np.tensordot(wt, profile[j], axes=([j], [0]))
                        assert auction.welfare_mixed(profile) == pytest.approx(
                            float(wt), abs=1e-12)
    assert time.perf_counter() - start < 30.0


def test_08_welfare_floor_holds_for_every_learner_family():
    identity = make_matrix_game(np.eye(2))
    cert = verify_smoothness(identity, 1.0, 1.0, (0, 0))
    assert cert.verified
    fixtures = [(identity, cert)]
    for n, d, lam, mu, seed in ((2, 2, 0.3, 0.5, 6),
                                (3, 2, 0.3, 0.5, 0),
                                (2, 3, 0.5, 0.5, 0)):
        game, cert = orc.make_random_smooth_game(n, d, lam, mu, seed=seed)
        assert cert.verified, (n, d, lam, mu, seed)
        fixtures.append((game, cert))

    teams = {
        "hedge": lambda n: [LearnerSpec("hedge", 0.2)] * n,
        "optimistic_hedge": lambda n: [LearnerSpec("optimistic_hedge", 0.2)] * n,
        "oftrl_window": lambda n: [LearnerSpec("oftrl", 0.1, "entropy", "window", 2)] * n,
        "oftrl_geometric": lambda n: [
            LearnerSpec("oftrl", 0.1, "euclidean", "geometric", 0.5)] * n,
        "omd": lambda n: [LearnerSpec("omd", 0.2, "entropy", "last")] * n,
        "bestresponse": lambda n: [LearnerSpec("bestresponse")] * n,
        "first_order_hedge": lambda n: [LearnerSpec("first_order_hedge")] * n,
        "mixed": lambda n: ([LearnerSpec("hedge", 0.3), LearnerSpec("bestresponse")]
                            + [LearnerSpec("optimistic_hedge", 0.1)] * (n - 2)),
    }
    for game, cert in fixtures:
        for label, team in teams.items():
            tr = run(game, team(game.n), 150)
            tr.meta["smoothness"] = {"lambda": cert.lam, "mu": cert.mu,
                                     "s_star": list(cert.s_star)}
            rep = report(tr)
            floor = [c for c in rep.certificates if c.name == "welfare_floor"]
            assert len(floor) == 1
            assert floor[0].passed is True, (game.kind, game.n, label,
                                             floor[0].lhs, floor[0].rhs)


def test_09_routing_regret_certificate_and_gradient_oracle():
    start = time.perf_counter()
    with open(os.path.join(CONFIG_DIR, "network_parallel.txt")) as fh:
        net = parse_network(fh.read())
    bundle = lipschitz_constant(net)
    eta = 1.0 / (2.0 * bundle.L * net.n)
    assert eta == pytest.approx(1.0 / 64.0, abs=1e-15)
    tr = run_continuous(net, eta, 1000)
    cert = certify_total_regret(tr, bundle)
    assert cert.name == "total_linearized_regret"
    assert cert.passed is True, (cert.lhs, cert.rhs)
    total = sum(linearized_regret(tr, i) for i in range(net.n))
    assert total <= 2.0 * math.log(2.0) * 64.0 + TOL

    rng = np.random.default_rng(99)
    for case in range(50):
        k = int(rng.integers(2, 5))
        lines = [
            "edge s t "
            f"{rng.uniform(0, 2):.6f} {rng.uniform(0, 2):.6f} {rng.uniform(0, 2):.6f}"
            for _ in range(k)
        ]
        lines += [f"player s t {rng.uniform(0.5, 2.0):.6f}" for _ in range(2)]
        rnet = parse_network("\n".join(lines))
        profile = [rng.dirichlet(np.ones(k)) * rnet.players[j][2] for j in range(2)]
        i = case % 2

        def cost_of(x, i=i):
            flows = [list(x) if j == i else list(profile[j]) for j in range(2)]
            return orc.routing_player_cost(rnet.edges, rnet.paths, flows, i)

        fd = np.asarray(orc.fd_gradient(cost_of, list(profile[i])))
        np.testing.assert_allclose(gradient(rnet, profile, i), fd,
                                   rtol=0.0, atol=1e-6)
    assert time.perf_counter() - start < 30.0


def test_10_first_order_regret_is_horizon_free_and_certifies_welfare():
    d = 4
    one_good = np.array([0.0, 1.0, 1.0, 1.0])

    def first_order_regret(cost_row, T):
        learner = FirstOrderHedge(d)
        total = 0.0
        for _ in range(T):
            w = learner.play()
            learner.observe(cost_row)
            total += float(w @ cost_row)
        return total - T * float(cost_row.min())

    r_zero = {T: first_order_regret(np.zeros(d), T) for T in (1000, 10_000)}
    r_good = {T: first_order_regret(one_good, T) for T in (1000, 10_000)}
    assert r_zero[1000] == 0.0 and r_zero[10_000] == 0.0
    assert abs(r_good[10_000] - r_good[1000]) <= TOL  # horizon-free

    constants = fit_first_order_constants(
        [(d, 0.0, r_good[1000]), (d, 0.0, r_zero[1000])])
    assert constants.A1 >= 0.0 and constants.A2 >= 0.0
    assert r_good[10_000] <= constants.A2 * math.log(d) + TOL
    assert r_zero[10_000] <= constants.A2 * math.log(d) + TOL

    game = make_random_game(2, [3, 3], seed=403)
    smooth = verify_smoothness(game, 1.0, 0.5, (2, 1), mode="cost")
    assert smooth.verified and 0.0 < smooth.mu < 1.0
    tr = run(game, [LearnerSpec("first_order_hedge")] * 2, 500, "cost")
    observations = []
    for i in range(2):
        costs = 1.0 - tr.utilities[i]
        observations.append((3, float(costs.sum(axis=0).min()), regret(tr, i)))
    cert = certify_cost_welfare(tr, smooth, fit_first_order_constants(observations))
    assert cert.name == "cost_welfare"
    assert cert.passed is True, (cert.lhs, cert.rhs)


def test_11_shipped_configs_reproduce_bitwise(tmp_path):
    for name in ("auction_fig1.cfg", "cost_congestion.cfg",
                 "matrix_smooth.cfg", "routing.cfg"):
        manifests = []
        for arm in ("one", "two"):
            spec = load_config(name)
            out = str(tmp_path / name.replace(".", "_") / arm)
            manifests.append(run_experiment(spec, out_dir=out))
        m1, m2 = manifests
        assert m1["exit_code"] == 0, name
        assert m2["exit_code"] == 0, name
        trace_keys = sorted(k for k in m1["artifacts"] if k.startswith("trace"))
        assert trace_keys, name
        assert trace_keys == sorted(k for k in m2["artifacts"]
                                    if k.startswith("trace"))
        for key in trace_keys:
            with open(m1["artifacts"][key], "rb") as fh:
                first = fh.read()
            with open(m2["artifacts"][key], "rb") as fh:
                second = fh.read()
            assert first and first == second, (name, key)
