"""Game library: seeded PRNG streams, matrix games, random (smooth) games,
and the Hedge-versus-best-response lower-bound experiment."""

import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles as orc
import regretlab
from regretlab import (
    build_game,
    lower_bound_experiment,
    make_matrix_game,
    make_random_game,
    make_random_smooth_game,
    splitmix64_floats,
    verify_smoothness,
)
from regretlab.auctions import AuctionGame, AuctionSpec, uniform_values


def top_53_bits(outputs):
    return [(x >> 11) / float(1 << 53) for x in outputs]


class TestSplitmix64:
    def test_published_vectors(self):
        # reference outputs of the published mixing constants
        vectors = {0: [16294208416658607535, 7960286522194355700, 487617019471545679],
                   1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423]}
        for seed, outputs in vectors.items():
            assert orc.splitmix64_reference(seed, 3) == outputs
            assert splitmix64_floats(seed, 3).tolist() == top_53_bits(outputs)

    def test_matches_reference_reimplementation(self):
        # seeds at and past 2^64 wrap as the reference's masked state does
        for seed in (0, 1, 42, 2**63, 2**64 - 1, 2**70 + 5):
            vals = splitmix64_floats(seed, 5000)
            assert vals.dtype == np.float64
            expected = np.array(top_53_bits(orc.splitmix64_reference(seed, 5000)))
            np.testing.assert_array_equal(vals.view(np.int64), expected.view(np.int64))

    def test_floats_in_unit_interval(self):
        vals = splitmix64_floats(7, 1000)
        assert min(vals) >= 0.0 and max(vals) < 1.0
        # top-53-bit conversion: every float is a multiple of 2^-53
        assert all(v * (1 << 53) == int(v * (1 << 53)) for v in vals)


class TestMatrixGame:
    def test_identity_payoffs(self):
        g = make_matrix_game([[1.0, 0.0], [0.0, 1.0]])
        u0, u1 = g.utility_tensors()
        np.testing.assert_allclose([u0[0, 0], u1[0, 0]], [1.0, 0.0], atol=0)
        np.testing.assert_allclose([u0[0, 1], u1[0, 1]], [0.0, 1.0], atol=0)

    def test_zero_sum_embedding(self):
        g = make_matrix_game([[0.3, 0.8], [0.1, 0.5]])
        for s in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert sum(t[s] for t in g.utility_tensors()) == pytest.approx(1.0, abs=1e-15)

    def test_column_vector_game(self):
        g = make_matrix_game([[1.0], [0.0]])
        assert g.describe()["dims"] == [2, 1]

    def test_constant_matrix_zero_regret(self):
        from regretlab import LearnerSpec, regret, run

        g = make_matrix_game([[0.4, 0.4], [0.4, 0.4]])
        trace = run(g, [LearnerSpec("hedge", 0.3)] * 2, T=20)
        assert regret(trace, 0) == pytest.approx(0.0, abs=1e-12)
        assert regret(trace, 1) == pytest.approx(0.0, abs=1e-12)

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            make_matrix_game([[1.5, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            make_matrix_game([[]])


class TestRandomGames:
    def test_deterministic(self):
        a = make_random_game(2, [3, 3], seed=4)
        b = make_random_game(2, [3, 3], seed=4)
        for ta, tb in zip(a.utility_tensors(), b.utility_tensors()):
            np.testing.assert_allclose(ta, tb, atol=0)

    def test_entries_from_stream(self):
        g = make_random_game(2, [2, 2], seed=4)
        expected = splitmix64_floats(4, 8)
        flat = np.concatenate([t.ravel() for t in g.utility_tensors()])
        np.testing.assert_allclose(flat, expected, atol=0)

    def test_smooth_game_certificate(self):
        game, cert = make_random_smooth_game(2, 2, 0.3, 0.5, seed=6)
        assert cert.verified
        slack, _, _ = orc.enum_smoothness_slack(
            game.utility_tensors(), 0.3, 0.5, tuple(cert.s_star)
        )
        assert cert.slack == pytest.approx(slack, abs=1e-12)

    def test_smooth_game_not_found_is_a_value(self):
        # lambda far too large: no deviation profile can verify
        game, cert = make_random_smooth_game(2, 2, 50.0, 0.0, seed=6)
        assert cert.verified is False


class TestAuctionSmoothness:
    AUCTION = AuctionSpec(2, 1, uniform_values(2, 1, 20.0), list(np.arange(1.0, 21.0)))

    def test_two_bidder_single_item_is_smooth(self):
        # the classic first-price bound: the game is (1 - 1/e, 0)-smooth with
        # the seller's revenue on the deviating side (the auctioneer is a
        # strategyless player, so its "deviation" utility is just its revenue
        # at s); the scan finds a witness among the pure bid pairs
        g = AuctionGame(self.AUCTION)
        cert = verify_smoothness(g, 1.0 - 1.0 / math.e, 0.0)
        assert cert.verified
        assert cert.slack >= -1e-9

    def test_both_bid_one_is_not_a_witness(self):
        # s* = both bid 1 fails at s = (bid 1, bid 2): both deviations lose
        # the tie-or-price fight (sum 0), the revenue residual is only 2, and
        # lam*Opt = 20(1 - 1/e) = 12.64, so the slack is 2 - 12.64
        g = AuctionGame(self.AUCTION)
        cert = verify_smoothness(g, 1.0 - 1.0 / math.e, 0.0, (0, 0))
        assert not cert.verified
        assert cert.slack == pytest.approx(2.0 - 20.0 * (1.0 - 1.0 / math.e), abs=1e-12)
        assert tuple(cert.worst_profile) == (0, 1)


class TestLowerBound:
    def test_frozen_realized_values(self):
        r = lower_bound_experiment(1.0, 100)
        assert r.r_game_A == pytest.approx(11.55292893150024, abs=1e-12)
        assert r.r_game_Aprime == pytest.approx(0.9641635157612569, abs=1e-12)
        assert r.closed_form_A == pytest.approx(23.105857863000487, abs=1e-12)
        assert r.closed_form_Aprime_lb == pytest.approx(0.7909883534346632, abs=1e-12)

    def test_closed_forms(self):
        for eta, T in [(0.5, 100), (1.0, 1000), (2.0, 100)]:
            r = lower_bound_experiment(eta, T)
            assert r.closed_form_A == pytest.approx(
                (T / 2.0) * (math.exp(eta) - 1.0) / (math.exp(eta) + 1.0), abs=1e-12
            )
            assert r.closed_form_Aprime_lb == pytest.approx(
                (1.0 - math.exp(-T * eta)) / (2.0 * (1.0 - math.exp(-eta))), abs=1e-12
            )

    def test_realized_matches_closed_form(self):
        # Stated contract: the realized identity-game regret equals
        # (T/2)(e^eta - 1)/(e^eta + 1) to 1e-9.  The dynamics it names cannot
        # produce that number: from the uniform tie the cycle earns 1/2 in odd
        # rounds and 1/(e^eta + 1) in even rounds, so each 2-round cycle loses
        # exactly (e^eta - 1)/(2(e^eta + 1)) - half the displayed rate.  The
        # assertion is kept verbatim (and failing) rather than weakened; the
        # factor-2 analysis lives in the failure message below.
        for eta in (0.5, 1.0, 2.0):
            for T in (100, 1000):
                r = lower_bound_experiment(eta, T)
                assert r.r_game_A == pytest.approx(r.closed_form_A, abs=1e-9), (
                    f"realized {r.r_game_A} is exactly half the closed form "
                    f"{r.closed_form_A} (ratio {r.r_game_A / r.closed_form_A})"
                )

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_eta_must_be_positive_and_finite(self, eta):
        with pytest.raises(ValueError, match=r"^eta must be positive and finite, got "):
            lower_bound_experiment(eta, 10)

    def test_aprime_floor(self):
        for eta in (0.5, 1.0, 2.0):
            for T in (100, 1000):
                r = lower_bound_experiment(eta, T)
                assert r.r_game_Aprime >= r.closed_form_Aprime_lb - 1e-9

    def test_small_eta_aprime_linear(self):
        for T in (100, 1000):
            r = lower_bound_experiment(1.0 / T, T)
            assert r.r_game_Aprime >= T * (1.0 - math.exp(-1.0)) / 2.0 - 1e-9

    def test_sqrt_floor_across_grid(self):
        for T in (100, 1000):
            floor = math.sqrt(T * (1.0 - math.exp(-1.0)) / (math.e + 1.0)) - 1.0
            for eta in (1.0 / T, 0.1, 1.0):
                r = lower_bound_experiment(eta, T)
                assert max(r.r_game_A, r.r_game_Aprime) >= floor - 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lower_bound_experiment(0.0, 100)
        with pytest.raises(ValueError):
            lower_bound_experiment(1.0, 101)  # odd horizon


class TestBuildGame:
    def test_round_trips_through_describe(self):
        games = [
            make_matrix_game([[1.0, 0.0], [0.0, 1.0]]),
            make_random_game(2, [3, 3], seed=8),
            AuctionGame(AuctionSpec(2, 1, uniform_values(2, 1, 3.0), [1.0, 2.0])),
        ]
        prof2 = [np.array([0.25, 0.75]), np.array([0.5, 0.5])]
        for g in games:
            rebuilt = build_game(g.describe())
            d = g.describe()["dims"]
            prof = prof2 if d == [2, 2] else [np.full(k, 1.0 / k) for k in d]
            for i in range(len(d)):
                np.testing.assert_allclose(
                    rebuilt.expected_utilities(i, prof),
                    g.expected_utilities(i, prof),
                    atol=1e-15,
                )

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_game({"kind": "quantum"})


class TestImport:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize is loaded by the few functions that use it, so every
        # CLI call and short script skips its import cost
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(regretlab.__file__)))
        code = "import sys, regretlab; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "False\n"

    def test_cli_never_loads_scipy(self, tmp_path):
        # one process simulates every shipped config and reports every trace
        # it wrote; no step of that path may import scipy
        configs = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
        code = f"""if True:
            import contextlib, glob, io, json, os, sys
            from regretlab.cli import main
            codes = {{}}
            with contextlib.redirect_stdout(io.StringIO()):
                for cfg in sorted(glob.glob(os.path.join({configs!r}, "*.cfg"))):
                    stem = os.path.basename(cfg)[:-len(".cfg")]
                    out = os.path.join({str(tmp_path)!r}, stem)
                    codes[stem] = main(["simulate", cfg, "--out", out])
                    for name in sorted(os.listdir(out)):
                        if name.endswith(".csv") and not name.startswith("report"):
                            codes[stem + "/" + name] = main(["report", os.path.join(out, name)])
            print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
        """
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(regretlab.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        codes, loaded = json.loads(out)
        assert set(codes.values()) == {0}, codes
        stems = {k for k in codes if "/" not in k}
        assert "routing" in stems and "cost_congestion" in stems
        assert {k.split("/")[0] for k in codes if "/" in k} == stems
        assert loaded == []

    @pytest.mark.parametrize("module", ["regretlab"] + [
        f"regretlab.{name[:-3]}"
        for name in sorted(os.listdir(os.path.dirname(regretlab.__file__)))
        if name.endswith(".py") and name != "__init__.py"])
    def test_every_exported_name_resolves_once(self, module):
        mod = importlib.import_module(module)
        names = mod.__all__
        assert len(names) == len(set(names)), module
        assert [n for n in names if not hasattr(mod, n)] == []
