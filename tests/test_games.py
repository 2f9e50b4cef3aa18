"""Normal-form game oracles: expected utilities, welfare, brute-force optimum,
smoothness certificates, PoA floor, CSV round trip, enumeration cap.

Frozen numbers below come from the plain-loop enumeration oracles in
``oracles.py``, run before the library was tested against them.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

import oracles as orc
from regretlab import games
from test_auctions import all_players, assert_same_bits
from regretlab import (
    AuctionGame,
    AuctionSpec,
    DenseGame,
    EnumerationCapError,
    UtilityRangeError,
    brute_force_opt,
    load_dense_csv,
    make_matrix_game,
    make_random_game,
    poa_welfare_bound,
    uniform_values,
    verify_smoothness,
)

UNIFORM3 = [np.full(3, 1.0 / 3.0)] * 3


def pennies():
    # row scores on a match, column scores on a mismatch
    return make_matrix_game([[1.0, 0.0], [0.0, 1.0]])


class TestExpectedUtilities:
    def test_pennies_uniform_column(self):
        g = pennies()
        u = g.expected_utilities(0, [np.array([1.0, 0.0]), np.array([0.5, 0.5])])
        np.testing.assert_allclose(u, [0.5, 0.5], atol=1e-15)

    def test_escaping_the_unit_range_is_a_value_error(self):
        g = pennies()
        with pytest.raises(UtilityRangeError, match=r"player 0: .*escape \[0, 1\]"):
            g.expected_utilities(0, [np.array([0.5, 0.5]), np.array([1.0 + 5e-10, 0.0])])
        assert issubclass(UtilityRangeError, ValueError)

    def test_pennies_degenerate_column(self):
        g = pennies()
        u = g.expected_utilities(0, [np.array([0.5, 0.5]), np.array([1.0, 0.0])])
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)

    def test_three_player_matches_enumeration(self):
        g = make_random_game(3, [3, 3, 3], seed=11)
        tensors = g.utility_tensors()
        for i in range(3):
            oracle = orc.enum_expected_utilities(tensors, i, UNIFORM3)
            np.testing.assert_allclose(
                g.raw_expected_utilities(i, UNIFORM3), oracle, atol=1e-12
            )

    def test_frozen_three_player_values(self):
        # frozen from enum_expected_utilities on the seed-11 game
        g = make_random_game(3, [3, 3, 3], seed=11)
        np.testing.assert_allclose(
            g.raw_expected_utilities(0, UNIFORM3),
            [0.4065960707534623, 0.6640424675264582, 0.6842577582127416],
            atol=1e-12,
        )

    def test_normalized_range(self):
        g = make_random_game(2, [4, 4], seed=5)
        vals = orc.splitmix64_reference(99, 8)
        prof = []
        for k in range(2):
            x = np.array([(v >> 11) / float(1 << 53) for v in vals[4 * k : 4 * k + 4]])
            prof.append(x / x.sum())
        u = g.expected_utilities(0, prof)
        assert u.min() >= -1e-12 and u.max() <= 1.0 + 1e-12

    def test_linear_in_opponent_strategy(self):
        g = make_random_game(2, [3, 3], seed=13)
        a = np.array([0.2, 0.3, 0.5])
        b = np.array([0.6, 0.1, 0.3])
        me = np.full(3, 1.0 / 3.0)
        for lam in (0.0, 0.25, 0.7, 1.0):
            mix = lam * a + (1.0 - lam) * b
            direct = g.expected_utilities(0, [me, mix])
            combo = lam * g.expected_utilities(0, [me, a]) + (1.0 - lam) * g.expected_utilities(0, [me, b])
            np.testing.assert_allclose(direct, combo, atol=1e-12)

    def test_dimension_mismatch_names_player(self):
        g = pennies()
        with pytest.raises(ValueError, match="player 1"):
            g.expected_utilities(0, [np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0])])

    @pytest.mark.parametrize("i, profile, message", [
        (5, [np.array([1.0, 0.0]), np.array([0.5, 0.5])], "player index 5 out of range for n=2"),
        (0, [np.array([1.0, 0.0])], "profile has 1 strategies, game has 2 players"),
    ], ids=["player-past-n", "short-profile"])
    def test_bad_player_index_or_profile_length(self, i, profile, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            pennies().expected_utilities(i, profile)


class TestWelfare:
    def test_constant_half_game(self):
        g = DenseGame([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        assert g.welfare_mixed([np.full(2, 0.5)] * 2) == pytest.approx(1.0, abs=1e-15)

    def test_pure_profile_point_mass(self):
        g = make_random_game(2, [3, 3], seed=17)
        point = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        assert g.welfare_mixed(point) == pytest.approx(g.welfare_tensor()[1, 2], abs=1e-12)

    def test_random_2x2_matches_enumeration(self):
        g = make_random_game(2, [2, 2], seed=23)
        prof = [np.array([0.3, 0.7]), np.array([0.9, 0.1])]
        oracle = orc.enum_welfare(g.utility_tensors(), prof)
        assert g.welfare_mixed(prof) == pytest.approx(oracle, abs=1e-12)

    def test_frozen_three_player_welfare(self):
        g = make_random_game(3, [3, 3, 3], seed=11)
        assert g.welfare_mixed(UNIFORM3) == pytest.approx(1.7184016151964763, abs=1e-12)


def stacked_profile(dims, lead, seed):
    """Strategies of shape lead + (d_j,): seeded rows on each simplex."""
    rng = np.random.default_rng(seed)
    return [rng.dirichlet(np.ones(d), size=lead) for d in dims]


def row(profile, idx):
    return [w[idx] for w in profile]


class TestLeadingAxis:
    CASES = [(1, [4]), (2, [3, 2]), (2, [5, 4]), (3, [3, 2, 4]), (4, [2, 3, 2, 3])]

    @pytest.mark.parametrize("n, dims", CASES)
    def test_every_row_matches_enumeration(self, n, dims):
        g = make_random_game(n, dims, seed=31 + n)
        tensors = g.utility_tensors()
        prof = stacked_profile(dims, (6,), seed=n)
        welfare = g.welfare_mixed(prof)
        assert welfare.shape == (6,)
        for i in range(n):
            u = g.raw_expected_utilities(i, prof)
            assert u.shape == (6, dims[i])
            for t in range(6):
                np.testing.assert_allclose(
                    u[t], orc.enum_expected_utilities(tensors, i, row(prof, t)), atol=1e-12)
        for t in range(6):
            assert welfare[t] == pytest.approx(orc.enum_welfare(tensors, row(prof, t)),
                                               abs=1e-12)

    @pytest.mark.parametrize("n, dims", CASES)
    def test_equals_stacked_single_calls_bitwise(self, n, dims):
        g = make_random_game(n, dims, seed=41 + n)
        prof = stacked_profile(dims, (2, 3), seed=10 + n)
        singles = [[row(prof, (a, b)) for b in range(3)] for a in range(2)]
        for i in range(n):
            np.testing.assert_array_equal(
                g.expected_utilities(i, prof),
                [[g.expected_utilities(i, p) for p in r] for r in singles])
        np.testing.assert_array_equal(
            g.welfare_mixed(prof), [[g.welfare_mixed(p) for p in r] for r in singles])

    def test_single_profile_welfare_is_a_float(self):
        g = make_random_game(3, [2, 2, 2], seed=5)
        assert type(g.welfare_mixed(stacked_profile([2, 2, 2], (), seed=1))) is float

    def test_welfare_along_several_chunks_equals_single_calls_bitwise(self):
        g = make_random_game(4, [5, 5, 5, 5], seed=7)
        # 394 rows: a long axis (once three chunks and one row of a welfare contraction)
        prof = stacked_profile([5, 5, 5, 5], (394,), seed=3)
        np.testing.assert_array_equal(g.welfare_mixed(prof),
                                      [g.welfare_mixed(row(prof, t)) for t in range(len(prof[0]))])

    @pytest.mark.parametrize("lead", [(0,), (2, 0)])
    def test_welfare_along_an_empty_leading_shape_is_empty(self, lead):
        g = make_random_game(3, [2, 3, 2], seed=5)
        assert g.welfare_mixed(stacked_profile([2, 3, 2], lead, seed=1)).shape == lead

    @pytest.mark.parametrize("lead", [(0,), (2, 0)])
    @pytest.mark.parametrize("game", [
        lambda: make_random_game(1, [3], seed=5),
        lambda: make_random_game(2, [2, 2], seed=1),
        lambda: make_random_game(3, [2, 3, 2], seed=5),
        lambda: make_random_game(4, [2, 3, 2, 2], seed=5),
        lambda: AuctionGame(AuctionSpec(3, 2, [[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]], [1.0, 2.0])),
    ], ids=["dense-n1", "dense-n2", "dense-n3-kron", "dense-n4-kron", "auction"])
    def test_utilities_along_an_empty_leading_shape_are_empty(self, game, lead):
        g = game()
        prof = [np.empty(lead + (d,)) for d in g.dims]
        for i in range(g.n):
            assert g.expected_utilities(i, prof).shape == lead + (g.dims[i],)
        assert [u.shape for u in all_players(g, prof)] == [
            lead + (d,) for d in g.dims]

    def test_lone_player_utilities_broadcast_to_the_leading_shape(self):
        g = make_random_game(1, [3], seed=6)
        u = g.expected_utilities(0, stacked_profile([3], (4,), seed=2))
        np.testing.assert_array_equal(u, np.tile(g.normalize(g.tensors[0]), (4, 1)))

    def test_mismatched_leading_shapes_name_the_player(self):
        g = make_random_game(3, [2, 2, 2], seed=7)
        prof = stacked_profile([2, 2, 2], (5,), seed=3)
        prof[2] = prof[2][:4]
        with pytest.raises(ValueError, match=r"player 2: strategy has shape \(4, 2\), "
                                             r"expected \(5, 2\)"):
            g.expected_utilities(0, prof)
        with pytest.raises(ValueError, match="player 2"):
            g.welfare_mixed(prof)

    def test_an_off_simplex_row_names_the_player(self):
        g = make_random_game(2, [3, 2], seed=8)
        prof = stacked_profile([3, 2], (5,), seed=4)
        prof[1][3] = [0.7, 0.4]
        with pytest.raises(ValueError, match="player 1: strategy is not on the simplex"):
            g.expected_utilities(0, prof)
        with pytest.raises(ValueError, match="player 1: strategy is not on the simplex"):
            g.welfare_mixed(prof)
        g.expected_utilities(1, prof)  # a player's own entry gives only the shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "leading"])
    @pytest.mark.parametrize("game", ["dense", "auction"])
    def test_a_non_finite_entry_names_the_player(self, game, lead, bad):
        if game == "dense":
            g = make_random_game(2, [3, 2], seed=8)
        else:
            g = AuctionGame(AuctionSpec(2, 1, [[1.0], [1.0]], [0.5, 1.0, 1.5]))
        prof = stacked_profile(list(g.dims), lead, seed=4)
        prof[1][..., 0] = bad
        with pytest.raises(ValueError, match="^player 1: strategy is not on the simplex$"):
            g.expected_utilities(0, prof)
        with pytest.raises(ValueError, match="^player 1: strategy is not on the simplex$"):
            g.welfare_mixed(prof)


class TestDenseAllPlayersOracle:
    """``DenseGame._all_normalized_utilities``: every player's M_i K_i, with
    K_i the leave-one-out Kronecker product of the other strategies, for
    every n."""

    CASES = [(1, [4]), (2, [3, 3]), (2, [2, 5]), (3, [3, 3, 3]), (3, [2, 3, 4]),
             (4, [2, 2, 2, 2]), (4, [3, 1, 2, 2])]

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "leading"])
    @pytest.mark.parametrize("n, dims", CASES)
    def test_matches_the_enumeration_oracle(self, n, dims, lead):
        base = make_random_game(n, dims, seed=50 + sum(dims))
        # raw range [-1, 2]: the normalization is not the identity
        g = DenseGame([3.0 * t - 1.0 for t in base.tensors], scale=3.0, shift=-1.0)
        prof = stacked_profile(dims, lead, seed=n + len(lead))
        u = all_players(g, prof)
        assert len(u) == n
        for i in range(n):
            assert u[i].shape == lead + (dims[i],)
            for idx in np.ndindex(*lead):
                oracle = orc.enum_expected_utilities(g.tensors, i, row(prof, idx))
                np.testing.assert_allclose(u[i][idx], g.normalize(oracle), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=["single", "leading", "2d"])
    @pytest.mark.parametrize("n, dims", CASES + [(5, [2, 3, 2, 1, 2])])
    def test_every_player_count_keeps_the_per_player_bits(self, n, dims, lead):
        g = make_random_game(n, dims, seed=61)
        prof = stacked_profile(dims, lead, seed=62)
        u = all_players(g, prof)
        for i in range(n):
            assert_same_bits(u[i], g.expected_utilities(i, prof))

    @pytest.mark.parametrize("n, dims", CASES + [(5, [2, 3, 2, 1, 2])])
    def test_every_row_keeps_its_single_profile_bits(self, n, dims, monkeypatch):
        # 64 entries per Kronecker chunk: 150 rows cross a chunk for every n
        monkeypatch.setattr(games, "_KRON_ENTRIES", 64)
        g = make_random_game(n, dims, seed=67)
        assert g._kron_rows < 150
        prof = stacked_profile(dims, (150,), seed=68)
        u = all_players(g, prof)
        for r in range(150):
            for i, v in enumerate(all_players(g, row(prof, r))):
                assert_same_bits(u[i][r], v)

    def test_an_off_simplex_profile_names_the_first_escaping_player(self):
        # payoffs and strategies in quarters: every utility is exact
        g = DenseGame([np.fromfunction(lambda a, b, c, i=i: (a + 2 * b + 3 * c + i) % 5 / 4.0,
                                       (2, 2, 2)) for i in range(3)])
        prof = [np.array([2.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        # players 1 and 2 escape; the message is the per-player loop's
        message = "player 1: normalized utilities escape [0, 1]: [0.5, 1.5]"
        with pytest.raises(UtilityRangeError, match="^" + re.escape(message) + "$"):
            g._all_normalized_utilities(prof)
        g.expected_utilities(0, prof)  # player 0's own entry gives only the shape
        # expected_utilities past its profile check, which player 0's entry fails
        with pytest.raises(UtilityRangeError, match="^" + re.escape(message) + "$"):
            g._check_range(1, g.normalize(g.raw_expected_utilities(1, prof)))

    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (3.0, -1.0)],
                             ids=["identity", "affine"])
    @pytest.mark.parametrize("dims", [[1], [5], [1, 4], [3, 1], [2, 5], [3, 1, 4],
                                      [2, 3, 2, 1], [2, 1, 3, 2, 2], [1, 1, 1, 1, 1]])
    def test_a_single_profile_matches_the_enumeration_oracle(self, dims, scale, shift):
        n = len(dims)
        base = make_random_game(n, dims, seed=70 + sum(dims))
        g = DenseGame([scale * t + shift for t in base.tensors], scale=scale, shift=shift)
        prof = stacked_profile(dims, (), seed=71 + n)
        u = all_players(g, prof)
        for i in range(n):
            oracle = g.normalize(orc.enum_expected_utilities(g.tensors, i, prof))
            np.testing.assert_allclose(u[i], oracle, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g.expected_utilities(i, prof), oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shift, bits", [(-0.0, 0.0), (0.0, -0.0)],
                             ids=["negative-zero-shift", "identity"])
    def test_a_negative_zero_shift_still_normalizes(self, shift, bits):
        class RawNegativeZero(DenseGame):
            def _raw_block(self, profile):
                block, u = super()._raw_block(profile)
                block[0] = -0.0
                return block, u

        g = RawNegativeZero([np.zeros((2, 2)), np.zeros((2, 2))], shift=shift)
        block = g._all_normalized_utilities([np.array([0.5, 0.5])] * 2)
        # -0.0 - (-0.0) is +0.0; only a +0.0 shift and a unit scale keep -0.0
        assert_same_bits(block[:1], np.array([bits]))

    def test_a_long_leading_axis_is_taken_in_chunks_of_rows(self):
        dims = [3, 2, 4, 2]
        g = make_random_game(4, dims, seed=63)
        prof = stacked_profile(dims, (7,), seed=64)
        whole = all_players(g, prof)
        g._kron_rows = 3  # 7 rows: chunks of 3, 3 and 1
        for u, v in zip(all_players(g, prof), whole):
            np.testing.assert_allclose(u, v, rtol=0, atol=1e-15)


class TestDenseWelfare:
    """The trace derivation's welfare, ``DenseGame._utilities_and_welfare``:
    sum_i <w_i, raw u_i> read off the raw block of every player's utilities."""

    CASES = [(1, [4]), (2, [3, 3]), (2, [2, 5]), (3, [3, 3, 3]), (3, [2, 3, 4]),
             (4, [2, 2, 2, 2]), (4, [3, 1, 2, 2])]

    @staticmethod
    def shifted(n, dims):
        base = make_random_game(n, dims, seed=70 + sum(dims))
        # raw range [-1, 2]: the normalization is not the identity
        return base, DenseGame([3.0 * t - 1.0 for t in base.tensors], scale=3.0, shift=-1.0)

    @pytest.mark.parametrize("lead", [(), (5,), (7,)], ids=["single", "leading", "chunks"])
    @pytest.mark.parametrize("n, dims", CASES)
    def test_matches_the_enumeration_oracle(self, n, dims, lead):
        _, g = self.shifted(n, dims)
        if lead == (7,) and n >= 3:
            g._kron_rows = 3  # the Kronecker products in chunks of 3, 3 and 1 rows
        prof = stacked_profile(dims, lead, seed=n + len(lead))
        _, welfare = g._utilities_and_welfare(prof)
        assert np.shape(welfare) == lead
        for idx in np.ndindex(*lead):
            assert welfare[idx] == pytest.approx(orc.enum_welfare(g.tensors, row(prof, idx)),
                                                 abs=1e-12)

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["single", "leading"])
    @pytest.mark.parametrize("n, dims", CASES)
    def test_matches_the_public_welfare(self, n, dims, lead):
        _, g = self.shifted(n, dims)
        prof = stacked_profile(dims, lead, seed=2 * n)
        _, welfare = g._utilities_and_welfare(prof)
        assert_same_bits(welfare, g.welfare_mixed(prof))  # one raw block

    @pytest.mark.parametrize("n, dims", [(2, [3, 2]), (3, [2, 3, 2])])
    def test_the_welfare_is_read_before_the_block_is_normalized(self, n, dims):
        base, g = self.shifted(n, dims)
        prof = stacked_profile(dims, (5,), seed=9)
        u, welfare = g._utilities_and_welfare(prof)
        for i in range(n):
            np.testing.assert_allclose(u[i], g.expected_utilities(i, prof), rtol=0, atol=1e-12)
        # raw = 3 * normalized - 1 for each player, whose strategy sums to 1
        normalized = sum((w * ui).sum(axis=-1) for w, ui in zip(prof, u))
        np.testing.assert_allclose(welfare, 3.0 * normalized - n, rtol=0, atol=1e-12)
        np.testing.assert_allclose(welfare, 3.0 * base.welfare_mixed(prof) - n, rtol=0, atol=1e-12)


class TestBruteForceOpt:
    def test_constant_half(self):
        g = DenseGame([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        opt, arg = brute_force_opt(g)
        assert opt == pytest.approx(1.0, abs=1e-15)
        assert arg == (0, 0)  # lexicographically first among ties

    def test_random_three_player_matches_enumeration(self):
        g = make_random_game(3, [3, 3, 3], seed=11)
        opt, arg = brute_force_opt(g)
        assert opt == pytest.approx(2.540625568804879, abs=1e-12)  # frozen from enum_opt
        assert arg == (1, 2, 2)

    def test_cap_refusal(self):
        # 4 bidders x 80 strategies: 80^4 = 40,960,000 profiles, refused before
        # any tensor is built
        g = AuctionGame(AuctionSpec(4, 4, uniform_values(4, 4, 20.0),
                                    [float(b) for b in range(1, 21)]))
        with pytest.raises(EnumerationCapError, match="^an auction's utility tensors span 40960000 pure profiles, above"):
            brute_force_opt(g)


class TestVerifySmoothness:
    def test_constant_game_slack_zero(self):
        g = DenseGame([np.full((2, 2), 0.5), np.full((2, 2), 0.5)])
        cert = verify_smoothness(g, 1.0, 0.0, (0, 0))
        assert cert.verified
        assert cert.slack == pytest.approx(0.0, abs=1e-12)

    def test_lambda_ten_refuted(self):
        g = make_random_game(2, [2, 2], seed=3)
        cert = verify_smoothness(g, 10.0, 0.0, (0, 0))
        assert not cert.verified
        # frozen from enum_smoothness_slack
        assert cert.slack == pytest.approx(-13.116562092567197, abs=1e-12)
        assert tuple(cert.worst_profile) == (1, 0)
        assert cert.opt == pytest.approx(1.3365158293205501, abs=1e-12)

    def test_slack_matches_enumeration_on_random_games(self):
        for seed in (41, 42, 43):
            g = make_random_game(2, [3, 3], seed=seed)
            cert = verify_smoothness(g, 0.8, 0.3, (1, 2))
            slack, worst, opt = orc.enum_smoothness_slack(g.utility_tensors(), 0.8, 0.3, (1, 2))
            assert cert.slack == pytest.approx(slack, abs=1e-12)
            assert cert.opt == pytest.approx(opt, abs=1e-12)
            assert cert.verified == (slack >= -1e-9)

    def test_invalid_parameters(self):
        g = pennies()
        with pytest.raises(ValueError):
            verify_smoothness(g, 0.0, 0.0, (0, 0))
        with pytest.raises(ValueError):
            verify_smoothness(g, 1.0, -0.1, (0, 0))

    def test_search_finds_identity_profile(self):
        # for the identity matrix game, s* = (0, 0) gives deviation welfare
        # >= 1 = Opt at every s (one of the two deviators always matches)
        g = pennies()
        cert = verify_smoothness(g, 1.0, 1.0)
        assert cert.verified
        slack, _, _ = orc.enum_smoothness_slack(g.utility_tensors(), 1.0, 1.0, tuple(cert.s_star))
        assert slack >= -1e-9

    @pytest.mark.parametrize("mode, lam, mu", [
        ("utility", 1e308, 0.0),  # lambda * Opt = 2e308
        ("utility", 1.0, 1e308),  # mu * W = 2e308
        ("cost", 0.5e308, 0.9e308),  # each term finite, the slack 2.8e308
    ])
    def test_a_claim_that_overflows_a_float_is_refused_without_a_warning(self, mode, lam, mu):
        g = DenseGame([np.ones((2, 2)), np.ones((2, 2))])  # W = Opt = 2 at every profile
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"smoothness ({lam}, {mu}) overflows a float on this game")):
                verify_smoothness(g, lam, mu, (0, 0), mode=mode)

    @pytest.mark.parametrize("mode", ["utility", "cost"])
    def test_the_slack_keeps_the_bits_of_the_per_candidate_formula(self, mode):
        # lambda * Opt and mu * W are taken once, not per candidate: same bits
        for seed in (1, 2, 3):
            g = make_random_game(3, [3, 2, 4], seed=seed)
            t, w = g.utility_tensors(), g.welfare_tensor()
            opt = brute_force_opt(g, mode)[0]
            dev = sum(np.expand_dims(np.take(t[i], (2, 1, 3)[i], axis=i), axis=i)
                      for i in range(3))
            slack = (dev + (w - sum(t)) - 0.7 * opt + 0.3 * w if mode == "utility"
                     else 0.7 * opt + 0.3 * w - dev)
            cert = verify_smoothness(g, 0.7, 0.3, (2, 1, 3), mode=mode)
            assert_same_bits(cert.slack, slack.min())


class TestSmoothnessScan:
    """One scan serves both modes: a search certificate is the check at its
    own s_star, and a refuted search names the candidate with the largest
    slack."""

    @pytest.mark.parametrize("mode", ["utility", "cost"])
    @pytest.mark.parametrize("n, d", [(2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("lam, mu", [(0.3, 0.5), (1.0, 0.5), (5.0, 0.0)])
    def test_search_equals_the_check_at_its_own_s_star(self, mode, n, d, lam, mu):
        for seed in (1, 2, 3):
            g = make_random_game(n, [d] * n, seed=seed)
            found = verify_smoothness(g, lam, mu, mode=mode)
            again = verify_smoothness(g, lam, mu, found.s_star, mode=mode)
            assert found == again  # every field, floats included

    @pytest.mark.parametrize("mode, oracle, lam, mu", [
        ("utility", orc.enum_smoothness_slack, 5.0, 0.1),
        ("cost", orc.enum_cost_smoothness_slack, 0.2, 0.1),
    ])
    @pytest.mark.parametrize("n, d", [(2, 3), (3, 2)])
    def test_refuted_search_names_the_max_slack_candidate(self, mode, oracle, lam, mu, n, d):
        for seed in (4, 5):
            g = make_random_game(n, [d] * n, seed=seed)
            cert = verify_smoothness(g, lam, mu, mode=mode)
            assert cert.verified is False
            slacks = {s: oracle(g.tensors, lam, mu, s)
                      for s in itertools.product(*(range(k) for k in g.dims))}
            best = max(v[0] for v in slacks.values())
            first = next(s for s, v in slacks.items() if v[0] >= best - 1e-12)
            assert cert.s_star == first
            assert cert.slack == pytest.approx(best, abs=1e-12)
            assert cert.worst_profile == slacks[first][1]
            assert cert.opt == pytest.approx(slacks[first][2], abs=1e-12)

    @pytest.mark.parametrize("mode", ["utility", "cost"])
    @pytest.mark.parametrize("s_star", [(0, 5), (0, 1, 1), (-1, 0)])
    def test_s_star_must_be_a_pure_profile(self, mode, s_star):
        with pytest.raises(ValueError, match="is not a pure profile"):
            verify_smoothness(make_random_game(2, [3, 3], seed=1), 1.0, 0.5, s_star,
                              mode=mode)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown mode 'welfare'"):
            verify_smoothness(pennies(), 1.0, 1.0, mode="welfare")


class TestPoaWelfareBound:
    def test_formula(self):
        lam = 1.0 - 1.0 / math.e
        assert poa_welfare_bound(lam, 0.0, 80.0, [0.2, 0.2], 1) == pytest.approx(
            lam * 80.0 - 0.4, abs=1e-9
        )

    def test_zero_regret(self):
        assert poa_welfare_bound(0.5, 0.25, 10.0, [0.0], 7) == pytest.approx(
            0.5 / 1.25 * 10.0, abs=1e-15
        )

    def test_unit_case(self):
        assert poa_welfare_bound(1.0, 1.0, 2.0, [5.0], 5) == pytest.approx(0.5, abs=1e-15)


class TestDenseCsv:
    def test_round_trip(self):
        g = make_random_game(3, [2, 3, 2], seed=29)
        back = load_dense_csv(orc.dense_csv_text(g.tensors, g.scale, g.shift))
        for a, b in zip(g.utility_tensors(), back.utility_tensors()):
            np.testing.assert_allclose(a, b, atol=0)
        assert back.describe()["dims"] == [2, 3, 2]

    def test_bad_header(self):
        with pytest.raises(ValueError):
            load_dense_csv("2,2\n0,0,0.5,0.5\n")

    def test_missing_profile(self):
        text = "2,2,2\n0,0,0.5,0.5\n0,1,0.5,0.5\n1,0,0.5,0.5\n"
        with pytest.raises(ValueError):
            load_dense_csv(text)

    @pytest.mark.parametrize("text, message", [
        ("2,2,2\n5,0,0.5,0.5\n", "line 2: profile [5, 0] lies outside the dims [2, 2]"),
        ("2,2,2\n0,0,0.5,0.5\n-1,-1,0.5,0.5\n",
         "line 3: profile [-1, -1] lies outside the dims [2, 2]"),
        ("2,2,2\n0,0,0.5,0.5\n0,1,0.5,0.5\n\n0,0,0.1,0.1\n",
         "line 5: profile [0, 0] appears twice"),
        ("0\n", "line 1: header gives n=0 and counts []"),
        ("1,0\n", "line 1: header gives n=1 and counts [0]"),
        ("2,2,2\n0,x,0.5,0.5\n", "line 2: strategy index 'x' is not an integer"),
        ("a,b\n", "line 1: header count 'a' is not an integer"),
        ("2,2,2\n0,0,0.5,0.5\n\n0,1,0.5,zz\n", "line 4: utility 'zz' is not a number"),
        ("2,2,2\n0,0,0.5,nan\n", "line 2: utility 'nan' is not a number in [0, 1]"),
        ("2,2,2\n0,0,0.5,0.5\n0,1,inf,0.5\n", "line 3: utility 'inf' is not a number in [0, 1]"),
        ("2,2,2\n0,0,1.5,0.5\n", "line 2: utility '1.5' is not a number in [0, 1]"),
        ("2,2,2\n0,0,0.5,-0.1\n", "line 2: utility '-0.1' is not a number in [0, 1]"),
    ], ids=["index-past-dims", "negative-index", "duplicate-profile", "no-players",
            "no-strategies", "non-integer-index", "non-integer-header", "non-numeric-utility",
            "nan-utility", "infinite-utility", "utility-above-one", "negative-utility"])
    def test_bad_rows_are_rejected_by_line(self, text, message):
        with pytest.raises(ValueError) as excinfo:
            load_dense_csv(text)
        assert str(excinfo.value).startswith("dense-game " + message)


class TestProductDistributionCoupling:
    def test_total_variation_bound(self):
        # TV of product distributions <= half the sum of per-player l1 gaps
        vals = orc.splitmix64_reference(77, 3 * 4 * 2 * 20)
        floats = [(v >> 11) / float(1 << 53) for v in vals]
        idx = 0
        for _ in range(20):
            ps, qs = [], []
            for _ in range(3):
                p = np.array(floats[idx : idx + 4]) + 1e-9
                q = np.array(floats[idx + 4 : idx + 8]) + 1e-9
                idx += 8
                ps.append(p / p.sum())
                qs.append(q / q.sum())
            P = np.einsum("i,j,k->ijk", *ps)
            Q = np.einsum("i,j,k->ijk", *qs)
            tv = 0.5 * np.abs(P - Q).sum()
            bound = 0.5 * sum(np.abs(p - q).sum() for p, q in zip(ps, qs))
            assert tv <= bound + 1e-12
