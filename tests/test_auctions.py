"""First-price auction game: fast win-probability oracle vs. brute force,
the all-players oracle vs. per-bidder products, tie rule, optimum by
enumeration, normalization, masked values."""

import itertools

import numpy as np
import pytest

import oracles as orc
from regretlab import AuctionSpec, brute_force_opt, masked_values, uniform_values
from regretlab.auctions import AuctionGame
from regretlab.dynamics import run
from regretlab.games import UtilityRangeError
from regretlab.learners import LearnerSpec


def simple(n=2, m=1, v=3.0, levels=(1.0, 2.0)):
    return AuctionGame(AuctionSpec(n, m, uniform_values(n, m, v), list(levels)))


def random_profile(dims, seed):
    vals = orc.splitmix64_reference(seed, sum(dims))
    floats = [(v >> 11) / float(1 << 53) for v in vals]
    prof, at = [], 0
    for d in dims:
        x = np.array(floats[at : at + d]) + 1e-9
        at += d
        prof.append(x / x.sum())
    return prof


class TestResolution:
    def test_uncontested(self):
        g = simple(n=1, m=1, v=20.0, levels=(1.0,))
        assert g.utility_tensors()[0][0] == pytest.approx(19.0, abs=0)
        assert g.welfare_tensor()[0] == pytest.approx(20.0, abs=0)
        assert brute_force_opt(g)[0] == pytest.approx(20.0, abs=0)

    def test_tie_goes_to_lowest_index(self):
        g = simple()
        # both bid level 2 (index 1) on the single item
        u0, u1 = g.utility_tensors()
        assert u0[1, 1] == pytest.approx(1.0, abs=0)
        assert u1[1, 1] == pytest.approx(0.0, abs=0)

    def test_item_major_layout(self):
        # a lone bidder always wins, so its tensor is value - bid by strategy
        # index = item * len(levels) + bid index
        g = AuctionGame(AuctionSpec(1, 2, np.array([[10.0, 20.0]]), [1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(g.utility_tensors()[0], [9.0, 8.0, 7.0, 19.0, 18.0, 17.0])
        np.testing.assert_array_equal(g.welfare_tensor(), [10.0] * 3 + [20.0] * 3)


class TestFastOracle:
    def test_frozen_two_player_example(self):
        # v = 3, levels {1, 2}, opponent uniform: bidding 2 always wins
        # (ties lose for the higher index), so utility is 3 - 2 = 1 raw;
        # bidding 1 wins half the time at payoff 2, also 1.0 in expectation.
        g = simple()
        u = g.raw_expected_utilities(0, [np.full(2, 0.5), np.full(2, 0.5)])
        np.testing.assert_allclose(u, [1.0, 1.0], atol=1e-15)

    def test_higher_index_loses_ties(self):
        g = simple()
        u = g.raw_expected_utilities(1, [np.array([0.0, 1.0]), np.full(2, 0.5)])
        # opponent (index 0) always bids 2: player 1 can never win
        np.testing.assert_allclose(u, [0.0, 0.0], atol=1e-15)

    def test_unopposed_item(self):
        g = simple(n=2, m=2, v=5.0, levels=(1.0, 2.0))
        # opponent always on item 0: every bid on item 1 wins outright
        opp = np.array([0.5, 0.5, 0.0, 0.0])
        u = g.raw_expected_utilities(0, [np.zeros(4), opp])
        np.testing.assert_allclose(u[2:], [4.0, 3.0], atol=1e-15)

    def test_frozen_three_player_values(self):
        # frozen from the plain-loop auction enumeration oracle
        vals3 = [[4.0, 2.0], [3.0, 5.0], [2.0, 2.0]]
        g = AuctionGame(AuctionSpec(3, 2, np.array(vals3), [1.0, 2.0, 3.0]))
        rng = np.random.default_rng(7)
        prof = []
        for _ in range(3):
            x = rng.random(6)
            prof.append(x / x.sum())
        expected = [
            0.55414114173781814, 0.46959164336208092, 0.0,
            1.2326165806906231, 1.5898613680307223, 1.5274157938976638,
        ]
        np.testing.assert_allclose(g.raw_expected_utilities(1, prof), expected, atol=1e-12)
        oracle = orc.auction_expected_utilities(vals3, 2, [1.0, 2.0, 3.0], 1, prof)
        np.testing.assert_allclose(oracle, expected, atol=1e-12)

    def test_matches_loop_oracle_small_sweep(self):
        for n, m, nb, seed in [(2, 1, 2, 101), (2, 2, 2, 102), (3, 1, 3, 103), (3, 2, 2, 104)]:
            vals = np.array(
                [[1.0 + ((i * m + j) % 3) for j in range(m)] for i in range(n)]
            ) + 2.0
            levels = [float(b + 1) for b in range(nb)]
            g = AuctionGame(AuctionSpec(n, m, vals, levels))
            prof = random_profile([m * nb] * n, seed)
            for i in range(n):
                oracle = orc.auction_expected_utilities(vals.tolist(), m, levels, i, prof)
                np.testing.assert_allclose(
                    g.raw_expected_utilities(i, prof), oracle, atol=1e-12
                )

    def test_matches_dense_tensor_oracle(self):
        g = AuctionGame(AuctionSpec(3, 2, np.array([[4.0, 2.0], [3.0, 5.0], [2.0, 2.0]]),
                                     [1.0, 2.0, 3.0]))
        tensors = g.utility_tensors()
        prof = random_profile([6, 6, 6], 105)
        for i in range(3):
            dense = orc.enum_expected_utilities(tensors, i, prof)
            np.testing.assert_allclose(g.raw_expected_utilities(i, prof), dense, atol=1e-12)

    def test_welfare_matches_enumeration(self):
        vals = [[4.0, 2.0], [3.0, 5.0]]
        g = AuctionGame(AuctionSpec(2, 2, np.array(vals), [1.0, 2.0]))
        prof = random_profile([4, 4], 106)
        total = 0.0
        for s in itertools.product(range(4), repeat=2):
            p = prof[0][s[0]] * prof[1][s[1]]
            choices = [(j, g.spec.bid_levels[b]) for j, b in (divmod(x, g.nb) for x in s)]
            _, w = orc.auction_resolve(vals, 2, choices)
            total += p * w
        assert g.welfare_mixed(prof) == pytest.approx(total, abs=1e-12)


class TestLeadingAxis:
    @pytest.mark.parametrize("n, m, nb", [(1, 2, 3), (2, 2, 2), (3, 1, 3), (3, 2, 2)])
    def test_every_row_matches_the_loop_oracle(self, n, m, nb):
        vals = np.array([[2.0 + ((i + 2 * j) % 3) for j in range(m)] for i in range(n)])
        levels = [float(b + 1) for b in range(nb)]
        g = AuctionGame(AuctionSpec(n, m, vals, levels))
        rows = [random_profile([m * nb] * n, 200 + 10 * n + t) for t in range(5)]
        prof = [np.array([r[k] for r in rows]) for k in range(n)]
        welfare = g.welfare_mixed(prof)
        assert welfare.shape == (5,)
        for i in range(n):
            u = g.raw_expected_utilities(i, prof)
            assert u.shape == (5, m * nb)
            for t, r in enumerate(rows):
                np.testing.assert_allclose(
                    u[t], orc.auction_expected_utilities(vals.tolist(), m, levels, i, r),
                    atol=1e-12)
        for t, r in enumerate(rows):
            assert welfare[t] == pytest.approx(
                orc.auction_expected_welfare(vals.tolist(), m, levels, r), abs=1e-12)

    def test_equals_stacked_single_calls_bitwise(self):
        g = AuctionGame(AuctionSpec(3, 2, np.array([[4.0, 2.0], [3.0, 5.0], [2.0, 2.0]]),
                                     [1.0, 2.0, 3.0]))
        rows = [random_profile([6, 6, 6], 300 + t) for t in range(6)]
        prof = [np.array([r[k] for r in rows]).reshape(2, 3, 6) for k in range(3)]
        for i in range(3):
            np.testing.assert_array_equal(
                g.expected_utilities(i, prof).reshape(6, 6),
                [g.expected_utilities(i, r) for r in rows])
        np.testing.assert_array_equal(g.welfare_mixed(prof).ravel(),
                                      [g.welfare_mixed(r) for r in rows])
        assert type(g.welfare_mixed(rows[0])) is float


def per_bidder_win(g, profile, i):
    """Bidder i's win probabilities as its own product over opponents in
    increasing index, one tail-mass cumsum each: the per-bidder computation
    the shared pass must reproduce bit for bit."""
    lead = np.shape(profile[i])[:-1]
    win = np.ones(lead + (g.m, g.nb))
    for k in range(g.n):
        if k == i:
            continue
        at_least = np.cumsum(profile[k].reshape(lead + (g.m, g.nb))[..., ::-1], axis=-1)[..., ::-1]
        if k < i:
            lose = at_least
        else:
            lose = np.zeros_like(at_least)
            lose[..., :-1] = at_least[..., 1:]
        win = win * (1.0 - lose)
    return win


def assert_same_bits(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def all_players(g, prof):
    """Every player's L + (d_i,) view of the all-players oracle's flat block."""
    return g._player_views(g._all_normalized_utilities(prof), prof[0].shape[:-1])


def sparse_profile(dims, lead, seed):
    """Random mixed strategies of shape lead + (d,) with about a third of the
    entries exactly zero."""
    rng = np.random.default_rng(seed)
    prof = []
    for d in dims:
        x = rng.random(lead + (d,))
        x[rng.random(x.shape) < 0.35] = 0.0
        x[..., rng.integers(d)] += 0.25
        prof.append(x / x.sum(axis=-1, keepdims=True))
    return prof


class TestAllPlayersOracle:
    """``_win_probabilities`` shares one pass of tail masses across bidders;
    ``_all_normalized_utilities`` must equal the per-player oracle bitwise
    and the enumeration oracle to 1e-12."""

    FIG1 = AuctionSpec(4, 4, uniform_values(4, 4, 20.0), list(np.arange(1.0, 21.0)))

    @pytest.mark.parametrize("lead", [(), (50,), (2, 3)], ids=["single", "T", "2x3"])
    def test_equals_per_bidder_products_bitwise(self, lead):
        g = AuctionGame(self.FIG1)
        prof = sparse_profile(g.dims, lead, seed=11 + len(lead))
        win = g._win_probabilities(prof)
        u = all_players(g, prof)
        assert len(u) == g.n
        for i in range(g.n):
            ref = per_bidder_win(g, prof, i)
            assert_same_bits(win[i], ref)
            payoff = g.spec.values[i][:, None] - g.spec.bid_levels[None, :]
            raw = (payoff * ref).reshape(lead + (-1,))
            assert_same_bits(u[i], g.normalize(raw))
            assert_same_bits(u[i], g.normalize(g.raw_expected_utilities(i, prof)))
            assert_same_bits(u[i], g.expected_utilities(i, prof))

    @pytest.mark.parametrize("nb", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_enumeration_oracle(self, n, m, nb):
        vals = [[1.5 + ((i + 2 * j) % 3) for j in range(m)] for i in range(n)]
        levels = [float(b + 1) for b in range(nb)]
        g = AuctionGame(AuctionSpec(n, m, np.array(vals), levels))
        d = m * nb
        profiles = {
            "sparse": sparse_profile(g.dims, (), seed=100 * n + 10 * m + nb),
            "uniform": [np.full(d, 1.0 / d)] * n,  # every cell tied with positive mass
            "same_cell": [np.eye(d)[d - 1]] * n,  # everyone bids the top level on one item
        }
        for name, prof in profiles.items():
            u = all_players(g, prof)
            for i in range(n):
                oracle = orc.auction_expected_utilities(vals, m, levels, i, prof)
                np.testing.assert_allclose(u[i], g.normalize(oracle), rtol=0, atol=1e-12,
                                           err_msg=f"{name}, bidder {i}")
            assert g.welfare_mixed(prof) == pytest.approx(
                orc.auction_expected_welfare(vals, m, levels, prof), abs=1e-12), name

    def test_escaping_bidder_is_named(self):
        class Leaky(AuctionGame):
            def _win_probabilities(self, profile):
                win = super()._win_probabilities(profile)
                win[2] += 2.0  # bidder 2 wins more than surely
                return win

        g = Leaky(AuctionSpec(3, 1, uniform_values(3, 1, 3.0), [1.0, 2.0]))
        prof = [np.full(2, 0.5)] * 3
        msg = "^player 2: normalized utilities escape"
        with pytest.raises(UtilityRangeError, match=msg):
            g._all_normalized_utilities(prof)
        with pytest.raises(UtilityRangeError, match=msg):
            run(g, [LearnerSpec("hedge", eta=0.3)] * 3, 5)
        g.expected_utilities(1, prof)  # the others stay in range


class TestGridTensors:
    """``utility_tensors`` and ``welfare_tensor``, built from index grids,
    against ``orc.auction_resolve`` at every pure profile: each utility cell
    bitwise (value - bid in both), the welfare to 1e-12 abs (it sums the
    winners in bidder order, the oracle in item order)."""

    @staticmethod
    def values(kind, n, m, rng):
        if kind == "uniform":  # every bidder values every item alike: ties decide
            return np.full((n, m), 3.0)
        if kind == "masked":
            return masked_values(n, m, 4.0, seed=int(rng.integers(1 << 30)))
        return rng.random((n, m)) * 7.0

    @pytest.mark.parametrize("kind", ["uniform", "masked", "float"])
    @pytest.mark.parametrize("nb", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_cell_matches_the_resolve_oracle(self, n, nb, kind):
        rng = np.random.default_rng(1000 * n + 10 * nb + len(kind))
        m = 2
        vals = self.values(kind, n, m, rng)
        levels = np.sort(rng.choice(np.arange(1, 30) * 0.37, nb, replace=False))
        g = AuctionGame(AuctionSpec(n, m, vals, levels))
        tensors, welfare = g.utility_tensors(), g.welfare_tensor()
        assert [t.shape for t in tensors] == [welfare.shape] * n == [tuple(g.dims)] * n
        strategies = [(j, float(levels[b])) for j in range(m) for b in range(nb)]
        for s in itertools.product(range(m * nb), repeat=n):
            utils, w = orc.auction_resolve(vals.tolist(), m, [strategies[x] for x in s])
            assert_same_bits([t[s] for t in tensors], utils)
            assert welfare[s] == pytest.approx(w, abs=1e-12)

    def test_tensors_are_built_once(self):
        g = simple(n=3, m=2, levels=(1.0, 2.0))
        assert g.utility_tensors() is g.utility_tensors()
        assert g.welfare_tensor() is g.welfare_tensor()


class TestOptimum:
    def test_fig_parameters_opt_80(self):
        # 80^4 profiles exceed the enumeration cap, so the optimum is argued:
        # a bidder wins at most one item, so the sum of each bidder's best
        # value bounds every profile, and bidder i alone on item i reaches it
        g = AuctionGame(AuctionSpec(4, 4, uniform_values(4, 4, 20.0), list(np.arange(1.0, 21.0))))
        bound = float(g.spec.values.max(axis=1).sum())
        assert bound == pytest.approx(80.0, abs=0)
        top = g.nb - 1
        rng = np.random.default_rng(80)
        profiles = [tuple(i * g.nb + top for i in range(4))]
        profiles += [tuple(s) for s in rng.integers(0, g.dims[0], size=(200, 4))]
        # welfare_mixed at one-hot strategies is the welfare of the pure profile
        welfare = [g.welfare_mixed([np.eye(g.dims[0])[x] for x in s]) for s in profiles]
        assert welfare[0] == pytest.approx(bound, abs=0)
        assert max(welfare) <= bound

    def test_matches_brute_force(self):
        for vals, m, levels in [
            ([[4.0, 2.0], [3.0, 5.0], [2.0, 2.0]], 2, [1.0, 2.0]),
            ([[1.0], [5.0], [2.0]], 1, [1.0, 2.0]),
            ([[3.0, 0.0], [0.0, 3.0]], 2, [1.0]),
        ]:
            g = AuctionGame(AuctionSpec(len(vals), m, np.array(vals), levels))
            b_opt, b_prof = brute_force_opt(g)
            o_opt, o_prof = orc.auction_opt(vals, m, levels)
            assert b_opt == pytest.approx(o_opt, abs=1e-12)
            assert g.welfare_tensor()[b_prof] == pytest.approx(b_opt, abs=1e-12)
            assert g.welfare_tensor()[o_prof] == pytest.approx(o_opt, abs=1e-12)

    def test_single_level_crowded_fallback(self):
        # more bidders than items with one bid level: ties go to the lowest
        # index, so the optimum is bidder 0 alone on the item
        vals = [[5.0], [4.0], [3.0]]
        g = AuctionGame(AuctionSpec(3, 1, np.array(vals), [1.0]))
        assert orc.auction_opt(vals, 1, [1.0])[0] == pytest.approx(5.0, abs=0)
        opt, profile = brute_force_opt(g)
        assert opt == pytest.approx(5.0, abs=0)
        assert g.welfare_tensor()[profile] == pytest.approx(opt, abs=0)


class TestNormalization:
    def test_scale_and_shift(self):
        g = simple(v=3.0, levels=(1.0, 2.0))
        desc = g.describe()
        assert desc["scale"] == pytest.approx(5.0, abs=0)  # max value + max bid
        assert desc["shift"] == pytest.approx(-2.0, abs=0)
        np.testing.assert_allclose(g.normalize([-2.0, 0.0, 3.0]), [0.0, 0.4, 1.0], atol=1e-12)

    def test_normalized_in_unit_interval(self):
        g = AuctionGame(AuctionSpec(2, 1, uniform_values(2, 1, 1.0), [1.0, 2.0, 5.0]))
        prof = random_profile([3, 3], 107)
        u = g.expected_utilities(0, prof)
        assert u.min() >= -1e-12 and u.max() <= 1.0 + 1e-12

    def test_overbidding_allowed(self):
        g = AuctionGame(AuctionSpec(1, 1, uniform_values(1, 1, 1.0), [1.0, 5.0]))
        assert g.utility_tensors()[0][1] == pytest.approx(-4.0, abs=0)


class TestValues:
    def test_uniform(self):
        np.testing.assert_allclose(uniform_values(2, 3, 7.0), np.full((2, 3), 7.0), atol=0)

    def test_masked_deterministic_and_binary(self):
        a = masked_values(4, 4, 20.0, seed=9)
        b = masked_values(4, 4, 20.0, seed=9)
        np.testing.assert_allclose(a, b, atol=0)
        assert set(np.unique(a)) <= {0.0, 20.0}
        assert not np.array_equal(a, masked_values(4, 4, 20.0, seed=10))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AuctionSpec(2, 1, uniform_values(2, 1, 3.0), [2.0, 1.0])  # unsorted
        with pytest.raises(ValueError):
            AuctionSpec(2, 1, uniform_values(2, 1, 3.0), [0.0, 1.0])  # nonpositive
        with pytest.raises(ValueError):
            AuctionSpec(2, 1, -uniform_values(2, 1, 3.0), [1.0])  # negative value
        with pytest.raises(ValueError):
            AuctionSpec(2, 2, uniform_values(2, 1, 3.0), [1.0])  # shape
