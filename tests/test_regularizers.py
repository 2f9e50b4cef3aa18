"""Regularizer contracts: initial points, argmax/prox closed forms, diameter
constants, and 1-strong-convexity."""

import math
import re

import numpy as np
import pytest

import oracles as orc
from regretlab import NegativeEntropy, SquaredEuclidean, get_regularizer
from regretlab.regularizers import project_simplex
from regretlab.library import splitmix64_floats
from test_auctions import assert_same_bits

ENTROPY = NegativeEntropy()
EUCLID = SquaredEuclidean()


def random_simplex_pairs(d, count, seed):
    vals = splitmix64_floats(seed, 2 * count * d)
    out = []
    for k in range(count):
        u = np.array(vals[2 * k * d : (2 * k + 1) * d]) + 1e-12
        v = np.array(vals[(2 * k + 1) * d : (2 * k + 2) * d]) + 1e-12
        out.append((u / u.sum(), v / v.sum()))
    return out


class TestInitialPoint:
    def test_entropy_uniform_d4(self):
        np.testing.assert_allclose(ENTROPY.initial_point(4), [0.25] * 4, atol=0)

    def test_euclid_uniform_d2(self):
        np.testing.assert_allclose(EUCLID.initial_point(2), [0.5, 0.5], atol=0)

    def test_entropy_d1(self):
        np.testing.assert_allclose(ENTROPY.initial_point(1), [1.0], atol=0)

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            ENTROPY.initial_point(0)


class TestFtrlArgmax:
    def test_entropy_closed_form(self):
        # softmax of eta*G at eta = ln 2, G = (1, 0): weights (2, 1)/3
        w = ENTROPY.ftrl_argmax(np.array([1.0, 0.0]), math.log(2.0))
        np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_entropy_constant_is_uniform(self):
        w = ENTROPY.ftrl_argmax(np.array([3.7, 3.7, 3.7]), 0.9)
        np.testing.assert_allclose(w, [1.0 / 3.0] * 3, atol=1e-15)

    def test_euclid_projection(self):
        # projection of eta*G = (0.2, 0) onto the simplex: split the slack
        # evenly -> (0.6, 0.4) from the two-coordinate KKT system
        w = EUCLID.ftrl_argmax(np.array([0.2, 0.0]), 1.0)
        np.testing.assert_allclose(w, [0.6, 0.4], atol=1e-15)

    def test_shift_invariance(self):
        vals = splitmix64_floats(5, 40)
        for k in range(10):
            G = np.array(vals[4 * k : 4 * k + 4]) * 10.0
            for reg in (ENTROPY, EUCLID):
                a = reg.ftrl_argmax(G, 0.3)
                b = reg.ftrl_argmax(G + 17.25, 0.3)
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_on_simplex(self):
        vals = splitmix64_floats(6, 600)
        for k in range(100):
            G = (np.array(vals[6 * k : 6 * k + 6]) - 0.5) * 50.0
            for reg in (ENTROPY, EUCLID):
                w = reg.ftrl_argmax(G, 0.7)
                assert abs(w.sum() - 1.0) <= 1e-9
                assert w.min() >= -1e-15

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ENTROPY.ftrl_argmax(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError):
            EUCLID.ftrl_argmax(np.array([np.nan, 0.0]), 1.0)


class TestProxStep:
    """Only the Euclidean regularizer has a prox step: the entropy's chained
    prox steps are FTRL's argmax (see ``OmdLearner``)."""

    def test_zero_utility_identity(self):
        g = np.array([0.3, 0.1, 0.6])
        np.testing.assert_allclose(EUCLID.prox_step(g, np.zeros(3), 0.8), g, atol=1e-12)

    def test_euclid_projected_step(self):
        w = EUCLID.prox_step(np.array([0.5, 0.5]), np.array([0.2, 0.0]), 1.0)
        np.testing.assert_allclose(w, [0.6, 0.4], atol=1e-15)


class TestProjectSimplex:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_a_block_is_projected_row_by_row(self, d):
        # (B, k, d): every row bitwise as on its own, and on the loop oracle
        rng = np.random.default_rng(d)
        block = (rng.random((3, 4, d)) - 0.3) * 5.0
        w = project_simplex(block)
        assert w.shape == (3, 4, d)
        for idx in np.ndindex(3, 4):
            assert_same_bits(w[idx], project_simplex(block[idx]))
            np.testing.assert_allclose(w[idx], orc.project_simplex_loop(list(block[idx])),
                                       rtol=0, atol=1e-12)

    def test_an_empty_block_has_no_rows(self):
        assert project_simplex(np.empty((0, 2, 3))).shape == (0, 2, 3)

    @pytest.mark.parametrize("v, shown", [
        ([1e17, 0.0], "1e+17"), ([3e16, 1.0, 2.0], "3e+16"), ([1e300, -1e300], "1e+300"),
    ])
    def test_a_vector_beyond_float_precision_is_a_value_error(self, v, shown):
        # 1 - v_(1) rounds to -v_(1), so no k passes the threshold test
        with pytest.raises(ValueError, match=rf"^simplex projection lost its threshold: "
                                             rf"entries of magnitude {re.escape(shown)} "):
            project_simplex(np.array(v))

    @pytest.mark.parametrize("seed", range(3))
    def test_a_block_projects_or_refuses_as_its_rows_do(self, seed):
        # rows of magnitudes 1 to 1e300, mixed in one block: the block path
        # gives each row's vector-path bits, or the vector path's ValueError
        # of its first refused row
        rng = np.random.default_rng(seed)
        outcomes = set()
        for shape in [(5, 4)] * 40 + [(2, 3, 3)] * 20:
            rows = shape[:-1] + (1,)  # most rows within float precision (below 1e16)
            exponent = np.where(rng.random(rows) < 0.8, rng.integers(0, 17, rows),
                                rng.integers(17, 301, rows))
            block = rng.standard_normal(shape) * 10.0 ** exponent
            refusals = []
            for idx in np.ndindex(shape[:-1]):
                try:
                    project_simplex(block[idx])
                except ValueError as exc:
                    refusals.append(str(exc))
            if refusals:
                with pytest.raises(ValueError) as excinfo:
                    project_simplex(block)
                assert str(excinfo.value) == refusals[0]
                outcomes.add("refused")
                continue
            w = project_simplex(block)
            for idx in np.ndindex(shape[:-1]):
                assert_same_bits(w[idx], project_simplex(block[idx]))
            outcomes.add("projected")
        assert outcomes == {"refused", "projected"}

    def test_a_vector_within_float_precision_keeps_its_projection(self):
        assert_same_bits(project_simplex(np.array([1e15, 0.0])), np.array([1.0, 0.0]))


class TestDiameterConstants:
    def test_entropy_r_ftrl_is_log_d(self):
        for d in (2, 3, 5, 17):
            assert ENTROPY.r_ftrl(d) == pytest.approx(math.log(d), abs=1e-12)

    @pytest.mark.parametrize("reg, divergence", [
        (ENTROPY, lambda f, u: sum(a * math.log(a / b) for a, b in zip(f, u) if a > 0)),
        (EUCLID, lambda f, u: 0.5 * sum((a - b) ** 2 for a, b in zip(f, u))),
    ], ids=["entropy", "euclidean"])
    @pytest.mark.parametrize("d", [2, 3, 5, 17])
    def test_r_ftrl_is_the_largest_divergence_from_uniform(self, reg, divergence, d):
        # mirror descent's constant sup_f D(f, uniform), attained at a vertex:
        # from the uniform start, the same number as the range
        uniform = [1.0 / d] * d
        vertices = [[float(j == k) for j in range(d)] for k in range(d)]
        assert reg.r_ftrl(d) == pytest.approx(
            max(divergence(e, uniform) for e in vertices), abs=1e-12)

    def test_euclid_constants(self):
        for d in (2, 3, 5):
            assert EUCLID.r_ftrl(d) == pytest.approx((1.0 - 1.0 / d) / 2.0, abs=1e-12)

    def test_nonnegative(self):
        for reg in (ENTROPY, EUCLID):
            assert reg.r_ftrl(4) >= 0.0


class TestStrongConvexity:
    def test_midpoint_inequality_entropy(self):
        # R((u+v)/2) <= (R(u) + R(v))/2 - ||u - v||^2 / 8 in the l1 norm
        R = orc.entropy_value
        for u, v in random_simplex_pairs(4, 10000, seed=31):
            gap = (R(u) + R(v)) / 2.0 - R((u + v) / 2.0)
            assert gap >= np.abs(u - v).sum() ** 2 / 8.0 - 1e-12

    def test_midpoint_inequality_euclid(self):
        R = orc.euclidean_value
        for u, v in random_simplex_pairs(4, 10000, seed=32):
            gap = (R(u) + R(v)) / 2.0 - R((u + v) / 2.0)
            assert gap >= np.sum((u - v) ** 2) / 8.0 - 1e-12


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_regularizer("entropy"), NegativeEntropy)
        assert isinstance(get_regularizer("euclidean"), SquaredEuclidean)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="sobolev"):
            get_regularizer("sobolev")

    def test_norm_pairs(self):
        assert (ENTROPY.primal_norm, EUCLID.primal_norm) == ("l1", "l2")
