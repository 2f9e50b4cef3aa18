"""Seeded differential checks of the engine and the trace file.

The engine's plays equal, bit for bit, those of the serial reference engine
``oracles.serial_engine`` (no learner groups, no all-players oracle), and its
derived utilities those the reference observed, which match the enumeration
oracles.  A trace file written by the runner's writer, read back and
reported, gives the in-memory report's CSV byte for byte, on both sides of
the writer's chunk and the reader's block; and each stored column holds what
the loop oracles compute for its header's name.
"""

import csv

import numpy as np
import oracles as orc
import pytest

from regretlab import (AuctionGame, AuctionSpec, DenseGame, LearnerSpec, make_matrix_game,
                       make_random_game, read_trace_csv, report, run, uniform_values,
                       wrap_doubling)
from regretlab import games
from regretlab.dynamics import _READ_BLOCK_ROUNDS, _TRACE_CHUNK_ROWS, _units, write_trace_file
from regretlab.experiment import write_report_csv

SEED = 3407
# the families drawn for dense players: every declared variation bound, plain
# hedge and best response
POOL = (
    LearnerSpec("hedge", 0.3),
    LearnerSpec("optimistic_hedge", 0.2),
    LearnerSpec("oftrl", 0.1, "entropy", "window", 3),
    LearnerSpec("oftrl", 0.15, "euclidean", "geometric", 0.5),
    LearnerSpec("omd", 0.2, "entropy", "last"),
    LearnerSpec("omd", 0.1, "euclidean", "last"),
    LearnerSpec("bestresponse"),
)
SMOOTH_COST = {"lambda": 5.0, "mu": 0.5, "s_star": None}  # verifies on 2 x [3, 3] draws


def horizons(n):
    """T one round either side of the writer's chunk of rounds and of the
    reader's block."""
    step = max(1, _TRACE_CHUNK_ROWS // n)
    return sorted({step - 1, step + 1, _READ_BLOCK_ROUNDS - 1, _READ_BLOCK_ROUNDS + 1})


def cases():
    """(label, trace) pairs, drawn from ``SEED``."""
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4):
        dims = [int(d) for d in rng.integers(2, 5, size=n)]
        game = make_random_game(n, dims, int(rng.integers(1 << 32)))
        for T in horizons(n):
            specs = [POOL[k] for k in rng.integers(len(POOL), size=n)]
            yield f"dense n={n} dims={dims} T={T}", run(game, specs, T)
    game = make_random_game(2, [3, 3], int(rng.integers(1 << 32)))
    for T in horizons(2):
        trace = run(game, [LearnerSpec("first_order_hedge")] * 2, T, "cost")
        trace.meta["smoothness"] = SMOOTH_COST
        yield f"cost first_order_hedge T={T}", trace
        wrapped = wrap_doubling(LearnerSpec("optimistic_hedge"), 3, 0.5)
        yield f"doubling vs best response T={T}", run(
            game, [wrapped, LearnerSpec("bestresponse")], T)
    auction = AuctionGame(AuctionSpec(2, 2, uniform_values(2, 2, 4.0), [1.0, 2.0, 3.0]))
    for T in horizons(2):
        yield f"auction T={T}", run(auction, [LearnerSpec("optimistic_hedge", 0.1)] * 2, T)


def round_trip(trace, path):
    """The report CSV of ``trace`` written by the runner's writer and read back."""
    write_trace_file(trace, str(path))
    return write_report_csv(report(read_trace_csv(str(path))))


class TestTraceRoundTrip:
    def test_a_read_trace_reports_as_the_run_did(self, tmp_path):
        kinds, names = set(), set()
        for label, trace in cases():
            rep = report(trace)
            assert round_trip(trace, tmp_path / "t.csv") == write_report_csv(rep), label
            kinds.add(label.split(" T=")[0].split(" dims=")[0])
            names.update(c.name.split("[")[0] for c in rep.certificates)
        assert kinds == {"dense n=1", "dense n=2", "dense n=3", "dense n=4",
                         "cost first_order_hedge", "doubling vs best response", "auction"}
        assert {"variation_bound", "cost_welfare", "robust_bound"} <= names

    def test_a_trace_that_still_records_a_run_seed_reports_the_same(self, tmp_path):
        # runners once wrote "seed": 0 into every trace's metadata; nothing reads it
        game = make_random_game(2, [2, 3], 7)
        trace = run(game, [LearnerSpec("optimistic_hedge", 0.2)] * 2, 40)
        expected = write_report_csv(report(trace))
        trace.meta["seed"] = 0
        assert round_trip(trace, tmp_path / "t.csv") == expected
        assert read_trace_csv(str(tmp_path / "t.csv")).meta["seed"] == 0

    def test_each_stored_column_holds_the_value_its_header_names(self, tmp_path):
        # reader and writer share one column order, so a round trip alone
        # cannot see two columns swapped in it: the loop oracles can
        game = make_random_game(3, [2, 3, 2], 11)
        trace = run(game, [LearnerSpec("hedge", 0.4), LearnerSpec("optimistic_hedge", 0.3),
                           LearnerSpec("bestresponse")], 30)
        path = tmp_path / "t.csv"
        write_trace_file(trace, str(path))
        with open(path, encoding="utf-8") as fh:
            fh.readline()  # the metadata
            rows = list(csv.DictReader(fh))
        tensors = game.utility_tensors()
        for t in (0, 11, trace.T - 1):
            welfare = orc.enum_welfare(tensors, [p[t] for p in trace.plays])
            for i in range(trace.n):
                row = rows[t * trace.n + i]
                u, w = trace.utilities[i][:t + 1].tolist(), trace.plays[i][:t + 1].tolist()
                du2, dw2 = orc.independent_variation_sums(u, w)
                assert float(row["regret_to_date"]) == pytest.approx(
                    orc.independent_regret(w, u), abs=1e-12), (t, i)
                assert float(row["welfare"]) == pytest.approx(welfare, abs=1e-12), (t, i)
                assert float(row["du2_cum"]) == pytest.approx(du2, abs=1e-12), (t, i)
                assert float(row["dw2_cum"]) == pytest.approx(dw2, abs=1e-12), (t, i)


# the engine pool: every declared variation bound (both regularizers where
# the family takes either), plain hedge, best response, first-order Hedge
# and a doubling wrapper around optimistic Hedge
ENGINE_POOL = POOL + (
    LearnerSpec("oftrl", 0.2, "euclidean", "last"),
    LearnerSpec("first_order_hedge"),
    "doubling",
)
ENGINE_SEED = 2015
ENGINE_GAMES = 16
DENSE_DIMS = (1, 2, 2, 3, 3)  # a dense player's strategy count, drawn
KRON_ENTRIES = 1 << 8  # a Kronecker chunk of a few to a few hundred rounds


def engine_case(seed):
    """(label, game, mode, horizons, draw) of one engine case, built from
    ``seed`` alone: a dense game (n = 1-5, mixed strategy counts, an affine
    normalization), a small auction or a cost-mode matrix game; T = 1 and T
    either side of the writer's chunk, the reader's block and a Kronecker
    chunk of the dense oracle; ``draw()`` gives each horizon's fresh recipe
    of specs, a player repeating its predecessor's half the time so that
    groups form, and split where the strategy counts differ."""
    rng = np.random.default_rng(seed)
    kind = ("dense", "dense", "auction", "cost")[seed % 4]
    mode = "cost" if kind == "cost" else "utility"
    if kind == "auction":
        n, m, nb = int(rng.integers(2, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        values = rng.integers(1, 9, size=(n, m)) / 2.0
        game = AuctionGame(AuctionSpec(n, m, values, [1.0, 2.0, 3.0][:nb]))
    elif kind == "cost":
        game = make_matrix_game(rng.random((int(rng.integers(2, 5)), int(rng.integers(2, 5)))))
    else:
        n, dims = int(rng.integers(1, 6)), [int(rng.choice(DENSE_DIMS))]
        for _ in range(n - 1):
            dims.append(dims[-1] if rng.random() < 0.5 else int(rng.choice(DENSE_DIMS)))
        scale, shift = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0))
        base = make_random_game(n, dims, int(rng.integers(1 << 32)))
        game = DenseGame([scale * t + shift for t in base.tensors], scale, shift)
    n = game.n
    step = max(1, _TRACE_CHUNK_ROWS // n)
    edges = [step, _READ_BLOCK_ROUNDS] + ([game._kron_rows] if kind != "auction" else [])
    horizons = sorted({1} | {T for e in edges for T in (e - 1, e + 1) if T >= 1})

    def draw():
        picks = [int(rng.integers(len(ENGINE_POOL)))]
        for _ in range(n - 1):
            picks.append(picks[-1] if rng.random() < 0.5 else int(rng.integers(len(ENGINE_POOL))))
        return [ENGINE_POOL[k] for k in picks]

    return f"{kind} n={n} dims={game.dims}", game, mode, horizons, draw


def engine_specs(recipe, dims):
    """Fresh specs of a recipe: a doubling wrapper is a new learner each time,
    and a one-strategy player's is its plain inner learner (alpha = ln 1 = 0
    is no step-size scale), as the runner's arms leave it."""
    inner = LearnerSpec("optimistic_hedge", 0.4)
    return [r if r != "doubling" else wrap_doubling(inner, d, 0.4) if d >= 2 else inner
            for r, d in zip(recipe, dims)]


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def groupable(recipe_entry) -> bool:
    """Whether consecutive players of this recipe entry group when their
    strategy counts match (d >= 2)."""
    return (isinstance(recipe_entry, LearnerSpec)
            and recipe_entry.resolved().algorithm in ("ftrl", "omd"))


def oracle_utilities(game, mode, profile, i):
    """Player i's utilities at ``profile`` from the enumeration oracles (1 - c
    in cost mode)."""
    if isinstance(game, AuctionGame):
        spec = game.spec
        raw = orc.auction_expected_utilities(spec.values.tolist(), spec.m,
                                             spec.bid_levels.tolist(), i, profile)
    else:
        raw = orc.enum_expected_utilities(game.tensors, i, profile)
    u = (np.array(raw) - game.shift) / game.scale
    return 1.0 - u if mode == "cost" else u


def check_engine_case(game, mode, recipe, T):
    """``run``'s plays and derived utilities against the serial reference's,
    bit for bit, and the reference's utilities against the enumeration
    oracles at 1e-12 on the first, middle and last rounds."""
    trace = run(game, engine_specs(recipe, game.dims), T, mode)
    plays, utils = orc.serial_engine(game, engine_specs(recipe, game.dims), T, mode)
    for i in range(game.n):
        assert same_bits(trace.plays[i], plays[i]), f"plays of player {i}"
        assert same_bits(trace.utilities[i], utils[i]), f"utilities of player {i}"
    for t in sorted({0, T // 2, T - 1}):
        profile = [p[t].tolist() for p in plays]
        for i in range(game.n):
            np.testing.assert_allclose(utils[i][t], oracle_utilities(game, mode, profile, i),
                                       rtol=0, atol=1e-12, err_msg=f"round {t + 1}, player {i}")


class TestEngineAgainstSerialReference:
    def test_plays_equal_the_serial_reference_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(games, "_KRON_ENTRIES", KRON_ENTRIES)
        seeds = np.random.default_rng(ENGINE_SEED).integers(1 << 32, size=ENGINE_GAMES)
        kinds, sizes, formed, split, drawn = set(), set(), 0, 0, set()
        for seed in (int(x) for x in seeds):
            label, game, mode, horizons, draw = engine_case(seed)
            kinds.add(label.split()[0])
            sizes.add(game.n)
            for T in horizons:
                recipe = draw()
                try:
                    check_engine_case(game, mode, recipe, T)
                except Exception as exc:  # whatever failed, name the case's seed
                    names = [getattr(r, "algorithm", r) for r in recipe]
                    raise AssertionError(f"engine case seed {seed} ({label}, T={T}, "
                                         f"learners {names}): {exc}") from exc
                units = [p for _, p in _units(engine_specs(recipe, game.dims), game.dims)]
                formed += sum(len(p) > 1 for p in units)
                split += sum(recipe[a[-1]] == recipe[b[0]] and groupable(recipe[b[0]])
                             and min(game.dims[a[-1]], game.dims[b[0]]) >= 2
                             for a, b in zip(units, units[1:]))
                drawn.update(map(str, recipe))
        # the pool was exercised: every kind and size, groups formed and split
        assert kinds == {"dense", "auction", "cost"} and sizes == {1, 2, 3, 4, 5}
        assert formed and split and drawn == set(map(str, ENGINE_POOL))
