"""Seeded differential checks of the trace file: one written by the runner's
writer, read back and reported, gives the in-memory report's CSV byte for
byte, on both sides of the writer's chunk and the reader's block; and each
stored column holds what the loop oracles compute for its header's name.
"""

import csv

import numpy as np
import oracles as orc
import pytest

from regretlab import (AuctionGame, AuctionSpec, LearnerSpec, make_random_game, read_trace_csv,
                       report, run, uniform_values, wrap_doubling)
from regretlab.dynamics import _READ_BLOCK_ROUNDS, _TRACE_CHUNK_ROWS, write_trace_file
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
