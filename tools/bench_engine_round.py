#!/usr/bin/env python3
"""Time the engine round and record the result.

    python3 tools/bench_engine_round.py --src <checkout>/src --label <name>

The package is imported from ``--src``, so one copy of this script measures
any checkout.  Each of ``REPEATS`` runs times:

- ``auction_fig1_us_per_round``: ``dynamics.run`` on the main arm of
  ``configs/auction_fig1.cfg`` (of this repository; 4 bidders x 80
  strategies, T = 2000), wall clock per round;
- ``dense_n4_d5_us_per_round``: ``dynamics.run`` with oftrl self-play
  (entropy, last-utility predictor, eta = 1/(2(n - 1))) on a seeded dense
  game, n = 4, d = 5, T = 1000, per round;
- ``dense_n2_d3_us_per_round``: the same on a seeded dense game with n = 2,
  d = 3, where the oracle outweighs the two players' learner steps;
- ``dense_n4_d5_derive_ms``: the trace derivation (utilities, welfare and
  variation sums) of the T = 1000 plays of the n = 4, d = 5 run,
  milliseconds per call, the mean of ``DERIVATIONS`` calls of
  ``dynamics.Trace(game, plays, meta)``, which derives them on construction;
- ``run_experiment_s``: ``run_experiment`` of ``auction_fig1.cfg`` into a
  temporary directory (both arms, traces, reports and plots).

A fresh process that runs the experiment once reports its peak RSS.

Beside each of the three per-round rows, ``calls_per_round`` records the
Python and C calls one round makes (``benchlib.call_counts``): those of a
T = 200 run of the row's ``dynamics.run`` minus those of a T = 100 run,
over 100 rounds.  They are exact, so two invocations give the same counts.

The samples are merged under ``--label`` into ``BENCH_engine_round.json`` at
the repository root by ``benchlib``, with the SHA-256 of the artifacts the
experiment wrote.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import benchlib

CONFIG = os.path.join(benchlib.ROOT, "configs", "auction_fig1.cfg")
WHAT = ("dynamics.run per round on configs/auction_fig1.cfg's main arm (T = 2000) and on "
        "dense n = 4, d = 5 and n = 2, d = 3 oftrl self-play (T = 1000), microseconds; "
        "the trace derivation of the n = 4, d = 5 plays, milliseconds; run_experiment of "
        "auction_fig1.cfg, seconds; all wall clock; peak RSS of fresh processes; Python and "
        "C calls per round of each per-round row (calls_per_round), T = 200 minus T = 100")
TIMINGS = ("auction_fig1_us_per_round", "dense_n4_d5_us_per_round", "dense_n2_d3_us_per_round",
           "dense_n4_d5_derive_ms", "run_experiment_s")
REPEATS = 3
DENSE_T = 1000
DERIVATIONS = 20
COUNT_T = (100, 200)  # the two horizons whose difference counts calls per round
ARTIFACTS = ("trace.csv", "trace_baseline.csv", "report.csv", "report_baseline.csv")


def _config():
    from regretlab.config import parse_config

    with open(CONFIG, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _child() -> None:
    """The fresh process: run the experiment once."""
    from regretlab.experiment import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(_config(), out_dir=tmp)


def _us_per_round(game, specs, T: int) -> float:
    from regretlab.dynamics import run

    start = time.perf_counter()
    run(game, specs, T)
    return (time.perf_counter() - start) / T * 1e6


def _calls_per_round(game, specs) -> dict:
    from regretlab.dynamics import run

    (p0, c0), (p1, c1) = [benchlib.call_counts(lambda T=T: run(game, specs, T))
                          for T in COUNT_T]
    rounds = COUNT_T[1] - COUNT_T[0]
    return {"python": (p1 - p0) / rounds, "c": (c1 - c0) / rounds}


def _derive_ms(game, trace) -> float:
    from regretlab.dynamics import Trace

    start = time.perf_counter()
    for _ in range(DERIVATIONS):
        Trace(game, trace.plays, trace.meta)
    return (time.perf_counter() - start) / DERIVATIONS * 1e3


def measure(src: str) -> dict:
    from regretlab.dynamics import run
    from regretlab.experiment import build_game_from_config, run_experiment
    from regretlab.learners import LearnerSpec
    from regretlab.library import make_random_game

    spec = _config()
    auction = build_game_from_config(spec.game)
    auction_specs = spec.specs_for(auction.n)
    dense = [(name, make_random_game(n, [d] * n, seed=7),
              [LearnerSpec("oftrl", 1.0 / (2.0 * (n - 1)), "entropy", "last")] * n)
             for name, n, d in (("dense_n4_d5_us_per_round", 4, 5),
                                ("dense_n2_d3_us_per_round", 2, 3))]
    n4_game, n4_specs = dense[0][1:]
    n4_trace = run(n4_game, n4_specs, DENSE_T)
    samples = {name: [] for name in TIMINGS}
    digests = None
    for _ in range(REPEATS):
        samples["auction_fig1_us_per_round"].append(_us_per_round(auction, auction_specs, spec.T))
        for name, game, specs in dense:
            samples[name].append(_us_per_round(game, specs, DENSE_T))
        samples["dense_n4_d5_derive_ms"].append(_derive_ms(n4_game, n4_trace))
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            run_experiment(spec, out_dir=tmp)
            samples["run_experiment_s"].append(time.perf_counter() - start)
            written = {}
            for name in ARTIFACTS:
                with open(os.path.join(tmp, name), "rb") as fh:
                    written[name] = benchlib.sha256(fh.read())
        if digests not in (None, written):
            raise RuntimeError("run_experiment wrote different artifacts on a rerun")
        digests = written
    calls = {"auction_fig1_us_per_round": _calls_per_round(auction, auction_specs)}
    calls.update((name, _calls_per_round(game, specs)) for name, game, specs in dense)
    return {"samples": samples, "peak_rss_mb": benchlib.fresh_peak_rss(__file__, src),
            "artifact_sha256": digests, "calls_per_round": calls}


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure, _child))
