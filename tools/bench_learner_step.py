#!/usr/bin/env python3
"""Time one learner step (``play`` then ``observe``) and record the result.

    python3 tools/bench_learner_step.py --src <checkout>/src --label <name>

The package is imported from ``--src``, so one copy of this script measures
any checkout.  Each of ``REPEATS`` samples drives a fresh learner through
``STEPS`` rounds of a seeded uniform [0, 1) utility stream and records the
wall clock per step in microseconds:

- ``oftrl_entropy_window5_us``: ``make_learner(spec, 3)`` for optimistic
  FTRL with the entropy and the window-5 predictor;
- ``omd_entropy_last_us``: mirror descent, entropy, last-utility predictor;
- ``omd_euclidean_last_us``: mirror descent, Euclidean, last-utility
  predictor;
- ``group_oftrl_entropy_last_4x5_us``: the one learner the engine builds for
  four players who share an optimistic Hedge spec over 5 strategies
  (``dynamics._units``), stepping on (4, 5) blocks; one step is one play and
  one observe of the whole group;
- ``first_order_hedge_us``: ``make_learner(LearnerSpec("first_order_hedge"),
  3)``, which reads the stream as costs and tunes its own step size.

Every other learner runs at eta = 0.1.  A fresh process that runs one sample of
each reports its peak RSS.  The samples are merged under ``--label`` into
``BENCH_learner_step.json`` at the repository root by ``benchlib``.  Only
the standard library and numpy are used.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import benchlib

WHAT = ("one play + observe of make_learner(spec, 3) for oftrl/entropy/window-5, "
        "omd/entropy/last and omd/euclidean/last, and of the engine's group of four "
        "optimistic Hedge players over 5 strategies, and of first-order Hedge over 3 "
        "strategies, microseconds per step, wall clock; "
        "peak RSS of a fresh process")
TIMINGS = ("oftrl_entropy_window5_us", "omd_entropy_last_us", "omd_euclidean_last_us",
           "group_oftrl_entropy_last_4x5_us", "first_order_hedge_us")
REPEATS = 5
STEPS = 20000
ETA = 0.1


def _builders() -> dict:
    """Row name -> (build a fresh learner, the shape of its utilities)."""
    from regretlab.dynamics import _units
    from regretlab.learners import LearnerSpec, make_learner

    def single(*spec):
        return (lambda: make_learner(LearnerSpec(*spec), 3)), (3,)

    def group():
        [(learner, _)] = _units([LearnerSpec("oftrl", ETA, "entropy", "last")] * 4, [5] * 4)
        return learner

    return {
        "oftrl_entropy_window5_us": single("oftrl", ETA, "entropy", "window", 5),
        "omd_entropy_last_us": single("omd", ETA, "entropy", "last"),
        "omd_euclidean_last_us": single("omd", ETA, "euclidean", "last"),
        "group_oftrl_entropy_last_4x5_us": (group, (4, 5)),
        "first_order_hedge_us": single("first_order_hedge"),
    }


def _us_per_step(build, stream) -> float:
    learner = build()
    start = time.perf_counter()
    for u in stream:
        learner.play()
        learner.observe(u)
    return (time.perf_counter() - start) / len(stream) * 1e6


def _streams(builders) -> dict:
    rng = np.random.default_rng(11)
    return {name: rng.random((STEPS, *shape)) for name, (_, shape) in builders.items()}


def _child() -> None:
    """The fresh process: one sample of every row."""
    builders = _builders()
    streams = _streams(builders)
    for name, (build, _) in builders.items():
        _us_per_step(build, streams[name])


def measure(src: str) -> dict:
    builders = _builders()
    streams = _streams(builders)
    samples = {name: [] for name in TIMINGS}
    for _ in range(REPEATS):
        for name, (build, _) in builders.items():
            samples[name].append(_us_per_step(build, streams[name]))
    return {"samples": samples, "peak_rss_mb": benchlib.fresh_peak_rss(__file__, src)}


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure, _child))
