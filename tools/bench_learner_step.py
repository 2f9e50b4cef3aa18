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
each reports its peak RSS.

Beside each row, ``calls_per_step`` records the Python and C calls one step
makes (``benchlib.call_counts``): those of a fresh learner driven through
200 steps of the row's stream minus those of 100 steps, over 100 steps.  They
are exact, so two invocations give the same counts.

The samples are merged under ``--label`` into
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
        "peak RSS of a fresh process; Python and C calls per step of each row "
        "(calls_per_step), 200 steps minus 100")
TIMINGS = ("oftrl_entropy_window5_us", "omd_entropy_last_us", "omd_euclidean_last_us",
           "group_oftrl_entropy_last_4x5_us", "first_order_hedge_us")
REPEATS = 5
STEPS = 20000
ETA = 0.1
COUNT_STEPS = (100, 200)  # the two stream lengths whose difference counts calls per step


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


def _drive(learner, stream) -> None:
    for u in stream:
        learner.play()
        learner.observe(u)


def _us_per_step(build, stream) -> float:
    learner = build()
    start = time.perf_counter()
    _drive(learner, stream)
    return (time.perf_counter() - start) / len(stream) * 1e6


def _calls_per_step(build, stream) -> dict:
    (p0, c0), (p1, c1) = [benchlib.call_counts(lambda n=n: _drive(build(), stream[:n]))
                          for n in COUNT_STEPS]
    steps = COUNT_STEPS[1] - COUNT_STEPS[0]
    return {"python": (p1 - p0) / steps, "c": (c1 - c0) / steps}


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
    # counted after the samples: a first drive's one-time setup would land in
    # the 100-step count alone (oftrl/entropy/window-5 read 7.97 Python calls
    # per step, not 8)
    calls = {name: _calls_per_step(build, streams[name]) for name, (build, _) in builders.items()}
    return {"samples": samples, "peak_rss_mb": benchlib.fresh_peak_rss(__file__, src),
            "calls_per_step": calls}


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure, _child))
