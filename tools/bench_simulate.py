#!/usr/bin/env python3
"""Time ``regretlab simulate`` in fresh processes and record the result.

    python3 tools/bench_simulate.py --src <checkout>/src --label <name>

Each of ``REPEATS`` rounds runs ``regretlab simulate CONFIG --out TMP`` once
per shipped ``configs/*.cfg`` of this repository, with the package from
``--src``, each in a fresh interpreter (this script's ``--child``, through
``benchlib.fresh_child``).  Per config it records:

- ``<config>_s``: the wall clock from process start to exit, so the
  interpreter start-up and every import the command pays for are included
  (with the harness's own few imports);
- ``<config>_rss_mb``: that process's own peak RSS, its ``VmHWM``.  Before
  the ``child_vmhwm`` label this was ``os.wait4``'s ``ru_maxrss``, which on
  Linux also counts this process's peak, carried across exec;
- ``<config>_arm_rss_mb``: the largest peak RSS of the processes that
  process started and reaped, ``getrusage(RUSAGE_CHILDREN).ru_maxrss`` taken
  after ``simulate``: the forked baseline arm's, whose memory the process's
  own ``VmHWM`` leaves out.  It reads 0 where no arm was forked (a config
  without ``[baseline]``, or a package that forks none).  A forked child's
  RSS counts the pages it shares with its parent.

The invocation's ``peak_rss_mb`` is the largest of all these readings.
``calls_per_config`` records the Python and C calls (``benchlib.call_counts``)
of one more ``simulate`` per config, run in this process after the timed ones,
so no import is counted.  ``os.fork`` is hidden for it, so a baseline arm runs
here after the main arm and its calls are counted too.  The counts are exact,
so two invocations give the same counts.  The
samples are merged under ``--label`` into ``BENCH_simulate.json`` at the
repository root by ``benchlib``.  Compare two checkouts by alternating their
labelled runs.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import contextlib
import glob
import os
import resource
import sys
import tempfile
import time

import benchlib

CONFIGS = sorted(glob.glob(os.path.join(benchlib.ROOT, "configs", "*.cfg")))
STEMS = [os.path.basename(c)[:-len(".cfg")] for c in CONFIGS]
WHAT = ("regretlab simulate of every shipped config in a fresh process: wall clock "
        "in seconds, that process's own peak RSS (VmHWM) in MB and the largest peak "
        "RSS of the arm processes it forked (ru_maxrss of RUSAGE_CHILDREN) in MB; Python "
        "and C calls per config (calls_per_config) from one more simulate in the measuring "
        "process, its imports done and os.fork hidden, so both arms' calls are counted")
TIMINGS = tuple(f"{stem}_{unit}" for stem in STEMS for unit in ("s", "rss_mb", "arm_rss_mb"))
REPEATS = 5


def _simulate(src: str, config: str, out: str) -> tuple[float, dict]:
    """(wall seconds, the child's readings) of one fresh ``regretlab simulate``."""
    start = time.perf_counter()
    readings = benchlib.fresh_child(__file__, src, config, out)
    return time.perf_counter() - start, readings


def child(config: str, out: str) -> dict:
    """``regretlab simulate CONFIG --out OUT`` in this process, its output
    discarded: stdout carries only the readings that ``benchlib`` prints.
    Returns the largest peak RSS, in MB, of the arm processes it forked."""
    from regretlab.cli import main

    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["simulate", config, "--out", out])
    if code != 0:
        raise RuntimeError(f"simulate {config} exited {code}")
    return {"arm_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def _calls(config: str) -> dict:
    """The Python and C calls of ``simulate CONFIG`` in this process, with
    ``os.fork`` hidden so a baseline arm runs (and is counted) here too."""
    fork = os.__dict__.pop("fork", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            python, c = benchlib.call_counts(lambda: child(config, tmp))
    finally:
        if fork is not None:
            os.fork = fork
    return {"python": python, "c": c}


def measure(src: str) -> dict:
    samples = {name: [] for name in TIMINGS}
    for _ in range(REPEATS):
        for stem, config in zip(STEMS, CONFIGS):
            with tempfile.TemporaryDirectory() as tmp:
                seconds, readings = _simulate(src, config, tmp)
            samples[f"{stem}_s"].append(seconds)
            samples[f"{stem}_rss_mb"].append(readings["peak_rss_mb"])
            samples[f"{stem}_arm_rss_mb"].append(readings["arm_rss_mb"])
    peak = max(x for name, xs in samples.items() if name.endswith("_rss_mb") for x in xs)
    calls = {f"{stem}_s": _calls(config) for stem, config in zip(STEMS, CONFIGS)}
    return {"samples": samples, "peak_rss_mb": peak, "calls_per_config": calls}


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure, child))
