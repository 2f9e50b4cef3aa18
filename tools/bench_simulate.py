#!/usr/bin/env python3
"""Time ``regretlab simulate`` in fresh processes and record the result.

    python3 tools/bench_simulate.py --src <checkout>/src --label <name>

Each of ``REPEATS`` rounds runs ``regretlab simulate CONFIG --out TMP`` once
per shipped ``configs/*.cfg`` of this repository, with the package from
``--src``, each in a fresh interpreter (this script's ``--child``, through
``benchlib.fresh_peak_rss``).  Per config it records:

- ``<config>_s``: the wall clock from process start to exit, so the
  interpreter start-up and every import the command pays for are included
  (with the harness's own few imports);
- ``<config>_rss_mb``: that process's own peak RSS, its ``VmHWM``.  Before
  the ``child_vmhwm`` label this was ``os.wait4``'s ``ru_maxrss``, which on
  Linux also counts this process's peak, carried across exec.

The invocation's ``peak_rss_mb`` is the largest of them.  The samples are merged
under ``--label`` into ``BENCH_simulate.json`` at the repository root by
``benchlib``.  Compare two checkouts by alternating their labelled runs.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import contextlib
import glob
import os
import sys
import tempfile
import time

import benchlib

CONFIGS = sorted(glob.glob(os.path.join(benchlib.ROOT, "configs", "*.cfg")))
STEMS = [os.path.basename(c)[:-len(".cfg")] for c in CONFIGS]
WHAT = ("regretlab simulate of every shipped config in a fresh process: wall clock "
        "in seconds and that process's own peak RSS (VmHWM) in MB")
TIMINGS = tuple(f"{stem}_{unit}" for stem in STEMS for unit in ("s", "rss_mb"))
REPEATS = 5


def _simulate(src: str, config: str, out: str) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh ``regretlab simulate``."""
    start = time.perf_counter()
    rss = benchlib.fresh_peak_rss(__file__, src, config, out)
    return time.perf_counter() - start, rss


def child(config: str, out: str) -> None:
    """``regretlab simulate CONFIG --out OUT`` in this process, its output
    discarded: stdout carries only the peak RSS that ``benchlib`` prints."""
    from regretlab.cli import main

    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["simulate", config, "--out", out])
    if code != 0:
        raise RuntimeError(f"simulate {config} exited {code}")


def measure(src: str) -> dict:
    samples = {name: [] for name in TIMINGS}
    for _ in range(REPEATS):
        for stem, config in zip(STEMS, CONFIGS):
            with tempfile.TemporaryDirectory() as tmp:
                seconds, rss = _simulate(src, config, tmp)
            samples[f"{stem}_s"].append(seconds)
            samples[f"{stem}_rss_mb"].append(rss)
    peak = max(x for name, xs in samples.items() if name.endswith("_rss_mb") for x in xs)
    return {"samples": samples, "peak_rss_mb": peak}


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure, child))
