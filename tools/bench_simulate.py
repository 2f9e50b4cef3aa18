#!/usr/bin/env python3
"""Time ``regretlab simulate`` in fresh processes and record the result.

    python3 tools/bench_simulate.py --src <checkout>/src --label <name>

Each of ``REPEATS`` rounds runs ``python -m regretlab simulate CONFIG --out
TMP`` once per shipped ``configs/*.cfg`` of this repository, with the package
from ``--src``, each in a fresh interpreter.  Per config it records:

- ``<config>_s``: the wall clock from process start to exit, so the
  interpreter start-up and every import the command pays for are included;
- ``<config>_rss_mb``: that process's own peak RSS, read from ``os.wait4``.

The invocation's ``peak_rss_mb`` is the largest of them.  The samples are merged
under ``--label`` into ``BENCH_simulate.json`` at the repository root by
``benchlib``.  Compare two checkouts by alternating their labelled runs.
Only the standard library and numpy are used.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import tempfile
import time

import benchlib

CONFIGS = sorted(glob.glob(os.path.join(benchlib.ROOT, "configs", "*.cfg")))
STEMS = [os.path.basename(c)[:-len(".cfg")] for c in CONFIGS]
WHAT = ("python -m regretlab simulate of every shipped config in a fresh process: "
        "wall clock in seconds and that process's peak RSS in MB")
TIMINGS = tuple(f"{stem}_{unit}" for stem in STEMS for unit in ("s", "rss_mb"))
REPEATS = 5


def _simulate(src: str, config: str, out: str) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh ``regretlab simulate``."""
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "regretlab", "simulate", config,
                             "--out", out], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _pid, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"simulate {config} exited {proc.returncode}")
    return elapsed, usage.ru_maxrss / 1024.0  # KB on Linux


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
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure))
