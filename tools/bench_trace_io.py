#!/usr/bin/env python3
"""Time trace-file I/O on auction_fig1's main-arm trace and record the result.

    python3 tools/bench_trace_io.py --src <checkout>/src --label <name>

The package is imported from ``--src``, so one copy of this script measures
any checkout.  It runs ``configs/auction_fig1.cfg`` (of this repository) once
through ``run_experiment`` into a temporary directory, then times, in each of
``REPEATS`` runs, ``write_trace_csv`` of the main-arm trace to a file,
``read_trace_csv`` of that file and ``dynamics.report`` of what was read
(its samples keep the key ``full_report_s``, so earlier labels still
compare).  Its rows repeat most cells: tied strategies play bit-identical probabilities.
``dense_read_s`` times ``read_trace_csv`` of a trace whose rows repeat almost
no cell: oftrl self-play (entropy, last-utility predictor, eta = 1/(2(n - 1)))
on a seeded dense game, n = 4, d = 5, T = 5000, so 20,000 rows.  A fresh
process that reads, reports and writes the auction trace once reports its
peak RSS.

The samples are merged under ``--label`` into ``BENCH_trace_io.json`` at the
repository root by ``benchlib``, with the SHA-256 of the trace this checkout
wrote.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

import benchlib

CONFIG = os.path.join(benchlib.ROOT, "configs", "auction_fig1.cfg")
WHAT = ("trace CSV I/O on configs/auction_fig1.cfg's main-arm trace, and read_trace_csv of "
        "a dense n = 4, d = 5, T = 5000 oftrl self-play trace, wall-clock seconds; "
        "peak RSS of fresh processes")
TIMINGS = ("write_s", "read_s", "full_report_s", "dense_read_s")
REPEATS = 7
DENSE_T = 5000


def _child(trace_path: str) -> None:
    """The fresh process: read, report and write the trace once."""
    from regretlab.dynamics import read_trace_csv, report, write_trace_csv

    trace = read_trace_csv(trace_path)
    report(trace)
    write_trace_csv(trace, trace_path + ".again")


def measure(src: str) -> dict:
    from regretlab.config import parse_config
    from regretlab.dynamics import read_trace_csv, report, run, write_trace_csv
    from regretlab.experiment import run_experiment
    from regretlab.learners import LearnerSpec
    from regretlab.library import make_random_game

    with open(CONFIG, encoding="utf-8") as fh:
        spec = parse_config(fh.read())
    samples = {name: [] for name in TIMINGS}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = run_experiment(spec, out_dir=tmp)["artifacts"]["trace"]
        dense_path = os.path.join(tmp, "dense.csv")
        write_trace_csv(run(make_random_game(4, [5] * 4, seed=7),
                            [LearnerSpec("oftrl", 1.0 / 6.0, "entropy", "last")] * 4, DENSE_T),
                        dense_path)
        with open(trace_path, "rb") as fh:
            written = fh.read()
        trace = read_trace_csv(trace_path)
        copy = os.path.join(tmp, "copy.csv")
        for _ in range(REPEATS):
            start = time.perf_counter()
            write_trace_csv(trace, copy)
            samples["write_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            back = read_trace_csv(copy)
            samples["read_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            report(back)
            samples["full_report_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            read_trace_csv(dense_path)
            samples["dense_read_s"].append(time.perf_counter() - start)
        with open(copy, "rb") as fh:
            if fh.read() != written:
                raise RuntimeError("write_trace_csv did not reproduce simulate's trace bytes")
        peak = benchlib.fresh_peak_rss(__file__, src, trace_path)
    return {"samples": samples, "peak_rss_mb": peak, "trace_bytes": len(written),
            "trace_sha256": benchlib.sha256(written)}


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure, _child))
