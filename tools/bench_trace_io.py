#!/usr/bin/env python3
"""Time trace-file I/O on auction_fig1's main-arm trace and record the result.

    python3 tools/bench_trace_io.py --src <checkout>/src --label <name>

The package is imported from ``--src``, so one copy of this script measures
any checkout.  It runs ``configs/auction_fig1.cfg`` (of this repository) once
through ``run_experiment`` into a temporary directory, then times, in each of
``REPEATS`` runs, ``write_s``, ``write_trace_csv`` of the main-arm trace as
text; ``stream_write_s``, the runner's write of the same trace to a file
(``dynamics.write_trace_file``, which holds one chunk of text at a time);
``read_trace_csv`` of that file and ``dynamics.report`` of what was read
(its samples keep the key ``full_report_s``, so earlier labels still
compare).  Labels recorded before ``write_trace_csv`` lost its ``path``
parameter timed, as ``write_s``, a write of the text to a file.  Checkouts
that predate ``write_trace_file`` write files with ``_write_trace_file`` or,
older still, ``write_trace_csv(trace, path)``.  The auction trace's rows
repeat most cells: tied strategies play bit-identical probabilities.
``dense_read_s`` times ``read_trace_csv`` of a trace whose rows repeat almost
no cell: oftrl self-play (entropy, last-utility predictor, eta = 1/(2(n - 1)))
on a seeded dense game, n = 4, d = 5, T = 5000, so 20,000 rows.  A fresh
process that reads, reports and writes the auction trace once (to a file,
through the runner's writer) reports its peak RSS (``peak_rss_mb``); another
that runs the main arm and writes its trace with the runner's writer reports
``stream_write_rss_mb``.

Beside the ``stream_write_s`` and ``read_s`` rows, ``calls_per_row`` records
the Python and C calls (``benchlib.call_counts``) of one write of the
auction trace with the runner's writer and of one ``read_trace_csv`` of the
file, each over the trace's rows (one per round and player).  They are
exact, so two invocations give the same counts.

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
        "peak RSS of fresh processes; Python and C calls per written and per read row of "
        "the auction trace (calls_per_row)")
TIMINGS = ("write_s", "read_s", "full_report_s", "dense_read_s", "stream_write_s")
REPEATS = 7
DENSE_T = 5000


def _stream_writer():
    """The writer ``run_experiment`` uses for trace files in this checkout."""
    from regretlab import dynamics

    return (getattr(dynamics, "write_trace_file", None)
            or getattr(dynamics, "_write_trace_file", dynamics.write_trace_csv))


def _child(trace_path: str, mode: str = "full") -> None:
    """The fresh process: read, report and write the trace once; with mode
    ``stream``, run the main arm (cheaper in memory than reading its file)
    and write it with the runner's writer only."""
    from regretlab.dynamics import read_trace_csv, report, run

    if mode == "stream":
        from regretlab.config import parse_config
        from regretlab.experiment import build_game_from_config

        with open(CONFIG, encoding="utf-8") as fh:
            spec = parse_config(fh.read())
        game = build_game_from_config(spec.game)
        trace = run(game, spec.specs_for(game.n), spec.T, spec.mode)
        _stream_writer()(trace, trace_path + ".streamed")
        return
    trace = read_trace_csv(trace_path)
    report(trace)
    _stream_writer()(trace, trace_path + ".again")


def measure(src: str) -> dict:
    from regretlab.config import parse_config
    from regretlab.dynamics import read_trace_csv, report, run, write_trace_csv
    from regretlab.experiment import run_experiment
    from regretlab.learners import LearnerSpec
    from regretlab.library import make_random_game

    with open(CONFIG, encoding="utf-8") as fh:
        spec = parse_config(fh.read())
    samples = {name: [] for name in TIMINGS}
    stream_write = _stream_writer()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = run_experiment(spec, out_dir=tmp)["artifacts"]["trace"]
        dense_path = os.path.join(tmp, "dense.csv")
        stream_write(run(make_random_game(4, [5] * 4, seed=7),
                         [LearnerSpec("oftrl", 1.0 / 6.0, "entropy", "last")] * 4, DENSE_T),
                     dense_path)
        with open(trace_path, "rb") as fh:
            written = fh.read()
        trace = read_trace_csv(trace_path)
        streamed = os.path.join(tmp, "streamed.csv")
        for _ in range(REPEATS):
            start = time.perf_counter()
            text = write_trace_csv(trace)
            samples["write_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            stream_write(trace, streamed)
            samples["stream_write_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            back = read_trace_csv(streamed)
            samples["read_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            report(back)
            samples["full_report_s"].append(time.perf_counter() - start)
            start = time.perf_counter()
            read_trace_csv(dense_path)
            samples["dense_read_s"].append(time.perf_counter() - start)
        with open(streamed, "rb") as fh:
            for writer, data in (("write_trace_csv", text.encode()),
                                 (stream_write.__name__, fh.read())):
                if data != written:
                    raise RuntimeError(f"{writer} did not reproduce simulate's trace bytes")
        rows, calls = trace.n * trace.T, {}  # a row per round and player
        for name, fn in (("stream_write_s", lambda: stream_write(trace, streamed)),
                         ("read_s", lambda: read_trace_csv(streamed))):
            python, c = benchlib.call_counts(fn)
            calls[name] = {"python": python / rows, "c": c / rows}
        peak = benchlib.fresh_peak_rss(__file__, src, trace_path)
        stream_peak = benchlib.fresh_peak_rss(__file__, src, trace_path, "stream")
    return {"samples": samples, "peak_rss_mb": peak, "stream_write_rss_mb": stream_peak,
            "stream_writer": stream_write.__name__, "trace_bytes": len(written),
            "trace_sha256": benchlib.sha256(written), "calls_per_row": calls}


if __name__ == "__main__":
    sys.exit(benchlib.main(__file__, __doc__, WHAT, TIMINGS, measure, _child))
