#!/usr/bin/env python3
"""Time trace-file I/O on auction_fig1's main-arm trace and record the result.

    python3 tools/bench_trace_io.py --src <checkout>/src --label <name>

The package is imported from ``--src``, so one copy of this script measures
any checkout.  It runs ``configs/auction_fig1.cfg`` (of this repository) once
through ``run_experiment`` into a temporary directory, then times, in each of
``REPEATS`` runs, ``write_trace_csv`` of the main-arm trace to a file,
``read_trace_csv`` of that file and ``full_report`` of what was read.  A
fresh process that reads, reports and writes the trace once reports its peak
RSS.

The samples are merged under ``--label`` into ``BENCH_trace_io.json`` at the
repository root, with the host fingerprint, the checkout's git commit, a
SHA-256 of its ``src/regretlab`` sources and of the trace it wrote.  Samples of
one label pool across invocations while the sources stay the same, so
alternating parent and change invocations build one comparison; a label whose
sources changed starts over.  Each summary is the median and the quartiles of
the pooled samples.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG = os.path.join(ROOT, "configs", "auction_fig1.cfg")
OUT = os.path.join(ROOT, "BENCH_trace_io.json")
TIMINGS = ("write_s", "read_s", "full_report_s")
REPEATS = 7


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def _git(src_root: str, *args) -> str | None:
    done = subprocess.run(["git", "-C", src_root, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: str) -> str:
    package = os.path.join(src, "regretlab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _summary(samples) -> dict:
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "n": len(samples)}


def _child(trace_path: str) -> None:
    """The fresh process: read, report and write the trace once."""
    from regretlab.dynamics import read_trace_csv, write_trace_csv
    from regretlab.experiment import full_report

    trace = read_trace_csv(trace_path)
    full_report(trace)
    write_trace_csv(trace, trace_path + ".again")
    print(json.dumps({"peak_rss_mb": _peak_rss_mb()}))


def _fresh_peak_rss(src: str, trace_path: str) -> float:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                           "--child", trace_path], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)["peak_rss_mb"]


def measure(src: str) -> dict:
    import regretlab
    from regretlab.config import parse_config
    from regretlab.dynamics import read_trace_csv, write_trace_csv
    from regretlab.experiment import full_report, run_experiment

    if not os.path.abspath(regretlab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"regretlab was imported from {regretlab.__file__}, not {src}")
    with open(CONFIG, encoding="utf-8") as fh:
        spec = parse_config(fh.read())
    samples = {name: [] for name in TIMINGS}
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = run_experiment(spec, out_dir=tmp)["artifacts"]["trace"]
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
            full_report(back)
            samples["full_report_s"].append(time.perf_counter() - start)
        with open(copy, "rb") as fh:
            if fh.read() != written:
                raise RuntimeError("write_trace_csv did not reproduce simulate's trace bytes")
        peak = _fresh_peak_rss(src, trace_path)
    return {"samples": samples, "peak_rss_mb": peak, "trace_bytes": len(written),
            "trace_sha256": _sha256(written)}


def merge(label: str, src: str, result: dict) -> dict:
    try:
        with open(OUT, encoding="utf-8") as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        bench = {}
    bench.setdefault("what", "trace CSV I/O on configs/auction_fig1.cfg's main-arm "
                             "trace, wall-clock seconds; peak RSS of fresh processes")
    bench.setdefault("command", "python3 tools/bench_trace_io.py --src <checkout>/src "
                                "--label <name>")
    src_root = os.path.dirname(os.path.abspath(src))
    digest = _source_digest(src)
    entry = bench.setdefault("labels", {}).get(label)
    if entry is None or entry["src_sha256"] != digest:
        entry = {"src_sha256": digest, "sessions": []}
    entry.update(
        commit=_git(src_root, "rev-parse", "HEAD"),
        uncommitted_source_changes=bool(_git(src_root, "status", "--porcelain", "--", "src")),
        trace_bytes=result["trace_bytes"], trace_sha256=result["trace_sha256"],
        fingerprint={"machine": platform.machine(), "platform": platform.platform(),
                     "cpus": os.cpu_count(), "python": platform.python_version(),
                     "numpy": np.__version__},
    )
    entry["sessions"].append({
        "finished": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **result["samples"], "peak_rss_mb": result["peak_rss_mb"],
    })
    pooled = {name: [x for s in entry["sessions"] for x in s[name]] for name in TIMINGS}
    entry["summary"] = {name: _summary(pooled[name]) for name in TIMINGS}
    entry["summary"]["peak_rss_mb"] = _summary([s["peak_rss_mb"] for s in entry["sessions"]])
    bench["labels"][label] = entry
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="a checkout's src directory")
    parser.add_argument("--label", help="name to record the result under")
    parser.add_argument("--child", metavar="TRACE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    if args.child:
        _child(args.child)
        return 0
    if not args.label:
        parser.error("--label is required")
    entry = merge(args.label, src, measure(src))
    for name, stats in entry["summary"].items():
        print(f"{args.label} {name}: median {stats['median']:.4g} "
              f"IQR {stats['iqr']:.3g} (n={stats['n']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
