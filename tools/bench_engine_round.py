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
- ``run_experiment_s``: ``run_experiment`` of ``auction_fig1.cfg`` into a
  temporary directory (both arms, traces, reports and plots).

A fresh process that runs the experiment once reports its peak RSS.

The samples are merged under ``--label`` into ``BENCH_engine_round.json`` at
the repository root, with the host fingerprint, the checkout's git commit, a
SHA-256 of its ``src/regretlab`` sources and of the artifacts the experiment
wrote.  Samples of one label pool across invocations while the sources stay
the same, so alternating parent and change invocations build one comparison;
a label whose sources changed starts over.  Each summary is the median and
the quartiles of the pooled samples.  Only the standard library and numpy are
used.
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
OUT = os.path.join(ROOT, "BENCH_engine_round.json")
TIMINGS = ("auction_fig1_us_per_round", "dense_n4_d5_us_per_round", "run_experiment_s")
REPEATS = 3
DENSE_T = 1000
ARTIFACTS = ("trace.csv", "trace_baseline.csv", "report.csv", "report_baseline.csv")


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


def _config():
    from regretlab.config import parse_config

    with open(CONFIG, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _child() -> None:
    """The fresh process: run the experiment once."""
    from regretlab.experiment import run_experiment

    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(_config(), out_dir=tmp)
    print(json.dumps({"peak_rss_mb": _peak_rss_mb()}))


def _fresh_peak_rss(src: str) -> float:
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                           "--child"], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)["peak_rss_mb"]


def _us_per_round(game, specs, T: int) -> float:
    from regretlab.dynamics import run

    start = time.perf_counter()
    run(game, specs, T)
    return (time.perf_counter() - start) / T * 1e6


def measure(src: str) -> dict:
    import regretlab
    from regretlab.experiment import build_game_from_config, run_experiment
    from regretlab.learners import LearnerSpec
    from regretlab.library import make_random_game

    if not os.path.abspath(regretlab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"regretlab was imported from {regretlab.__file__}, not {src}")
    spec = _config()
    auction = build_game_from_config(spec.game)
    auction_specs = spec.specs_for(auction.n)
    dense = make_random_game(4, [5] * 4, seed=7)
    dense_specs = [LearnerSpec("oftrl", 1.0 / 6.0, "entropy", "last")] * 4
    samples = {name: [] for name in TIMINGS}
    digests = None
    for _ in range(REPEATS):
        samples["auction_fig1_us_per_round"].append(_us_per_round(auction, auction_specs, spec.T))
        samples["dense_n4_d5_us_per_round"].append(_us_per_round(dense, dense_specs, DENSE_T))
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter()
            run_experiment(spec, out_dir=tmp)
            samples["run_experiment_s"].append(time.perf_counter() - start)
            written = {}
            for name in ARTIFACTS:
                with open(os.path.join(tmp, name), "rb") as fh:
                    written[name] = _sha256(fh.read())
        if digests not in (None, written):
            raise RuntimeError("run_experiment wrote different artifacts on a rerun")
        digests = written
    return {"samples": samples, "peak_rss_mb": _fresh_peak_rss(src),
            "artifact_sha256": digests}


def merge(label: str, src: str, result: dict) -> dict:
    try:
        with open(OUT, encoding="utf-8") as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        bench = {}
    bench.setdefault("what", "dynamics.run per round on configs/auction_fig1.cfg's main arm "
                             "(T = 2000) and on dense n = 4, d = 5 oftrl self-play "
                             "(T = 1000), microseconds; run_experiment of auction_fig1.cfg, "
                             "seconds; all wall clock; peak RSS of fresh processes")
    bench.setdefault("command", "python3 tools/bench_engine_round.py --src <checkout>/src "
                                "--label <name>")
    src_root = os.path.dirname(os.path.abspath(src))
    digest = _source_digest(src)
    entry = bench.setdefault("labels", {}).get(label)
    if entry is None or entry["src_sha256"] != digest:
        entry = {"src_sha256": digest, "sessions": []}
    entry.update(
        commit=_git(src_root, "rev-parse", "HEAD"),
        uncommitted_source_changes=bool(_git(src_root, "status", "--porcelain", "--", "src")),
        artifact_sha256=result["artifact_sha256"],
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
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    if args.child:
        _child()
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
