"""The harness the ``tools/bench_*.py`` scripts share.

A script supplies its docstring, what it measures, the names of its timed
samples, a ``measure(src)`` and, if it uses ``fresh_peak_rss``, a
``child(*args)``; ``main`` does the rest:

- imports the package from ``--src`` and checks that it came from there;
- ``measure(src)`` returns ``{"samples": {name: [seconds or us, ...]},
  "peak_rss_mb": float, ...}``, every other key being recorded as is;
- ``call_counts(fn)`` counts the Python and C calls ``fn()`` makes, exact
  where a wall clock drifts; a script records such counts beside its samples
  under ``calls_per_round``, ``calls_per_step``, ``calls_per_row`` or
  ``calls_per_config``, which ``main`` prints;
- ``fresh_child`` reruns the script with ``--child ARGS`` in a fresh
  process, which calls ``child(*ARGS)`` and prints its own peak RSS
  (``VmHWM``, not ``ru_maxrss``, which would include this process's peak)
  beside any readings ``child`` returns as a dict; ``fresh_peak_rss`` keeps
  the peak RSS alone;
- ``merge`` records the samples under ``--label`` in ``BENCH_<name>.json`` at
  the repository root (``<name>`` from ``bench_<name>.py``), with the host
  fingerprint, the checkout's git commit and a SHA-256 of its
  ``src/regretlab`` sources.  A label holds one invocation: a rerun replaces
  its samples and summary, never pools them, so a label never mixes hours
  whose host speeds differ.  Each summary is the median, the quartiles and
  the minimum of the samples: on a host whose speed drifts, the minimum
  resolves a change smaller than the IQR.

Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from datetime import datetime, timezone

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sha256(data: bytes) -> str:
    """``hashlib`` is imported here and in ``_source_digest``, which only the
    parent calls: at module level it loads OpenSSL into every ``--child``
    process, about 3.5 MB of the ``VmHWM`` it reports."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb() -> float:
    """This process's own peak RSS in MB: ``VmHWM`` where /proc/self/status
    has it.  On Linux, ``ru_maxrss`` (the fallback) of a process started by
    another also counts the starter's peak, carried across exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def _git(src_root: str, *args) -> str | None:
    done = subprocess.run(["git", "-C", src_root, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: str) -> str:
    import hashlib

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
            "iqr": float(q3 - q1), "min": float(np.min(samples)), "n": len(samples)}


def call_counts(fn) -> tuple[int, int]:
    """The (Python, C) calls ``fn()`` makes: the ``call`` and ``c_call``
    events a ``sys.setprofile`` hook sees, the hook's own removal included.
    The hook sees no ufunc operator such as ``a + b``, so a count measures
    interpreter work, not array work; the same code gives the same counts."""
    counts = {"call": 0, "c_call": 0}

    def hook(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def fresh_child(script: str, src: str, *args: str) -> dict:
    """The readings of ``script --src SRC --child ARGS`` run in a fresh
    process: its ``peak_rss_mb`` and whatever its ``child`` returned."""
    done = subprocess.run([sys.executable, os.path.abspath(script), "--src", src,
                           "--child", *args], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def fresh_peak_rss(script: str, src: str, *args: str) -> float:
    """Peak RSS in MB of ``script --src SRC --child ARGS`` run in a fresh process."""
    return fresh_child(script, src, *args)["peak_rss_mb"]


def merge(script: str, what: str, timings, label: str, src: str, result: dict) -> dict:
    """Record ``result`` under ``label`` in the script's BENCH file, replacing
    any earlier entry of that label; return the entry."""
    name = os.path.basename(script)
    out = os.path.join(ROOT, f"BENCH_{name[len('bench_'):-len('.py')]}.json")
    try:
        with open(out, encoding="utf-8") as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        bench = {}
    # the script's current description: rows it added since a label was
    # recorded are absent from that label's summary
    bench["what"] = what
    bench["command"] = f"python3 tools/{name} --src <checkout>/src --label <name>"
    src_root = os.path.dirname(os.path.abspath(src))
    entry = {
        "src_sha256": _source_digest(src),
        "commit": _git(src_root, "rev-parse", "HEAD"),
        "uncommitted_source_changes": bool(_git(src_root, "status", "--porcelain", "--", "src")),
        "fingerprint": {"machine": platform.machine(), "platform": platform.platform(),
                        "cpus": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
        "finished": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **result,
        "summary": {t: _summary(result["samples"][t]) for t in timings},
    }
    bench.setdefault("labels", {})[label] = entry
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


def main(script: str, doc: str, what: str, timings, measure, child=None, argv=None) -> int:
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", required=True, help="a checkout's src directory")
    parser.add_argument("--label", help="name to record the result under")
    parser.add_argument("--child", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    if args.child is not None:
        if child is None:
            parser.error("this script runs no --child process")
        readings = child(*args.child) or {}
        print(json.dumps({"peak_rss_mb": _peak_rss_mb(), **readings}))
        return 0
    if not args.label:
        parser.error("--label is required")
    import regretlab

    if not os.path.abspath(regretlab.__file__).startswith(src + os.sep):
        raise RuntimeError(f"regretlab was imported from {regretlab.__file__}, not {src}")
    entry = merge(script, what, timings, args.label, src, measure(src))
    for name, stats in entry["summary"].items():
        print(f"{args.label} {name}: median {stats['median']:.4g} "
              f"IQR {stats['iqr']:.3g} min {stats['min']:.4g} (n={stats['n']})")
    for unit in ("round", "step", "row", "config"):
        for name, calls in entry.get(f"calls_per_{unit}", {}).items():
            print(f"{args.label} {name}: {calls['python']:.6g} Python calls, "
                  f"{calls['c']:.6g} C calls per {unit}")
    print(f"{args.label} peak_rss_mb: {entry['peak_rss_mb']:.4g}")
    return 0
