#!/usr/bin/env python3
"""Print the SHA-256 of every artifact the shipped configs produce.

    python3 tools/artifact_digests.py --src <checkout>/src > digests.txt

Runs ``python3 -m regretlab simulate`` with the package from ``--src`` on
every ``configs/*.cfg`` of this repository, each into its own directory under
one temporary directory, then ``regretlab report`` on every trace CSV
(``trace*.csv`` and ``flows.csv``) written.  No shipped config attaches
``individual_rate`` or ``robust_bound``, so it also writes two seeded
self-play traces into ``seeded/`` and reports them the same way: two
doubling-wrapped optimistic Hedge players on ``make_random_game(2, [3, 3],
seed=5)`` at T = 60, and optimistic Hedge at the individual rate's tuned eta
0.5 (T = 16) on the same game.  It prints one ``sha256  relpath`` line per
artifact, sorted by path: every file written, plus the output of each command
(``<config>/simulate.out``, ``<config>/<trace>.report.out``: stdout, stderr
and exit code).  The temporary directory's path is replaced by
``<OUT>`` before hashing, so the digests of two checkouts compare with one
``diff``.  Beyond ``benchlib``'s sha256 helper, only the standard library is
used.
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys
import tempfile

import benchlib

TOKEN = b"<OUT>"
# writes the seeded traces into the directory given as its one argument
SEEDED = """
import os, sys
from regretlab.dynamics import run, write_trace_file
from regretlab.learners import LearnerSpec
from regretlab.library import make_random_game
from regretlab.robust import wrap_doubling

g = make_random_game(2, [3, 3], seed=5)
wrapped = [wrap_doubling(LearnerSpec("optimistic_hedge"), 3, 0.5) for _ in range(2)]
write_trace_file(run(g, wrapped, 60), os.path.join(sys.argv[1], "trace_robust.csv"))
write_trace_file(run(g, [LearnerSpec("optimistic_hedge", 0.5)] * 2, 16),
                 os.path.join(sys.argv[1], "trace_rate.csv"))
"""


def _cli(src: str, *args: str) -> bytes:
    """stdout, stderr and exit code of ``python3 ARGS`` run with the package
    from ``src``."""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, *args], capture_output=True, env=env)
    return (done.stdout + b"--- stderr\n" + done.stderr
            + f"--- exit {done.returncode}\n".encode())


def digests(src: str) -> dict:
    """{relpath: sha256} of every artifact and command output."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for config in sorted(glob.glob(os.path.join(benchlib.ROOT, "configs", "*.cfg"))):
            stem = os.path.splitext(os.path.basename(config))[0]
            out = os.path.join(tmp, stem)
            outputs[f"{stem}/simulate.out"] = _cli(
                src, "-m", "regretlab", "simulate", config, "--out", out)
        seeded = os.path.join(tmp, "seeded")
        os.mkdir(seeded)
        outputs["seeded/write.out"] = _cli(src, "-c", SEEDED, seeded)
        for stem in sorted(os.listdir(tmp)):
            out = os.path.join(tmp, stem)
            for name in sorted(os.listdir(out)):
                if name == "flows.csv" or (name.startswith("trace") and name.endswith(".csv")):
                    outputs[f"{stem}/{name}.report.out"] = _cli(
                        src, "-m", "regretlab", "report", os.path.join(out, name))
        for root, _dirs, files in os.walk(tmp):
            for name in files:
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    outputs[os.path.relpath(path, tmp)] = fh.read()
        for rel, data in outputs.items():
            found[rel] = benchlib.sha256(data.replace(tmp.encode(), TOKEN))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="a checkout's src directory")
    args = parser.parse_args(argv)
    for rel, digest in sorted(digests(os.path.abspath(args.src)).items()):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
