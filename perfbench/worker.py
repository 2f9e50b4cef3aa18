"""One fresh benchmark process: import regretlab, build a workload's inputs,
then (unless ``--setup-only``) run its passes and print one JSON line.

Started by ``run.py``; not meant to be run by hand.  The import is timed
before anything else is imported, so ``import_s`` is what a fresh
interpreter pays for ``import regretlab`` (numpy and scipy included).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_CALIBRATIONS = 20
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def measure(workload, seconds: float, min_ops: int):
    """Whole passes until ``seconds`` have elapsed and ``min_ops``
    operations were made."""
    from workloads import Ops

    ops = Ops()
    start = time.perf_counter()
    while ops.passes == 0 or time.perf_counter() - start < seconds or ops.attempted < min_ops:
        workload.run_pass(ops.passes, ops)
        ops.passes += 1
    return ops


def measure_traced(workload, seconds: float):
    """Pairs of passes on the same inputs, untraced then traced, until
    ``seconds`` have elapsed; returns the tracer and both wall times."""
    import spans
    from workloads import Ops

    ops = Ops(calibrate=False)
    tracer = spans.Tracer()
    untraced = traced = 0.0
    pairs = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        workload.run_pass(pairs, ops)
        untraced += time.perf_counter() - t
        with spans.installed(tracer):
            t = time.perf_counter()
            workload.run_pass(pairs, ops)
            traced += time.perf_counter() - t
        pairs += 1
        ops.passes += 2
    return ops, pairs, tracer, untraced, traced


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _src_sha256():
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _openblas_threads():
    """Threads OpenBLAS uses, asked of the library numpy loaded; None when
    that library cannot be found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    import regretlab

    blas = {"env": {k: os.environ.get(k) for k in BLAS_ENV},
            "threads_in_effect": _openblas_threads()}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas["library"] = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode
        blas["library"] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "regretlab": regretlab.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "blas": blas,
        "seed": seed,
    }


def _counted(messages):
    counts: dict = {}
    for m in messages:
        counts[m] = counts.get(m, 0) + 1
    return [{"message": m, "count": c} for m, c in counts.items()]


def main(argv=None) -> int:
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import regretlab  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - start

    import argparse
    import json
    import resource
    import shutil

    import workloads

    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        start = time.perf_counter()
        workload = workloads.build(args.workload, ROOT, args.seed, scratch)
        build_s = time.perf_counter() - start
        result = {"import_s": import_s, "build_s": build_s,
                  "setup_calibration_s": workloads.calibrate(SETUP_CALIBRATIONS)}
        if not args.setup_only:
            result.update(_run(workload, args))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.setup_only:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["fingerprint"] = fingerprint(args.seed)
    print(json.dumps(result))
    return 0


def _run(workload, args) -> dict:
    if args.trace:
        import spans

        ops, passes, tracer, untraced, traced = measure_traced(workload, args.seconds)
        summary = spans.summarize(tracer)
        layers, absent = spans.layer_metrics(summary, passes, traced, untraced)
        spans_file = os.path.join(OUT, f"{args.workload}.spans.npz")
        tracer.save(spans_file)
        notes = [spans.WAIT_NOTE]
        continuous_s = sum(s["self_s"] for n, s in summary["spans"].items()
                           if n.startswith("continuous."))
        if continuous_s:
            notes.append(f"the continuous layer is {continuous_s / traced:.2%} of the traced "
                         f"wall, so a routing-only gain may not resolve end to end")
        extra = {"layers": {k: list(v) for k, v in layers.items()}, "absent": absent,
                 "notes": notes, "spans_file": os.path.relpath(spans_file, ROOT),
                 "span_count": summary["span_count"],
                 "spans": summary["spans"], "untraced_s": untraced, "traced_s": traced}
    else:
        ops = measure(workload, args.seconds, args.min_ops)
        passes = ops.passes
        extra = {}
    result = {
        "passes": passes,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "timed_s": ops.timed_s,
        "op_rounds": ops.labels,
        "op_records": ops.records,
        "calibration_s": ops.calibration,
        "failures": _counted(ops.failures),
        "problems": _counted(ops.problems),
        **extra,
    }
    if hasattr(workload, "digests"):
        result["trace_sha256"] = workload.digests
    return result


if __name__ == "__main__":
    sys.exit(main())
