"""regretlab benchmark: one command runs a workload, checks its outputs and
prints every metric with its unit.

    python3 perfbench/run.py --workload configs_cli --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``configs_cli``, ``dense_selfplay`` and
``stream_certify``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Every pass of a workload
repeats the same operations, and an operation's latency is the median of its
repetitions in the run, so one repetition the host preempted does not move
the percentiles.  This machine class also changes speed by up to 1.8x for
minutes at a time (other tenants), so times are scaled by a speed factor: a
fixed calibration kernel (interpreter and small numpy calls, no regretlab)
runs every 0.2 s between operations, and times are reported as on a machine
where that kernel takes ``CAL_REF_MS``.  The wall-clock figures are printed
beside them.

- ``setup_s``: fresh interpreter's ``import regretlab`` plus the workload's
  input build, the median over ``SETUP_PROBES`` set-up-only processes and
  the process that ran the workload (each scaled by its own calibration);
- ``rounds_per_s``: player-rounds (learner steps) of one pass over the sum
  of its operations' latencies;
- ``op_p50_ms`` / ``op_tail_ms``: latency at the median and at the
  workload's tail percentile over every operation run.  The tail percentile
  is the highest of 75/90/95/99 that leaves at least ten distinct operations
  beyond it (dense_selfplay: 108 per pass, p90; stream_certify: 360, p95),
  since repetitions of one operation are not independent samples.
  configs_cli has only 10 distinct operations, so its tail is p75 over
  repetitions, and its run lasts at least four passes to leave ten beyond.
  A failed operation ranks above every successful one;
- ``peak_rss_mb``: peak resident memory of the process that ran the workload;
- ``success_rate``: 1 - failed/attempted operations (the error rate is
  printed beside it; as a metric it would read 0 on two workloads).

``--trace 1`` runs pairs of untraced and traced passes on the same inputs and
reports the per-layer metrics of ``spans.py``; spans go to
``.perfbench_out/<workload>.spans.npz`` and the full result, with every
operation's latency, to ``.perfbench_out/<workload>-trace<0|1>.json``; both
are overwritten by the next run.

Everything the benchmark writes stays under ``.perfbench_out/`` in the
checkout.  Exit codes: 0 with a result, 1 when a benchmark process failed,
2 when the regretlab sources are missing.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

TAIL_PERCENTILE = {"configs_cli": 0.75, "dense_selfplay": 0.90, "stream_certify": 0.95}
SETUP_PROBES = 3
CAL_REF_MS = 3.5
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "rounds/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class BenchError(RuntimeError):
    pass


def min_ops(p: float) -> int:
    """Operations needed for ten to lie beyond percentile ``p``."""
    return math.ceil(round(10.0 / (1.0 - p), 6))


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics of sorted ``values``."""
    pos = p * (len(values) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0 or lo + 1 >= len(values):
        return values[lo]
    return values[lo] + frac * (values[lo + 1] - values[lo])


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean without the lowest and highest ``cut`` share of the values."""
    v = sorted(values)
    k = int(len(v) * cut)
    return statistics.fmean(v[k:len(v) - k] or v)


def speed_factor(calibration_s: list) -> float:
    """Reference kernel time over the measured one: times multiplied by it
    read as on a machine where the calibration kernel takes CAL_REF_MS."""
    return CAL_REF_MS * 1e-3 / trimmed_mean(calibration_s)


def end_to_end(workload: str, setup: list, res: dict) -> tuple[dict, dict]:
    """End-to-end metrics {name: value} and the figures printed beside them."""
    by_label: dict = {}
    for label, _pass, seconds, ok in res["op_records"]:
        by_label.setdefault(label, ([], []))[0 if ok else 1].append(seconds)
    speed = speed_factor(res["calibration_s"] or res["setup_calibration_s"])
    values, typical_s, rounds = [], 0.0, 0
    for label, (ok_s, failed_s) in by_label.items():
        if ok_s:
            values += [statistics.median(ok_s)] * len(ok_s)
            rounds += res["op_rounds"][label]
        values += [math.inf] * len(failed_s)
        typical_s += statistics.median(ok_s or failed_s)
    values.sort()

    def ms(v):  # a percentile on failed operations reads as the whole window
        return (v if math.isfinite(v) else res["timed_s"]) * 1e3 * speed

    p = TAIL_PERCENTILE[workload]
    tail = percentile(values, p)
    metrics = {
        "setup_s": statistics.median(
            (s["import_s"] + s["build_s"]) * speed_factor(s["setup_calibration_s"])
            for s in setup),
        "rounds_per_s": rounds / typical_s / speed,
        "op_p50_ms": ms(percentile(values, 0.5)),
        "op_tail_ms": ms(tail),
        "peak_rss_mb": res["peak_rss_mb"],
        "success_rate": 1.0 - res["failed"] / res["attempted"],
    }
    detail = {
        "speed_factor": speed,
        "op_tail_percentile": round(100 * p, 6),
        "op_samples": len(values),
        "op_samples_beyond_tail": len(values) - 1 - math.floor(p * (len(values) - 1)),
        "error_rate": res["failed"] / res["attempted"],
        "wall_clock": {
            "setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setup),
            "rounds_per_s": rounds / typical_s,
            "op_p50_ms": ms(percentile(values, 0.5)) / speed,
            "op_tail_ms": ms(tail) / speed,
        },
    }
    return metrics, detail


def per_layer(setup: list, res: dict) -> dict:
    metrics = {
        "setup.import_s": statistics.median(s["import_s"] for s in setup),
        "setup.build_s": statistics.median(s["build_s"] for s in setup),
        "setup.calls": float(len(setup)),
        "setup.errors": 0.0,
        "calibration_ms": 1e3 * statistics.median(trimmed_mean(s["setup_calibration_s"])
                                                  for s in setup),
    }
    metrics.update({k: v for k, (v, _unit) in res["layers"].items()})
    return metrics


def _spawn(args: list, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a benchmark process")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"benchmark process {args} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"benchmark process {args} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"benchmark process {args} printed no result")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: int,
            probes: int = SETUP_PROBES, ops_floor: int | None = None) -> dict:
    """Run the set-up probes and the workload process; return the result
    object, with everything printed beside it under ``detail``."""
    if not os.path.isfile(os.path.join(ROOT, "src", "regretlab", "__init__.py")):
        raise FileNotFoundError("regretlab sources not found under src/regretlab")
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = [_spawn(common + ["--setup-only"], deadline) for _ in range(probes)]
    if ops_floor is None:
        ops_floor = 0 if trace else min_ops(TAIL_PERCENTILE[workload])
    res = _spawn(common + ["--seconds", repr(float(seconds)), "--trace", str(trace),
                           "--min-ops", str(ops_floor)], deadline)
    setup.append({k: res[k] for k in ("import_s", "build_s", "setup_calibration_s")})
    if trace:
        values = per_layer(setup, res)
        units = {"setup.import_s": "s", "setup.build_s": "s",
                 "setup.calls": "count", "setup.errors": "count", "calibration_ms": "ms",
                 **{k: unit for k, (_v, unit) in res["layers"].items()}}
        detail = {}
    else:
        values, detail = end_to_end(workload, setup, res)
        units = END_TO_END_UNITS
    detail.update({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": res["passes"], "setup_samples": setup,
        **{k: res[k] for k in ("op_rounds", "op_records", "calibration_s") if k in res},
        **{k: res[k] for k in ("failures", "problems", "fingerprint") if k in res},
        **{k: res[k] for k in ("trace_sha256", "absent", "notes", "spans_file",
                               "span_count", "spans", "untraced_s", "traced_s") if k in res},
    })
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "detail": detail,
    }


def _print(result: dict) -> None:
    d = result["detail"]
    print(f"perfbench {d['workload']} seed={d['seed']} seconds={d['seconds']} "
          f"trace={d['trace']}: {d['passes']} {'untraced+traced pairs' if d['trace'] else 'passes'}, "
          f"{result['attempted']} operations, "
          f"{result['failed']} failed, output checks "
          f"{'pass' if result['correct'] else 'FAIL'}")
    wall = d.get("wall_clock", {})
    for name, m in result["metrics"].items():
        raw = f"  (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{raw}")
    if "speed_factor" in d:
        print(f"  times are scaled by {d['speed_factor']:.4g} to a machine where the calibration "
              f"kernel takes {CAL_REF_MS} ms")
    if "op_samples" in d:
        print(f"  op_tail_ms is p{d['op_tail_percentile']:g} of {d['op_samples']} operations, "
              f"{d['op_samples_beyond_tail']} beyond it; error_rate {d['error_rate']:.6g}")
    for f in d.get("failures", []):
        print(f"  failed operation (x{f['count']}): {f['message']}")
    for p in d.get("problems", []):
        print(f"  CHECK FAILED (x{p['count']}): {p['message']}")
    for name in d.get("absent", []):
        print(f"  absent: {name} reads 0, its layer is not called by this workload")
    for note in d.get("notes", []):
        print(f"  note: {note}")
    if "spans_file" in d:
        print(f"  spans: {d['span_count']} in {d['spans_file']}")
    for key, digest in sorted(d.get("trace_sha256", {}).items()):
        print(f"  trace sha256 {key}: {digest}")
    print(f"  fingerprint: {json.dumps(d.get('fingerprint'), sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = collect(args.workload, args.seed, args.seconds, args.trace)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    detail_file = os.path.join(OUT, f"{args.workload}-trace{args.trace}.json")
    with open(detail_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    _print(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
