"""In-memory spans around regretlab's public entry points, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, amount, error).  ``amount`` carries the
work a call did where one number describes it: rounds for ``run`` and
``run_continuous``, bytes for the trace CSV writer and reader.  Spans are
recorded by wrappers that this module installs from outside the package
(nothing under ``src/`` changes) and removes again on exit.

Layers are named after the modules.  The program is single-threaded and has
no queues or locks, so no layer has a wait time; self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("setup", "games", "auctions", "learners", "robust", "costmode",
          "dynamics", "experiment", "svgplot", "continuous")

WAIT_NOTE = ("no layer has a wait time: the program is single-threaded and has "
             "no queues or locks")


class Tracer:
    """Append-only span store; the open spans form a stack, so the span on
    top of it is the parent of the next one."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self.error = array("b")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.amount.append(0.0)
        self.error.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1,
            amount: float = 0.0, error: bool = False) -> int:
        """Record a finished span directly (used to build synthetic trees)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.amount.append(amount)
        self.error.append(int(error))
        return idx

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.float64).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


# ---------------------------------------------------------------------------
# derivation


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, errors, total and self seconds, summed amount.
    Also the time covered by root spans and the oracle calls made directly
    by ``dynamics.run``."""
    a = tracer.arrays()
    count = len(tracer.names)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    per_name = {}
    ok_dur = np.where(a["error"] == 0, dur, 0.0)
    for key, weights in (("calls", None), ("total_s", dur), ("ok_total_s", ok_dur),
                         ("self_s", self_time), ("amount", a["amount"]),
                         ("errors", a["error"])):
        sums = np.bincount(a["name"], weights=weights, minlength=count)
        for nid, value in enumerate(sums):
            per_name.setdefault(tracer.names[nid], {})[key] = float(value)
    oracle_in_run = 0
    if "dynamics.run" in tracer._ids and len(dur):
        run_id = tracer._ids["dynamics.run"]
        oracle_ids = [tracer._ids[n] for n in ORACLE_SPANS if n in tracer._ids]
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        oracle_in_run = int(np.sum(np.isin(a["name"], oracle_ids)
                                   & (parent_name == run_id)))
    return {"spans": per_name, "covered_s": float(dur[~has_parent].sum()),
            "oracle_calls_in_run": oracle_in_run, "span_count": len(dur)}


ORACLE_SPANS = ("games.expected_utilities", "games.welfare_mixed",
                "auctions.expected_utilities", "auctions.welfare_mixed")

# (metric, unit, span, statistic, scale); statistics divide a span's summed
# time or amount by its calls, its amount, or the number of traced passes.
_SPAN_METRICS = (
    ("games.expected_utilities.us_per_call", "us", "games.expected_utilities", "per_call", 1e6),
    ("games.welfare_mixed.us_per_call", "us", "games.welfare_mixed", "per_call", 1e6),
    ("auctions.expected_utilities.us_per_call", "us", "auctions.expected_utilities", "per_call", 1e6),
    ("auctions.welfare_mixed.us_per_call", "us", "auctions.welfare_mixed", "per_call", 1e6),
    ("learners.ftrl.step_us", "us", "learners.ftrl", "per_step", 1e6),
    ("learners.omd.step_us", "us", "learners.omd", "per_step", 1e6),
    ("learners.certify_variation_bound.us_per_call", "us", "learners.certify_variation_bound", "per_call", 1e6),
    ("robust.step_us", "us", "robust", "per_step", 1e6),
    ("robust.certify_robust.us_per_call", "us", "robust.certify_robust", "per_call", 1e6),
    ("costmode.step_us", "us", "costmode", "per_step", 1e6),
    ("dynamics.run.us_per_round", "us", "dynamics.run", "per_amount", 1e6),
    ("dynamics.run.self_us_per_round", "us", "dynamics.run", "self_per_amount", 1e6),
    ("dynamics.report.ms_per_call", "ms", "dynamics.report", "per_call", 1e3),
    ("dynamics.write_trace_csv.mb_per_s", "MB/s", "dynamics.write_trace_csv", "amount_per_s", 1e-6),
    ("dynamics.read_trace_csv.mb_per_s", "MB/s", "dynamics.read_trace_csv", "amount_per_s", 1e-6),
    ("dynamics.read_trace_csv.self_s", "s", "dynamics.read_trace_csv", "self_per_pass", 1.0),
    ("dynamics.trace_bytes", "bytes", "dynamics.write_trace_csv", "amount_per_pass", 1.0),
    ("experiment.run_experiment.self_s", "s", "experiment.run_experiment", "self_per_pass", 1.0),
    ("experiment.full_report.ms_per_call", "ms", "experiment.full_report", "per_call", 1e3),
    ("svgplot.write_svg.ms_per_call", "ms", "svgplot.write_svg", "per_call", 1e3),
    ("continuous.run_continuous.us_per_round", "us", "continuous.run_continuous", "per_amount", 1e6),
    ("continuous.gradient.us_per_call", "us", "continuous.gradient", "per_call", 1e6),
    ("continuous.true_regret.ms_per_call", "ms", "continuous.true_regret", "per_call", 1e3),
)

# Units of every per-layer metric, in print order (setup.* come from the
# fresh set-up processes, the rest from spans).
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    **{m: unit for m, unit, *_ in _SPAN_METRICS},
    "games.oracle_calls_per_round": "calls/round",
    **{f"{layer}.{k}": "count" for layer in LAYERS for k in ("calls", "errors")},
    "tracing.overhead_s": "s",
    "tracing.overhead_share": "ratio",
    "unattributed_s": "s",
    "unattributed_share": "ratio",
    "calibration_ms": "ms",
}


def _span_stat(spans: dict, prefix: str, stat: str, passes: int) -> tuple[float, int]:
    """(value, calls) of a statistic over one span name, or over the
    ``.play``/``.observe`` pair when ``stat`` is per_step."""
    if stat == "per_step":
        play = spans.get(f"{prefix}.play", {})
        observe = spans.get(f"{prefix}.observe", {})
        steps = observe.get("calls", 0.0)
        total = play.get("total_s", 0.0) + observe.get("total_s", 0.0)
        return (total / steps if steps else 0.0), int(steps)
    s = spans.get(prefix, {})
    calls = s.get("calls", 0.0)
    # amounts are recorded only by calls that returned, so rates use the
    # time of those calls alone
    amount = s.get("amount", 0.0)
    if stat == "per_call":
        value = s.get("total_s", 0.0) / calls if calls else 0.0
    elif stat == "per_amount":
        value = s.get("ok_total_s", 0.0) / amount if amount else 0.0
    elif stat == "self_per_amount":
        value = s.get("self_s", 0.0) / amount if amount else 0.0
    elif stat == "amount_per_s":
        value = amount / s["ok_total_s"] if amount else 0.0
    elif stat == "self_per_pass":
        value = s.get("self_s", 0.0) / passes
    elif stat == "amount_per_pass":
        value = amount / passes
    else:
        raise ValueError(f"unknown statistic {stat!r}")
    return value, int(calls)


def layer_metrics(summary: dict, passes: int, traced_wall_s: float,
                  untraced_wall_s: float) -> tuple[dict, list]:
    """Span-derived per-layer metrics as {name: (value, unit)}, plus the
    names of metrics whose spans never ran in this workload (reported as 0)."""
    spans = summary["spans"]
    metrics, absent = {}, []
    for name, unit, prefix, stat, scale in _SPAN_METRICS:
        value, calls = _span_stat(spans, prefix, stat, passes)
        if calls == 0:
            absent.append(name)
        metrics[name] = (value * scale, unit)
    rounds = spans.get("dynamics.run", {}).get("amount", 0.0)
    metrics["games.oracle_calls_per_round"] = (
        summary["oracle_calls_in_run"] / rounds if rounds else 0.0, "calls/round")
    if not rounds:
        absent.append("games.oracle_calls_per_round")
    for layer in LAYERS:
        if layer == "setup":
            continue
        calls = sum(s["calls"] for n, s in spans.items() if n.split(".")[0] == layer)
        errors = sum(s["errors"] for n, s in spans.items() if n.split(".")[0] == layer)
        metrics[f"{layer}.calls"] = (calls / passes, "count")
        metrics[f"{layer}.errors"] = (errors / passes, "count")
    overhead = (traced_wall_s - untraced_wall_s) / passes
    unattributed = (traced_wall_s - summary["covered_s"]) / passes
    metrics["tracing.overhead_s"] = (overhead, "s")
    metrics["tracing.overhead_share"] = (overhead * passes / untraced_wall_s, "ratio")
    metrics["unattributed_s"] = (unattributed, "s")
    metrics["unattributed_share"] = (unattributed * passes / traced_wall_s, "ratio")
    return metrics, absent


# ---------------------------------------------------------------------------
# installation


def _traced(tracer: Tracer, fn, name_of, amount=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_of(args))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.error[idx] = 1
            raise
        finally:
            tracer.close(idx)
        if amount is not None:
            tracer.amount[idx] = amount(args, kwargs, result)
        return result
    return wrapper


def _rounds(args, kwargs, _result):
    return float(args[2] if len(args) > 2 else kwargs["T"])


def _text_bytes(_args, _kwargs, result):
    return float(len(result))  # trace CSVs are ASCII: one byte per character


def _file_bytes(args, _kwargs, _result):
    src = args[0]
    return float(os.path.getsize(src)) if "\n" not in src else float(len(src))


def _by_class(tracer: Tracer, table):
    """Span-name chooser for a method: the first (class, name) entry that
    matches the instance, cached per concrete class."""
    cache: dict = {}

    def name_of(args):
        cls = type(args[0])
        nid = cache.get(cls)
        if nid is None:
            name = next(n for c, n in table if issubclass(cls, c))
            nid = cache[cls] = tracer.name_id(name)
        return nid
    return name_of


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block.

    Functions are replaced wherever a regretlab module holds a reference to
    them, so calls made inside the package are traced too; methods are
    replaced on their defining class."""
    from regretlab import (auctions, continuous, costmode, dynamics, experiment,
                           games, learners, robust, svgplot)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "regretlab" or name.startswith("regretlab."))]
    saved = []

    def patch_function(owner, attr, name, amount=None):
        orig = getattr(owner, attr)
        nid = tracer.name_id(name)
        wrapper = _traced(tracer, orig, lambda _args: nid, amount)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is orig]:
                saved.append((mod, key, orig))
                setattr(mod, key, wrapper)

    def patch_method(cls, attr, table):
        orig = cls.__dict__[attr]
        saved.append((cls, attr, orig))
        setattr(cls, attr, _traced(tracer, orig, _by_class(tracer, table)))

    patch_method(games.NormalFormGame, "expected_utilities",
                 [(auctions.AuctionGame, "auctions.expected_utilities"),
                  (games.NormalFormGame, "games.expected_utilities")])
    patch_method(games.DenseGame, "welfare_mixed", [(object, "games.welfare_mixed")])
    patch_method(auctions.AuctionGame, "welfare_mixed", [(object, "auctions.welfare_mixed")])
    families = [(learners.FtrlLearner, "learners.ftrl"),
                (learners.OmdLearner, "learners.omd"),
                (learners.BestResponseLearner, "learners.bestresponse"),
                (robust.DoublingWrapper, "robust"),
                (costmode.FirstOrderHedge, "costmode"),
                (costmode.CostHedge, "costmode"),
                (learners.OnlineLearner, "learners.other")]
    for attr in ("play", "observe"):
        patch_method(learners.OnlineLearner, attr,
                     [(cls, f"{prefix}.{attr}") for cls, prefix in families])

    patch_function(learners, "certify_variation_bound", "learners.certify_variation_bound")
    patch_function(robust, "certify_robust", "robust.certify_robust")
    patch_function(costmode, "certify_cost_welfare", "costmode.certify_cost_welfare")
    patch_function(dynamics, "run", "dynamics.run", _rounds)
    patch_function(dynamics, "report", "dynamics.report")
    patch_function(dynamics, "write_trace_csv", "dynamics.write_trace_csv", _text_bytes)
    patch_function(dynamics, "read_trace_csv", "dynamics.read_trace_csv", _file_bytes)
    patch_function(experiment, "run_experiment", "experiment.run_experiment")
    patch_function(experiment, "full_report", "experiment.full_report")
    patch_function(experiment, "write_report_csv", "experiment.write_report_csv")
    patch_function(svgplot, "line_plot", "svgplot.line_plot")
    patch_function(svgplot, "write_svg", "svgplot.write_svg")
    patch_function(continuous, "run_continuous", "continuous.run_continuous", _rounds)
    patch_function(continuous, "gradient", "continuous.gradient")
    patch_function(continuous, "true_regret", "continuous.true_regret")
    patch_function(continuous, "linearized_regret", "continuous.linearized_regret")
    patch_function(continuous, "certify_total_regret", "continuous.certify_total_regret")
    try:
        yield tracer
    finally:
        for owner, key, orig in reversed(saved):
            setattr(owner, key, orig)
