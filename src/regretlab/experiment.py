"""Config-driven experiment runner, and the sqrt(T) lower-bound experiment.

``run_experiment`` executes a parsed ExperimentSpec end to end.  Each game
kind runs its arms (the main arm and the optional baseline arm), and each arm
runs, reports and saves its trace CSV (``flows.csv`` for routing) and report
CSV in one process.  A baseline arm runs in a child made with ``os.fork``
while this process runs the main arm; only a small record of it (its manifest
summary, whether a certificate failed, its artifact paths and its regrets to
date) comes back, pickled through a pipe.  Where ``os.fork`` does not exist
the arms run here one after the other.  The SVG plots and a manifest.json
follow.  Every report CSV is ``dynamics.report`` of its arm's trace, so it is
recomputable from the matching trace CSV alone, as the CLI's ``report``
subcommand does.

Artifacts land under ``$REGRETLAB_OUT`` (default: the current directory) in
the subdirectory named by [outputs] dir.  ``lower_bound_experiment`` runs
Hedge against a best responder, whose regret grows with sqrt(T).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import continuous
from .auctions import AuctionGame, AuctionSpec, _check_payoff_cap, uniform_values
from .config import ExperimentSpec
from .dynamics import Trace, regret, regret_series, report, run, write_trace_file
# perfbench times report under this name; the alias goes once it calls report
from .dynamics import report as full_report
from .games import _check_claim, load_dense_csv
from .learners import LearnerSpec, declares_variation_bound
from .library import make_matrix_game, make_random_game, masked_values
from .robust import wrap_doubling
from .svgplot import line_plot, write_svg

__all__ = [
    "OUTPUT_ROOT_ENV",
    "build_game_from_config",
    "run_experiment",
    "write_report_csv",
    "bid_trajectory",
    "regret_plot",
    "bids_plot",
    "LowerBoundResult",
    "lower_bound_experiment",
]

OUTPUT_ROOT_ENV = "REGRETLAB_OUT"


def build_game_from_config(game: dict):
    """Instantiate the game or routing network a config's [game] section
    describes; the one place a game file is read."""
    gtype = game["type"]
    if gtype in ("dense_csv", "network"):
        with open(game["path"], "r", encoding="utf-8") as fh:
            text = fh.read()
        return load_dense_csv(text) if gtype == "dense_csv" else continuous.parse_network(text)
    if gtype == "auction":
        _check_payoff_cap(game["bidders"], game["items"], len(game["bids"]))
        if game.get("value_mask_seed") is not None:
            values = masked_values(game["bidders"], game["items"], game["value"],
                                   game["value_mask_seed"])
        else:
            values = uniform_values(game["bidders"], game["items"], game["value"])
        return AuctionGame(AuctionSpec(game["bidders"], game["items"], values,
                                       np.asarray(game["bids"], dtype=float)))
    if gtype == "matrix":
        return make_matrix_game(np.asarray(game["matrix"], dtype=float))
    if gtype == "random":
        return make_random_game(game["players"], game["dims"], game["seed"])
    raise ValueError(f"unknown game type {gtype!r}")


def _arm_players(game, specs, eta_star):
    """Per-player learner list for the engine; wrapped at ``eta_star`` (the
    config's [robust]) where the player's family declares variation-bound
    constants.  A player with one strategy stays unwrapped: its regret is 0,
    and a wrapper refuses it."""
    if eta_star is None:
        return list(specs)
    return [wrap_doubling(s, d, eta_star) if d >= 2 and declares_variation_bound(s) else s
            for s, d in zip(specs, game.dims)]


# ---------------------------------------------------------------------------
# reporting (trace-only, so the CLI can redo it from the CSV)


def write_report_csv(rep, path=None) -> str:
    """Stable five-column summary: kind,name,value,value2,status, a row per
    regret, per ``summary`` entry in order, per certificate and per extra of
    a RegretReport of any game kind."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "name", "value", "value2", "status"])
    for i, (r_norm, r_raw) in enumerate(zip(rep.regrets, rep.regrets_raw)):
        writer.writerow(["regret", f"player_{i}", repr(r_norm), repr(r_raw), ""])
    for name, value in rep.summary.items():
        writer.writerow(["summary", name, repr(value), "", ""])
    for cert in rep.certificates:
        writer.writerow(["certificate", cert.name, repr(float(cert.lhs)),
                         repr(float(cert.rhs)), cert.status])
    for key in sorted(rep.extras):
        writer.writerow(["extra", key, repr(float(rep.extras[key])), "", ""])
    text = out.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# auction trajectories (Figure-2-style diagnostics)


def _auction_layout(trace: Trace):
    """The (item count, bid levels) of an auction trace's game."""
    if not (isinstance(trace, Trace) and isinstance(trace.game, AuctionGame)):
        raise ValueError("bid trajectories need an auction trace")
    return trace.game.m, trace.game.spec.bid_levels


def bid_trajectory(trace: Trace, player: int, item: int):
    """Per-round (prob_on_item, conditional_expected_bid) for one player/item.

    prob = total strategy mass on the item; the conditional bid is the
    mass-weighted bid level given the item was chosen (0 where prob is 0)."""
    m, levels = _auction_layout(trace)
    nb = len(levels)
    if not 0 <= player < trace.n:
        raise ValueError(f"player index {player} out of range for {trace.n} players")
    if not 0 <= item < m:
        raise ValueError(f"item index {item} out of range for {m} items")
    block = trace.plays[player][:, item * nb:(item + 1) * nb]
    prob = block.sum(axis=1)
    weighted = block @ levels
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(prob > 0.0, weighted / np.where(prob > 0.0, prob, 1.0), 0.0)
    return prob, cond


# ---------------------------------------------------------------------------
# plots


def _regret_series(trace) -> np.ndarray:
    """The (n, T) regrets to date of a normal-form or auction trace."""
    if not isinstance(trace, Trace):
        raise ValueError("regret plots need a normal-form or auction trace")
    return np.stack([regret_series(trace, i) for i in range(trace.n)])


def _regret_lines(series: dict) -> str:
    """The regret plot of arm label -> (n, T) regrets to date."""
    lines = []
    for label, per_player in series.items():
        ts = list(range(1, per_player.shape[1] + 1))
        lines.append((f"{label}: sum of regrets", ts, per_player.sum(axis=0)))
        lines.append((f"{label}: max regret", ts, per_player.max(axis=0)))
    return line_plot(lines, title="Regret growth", xlabel="round",
                     ylabel="cumulative regret (normalized)")


def regret_plot(traces: dict) -> str:
    """Sum-of-regrets and max-individual-regret vs t, one pair of polylines
    per arm.  ``traces`` maps arm label -> Trace."""
    return _regret_lines({label: _regret_series(t) for label, t in traces.items()})


def bids_plot(trace: Trace) -> str:
    """Per-player conditional expected bid on the player's modal item, plus
    per-round raw expected utility."""
    m, levels = _auction_layout(trace)
    nb = len(levels)
    scale, shift = trace.game.scale, trace.game.shift
    ts = list(range(1, trace.T + 1))
    series = []
    for i in range(trace.n):
        w = trace.plays[i]
        mass = np.array([w[:, j * nb:(j + 1) * nb].sum() for j in range(m)])
        item = int(np.argmax(mass))
        _prob, cond = bid_trajectory(trace, i, item)
        series.append((f"p{i} bid on item {item}", ts, cond))
        realized = shift + scale * np.sum(trace.plays[i] * trace.utilities[i], axis=1)
        series.append((f"p{i} utility", ts, realized))
    return line_plot(series, title="Bids and per-round utility", xlabel="round",
                     ylabel="bid level / raw utility")


# ---------------------------------------------------------------------------
# the runner: a game kind hands each arm to run_experiment's writer, which
# returns the arm's record; run_experiment merges the records in arm order


def _out_dir(spec: ExperimentSpec) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    return os.path.join(root, spec.outputs.get("dir") or "experiment")


def _run_beside(first, second) -> list:
    """``[first(), second()]``, with ``second`` run in a child made with
    ``os.fork`` while this process runs ``first``; one after the other where
    ``os.fork`` does not exist.  The child's return value, or the exception
    it raised, comes back pickled through a pipe and is returned or raised
    here once the child is reaped; when both fail, ``first``'s exception wins."""
    if not hasattr(os, "fork"):
        return [first(), second()]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _child(second, read_fd, write_fd)
    os.close(write_fd)
    try:
        result = first()
    finally:  # the child may be blocked on a full pipe: read it all, then reap it
        try:
            with open(read_fd, "rb") as fh:
                data = fh.read()
        finally:
            status = os.waitpid(pid, 0)[1]
    if not data:
        raise ChildProcessError(f"an arm's process ended (wait status {status}) "
                                "without sending its result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return [result, value]


def _child(call, read_fd: int, write_fd: int):
    """The forked side of ``_run_beside``: send ``(True, call())`` or
    ``(False, exception)`` and leave through ``os._exit``, so the caller's
    stack, its stdio buffers and its atexit handlers are never run here."""
    code = 1
    try:
        os.close(read_fd)
        try:
            sent = (True, call())
        except BaseException as exc:
            sent = (False, exc)
        data = pickle.dumps(sent, protocol=pickle.HIGHEST_PROTOCOL)  # whole, or nothing sent
        with open(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _game_arms(spec: ExperimentSpec, write_arm):
    """Normal-form and auction games: the main arm and the optional baseline
    arm, each handed to ``write_arm`` in its own process, then the regret plot
    of both and the bid plot of an auction's main arm.  Returns the
    (label, record) of each arm in arm order and the plots."""
    game = build_game_from_config(spec.game)
    n = game.n
    problems = [f"[learner.{i}] refers to player {i} but the game has {n} players"
                for i in spec.overrides if i >= n]
    claim = spec.smoothness
    if claim:
        try:
            _check_claim(game.dims, claim["lambda"], claim["mu"], claim.get("s_star"))
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise ValueError("; ".join(problems))

    def arm(label, players):
        """Run, report and write one arm; keep its record, its (n, T) regrets
        to date and, for an auction's main arm, the bid plot's text."""
        trace = run(game, players, spec.T, spec.mode)
        if claim:
            trace.meta["smoothness"] = claim
        rep = report(trace)
        summary = {"regrets": rep.regrets, "sum_regret": rep.summary["sum_regret"]}
        bids = None
        if label == "main":
            summary.update(rep.summary, T=spec.T, mode=spec.mode)
            if spec.game["type"] == "auction":
                bids = bids_plot(trace)
        return label, write_arm(label, "trace", trace, rep, summary), _regret_series(trace), bids

    players = _arm_players(game, spec.specs_for(n), spec.robust)
    if spec.baseline is None:
        done = [arm("main", players)]
    else:
        done = _run_beside(lambda: arm("main", players),
                           lambda: arm("baseline", [spec.baseline] * n))
    plots = {"regret_svg": ("regret.svg",
                            _regret_lines({label: series for label, _, series, _ in done}))}
    if done[0][3] is not None:
        plots["bids_svg"] = ("bids.svg", done[0][3])
    return [(label, record) for label, record, _, _ in done], plots


def _routing_arms(spec: ExperimentSpec, write_arm):
    """Splittable routing: one arm at the configured or the tuned step size
    1/(2Ln), certified only at the tuned one, and its cost plot."""
    network = build_game_from_config(spec.game)
    eta = spec.learner.eta
    if eta is None:
        eta = continuous._tuned_eta(network, continuous.lipschitz_constant(network))[0]
    trace = continuous.run_continuous(network, eta, spec.T)
    rep = report(trace)
    ts = list(range(1, spec.T + 1))
    series = [(f"player {i} cost", ts, cost) for i, cost in enumerate(trace.costs)]
    series.append(("total cost", ts, trace.total_cost))
    plot = line_plot(series, title="Routing costs", xlabel="round", ylabel="cost")
    record = write_arm("main", "flows", trace, rep, {
        "T": spec.T, "mode": "routing", "linearized_regrets": rep.regrets,
        "true_regrets": rep.regrets_raw,
        **{k: rep.summary[k] for k in ("eta", "sum_linearized_regret", "avg_total_cost")}})
    return [("main", record)], {"costs_svg": ("costs.svg", plot)}


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None) -> dict:
    """Execute a validated spec and write all artifacts.

    Returns the manifest (also written as manifest.json).  The manifest's
    exit_code is 0 on success and 2 when any claimed certificate fails;
    artifacts are written either way, into a directory created at the first
    write.  A baseline arm runs in a forked child beside the main arm (one
    after the other without ``os.fork``); each arm writes its own trace and
    report files as it finishes, and the plots and manifest.json follow once
    both have.  If an arm raises, its error is raised here (the main arm's
    when both do), after the other arm has finished: the files of an arm
    that finished stay, and no manifest is written."""
    out = out_dir or _out_dir(spec)
    artifacts = {}
    manifest = {"out_dir": out, "artifacts": artifacts, "exit_code": 0}

    def save(name, write, *args) -> str:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        write(*args, path)
        return path

    def write_arm(label, trace_stem, trace, rep, summary) -> dict:
        """Save one arm's trace and report files, in the arm's own process,
        and return the record the manifest needs of it."""
        suffix = "" if label == "main" else f"_{label}"
        return {"failed": rep.failed(),
                "summary": dict(summary, certificates={c.name: c.status
                                                       for c in rep.certificates}),
                "artifacts": {
                    "trace" + suffix: save(f"{trace_stem}{suffix}.csv", write_trace_file, trace),
                    "report" + suffix: save(f"report{suffix}.csv", write_report_csv, rep)}}

    kind_arms = _routing_arms if spec.game["type"] == "network" else _game_arms
    records, plots = kind_arms(spec, write_arm)
    for label, record in records:
        if record["failed"]:
            manifest["exit_code"] = 2
        manifest["summary" if label == "main" else f"{label}_summary"] = record["summary"]
        artifacts.update(record["artifacts"])
    for key, (name, svg) in plots.items():
        artifacts[key] = save(name, write_svg, svg)
    artifacts["manifest"] = os.path.join(out, "manifest.json")
    with open(artifacts["manifest"], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# the sqrt(T) lower-bound experiment


@dataclass
class LowerBoundResult:
    """Realized regrets of Hedge against a best responder, with the closed
    forms quoted for the two matrices.

    Note: on game A the dynamics are exactly solvable and the realized regret
    equals (T/2)*(1/2 - 1/(1+e^eta)) for even T -- half of ``closed_form_A``.
    Both numbers are reported; certificates built on this experiment test the
    realized dynamics.
    """

    eta: float
    T: int
    r_game_A: float
    r_game_Aprime: float
    closed_form_A: float
    closed_form_Aprime_lb: float


def lower_bound_experiment(eta: float, T: int) -> LowerBoundResult:
    """Run Hedge(eta) as the row player against a best-responding column on
    the identity matrix A and on the single-column matrix A' = (1; 0)."""
    specs = [LearnerSpec("hedge", eta=eta), LearnerSpec("bestresponse")]  # checks eta
    if T < 1 or T % 2:
        raise ValueError(f"T must be a positive even integer, got {T}")
    trace_a = run(make_matrix_game(np.eye(2)), specs, T)
    trace_ap = run(make_matrix_game(np.array([[1.0], [0.0]])), specs, T)
    q = math.exp(-eta)  # (e^eta - 1)/(e^eta + 1) as (1 - q)/(1 + q): no overflow
    return LowerBoundResult(
        eta=eta,
        T=T,
        r_game_A=regret(trace_a, 0),
        r_game_Aprime=regret(trace_ap, 0),
        closed_form_A=(T / 2.0) * (1.0 - q) / (1.0 + q),
        # (1 - e^{-T eta}) / (2 (1 - e^{-eta})) through expm1: q is 1.0 below eta = 2^-53
        closed_form_Aprime_lb=math.expm1(-T * eta) / (2.0 * math.expm1(-eta)),
    )
