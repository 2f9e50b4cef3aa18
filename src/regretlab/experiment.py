"""Config-driven experiment runner.

``run_experiment`` executes a parsed ExperimentSpec end to end.  Each game
kind runs its arms (the main arm and the optional baseline arm), evaluates
every certificate the config claims and draws its plots; one writer then
saves the artifacts of every kind — trace CSVs (``flows.csv`` for routing),
report CSVs, SVG plots, and a manifest.json.  Everything in a report CSV is
recomputable from the matching trace CSV alone; ``full_report`` does exactly
that for the CLI's ``report`` subcommand.

Artifacts land under ``$REGRETLAB_OUT`` (default: the current directory) in
the subdirectory named by [outputs] dir.
"""

from __future__ import annotations

import csv
import io
import json
import os
from functools import partial

import numpy as np

from . import continuous
from .auctions import AuctionGame, AuctionSpec, _check_payoff_cap, masked_values, uniform_values
from .config import ExperimentSpec
from .costmode import certify_cost_welfare, fit_first_order_constants
from .dynamics import (
    Trace,
    _learner_meta,
    regret,
    regret_series,
    report,
    run,
    write_trace_csv,
)
from .games import load_dense_csv, verify_smoothness
from .learners import Certificate, declares_variation_bound
from .library import build_game, make_matrix_game, make_random_game
from .robust import certify_robust, parametric_constants, wrap_doubling
from .svgplot import line_plot, write_svg

__all__ = [
    "OUTPUT_ROOT_ENV",
    "build_game_from_config",
    "run_experiment",
    "full_report",
    "write_report_csv",
    "bid_trajectory",
    "mean_bid_oscillation",
    "regret_plot",
    "bids_plot",
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


def _arm_players(game, specs, robust):
    """Per-player learner list for the engine; wrapped when [robust] asks and
    the player's family declares variation-bound constants.  A player with
    one strategy stays unwrapped: its regret is 0, and its alpha (ln 1) is
    no step-size scale."""
    if robust is None:
        return list(specs)
    return [wrap_doubling(s, d, robust.eta_star, robust.alpha)
            if d >= 2 and declares_variation_bound(s) else s
            for s, d in zip(specs, game.dims)]


# ---------------------------------------------------------------------------
# reporting (trace-only, so the CLI can redo it from the CSV)


def full_report(trace, tol: float = 1e-9):
    """dynamics.report plus every certificate the trace's metadata claims:
    the smoothness claim itself, the welfare floor (utility mode) or the
    first-order cost-welfare bound (cost mode), and the wrapped-learner dual
    bound for doubling-wrapped players (T >= 2).  A routing trace gets its
    ``continuous.routing_report``."""
    if isinstance(trace, continuous.ContinuousTrace):
        return continuous.routing_report(trace)
    mode = trace.meta.get("mode", "utility")
    claim = trace.meta.get("smoothness")
    smooth_cert = None
    claim_cert = None
    if claim:
        smooth_cert = verify_smoothness(build_game(trace.meta["game"]), claim["lambda"],
                                        claim["mu"], claim.get("s_star"), mode=mode)
        claim_cert = Certificate(  # 0 <= slack is the claim
            "smoothness_claim", bool(smooth_cert.verified),
            0.0, smooth_cert.slack,
            {"lambda": claim["lambda"], "mu": claim["mu"],
             "s_star": list(smooth_cert.s_star),
             "worst_profile": list(smooth_cert.worst_profile),
             "opt": smooth_cert.opt},
        )

    rep = report(trace,
                 smoothness=smooth_cert
                 if (smooth_cert is not None and smooth_cert.verified
                     and mode == "utility") else None,
                 tol=tol)
    if claim_cert is not None:
        rep.certificates.append(claim_cert)

    if mode == "cost" and smooth_cert is not None and smooth_cert.verified \
            and 0.0 < smooth_cert.mu < 1.0:
        constants = _fit_cost_constants(trace)
        rep.certificates.append(certify_cost_welfare(trace, smooth_cert, constants,
                                                     tol=tol))
        rep.extras["first_order_A1"] = constants.A1
        rep.extras["first_order_A2"] = constants.A2

    for i, entry in enumerate(map(_learner_meta, trace.meta.get("learners", []))):
        if not isinstance(entry, tuple) or trace.T < 2:  # the bound needs T >= 2
            continue
        inner, alpha, eta_star = entry
        _, beta, gamma, pair = parametric_constants(inner, trace.plays[i].shape[1])
        cert = certify_robust(trace.utilities[i], trace.plays[i], alpha,
                              beta, gamma, eta_star, tol=tol, norm_pair=pair)
        cert.name = f"robust_bound[{i}]"
        rep.certificates.append(cert)
    return rep


def _fit_cost_constants(trace: Trace):
    observations = []
    for i in range(trace.n):
        costs = 1.0 - trace.utilities[i]
        best = float(costs.sum(axis=0).min())
        observations.append((trace.plays[i].shape[1], best, regret(trace, i)))
    return fit_first_order_constants(observations)


def _status(cert: Certificate) -> str:
    return "vacuous" if cert.passed is None else ("pass" if cert.passed else "fail")


def write_report_csv(rep, path=None) -> str:
    """Stable five-column summary: kind,name,value,value2,status.  ``rep`` is
    a RegretReport or a continuous.RoutingReport; its ``summary_names`` pick
    the summary rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "name", "value", "value2", "status"])
    for i, (r_norm, r_raw) in enumerate(zip(rep.regrets, rep.regrets_raw)):
        writer.writerow(["regret", f"player_{i}", repr(r_norm), repr(r_raw), ""])
    for name in rep.summary_names:
        writer.writerow(["summary", name, repr(getattr(rep, name)), "", ""])
    for cert in rep.certificates:
        writer.writerow(["certificate", cert.name, repr(float(cert.lhs)),
                         repr(float(cert.rhs)), _status(cert)])
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
    game = trace.meta.get("game", {})
    if game.get("kind") != "auction":
        raise ValueError("bid trajectories need an auction trace")
    levels = np.asarray(game["bid_levels"], dtype=float)
    return int(game["m"]), levels


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


def mean_bid_oscillation(trace: Trace, player: int) -> float:
    """Mean over rounds of the L1 change in the player's unconditional
    expected-bid-per-item vector — the sawtooth size."""
    m, levels = _auction_layout(trace)
    nb = len(levels)
    w = trace.plays[player]
    expected = np.stack([w[:, j * nb:(j + 1) * nb] @ levels for j in range(m)], axis=1)
    if len(expected) < 2:
        return 0.0
    return float(np.mean(np.sum(np.abs(np.diff(expected, axis=0)), axis=1)))


# ---------------------------------------------------------------------------
# plots


def regret_plot(traces: dict) -> str:
    """Sum-of-regrets and max-individual-regret vs t, one pair of polylines
    per arm.  ``traces`` maps arm label -> Trace."""
    series = []
    for label, trace in traces.items():
        if not isinstance(trace, Trace):
            raise ValueError("regret plots need a normal-form or auction trace")
        per_player = np.stack([regret_series(trace, i) for i in range(trace.n)])
        ts = list(range(1, trace.T + 1))
        series.append((f"{label}: sum of regrets", ts, per_player.sum(axis=0)))
        series.append((f"{label}: max regret", ts, per_player.max(axis=0)))
    return line_plot(series, title="Regret growth", xlabel="round",
                     ylabel="cumulative regret (normalized)")


def bids_plot(trace: Trace) -> str:
    """Per-player conditional expected bid on the player's modal item, plus
    per-round raw expected utility."""
    m, levels = _auction_layout(trace)
    nb = len(levels)
    game = trace.meta["game"]
    scale, shift = float(game.get("scale", 1.0)), float(game.get("shift", 0.0))
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
# the runner: each game kind returns (arms, plots), one writer saves them.  An
# arm is (label, trace file stem, trace writer, report, manifest summary
# fields); plots map an artifact key to (file name, SVG text).


def _out_dir(spec: ExperimentSpec) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    return os.path.join(root, spec.outputs.get("dir") or "experiment")


def _game_arms(spec: ExperimentSpec):
    """Normal-form and auction games: the main arm, the optional baseline arm,
    the regret plot of both, and the bid plot of an auction's main arm."""
    game = build_game_from_config(spec.game)
    n = game.n
    problems = [f"[learner.{i}] refers to player {i} but the game has {n} players"
                for i in spec.overrides if i >= n]
    if spec.smoothness and spec.smoothness.get("s_star") is not None:
        s_star = spec.smoothness["s_star"]
        if len(s_star) != n:
            problems.append(f"game.s_star names {len(s_star)} strategies for "
                            f"{n} players")
        elif any(x >= d for x, d in zip(s_star, game.dims)):
            problems.append("game.s_star has an out-of-range strategy index")
    if problems:
        raise ValueError("; ".join(problems))

    def arm(label, players):
        trace = run(game, players, spec.T, spec.mode)
        trace.meta["seed"] = spec.seed
        if spec.smoothness:
            trace.meta["smoothness"] = spec.smoothness
        traces[label] = trace
        rep = full_report(trace)
        summary = {"regrets": rep.regrets, "sum_regret": rep.sum_regret}
        if label == "main":
            summary.update(T=spec.T, mode=spec.mode, max_regret=rep.max_regret,
                           cce_gap=rep.cce_gap, avg_welfare=rep.avg_welfare)
        return label, "trace", partial(write_trace_csv, trace), rep, summary

    traces = {}
    arms = [arm("main", _arm_players(game, spec.specs_for(n), spec.robust))]
    if spec.baseline is not None:
        arms.append(arm("baseline", [spec.baseline] * n))
    plots = {"regret_svg": ("regret.svg", regret_plot(traces))}
    if spec.game["type"] == "auction":
        plots["bids_svg"] = ("bids.svg", bids_plot(traces["main"]))
    return arms, plots


def _routing_arms(spec: ExperimentSpec):
    """Splittable routing: one arm at the configured or the tuned step size
    1/(2Ln), certified only at the tuned one, and its cost plot."""
    network = build_game_from_config(spec.game)
    eta = spec.learner.eta
    if eta is None:
        eta = continuous._tuned_eta(network, continuous.lipschitz_constant(network))[0]
    trace = continuous.run_continuous(network, eta, spec.T)
    trace.meta["seed"] = spec.seed
    rep = continuous.routing_report(trace)
    ts = list(range(1, spec.T + 1))
    series = [(f"player {i} cost", ts, cost) for i, cost in enumerate(trace.costs)]
    series.append(("total cost", ts, trace.total_cost))
    plot = line_plot(series, title="Routing costs", xlabel="round", ylabel="cost")
    summary = {"T": spec.T, "mode": "routing", "eta": rep.eta,
               "linearized_regrets": rep.regrets, "true_regrets": rep.regrets_raw,
               "sum_linearized_regret": rep.sum_linearized_regret,
               "avg_total_cost": rep.avg_total_cost}
    return [("main", "flows", partial(write_trace_csv, trace), rep, summary)], \
        {"costs_svg": ("costs.svg", plot)}


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None) -> dict:
    """Execute a validated spec and write all artifacts.

    Returns the manifest (also written as manifest.json).  The manifest's
    exit_code is 0 on success and 2 when any claimed certificate fails;
    artifacts are written either way."""
    kind_arms = _routing_arms if spec.game["type"] == "network" else _game_arms
    arms, plots = kind_arms(spec)
    out = out_dir or _out_dir(spec)
    os.makedirs(out, exist_ok=True)
    artifacts = {}
    manifest = {"out_dir": out, "artifacts": artifacts, "exit_code": 0}
    for label, trace_stem, write_trace, rep, summary in arms:
        if rep.failed():
            manifest["exit_code"] = 2
        suffix = "" if label == "main" else f"_{label}"
        artifacts["trace" + suffix] = os.path.join(out, f"{trace_stem}{suffix}.csv")
        write_trace(artifacts["trace" + suffix])
        artifacts["report" + suffix] = os.path.join(out, f"report{suffix}.csv")
        write_report_csv(rep, artifacts["report" + suffix])
        manifest["summary" if label == "main" else f"{label}_summary"] = dict(
            summary, certificates={c.name: _status(c) for c in rep.certificates})
    for key, (name, svg) in plots.items():
        artifacts[key] = os.path.join(out, name)
        write_svg(svg, artifacts[key])
    artifacts["manifest"] = os.path.join(out, "manifest.json")
    with open(artifacts["manifest"], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
