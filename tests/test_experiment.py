"""End-to-end runner, trace-only reporting, bid diagnostics, SVG plots,
and the command-line front end (artifacts, recomputability, exit codes)."""

import hashlib
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import oracles as orc
import regretlab
from regretlab import dynamics
from regretlab.auctions import AuctionGame, AuctionSpec, masked_values
from regretlab.cli import _parse_config_file, main
from regretlab.config import ConfigError, parse_config
from regretlab.continuous import (CongestionNetwork, ContinuousTrace, _tuned_eta,
                                  lipschitz_constant, parse_network, run_continuous)
from regretlab.dynamics import (
    RegretReport,
    Trace,
    read_trace_csv,
    report,
    run,
    write_trace_csv,
    write_trace_file,
)
from regretlab.experiment import (
    OUTPUT_ROOT_ENV,
    _arm_players,
    _game_arms,
    _routing_arms,
    _run_beside,
    bid_trajectory,
    bids_plot,
    build_game_from_config,
    regret_plot,
    run_experiment,
    write_report_csv,
)
from regretlab.games import DEFAULT_ENUM_CAP
from regretlab.learners import Certificate, LearnerSpec
from regretlab.library import make_matrix_game, make_random_game
from regretlab.robust import wrap_doubling
from regretlab.svgplot import line_plot, write_svg

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")

MATRIX_SMOOTH_CFG = """\
[game]
type = matrix
matrix = 1,0; 0,1
lambda = 1
mu = 1
s_star = 0,0

[learner]
algorithm = optimistic_hedge
eta = 0.25

[baseline]
algorithm = hedge
eta = 0.25

[run]
T = 60

[outputs]
dir = arm
"""

# lambda=1, mu=0 demands total utility >= Opt at s* against every profile,
# which the off-diagonal profiles of the identity game refute
REFUTED_CFG = """\
[game]
type = matrix
matrix = 1,0; 0,1
lambda = 1
mu = 0
s_star = 0,0

[learner]
algorithm = optimistic_hedge
eta = 0.25

[run]
T = 30
"""

# no s_star: the search scans every candidate, all of which fail lambda = 5
REFUTED_SEARCH_CFG = REFUTED_CFG.replace("lambda = 1", "lambda = 5").replace(
    "s_star = 0,0\n", "")

AUCTION_CFG = """\
[game]
type = auction
bidders = 2
items = 1
value = 4
bids = 1..3

[learner]
algorithm = optimistic_hedge
eta = 0.2

[run]
T = 40

[outputs]
dir = auc
"""

COST_CFG = """\
[game]
type = matrix
matrix = 0.5,0.5; 0.5,0.5
lambda = 1
mu = 0.5
s_star = 0,0

[learner]
algorithm = first_order_hedge

[run]
T = 80
mode = cost
"""

NET_FILE = """\
edge s t 1 0 0
edge s t 0 0 1
player s t 1
player s t 1
"""

# paths share edges, so a player's cost depends on how the others split
SHARED_EDGE_NET = """\
edge s a 0.2 0.3 0.1
edge a t 0.1 0.5 0.0
edge s b 0.0 1.0 0.2
edge b t 0.3 0.2 0.1
edge a b 0.4 0.1 0.0
edge s t 0.5 0.1 0.3
player s t 1.5
player s t 0.8
player a t 0.6
"""

SHIPPED_CONFIGS = ("auction_fig1.cfg", "cost_congestion.cfg", "matrix_smooth.cfg",
                   "routing.cfg")

NETWORK_CFG = """\
[game]
type = network
path = net.txt

[learner]
algorithm = optimistic_hedge

[run]
T = 50

[outputs]
dir = routing
"""


def polylines(svg_text: str) -> int:
    root = ET.fromstring(svg_text)
    return sum(1 for el in root.iter() if el.tag.endswith("polyline"))


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def network_spec(tmp_path, cfg_text=NETWORK_CFG):
    """Parse a network config and absolutize the graph path the way the CLI
    does (relative to the config's own directory)."""
    net = tmp_path / "net.txt"
    net.write_text(NET_FILE)
    spec = parse_config(cfg_text)
    spec.game["path"] = str(net)
    return spec


# ---------------------------------------------------------------------------
# bid-trajectory diagnostics


LEVELS_20 = [float(b) for b in range(1, 21)]


def auction_trace(plays_rows, m, levels):
    """A one-bidder auction trace of the given plays, every item worth 1."""
    game = AuctionGame(AuctionSpec(1, m, np.ones((1, m)), levels))
    return Trace(game, [np.asarray(plays_rows, dtype=float)])


class TestBidTrajectory:
    def test_uniform_strategy_splits_mass_evenly(self):
        # 4 items x 20 levels: each item holds a quarter of the mass and the
        # conditional bid is the plain average of 1..20
        tr = auction_trace(np.full((3, 80), 1.0 / 80.0), 4, LEVELS_20)
        for item in range(4):
            prob, cond = bid_trajectory(tr, 0, item)
            assert prob == pytest.approx([0.25] * 3, abs=1e-12)
            assert cond == pytest.approx([10.5] * 3, abs=1e-12)

    def test_point_mass_reads_back_exactly(self):
        w = np.zeros((2, 80))
        w[:, 1 * 20 + 6] = 1.0  # all mass on item 1 at bid level 7
        tr = auction_trace(w, 4, LEVELS_20)
        prob, cond = bid_trajectory(tr, 0, 1)
        assert prob.tolist() == [1.0, 1.0]
        assert cond.tolist() == [7.0, 7.0]
        prob0, cond0 = bid_trajectory(tr, 0, 0)
        assert prob0.tolist() == [0.0, 0.0]
        assert cond0.tolist() == [0.0, 0.0]  # no mass -> bid reported as 0

    def test_matches_split_oracle_on_arbitrary_strategies(self):
        m, levels = 3, [1.0, 2.0, 4.0]
        rng = np.random.default_rng(5)
        w = rng.random((6, 9))
        w /= w.sum(axis=1, keepdims=True)
        tr = auction_trace(w, m, levels)
        for item in range(m):
            prob, cond = bid_trajectory(tr, 0, item)
            for t in range(6):
                p, c = orc.bid_split(w[t].tolist(), m, levels, item)
                assert prob[t] == pytest.approx(p, abs=1e-12)
                assert cond[t] == pytest.approx(c, abs=1e-12)

    def test_index_validation(self):
        tr = auction_trace(np.full((2, 4), 0.25), 2, [1.0, 2.0])
        with pytest.raises(ValueError, match="player index 5 out of range"):
            bid_trajectory(tr, 5, 0)
        with pytest.raises(ValueError, match="item index 2 out of range"):
            bid_trajectory(tr, 0, 2)

    def test_rejects_non_auction_traces(self):
        g = make_matrix_game(np.eye(2))
        tr = run(g, [LearnerSpec("hedge", 0.1)] * 2, 3)
        with pytest.raises(ValueError, match="auction trace"):
            bid_trajectory(tr, 0, 0)
        with pytest.raises(ValueError, match="auction trace"):
            orc.mean_bid_oscillation(tr, 0)


class TestMeanBidOscillation:
    def test_hand_computed_case(self):
        # expected-bid vectors per round: (1,0) -> (2,0) -> (0,1.5);
        # L1 jumps are 1 and 3.5, so the mean is 2.25
        w = [[1, 0, 0, 0],
             [0, 1, 0, 0],
             [0, 0, 0.5, 0.5]]
        tr = auction_trace(w, 2, [1.0, 2.0])
        assert orc.mean_bid_oscillation(tr, 0) == pytest.approx(2.25, abs=1e-12)

    def test_single_round_has_no_oscillation(self):
        tr = auction_trace(np.full((1, 4), 0.25), 2, [1.0, 2.0])
        assert orc.mean_bid_oscillation(tr, 0) == 0.0

    def test_matches_plain_loop_recompute(self):
        m, levels = 2, [1.0, 3.0, 5.0]
        rng = np.random.default_rng(9)
        w = rng.random((8, 6))
        w /= w.sum(axis=1, keepdims=True)
        tr = auction_trace(w, m, levels)
        nb = len(levels)
        exp = [[sum(levels[b] * w[t][j * nb + b] for b in range(nb))
                for j in range(m)] for t in range(8)]
        jumps = [sum(abs(exp[t + 1][j] - exp[t][j]) for j in range(m))
                 for t in range(7)]
        assert orc.mean_bid_oscillation(tr, 0) == pytest.approx(
            sum(jumps) / len(jumps), abs=1e-12)


# ---------------------------------------------------------------------------
# report CSV


class TestReportCsv:
    def test_layout_and_statuses(self):
        rep = RegretReport(
            regrets=[0.5, 0.25], regrets_raw=[1.0, 0.5],
            summary={"sum_regret": 0.75, "max_regret": 0.5, "cce_gap": 0.5,
                     "avg_welfare": 1.25},
            certificates=[
                Certificate("good", True, 1.0, 2.0, {}),
                Certificate("bad", False, 3.0, 2.0, {}),
                Certificate("maybe", None, 0.0, 0.0, {}),
            ],
            extras={"k": 7.5},
        )
        lines = write_report_csv(rep).splitlines()
        assert lines[0] == "kind,name,value,value2,status"
        assert lines[1] == "regret,player_0,0.5,1.0,"
        assert lines[2] == "regret,player_1,0.25,0.5,"
        assert lines[3:7] == ["summary,sum_regret,0.75,,", "summary,max_regret,0.5,,",
                              "summary,cce_gap,0.5,,", "summary,avg_welfare,1.25,,"]
        assert "certificate,good,1.0,2.0,pass" in lines
        assert "certificate,bad,3.0,2.0,fail" in lines
        assert "certificate,maybe,0.0,0.0,vacuous" in lines
        assert lines[-1] == "extra,k,7.5,,"

    def test_values_round_trip_through_repr(self, tmp_path):
        g = make_matrix_game(np.array([[0.9, 0.2], [0.3, 0.7]]))
        tr = run(g, [LearnerSpec("optimistic_hedge", 0.3)] * 2, 25)
        rep = report(tr)
        path = tmp_path / "report.csv"
        text = write_report_csv(rep, str(path))
        assert read(str(path)) == text
        rows = [line.split(",") for line in text.splitlines()[1:]]
        by_name = {(r[0], r[1]): r for r in rows}
        assert float(by_name[("summary", "sum_regret")][2]) == rep.summary["sum_regret"]
        for i in (0, 1):
            assert float(by_name[("regret", f"player_{i}")][2]) == rep.regrets[i]


class TestOnePassRule:
    """Every certificate the package emits passes exactly when lhs <= rhs +
    tol, or is vacuous; on runs its guarantee covers it passes, so a site
    that stores its lhs and rhs the wrong way round shows."""

    NAMES = ["variation_bound", "sum_regret_bound", "play_stability", "regret_vs_stability",
             "individual_rate", "welfare_floor", "smoothness_claim", "cost_welfare",
             "robust_bound", "total_linearized_regret"]

    @pytest.fixture(scope="class")
    def certificates(self):
        """Every arm of every shipped config, reported in memory, plus seeded
        cost, doubling-wrapped and rate-tuned (eta = T^-1/4) self-play."""
        reports = []
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "fork")  # every arm in this process, so each report is kept
            for name in SHIPPED_CONFIGS:
                spec = _parse_config_file(os.path.join(CONFIG_DIR, name))
                arms = _routing_arms if spec.game["type"] == "network" else _game_arms
                arms(spec, lambda _label, _stem, _trace, rep, _summary: reports.append(rep))
        assert len(reports) == 6  # auction_fig1 and matrix_smooth have two arms each
        g = make_random_game(2, [3, 3], seed=5)
        cost = run(g, [LearnerSpec("first_order_hedge")] * 2, 200, "cost")
        cost.meta["smoothness"] = {"lambda": 5.0, "mu": 0.5, "s_star": None}
        wrapped = [wrap_doubling(LearnerSpec("optimistic_hedge"), 3, 0.5),
                   wrap_doubling(LearnerSpec("optimistic_hedge"), 3, 0.5)]
        for tr in (cost, run(g, wrapped, 60),
                   run(g, [LearnerSpec("optimistic_hedge", 0.5)] * 2, 16)):
            reports.append(report(tr))
        return [c for rep in reports for c in rep.certificates]

    def test_the_names_are_every_name_emitted(self, certificates):
        assert {c.name.split("[")[0] for c in certificates} == set(self.NAMES)

    @pytest.mark.parametrize("name", NAMES)
    def test_passed_is_lhs_at_most_rhs_plus_tol(self, certificates, name):
        tol = 1e-6 if name == "total_linearized_regret" else 1e-9
        for c in [c for c in certificates if c.name.split("[")[0] == name]:
            assert c.passed is None or c.passed is bool(c.lhs <= c.rhs + tol), c
            assert c.passed is not False, c


def _stuck_trace(T: int, learner: dict, rows) -> Trace:
    """A T-round trace of the identity matrix game whose column player stays
    on column 0 while the row player plays ``rows[t % len(rows)]``, both
    declared as ``learner``: row 1 is the row player's worst vertex."""
    g = make_matrix_game(np.eye(2))
    row = np.eye(2)[[rows[t % len(rows)] for t in range(T)]]
    meta = {"game": g.describe(), "learners": [learner] * 2, "T": T, "mode": "utility"}
    return Trace(g, [row, np.tile([1.0, 0.0], (T, 1))], meta)


def _congested_trace(T: int) -> ContinuousTrace:
    """A T-round routing trace at the tuned step 1/64 whose two players both
    route all their flow on the quadratic path, whose gradient (8) is 7 above
    the constant path's: 14 linearized regret a round."""
    net = CongestionNetwork([("s", "t", 1.0, 0.0, 0.0), ("s", "t", 0.0, 0.0, 1.0)],
                            [("s", "t", 1.0)] * 2)
    meta = {"game": net.describe(), "eta": 1.0 / 64.0, "T": T, "mode": "routing"}
    return ContinuousTrace(net, [np.tile([1.0, 0.0], (T, 1))] * 2, meta)


OPT_HEDGE = LearnerSpec("optimistic_hedge", 0.5).to_dict()  # 0.5 = 16^(-1/4), the rate's eta


class TestLearnerClaimsFail:
    """Each learner claim fails on a trace whose plays its declared learner
    did not produce, read back through ``regretlab report``: at T = 16 the
    row player's regret 16 on its worst vertex exceeds every loose bound, a
    row player hopping between vertices moves 2 > 2 eta a round, and routing
    flow stuck on the costly path exceeds n R / eta."""

    TRACES = {
        "variation_bound": lambda: _stuck_trace(16, OPT_HEDGE, [1]),
        "sum_regret_bound": lambda: _stuck_trace(16, OPT_HEDGE, [1]),
        "play_stability": lambda: _stuck_trace(16, OPT_HEDGE, [0, 1]),
        "regret_vs_stability": lambda: _stuck_trace(16, OPT_HEDGE, [1]),
        "individual_rate": lambda: _stuck_trace(16, OPT_HEDGE, [1]),
        "robust_bound": lambda: _stuck_trace(16, {
            "algorithm": "robust", "eta_star": 1.0,
            "inner": LearnerSpec("optimistic_hedge").to_dict()}, [1]),
        "total_linearized_regret": lambda: _congested_trace(16),
    }

    @pytest.mark.parametrize("name", TRACES)
    def test_a_claim_fails_on_plays_its_learner_did_not_produce(self, tmp_path, capsys, name):
        path = str(tmp_path / "trace.csv")
        write_trace_file(self.TRACES[name](), path)
        assert main(["report", path]) == 2
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert "fail" in [row[4] for row in rows if row[1].split("[")[0] == name]


def test_the_rule_table_names_each_certificate_once_with_its_kind():
    assert [rule.name for rule in dynamics._RULES] == TestOnePassRule.NAMES
    kinds = {rule.name: rule.kind for rule in dynamics._RULES}
    assert set(kinds.values()) == {"learner claim", "game claim", "consistency check"}
    assert [name for name, kind in kinds.items() if kind != "learner claim"] == [
        "welfare_floor", "smoothness_claim", "cost_welfare"]
    assert kinds["smoothness_claim"] == "game claim"


# ---------------------------------------------------------------------------
# run_experiment artifacts


class TestRunExperiment:
    def test_matrix_arm_writes_every_artifact(self, tmp_path):
        out = str(tmp_path / "arm")
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG), out_dir=out)
        assert manifest["exit_code"] == 0
        for key in ("trace", "report", "trace_baseline", "report_baseline",
                    "regret_svg", "manifest"):
            assert os.path.exists(manifest["artifacts"][key]), key
        assert "bids_svg" not in manifest["artifacts"]
        summary = manifest["summary"]
        assert summary["T"] == 60 and summary["mode"] == "utility"
        assert summary["certificates"]["smoothness_claim"] == "pass"
        assert summary["certificates"]["welfare_floor"] == "pass"
        assert summary["certificates"]["sum_regret_bound"] == "pass"
        assert manifest["baseline_summary"]["certificates"][
            "smoothness_claim"] == "pass"
        with open(manifest["artifacts"]["manifest"], "r", encoding="utf-8") as fh:
            assert json.load(fh) == manifest

    def test_a_robust_config_wraps_each_two_strategy_player(self, tmp_path):
        cfg = MATRIX_SMOOTH_CFG.replace("[run]", "[robust]\neta_star = 0.25\n\n[run]")
        manifest = run_experiment(parse_config(cfg), out_dir=str(tmp_path / "arm"))
        assert {"robust_bound[0]", "robust_bound[1]"} <= set(manifest["summary"]["certificates"])

    def test_regret_svg_has_one_polyline_per_series(self, tmp_path):
        out = str(tmp_path / "arm")
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG), out_dir=out)
        svg = read(manifest["artifacts"]["regret_svg"])
        # two arms, each plotting sum-of-regrets and max-regret
        assert polylines(svg) == 4

    def test_report_is_recomputable_from_trace_alone(self, tmp_path):
        out = str(tmp_path / "arm")
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG), out_dir=out)
        for trace_key, report_key in (("trace", "report"),
                                      ("trace_baseline", "report_baseline")):
            trace = read_trace_csv(manifest["artifacts"][trace_key])
            rebuilt = write_report_csv(report(trace))
            assert rebuilt == read(manifest["artifacts"][report_key])

    def test_two_runs_are_byte_identical(self, tmp_path):
        m1 = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                            out_dir=str(tmp_path / "a"))
        m2 = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                            out_dir=str(tmp_path / "b"))
        for key in ("trace", "report", "trace_baseline", "regret_svg"):
            assert read(m1["artifacts"][key]) == read(m2["artifacts"][key])

    def test_failed_certificate_exits_2_but_still_writes(self, tmp_path):
        out = str(tmp_path / "bad")
        manifest = run_experiment(parse_config(REFUTED_CFG), out_dir=out)
        assert manifest["exit_code"] == 2
        assert manifest["summary"]["certificates"]["smoothness_claim"] == "fail"
        assert os.path.exists(manifest["artifacts"]["trace"])
        assert os.path.exists(manifest["artifacts"]["manifest"])

    def test_auction_arm_adds_bid_plot(self, tmp_path):
        out = str(tmp_path / "auc")
        manifest = run_experiment(parse_config(AUCTION_CFG), out_dir=out)
        assert manifest["exit_code"] == 0
        svg = read(manifest["artifacts"]["bids_svg"])
        assert polylines(svg) == 4  # 2 players x (bid curve + utility curve)

    def test_output_root_env_and_outputs_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        manifest = run_experiment(parse_config(AUCTION_CFG))
        assert manifest["out_dir"] == os.path.join(str(tmp_path), "auc")
        assert os.path.exists(os.path.join(str(tmp_path), "auc", "trace.csv"))

    def test_default_directory_when_outputs_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        manifest = run_experiment(parse_config(REFUTED_CFG))
        assert manifest["out_dir"] == os.path.join(str(tmp_path), "experiment")

    def test_dense_game_checks_deferred_to_runner(self, tmp_path):
        # player counts for dense_csv games are only known once the file is
        # read, so override/s_star range checks happen here, not at parse time
        payoffs = tmp_path / "payoffs.csv"
        payoffs.write_text("2,2,2\n"
                           "0,0,0.1,0.2\n0,1,0.3,0.4\n"
                           "1,0,0.5,0.6\n1,1,0.7,0.8\n")
        cfg = (f"[game]\ntype = dense_csv\npath = {payoffs}\n"
               "lambda = 1\nmu = 1\ns_star = 0,0,0\n"
               "[learner]\nalgorithm = hedge\neta = 0.1\n"
               "[learner.5]\nalgorithm = hedge\neta = 0.2\n"
               "[run]\nT = 5\n")
        spec = parse_config(cfg)
        with pytest.raises(ValueError) as excinfo:
            run_experiment(spec, out_dir=str(tmp_path / "out"))
        msg = str(excinfo.value)
        assert "[learner.5] refers to player 5 but the game has 2 players" in msg
        assert "s_star [0, 0, 0] is not a pure profile of a game with dims [2, 2]" in msg

    def test_masked_auction_values_and_report_round_trip(self, tmp_path, capsys):
        spec = parse_config(AUCTION_CFG.replace("items = 1\nvalue = 4\n",
                                                "items = 3\nvalue = 4\nvalue_mask_seed = 7\n"))
        game = build_game_from_config(spec.game)
        np.testing.assert_array_equal(game.spec.values, masked_values(2, 3, 4.0, 7))
        manifest = run_experiment(spec, out_dir=str(tmp_path / "auc"))
        assert main(["report", manifest["artifacts"]["trace"]]) == manifest["exit_code"]
        assert capsys.readouterr().out == read(manifest["artifacts"]["report"])


    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_shipped_config_reports_and_plots_rerun_byte_identical(self, tmp_path, capsys,
                                                                     name):
        cfg = os.path.join(CONFIG_DIR, name)
        runs = []
        for arm in ("one", "two"):
            assert main(["simulate", cfg, "--out", str(tmp_path / arm)]) == 0
            runs.append({f: (tmp_path / arm / f).read_bytes()
                         for f in os.listdir(tmp_path / arm)
                         if f.startswith("report") or f.endswith(".svg")})
        assert any(f.endswith(".svg") for f in runs[0]), name
        assert any(f.startswith("report") for f in runs[0]), name
        assert runs[0] == runs[1], name
        # re-reporting each trace (flows.csv for routing) reproduces its report file
        traces = [f for f in os.listdir(tmp_path / "one")
                  if f.startswith("trace") or f == "flows.csv"]
        assert traces, name
        for f in traces:
            capsys.readouterr()
            assert main(["report", str(tmp_path / "one" / f)]) == 0
            report = "report.csv" if f == "flows.csv" else f.replace("trace", "report")
            assert capsys.readouterr().out.encode() == runs[0][report]


def _digests(out) -> dict:
    """SHA-256 of every file under ``out`` by name, its path blanked in the bytes."""
    return {name: hashlib.sha256((out / name).read_bytes().replace(
        str(out).encode(), b"<OUT>")).hexdigest() for name in os.listdir(out)}


MATRIX_BASELINE = "[baseline]\nalgorithm = hedge\neta = 0.25\n"
MATRIX_MAIN = "[learner]\nalgorithm = optimistic_hedge\neta = 0.25\n"


class TestForkedBaseline:
    """A baseline arm runs in a child forked beside the main arm: the bytes
    are those of one arm after the other, each arm's error comes back as it
    was raised, and no child outlives the call."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("name", ["matrix_smooth.cfg", "auction_fig1.cfg"])
    def test_the_bytes_are_those_of_one_arm_after_the_other(self, tmp_path, monkeypatch,
                                                             name):
        spec = _parse_config_file(os.path.join(CONFIG_DIR, name))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        run_experiment(spec, str(tmp_path / "forked"))
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        run_experiment(spec, str(tmp_path / "serial"))
        forked = _digests(tmp_path / "forked")
        assert "trace_baseline.csv" in forked and "manifest.json" in forked
        assert forked == _digests(tmp_path / "serial")

    def test_a_failing_baseline_keeps_the_main_arms_files(self, tmp_path, monkeypatch,
                                                          capsys):
        cfg = write_cfg(tmp_path, MATRIX_SMOOTH_CFG.replace(
            MATRIX_BASELINE, MATRIX_BASELINE.replace("0.25", "1e308")))
        done = run_module("simulate", cfg, "--out", str(tmp_path / "forked"))
        monkeypatch.delattr(os, "fork")
        assert main(["simulate", cfg, "--out", str(tmp_path / "serial")]) == 1
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == capsys.readouterr().err
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ") and "eta = 1e+308 is too large" in line
        for out in ("forked", "serial"):  # the main arm's files stay; no manifest
            assert sorted(os.listdir(tmp_path / out)) == ["report.csv", "trace.csv"]

    @pytest.mark.parametrize("baseline_eta, kept", [
        ("0.25", ["report_baseline.csv", "trace_baseline.csv"]), ("1e307", None),
    ], ids=["healthy", "failing"])
    def test_a_failing_main_arm_reports_its_own_error(self, tmp_path, baseline_eta, kept):
        cfg = write_cfg(tmp_path, MATRIX_SMOOTH_CFG.replace(
            MATRIX_MAIN, MATRIX_MAIN.replace("0.25", "1e308")).replace(
            MATRIX_BASELINE, MATRIX_BASELINE.replace("0.25", baseline_eta)))
        out = tmp_path / "out"
        done = run_module("simulate", cfg, "--out", str(out))
        assert done.returncode == 1 and "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert "eta = 1e+308 is too large" in line and "1e+307" not in line
        # a baseline that finished keeps its files; there is no manifest
        assert (sorted(os.listdir(out)) if out.exists() else None) == kept


class TestRunBeside:
    """``experiment._run_beside``: the second call runs in a forked child,
    the first here, and both results come back in order."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_second_call_runs_in_another_process(self):
        here, there = _run_beside(os.getpid, os.getpid)
        assert here == os.getpid() != there

    def test_without_fork_both_run_here_in_order(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        calls = []
        assert _run_beside(lambda: calls.append(1) or 1, lambda: calls.append(2) or 2) == [1, 2]
        assert calls == [1, 2]

    def test_the_childs_exception_is_raised_with_its_type_and_message(self):
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            _run_beside(lambda: None, lambda: 1 / 0)

    def test_when_both_fail_the_first_calls_exception_wins(self):
        with pytest.raises(KeyError, match="first"):
            _run_beside(lambda: {}["first"], lambda: 1 / 0)

    def test_a_child_that_sends_nothing_is_an_os_error(self):
        with pytest.raises(ChildProcessError, match="without sending its result"):
            _run_beside(lambda: None, lambda: os._exit(3))

    def test_the_child_never_flushes_this_processs_buffers(self, tmp_path):
        path = tmp_path / "buffered.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("once")  # still in the buffer when the child is forked
            _run_beside(lambda: None, lambda: None)
        assert path.read_text(encoding="utf-8") == "once"


def shipped_arm_traces(spec, T):
    """Every arm of a shipped config's spec, run for T rounds as
    ``run_experiment`` runs it: (label, trace)."""
    game = build_game_from_config(spec.game)
    if spec.game["type"] == "network":
        eta = _tuned_eta(game, lipschitz_constant(game))[0]
        return [("main", run_continuous(game, eta, T))]
    arms = [("main", _arm_players(game, spec.specs_for(game.n), spec.robust))]
    if spec.baseline is not None:
        arms.append(("baseline", [spec.baseline] * game.n))
    return [(label, run(game, players, T, spec.mode)) for label, players in arms]


class TestStreamedTraceFile:
    """``write_trace_file``, the runner's trace writer, writes the
    bytes of ``write_trace_csv``'s text for every arm of every shipped config
    (routing's ``flows.csv`` among them), at one round, on both sides of a
    write chunk (``_TRACE_CHUNK_ROWS // n`` rounds) and at the config's T."""

    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_bytes_equal_the_text_of_write_trace_csv(self, name, tmp_path):
        spec = parse_config(read(os.path.join(CONFIG_DIR, name)))
        if "path" in spec.game:
            spec.game["path"] = os.path.join(CONFIG_DIR, spec.game["path"])
        step = dynamics._TRACE_CHUNK_ROWS // build_game_from_config(spec.game).n
        for T in sorted({1, step - 1, step, step + 1, spec.T}):
            for label, trace in shipped_arm_traces(spec, T):
                path = tmp_path / f"{label}-{T}.csv"
                assert write_trace_file(trace, str(path)) is None
                assert path.read_bytes() == write_trace_csv(trace).encode(), (label, T)


class TestNetworkExperiment:
    def test_artifacts_and_tuned_step_size(self, tmp_path):
        spec = network_spec(tmp_path)
        out = str(tmp_path / "routing")
        manifest = run_experiment(spec, out_dir=out)
        assert manifest["exit_code"] == 0
        for key in ("trace", "report", "costs_svg", "manifest"):
            assert os.path.exists(manifest["artifacts"][key]), key
        assert manifest["artifacts"]["trace"].endswith("flows.csv")
        # K = max(2aF+b, 2a) = 4 on the quadratic edge; L = K(1+B)m = 16;
        # eta = 1/(2Ln) = 1/64
        assert manifest["summary"]["eta"] == pytest.approx(1.0 / 64.0)
        assert manifest["summary"]["certificates"] == {
            "total_linearized_regret": "pass"}
        # the certified bound: n * max_i f_i ln|P_i| / eta = 2 * ln2 * 64
        assert manifest["summary"]["sum_linearized_regret"] <= \
            2.0 * np.log(2.0) * 64.0

    def test_flows_csv_layout(self, tmp_path):
        spec = network_spec(tmp_path)
        manifest = run_experiment(spec, out_dir=str(tmp_path / "routing"))
        lines = read(manifest["artifacts"]["trace"]).splitlines()
        meta = json.loads(lines[0][len("# meta="):])
        assert meta["game"]["kind"] == "network"
        assert meta["game"]["players"] == [["s", "t", 1.0], ["s", "t", 1.0]]
        assert lines[1] == "t,player,cost,total_cost,flow_0,flow_1"
        assert len(lines) == 2 + 2 * 50  # header rows + (players x T)
        first = lines[2].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert sum(float(x) for x in first[4:]) == pytest.approx(1.0, abs=1e-12)

    def test_untuned_step_size_skips_the_certificate(self, tmp_path):
        cfg = NETWORK_CFG.replace("algorithm = optimistic_hedge",
                                  "algorithm = optimistic_hedge\neta = 0.01")
        spec = network_spec(tmp_path, cfg)
        manifest = run_experiment(spec, out_dir=str(tmp_path / "routing"))
        assert manifest["summary"]["eta"] == 0.01
        assert manifest["summary"]["certificates"] == {}
        assert manifest["exit_code"] == 0
        assert "certificate" not in read(manifest["artifacts"]["report"])

    def test_flows_csv_matches_the_csv_writer_oracle(self, tmp_path):
        spec = network_spec(tmp_path)
        manifest = run_experiment(spec, out_dir=str(tmp_path / "routing"))
        net = build_game_from_config(spec.game)
        trace = run_continuous(net, _tuned_eta(net, lipschitz_constant(net))[0], spec.T)
        values = [np.column_stack((c, trace.total_cost)) for c in trace.costs]
        with open(manifest["artifacts"]["trace"], "rb") as fh:
            assert fh.read() == orc.csv_trace_rows(
                trace.meta, ("cost", "total_cost"), values, "flow", trace.flows).encode()

    def test_costs_svg_has_player_and_total_series(self, tmp_path):
        spec = network_spec(tmp_path)
        manifest = run_experiment(spec, out_dir=str(tmp_path / "routing"))
        assert polylines(read(manifest["artifacts"]["costs_svg"])) == 3

    def test_recorded_costs_match_the_loop_oracle_every_round(self):
        net = parse_network(SHARED_EDGE_NET)
        trace = run_continuous(net, 0.05, 40)
        assert trace.costs.shape == (net.n, 40)
        for t in range(trace.T):
            flows = [trace.flows[j][t] for j in range(net.n)]
            for i in range(net.n):
                expect = orc.routing_player_cost(net.edges, net.paths, flows, i)
                assert trace.costs[i, t] == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_report_csv_rows_in_order(self, tmp_path):
        spec = network_spec(tmp_path)
        manifest = run_experiment(spec, out_dir=str(tmp_path / "routing"))
        rows = [line.split(",") for line in
                read(manifest["artifacts"]["report"]).splitlines()]
        assert rows[0] == ["kind", "name", "value", "value2", "status"]
        summary = manifest["summary"]
        assert rows[1:3] == [
            ["regret", f"player_{i}", repr(summary["linearized_regrets"][i]),
             repr(summary["true_regrets"][i]), ""] for i in range(2)]
        assert [r[:2] for r in rows[3:7]] == [
            ["summary", "sum_linearized_regret"], ["summary", "avg_total_cost"],
            ["summary", "lipschitz_L"], ["summary", "eta"]]
        assert [r[2] for r in rows[3:7]] == [
            repr(summary["sum_linearized_regret"]), repr(summary["avg_total_cost"]),
            "16.0", repr(1.0 / 64.0)]
        assert [r[0] + "," + r[1] + "," + r[4] for r in rows[7:]] == [
            "certificate,total_linearized_regret,pass"]

    def test_manifest_keys(self, tmp_path):
        spec = network_spec(tmp_path)
        manifest = run_experiment(spec, out_dir=str(tmp_path / "routing"))
        assert sorted(manifest) == ["artifacts", "exit_code", "out_dir", "summary"]
        assert sorted(manifest["artifacts"]) == ["costs_svg", "manifest", "report",
                                                 "trace"]
        assert sorted(manifest["summary"]) == [
            "T", "avg_total_cost", "certificates", "eta", "linearized_regrets",
            "mode", "sum_linearized_regret", "true_regrets"]


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliSimulate:
    def test_success_prints_summary_and_exits_0(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MATRIX_SMOOTH_CFG)
        code = main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "T=60 mode=utility" in out
        assert "certificate smoothness_claim: pass" in out
        assert "wrote trace:" in out and "wrote manifest:" in out
        assert os.path.exists(str(tmp_path / "out" / "trace.csv"))

    def test_one_strategy_player_runs_and_reports(self, tmp_path, capsys):
        # player 1 has one strategy, so its declared alpha = ln(1)/eta is 0
        cfg = write_cfg(tmp_path, "[game]\ntype = matrix\nmatrix = 1; 0\n"
                        "[learner]\nalgorithm = optimistic_hedge\neta = 0.25\n"
                        "[run]\nT = 50\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "certificate variation_bound[1]: pass" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "out" / "trace.csv")]) == 0

    def test_geometric_discount_zero_runs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[game]\ntype = matrix\nmatrix = 1,0; 0,1\n"
                        "[learner]\nalgorithm = oftrl\neta = 0.25\n"
                        "predictor = geometric\npredictor_param = 0\n[run]\nT = 50\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "certificate variation_bound[0]: pass" in capsys.readouterr().out

    def test_certificate_failure_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, REFUTED_CFG)
        code = main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "certificate smoothness_claim: fail" in capsys.readouterr().out

    def test_refuted_claim_without_s_star_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, REFUTED_SEARCH_CFG)
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "certificate smoothness_claim: fail" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "out" / "trace.csv")]) == 2
        assert "certificate,smoothness_claim,0.0,-5.0,fail" in capsys.readouterr().out

    def test_cost_claim_without_s_star_searches(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COST_CFG.replace("s_star = 0,0\n", ""))
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "certificate smoothness_claim: pass" in out
        assert "certificate cost_welfare: pass" in out

    def test_invalid_config_exits_1_with_line_numbers(self, tmp_path, capsys):
        # config problems abort before any handler logic, argparse-style
        cfg = write_cfg(tmp_path, "[game]\ntype = matrix\nmatrix = 2,0; 0,1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "is not a valid config:" in err
        assert "line 3: game.matrix entries must lie in [0, 1]" in err
        assert "missing required section [learner]" in err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(tmp_path / "nope.cfg")])
        assert excinfo.value.code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_runner_rejection_exits_1(self, tmp_path, capsys):
        payoffs = tmp_path / "p.csv"
        payoffs.write_text("2,2,2\n0,0,0.1,0.2\n0,1,0.3,0.4\n"
                           "1,0,0.5,0.6\n1,1,0.7,0.8\n")
        cfg = write_cfg(tmp_path,
                        "[game]\ntype = dense_csv\npath = p.csv\n"
                        "[learner]\nalgorithm = hedge\neta = 0.1\n"
                        "[learner.9]\nalgorithm = hedge\neta = 0.1\n"
                        "[run]\nT = 5\n")
        code = main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "refers to player 9" in capsys.readouterr().err

    def test_out_of_range_s_star_on_a_dense_game_exits_1(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text("2,2,2\n0,0,0.1,0.2\n0,1,0.3,0.4\n"
                                        "1,0,0.5,0.6\n1,1,0.7,0.8\n")
        cfg = write_cfg(tmp_path, "[game]\ntype = dense_csv\npath = p.csv\n"
                        "lambda = 1\nmu = 1\ns_star = 0,2\n"
                        "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 5\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: s_star [0, 2] is not a pure profile of a game with dims [2, 2]\n"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("cfg_text", [
        NETWORK_CFG.replace("net.txt", "missing.txt"),
        "[game]\ntype = dense_csv\npath = missing.csv\n"
        "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 5\n",
    ], ids=["network", "dense_csv"])
    def test_missing_game_file_exits_1(self, tmp_path, capsys, cfg_text):
        cfg = write_cfg(tmp_path, cfg_text)
        code = main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("text, message", [
        ("2,2,2\n5,0,0.5,0.5\n",
         "dense-game line 2: profile [5, 0] lies outside the dims [2, 2]"),
        ("2,2,2\n-1,-1,0.5,0.5\n",
         "dense-game line 2: profile [-1, -1] lies outside the dims [2, 2]"),
        ("2,2,2\n0,0,0.5,0.5\n0,0,0.1,0.1\n", "dense-game line 3: profile [0, 0] appears twice"),
        ("", "empty dense-game file"),
        ("2,2,2\n0,0,0.5,0.5\n0,1,0.5\n", "dense-game line 3: 3 fields, expected 4"),
    ], ids=["index-past-dims", "negative-index", "duplicate-profile", "empty-file", "short-row"])
    def test_bad_dense_csv_row_exits_1(self, tmp_path, capsys, text, message):
        (tmp_path / "p.csv").write_text(text)
        cfg = write_cfg(tmp_path, "[game]\ntype = dense_csv\npath = p.csv\n"
                        "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 5\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("edge, message", [
        ("edge s t nan 0 0", "latency coefficients on s->t must be finite and >= 0"),
        ("edge s t inf 0 0", "latency coefficients on s->t must be finite and >= 0"),
        ("edge s t 1 0 0\nplayer s t inf", "flow amount must be positive and finite for s->t"),
    ], ids=["nan-coefficient", "inf-coefficient", "inf-flow"])
    def test_non_finite_network_file_exits_1(self, tmp_path, capsys, edge, message):
        (tmp_path / "net.txt").write_text(edge + "\nplayer s t 1\n")
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_constant_latencies_need_an_explicit_eta(self, tmp_path, capsys):
        # L = 0 on a constant-latency network: no tuned step size exists, so
        # an unset eta is an error and a set one runs without the certificate
        (tmp_path / "net.txt").write_text("edge s t 0 0 1\nedge s t 0 0 2\n"
                                          "player s t 1\nplayer s t 1\n")
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: every latency is constant (L = 0), so there is no tuned step size; "
            "set [learner] eta\n")
        cfg = write_cfg(tmp_path, NETWORK_CFG.replace("optimistic_hedge\n",
                                                      "optimistic_hedge\neta = 0.1\n"))
        assert main(["simulate", cfg, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "eta=0.1" in out and "certificate" not in out
        report = (tmp_path / "out" / "report.csv").read_text()
        assert "summary,lipschitz_L,0.0,," in report and "certificate" not in report
        assert main(["report", str(tmp_path / "out" / "flows.csv")]) == 0
        assert capsys.readouterr().out == report

    def test_game_path_is_relative_to_the_config(self, tmp_path, capsys,
                                                 monkeypatch):
        (tmp_path / "net.txt").write_text(NET_FILE)
        cfg = write_cfg(tmp_path, NETWORK_CFG)
        monkeypatch.chdir(tmp_path / "..")  # anywhere but tmp_path
        code = main(["simulate", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode=routing" in out
        assert "certificate total_linearized_regret: pass" in out


def meta_without(key):
    return lambda meta: {k: v for k, v in meta.items() if k != key}


def meta_with(**entries):
    return lambda meta: {**meta, **entries}


def meta_with_learner(entry):
    """The meta with ``entry`` as player 1's learner."""
    return lambda meta: {**meta, "learners": [meta["learners"][0], entry]}


ALGORITHMS = "bestresponse, first_order_hedge, hedge, oftrl, omd, optimistic_hedge"


class TestCliReport:
    def test_stdout_matches_the_written_report_exactly(self, tmp_path, capsys):
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        capsys.readouterr()
        code = main(["report", manifest["artifacts"]["trace"]])
        assert code == 0
        assert capsys.readouterr().out == read(manifest["artifacts"]["report"])

    @pytest.mark.parametrize("name", ["matrix_smooth.cfg", "cost_congestion.cfg",
                                      "routing.cfg"])
    def test_stdout_is_the_report_of_the_in_memory_trace(self, tmp_path, capsys, name):
        spec = _parse_config_file(os.path.join(CONFIG_DIR, name))
        game = build_game_from_config(spec.game)
        if spec.game["type"] == "network":
            trace = run_continuous(game, _tuned_eta(game, lipschitz_constant(game))[0], spec.T)
        else:
            trace = run(game, spec.specs_for(game.n), spec.T, spec.mode)
            trace.meta["smoothness"] = spec.smoothness
        path = str(tmp_path / "trace.csv")
        write_trace_file(trace, path)
        capsys.readouterr()
        assert main(["report", path]) == 0
        assert capsys.readouterr().out == write_report_csv(report(trace))

    def test_failing_certificates_exit_2(self, tmp_path, capsys):
        manifest = run_experiment(parse_config(REFUTED_CFG),
                                  out_dir=str(tmp_path / "bad"))
        capsys.readouterr()
        code = main(["report", manifest["artifacts"]["trace"]])
        assert code == 2
        assert "certificate,smoothness_claim" in capsys.readouterr().out

    def test_unreadable_trace_exits_1(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "missing.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_trace_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trace\n1,2,3\n")
        code = main(["report", str(bad)])
        assert code == 1
        assert "metadata" in capsys.readouterr().err

    def report_edited_trace(self, tmp_path, capsys, edit):
        """Run `report` on a matrix_smooth trace after ``edit(lines)``; return
        (exit code, stderr).  An uncaught exception would escape main()."""
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        lines = read(manifest["artifacts"]["trace"]).splitlines(keepends=True)
        edit(lines)  # lines[0] meta, lines[1] header, lines[2] = round 1 player 0
        bad = tmp_path / "edited.csv"
        bad.write_text("".join(lines))
        capsys.readouterr()
        code = main(["report", str(bad)])
        return code, capsys.readouterr().err

    def test_out_of_range_player_exits_1(self, tmp_path, capsys):
        def edit(lines):
            lines[2] = lines[2].replace("1,0,", "1,5,", 1)
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: trace line 3: expected round 1, player 0")

    def test_duplicated_row_exits_1(self, tmp_path, capsys):
        def edit(lines):
            lines[3] = lines[2]  # round 1 player 0 twice, player 1 missing
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: trace line 4: expected round 1, player 1")

    def test_short_row_exits_1(self, tmp_path, capsys):
        # one strategy value fewer than matrix_smooth's two, no padding
        def edit(lines):
            lines[2] = "1,0,0.0,1.0,0.25,0.0,0.5\n"
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: trace line 3: expected 4 values and 2 strategy "
                              "entries, padded with empty cells to 8 cells")

    def test_non_numeric_cell_exits_1(self, tmp_path, capsys):
        def edit(lines):
            cells = lines[3].split(",")
            lines[3] = ",".join(cells[:6] + ["abc"] + cells[7:])
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: trace line 4: could not convert string to "
                              "float: 'abc'")

    def test_quoted_cell_exits_1_naming_its_line(self, tmp_path, capsys):
        def edit(lines):  # the writer never quotes a cell
            cells = lines[3].split(",")
            cells[6] = f'"{cells[6]}"'
            lines[3] = ",".join(cells)
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: trace line 4: could not convert string to "
                              "float: '\"")
        assert err.count("\n") == 1

    def test_utilities_escaping_the_unit_range_exit_1(self, tmp_path, capsys):
        # a column strategy summing to 1 + 5e-10 passes the simplex check but
        # lifts the row player's utility above 1
        def edit(lines):
            head = lines[3].split(",")[:6]
            lines[3] = ",".join(head + ["1.0000000005", "0.0"]) + "\n"
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: player 0: normalized utilities escape [0, 1]")


    @pytest.mark.parametrize("line, column, cell, shown", [
        (4, 3, "1000.0", "welfare 1000.0"),  # round 1, player 1
        (3, 3, "1000.0", "welfare 1000.0"),  # round 1's first row
        (3, 2, "nan", "regret_to_date nan"),
        (6, 4, "1e309", "du2_cum inf"),
    ])
    def test_stored_value_that_disagrees_with_the_plays_exits_1(
            self, tmp_path, capsys, line, column, cell, shown):
        def edit(lines):
            cells = lines[line - 1].split(",")
            cells[column] = cell
            lines[line - 1] = ",".join(cells)
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err == f"error: trace line {line}: stored {shown} does not match the plays\n"

    @pytest.mark.parametrize("change, message", [
        (meta_without("T"), "metadata T must be an integer >= 1, got None"),
        (meta_without("game"), "metadata must be a JSON object with a 'game' object"),
        (meta_with(T="60"), "metadata T must be an integer >= 1, got '60'"),
        (meta_with(T=True), "metadata T must be an integer >= 1, got True"),
        (meta_without("learners"), "metadata learners must be a list of 2 objects"),
        (meta_with(learners=[{}]), "metadata learners must be a list of 2 objects"),
        (meta_with(mode="welfare"),
         "metadata mode must be 'utility' or 'cost', got 'welfare'"),
        (lambda m: [m], "metadata must be a JSON object with a 'game' object"),
        (lambda m: {**m, "game": {k: v for k, v in m["game"].items() if k != "matrix"}},
         "metadata game is missing key 'matrix'"),
        (lambda m: {**m, "game": {**m["game"], "matrix": {"a": 1}}},
         "metadata game: float() argument must be a string or a real number, not 'dict'"),
        (lambda m: {**m, "smoothness": {"mu": 1.0}},
         "metadata smoothness: lambda must be a number, got None"),
        (lambda m: {**m, "smoothness": {"lambda": 1.0, "mu": "1"}},
         "metadata smoothness: mu must be a number, got '1'"),
        (lambda m: {**m, "smoothness": [1.0, 1.0]},
         "metadata smoothness must be an object, got [1.0, 1.0]"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "s_star": 5}},
         "metadata smoothness: s_star must be a list of integers, got 5"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "mu": math.inf}},
         "metadata smoothness: need finite lambda > 0 and mu >= 0, got (1.0, inf)"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "mu": -0.5}},
         "metadata smoothness: need finite lambda > 0 and mu >= 0, got (1.0, -0.5)"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "lambda": math.nan}},
         "metadata smoothness: need finite lambda > 0 and mu >= 0, got (nan, 1.0)"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "lambda": -1}},
         "metadata smoothness: need finite lambda > 0 and mu >= 0, got (-1, 1.0)"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "lambda": 0.0}},
         "metadata smoothness: need finite lambda > 0 and mu >= 0, got (0.0, 1.0)"),
        (meta_with_learner({"algorithm": "oftrl", "eta": 0.25, "predictor": "window"}),
         "metadata learners[1]: predictor_param (window size) is required for the "
         "window predictor"),
        (meta_with_learner({"algorithm": "oftrl", "eta": 0.25, "predictor": "geometric"}),
         "metadata learners[1]: predictor_param (discount) is required for the "
         "geometric predictor"),
        (meta_with_learner({"algorithm": "oftrl", "eta": [1], "predictor": "last"}),
         "metadata learners[1]: eta must be positive and finite, got [1]"),
        (meta_with_learner({"algorithm": "robust", "eta_star": 0.5}),
         "metadata learners[1]: inner must be a learner spec object, got None"),
        (meta_with_learner({"eta": 0.25}),
         f"metadata learners[1]: algorithm must be one of {ALGORITHMS}; got None"),
        (meta_with_learner({"algorithm": "oftrl", "eta": True, "predictor": "last"}),
         "metadata learners[1]: eta must be positive and finite, got True"),
        (meta_with_learner({"algorithm": "zzz", "eta": 0.25}),
         f"metadata learners[1]: algorithm must be one of {ALGORITHMS}; got 'zzz'"),
        (meta_with_learner({"algorithm": "oftrl", "eta": 0.25, "predictor": "zz"}),
         "metadata learners[1]: predictor must be one of geometric, last, none, window; "
         "got 'zz'"),
        (meta_with_learner({"algorithm": "oftrl", "eta": 0.25, "predictor": "window",
                            "predictor_param": 2.5}),
         "metadata learners[1]: predictor_param must be a window size >= 1, got 2.5"),
        (meta_with_learner({"algorithm": "robust", "eta_star": 0.5,
                            "inner": {"algorithm": "oftrl", "eta": 0.1, "predictor": "zz"}}),
         "metadata learners[1]: inner.predictor must be one of geometric, last, none, "
         "window; got 'zz'"),
        (meta_with_learner({"algorithm": "robust", "eta_star": "0.5",
                            "inner": {"algorithm": "oftrl", "eta": 0.1, "predictor": "last"}}),
         "metadata learners[1]: eta_star must be a positive finite number, got '0.5'"),
        (meta_with_learner({"algorithm": "robust", "eta_star": 0.5,
                            "inner": {"algorithm": "hedge", "eta": 0.1}}),
         "metadata learners[1]: inner.algorithm 'hedge' with predictor 'none' declares "
         "no variation bound to wrap"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "s_star": [0]}},
         "metadata smoothness: s_star [0] is not a pure profile of a game with dims [2, 2]"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "s_star": [0, 5]}},
         "metadata smoothness: s_star [0, 5] is not a pure profile of a game with dims [2, 2]"),
        (lambda m: {**m, "smoothness": {**m["smoothness"], "s_star": [-1, 0]}},
         "metadata smoothness: s_star [-1, 0] is not a pure profile of a game with dims [2, 2]"),
    ], ids=["no-T", "no-game", "T-string", "T-bool", "no-learners", "short-learners",
            "bad-mode", "list", "game-no-matrix", "matrix-dict", "smoothness-no-lambda",
            "mu-string", "smoothness-list", "s_star-int", "mu-inf", "mu-negative",
            "lambda-nan", "lambda-negative", "lambda-zero", "window-no-param",
            "geometric-no-param", "eta-list", "robust-no-inner", "no-algorithm",
            "eta-bool", "algorithm-unknown", "predictor-unknown", "window-fraction",
            "robust-bad-inner", "robust-eta_star-string", "robust-inner-without-bound",
            "s_star-short", "s_star-out-of-range", "s_star-negative"])
    def test_malformed_meta_exits_1(self, tmp_path, capsys, change, message):
        def edit(lines):
            meta = json.loads(lines[0][len("# meta="):])
            lines[0] = "# meta=" + json.dumps(change(meta)) + "\n"
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err == f"error: trace line 1: {message}\n"

    DENSE = {"kind": "dense", "n": 2, "dims": [2, 2], "scale": 1.0, "shift": 0.0,
             "tensors": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]]}
    AUCTION = {"kind": "auction", "n": 2, "m": 1, "values": [[3.0], [2.0]],
               "bid_levels": [1.0, 2.0]}
    FINITE_SCALE = "need a positive finite scale and a finite shift, got "
    AUCTION_VALUES = "item values must be nonnegative and finite"
    BID_LEVELS = "bid levels must be sorted, positive, finite and distinct"

    @pytest.mark.parametrize("game, message", [
        ({"matrix": [[math.nan, 0.0], [0.0, 1.0]]},
         "matrix entries must lie in [0,1], got [nan, nan]"),
        ({"matrix": [[math.inf, 0.0], [0.0, 1.0]]},
         "matrix entries must lie in [0,1], got [0.0, inf]"),
        ({**DENSE, "tensors": [[[1.0, math.nan], [0.0, 1.0]], DENSE["tensors"][1]]},
         "raw utilities [nan, nan] escape the declared range [0.0, 1.0]"),
        ({**DENSE, "scale": math.nan}, FINITE_SCALE + "scale=nan, shift=0.0"),
        ({**DENSE, "scale": math.inf}, FINITE_SCALE + "scale=inf, shift=0.0"),
        ({**DENSE, "shift": math.nan}, FINITE_SCALE + "scale=1.0, shift=nan"),
        ({**DENSE, "shift": -math.inf}, FINITE_SCALE + "scale=1.0, shift=-inf"),
        ({**AUCTION, "values": [[math.nan], [2.0]]}, AUCTION_VALUES),
        ({**AUCTION, "values": [[3.0], [math.inf]]}, AUCTION_VALUES),
        ({**AUCTION, "bid_levels": [1.0, math.nan]}, BID_LEVELS),
        ({**AUCTION, "bid_levels": [math.nan, 2.0]}, BID_LEVELS),
        ({**AUCTION, "bid_levels": [1.0, math.inf]}, BID_LEVELS),
        ({**AUCTION, "values": [[1e308], [1.0]], "bid_levels": [1.0, 1.7e308]},
         "the largest item value plus the largest bid level must be finite, "
         "got 1e+308 + 1.7e+308"),
    ], ids=["matrix-nan", "matrix-inf", "tensor-nan", "scale-nan", "scale-inf", "shift-nan",
            "shift-minus-inf", "value-nan", "value-inf", "bid-nan", "first-bid-nan",
            "bid-inf", "value-plus-bid-overflows"])
    def test_non_finite_game_meta_exits_1(self, tmp_path, capsys, recwarn, game, message):
        def edit(lines):
            meta = json.loads(lines[0][len("# meta="):])
            edited = game if "kind" in game else {**meta["game"], **game}
            lines[0] = "# meta=" + json.dumps({**meta, "game": edited}) + "\n"
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err == f"error: trace line 1: metadata game: {message}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_meta_that_is_not_json_exits_1(self, tmp_path, capsys):
        def edit(lines):
            lines[0] = "# meta={not json\n"
        code, err = self.report_edited_trace(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: trace line 1: metadata is not valid JSON: ")
        assert err.count("\n") == 1


class TestCliReportRouting:
    """`report` on a routing flows.csv: the rebuilt network, the stored cells
    checked against the flows, and the meta's eta."""

    def report_edited_flows(self, tmp_path, capsys, edit=lambda lines: None):
        """Run `report` on a 50-round flows.csv of NET_FILE after
        ``edit(lines)``; return (exit code, stdout, stderr, manifest)."""
        manifest = run_experiment(network_spec(tmp_path), out_dir=str(tmp_path / "routing"))
        lines = read(manifest["artifacts"]["trace"]).splitlines(keepends=True)
        edit(lines)  # lines[0] meta, lines[1] header, lines[2] = round 1 player 0
        edited = tmp_path / "edited.csv"
        edited.write_text("".join(lines))
        capsys.readouterr()
        code = main(["report", str(edited)])
        out, err = capsys.readouterr()
        return code, out, err, manifest

    def test_stdout_matches_the_written_report_exactly(self, tmp_path, capsys):
        code, out, err, manifest = self.report_edited_flows(tmp_path, capsys)
        assert (code, err) == (0, "")
        assert out == read(manifest["artifacts"]["report"])

    @pytest.mark.parametrize("line, column, shown", [
        (4, 2, "cost"),  # round 1, player 1
        (5, 3, "total_cost"),  # round 2, player 0
    ])
    def test_stored_cell_that_disagrees_with_the_flows_exits_1(self, tmp_path, capsys,
                                                               line, column, shown):
        def edit(lines):
            cells = lines[line - 1].split(",")
            cells[column] = "1000.0"
            lines[line - 1] = ",".join(cells)
        code, _, err, _ = self.report_edited_flows(tmp_path, capsys, edit)
        assert code == 1
        assert err == f"error: trace line {line}: stored {shown} 1000.0 does not match the flows\n"

    @pytest.mark.parametrize("change, message", [
        (lambda m: {**m, "game": {k: v for k, v in m["game"].items() if k != "edges"}},
         "metadata game is missing key 'edges'"),
        (meta_with(eta="0.1"), "metadata eta must be a positive finite float, got '0.1'"),
        (meta_with(eta=True), "metadata eta must be a positive finite float, got True"),
        (meta_with(eta=-1.0), "metadata eta must be a positive finite float, got -1.0"),
        (meta_with(eta=float("nan")), "metadata eta must be a positive finite float, got nan"),
        (meta_with(mode="whatever"), "metadata mode must be 'routing', got 'whatever'"),
    ], ids=["no-edges", "eta-string", "eta-bool", "eta-negative", "eta-nan", "mode-unknown"])
    def test_malformed_network_meta_exits_1(self, tmp_path, capsys, change, message):
        def edit(lines):
            meta = json.loads(lines[0][len("# meta="):])
            lines[0] = "# meta=" + json.dumps(change(meta)) + "\n"
        code, _, err, _ = self.report_edited_flows(tmp_path, capsys, edit)
        assert code == 1
        assert err == f"error: trace line 1: {message}\n"

    @pytest.mark.parametrize("column, value, message", [
        (2, float("nan"), "trace line 1: metadata game: "
                          "latency coefficients on s->t must be finite and >= 0"),
        (4, float("inf"), "trace line 1: metadata game: "
                          "latency coefficients on s->t must be finite and >= 0"),
    ], ids=["nan-coefficient", "inf-coefficient"])
    def test_non_finite_network_meta_exits_1(self, tmp_path, capsys, column, value, message):
        def edit(lines):
            meta = json.loads(lines[0][len("# meta="):])
            meta["game"]["edges"][0][column] = value
            lines[0] = "# meta=" + json.dumps(meta) + "\n"
        code, _, err, _ = self.report_edited_flows(tmp_path, capsys, edit)
        assert (code, err) == (1, f"error: {message}\n")

    def test_flows_csv_bytes_do_not_depend_on_the_checkout(self, tmp_path, capsys):
        written = []
        for root in (tmp_path / "a", tmp_path / "b" / "deeper"):
            shutil.copytree(CONFIG_DIR, root / "configs")
            out = root / "out"
            assert main(["simulate", str(root / "configs" / "routing.cfg"),
                         "--out", str(out)]) == 0
            written.append((out / "flows.csv").read_bytes())
        assert written[0] == written[1]
        assert b"configs" not in written[0].splitlines()[0]


class TestCliLowerbound:
    def test_prints_realized_and_closed_forms(self, capsys):
        code = main(["lowerbound", "--eta", "1.0", "--T", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "eta=1.0 T=10" in out
        fields = {}
        for line in out.splitlines()[1:]:
            key, value = line.split("=", 1)
            fields[key] = float(value)
        assert fields["regret_on_identity"] > 0.0
        assert fields["closed_form_degenerate_floor"] > 0.0

    def test_odd_horizon_exits_1(self, capsys):
        code = main(["lowerbound", "--eta", "1.0", "--T", "9"])
        assert code == 1
        assert "positive even integer" in capsys.readouterr().err

    def test_large_eta_closed_forms_stay_finite(self, capsys):
        # (e^eta - 1)/(e^eta + 1) overflowed to nan at eta = 1000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lowerbound", "--eta", "1000", "--T", "10"]) == 0
        out = capsys.readouterr().out
        assert "closed_form_identity=5.0\n" in out
        assert "closed_form_degenerate_floor=0.5\n" in out

    def test_tiny_eta_closed_forms_stay_finite(self, capsys):
        # e^-eta rounds to 1.0 below 2^-53: 1 - q divided by zero at eta = 5e-17
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lowerbound", "--eta", "5e-17", "--T", "2"]) == 0
        out = capsys.readouterr().out
        assert "closed_form_identity=0.0\n" in out
        assert "closed_form_degenerate_floor=1.0\n" in out  # its limit T/2

    def test_nonpositive_eta_exits_1(self, capsys):
        code = main(["lowerbound", "--eta", "-1", "--T", "10"])
        assert code == 1
        assert "eta must be positive" in capsys.readouterr().err

    def test_missing_required_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lowerbound", "--eta", "1.0"])
        assert excinfo.value.code == 1


class TestCliVerifySmooth:
    def test_verified_claim_exits_0(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MATRIX_SMOOTH_CFG)
        code = main(["verify-smooth", cfg])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoothness (1.0, 1.0) verified" in out
        assert "slack=0.0" in out

    def test_refuted_claim_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, REFUTED_CFG)
        code = main(["verify-smooth", cfg])
        assert code == 2
        assert "REFUTED" in capsys.readouterr().out

    def test_claim_free_config_exits_1(self, capsys):
        code = main(["verify-smooth",
                     os.path.join(CONFIG_DIR, "auction_fig1.cfg")])
        assert code == 1
        assert "claims no smoothness" in capsys.readouterr().err

    def test_missing_dense_csv_file_exits_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[game]\ntype = dense_csv\npath = missing.csv\n"
                        "lambda = 1\nmu = 1\n"
                        "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 5\n")
        code = main(["verify-smooth", cfg])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")

    def test_searches_when_no_s_star_is_given(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MATRIX_SMOOTH_CFG.replace(
            "s_star = 0,0\n", ""))
        code = main(["verify-smooth", cfg])
        assert code == 0
        assert "verified" in capsys.readouterr().out

    def test_refuted_search_names_the_best_candidate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, REFUTED_SEARCH_CFG)
        assert main(["verify-smooth", cfg]) == 2
        out = capsys.readouterr().out
        tensors = make_matrix_game(np.eye(2)).tensors
        slacks = {s: orc.enum_smoothness_slack(tensors, 5.0, 0.0, s)
                  for s in ((0, 0), (0, 1), (1, 0), (1, 1))}
        best = max(slacks, key=lambda s: slacks[s][0])  # first of the ties
        slack, worst, _ = slacks[best]
        assert "smoothness (5.0, 0.0) REFUTED" in out
        assert f"s_star={list(best)} slack={slack!r} worst_profile={list(worst)}" in out

    @pytest.mark.parametrize("s_star", ["0,5", "0,1,1"])
    def test_cost_s_star_outside_the_game_exits_1(self, tmp_path, capsys, s_star):
        (tmp_path / "p.csv").write_text("2,2,2\n0,0,0.1,0.2\n0,1,0.3,0.4\n"
                                        "1,0,0.5,0.6\n1,1,0.7,0.8\n")
        cfg = write_cfg(tmp_path, "[game]\ntype = dense_csv\npath = p.csv\n"
                        f"lambda = 1\nmu = 0.5\ns_star = {s_star}\n"
                        "[learner]\nalgorithm = first_order_hedge\n"
                        "[run]\nT = 5\nmode = cost\n")
        assert main(["verify-smooth", cfg]) == 1
        err = capsys.readouterr().err
        assert err == f"error: s_star [{s_star.replace(',', ', ')}] is not a pure " \
                      f"profile of a game with dims [2, 2]\n"

    def test_cost_claim_without_s_star_searches(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COST_CFG.replace("s_star = 0,0\n", ""))
        assert main(["verify-smooth", cfg]) == 0
        assert "smoothness (1.0, 0.5) verified\ns_star=[0, 0]" in capsys.readouterr().out

    def test_auction_of_a_million_profiles_is_checked_in_seconds(self, tmp_path, capsys):
        # 3 bidders x (10 items x 10 bids): 10^6 pure profiles; a per-profile
        # tensor loop took about 9 s
        cfg = write_cfg(tmp_path, "[game]\ntype = auction\nbidders = 3\nitems = 10\n"
                        "value = 20\nbids = 1..10\nlambda = 0.5\nmu = 1\ns_star = 9,19,29\n"
                        "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 5\n")
        start = time.perf_counter()
        assert main(["verify-smooth", cfg]) in (0, 2)
        assert time.perf_counter() - start < 5.0
        assert "s_star=[9, 19, 29]" in capsys.readouterr().out

    def test_claim_beyond_the_enumeration_cap_exits_1(self, tmp_path, capsys):
        # 4 bidders x 80 strategies: 80^4 pure profiles, above the 10^7 cap
        cfg = write_cfg(tmp_path, "[game]\ntype = auction\nbidders = 4\nitems = 4\n"
                        "value = 20\nbids = 1..20\nlambda = 0.5\nmu = 0\n"
                        "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 5\n")
        assert main(["verify-smooth", cfg]) == 1
        assert "span 40960000 pure profiles, above the enumeration cap" \
            in capsys.readouterr().err


class TestOneClaimRule:
    """One rule checks a smoothness claim wherever it enters: a bad s_star
    reads the same behind the prefix of each place that finds it."""

    @pytest.mark.parametrize("s_star", [[0], [0, 5]], ids=["short", "out-of-range"])
    def test_a_bad_s_star_reads_the_same_at_every_entry_point(self, tmp_path, capsys, s_star):
        tail = f"s_star {s_star} is not a pure profile of a game with dims [2, 2]"
        claim = f"lambda = 1\nmu = 1\ns_star = {','.join(map(str, s_star))}\n"
        rest = "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 5\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config("[game]\ntype = matrix\nmatrix = 1,0; 0,1\n" + claim + rest)
        assert excinfo.value.errors == [f"line 6: game.{tail}"]
        # a dense game's dims are known only once its file is read
        (tmp_path / "p.csv").write_text("2,2,2\n0,0,0.1,0.2\n0,1,0.3,0.4\n"
                                        "1,0,0.5,0.6\n1,1,0.7,0.8\n")
        cfg = write_cfg(tmp_path, "[game]\ntype = dense_csv\npath = p.csv\n" + claim + rest)
        trace = run(make_matrix_game([[1.0, 0.0], [0.0, 1.0]]), [LearnerSpec("hedge", 0.1)] * 2, 5)
        trace.meta["smoothness"] = {"lambda": 1.0, "mu": 1.0, "s_star": s_star}
        write_trace_file(trace, str(tmp_path / "trace.csv"))
        for argv, prefix in [(["simulate", cfg, "--out", str(tmp_path / "out")], ""),
                             (["verify-smooth", cfg], ""),
                             (["report", str(tmp_path / "trace.csv")],
                              "trace line 1: metadata smoothness: ")]:
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {prefix}{tail}\n"
        assert not os.path.exists(tmp_path / "out")


class TestCliPlot:
    def test_regret_plot_default_path(self, tmp_path, capsys):
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        code = main(["plot", manifest["artifacts"]["trace"]])
        assert code == 0
        dest = os.path.join(str(tmp_path / "arm"), "regret.svg")
        assert f"wrote {dest}" in capsys.readouterr().out
        assert polylines(read(dest)) == 2  # one arm: sum + max series

    @pytest.mark.parametrize("name", ["auction_fig1.cfg", "cost_congestion.cfg",
                                      "matrix_smooth.cfg"])
    def test_the_plot_of_a_configs_traces_is_its_regret_svg(self, tmp_path, capsys, name):
        spec = _parse_config_file(os.path.join(CONFIG_DIR, name))
        artifacts = run_experiment(spec, out_dir=str(tmp_path / "out"))["artifacts"]
        drawn = read(artifacts["regret_svg"])
        traces = [artifacts[key] for key in ("trace", "trace_baseline") if key in artifacts]
        assert main(["plot", *traces]) == 0
        assert f"wrote {artifacts['regret_svg']}" in capsys.readouterr().out
        assert read(artifacts["regret_svg"]) == drawn

    @pytest.mark.parametrize("stem, label", [("trace", "main"), ("trace_baseline", "baseline"),
                                             ("arm", "arm")])
    def test_a_trace_is_labelled_by_its_file_name(self, tmp_path, stem, label):
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        path = tmp_path / f"{stem}.csv"
        shutil.copy(manifest["artifacts"]["trace"], path)
        assert main(["plot", str(path), "--out", str(tmp_path / "r.svg")]) == 0
        assert re.findall(r">(\w+): sum of regrets<", read(tmp_path / "r.svg")) == [label]

    @pytest.mark.parametrize("kind, message", [
        ("regret", "error: two traces have the same arm label: main, main\n"),
        ("bids", "error: plot --kind bids takes one trace\n"),
    ], ids=["regret", "bids"])
    def test_traces_a_plot_cannot_take_are_refused(self, tmp_path, capsys, kind, message):
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        trace = manifest["artifacts"]["trace"]
        assert main(["plot", trace, trace, "--kind", kind]) == 1
        assert capsys.readouterr().err == message

    def test_bids_plot_explicit_path(self, tmp_path, capsys):
        manifest = run_experiment(parse_config(AUCTION_CFG),
                                  out_dir=str(tmp_path / "auc"))
        dest = str(tmp_path / "picked.svg")
        code = main(["plot", manifest["artifacts"]["trace"],
                     "--kind", "bids", "--out", dest])
        assert code == 0
        assert polylines(read(dest)) == 4

    def test_bids_plot_rejects_non_auction_traces(self, tmp_path, capsys):
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        code = main(["plot", manifest["artifacts"]["trace"], "--kind", "bids"])
        assert code == 1
        assert "auction trace" in capsys.readouterr().err

    def test_unknown_kind_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", "whatever.csv", "--kind", "pie"])
        assert excinfo.value.code == 1


def run_module(*argv, max_bytes=None):
    """``python -m regretlab`` in a subprocess; the package may come from a
    checkout (PYTHONPATH=src), not an install.  With ``max_bytes`` the child's
    address space is capped there (one BLAS thread, so numpy fits)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(regretlab.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    limit = None
    if max_bytes is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))
    return subprocess.run([sys.executable, "-m", "regretlab", *argv], env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)


class TestCliUsage:
    def test_no_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_python_dash_m_runs_the_cli(self):
        done = run_module("--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: regretlab")


class TestCliErrorBoundary:
    """Bad input exits 1 with a one-line message, never a traceback."""

    @staticmethod
    def assert_one_line_error(done, *fragments):
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ")
        for fragment in fragments:
            assert fragment in line

    @pytest.mark.parametrize("command", ["simulate", "verify-smooth"])
    def test_non_utf8_config(self, tmp_path, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"[game]\ntype = matrix  # caf\xe9\n")
        self.assert_one_line_error(run_module(command, str(cfg)),
                                   f"cannot read {cfg}", "codec can't decode")

    @pytest.mark.parametrize("command", ["report", "plot"])
    def test_non_utf8_trace(self, tmp_path, command):
        trace = tmp_path / "latin1.csv"
        trace.write_bytes(b"\xff\xfe")
        self.assert_one_line_error(run_module(command, str(trace)),
                                   f"cannot read {trace}", "codec can't decode")

    @pytest.mark.parametrize("config, T", [
        (None, 4),
        ("[game]\ntype = matrix\nmatrix = 1,0; 0,1\n"
         "[learner]\nalgorithm = hedge\neta = 1e308\n[run]\nT = 40\n", 40),
        ("[game]\ntype = matrix\nmatrix = 1,0; 0,1\n[learner]\nalgorithm = oftrl\n"
         "regularizer = euclidean\npredictor = last\neta = 1e308\n[run]\nT = 40\n", 40),
        (NETWORK_CFG.replace("optimistic_hedge\n", "optimistic_hedge\neta = 1e308\n"), 50),
    ], ids=["lowerbound", "hedge", "euclidean", "network"])
    def test_a_step_size_too_large_for_the_run_is_refused(self, tmp_path, config, T):
        # eta * (T + 1) * d (a network's gradient bound for d) overflows a
        # float: refused before the first round, with no numpy warning
        if config is None:
            done = run_module("lowerbound", "--eta", "1e308", "--T", str(T))
        else:
            (tmp_path / "net.txt").write_text(NET_FILE)
            done = run_module("simulate", write_cfg(tmp_path, config),
                              "--out", str(tmp_path / "out"))
            assert not os.path.exists(tmp_path / "out")
        self.assert_one_line_error(done, "eta = 1e+308 is too large", f"T = {T} rounds")
        assert "Warning" not in done.stderr

    @pytest.mark.parametrize("eta", ["1e17", "1e300"])
    @pytest.mark.parametrize("game, learner", [
        ("players = 2\ndims = 3,2\nseed = 3", "oftrl"),
        ("players = 3\ndims = 4\nseed = 8", "omd"),
    ], ids=["vector", "block"])
    def test_a_projection_beyond_float_precision_is_refused(self, tmp_path, game, learner,
                                                            eta):
        # eta * (T + 1) * d is finite, but the Euclidean projection can no
        # longer tell a sum of 1 from 0: one player's vector, or the (3, 4)
        # block of three players sharing one spec, each row refused as a
        # vector is, before a play leaves the simplex or a utility overflows
        config = (f"[game]\ntype = random\n{game}\n"
                  f"[learner]\nalgorithm = {learner}\nregularizer = euclidean\n"
                  f"predictor = last\neta = {eta}\n[run]\nT = 9\n")
        done = run_module("simulate", write_cfg(tmp_path, config),
                          "--out", str(tmp_path / "out"))
        self.assert_one_line_error(done, "simplex projection lost its threshold",
                                   "a smaller eta keeps them in range")
        assert "Warning" not in done.stderr

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\u2028"],
                             ids=["formfeed", "vtab", "file-sep", "line-sep"])
    def test_line_break_that_is_not_a_newline(self, tmp_path, sep):
        # a trace line ends only at \n, \r\n or \r: other characters that
        # str.splitlines breaks at stay inside their line
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        lines = read(manifest["artifacts"]["trace"]).splitlines(keepends=True)
        cells = lines[3].split(",")  # round 1, player 1
        lines[3] = ",".join(cells[:2] + [cells[2] + sep + cells[3]] + cells[4:])
        bad = tmp_path / "edited.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        done = run_module("report", str(bad))
        self.assert_one_line_error(done)
        assert done.stderr == ("error: trace line 4: expected 4 values and 2 strategy "
                               "entries, padded with empty cells to 8 cells\n")

    def test_non_utf8_byte_deep_in_a_trace(self, tmp_path):
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        with open(manifest["artifacts"]["trace"], "rb") as fh:
            data = fh.read()
        trace = tmp_path / "late.csv"
        trace.write_bytes(data[:-3] + b"\xff" + data[-2:])  # in the last row
        self.assert_one_line_error(run_module("report", str(trace)),
                                   f"cannot read {trace}", "codec can't decode byte 0xff")

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_lowerbound_eta(self, eta):
        done = run_module("lowerbound", "--eta", eta, "--T", "10")
        self.assert_one_line_error(done, "eta must be positive", f"got {eta}")
        assert "RuntimeWarning" not in done.stderr

    def test_huge_eta_is_certified_without_a_traceback(self, tmp_path):
        # kappa**2 in regret_vs_stability raised OverflowError from eta ~ 6.7e153
        cfg = write_cfg(tmp_path, "[game]\ntype = matrix\nmatrix = 1,0; 0,1\n"
                        "[learner]\nalgorithm = oftrl\neta = 1e300\npredictor = last\n"
                        f"[run]\nT = 4\n[outputs]\ndir = {tmp_path / 'out'}\n")
        for argv in (["simulate", cfg], ["report", str(tmp_path / "out" / "trace.csv")]):
            done = run_module(*argv)
            assert done.returncode in (0, 2) and done.stderr == "", (argv, done.stderr)
            assert "regret_vs_stability[0]" in done.stdout

    @pytest.mark.parametrize("game, learner", [
        ("type = matrix\nmatrix = 0,0; 0,0",
         "eta = 1e300\npredictor = window\npredictor_param = 100000"),
        ("type = matrix\nmatrix = 1,1; 1,1", "eta = 1e-320\npredictor = last"),
        ("type = random\nplayers = 1\ndims = 3\nseed = 2", "eta = 1e300\npredictor = last"),
        ("type = matrix\nmatrix = 1,1; 1,1", "eta = 0.1\npredictor = last\n"
         "[robust]\neta_star = 1e-320"),
    ], ids=["inf-beta-zero-du", "inf-gamma-zero-dw", "one-player", "robust-inf-gamma"])
    def test_an_infinite_constant_times_a_zero_sum_is_no_nan(self, tmp_path, game, learner):
        # inf * 0 made a nan bound and a false fail: a zero sum now adds 0, and a
        # lone player gets no regret_vs_stability row, whose (n - 1)**2 was the 0
        cfg = write_cfg(tmp_path, f"[game]\n{game}\n[learner]\nalgorithm = oftrl\n{learner}\n"
                        f"[run]\nT = 4\n[outputs]\ndir = {tmp_path / 'out'}\n")
        for argv in (["simulate", cfg], ["report", str(tmp_path / "out" / "trace.csv")]):
            done = run_module(*argv)
            assert done.returncode == 0 and done.stderr == "", (argv, done.stderr)
            assert "nan" not in done.stdout
        assert "nan" not in read(str(tmp_path / "out" / "report.csv"))

    @staticmethod
    def random_game_trace(tmp_path, change):
        """A 5-round trace of a 2 x 2 random game whose meta game is
        ``change(game)``, written to a file; returns its path."""
        tr = run(make_random_game(2, [2, 2], seed=1), [LearnerSpec("hedge", 0.1)] * 2, 5)
        tr.meta["game"] = change(tr.meta["game"])
        path = tmp_path / "edited.csv"
        path.write_text(write_trace_csv(tr), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("change, message", [
        (lambda g: {"kind": "dense", "tensors": []},
         "a dense game needs at least one utility tensor"),
        (lambda g: {**g, "n": 0, "dims": []},
         "a random game needs n >= 1 and n dims, each >= 1, got n=0, dims=[]"),
        (lambda g: {**g, "dims": [2.5, 2]},
         "a random game needs an integer n and integer dims, got n=2, dims=[2.5, 2]"),
        (lambda g: {"kind": "dense", "tensors": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5, 0.5]]]},
         "all utility tensors must share the shape d_1 x ... x d_n"),
        (lambda g: {"kind": "auction", "n": 0, "m": 1, "values": [[1.0]], "bid_levels": [1.0]},
         "need n >= 1, m >= 1 and at least one bid level"),
        (lambda g: {"kind": "auction", "n": 2, "m": 1, "values": [[1.0], [1.0]],
                    "bid_levels": []},
         "need n >= 1, m >= 1 and at least one bid level"),
    ], ids=["no-tensors", "no-players", "fractional-dims", "unequal-tensors",
            "auction-no-bidders", "auction-no-bid-levels"])
    def test_meta_game_that_cannot_be_built(self, tmp_path, change, message):
        done = run_module("report", self.random_game_trace(tmp_path, change))
        self.assert_one_line_error(done, f"trace line 1: metadata game: {message}")

    CAP_MESSAGE = ("a random game draws 2000000000000 utilities, above the enumeration "
                   "cap 10000000; refusing to allocate them")

    def assert_refused_at_once(self, *argv):
        # a refusal that failed would draw 2e12 floats: the child gets 2 GiB
        start = time.perf_counter()
        done = run_module(*argv, max_bytes=2 << 30)
        self.assert_one_line_error(done, self.CAP_MESSAGE)
        assert time.perf_counter() - start < 20.0

    def test_random_game_above_the_cap_in_a_trace(self, tmp_path):
        self.assert_refused_at_once("report", self.random_game_trace(
            tmp_path, lambda g: {**g, "dims": [1000000, 1000000]}))

    def test_random_game_above_the_cap_in_a_config(self, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[game]\ntype = random\nplayers = 2\ndims = 1000000\nseed = 1\n"
                       "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 10\n"
                       f"[outputs]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
        self.assert_refused_at_once("simulate", str(cfg))
        assert not (tmp_path / "out").exists()

    def test_run_above_the_cap(self, tmp_path):
        # a refusal that failed would allocate 3.2 TB of plays: the child gets 2 GiB
        cfg = tmp_path / "long.cfg"
        cfg.write_text("[game]\ntype = matrix\nmatrix = 0.9,0.2;0.3,0.7\n"
                       "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 100000000000\n"
                       f"[outputs]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
        start = time.perf_counter()
        done = run_module("simulate", str(cfg), max_bytes=2 << 30)
        self.assert_one_line_error(done, "T = 100000000000 rounds of 4 strategies make "
                                   "400000000000 play cells, above the enumeration cap "
                                   "10000000; refusing to allocate them")
        assert time.perf_counter() - start < 20.0
        assert not (tmp_path / "out").exists()

    def test_routing_run_above_the_cap(self, tmp_path):
        # a refusal that failed would allocate 1.46 TiB of flows: the child gets 2 GiB
        shutil.copy(os.path.join(CONFIG_DIR, "network_parallel.txt"), tmp_path)
        cfg = write_cfg(tmp_path, "[game]\ntype = network\npath = network_parallel.txt\n"
                        "[learner]\nalgorithm = oftrl\npredictor = last\n"
                        f"[run]\nT = 100000000000\n[outputs]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        done = run_module("simulate", cfg, max_bytes=2 << 30)
        self.assert_one_line_error(done, "T = 100000000000 rounds of 4 paths make "
                                   "400000000000 play cells, above the enumeration cap "
                                   "10000000; refusing to allocate them")
        assert time.perf_counter() - start < 20.0
        assert not (tmp_path / "out").exists()

    AUCTION_CFG = ("[game]\ntype = auction\nbidders = {}\nitems = {}\nvalue = 20\n"
                   "bids = {}\n[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 10\n")

    def test_bid_range_above_the_cap(self, tmp_path):
        # a refusal that failed would list 1e11 bid levels: the child gets 2 GiB
        cfg = write_cfg(tmp_path, self.AUCTION_CFG.format(2, 1, "1..100000000000")
                        + f"[outputs]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        done = run_module("simulate", cfg, max_bytes=2 << 30)
        assert done.returncode == 1 and "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [
            f"error: {cfg} is not a valid config:",
            "  line 6: game.bids range '1..100000000000' has 100000000000 levels, above "
            "the enumeration cap 10000000; refusing to allocate them"]
        assert time.perf_counter() - start < 20.0
        assert not (tmp_path / "out").exists()

    def test_auction_items_above_the_cap(self, tmp_path):
        # a refusal that failed would draw 4e11 item values: the child gets 2 GiB
        cfg = write_cfg(tmp_path, self.AUCTION_CFG.format(4, 100000000000, "1..20")
                        + f"[outputs]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        done = run_module("simulate", cfg, max_bytes=2 << 30)
        assert done.returncode == 1 and "Traceback" not in done.stderr
        assert done.stderr.splitlines() == [
            f"error: {cfg} is not a valid config:",
            "  line 4: game.items: 4 bidders and 100000000000 items make 400000000000 item "
            "values, above the enumeration cap 10000000; refusing to allocate them"]
        assert time.perf_counter() - start < 20.0
        assert not (tmp_path / "out").exists()

    AUCTION_CAP_MESSAGE = ("an auction of 400 bidders, 400 items and 2000 bid levels stores "
                           "320000000 payoffs, above the enumeration cap 10000000; refusing "
                           "to allocate them")

    def test_auction_payoffs_above_the_cap(self, tmp_path):
        # a refusal that failed would store 2.38 GiB of payoffs: the child gets 2 GiB
        cfg = write_cfg(tmp_path, self.AUCTION_CFG.format(400, 400, "1..2000")
                        + f"[outputs]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        done = run_module("simulate", cfg, max_bytes=2 << 30)
        self.assert_one_line_error(done, self.AUCTION_CAP_MESSAGE)
        assert time.perf_counter() - start < 20.0
        assert not (tmp_path / "out").exists()

    def test_auction_payoffs_are_capped_before_any_value_is_drawn(self, tmp_path, capsys,
                                                                 monkeypatch):
        def draw(*args):
            raise AssertionError("item values drawn before the payoff cap")

        for name in ("masked_values", "uniform_values"):
            monkeypatch.setattr(regretlab.experiment, name, draw)
        cfg = write_cfg(tmp_path, self.AUCTION_CFG.format(10000, 1000, "1..20").replace(
            "value = 20\n", "value = 20\nvalue_mask_seed = 3\n")
            + f"[outputs]\ndir = {tmp_path / 'out'}\n")
        assert main(["simulate", cfg]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: an auction of 10000 bidders, 1000 items and 20 bid levels stores "
            "200000000 payoffs, above the enumeration cap 10000000; refusing to allocate them"]
        assert not (tmp_path / "out").exists()

    def test_masked_values_within_the_caps_are_drawn_in_a_second(self, tmp_path):
        # 10^7 masked item values pass the reader's and the payoff cap, so they
        # are drawn before the run cap refuses the run (8 to 13.5 s of pure-Python
        # draws on a 2-vCPU x86_64 host; 0.8 s drawn with numpy)
        cfg = write_cfg(tmp_path, self.AUCTION_CFG.format(10000, 1000, "1..1").replace(
            "value = 20\n", "value = 20\nvalue_mask_seed = 3\n")
            + f"[outputs]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        done = run_module("simulate", cfg, max_bytes=2 << 30)
        self.assert_one_line_error(done, "T = 10 rounds of 10000000 strategies make "
                                   "100000000 play cells, above the enumeration cap")
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "out").exists()

    def test_auction_payoffs_above_the_cap_in_a_trace(self, tmp_path):
        trace = self.random_game_trace(tmp_path, lambda g: {
            "kind": "auction", "n": 400, "m": 400, "values": [[20.0] * 400] * 400,
            "bid_levels": [float(b) for b in range(1, 2001)]})
        done = run_module("report", trace, max_bytes=2 << 30)
        self.assert_one_line_error(done, f"trace line 1: metadata game: "
                                   f"{self.AUCTION_CAP_MESSAGE}")

    @pytest.mark.parametrize("name", [c for c in SHIPPED_CONFIGS if c != "routing.cfg"])
    def test_shipped_runs_sit_far_below_the_cap(self, name):
        spec = parse_config(read(os.path.join(CONFIG_DIR, name)))
        game = build_game_from_config(spec.game)
        assert spec.T * sum(game.dims) * 10 <= DEFAULT_ENUM_CAP

    SEARCH_CFG = ("[game]\ntype = random\nplayers = 2\ndims = 300\nseed = 1\nlambda = 100\n"
                  "mu = 0\n[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 1\n")
    SEARCH_MESSAGE = ("give s_star: a smoothness search without it over 90000 pure profiles "
                      "makes 8100000000 candidate-profile checks, above the enumeration cap "
                      "10000000; refusing to allocate them")

    @pytest.mark.parametrize("command", ["simulate", "verify-smooth"])
    def test_search_without_s_star_above_the_cap(self, tmp_path, command):
        # the search would try 90,000 candidates against 90,000 profiles (about
        # 50 s); with s_star it checks one
        cfg = write_cfg(tmp_path, self.SEARCH_CFG + f"[outputs]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        done = run_module(command, cfg)
        self.assert_one_line_error(done, self.SEARCH_MESSAGE)
        assert time.perf_counter() - start < 1.0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fields, message", [
        ({"regularizer": "euclidean"}, "regularizer is fixed by algorithm 'optimistic_hedge'"),
        ({"predictor": "window", "predictor_param": 3},
         "predictor is fixed by algorithm 'optimistic_hedge'"),
    ], ids=["euclidean", "window"])
    def test_a_field_its_algorithm_fixes_in_a_trace(self, tmp_path, fields, message):
        # read before, such a trace was certified under the entropy and
        # last-utility constants of optimistic Hedge
        tr = run(make_random_game(2, [2, 2], seed=1),
                 [LearnerSpec("optimistic_hedge", 0.1)] * 2, 5)
        tr.meta["learners"][0].update(fields)
        path = tmp_path / "edited.csv"
        path.write_text(write_trace_csv(tr), encoding="utf-8")
        self.assert_one_line_error(run_module("report", str(path)),
                                   f"trace line 1: metadata learners[0]: {message}")

    def test_search_without_s_star_above_the_cap_in_a_trace(self, tmp_path):
        tr = run(make_random_game(2, [2, 2], seed=1), [LearnerSpec("hedge", 0.1)] * 2, 5)
        tr.meta["game"] = {**tr.meta["game"], "dims": [300, 300]}
        tr.meta["smoothness"] = {"lambda": 100.0, "mu": 0.0}
        path = tmp_path / "edited.csv"
        path.write_text(write_trace_csv(tr), encoding="utf-8")
        start = time.perf_counter()
        done = run_module("report", str(path))
        self.assert_one_line_error(done, f"trace line 1: metadata smoothness: "
                                   f"{self.SEARCH_MESSAGE}")
        assert time.perf_counter() - start < 1.0

    def test_dense_csv_header_above_the_cap(self, tmp_path):
        # a refusal that failed would NaN-fill 2e10 cells: the child gets 2 GiB
        (tmp_path / "p.csv").write_text("2,100000,100000\n0,0,0.5,0.5\n")
        cfg = write_cfg(tmp_path, "[game]\ntype = dense_csv\npath = p.csv\n"
                        "[learner]\nalgorithm = hedge\neta = 0.1\n[run]\nT = 10\n"
                        f"[outputs]\ndir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        done = run_module("simulate", cfg, max_bytes=2 << 30)
        self.assert_one_line_error(done, "dense-game line 1: header asks for 20000000000 "
                                   "utilities, above the enumeration cap 10000000")
        assert time.perf_counter() - start < 20.0
        assert not (tmp_path / "out").exists()

    ROBUST_CFG = ("[game]\ntype = random\nplayers = 2\ndims = {}\nseed = 3\n"
                  "[learner]\nalgorithm = oftrl\neta = 0.3\npredictor = last\n"
                  "[run]\nT = {}\n[robust]\neta_star = 0.2\n[outputs]\ndir = {}\n")

    @pytest.mark.parametrize("dims, T, wrapped", [("1,3", 20, [1]), ("2,3", 1, [])],
                             ids=["one-strategy-player", "one-round"])
    def test_a_robust_config_that_validates_runs(self, tmp_path, dims, T, wrapped):
        # a player with one strategy stays unwrapped (alpha = ln 1 = 0), and
        # the wrapped-learner bound, which needs T >= 2, is left out at T = 1
        out = tmp_path / "out"
        done = run_module("simulate", write_cfg(tmp_path, self.ROBUST_CFG.format(dims, T, out)))
        assert (done.returncode, done.stderr) == (0, "")
        assert re.findall(r"robust_bound\[(\d)\]", done.stdout) == [str(i) for i in wrapped]
        assert os.path.exists(out / "trace.csv") and os.path.exists(out / "report.csv")

    @pytest.mark.parametrize("kind, message", [
        ("regret", "regret plots need a normal-form or auction trace"),
        ("bids", "bid trajectories need an auction trace"),
    ])
    def test_plot_of_a_routing_trace(self, tmp_path, kind, message):
        manifest = run_experiment(network_spec(tmp_path), out_dir=str(tmp_path / "routing"))
        done = run_module("plot", manifest["artifacts"]["trace"], "--kind", kind)
        self.assert_one_line_error(done, message)
        assert not (tmp_path / "routing" / f"{kind}.svg").exists()

    def test_plot_to_a_missing_directory(self, tmp_path):
        manifest = run_experiment(parse_config(MATRIX_SMOOTH_CFG),
                                  out_dir=str(tmp_path / "arm"))
        dest = tmp_path / "missing" / "regret.svg"
        done = run_module("plot", manifest["artifacts"]["trace"], "--out", str(dest))
        self.assert_one_line_error(done, "No such file or directory")
        assert not dest.parent.exists()


# ---------------------------------------------------------------------------
# SVG rendering


class TestSvgPlot:
    def test_output_is_well_formed_xml_with_one_polyline_per_series(self):
        svg = line_plot([("a", [1, 2, 3], [0.0, 1.0, 0.5]),
                         ("b", [1, 2, 3], [1.0, 0.0, 0.5])],
                        title="demo", xlabel="x", ylabel="y")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert polylines(svg) == 2
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "demo" in texts and "a" in texts and "b" in texts

    def test_labels_are_escaped(self):
        svg = line_plot([("a<b&c", [0, 1], [0, 1])])
        assert "a&lt;b&amp;c" in svg
        ET.fromstring(svg)  # must stay parseable

    def test_constant_series_is_padded_not_degenerate(self):
        svg = line_plot([("flat", [1, 2, 3], [2.0, 2.0, 2.0])])
        ET.fromstring(svg)
        assert polylines(svg) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least one series"):
            line_plot([])
        with pytest.raises(ValueError, match="3 xs vs 2 ys"):
            line_plot([("a", [1, 2, 3], [1, 2])])
        with pytest.raises(ValueError, match="is empty"):
            line_plot([("a", [], [])])
        with pytest.raises(ValueError, match="non-finite"):
            line_plot([("a", [1, 2], [1.0, float("nan")])])

    def test_write_svg_round_trips(self, tmp_path):
        svg = line_plot([("s", [0, 1], [0, 1])])
        dest = tmp_path / "plot.svg"
        write_svg(svg, str(dest))
        assert read(str(dest)) == svg
