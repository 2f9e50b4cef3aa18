"""The benchmark's three workloads.

Each is a closed loop: one process, one caller, no extra threads.  A
workload builds its inputs from the seed once (the set-up the benchmark
times), then runs whole passes; every pass performs the same operations in a
seed-shuffled order, so the mix of operations, and with it the latency
distribution, is the same on every pass and every seed.

Calls go through module attributes (``dynamics.run``, not a local import) so
the traced run sees them.  Every output is checked; an operation that raises
is counted as failed, never dropped.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
import random
import shutil
from time import perf_counter

import numpy as np

from regretlab import config, continuous, dynamics, experiment, learners, library, robust
from regretlab.learners import LearnerSpec

TOL = 1e-9
CALIBRATE_EVERY_S = 0.2
_CAL_V = np.linspace(0.0, 1.0, 8)


def calibration_kernel() -> float:
    """Fixed interpreter-plus-small-numpy work that never touches regretlab;
    its time tracks how fast the machine runs at the moment."""
    s = 0.0
    for i in range(300):
        w = np.exp(_CAL_V - _CAL_V.max())
        w /= w.sum()
        s += float(w @ _CAL_V) + i % 3
    return s


def calibrate(samples: int) -> list[float]:
    """Times of ``samples`` back-to-back calibration kernels."""
    out = []
    for _ in range(samples):
        start = perf_counter()
        calibration_kernel()
        out.append(perf_counter() - start)
    return out


class Ops:
    """Times operations and collects their outcomes and check results.

    Each operation is recorded as (label, pass, seconds, ok); a label names
    one operation on one input, which every pass repeats.  Between
    operations, at most every CALIBRATE_EVERY_S, the calibration kernel is
    timed too (outside the operations' times)."""

    def __init__(self, calibrate: bool = True):
        self.labels: dict[str, int] = {}  # label -> player-rounds it performs
        self.records: list[tuple[str, int, float, bool]] = []
        self.passes = 0
        self.timed_s = 0.0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.calibration: list[float] = []
        self._calibrate_every = CALIBRATE_EVERY_S if calibrate else math.inf
        self._calibrated_at = perf_counter()

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r[3])

    def run(self, label: str, rounds: int, fn, *args):
        """Call ``fn(*args)`` as one timed operation; None when it raised."""
        self.labels[label] = rounds
        start = perf_counter()
        try:
            result, ok = fn(*args), True
        except Exception as exc:  # a failing operation is a measured outcome
            result, ok = None, False
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}"[:300])
        elapsed = perf_counter() - start
        self.records.append((label, self.passes, elapsed, ok))
        self.timed_s += elapsed
        if perf_counter() - self._calibrated_at >= self._calibrate_every:
            self.calibration += calibrate(1)
            self._calibrated_at = perf_counter()
        return result

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _pass_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}:{k}")


# ---------------------------------------------------------------------------
# configs_cli: the simulate and report subcommands on every shipped config


def _simulate(text: str, config_dir: str, out_dir: str) -> dict:
    spec = config.parse_config(text)
    ref = spec.game.get("path")  # resolved against the config, as the CLI does
    if ref is not None and not os.path.isabs(ref):
        spec.game["path"] = os.path.join(config_dir, ref)
    return experiment.run_experiment(spec, out_dir=out_dir)


def _report(trace_path: str):
    rep = experiment.full_report(dynamics.read_trace_csv(trace_path))
    return rep, experiment.write_report_csv(rep)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class ConfigsCli:
    """Every shipped config through ``simulate``'s path, then every trace it
    wrote through ``report``'s path.  The seed shuffles the order only: the
    configs are the shipped inputs, so trace digests stay comparable."""

    name = "configs_cli"

    def __init__(self, root: str, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch
        self.configs = []
        for path in sorted(glob.glob(os.path.join(root, "configs", "*.cfg"))):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            config_dir = os.path.dirname(os.path.abspath(path))
            spec = config.parse_config(text)
            if spec.game["type"] == "network":
                with open(os.path.join(config_dir, spec.game["path"]), encoding="utf-8") as fh:
                    players = continuous.parse_network(fh.read()).n
            else:
                players = experiment.build_game_from_config(spec.game).n
            arms = 2 if spec.baseline is not None else 1
            stem = os.path.splitext(os.path.basename(path))[0]
            self.configs.append((stem, text, config_dir, players * spec.T * arms))
        if not self.configs:
            raise ValueError("no shipped configs found")
        self.digests: dict[str, str] = {}

    def run_pass(self, k: int, ops: Ops) -> None:
        rng = _pass_rng(self.seed, k)
        out = os.path.join(self.scratch, f"pass-{k}")
        order = list(self.configs)
        rng.shuffle(order)
        traces = []
        try:
            for stem, text, config_dir, rounds in order:
                manifest = ops.run(f"simulate {stem}", rounds, _simulate, text, config_dir,
                                   os.path.join(out, stem))
                if manifest is None:
                    continue
                self._check_manifest(stem, manifest, ops)
                artifacts = manifest["artifacts"]
                for key in sorted(artifacts):
                    if key.startswith("trace"):
                        report_key = "report" + key[len("trace"):]
                        traces.append((stem, artifacts[key], artifacts.get(report_key)))
            rng.shuffle(traces)
            for stem, trace_path, report_path in traces:
                label = f"report {stem}/{os.path.basename(trace_path)}"
                out_rep = ops.run(label, 0, _report, trace_path)
                if out_rep is None:
                    continue
                rep, text = out_rep
                ops.check(not rep.failed(), f"{label}: a certificate failed")
                with open(report_path, encoding="utf-8") as fh:
                    ops.check(fh.read() == text,
                              f"{label}: differs from simulate's report file")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_manifest(self, stem: str, manifest: dict, ops: Ops) -> None:
        ops.check(manifest["exit_code"] == 0, f"simulate {stem}: exit code "
                  f"{manifest['exit_code']}")
        for part in ("summary", "baseline_summary"):
            for cert, status in manifest.get(part, {}).get("certificates", {}).items():
                ops.check(status != "fail", f"simulate {stem}: {cert} failed")
        for key, path in manifest["artifacts"].items():
            if key.startswith("trace"):
                digest = _sha256(path)
                ref = self.digests.setdefault(f"{stem}/{os.path.basename(path)}", digest)
                ops.check(digest == ref, f"simulate {stem}: {key} bytes changed between passes")


# ---------------------------------------------------------------------------
# dense_selfplay: in-memory self-play sweeps on random dense games


DENSE_T = 100
GAMES_PER_SHAPE = 4
ROBUST_ETA_STAR = 0.5


def _selfplay(game, family: str):
    n = game.n
    if family == "oftrl":
        spec = LearnerSpec("oftrl", 1.0 / (2.0 * (n - 1)), "entropy", "last")
    else:
        spec = LearnerSpec("omd", 1.0 / (math.sqrt(8.0) * (n - 1)), "entropy", "last")
    trace = dynamics.run(game, [spec] * n, DENSE_T)
    return spec, trace, dynamics.report(trace)


def _robust_selfplay(game, family: str):
    """n-1 doubling-wrapped players against one best responder."""
    n, d = game.n, game.dims[0]
    inner = LearnerSpec(family, 1.0, "entropy", "last")
    wrapped = [robust.wrap_doubling(inner, d, ROBUST_ETA_STAR) for _ in range(n - 1)]
    trace = dynamics.run(game, wrapped + [LearnerSpec("bestresponse")], DENSE_T)
    rep = dynamics.report(trace)
    _, beta, gamma, pair = robust.parametric_constants(inner, d)
    certs = [robust.certify_robust(trace.utilities[i], trace.plays[i], w.alpha, beta, gamma,
                                   ROBUST_ETA_STAR, tol=TOL, norm_pair=pair)
             for i, w in enumerate(wrapped)]
    return rep, certs


class DenseSelfplay:
    """Per pass: optimistic FTRL and OMD self-play at the step sizes of the
    constant-sum-of-regrets guarantee on four seeded games per (n, d), plus
    one doubling-wrapper-versus-best-response run per (n, d): 108 operations,
    a ninth of them on the serial robust path."""

    name = "dense_selfplay"

    def __init__(self, root: str, seed: int, scratch: str):
        self.seed = seed
        rng = random.Random(seed)
        self.ops = []
        for n in (2, 3, 4):
            for d in (2, 3, 4, 5):
                games = [library.make_random_game(n, [d] * n, rng.randrange(2**32))
                         for _ in range(GAMES_PER_SHAPE)]
                for g, game in enumerate(games):
                    for family in ("oftrl", "omd"):
                        self.ops.append((f"{family} n={n} d={d} game={g}", game, family, False))
                g = rng.randrange(GAMES_PER_SHAPE)
                family = rng.choice(("oftrl", "omd"))
                self.ops.append((f"robust-{family} n={n} d={d} game={g}", games[g], family, True))

    def run_pass(self, k: int, ops: Ops) -> None:
        order = list(self.ops)
        _pass_rng(self.seed, k).shuffle(order)
        for label, game, family, wrapped in order:
            rounds = game.n * DENSE_T
            if wrapped:
                out = ops.run(label, rounds, _robust_selfplay, game, family)
                if out is None:
                    continue
                rep, certs = out
                for c in certs:
                    ops.check(c.passed is True, f"{label}: robust bound {c.lhs} > {c.rhs}")
            else:
                out = ops.run(label, rounds, _selfplay, game, family)
                if out is None:
                    continue
                spec, trace, rep = out
                n, d = game.n, game.dims[0]
                if family == "oftrl":
                    bound = 2.0 * n * (n - 1) * math.log(d)
                else:
                    bound = n * math.log(d) / spec.eta
                prefix = np.sum([dynamics.regret_series(trace, i) for i in range(n)], axis=0)
                ops.check(float(prefix.max()) <= bound + TOL,
                          f"{label}: regret prefix sum {prefix.max()} > {bound}")
            for c in rep.certificates:
                ops.check(c.passed is not False, f"{label}: {c.name} failed")


# ---------------------------------------------------------------------------
# stream_certify: single learners against fixed utility streams


STREAM_T = 500
STREAM_D = 3
RANDOM_STREAMS = 10


def _adversarial_streams(d: int):
    """Stateless adversarial utility streams in [0, 1]^d; the last two react
    to the learner's current strategy."""
    eye = np.eye(d)
    ones, zeros = np.ones(d), np.zeros(d)
    ramp = np.arange(d) + 1.0
    return [
        ("alternate-all", lambda t, w: ones if t % 2 == 0 else zeros),
        ("rotate-one", lambda t, w: eye[t % d]),
        ("rotate-all-but-one", lambda t, w: 1.0 - eye[t % d]),
        ("flip-first-two", lambda t, w: eye[t % 2]),
        ("flip-first", lambda t, w: eye[0] if t % 2 == 0 else 1.0 - eye[0]),
        ("slow-rotate", lambda t, w: eye[(t // 50) % d]),
        ("sawtooth", lambda t, w: (t * ramp / 7.0) % 1.0),
        ("sine", lambda t, w: 0.5 + 0.5 * np.sin(ramp * t)),
        ("reward-neglected", lambda t, w: eye[int(np.argmin(w))]),
        ("punish-favourite", lambda t, w: 1.0 - eye[int(np.argmax(w))]),
    ]


def _variants():
    """The six optimistic learner variants that declare variation bounds, at
    three step sizes."""
    out = []
    for eta in (0.05, 0.1, 0.5):
        out += [
            LearnerSpec("omd", eta, "entropy", "last"),
            LearnerSpec("oftrl", eta, "entropy", "last"),
            LearnerSpec("oftrl", eta, "entropy", "window", 2),
            LearnerSpec("oftrl", eta, "entropy", "window", 5),
            LearnerSpec("oftrl", eta, "entropy", "geometric", 0.5),
            LearnerSpec("oftrl", eta, "entropy", "geometric", 0.9),
        ]
    return out


def _drive_and_certify(spec, bound, stream):
    learner = learners.make_learner(spec, STREAM_D)
    plays = np.empty((STREAM_T, STREAM_D))
    utils = np.empty((STREAM_T, STREAM_D))
    for t in range(STREAM_T):
        w = learner.play()
        u = stream(t, w)
        learner.observe(u)
        plays[t] = w
        utils[t] = u
    return learners.certify_variation_bound(utils, plays, bound, tol=TOL)


class StreamCertify:
    """Per pass: every variant against seeded random streams and the
    adversarial streams, each run certified against its declared bound."""

    name = "stream_certify"

    def __init__(self, root: str, seed: int, scratch: str):
        self.seed = seed
        rows = np.random.default_rng(seed).random((RANDOM_STREAMS, STREAM_T, STREAM_D))
        streams = [(f"random-{j}", lambda t, w, r=r: r[t]) for j, r in enumerate(rows)]
        streams += _adversarial_streams(STREAM_D)
        self.ops = []
        for spec in _variants():
            bound = learners.declared_variation_bound(spec, STREAM_D)
            label = (f"{spec.algorithm}/{spec.predictor}"
                     f"{'' if spec.predictor_param is None else spec.predictor_param}"
                     f" eta={spec.eta}")
            for stream_name, stream in streams:
                self.ops.append((f"{label} vs {stream_name}", spec, bound, stream))

    def run_pass(self, k: int, ops: Ops) -> None:
        order = list(self.ops)
        _pass_rng(self.seed, k).shuffle(order)
        for label, spec, bound, stream in order:
            cert = ops.run(label, STREAM_T, _drive_and_certify, spec, bound, stream)
            if cert is not None:
                ops.check(cert.passed is True,
                          f"{label}: variation bound {cert.lhs} > {cert.rhs}")


WORKLOADS = {w.name: w for w in (ConfigsCli, DenseSelfplay, StreamCertify)}


def build(name: str, root: str, seed: int, scratch: str):
    return WORKLOADS[name](root, seed, scratch)

