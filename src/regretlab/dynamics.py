"""Repeated simultaneous play with exact expected-utility feedback.

``run`` drives T rounds and records every mixed strategy.  A trace of either
kind is its game, its strategy vectors and its metadata; the rest
(utilities in normalized units, raw welfare, the per-player variation sums;
a routing trace's gradients and costs) is derived from them on
construction, by ``run`` and by the reader alike.  ``report`` turns a trace
into regrets plus every certificate its game and metadata support.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import groupby, product

import numpy as np

from . import continuous, games
from .continuous import CongestionNetwork, ContinuousTrace
from .costmode import certify_cost_welfare, fit_first_order_constants
from .games import (
    NormalFormGame,
    UtilityRangeError,
    _check_shape,
    poa_welfare_bound,
    verify_smoothness,
)
from .learners import (
    BestResponseLearner,
    Certificate,
    LearnerSpec,
    OnlineLearner,
    RegretReport,
    _best_vertex_regret,
    _positive_finite,
    _regularized_learner,
    _wrappable,
    certify_stability,
    certify_variation_bound,
    declared_variation_bound,
    make_learner,
    variation_steps,
)
from .library import build_game
from .regularizers import get_regularizer
from .robust import certify_robust, parametric_constants

__all__ = [
    "Trace",
    "run",
    "regret",
    "regret_series",
    "report",
    "write_trace_csv",
    "write_trace_file",
    "read_trace_csv",
]


_TRACE_VALUES = ("regret_to_date", "welfare", "du2_cum", "dw2_cum")  # stored per row


@dataclass
class Trace:
    """A run of a normal-form or auction game: the ``game``, every player's
    (T, d_i) ``plays`` and the ``meta`` (the game's description, the learners,
    T and mode), with the rest derived on construction from one profile check
    and one ``_utilities_and_welfare`` call over all T rounds: utilities[i]
    (T, d_i) in normalized units (1 - c in cost mode), welfare (T,) in raw
    units, and du2_cum / dw2_cum (n, T), the running sums of
    ||u^t - u^{t-1}||_inf^2 (u^0 = 0) and ||w^t - w^{t-1}||_1^2 (w^0 = w^1),
    the ``np.cumsum`` of ``learners.variation_steps`` of plays and utilities.
    """

    game: NormalFormGame
    plays: list
    meta: dict = field(default_factory=dict)
    utilities: list = field(init=False)
    welfare: np.ndarray = field(init=False)
    du2_cum: np.ndarray = field(init=False)
    dw2_cum: np.ndarray = field(init=False)
    value_names = _TRACE_VALUES
    vector_name = "strategy"

    def __post_init__(self):
        self.plays, _ = games._check_profile(self.game, self.plays)
        self.utilities, self.welfare = self.game._utilities_and_welfare(self.plays)
        if self.meta.get("mode") == "cost":
            self.utilities = [1.0 - u for u in self.utilities]
        steps = [variation_steps(u, w) for u, w in zip(self.utilities, self.plays)]
        self.du2_cum = np.array([np.cumsum(du2) for du2, _ in steps])
        self.dw2_cum = np.array([np.cumsum(dw2) for _, dw2 in steps])

    @property
    def n(self) -> int:
        return len(self.plays)

    @property
    def T(self) -> int:
        return len(self.welfare)


def _units(specs, dims) -> list:
    """(learner, players) for each unit that steps once per engine round.
    A run of consecutive players whose specs resolve to one FTRL or OMD spec
    over one strategy count d >= 2 is one group of k learners stepping as one
    (``learners._regularized_learner``); every other player is a unit of one:
    a prebuilt learner, a best responder, a first-order Hedge, a lone player
    or a one-strategy player (whose window sums would reduce pairwise)."""

    def key(i):
        s = specs[i]
        if isinstance(s, OnlineLearner) or dims[i] < 2:
            return i
        s = s.resolved()
        return (s, dims[i]) if s.algorithm in ("ftrl", "omd") else i

    units = []
    for _, run_ in groupby(range(len(specs)), key):
        players = list(run_)
        s, d, k = specs[players[0]], dims[players[0]], len(players)
        if isinstance(s, OnlineLearner):
            learner = s
        elif k == 1:
            learner = make_learner(s, d)
        else:
            learner = _regularized_learner(s, d, (k,))
        units.append((learner, players))
    return units


def run(game: NormalFormGame, specs, T: int, mode: str = "utility") -> Trace:
    """Play T rounds.  ``specs`` holds one LearnerSpec or prebuilt learner per
    player.  In cost mode the game's oracle is read as costs; learners that
    maximize utility receive 1 - c while cost-native learners see c directly.

    Best-response players respond to the current round's strategies of every
    distribution player (and the previous round's strategies of any other
    responder), so the dynamics stay simultaneous and well defined; the
    engine sets each responder's ``utilities`` before it plays: its slice of
    the block of one all-players oracle call the round's responders share.

    Consecutive players with one FTRL or OMD spec and one strategy count step
    as one group (see ``_units``): one play, one write of it and one observe
    per round, of (k, d) blocks whose rows are bitwise those of k single
    learners.  A group observes its slice of the oracle's flat block.

    Each play is shape-checked when its learner returns it; the round's
    all-players oracle calls skip the profile check, and every row of every
    play is checked against the simplex once, when the trace is derived.
    A run of more than ``games.DEFAULT_ENUM_CAP`` play cells (T * sum(d_i))
    is refused before anything is allocated.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if len(specs) != game.n:
        raise ValueError(f"{len(specs)} learner specs for {game.n} players")
    if mode not in ("utility", "cost"):
        raise ValueError(f"mode must be 'utility' or 'cost', got {mode!r}")
    dims = game.dims
    games._check_cap(T * sum(dims), f"T = {T} rounds of {sum(dims)} strategies make",
                     "play cells")
    # per unit: (learner, players, play shape, (T, *shape) plays, slice of the
    # oracle's block, as_is); utility learners get 1 - c in cost mode, cost-native
    # learners get the costs: the oracle's value in cost mode, 1 - u otherwise
    units = []
    for learner, players in _units(specs, dims):
        k, d, lo = len(players), dims[players[0]], sum(dims[:players[0]])
        # a fresh doubling wrapper's eta, min(alpha, eta_star), is the largest it takes
        games._check_step_size(getattr(learner, "eta", None), T, d, f"player {players[0]}: ")
        shape = (d,) if k == 1 else (k, d)
        units.append((learner, players, shape, np.empty((T,) + shape),
                      slice(lo, lo + k * d), (learner.feedback == "cost") == (mode == "cost")))
    responders = [u for u in units if isinstance(u[0], BestResponseLearner)]
    movers = [u for u in units if not isinstance(u[0], BestResponseLearner)]

    def play(current, t, learner, players, shape, record, *_):
        w = np.asarray(learner.play(), dtype=float)
        _check_shape(players[0], w, shape)
        record[t] = w
        current[players[0]:players[-1] + 1] = w.reshape(len(players), -1)

    def oracle(profile):
        try:
            return game._all_normalized_utilities(profile)
        except UtilityRangeError:
            games._check_profile(game, profile)  # name an off-simplex play, the likelier cause
            raise

    profile = [np.full(d, 1.0 / d) for d in dims]
    for t in range(T):
        current = list(profile)  # responders: previous round (uniform at t=0)
        for unit in movers:
            play(current, t, *unit)
        # all respond to one all-players call made before any of them plays:
        # each sees the others' last round, in its slice of the block
        if responders:
            block = oracle(current)
        for unit in responders:
            u = block[unit[4]]
            unit[0].utilities = 1.0 - u if mode == "cost" else u
            play(current, t, *unit)

        block = oracle(current)
        for learner, _, shape, _, rows, as_is in units:
            u = block[rows].reshape(shape)
            learner.observe(u if as_is else 1.0 - u)
        profile = current

    # every player's own C-contiguous (T, d) plays, a group's split off once
    plays = []
    for _, _, _, record, *_ in units:  # in player order
        plays += [record] if record.ndim == 2 else [p.copy() for p in record.swapaxes(0, 1)]
    del units, movers, responders, unit, record  # a group's record, now split

    meta = {
        "game": game.describe(),
        "learners": [s.to_dict() for s in specs],
        "T": T,
        "mode": mode,
    }
    return Trace(game, plays, meta)


# ---------------------------------------------------------------------------
# regrets, and the certificate rules of ``report``


def regret(trace: Trace, i: int) -> float:
    """Player i's regret against the best pure strategy, normalized units."""
    return _best_vertex_regret(trace.utilities[i], trace.plays[i])


def regret_series(trace: Trace, i: int) -> np.ndarray:
    """r_i(t) for every prefix t = 1..T (normalized units)."""
    u = trace.utilities[i]
    cum = np.cumsum(u, axis=0)
    realized = np.cumsum(np.sum(trace.plays[i] * u, axis=1))
    return cum.max(axis=1) - realized


class _Facts:
    """What the rules read of a trace: regrets, report rows, extras; by player,
    declared bounds, FTRL specs with an eta and wrappers' constants; a claim's
    verification; a routing trace's Lipschitz bundle at its tuned eta."""

    def __init__(self, trace):
        self.trace, self.T, self.extras = trace, trace.T, {}
        self.bounds, self.ftrl, self.wrapped, self.smooth, self.bundle = {}, {}, {}, None, None
        if isinstance(trace, ContinuousTrace):
            net, self.n, self.mode = trace.network, trace.network.n, "routing"
            bundle = continuous.lipschitz_constant(net)
            self.regrets = [continuous.linearized_regret(trace, i) for i in range(self.n)]
            self.regrets_raw = [continuous.true_regret(trace, i) for i in range(self.n)]
            self.summary = {"sum_linearized_regret": float(sum(self.regrets)),
                            "avg_total_cost": float(trace.total_cost.mean()),
                            "lipschitz_L": bundle.L, "eta": float(trace.eta)}
            self.bundle = bundle if continuous._tuned_eta(net, bundle, trace.eta)[1] else None
            return
        meta, self.n = trace.meta, trace.n
        self.mode, claim = meta.get("mode", "utility"), meta.get("smoothness")
        self.regrets = regrets = [regret(trace, i) for i in range(self.n)]
        self.regrets_raw = [r * trace.game.scale for r in regrets]
        self.summary = {"sum_regret": float(sum(regrets)), "max_regret": float(max(regrets)),
                        "cce_gap": float(max(regrets)) / self.T,
                        "avg_welfare": float(trace.welfare.mean())}
        if claim:
            self.smooth = verify_smoothness(trace.game, claim["lambda"], claim["mu"],
                                            claim.get("s_star"), mode=self.mode)
        for i, e in enumerate(_learner_meta(e) for e in meta.get("learners", [None] * self.n)):
            d = trace.plays[i].shape[1]
            if isinstance(e, tuple):  # certify_robust's alpha, beta, gamma, eta_star, pair
                alpha, beta, gamma, pair = parametric_constants(e[0], d)
                self.wrapped[i] = (alpha, beta, gamma, e[1], pair)
            elif isinstance(e, LearnerSpec):
                s = e.resolved()
                if (b := declared_variation_bound(s, d)) is not None:
                    self.bounds[i] = b
                if s.algorithm == "ftrl" and s.eta is not None:
                    self.ftrl[i] = s
                if s.algorithm == "omd" and self.T >= 2:  # its largest step (informational)
                    steps = np.sum(np.abs(np.diff(trace.plays[i], axis=0)), axis=1)
                    self.extras[f"omd_max_step[{i}]"] = float(steps.max())


def _regret_vs_stability(f: _Facts, i: int) -> tuple:
    b, kappa = f.bounds[i], 2.0 * f.ftrl[i].eta  # kappa * kappa is inf where kappa**2 raises
    return f.regrets[i], b.alpha + b.beta * (kappa * kappa) * (f.n - 1) ** 2 * f.T, {"kappa": kappa}


def _cost_welfare(f: _Facts, _) -> Certificate:
    # measured (A1, A2) over each player's (d, best cumulative cost, regret)
    constants = fit_first_order_constants(
        [(u.shape[1], float((1.0 - u).sum(axis=0).min()), r)
         for u, r in zip(f.trace.utilities, f.regrets)])
    f.extras.update(first_order_A1=constants.A1, first_order_A2=constants.A2)
    return certify_cost_welfare(f.trace, f.smooth, constants)


# A rule names a certificate (``name[i]`` per player when per_player), its
# kind, the precondition ``applies(facts, i)`` under which it attaches and
# ``check(facts, i)``, giving (lhs, rhs, details) for ``Certificate.check`` or a
# ``certify_*`` helper's certificate.  A learner claim can fail on plays its
# learner did not produce, a game claim on a game without the property; a
# consistency check follows from a verified claim and the same plays' regrets.
_Rule = namedtuple("_Rule", "name kind per_player applies check")
LEARNER, GAME, CONSISTENCY = "learner claim", "game claim", "consistency check"
_RULES = (
    _Rule("variation_bound", LEARNER, True, lambda f, i: i in f.bounds,
          lambda f, i: certify_variation_bound(f.trace.utilities[i], f.trace.plays[i],
                                               f.bounds[i])),
    _Rule("sum_regret_bound", LEARNER, False,  # beta <= gamma/(n-1)^2, over d too for l2
          lambda f, _: f.n >= 2 and len(f.bounds) == f.n and all(
              b.beta <= b.gamma / ((f.trace.plays[i].shape[1] if b.norm_pair == "l2_l2" else 1)
                                   * (f.n - 1) ** 2) + 1e-12 for i, b in f.bounds.items()),
          lambda f, _: (sum(f.regrets), f.n * max(b.alpha for b in f.bounds.values()),
                        {"alpha": max(b.alpha for b in f.bounds.values())})),
    _Rule("play_stability", LEARNER, True, lambda f, i: i in f.ftrl,
          lambda f, i: certify_stability(f.trace.plays[i], f.ftrl[i].eta)),
    _Rule("regret_vs_stability", LEARNER, True,  # alone, u^1 has no kappa bound
          lambda f, i: i in f.ftrl and i in f.bounds and f.n >= 2, _regret_vs_stability),
    # regret_vs_stability's precondition, at eta (n-1)^(-1/2) T^(-1/4) (<= 1) to 1e-9
    _Rule("individual_rate", LEARNER, True,
          lambda f, i: i in f.ftrl and i in f.bounds and f.n >= 2
          and abs(f.ftrl[i].eta - (f.n - 1) ** -0.5 * f.T ** -0.25) <= 1e-9,
          lambda f, i: (f.regrets[i], (get_regularizer(f.ftrl[i].regularizer).r_ftrl(
              f.trace.plays[i].shape[1]) + 4.0) * math.sqrt(f.n - 1) * f.T**0.25,
                        {"eta": f.ftrl[i].eta})),
    _Rule("welfare_floor", CONSISTENCY, False,
          lambda f, _: f.smooth and f.smooth.verified and f.mode == "utility",
          lambda f, _: (poa_welfare_bound(f.smooth.lam, f.smooth.mu, f.smooth.opt,
                                          f.regrets_raw, f.T), f.summary["avg_welfare"],
                        {"lambda": f.smooth.lam, "mu": f.smooth.mu, "opt": f.smooth.opt})),
    _Rule("smoothness_claim", GAME, False, lambda f, _: f.smooth,
          lambda f, _: (0.0, f.smooth.slack, {  # 0 <= slack + TOL is also verified's rule
              "lambda": f.smooth.lam, "mu": f.smooth.mu, "s_star": list(f.smooth.s_star),
              "worst_profile": list(f.smooth.worst_profile), "opt": f.smooth.opt})),
    _Rule("cost_welfare", CONSISTENCY, False,
          lambda f, _: f.smooth and f.smooth.verified and f.mode == "cost"
          and 0.0 < f.smooth.mu < 1.0, _cost_welfare),
    _Rule("robust_bound", LEARNER, True, lambda f, i: i in f.wrapped and f.T >= 2,
          lambda f, i: certify_robust(f.trace.utilities[i], f.trace.plays[i],
                                      *f.wrapped[i][:4], norm_pair=f.wrapped[i][4])),
    _Rule("total_linearized_regret", LEARNER, False, lambda f, _: f.bundle,
          lambda f, _: continuous.certify_total_regret(f.trace, f.bundle)),
)


def report(trace) -> RegretReport:
    """Regrets and, in ``_RULES``' order (a run of per-player rules player by
    player), every certificate whose precondition the trace meets; a claim in
    the metadata is verified on the trace's own game.  A routing trace's
    regrets are linearized (``regrets``) and true (``regrets_raw``)."""
    f, certificates = _Facts(trace), []
    for per_player, rules in groupby(_RULES, lambda rule: rule.per_player):
        for i, rule in product(range(f.n) if per_player else [None], rules):
            if rule.applies(f, i):
                out = rule.check(f, i)
                cert = out if isinstance(out, Certificate) else Certificate.check(rule.name, *out)
                cert.name = rule.name if i is None else f"{rule.name}[{i}]"
                certificates.append(cert)
    return RegretReport(f.regrets, f.regrets_raw, f.summary, certificates, f.extras)


# ---------------------------------------------------------------------------
# trace CSV interchange


# at most this many rows of a trace file (256 rows of auction_fig1: about
# 0.45 MB of text) in one chunk: the writer builds a file a chunk of rows at a
# time, so its working memory beside the text does not grow with T
_TRACE_CHUNK_ROWS = 1 << 8
# rounds of parsed rows the reader holds before it writes them into the
# trace's arrays as one block per player
_READ_BLOCK_ROUNDS = 64


def _trace_chunks(meta: dict, value_names, values, vector_name: str, vectors):
    """The layout every trace file shares, ``_TRACE_CHUNK_ROWS`` rows at a time:
    a JSON metadata comment, a header, then per (round, player) t, player,
    ``values[i][t]`` (one per name in ``value_names``) and ``vectors[i][t]``,
    padded to the widest player's.  Each cell is its float's ``repr``, so reruns
    are byte-identical, formed once per distinct bit pattern of a player's block
    (``np.unique`` of its int64 view: float keys would merge -0.0 with 0.0)."""
    n, T = len(vectors), len(vectors[0])
    width = max(v.shape[1] for v in vectors)
    header = ["t", "player", *value_names, *(f"{vector_name}_{k}" for k in range(width))]
    pads = ["," * (width - vec.shape[1]) for vec in vectors]
    step = max(1, _TRACE_CHUNK_ROWS // n)
    yield f"# meta={json.dumps(meta, sort_keys=True)}\n{','.join(header)}\n"
    for start in range(0, T, step):
        rows = []
        for i, (vals, vec) in enumerate(zip(values, vectors)):
            block = np.column_stack((vals[start:start + step], vec[start:start + step]))
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            cells = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
            rows.append([f"{t},{i},{','.join(row)}{pads[i]}\n" for t, row in
                         enumerate(cells[inverse.reshape(block.shape)].tolist(), start + 1)])
        yield "".join(row for round_rows in zip(*rows) for row in round_rows)


def _trace_values(trace) -> list:
    """Per player, the (T, k) values ``trace.value_names`` a trace file stores."""
    if isinstance(trace, ContinuousTrace):
        return [np.column_stack((c, trace.total_cost)) for c in trace.costs]
    return [np.column_stack((regret_series(trace, i), trace.welfare,
                             trace.du2_cum[i], trace.dw2_cum[i]))
            for i in range(trace.n)]


def _trace_layout(trace) -> tuple:
    """The arguments of ``_trace_chunks`` for a trace."""
    vectors = trace.flows if isinstance(trace, ContinuousTrace) else trace.plays
    return trace.meta, trace.value_names, _trace_values(trace), trace.vector_name, vectors


def write_trace_csv(trace) -> str:
    """A Trace or a ContinuousTrace as trace-file text: per player and round
    its stored values (regret to date, welfare, du2_cum and dw2_cum; or cost
    and total cost), then the strategy or the path flows."""
    return "".join(_trace_chunks(*_trace_layout(trace)))


def write_trace_file(trace, path) -> None:
    """``write_trace_csv(trace)`` into ``path``, holding one chunk at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_trace_chunks(*_trace_layout(trace)))


def read_trace_csv(source):
    """Rebuild a trace from its CSV as ``kind(game, vectors, meta)``, a
    ``Trace`` or ``ContinuousTrace`` of the game the metadata line describes,
    the strategies (or a routing trace's flows) and the metadata, so the rest
    is derived as in a run; a stored value that disagrees with its derivation
    (beyond rtol 1e-9, atol 1e-12) is an error naming its line.  The metadata
    must be a JSON object with a ``game`` object that rebuilds the game and an
    int ``T`` >= 1.  A network game needs a positive finite float ``eta`` and,
    if given, a ``mode`` of routing; any other game needs one ``learners``
    object per player (see ``_learner_meta``) and, if given, a ``mode`` of
    utility or cost and a ``smoothness`` object whose ``lambda``, ``mu`` and
    optional ``s_star`` pass ``games._check_claim``.

    ``source`` is a path, read as UTF-8 (a file that is not is a ``ValueError``
    naming it), or an open text file such as ``io.StringIO(text,
    newline=None)``; a line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only.  A first
    pass counts the body's rows, so the row count is checked before any row; a
    second splits them one line at a time, parses each distinct cell of a row
    once and fills the arrays a block of rounds at a time (``_parse_rows``).
    The writer quotes no cell, so a quoted one is an error naming its line.
    Only the parsed arrays grow with T."""
    with contextlib.nullcontext(source) if hasattr(source, "readline") \
            else open(source, encoding="utf-8") as fh:
        try:
            first = fh.readline().rstrip("\n")
            fh.readline()  # the header
            body = fh.tell()
            count = sum(1 for _ in fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"cannot read {source}: {exc}") from None
        fh.seek(body)
        return _parse_trace(first, count, (line.rstrip("\n").split(",") for line in fh))


def _parse_trace(first: str, count: int, rows):
    """``read_trace_csv`` past its reading: the metadata line ``first``, the
    number of body rows and an iterator over their cells."""
    if not first.startswith("# meta="):
        raise ValueError("trace file is missing its metadata line")
    try:
        meta = json.loads(first[len("# meta="):])
    except ValueError as exc:
        raise ValueError(f"trace line 1: metadata is not valid JSON: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("game"), dict):
        raise ValueError("trace line 1: metadata must be a JSON object with a 'game' object")
    try:
        game = build_game(meta["game"])
    except KeyError as exc:
        raise ValueError(f"trace line 1: metadata game is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace line 1: metadata game: {exc}") from None
    T = meta.get("T")
    if type(T) is not int or T < 1:
        raise ValueError(f"trace line 1: metadata T must be an integer >= 1, got {T!r}")
    if isinstance(game, CongestionNetwork):
        if meta.get("mode", "routing") != "routing":
            raise ValueError(f"trace line 1: metadata mode must be 'routing', "
                             f"got {meta['mode']!r}")
        eta = meta.get("eta")
        if type(eta) is not float or not 0.0 < eta < math.inf:
            raise ValueError(f"trace line 1: metadata eta must be a positive finite "
                             f"float, got {eta!r}")
        kind, dims, source = ContinuousTrace, [len(p) for p in game.paths], "flows"
    else:
        _check_game_meta(meta, game.dims)
        kind, dims, source = Trace, game.dims, "plays"
    n, k = len(dims), len(kind.value_names)
    if count != n * T:
        raise ValueError(f"expected {n * T} data rows, found {count}")
    stored, vectors = _parse_rows(rows, T, k, dims, kind.vector_name)
    trace = kind(game, vectors, meta)
    bad = ~np.isclose(stored, np.stack(_trace_values(trace), axis=1), rtol=1e-9, atol=1e-12)
    if bad.any():
        t, i, c = np.argwhere(bad)[0]
        raise ValueError(f"trace line {t * n + i + 3}: stored {kind.value_names[c]} "
                         f"{float(stored[t, i, c])!r} does not match the {source}")
    return trace


def _parse_rows(rows, T: int, k: int, dims, vector_name: str):
    """The (T, n, k) stored values and the (T, d_i) vectors of a trace's
    ``n * T`` body rows, each a list of cells: ``t, player``, k values and
    d_i vector entries, padded with empty cells to the widest player's.

    Each row parses each distinct cell string once (tied strategies repeat
    their probabilities), in order of first appearance, so the first bad cell
    is the one a cell-by-cell parse would meet; a row that repeats nothing
    parses straight.  Parsed rows go into the arrays ``_READ_BLOCK_ROUNDS``
    rounds at a time."""
    n, width = len(dims), 2 + k + max(dims)
    stored = np.empty((T, n, k))
    vectors = [np.empty((T, d)) for d in dims]
    # per player: its index, the text of its player cell and the end of its
    # row's value cells
    players = [(i, str(i), 2 + k + d) for i, d in enumerate(dims)]
    rows = iter(rows)
    for t0 in range(0, T, _READ_BLOCK_ROUNDS):
        t1 = min(T, t0 + _READ_BLOCK_ROUNDS)
        parsed = [[] for _ in dims]
        for t in range(t0, t1):
            round_ = str(t + 1)
            for (i, player, end), row in zip(players, rows):
                try:
                    if row[:2] != [round_, player]:
                        raise ValueError(f"expected round {t + 1}, player {i}; "
                                         f"found {','.join(row[:2]) or 'an empty row'}")
                    cells = row[2:end]
                    memo = dict.fromkeys(cells)
                    if len(row) != width or "" in memo or any(row[end:]):
                        raise ValueError(f"expected {k} values and {dims[i]} {vector_name} "
                                         f"entries, padded with empty cells to {width} cells")
                    if len(memo) == len(cells):
                        parsed[i].append(list(map(float, cells)))
                    else:
                        for x in memo:
                            memo[x] = float(x)
                        parsed[i].append(list(map(memo.__getitem__, cells)))
                except ValueError as exc:
                    raise ValueError(f"trace line {t * n + i + 3}: {exc}") from None
        for i, block in enumerate(parsed):
            block = np.array(block)
            stored[t0:t1, i] = block[:, :k]
            vectors[i][t0:t1] = block[:, k:]
    return stored, vectors


def _check_game_meta(meta: dict, dims) -> None:
    """The mode, smoothness claim and learners of the meta of a normal-form
    trace whose players have ``dims`` strategies."""
    if meta.get("mode", "utility") not in ("utility", "cost"):
        raise ValueError(f"trace line 1: metadata mode must be 'utility' or 'cost', "
                         f"got {meta['mode']!r}")
    claim = meta.get("smoothness") or {}
    if not isinstance(claim, dict):
        raise ValueError(f"trace line 1: metadata smoothness must be an object, got {claim!r}")
    if claim:
        try:
            games._check_claim(dims, claim.get("lambda"), claim.get("mu"), claim.get("s_star"))
        except ValueError as exc:
            raise ValueError(f"trace line 1: metadata smoothness: {exc}") from None
    n = len(dims)
    learners = meta.get("learners")
    if not isinstance(learners, list) or len(learners) != n \
            or not all(isinstance(x, dict) for x in learners):
        raise ValueError(f"trace line 1: metadata learners must be a list of {n} objects")
    for i, entry in enumerate(learners):
        try:
            _learner_meta(entry)
        except ValueError as exc:
            raise ValueError(f"trace line 1: metadata learners[{i}]: {exc}") from None


def _learner_meta(entry):
    """A ``learners`` entry of a trace's meta, by the one rule the reader and
    ``report`` share: None for none or a prebuilt learner
    (``algorithm`` its only key), ``(inner spec, eta_star)`` for a doubling
    wrapper (``algorithm`` robust, its inner spec wrappable), else the entry's
    LearnerSpec."""
    if not entry or entry.keys() == {"algorithm"}:
        return None
    if entry.get("algorithm") != "robust":
        return LearnerSpec.from_dict(entry)
    inner = entry.get("inner")
    if not isinstance(inner, dict):
        raise ValueError(f"inner must be a learner spec object, got {inner!r}")
    _positive_finite("eta_star", entry.get("eta_star"))
    try:
        inner = _wrappable(LearnerSpec.from_dict(inner))
    except ValueError as exc:
        raise ValueError(f"inner.{exc}") from None
    return inner, entry["eta_star"]
