"""Repeated simultaneous play with exact expected-utility feedback.

``run`` drives T rounds and records every mixed strategy; the rest of a
trace (utilities in normalized units, raw welfare, the per-player variation
sums) is a function of those plays, derived by the one routine that also
rebuilds a trace read from CSV.  ``report`` turns a trace into regrets plus
every certificate the trace's metadata supports.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

import numpy as np

from . import games
from .continuous import CongestionNetwork, ContinuousTrace, routing_report
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
    _best_vertex_regret,
    _positive_finite,
    _regularized_learner,
    certify_stability,
    certify_variation_bound,
    declared_variation_bound,
    declares_variation_bound,
    make_learner,
    variation_steps,
)
from .library import build_game
from .regularizers import get_regularizer
from .robust import certify_robust, parametric_constants

__all__ = [
    "Trace",
    "RegretReport",
    "run",
    "regret",
    "regret_series",
    "report",
    "write_trace_rows",
    "write_trace_csv",
    "read_trace_csv",
]


_TRACE_VALUES = ("regret_to_date", "welfare", "du2_cum", "dw2_cum")  # stored per row


@dataclass
class Trace:
    """Full record of one run.

    plays[i] and utilities[i] are (T, d_i) arrays (normalized units);
    welfare is (T,) in raw units; du2_cum / dw2_cum are (n, T) running sums of
    ||u^t - u^{t-1}||_inf^2 (u^0 = 0) and ||w^t - w^{t-1}||_1^2 (w^0 = w^1),
    the ``np.cumsum`` of ``learners.variation_steps`` of plays and utilities.
    """

    plays: list
    utilities: list
    welfare: np.ndarray
    du2_cum: np.ndarray
    dw2_cum: np.ndarray
    meta: dict = field(default_factory=dict)
    value_names = _TRACE_VALUES
    vector_name = "strategy"

    @property
    def n(self) -> int:
        return len(self.plays)

    @property
    def T(self) -> int:
        return len(self.welfare)


def _trace_from_plays(game: NormalFormGame, plays, mode: str, meta: dict) -> Trace:
    """The trace of (T, d_i) plays: one profile check, every player's utilities
    over all T rounds (1 - c in cost mode) and the welfare from one game call,
    and the running variation sums."""
    plays, _ = games._check_profile(game, plays)
    utilities, welfare = game._utilities_and_welfare(plays)
    if mode == "cost":
        utilities = [1.0 - u for u in utilities]
    steps = [variation_steps(u, w) for u, w in zip(utilities, plays)]
    return Trace(plays, utilities, welfare,
                 np.array([np.cumsum(du2) for du2, _ in steps]),
                 np.array([np.cumsum(dw2) for _, dw2 in steps]), meta)


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
    engine sets each responder's ``utilities`` before it plays, its row of one
    all-players oracle call that the round's responders share.

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
        shape = (d,) if k == 1 else (k, d)
        units.append((learner, players, shape, np.empty((T,) + shape),
                      slice(lo, lo + k * d), (learner.feedback == "cost") == (mode == "cost")))
    responders = [u for u in units if isinstance(u[0], BestResponseLearner)]
    movers = [u for u in units if not isinstance(u[0], BestResponseLearner)]

    def play(current, t, learner, players, shape, record, *_):
        w = np.asarray(learner.play(), dtype=float)
        _check_shape(players[0], w, shape)
        record[t] = w
        for i, row in zip(players, w.reshape(len(players), -1)):
            current[i] = row

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
        # all respond before any plays: each sees the others' last round, its
        # row of one all-players call
        if responders:
            u_now = oracle(current)
        for learner, players, *_ in responders:
            u = u_now[players[0]]
            learner.utilities = 1.0 - u if mode == "cost" else u
        for unit in responders:
            play(current, t, *unit)

        block = oracle(current).block
        for learner, _, shape, _, rows, as_is in units:
            u = block[rows].reshape(shape)
            learner.observe(u if as_is else 1.0 - u)
        profile = current

    # every player's own C-contiguous (T, d) plays, a group's split off once
    plays = []
    for _, _, _, record, *_ in units:  # in player order
        plays += [record] if record.ndim == 2 else [p.copy() for p in record.swapaxes(0, 1)]

    meta = {
        "game": game.describe(),
        "learners": [s.to_dict() for s in specs],
        "T": T,
        "mode": mode,
    }
    return _trace_from_plays(game, plays, mode, meta)


# ---------------------------------------------------------------------------
# regret machinery


def regret(trace: Trace, i: int) -> float:
    """Player i's regret against the best pure strategy, normalized units."""
    return _best_vertex_regret(trace.utilities[i], trace.plays[i])


def regret_series(trace: Trace, i: int) -> np.ndarray:
    """r_i(t) for every prefix t = 1..T (normalized units)."""
    u = trace.utilities[i]
    cum = np.cumsum(u, axis=0)
    realized = np.cumsum(np.sum(trace.plays[i] * u, axis=1))
    return cum.max(axis=1) - realized


@dataclass
class RegretReport:
    regrets: list  # normalized units
    regrets_raw: list
    sum_regret: float
    max_regret: float
    cce_gap: float
    avg_welfare: float  # raw units
    certificates: list
    extras: dict = field(default_factory=dict)
    # the summary rows of experiment.write_report_csv, in order
    summary_names = ("sum_regret", "max_regret", "cce_gap", "avg_welfare")

    def failed(self) -> list:
        return [c for c in self.certificates if c.passed is False]


def report(trace, tol: float = 1e-9):
    """Compute regrets and evaluate every certificate the trace supports; a
    ContinuousTrace gets its ``continuous.routing_report``.

    Certificates are attached when their preconditions hold: the per-player
    variation bound whenever a learner declares constants; the sum-regret
    bound when every player declares constants with beta <= gamma/(n-1)^2
    (beta <= gamma/(d (n-1)^2) for l2 constants); the individual T^{1/4} rate
    when eta matches its tuning; play stability for optimistic-FTRL players.
    A ``smoothness`` claim in the metadata is verified on the rebuilt game and
    attached as ``smoothness_claim``; once verified it also gives the welfare
    floor (utility mode) or, for mu in (0, 1), the first-order cost-welfare
    bound (cost mode).  Doubling-wrapped players get their dual bound
    ``robust_bound[i]`` when T >= 2.
    """
    if isinstance(trace, ContinuousTrace):
        return routing_report(trace)
    n, T, meta = trace.n, trace.T, trace.meta
    mode = meta.get("mode", "utility")
    scale = meta.get("game", {}).get("scale", 1.0)
    regrets = [regret(trace, i) for i in range(n)]
    regrets_raw = [r * scale for r in regrets]
    certificates: list[Certificate] = []
    extras: dict = {}

    # per player: its LearnerSpec, and (inner spec, alpha, eta_star) when wrapped
    entries = [_learner_meta(e) for e in meta.get("learners", [None] * n)]
    specs = [e if isinstance(e, LearnerSpec) else None for e in entries]
    wrapped = [(i, *e) for i, e in enumerate(entries) if isinstance(e, tuple)]
    bounds = [declared_variation_bound(s, trace.plays[i].shape[1]) if s else None
              for i, s in enumerate(specs)]

    for i, b in enumerate(bounds):
        if b is None:
            continue
        cert = certify_variation_bound(trace.utilities[i], trace.plays[i], b, tol=tol)
        cert.name = f"variation_bound[{i}]"
        certificates.append(cert)

    # constant sum-of-regrets bound
    if all(b is not None for b in bounds) and n >= 2:
        ok = all(
            b.beta <= b.gamma / (((trace.plays[i].shape[1] if b.norm_pair == "l2_l2" else 1))
                                 * (n - 1) ** 2) + 1e-12
            for i, b in enumerate(bounds)
        )
        if ok:
            alpha = max(b.alpha for b in bounds)
            certificates.append(Certificate(
                "sum_regret_bound", bool(sum(regrets) <= n * alpha + tol),
                float(sum(regrets)), n * alpha, {"alpha": alpha},
            ))

    # per-player stability and the T^{1/4} individual rate
    for i, s in enumerate(specs):
        if s is None:
            continue
        rs = s.resolved()
        if rs.algorithm != "ftrl" or rs.eta is None:
            continue
        cert = certify_stability(trace.plays[i], rs.eta, tol)
        cert.name = f"play_stability[{i}]"
        certificates.append(cert)
        b = bounds[i]
        if b is not None:
            kappa = 2.0 * rs.eta
            certificates.append(Certificate(
                f"regret_vs_stability[{i}]",
                bool(regrets[i] <= b.alpha + b.beta * kappa**2 * (n - 1) ** 2 * T + tol),
                regrets[i], b.alpha + b.beta * kappa**2 * (n - 1) ** 2 * T,
                {"kappa": kappa},
            ))
            eta_rate = (n - 1) ** -0.5 * T ** -0.25 if n >= 2 else None
            if eta_rate is not None and abs(rs.eta - eta_rate) <= 1e-9 * max(1.0, eta_rate):
                R = get_regularizer(rs.regularizer).r_ftrl(trace.plays[i].shape[1])
                rhs = (R + 4.0) * math.sqrt(n - 1) * T**0.25
                certificates.append(Certificate(
                    f"individual_rate[{i}]", bool(regrets[i] <= rhs + tol),
                    regrets[i], rhs, {"eta": rs.eta},
                ))

    # mirror-descent players: report the largest play step (informational)
    for i, s in enumerate(specs):
        if s is not None and s.resolved().algorithm == "omd" and T >= 2:
            steps = np.sum(np.abs(np.diff(trace.plays[i], axis=0)), axis=1)
            extras[f"omd_max_step[{i}]"] = float(steps.max())

    avg_welfare = float(trace.welfare.mean())
    claim = meta.get("smoothness")
    if claim:
        smooth = verify_smoothness(build_game(meta["game"]), claim["lambda"], claim["mu"],
                                   claim.get("s_star"), mode=mode)
        if smooth.verified and mode == "utility":
            floor = poa_welfare_bound(smooth.lam, smooth.mu, smooth.opt, regrets_raw, T)
            certificates.append(Certificate(
                "welfare_floor", bool(avg_welfare >= floor - tol), floor, avg_welfare,
                {"lambda": smooth.lam, "mu": smooth.mu, "opt": smooth.opt},
            ))
        certificates.append(Certificate(  # 0 <= slack is the claim
            "smoothness_claim", bool(smooth.verified), 0.0, smooth.slack,
            {"lambda": claim["lambda"], "mu": claim["mu"], "s_star": list(smooth.s_star),
             "worst_profile": list(smooth.worst_profile), "opt": smooth.opt},
        ))
        if smooth.verified and mode == "cost" and 0.0 < smooth.mu < 1.0:
            # measured (A1, A2) over each player's (d, best cumulative cost, regret)
            constants = fit_first_order_constants(
                [(u.shape[1], float((1.0 - u).sum(axis=0).min()), r)
                 for u, r in zip(trace.utilities, regrets)])
            certificates.append(certify_cost_welfare(trace, smooth, constants, tol=tol))
            extras["first_order_A1"] = constants.A1
            extras["first_order_A2"] = constants.A2

    for i, inner, alpha, eta_star in wrapped if T >= 2 else []:  # the bound needs T >= 2
        _, beta, gamma, pair = parametric_constants(inner, trace.plays[i].shape[1])
        cert = certify_robust(trace.utilities[i], trace.plays[i], alpha, beta, gamma,
                              eta_star, tol=tol, norm_pair=pair)
        cert.name = f"robust_bound[{i}]"
        certificates.append(cert)

    return RegretReport(
        regrets=regrets, regrets_raw=regrets_raw,
        sum_regret=float(sum(regrets)), max_regret=float(max(regrets)),
        cce_gap=float(max(regrets)) / T, avg_welfare=avg_welfare,
        certificates=certificates, extras=extras,
    )


# ---------------------------------------------------------------------------
# trace CSV interchange


# at most this many rows of a trace file (1,024 rows of auction_fig1: about
# 1.8 MB of text) in one chunk: the writer builds a file a chunk of rows at a
# time, so its working memory beside the text does not grow with T
_TRACE_CHUNK_ROWS = 1 << 10
# rounds of parsed rows the reader holds before it writes them into the
# trace's arrays as one block per player
_READ_BLOCK_ROUNDS = 64


def write_trace_rows(meta: dict, value_names, values, vector_name: str, vectors,
                     path=None) -> str:
    """The layout every trace file shares.  First line carries the metadata as
    a JSON comment; then a header and one row per (round, player): t, player,
    the player's ``values[i][t]`` (one per name in ``value_names``) and its
    ``vectors[i][t]``, padded with empty cells to the widest player's.  Every
    cell is the ``repr`` of its float, so reruns are byte-identical.  Returns
    the text, also written to ``path`` when one is given.

    The rows are built a chunk of rounds at a time (``_TRACE_CHUNK_ROWS``
    rows), so besides the text only one chunk's cells are held at once.  In
    each chunk, each player's (rounds, k + d_i) block calls ``repr`` once per
    distinct bit pattern (``np.unique`` of its int64 view: keying on float
    values would merge ``-0.0`` with ``0.0``), then gathers the cell strings
    per row."""
    n, T = len(vectors), len(vectors[0])
    width = max(v.shape[1] for v in vectors)
    header = ["t", "player", *value_names, *(f"{vector_name}_{k}" for k in range(width))]
    pads = ["," * (width - vec.shape[1]) for vec in vectors]
    step = max(1, _TRACE_CHUNK_ROWS // n)
    chunks = [f"# meta={json.dumps(meta, sort_keys=True)}\n{','.join(header)}\n"]
    for start in range(0, T, step):
        rows = []
        for i, (vals, vec) in enumerate(zip(values, vectors)):
            block = np.column_stack((vals[start:start + step], vec[start:start + step]))
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            cells = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
            rows.append([f"{t},{i},{','.join(row)}{pads[i]}\n" for t, row in
                         enumerate(cells[inverse.reshape(block.shape)].tolist(), start + 1)])
        chunks.append("".join(row for round_rows in zip(*rows) for row in round_rows))
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)  # encoded a chunk at a time
    return "".join(chunks)


def _trace_values(trace) -> list:
    """Per player, the (T, k) values ``trace.value_names`` a trace file stores."""
    if isinstance(trace, ContinuousTrace):
        return [np.column_stack((c, trace.total_cost)) for c in trace.costs]
    return [np.column_stack((regret_series(trace, i), trace.welfare,
                             trace.du2_cum[i], trace.dw2_cum[i]))
            for i in range(trace.n)]


def write_trace_csv(trace, path=None) -> str:
    """Serialize a Trace or a ContinuousTrace through ``write_trace_rows``: per
    player and round its stored values (regret to date, welfare, du2_cum and
    dw2_cum; or cost and total cost), then the strategy or the path flows."""
    vectors = trace.flows if isinstance(trace, ContinuousTrace) else trace.plays
    return write_trace_rows(trace.meta, trace.value_names, _trace_values(trace),
                            trace.vector_name, vectors, path)


def read_trace_csv(source):
    """Rebuild a trace from its CSV: everything but the strategies (or a
    routing trace's flows) is derived from them through the game in the
    metadata line, as ``run`` (or ``run_continuous``) derives it, and a stored
    value that disagrees with its derivation (beyond rtol 1e-9, atol 1e-12) is
    an error naming its line.  The metadata must be a JSON object with a
    ``game`` object that rebuilds the game and an int ``T`` >= 1.  A network
    game needs a positive finite float ``eta`` and, if given, a ``mode`` of
    routing; any other game needs one ``learners`` object per player (see
    ``_learner_meta``) and, if given, a ``mode`` of utility or cost and a
    ``smoothness`` object with finite numbers ``lambda`` > 0 and ``mu`` >= 0
    and an optional list of int ``s_star``.

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
        derive = partial(ContinuousTrace, game, eta)
    else:
        _check_game_meta(meta, game.dims)
        kind, dims, source = Trace, game.dims, "plays"
        derive = partial(_trace_from_plays, game, mode=meta.get("mode", "utility"))
    n, k = len(dims), len(kind.value_names)
    if count != n * T:
        raise ValueError(f"expected {n * T} data rows, found {count}")
    stored, vectors = _parse_rows(rows, T, k, dims, kind.vector_name)
    trace = derive(vectors, meta=meta)
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
    for key in ("lambda", "mu") if claim else ():
        value = claim.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"trace line 1: metadata smoothness {key} must be a number, "
                             f"got {value!r}")
    if claim:
        try:
            games._check_smoothness(claim["lambda"], claim["mu"])
        except ValueError as exc:
            raise ValueError(f"trace line 1: metadata smoothness: {exc}") from None
    s_star = claim.get("s_star")
    if s_star is not None and not (isinstance(s_star, list)
                                   and all(type(x) is int for x in s_star)):
        raise ValueError(f"trace line 1: metadata smoothness s_star must be a list of "
                         f"integers, got {s_star!r}")
    if s_star is not None and (len(s_star) != len(dims)
                               or any(not 0 <= x < d for x, d in zip(s_star, dims))):
        raise ValueError(f"trace line 1: metadata smoothness s_star {s_star} is not a "
                         f"pure profile of a game with dims {list(dims)}")
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
    (``algorithm`` its only key), ``(inner spec, alpha, eta_star)`` for a
    doubling wrapper (``algorithm`` robust, its inner spec declaring a
    variation bound), else the entry's LearnerSpec."""
    if not entry or entry.keys() == {"algorithm"}:
        return None
    if entry.get("algorithm") != "robust":
        return LearnerSpec.from_dict(entry)
    inner = entry.get("inner")
    if not isinstance(inner, dict):
        raise ValueError(f"inner must be a learner spec object, got {inner!r}")
    for key in ("alpha", "eta_star"):
        _positive_finite(key, entry.get(key))
    try:
        inner = LearnerSpec.from_dict(inner)
    except ValueError as exc:
        raise ValueError(f"inner.{exc}") from None
    if not declares_variation_bound(inner):
        raise ValueError(f"inner.algorithm {inner.algorithm!r} with predictor "
                         f"{inner.predictor!r} declares no variation bound to wrap")
    return inner, entry["alpha"], entry["eta_star"]
