"""INI-style experiment configs.

``parse_config`` validates the whole file before any computation and reports
every problem at once, each tagged with its line number; a valid file becomes
an ExperimentSpec ready for the runner.

Sections: [game] (type + parameters + optional smoothness claim), [learner]
(shared spec) with optional per-player [learner.N] overrides, [baseline]
(optional comparison arm), [run] (T, seed, mode), [robust] (doubling wrapper),
[outputs] (artifact directory).  ``#`` starts a comment; unknown sections and
keys are errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .learners import LearnerSpec, declares_variation_bound

__all__ = ["ConfigError", "RobustSettings", "ExperimentSpec", "parse_config"]

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_GAME_TYPES = {"auction", "matrix", "random", "dense_csv", "network"}
_ALGORITHMS = {"hedge", "optimistic_hedge", "oftrl", "omd", "bestresponse",
               "first_order_hedge"}
_NEEDS_ETA = {"hedge", "optimistic_hedge", "oftrl", "omd"}
_PREDICTORS = {"none", "last", "window", "geometric"}


class ConfigError(ValueError):
    """Raised with the complete list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(self.errors))


@dataclass
class RobustSettings:
    eta_star: float
    alpha: float | None = None  # None -> the regularizer's range constant


@dataclass
class ExperimentSpec:
    game: dict
    learner: LearnerSpec
    overrides: dict = field(default_factory=dict)  # player index -> LearnerSpec
    baseline: LearnerSpec | None = None
    T: int = 1
    seed: int = 0
    mode: str = "utility"
    robust: RobustSettings | None = None
    outputs: dict = field(default_factory=dict)
    smoothness: dict | None = None
    n_players: int | None = None  # None only for dense_csv games

    def specs_for(self, n: int) -> list[LearnerSpec]:
        return [self.overrides.get(i, self.learner) for i in range(n)]


# ---------------------------------------------------------------------------
# raw tokenizing


def _raw_sections(text: str, errors: list) -> dict:
    sections: dict[str, dict] = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name in sections:
                errors.append(f"line {ln}: duplicate section [{name}]")
                current = sections[name]
            else:
                current = {"line": ln, "items": {}}
                sections[name] = current
            continue
        if "=" not in line:
            errors.append(
                f"line {ln}: expected 'key = value' or '[section]', got {line!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            errors.append(f"line {ln}: empty key")
            continue
        if current is None:
            errors.append(f"line {ln}: key {key!r} appears outside any section")
            continue
        if key in current["items"]:
            errors.append(f"line {ln}: duplicate key {key!r} in this section")
        current["items"][key] = (value, ln)
    return sections


class _SectionReader:
    """Typed key consumption with error collection; leftover keys are
    reported as unknown by finish()."""

    def __init__(self, name: str, sect: dict, errors: list):
        self.name = name
        self.line = sect["line"]
        self.items = dict(sect["items"])
        self.errors = errors

    def has(self, key: str) -> bool:
        return key in self.items

    def line_of(self, key: str) -> int:
        return self.items[key][1] if key in self.items else self.line

    def error(self, ln: int, msg: str) -> None:
        self.errors.append(f"line {ln}: {msg}")

    def missing(self, key: str) -> None:
        self.error(self.line, f"[{self.name}] is missing required key {self.name}.{key}")

    def take(self, key: str):
        return self.items.pop(key, None)

    def str_(self, key, required=False, choices=None, default=None):
        pair = self.take(key)
        if pair is None:
            if required:
                self.missing(key)
            return default
        value, ln = pair
        if choices is not None and value not in choices:
            self.error(ln, f"{self.name}.{key} must be one of "
                           f"{', '.join(sorted(choices))}; got {value!r}")
            return None
        return value

    def float_(self, key, required=False, default=None,
               minimum=None, strict=False, below=None):
        pair = self.take(key)
        if pair is None:
            if required:
                self.missing(key)
            return default
        value, ln = pair
        try:
            x = float(value)
        except ValueError:
            self.error(ln, f"{self.name}.{key} must be a number, got {value!r}")
            return None
        if not math.isfinite(x):
            self.error(ln, f"{self.name}.{key} must be a finite number, got {value}")
            return None
        if minimum is not None and (x <= minimum if strict else x < minimum):
            self.error(ln, f"{self.name}.{key} must be "
                           f"{'>' if strict else '>='} {minimum}, got {x}")
            return None
        if below is not None and x >= below:
            self.error(ln, f"{self.name}.{key} must be < {below}, got {x}")
            return None
        return x

    def int_(self, key, required=False, default=None, minimum=None):
        pair = self.take(key)
        if pair is None:
            if required:
                self.missing(key)
            return default
        value, ln = pair
        try:
            x = int(value)
        except ValueError:
            self.error(ln, f"{self.name}.{key} must be an integer, got {value!r}")
            return None
        if minimum is not None and x < minimum:
            self.error(ln, f"{self.name}.{key} must be >= {minimum}, got {x}")
            return None
        return x

    def finish(self) -> None:
        for key, (_value, ln) in self.items.items():
            self.error(ln, f"unknown key {self.name}.{key}")


# ---------------------------------------------------------------------------
# section validators


def _parse_bids(reader: _SectionReader):
    pair = reader.take("bids")
    if pair is None:
        reader.missing("bids")
        return None
    value, ln = pair
    m = re.fullmatch(r"\s*(\d+)\s*\.\.\s*(\d+)\s*", value)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            reader.error(ln, f"game.bids range {value!r} is empty")
            return None
        levels = [float(b) for b in range(lo, hi + 1)]
    else:
        try:
            levels = [float(part) for part in value.split(",")]
        except ValueError:
            reader.error(ln, f"game.bids must be 'lo..hi' or a comma list, got {value!r}")
            return None
        if not all(map(math.isfinite, levels)):
            reader.error(ln, f"game.bids must be finite numbers, got {value!r}")
            return None
    if not levels or any(b <= 0 for b in levels) \
            or any(b2 <= b1 for b1, b2 in zip(levels, levels[1:])):
        reader.error(ln, "game.bids must be positive and strictly increasing")
        return None
    return levels


def _parse_matrix(reader: _SectionReader):
    pair = reader.take("matrix")
    if pair is None:
        reader.missing("matrix")
        return None
    value, ln = pair
    rows = []
    for chunk in value.split(";"):
        try:
            row = [float(part) for part in chunk.split(",")]
        except ValueError:
            reader.error(ln, f"game.matrix has a non-numeric entry in {chunk.strip()!r}")
            return None
        rows.append(row)
    if any(len(row) != len(rows[0]) for row in rows) or not rows[0]:
        reader.error(ln, "game.matrix rows must be non-empty and equal length")
        return None
    if any(not 0.0 <= x <= 1.0 for row in rows for x in row):
        reader.error(ln, "game.matrix entries must lie in [0, 1]")
        return None
    return rows


def _parse_int_list(reader: _SectionReader, key: str, minimum: int):
    pair = reader.take(key)
    if pair is None:
        reader.missing(key)
        return None
    value, ln = pair
    try:
        xs = [int(part) for part in value.split(",")]
    except ValueError:
        reader.error(ln, f"{reader.name}.{key} must be a comma list of integers, "
                         f"got {value!r}")
        return None
    if any(x < minimum for x in xs):
        reader.error(ln, f"{reader.name}.{key} entries must be >= {minimum}")
        return None
    return xs


def _validate_game(sect, errors):
    if sect is None:
        errors.append("missing required section [game] (needs game.type)")
        return None, None, None, None
    r = _SectionReader("game", sect, errors)
    gtype = r.str_("type", required=True, choices=_GAME_TYPES)
    game: dict = {"type": gtype}
    n = None
    dims = None
    if gtype == "auction":
        bidders = r.int_("bidders", required=True, minimum=1)
        items = r.int_("items", required=True, minimum=1)
        value = r.float_("value", required=True, minimum=0.0, strict=True)
        bids = _parse_bids(r)
        mask_seed = r.int_("value_mask_seed", minimum=0)
        game.update(bidders=bidders, items=items, value=value, bids=bids,
                    value_mask_seed=mask_seed)
        n = bidders
        if items is not None and bids is not None and bidders is not None:
            dims = [items * len(bids)] * bidders
    elif gtype == "matrix":
        A = _parse_matrix(r)
        game["matrix"] = A
        n = 2
        if A is not None:
            dims = [len(A), len(A[0])]
    elif gtype == "random":
        players = r.int_("players", required=True, minimum=1)
        dim_list = _parse_int_list(r, "dims", minimum=1)
        seed = r.int_("seed", required=True, minimum=0)
        if dim_list is not None and players is not None:
            if len(dim_list) == 1:
                dim_list = dim_list * players
            elif len(dim_list) != players:
                r.error(r.line_of("players"),
                        f"game.dims lists {len(dim_list)} sizes for {players} players")
                dim_list = None
        game.update(players=players, dims=dim_list, seed=seed)
        n = players
        dims = dim_list
    elif gtype == "dense_csv":
        game["path"] = r.str_("path", required=True)
    elif gtype == "network":
        game["path"] = r.str_("path", required=True)
    smoothness = _validate_smoothness(r, n, dims)
    r.finish()
    return game, n, dims, smoothness


def _validate_smoothness(r: _SectionReader, n, dims):
    has_lam, has_mu, has_star = r.has("lambda"), r.has("mu"), r.has("s_star")
    if not (has_lam or has_mu or has_star):
        return None
    if not (has_lam and has_mu):
        r.error(r.line_of("lambda" if has_lam else ("mu" if has_mu else "s_star")),
                "game.lambda and game.mu must be given together for a smoothness claim")
    lam = r.float_("lambda", minimum=0.0, strict=True)
    mu = r.float_("mu", minimum=0.0)
    s_star = None
    if has_star:
        value, ln = r.take("s_star")
        try:
            s_star = [int(part) for part in value.split(",")]
        except ValueError:
            r.error(ln, f"game.s_star must be a comma list of strategy indices, "
                        f"got {value!r}")
            s_star = None
        if s_star is not None:
            if any(x < 0 for x in s_star):
                r.error(ln, "game.s_star indices must be >= 0")
                s_star = None
            elif n is not None and len(s_star) != n:
                r.error(ln, f"game.s_star names {len(s_star)} strategies "
                            f"for {n} players")
                s_star = None
            elif dims is not None and any(x >= d for x, d in zip(s_star, dims)):
                r.error(ln, "game.s_star has an out-of-range strategy index")
                s_star = None
    if lam is None or mu is None:
        return None
    return {"lambda": lam, "mu": mu, "s_star": s_star}


def _validate_learner(sect, name, errors, eta_optional=False):
    r = _SectionReader(name, sect, errors)
    algo = r.str_("algorithm", required=True, choices=_ALGORITHMS)
    present = {k: r.has(k) for k in ("eta", "regularizer", "predictor",
                                     "predictor_param")}
    lines = {k: r.line_of(k) for k in present}
    eta = r.float_("eta", minimum=0.0, strict=True)
    regularizer = r.str_("regularizer", choices={"entropy", "euclidean"},
                         default="entropy")
    predictor = r.str_("predictor", choices=_PREDICTORS, default="none")
    param = r.float_("predictor_param")
    r.finish()
    if algo is None:
        return None
    if algo in ("bestresponse", "first_order_hedge"):
        for key in ("eta", "regularizer", "predictor", "predictor_param"):
            if present[key]:
                r.error(lines[key], f"{name}.{key} does not apply to "
                                    f"algorithm {algo!r}")
        return LearnerSpec(algo)
    if algo in _NEEDS_ETA and not present["eta"] and not eta_optional:
        r.missing("eta")
        return None
    if present["eta"] and eta is None:
        return None  # bad value, already reported
    if algo in ("hedge", "optimistic_hedge"):
        for key in ("regularizer", "predictor", "predictor_param"):
            if present[key]:
                r.error(lines[key], f"{name}.{key} is fixed by algorithm {algo!r}")
        return LearnerSpec(algo, eta)
    if predictor == "window":
        if param is None:
            if not present["predictor_param"]:
                r.error(lines["predictor"],
                        f"{name}.predictor_param (window size) is required "
                        f"for the window predictor")
            return None
        if param != int(param) or param < 1:
            r.error(lines["predictor_param"],
                    f"{name}.predictor_param must be a window size >= 1, got {param}")
            return None
        param = int(param)
    elif predictor == "geometric":
        if param is None:
            if not present["predictor_param"]:
                r.error(lines["predictor"],
                        f"{name}.predictor_param (discount) is required "
                        f"for the geometric predictor")
            return None
        if not 0.0 <= param < 1.0:
            r.error(lines["predictor_param"],
                    f"{name}.predictor_param must be a discount in [0, 1), got {param}")
            return None
    elif present["predictor_param"]:
        r.error(lines["predictor_param"],
                f"{name}.predictor_param only applies to window/geometric predictors")
        return None
    return LearnerSpec(algo, eta, regularizer or "entropy", predictor or "none", param)


def _validate_run(sect, errors):
    if sect is None:
        errors.append("missing required section [run] (needs run.T)")
        return None, 0, "utility"
    r = _SectionReader("run", sect, errors)
    T = r.int_("T", required=True, minimum=1)
    seed = r.int_("seed", default=0, minimum=0)
    mode = r.str_("mode", choices={"utility", "cost"}, default="utility")
    r.finish()
    return T, seed, mode or "utility"


def _validate_robust(sect, errors):
    if sect is None:
        return None
    r = _SectionReader("robust", sect, errors)
    eta_star = r.float_("eta_star", required=True, minimum=0.0, strict=True)
    alpha = r.float_("alpha", minimum=0.0, strict=True)
    r.finish()
    if eta_star is None:
        return None
    return RobustSettings(eta_star=eta_star, alpha=alpha)


def _validate_outputs(sect, errors):
    if sect is None:
        return {}
    r = _SectionReader("outputs", sect, errors)
    out_dir = r.str_("dir")
    r.finish()
    return {"dir": out_dir} if out_dir else {}


def parse_config(text: str) -> ExperimentSpec:
    """Parse and fully validate a config; raises ConfigError carrying every
    problem found (not just the first)."""
    errors: list[str] = []
    sections = _raw_sections(text, errors)

    known = {"game", "learner", "baseline", "run", "robust", "outputs"}
    for name, sect in sections.items():
        if name not in known and not re.fullmatch(r"learner\.\d+", name):
            errors.append(f"line {sect['line']}: unknown section [{name}]")

    game, n, _dims, smoothness = _validate_game(sections.get("game"), errors)
    is_network = bool(game) and game.get("type") == "network"
    if "learner" in sections:
        learner = _validate_learner(sections["learner"], "learner", errors,
                                    eta_optional=is_network)
    else:
        learner = None
        errors.append("missing required section [learner] (needs learner.algorithm)")
    baseline = (_validate_learner(sections["baseline"], "baseline", errors)
                if "baseline" in sections else None)
    overrides: dict[int, LearnerSpec] = {}
    for name, sect in sections.items():
        m = re.fullmatch(r"learner\.(\d+)", name)
        if not m:
            continue
        idx = int(m.group(1))
        spec = _validate_learner(sect, name, errors)
        if n is not None and idx >= n:
            errors.append(f"line {sect['line']}: [{name}] refers to player {idx} "
                          f"but the game has {n} players")
        elif spec is not None:
            overrides[idx] = spec
    T, seed, mode = _validate_run(sections.get("run"), errors)
    robust = _validate_robust(sections.get("robust"), errors)
    outputs = _validate_outputs(sections.get("outputs"), errors)

    if robust is not None and learner is not None and not is_network:
        if not declares_variation_bound(learner):
            errors.append(f"line {sections['robust']['line']}: [robust] needs a "
                          f"learner with declared variation-bound constants "
                          f"(an optimistic predictor), not {learner.algorithm!r} "
                          f"with predictor {learner.predictor!r}")

    if is_network:
        if learner is not None:
            rs = learner.resolved()
            if not (rs.algorithm == "ftrl" and rs.regularizer == "entropy"
                    and rs.predictor == "last"):
                errors.append(
                    f"line {sections['learner']['line']}: network games run the "
                    f"optimistic entropy dynamics; use algorithm oftrl with "
                    f"predictor last (or optimistic_hedge)")
        for section_name, label in (("baseline", "[baseline]"), ("robust", "[robust]")):
            if section_name in sections:
                errors.append(f"line {sections[section_name]['line']}: {label} "
                              f"is not supported for network games")
        for name in sections:
            if re.fullmatch(r"learner\.\d+", name):
                errors.append(f"line {sections[name]['line']}: per-player "
                              f"overrides are not supported for network games")
        if mode == "cost":
            errors.append(f"line {sections['run']['line']}: network games have "
                          f"built-in congestion costs; use mode = utility")
        if smoothness is not None:
            errors.append(f"line {sections['game']['line']}: smoothness claims "
                          f"are not supported for network games")

    if errors:
        raise ConfigError(errors)
    return ExperimentSpec(
        game=game, learner=learner, overrides=overrides, baseline=baseline,
        T=T, seed=seed, mode=mode, robust=robust, outputs=outputs,
        smoothness=smoothness, n_players=n,
    )
