"""INI-style experiment configs.

``parse_config`` validates the whole file before any computation and reports
every problem at once, each tagged with its line number; a valid file becomes
an ExperimentSpec ready for the runner.

Sections: [game] (type + parameters + optional smoothness claim), [learner]
(shared spec) with optional per-player [learner.N] overrides, [baseline]
(optional comparison arm), [run] (T, mode), [robust] (doubling wrapper),
[outputs] (artifact directory).  ``#`` starts a comment; unknown sections and
keys are errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial

from .games import _check_cap, _check_claim
from .learners import _ALGORITHMS, _FIXED_FIELDS, _PREDICTORS, LearnerSpec, _choice, _wrappable
from .regularizers import _REGISTRY

__all__ = ["ConfigError", "ExperimentSpec", "parse_config"]

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_GAME_TYPES = {"auction", "matrix", "random", "dense_csv", "network"}


class ConfigError(ValueError):
    """Raised with the complete list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(self.errors))


@dataclass
class ExperimentSpec:
    game: dict
    learner: LearnerSpec
    overrides: dict = field(default_factory=dict)  # player index -> LearnerSpec
    baseline: LearnerSpec | None = None
    T: int = 1
    mode: str = "utility"
    robust: float | None = None  # [robust]'s eta_star: wrap each wrappable player
    outputs: dict = field(default_factory=dict)
    smoothness: dict | None = None

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
    """Reads one section's keys, collecting errors.  Every key is consumed
    through read(); finish() reports the keys nothing read as unknown."""

    def __init__(self, name: str, sect: dict, errors: list):
        self.name = name
        self.line = sect["line"]
        self.items = sect["items"]
        self.seen: set[str] = set()
        self.errors = errors

    def has(self, key: str) -> bool:
        return key in self.items

    def line_of(self, key: str) -> int:
        return self.items[key][1] if key in self.items else self.line

    def error(self, ln: int, msg: str) -> None:
        self.errors.append(f"line {ln}: {msg}")

    def read(self, key: str, parse=None, required=False, default=None):
        """The key's value through ``parse(text, "section.key")``: a missing
        key gives ``default`` (an error if required), and the ValueError of a
        bad value is reported at the key's line, giving None."""
        self.seen.add(key)
        if key not in self.items:
            if required:
                self.error(self.line, f"[{self.name}] is missing required key {self.name}.{key}")
            return default
        value, ln = self.items[key]
        if parse is None:
            return value
        try:
            return parse(value, f"{self.name}.{key}")
        except ValueError as exc:
            self.error(ln, str(exc))
            return None

    def finish(self) -> None:
        for key, (_value, ln) in self.items.items():
            if key not in self.seen:
                self.error(ln, f"unknown key {self.name}.{key}")


# ---------------------------------------------------------------------------
# value rules: (text, "section.key") -> value, or ValueError(message)


def _number(text, where, minimum=None, strict=False):
    try:
        x = float(text)
    except ValueError:
        raise ValueError(f"{where} must be a number, got {text!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{where} must be a finite number, got {text}")
    if minimum is not None and (x <= minimum if strict else x < minimum):
        raise ValueError(f"{where} must be {'>' if strict else '>='} {minimum}, got {x}")
    return x


def _integer(text, where, minimum):
    try:
        x = int(text)
    except ValueError:
        raise ValueError(f"{where} must be an integer, got {text!r}") from None
    if x < minimum:
        raise ValueError(f"{where} must be >= {minimum}, got {x}")
    return x


def _int_list(text, where, minimum, noun="integers", entries="entries"):
    try:
        xs = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{where} must be a comma list of {noun}, got {text!r}") from None
    if any(x < minimum for x in xs):
        raise ValueError(f"{where} {entries} must be >= {minimum}")
    return xs


def _bids(text, where):
    m = re.fullmatch(r"\s*(\d+)\s*\.\.\s*(\d+)\s*", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise ValueError(f"{where} range {text!r} is empty")
        _check_cap(hi - lo + 1, f"{where} range {text!r} has", "levels")
        levels = [float(b) for b in range(lo, hi + 1)]
    else:
        try:
            levels = [float(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"{where} must be 'lo..hi' or a comma list, "
                             f"got {text!r}") from None
        if not all(map(math.isfinite, levels)):
            raise ValueError(f"{where} must be finite numbers, got {text!r}")
    if not levels or any(b <= 0 for b in levels) \
            or any(b2 <= b1 for b1, b2 in zip(levels, levels[1:])):
        raise ValueError(f"{where} must be positive and strictly increasing")
    return levels


def _matrix(text, where):
    rows = []
    for chunk in text.split(";"):
        try:
            rows.append([float(part) for part in chunk.split(",")])
        except ValueError:
            raise ValueError(f"{where} has a non-numeric entry in {chunk.strip()!r}") from None
    if any(len(row) != len(rows[0]) for row in rows) or not rows[0]:
        raise ValueError(f"{where} rows must be non-empty and equal length")
    if any(not 0.0 <= x <= 1.0 for row in rows for x in row):
        raise ValueError(f"{where} entries must lie in [0, 1]")
    return rows


_POSITIVE = partial(_number, minimum=0.0, strict=True)
_COUNT = partial(_integer, minimum=1)
_SEED = partial(_integer, minimum=0)


# ---------------------------------------------------------------------------
# section validators


def _validate_game(sect, errors):
    if sect is None:
        errors.append("missing required section [game] (needs game.type)")
        return None, None, None
    r = _SectionReader("game", sect, errors)
    gtype = r.read("type", partial(_choice, choices=_GAME_TYPES), required=True)
    game: dict = {"type": gtype}
    n = None
    dims = None
    if gtype == "auction":
        bidders = r.read("bidders", _COUNT, required=True)
        items = r.read("items", _COUNT, required=True)
        value = r.read("value", _POSITIVE, required=True)
        bids = r.read("bids", _bids, required=True)
        mask_seed = r.read("value_mask_seed", _SEED)
        game.update(bidders=bidders, items=items, value=value, bids=bids,
                    value_mask_seed=mask_seed)
        n = bidders
        if items is not None and bidders is not None:
            # named at its line here; the builder caps the payoffs before any value draw
            try:
                _check_cap(bidders * items, f"game.items: {bidders} bidders and {items} "
                           f"items make", "item values")
            except ValueError as exc:
                r.error(r.line_of("items"), str(exc))
                items = None
        if items is not None and bids is not None and bidders is not None:
            dims = [items * len(bids)] * bidders
    elif gtype == "matrix":
        A = r.read("matrix", _matrix, required=True)
        game["matrix"] = A
        n = 2
        if A is not None:
            dims = [len(A), len(A[0])]
    elif gtype == "random":
        players = r.read("players", _COUNT, required=True)
        dims = r.read("dims", partial(_int_list, minimum=1), required=True)
        seed = r.read("seed", _SEED, required=True)
        if dims is not None and players is not None:
            if len(dims) == 1:
                dims = dims * players
            elif len(dims) != players:
                r.error(r.line, f"game.dims lists {len(dims)} sizes for {players} players")
                dims = None
        game.update(players=players, dims=dims, seed=seed)
        n = players
    elif gtype in ("dense_csv", "network"):
        game["path"] = r.read("path", required=True)
    smoothness = _validate_smoothness(r, dims)
    r.finish()
    return game, n, smoothness


def _validate_smoothness(r: _SectionReader, dims):
    has_lam, has_mu, has_star = r.has("lambda"), r.has("mu"), r.has("s_star")
    if not (has_lam or has_mu or has_star):
        return None
    if not (has_lam and has_mu):
        r.error(r.line_of("lambda" if has_lam else ("mu" if has_mu else "s_star")),
                "game.lambda and game.mu must be given together for a smoothness claim")
    lam = r.read("lambda", _POSITIVE)
    mu = r.read("mu", partial(_number, minimum=0.0))
    s_star = r.read("s_star", partial(_int_list, minimum=0, noun="strategy indices",
                                      entries="indices"))
    if lam is None or mu is None:
        return None
    if dims is not None and s_star is not None:
        try:
            _check_claim(dims, lam, mu, s_star)
        except ValueError as exc:
            r.error(r.line_of("s_star"), f"game.{exc}")
    return {"lambda": lam, "mu": mu, "s_star": s_star}


def _validate_learner(sect, name, errors, eta_optional=False):
    r = _SectionReader(name, sect, errors)
    algo = r.read("algorithm", partial(_choice, choices=_ALGORITHMS), required=True)
    eta = r.read("eta", _POSITIVE)
    regularizer = r.read("regularizer", partial(_choice, choices=_REGISTRY), default="entropy")
    predictor = r.read("predictor", partial(_choice, choices=_PREDICTORS), default="none")
    param = r.read("predictor_param", _number)
    r.finish()
    if algo is None:
        return None
    fixed = _FIXED_FIELDS.get(algo, {})
    for key in filter(r.has, fixed):
        r.error(r.line_of(key), f"{name}.{key} {fixed[key]} algorithm {algo!r}")
    if "eta" in fixed:
        return LearnerSpec(algo)
    if not r.has("eta") and not eta_optional:
        r.read("eta", required=True)  # reports it missing
        return None
    if r.has("eta") and eta is None:
        return None  # bad value, already reported
    if fixed:
        return LearnerSpec(algo, eta)
    if r.has("predictor_param") and param is None:  # a bad value, already reported
        if predictor in ("window", "geometric"):
            return None
        param = r.items["predictor_param"][0]  # for the spec to say it does not apply
    try:
        return LearnerSpec(algo, eta, regularizer or "entropy", predictor or "none", param)
    except ValueError as exc:
        # at the line of the key the spec names, or the predictor's if it is absent
        key = str(exc).split(" ", 1)[0]
        r.error(r.line_of(key if r.has(key) else "predictor"), f"{name}.{exc}")
        return None


def _validate_run(sect, errors):
    if sect is None:
        errors.append("missing required section [run] (needs run.T)")
        return None, "utility"
    r = _SectionReader("run", sect, errors)
    T = r.read("T", _COUNT, required=True)
    mode = r.read("mode", partial(_choice, choices={"utility", "cost"}), default="utility")
    r.finish()
    return T, mode or "utility"


def _validate_robust(sect, errors):
    if sect is None:
        return None
    r = _SectionReader("robust", sect, errors)
    eta_star = r.read("eta_star", _POSITIVE, required=True)
    r.finish()
    return eta_star


def _validate_outputs(sect, errors):
    if sect is None:
        return {}
    r = _SectionReader("outputs", sect, errors)
    out_dir = r.read("dir")
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

    game, n, smoothness = _validate_game(sections.get("game"), errors)
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
    owners: dict[int, str] = {}  # player index -> first section naming it
    for name, sect in sections.items():
        m = re.fullmatch(r"learner\.(\d+)", name)
        if not m:
            continue
        idx = int(m.group(1))
        spec = _validate_learner(sect, name, errors)
        if idx in owners:
            errors.append(f"line {sect['line']}: [{name}] overrides player {idx} "
                          f"again; [{owners[idx]}] already does")
        elif n is not None and idx >= n:
            errors.append(f"line {sect['line']}: [{name}] refers to player {idx} "
                          f"but the game has {n} players")
        elif spec is not None:
            overrides[idx] = spec
        owners.setdefault(idx, name)
    T, mode = _validate_run(sections.get("run"), errors)
    robust = _validate_robust(sections.get("robust"), errors)
    outputs = _validate_outputs(sections.get("outputs"), errors)

    if robust is not None and learner is not None and not is_network:
        try:
            _wrappable(learner)
        except ValueError as exc:
            errors.append(f"line {sections['robust']['line']}: [robust] {exc}")

    if is_network:
        if learner is not None \
                and learner.resolved() != LearnerSpec("ftrl", learner.eta, "entropy", "last"):
            errors.append(
                f"line {sections['learner']['line']}: network games run the "
                f"optimistic entropy dynamics; use algorithm oftrl with "
                f"predictor last (or optimistic_hedge)")
        for section_name in ("baseline", "robust"):
            if section_name in sections:
                errors.append(f"line {sections[section_name]['line']}: [{section_name}] "
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
        T=T, mode=mode, robust=robust, outputs=outputs,
        smoothness=smoothness,
    )
