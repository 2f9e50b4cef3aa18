"""Finite normal-form games with exact expected-utility oracles.

Utilities are stored raw and exposed to learners in normalized [0, 1] units
through the affine map ``normalized = (raw - shift) / scale``; welfare and
the brute-force optimum stay in raw units (reports convert where needed).
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .learners import TOL

__all__ = [
    "EnumerationCapError",
    "UtilityRangeError",
    "NormalFormGame",
    "DenseGame",
    "SmoothnessCertificate",
    "brute_force_opt",
    "verify_smoothness",
    "poa_welfare_bound",
    "load_dense_csv",
    "DEFAULT_ENUM_CAP",
]

# the one size cap on what an input may make the package enumerate or
# allocate: a game's pure profiles or stored utilities, a run's T * sum(d_i)
# play cells
DEFAULT_ENUM_CAP = 10**7


class EnumerationCapError(ValueError):
    """Raised instead of silently approximating when a brute-force scan would
    exceed the enumeration cap (a ValueError: the input is too large)."""


def _capped_prod(factors) -> tuple:
    """(product, every factor in it) of int factors >= 1, multiplied until it passes the cap."""
    factors, product = iter(factors), 1
    for f in factors:
        product *= f
        if product > DEFAULT_ENUM_CAP:
            return product, next(factors, None) is None
    return product, True


def _check_cap(count, head: str, noun: str) -> int:
    """The size rule: refuse ``count`` cells (an int, or its factors for
    ``_capped_prod``: "at least" a floor) above the cap before allocating."""
    count, exact = _capped_prod([count] if isinstance(count, numbers.Integral) else count)
    if count > DEFAULT_ENUM_CAP:
        floor = "" if exact else "at least "
        raise EnumerationCapError(f"{head} {floor}{count} {noun}, above the enumeration cap "
                                  f"{DEFAULT_ENUM_CAP}; refusing to allocate them")
    return count


def _check_step_size(eta, T: int, scale: float, head: str = "") -> None:
    """Refuse eta (None: no step size) if eta * (T + 1) * scale overflows a float, where
    ``scale`` bounds a step's summed feedback (d for unit utilities: a projection sums d)."""
    if eta is not None and not eta * (T + 1) * scale < math.inf:
        raise ValueError(f"{head}eta = {eta!r} is too large for T = {T} rounds")


class UtilityRangeError(ValueError):
    """A player's normalized expected utilities escape [0, 1]."""


def _check_shape(j: int, w: np.ndarray, expected: tuple) -> None:
    if w.shape != expected:
        raise ValueError(f"player {j}: strategy has shape {w.shape}, expected {expected}")


def _check_profile(game: "NormalFormGame", profile, skip: int | None = None):
    """(float arrays of shape L + (d_j,), L): one leading shape L shared by all
    players, empty for a single profile.  Entry ``skip`` is shape-checked only."""
    if len(profile) != game.n:
        raise ValueError(f"profile has {len(profile)} strategies, game has {game.n} players")
    out = [np.asarray(w, dtype=float) for w in profile]
    lead = out[0].shape[:-1]
    for j, w in enumerate(out):
        _check_shape(j, w, lead + (game.dims[j],))
        # negated comparisons, so a NaN entry fails them too
        if j != skip and not (np.all(w >= -1e-12) and np.all(abs(w.sum(axis=-1) - 1.0) <= 1e-9)):
            raise ValueError(f"player {j}: strategy is not on the simplex")
    return out, lead


def _utility_sum(profile, raw) -> np.ndarray:
    """sum_i <w_i, u_i> of strategies and raw utilities along their leading
    shape L, each row on its own: the welfare when it is the utility sum."""
    dots = [(u[..., None, :] @ w[..., :, None])[..., 0, 0] for w, u in zip(profile, raw)]
    return sum(dots[1:], dots[0])


class NormalFormGame:
    """Shared machinery; a concrete game defines ``kind``, ``describe()``, the
    raw ``utility_tensors()`` and ``welfare_tensor()`` over pure profiles and,
    along a leading shape L: ``_raw_block`` (every player's raw utilities, a
    flat block player after player, and its L + (d_i,) views),
    ``_utilities_and_welfare`` and ``welfare_mixed`` (a float if L = ())."""

    def __init__(self, n: int, dims, scale: float = 1.0, shift: float = 0.0):
        self.n = int(n)
        self.dims = [int(d) for d in dims]
        if self.n < 1 or len(self.dims) != self.n or min(self.dims) < 1:
            raise ValueError(f"bad game shape: n={n}, dims={dims}")
        # negated comparisons, so NaN fails them too
        if not (0 < scale < math.inf and -math.inf < shift < math.inf):
            raise ValueError(f"need a positive finite scale and a finite shift, "
                             f"got scale={scale}, shift={shift}")
        self.scale = float(scale)
        self.shift = float(shift)
        # x - (+0.0) and x / 1.0 keep x's bits, NaN and -0.0 too (a -0.0 shift would not)
        self._identity = (self.scale, self.shift, math.copysign(1.0, self.shift)) == (1, 0, 1)
        # each player's slice of the flat all-players block of one profile
        self._slices = [slice(end - d, end) for d, end in zip(self.dims, accumulate(self.dims))]

    def raw_expected_utilities(self, i: int, profile) -> np.ndarray:
        """Player i's raw utilities, shape L + (d_i,): its view of the raw block."""
        return self._raw_block(profile)[1][i]

    def normalize(self, raw):
        return (np.asarray(raw, dtype=float) - self.shift) / self.scale

    def expected_utilities(self, i: int, profile) -> np.ndarray:
        """Exact expected utility of each of player i's strategies against the
        opponents' mixed profile (entry i gives only the leading shape),
        normalized units, shape L + (d_i,)."""
        if not 0 <= i < self.n:
            raise ValueError(f"player index {i} out of range for n={self.n}")
        profile, _ = _check_profile(self, profile, skip=i)
        return self._check_range(i, self.normalize(self.raw_expected_utilities(i, profile)))

    def _all_normalized_utilities(self, profile) -> np.ndarray:
        """Every player's ``expected_utilities``, bit for bit, in one flat block
        (``_player_views`` or, of one profile, ``_slices``); each row of L keeps
        its own bits.  ``profile`` must hold float arrays of the right shapes."""
        block, u = self._raw_block(profile)
        self._normalize(block, u)
        return block

    def _player_views(self, block: np.ndarray, lead: tuple) -> list:
        """Every player's L + (d_i,) view into a flat block, player after player
        (an L with no rows gives empty views)."""
        rows = math.prod(lead)
        return [block[rows * s.start:rows * s.stop].reshape(lead + (d,))
                for s, d in zip(self._slices, self.dims)]

    def _normalize(self, block: np.ndarray, u):
        """``u``, every player's raw utilities as views into the flat
        ``block``, once ``block`` is normalized in place and range-checked in
        one pass; only a block that escapes [0, 1] is checked player by
        player, so the error names the first player who escapes."""
        if not self._identity:
            block -= self.shift
            block /= self.scale
        # NaN fails the check too; an empty block has nothing to check
        if block.size and not (np.minimum.reduce(block) >= -1e-12
                               and np.maximum.reduce(block) <= 1.0 + 1e-12):
            for i in range(self.n):
                self._check_range(i, u[i])
        return u

    @staticmethod
    def _check_range(i: int, u: np.ndarray) -> np.ndarray:
        if u.size and not (u.min() >= -1e-12 and u.max() <= 1.0 + 1e-12):  # NaN fails too
            raise UtilityRangeError(
                f"player {i}: normalized utilities escape [0, 1]: [{u.min()}, {u.max()}]"
            )
        return u


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of (R, p) and (R, q): (R, p * q), C order."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def _leave_one_out(ws, outer=_outer) -> list:
    """K_i = w_0 (x) ... (x) w_{i-1} (x) w_{i+1} (x) ... (x) w_{n-1} for every
    player i, from shared prefix and suffix products taken by ``outer``: row
    by row (``_outer``), or ``np.multiply.outer`` of single strategies, whose
    products keep one axis per factor until raveled; ones, one entry per row,
    for n = 1."""
    n = len(ws)
    if n == 1:
        return [np.ones(ws[0].shape[:-1] + (1,))]
    pre, suf = [ws[0]], [ws[-1]]
    for i in range(1, n - 1):
        pre.append(outer(pre[-1], ws[i]))  # pre[i] = w_0 (x) ... (x) w_i
        suf.append(outer(ws[n - 1 - i], suf[-1]))
    suf.reverse()  # suf[i] = w_{i+1} (x) ... (x) w_{n-1}
    return [suf[0]] + [outer(pre[i - 1], suf[i]) for i in range(1, n - 1)] + [pre[-1]]


# at most this many entries (128 KiB) in one leave-one-out product: the
# all-players oracle takes a long leading axis in chunks of rows, so its
# working memory does not grow with T and the products stay in cache
_KRON_ENTRIES = 1 << 14


class DenseGame(NormalFormGame):
    """Game given by explicit per-player utility tensors (raw units).

    Player i's raw utilities are u_i = M_i K_i for every n: ``M_i`` is its
    tensor, own axis first, as a (d_i, prod d_-i) matrix, and ``K_i`` the
    leave-one-out Kronecker product of the other strategies.
    Each row of a leading shape is its own matrix-vector product, so it keeps
    the bits it has on its own, and a per-player call keeps the all-players
    call's bits.  Welfare is the utility sum, sum_i <w_i, raw u_i>, read off
    the raw block (before it is normalized in place, in the derivation).
    """

    kind = "dense"

    def __init__(self, tensors, scale: float = 1.0, shift: float = 0.0, meta: dict | None = None):
        tensors = [np.asarray(t, dtype=float) for t in tensors]
        if not tensors:
            raise ValueError("a dense game needs at least one utility tensor")
        n = len(tensors)
        dims = tensors[0].shape
        for t in tensors:
            if t.shape != dims or t.ndim != n:
                raise ValueError("all utility tensors must share the shape d_1 x ... x d_n")
        super().__init__(n, dims, scale, shift)
        # np.min and np.max keep a NaN entry, which fails the negated check
        lo, hi = np.min([t.min() for t in tensors]), np.max([t.max() for t in tensors])
        if not (lo >= shift - 1e-12 and hi <= shift + scale + 1e-12):
            raise ValueError(
                f"raw utilities [{lo}, {hi}] escape the declared range "
                f"[{shift}, {shift + scale}]"
            )
        self.tensors = tensors
        # views for n <= 2, not copies: a copy changes the BLAS call and so the bits
        self._m = [np.moveaxis(t, i, 0).reshape(dims[i], -1) for i, t in enumerate(tensors)]
        self._kron_rows = max(1, _KRON_ENTRIES // max(m.shape[1] for m in self._m))
        self._welfare = sum(tensors)
        self.meta = dict(meta or {})

    def _raw_block(self, profile) -> tuple:
        """Every player's M_i K_i, row by row as the stacked ``M_i @ K_i[:, :, None]``,
        a chunk of rows at a time; of one profile, as the same matrix-vector
        call (so the same bits) on 1-D products, straight into its slice."""
        lead = profile[0].shape[:-1]
        if not lead:
            block = np.empty(self._slices[-1].stop)
            u = [block[s] for s in self._slices]
            for m, k, ui in zip(self._m, _leave_one_out(profile, np.multiply.outer), u):
                np.matmul(m, k.ravel(), out=ui)
            return block, u
        rows = math.prod(lead)
        block = np.empty(rows * self._slices[-1].stop)
        u = self._player_views(block, lead)
        ws, step = [w.reshape(rows, w.shape[-1]) for w in profile], self._kron_rows
        for r in range(0, rows, step):
            kron = _leave_one_out([w[r:r + step] for w in ws])
            for m, k, ui in zip(self._m, kron, u):
                np.matmul(m, k[:, :, None], out=ui.reshape(rows, -1, 1)[r:r + step])
        return block, u

    def _utilities_and_welfare(self, profile) -> tuple:
        block, u = self._raw_block(profile)
        welfare = _utility_sum(profile, u)  # before the block is normalized in place
        return self._normalize(block, u), welfare

    def welfare_mixed(self, profile):
        profile, lead = _check_profile(self, profile)
        w = _utility_sum(profile, self._raw_block(profile)[1])
        return w if lead else float(w)

    def utility_tensors(self) -> list[np.ndarray]:
        return self.tensors

    def welfare_tensor(self) -> np.ndarray:
        return self._welfare

    def describe(self) -> dict:
        d = {"kind": self.kind, "n": self.n, "dims": self.dims,
             "scale": self.scale, "shift": self.shift}
        d.update(self.meta)
        if d.get("kind_detail") in (None, "dense_csv"):
            # no recipe, or parsed from a file's text: embed the payoffs so
            # traces stay self-contained
            d["tensors"] = [t.tolist() for t in self.tensors]
        return d


@dataclass
class SmoothnessCertificate:
    """Result of checking the welfare-smoothness condition for (lam, mu, s_star):

        utility:  for every pure s,  sum_i u_i(s*_i, s_-i) + residual(s) >= lam*Opt - mu*W(s)
        cost:     for every pure s,  sum_i c_i(s*_i, s_-i) <= lam*Opt' + mu*C(s)

    where residual(s) = W(s) - sum_i u_i(s) (zero whenever welfare is exactly
    the utility sum; for auctions it is the seller's revenue) and Opt' is the
    minimum total cost.  ``slack`` is the minimum over s of the side that must
    be >= 0, attained first at ``worst_profile``; verified iff slack >= -TOL.
    """

    lam: float
    mu: float
    s_star: tuple
    verified: bool
    worst_profile: tuple
    slack: float
    opt: float


def brute_force_opt(game: NormalFormGame, mode: str = "utility"):
    """Exact optimum over pure profiles (raw units) and its lexicographically
    first optimizer: max welfare, or in cost mode min total cost."""
    if mode not in ("utility", "cost"):
        raise ValueError(f"unknown mode {mode!r}; expected 'utility' or 'cost'")
    w = game.welfare_tensor()
    # first optimizer in C order = lexicographically first
    flat = int(np.argmax(w) if mode == "utility" else np.argmin(w))
    return float(w.flat[flat]), tuple(int(x) for x in np.unravel_index(flat, w.shape))


def _check_smoothness(lam, mu) -> None:
    """The rule for a (lambda, mu) smoothness claim: lambda > 0 and mu >= 0,
    both finite, as a config states it."""
    if not (0 < lam < math.inf and 0 <= mu < math.inf):
        raise ValueError(f"need finite lambda > 0 and mu >= 0, got ({lam}, {mu})")


def _check_claim(dims, lam, mu, s_star=None) -> None:
    """The one rule for a (lam, mu)-smoothness claim on a game of ``dims``:
    real lambda > 0 and mu >= 0, both finite; a given ``s_star`` a list of
    integers that is a pure profile; without one, a search of N * N checks for
    N pure profiles within the cap (N above it is the utility tensors' refusal)."""
    for name, x in (("lambda", lam), ("mu", mu)):
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{name} must be a number, got {x!r}")
    _check_smoothness(lam, mu)
    profiles = _capped_prod(dims)[0]
    if s_star is not None:
        if not (isinstance(s_star, (list, tuple)) and all(
                isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in s_star)):
            raise ValueError(f"s_star must be a list of integers, got {s_star!r}")
        if len(s_star) != len(dims) or not all(0 <= x < d for x, d in zip(s_star, dims)):
            raise ValueError(f"s_star {[int(x) for x in s_star]} is not a pure profile of a "
                             f"game with dims {list(dims)}")
    elif profiles <= DEFAULT_ENUM_CAP:
        _check_cap(profiles * profiles, f"give s_star: a smoothness search without it over "
                   f"{profiles} pure profiles makes", "candidate-profile checks")


def verify_smoothness(
    game: NormalFormGame, lam: float, mu: float, s_star=None, mode: str = "utility",
) -> SmoothnessCertificate:
    """Brute-force check of (lam, mu)-smoothness (raw units) at the deviation
    profile ``s_star`` or, without one, at every pure profile in lexicographic
    order, once the claim passes ``_check_claim``.  Returns the first candidate
    that verifies, else the candidate with the largest slack (unverified, never
    an exception); a claim whose lam * Opt, mu * W or slack overflows is refused."""
    _check_claim(game.dims, lam, mu, s_star)
    opt, _ = brute_force_opt(game, mode)
    if s_star is not None:
        s_star = tuple(int(x) for x in s_star)
    tensors = game.utility_tensors()
    welfare = game.welfare_tensor()
    best = None
    try:
        with np.errstate(over="raise", invalid="raise"):  # an inf or a nan raises
            lam_opt, mu_w = np.float64(lam) * opt, mu * welfare  # a Python float would not
            residual = welfare - sum(tensors)
            for cand in [s_star] if s_star is not None else np.ndindex(*game.dims):
                dev = np.zeros_like(welfare)
                for i in range(game.n):
                    dev = dev + np.expand_dims(np.take(tensors[i], cand[i], axis=i), axis=i)
                slack = (dev + residual - lam_opt + mu_w if mode == "utility"
                         else lam_opt + mu_w - dev)
                flat = int(np.argmin(slack))
                value = float(slack.flat[flat])
                if best is None or value > best[0]:
                    best = (value, cand, flat)
                if value >= -TOL:
                    break
    except FloatingPointError:
        raise ValueError(f"smoothness ({lam}, {mu}) overflows a float on this game") from None
    value, cand, flat = best
    return SmoothnessCertificate(
        lam=float(lam), mu=float(mu), s_star=cand,
        verified=bool(value >= -TOL),
        worst_profile=tuple(int(x) for x in np.unravel_index(flat, welfare.shape)),
        slack=value, opt=opt,
    )


def poa_welfare_bound(lam: float, mu: float, opt: float, regrets, T: int) -> float:
    """Welfare floor implied by smoothness: (lam/(1+mu))*Opt - sum(r_i)/((1+mu)*T).

    ``regrets`` are raw-unit regrets so the floor is in raw welfare units.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    _check_smoothness(lam, mu)
    total = float(np.sum(regrets))
    return (lam / (1.0 + mu)) * opt - total / ((1.0 + mu) * T)


# ---------------------------------------------------------------------------
# dense CSV interchange


def _cells(ln: int, cells, parse, what: str, noun: str) -> list:
    """``parse`` of every cell of line ``ln``; a cell it rejects names the line."""
    out = []
    for x in cells:
        try:
            out.append(parse(x))
        except ValueError:
            raise ValueError(f"dense-game line {ln}: {what} {x!r} is not {noun}") from None
    return out


def _unit_float(x: str) -> float:
    """A float in [0, 1]; nan and the infinities are refused like text."""
    v = float(x)
    if not 0.0 <= v <= 1.0:
        raise ValueError(x)
    return v


def load_dense_csv(text: str) -> DenseGame:
    """Parse a dense game's text: header line ``n,d1,...,dn`` then one row
    per pure profile ``s1,...,sn,u1,...,un`` (normalized [0,1] utilities).
    Refuses, before allocating, a header asking for more than
    ``DEFAULT_ENUM_CAP`` utilities in all."""
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, r) for r in reader if r and any(f.strip() for f in r)]
    if not rows:
        raise ValueError("empty dense-game file")
    header = _cells(*rows[0], int, "header count", "an integer")
    n, dims = header[0], header[1:]
    if n < 1 or len(dims) != n or min(dims) < 1:
        raise ValueError(f"dense-game line {rows[0][0]}: header gives n={n} and counts "
                         f"{dims}; expected n >= 1 and n counts, each >= 1")
    _check_cap([n, *dims], f"dense-game line {rows[0][0]}: header asks for", "utilities")
    tensors, seen = [np.full(dims, np.nan) for _ in range(n)], set()
    for ln, r in rows[1:]:
        if len(r) != 2 * n:
            raise ValueError(f"dense-game line {ln}: {len(r)} fields, expected {2 * n}")
        s = tuple(_cells(ln, r[:n], int, "strategy index", "an integer"))
        if s in seen or not all(0 <= x < d for x, d in zip(s, dims)):
            what = "appears twice" if s in seen else f"lies outside the dims {dims}"
            raise ValueError(f"dense-game line {ln}: profile {list(s)} {what}")
        seen.add(s)
        us = _cells(ln, r[n:], _unit_float, "utility", "a number in [0, 1]")
        for i in range(n):
            tensors[i][s] = us[i]
    for i, t in enumerate(tensors):
        if np.isnan(t).any():
            raise ValueError(f"player {i}: some pure profiles are missing a utility")
    return DenseGame(tensors, scale=1.0, shift=0.0, meta={"kind_detail": "dense_csv"})
