"""Simultaneous single-unit-demand first-price auction.

Each bidder picks one item and one bid level; the highest bid on an item wins
(ties go to the lowest player index) and pays its own bid.  Strategy indices
are item-major: index = item * len(bid_levels) + bid_index.

Welfare is the expected allocation value — payments are transfers to a
strategyless seller, so they cancel out of welfare but do appear in the
smoothness residual (seller revenue).

Every mixed-profile oracle starts from ``_win_probabilities``, one pass of
tail masses for all bidders: the engine round and the trace derivation
(utilities and welfare together) each make one call.  The pure payoffs are
``utility_tensors`` and ``welfare_tensor`` only, built in numpy from index
grids (item ``s // nb``, bid index ``s % nb`` along each bidder's axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .games import NormalFormGame, _check_cap, _check_profile

__all__ = ["AuctionSpec", "AuctionGame", "uniform_values"]


@dataclass
class AuctionSpec:
    """n bidders, m items, values[i][j] >= 0, sorted positive bid levels."""

    n: int
    m: int
    values: np.ndarray  # (n, m)
    bid_levels: np.ndarray = field(default_factory=lambda: np.arange(1.0, 21.0))

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        self.bid_levels = np.asarray(self.bid_levels, dtype=float)
        if self.n < 1 or self.m < 1 or self.bid_levels.size == 0:
            raise ValueError("need n >= 1, m >= 1 and at least one bid level")
        if self.values.shape != (self.n, self.m):
            raise ValueError(
                f"values must have shape ({self.n}, {self.m}), got {self.values.shape}"
            )
        if not np.all((self.values >= 0) & (self.values < np.inf)):
            raise ValueError("item values must be nonnegative and finite")
        levels = self.bid_levels
        if not (np.all(np.diff(levels) > 0) and 0 < levels[0] and levels[-1] < np.inf):
            raise ValueError("bid levels must be sorted, positive, finite and distinct")
        # the raw utilities span max value + max bid (Python floats: no overflow warning)
        top_value, top_bid = float(self.values.max()), float(levels[-1])
        if not top_value + top_bid < math.inf:
            raise ValueError(f"the largest item value plus the largest bid level must be "
                             f"finite, got {top_value} + {top_bid}")


def uniform_values(n: int, m: int, v: float) -> np.ndarray:
    return np.full((n, m), float(v))


def _check_payoff_cap(n: int, m: int, nb: int) -> None:
    """Refuse an auction of n bidders, m items and nb bid levels whose
    n * m * nb payoffs exceed the enumeration cap, before anything is drawn."""
    _check_cap(n * m * nb, f"an auction of {n} bidders, {m} items and {nb} bid levels stores",
               "payoffs")


class AuctionGame(NormalFormGame):
    kind = "auction"

    def __init__(self, spec: AuctionSpec):
        self.spec = spec
        self.m = spec.m
        self.nb = len(spec.bid_levels)
        _check_payoff_cap(spec.n, self.m, self.nb)
        d = self.m * self.nb
        max_v = float(spec.values.max())
        max_bid = float(spec.bid_levels[-1])
        # raw utilities live in [-max_bid, max_v] (overbidding is allowed)
        super().__init__(spec.n, [d] * spec.n, scale=max_v + max_bid, shift=-max_bid)
        self._payoff = spec.values[:, :, None] - spec.bid_levels  # (n, m, nb): value - bid
        self._dense = None  # (utility tensors, welfare tensor), built on first use

    # -- helpers -------------------------------------------------------------
    def _win_probabilities(self, profile) -> np.ndarray:
        """(n,) + L + (m, nb) win probabilities of every bidder's (item, bid)
        cells: win_i = lo_0 ... lo_{i-1} hi_{i+1} ... hi_{n-1} with lo_k =
        1 - P_k[>= level] (k wins ties) and hi_k = 1 - P_k[> level], taken left
        to right in k (shared prefixes, the per-bidder product's bits)."""
        shape = np.shape(profile[0])[:-1] + (self.m, self.nb)
        win = np.ones((self.n,) + shape)
        tail = np.ones(shape[:-1] + (self.nb + 1,))  # the top column stays 1
        lo, hi = tail[..., :-1], tail[..., 1:]
        for k, w in enumerate(profile):
            np.add.accumulate(w.reshape(shape)[..., ::-1], axis=-1, out=lo[..., ::-1])
            np.subtract(1.0, lo, out=lo)
            if k:
                win[:k] *= hi
            if k + 1 < self.n:
                np.multiply(win[k], lo, out=win[k + 1])
        return win

    # -- oracles ---------------------------------------------------------------
    def _raw_block(self, profile, win=None) -> tuple:
        """Every bidder's raw utilities, computed in place of ``win`` (the
        profile's ``_win_probabilities`` unless given)."""
        if win is None:
            win = self._win_probabilities(profile)
        win *= self._payoff.reshape((self.n,) + (1,) * (win.ndim - 3) + self._payoff.shape[1:])
        return win.reshape(-1), win.reshape(win.shape[:-2] + (self.dims[0],))

    def welfare_mixed(self, profile):
        profile, _ = _check_profile(self, profile)
        return self._welfare(profile, self._win_probabilities(profile))

    def _utilities_and_welfare(self, profile) -> tuple:
        win = self._win_probabilities(profile)
        welfare = self._welfare(profile, win)  # before _raw_block overwrites win
        return self._normalize(*self._raw_block(profile, win)), welfare

    def _welfare(self, profile, win):
        """Expected welfare of a checked profile, given its win probabilities."""
        total = 0.0
        for i, w in enumerate(profile):
            total = total + np.sum(self.spec.values[i][:, None] * w.reshape(win.shape[1:])
                                   * win[i], axis=(-2, -1))
        return total if win.ndim > 3 else float(total)

    def utility_tensors(self) -> list[np.ndarray]:
        """Every bidder's raw utility tensor, built once with the welfare
        tensor from index grids and kept; refused above ``DEFAULT_ENUM_CAP``
        pure profiles.  Bidder i wins where every lower-index bidder on its
        item bids less and every higher-index one at most as much; it earns
        value - bid there and 0 elsewhere, and the welfare sums the winners'
        values."""
        if self._dense is None:
            _check_cap(math.prod(self.dims), "an auction's utility tensors span",
                       "pure profiles")
            # bidder i's strategy index, item and bid index along its own axis
            grid = [np.arange(self.dims[i]).reshape((-1,) + (1,) * (self.n - 1 - i))
                    for i in range(self.n)]
            item, bid = zip(*(np.divmod(s, self.nb) for s in grid))
            tensors, welfare = [], np.zeros(self.dims)
            for i in range(self.n):
                wins = True
                for k in range(self.n):
                    if k != i:
                        beaten = bid[k] < bid[i] if k < i else bid[k] <= bid[i]
                        wins = wins & ((item[k] != item[i]) | beaten)
                tensors.append(np.where(wins, self._payoff[i].reshape(grid[i].shape), 0.0))
                np.add(welfare, self.spec.values[i][item[i]], out=welfare, where=wins)
            self._dense = tensors, welfare
        return self._dense[0]

    def welfare_tensor(self) -> np.ndarray:
        self.utility_tensors()
        return self._dense[1]

    def describe(self) -> dict:
        return {
            "kind": self.kind, "n": self.n, "dims": self.dims,
            "scale": self.scale, "shift": self.shift, "m": self.m,
            "values": self.spec.values.tolist(),
            "bid_levels": self.spec.bid_levels.tolist(),
        }
