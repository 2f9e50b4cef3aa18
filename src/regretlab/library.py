"""Concrete games and seeded draws.

Random games and masked auction values come from a splitmix64 stream, so
identical seeds give identical game bytes on every platform; matrix games
embed a zero-sum game into [0, 1]; ``build_game`` rebuilds any game from its
trace metadata.
"""

from __future__ import annotations

import numbers

import numpy as np

from .auctions import AuctionGame, AuctionSpec
from .continuous import CongestionNetwork
from .games import DenseGame, _check_cap

__all__ = [
    "splitmix64_floats",
    "make_matrix_game",
    "make_random_game",
    "masked_values",
    "build_game",
]

_MASK = (1 << 64) - 1


def splitmix64_floats(seed: int, count: int) -> np.ndarray:
    """``count`` floats in [0, 1): the top 53 bits of each splitmix64 output
    (Steele, Lea & Vigna), in numpy ``uint64`` arithmetic, which wraps mod
    2^64 as the published algorithm does.  Output k mixes the state
    seed + k * 0x9E3779B97F4A7C15 (k = 1, 2, ...)."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z / float(1 << 53)


def make_matrix_game(A) -> DenseGame:
    """Two-player zero-sum game in [0,1]: row gets A[r][c], column 1 - A[r][c]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        raise ValueError("matrix must be nonempty")
    if not (A.min() >= 0.0 and A.max() <= 1.0):  # NaN fails it too
        raise ValueError(f"matrix entries must lie in [0,1], got [{A.min()}, {A.max()}]")
    return DenseGame([A, 1.0 - A], meta={"kind_detail": "matrix", "matrix": A.tolist()})


def make_random_game(n: int, dims, seed: int) -> DenseGame:
    """Dense game with independent uniform [0,1) utilities from a seeded
    splitmix64 stream (player-major order).  Refuses, before drawing, more
    than ``DEFAULT_ENUM_CAP`` utilities in all; n and each dim are checked as
    the size rule reaches them, so it reads at most one dim past the cap."""
    def factors():
        for x in (n, *dims):
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise ValueError(f"a random game needs an integer n and integer dims, "
                                 f"got n={n!r}, dims={dims!r}")
            if x < 1 or len(dims) != n:
                raise ValueError(f"a random game needs n >= 1 and n dims, each >= 1, "
                                 f"got n={n}, dims={list(dims)}")
            yield int(x)

    count = _check_cap(factors(), "a random game draws", "utilities")
    vals = splitmix64_floats(seed, count)
    per = count // n
    tensors = [np.array(vals[i * per : (i + 1) * per]).reshape(dims) for i in range(n)]
    return DenseGame(tensors, meta={"kind_detail": "random", "seed": seed})


def masked_values(n: int, m: int, v: float, seed: int) -> np.ndarray:
    """Player-specific item subsets: each (player, item) value is v with
    probability 1/2 else 0, from a seeded splitmix64 stream."""
    bits = splitmix64_floats(seed, n * m)
    return np.where(np.asarray(bits).reshape(n, m) < 0.5, float(v), 0.0)


# ---------------------------------------------------------------------------
# reconstruction from trace metadata


def build_game(desc: dict):
    """Rebuild a game or a routing network from ``describe()`` output (trace
    metadata)."""
    kind = desc.get("kind")
    if kind == "auction":
        spec = AuctionSpec(
            n=desc["n"], m=desc["m"],
            values=np.asarray(desc["values"], dtype=float),
            bid_levels=np.asarray(desc["bid_levels"], dtype=float),
        )
        return AuctionGame(spec)
    if kind == "network":
        return CongestionNetwork(desc["edges"], desc["players"])
    if kind == "dense":
        if "tensors" in desc:
            return DenseGame(
                [np.asarray(t, dtype=float) for t in desc["tensors"]],
                scale=desc.get("scale", 1.0), shift=desc.get("shift", 0.0),
                meta={"kind_detail": desc["kind_detail"]} if "kind_detail" in desc else None,
            )
        detail = desc.get("kind_detail")
        if detail == "matrix":
            return make_matrix_game(np.asarray(desc["matrix"], dtype=float))
        if detail == "random":
            n, dims = desc["n"], desc["dims"]
            return make_random_game(n, dims, desc["seed"])
    raise ValueError(f"cannot rebuild game from metadata {desc!r}")
