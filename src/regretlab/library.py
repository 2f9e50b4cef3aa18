"""Concrete games and named experiments.

Random games come from a splitmix64 stream so identical seeds give identical
game bytes on every platform; matrix games embed a zero-sum game into [0, 1];
``lower_bound_experiment`` runs the multiplicative-weights-versus-best-response
construction whose regret grows with sqrt(T).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .auctions import AuctionGame, AuctionSpec
from .continuous import CongestionNetwork
from .games import DenseGame, _check_cap
from .learners import LearnerSpec

__all__ = [
    "splitmix64_floats",
    "make_matrix_game",
    "make_random_game",
    "LowerBoundResult",
    "lower_bound_experiment",
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
    than ``DEFAULT_ENUM_CAP`` utilities in all."""
    if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in (n, *dims)):
        raise ValueError(f"a random game needs an integer n and integer dims, "
                         f"got n={n!r}, dims={dims!r}")
    dims = [int(d) for d in dims]
    if n < 1 or len(dims) != n or min(dims) < 1:
        raise ValueError(f"a random game needs n >= 1 and n dims, each >= 1, "
                         f"got n={n}, dims={dims}")
    count = n * math.prod(dims)
    _check_cap(count, "a random game draws", "utilities")
    vals = splitmix64_floats(seed, count)
    per = count // n
    tensors = [np.array(vals[i * per : (i + 1) * per]).reshape(dims) for i in range(n)]
    return DenseGame(tensors, meta={"kind_detail": "random", "seed": seed})


# ---------------------------------------------------------------------------
# the sqrt(T) lower-bound experiment


@dataclass
class LowerBoundResult:
    """Realized regrets of Hedge against a best responder, with the closed
    forms quoted for the two matrices.

    Note: on game A the dynamics are exactly solvable and the realized regret
    equals (T/2)*(1/2 - 1/(1+e^eta)) for even T -- half of ``closed_form_A``.
    Both numbers are reported; certificates built on this experiment test the
    realized dynamics.
    """

    eta: float
    T: int
    r_game_A: float
    r_game_Aprime: float
    closed_form_A: float
    closed_form_Aprime_lb: float


def lower_bound_experiment(eta: float, T: int) -> LowerBoundResult:
    """Run Hedge(eta) as the row player against a best-responding column on
    the identity matrix A and on the single-column matrix A' = (1; 0)."""
    specs = [LearnerSpec("hedge", eta=eta), LearnerSpec("bestresponse")]  # checks eta
    if T < 1 or T % 2:
        raise ValueError(f"T must be a positive even integer, got {T}")
    from .dynamics import regret, run  # local: dynamics imports library

    trace_a = run(make_matrix_game(np.eye(2)), specs, T)
    trace_ap = run(make_matrix_game(np.array([[1.0], [0.0]])), specs, T)
    q = math.exp(-eta)  # (e^eta - 1)/(e^eta + 1) as (1 - q)/(1 + q): no overflow
    return LowerBoundResult(
        eta=eta,
        T=T,
        r_game_A=regret(trace_a, 0),
        r_game_Aprime=regret(trace_ap, 0),
        closed_form_A=(T / 2.0) * (1.0 - q) / (1.0 + q),
        # (1 - e^{-T eta}) / (2 (1 - e^{-eta})) through expm1: q is 1.0 below eta = 2^-53
        closed_form_Aprime_lb=math.expm1(-T * eta) / (2.0 * math.expm1(-eta)),
    )


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
