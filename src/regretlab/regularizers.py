"""Regularizers on the probability simplex.

Both regularizers are 1-strongly convex with respect to their associated
norm (l1 for negative entropy, l2 for squared Euclidean); every regret
certificate in this package leans on that property.  The step sizes they take
are not re-checked: a learner checks its own once, when it is built.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NegativeEntropy",
    "SquaredEuclidean",
    "get_regularizer",
    "project_simplex",
]


def _exp_weights(z: np.ndarray) -> np.ndarray:
    """Overwrite the fresh float vector ``z`` with exp(z - max z), normalized;
    a (k, d) block is taken row by row, each row bitwise as on its own.

    For a vector, the finiteness check and the max run in Python over
    ``z.tolist()``, which beats numpy's reductions on the short vectors of a
    learner step; the sum stays numpy's pairwise one, so the weights are
    bitwise those of ``e = exp(z - z.max()); e / e.sum()``.  A block reduces
    along its last axis, the same pairwise sum per row.
    """
    if z.ndim == 1:
        vals = z.tolist()
        if not all(map(math.isfinite, vals)):
            raise ValueError("cumulative utility vector contains non-finite entries")
        z -= max(vals)
        np.exp(z, out=z)
        z /= np.add.reduce(z)
        return z
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError("cumulative utility vector contains non-finite entries")
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of ``v`` onto the probability simplex along its
    last axis, each row of a leading shape such as (k,) or (B, k) on its own.

    Full-sort threshold method: sort descending, find the largest k with
    v_(k) + (1 - sum_{j<=k} v_(j)) / k > 0, clip at that threshold.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    k = np.arange(1, v.shape[-1] + 1)
    cond = u + (1.0 - css) / k > 0.0
    if v.ndim == 1:  # a vector's plain indexing costs a fraction of the block path
        try:
            rho = k[cond][-1]
        except IndexError:
            raise _lost_threshold(v) from None
        theta = (css[rho - 1] - 1.0) / rho
    else:  # each row's largest such k (its last True), and its threshold
        found = np.logical_or.reduce(cond, axis=-1)
        if not found.all():  # the first row without one, as the vector path refuses it
            raise _lost_threshold(v[np.unravel_index(np.argmin(found), found.shape)])
        rho = v.shape[-1] - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)
        theta = (np.take_along_axis(css, rho - 1, axis=-1) - 1.0) / rho
    return np.maximum(v - theta, 0.0)


def _lost_threshold(v: np.ndarray) -> ValueError:
    """The refusal of a vector where no k passes the threshold test: even
    1 - v_(1) rounds to -v_(1)."""
    return ValueError(f"simplex projection lost its threshold: entries of magnitude "
                      f"{np.abs(v).max():.3g} leave no float precision for a sum "
                      f"of 1 (a smaller eta keeps them in range)")


def _check_dim(d: int) -> None:
    if d < 1:
        raise ValueError(f"simplex dimension must be >= 1, got {d}")


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains non-finite entries")
    return x


class NegativeEntropy:
    """R(w) = sum_k w_k ln w_k, 1-strongly convex w.r.t. the l1 norm."""

    name = "entropy"
    primal_norm = "l1"

    def initial_point(self, d: int) -> np.ndarray:
        _check_dim(d)
        return np.full(d, 1.0 / d)

    def ftrl_argmax(self, G, eta: float) -> np.ndarray:
        """argmax over the simplex of <w, G> - R(w)/eta (softmax of eta*G)."""
        return _exp_weights(eta * np.asarray(G, dtype=float))

    def r_ftrl(self, d: int) -> float:
        """Range of R over the d-simplex: 0 - (-ln d) = ln d; from the uniform
        start it is also sup_f D(f, uniform), mirror descent's constant."""
        _check_dim(d)
        return float(np.log(d))


class SquaredEuclidean:
    """R(w) = ||w||^2 / 2, 1-strongly convex w.r.t. the l2 norm."""

    name = "euclidean"
    primal_norm = "l2"

    def initial_point(self, d: int) -> np.ndarray:
        _check_dim(d)
        return np.full(d, 1.0 / d)

    def ftrl_argmax(self, G, eta: float) -> np.ndarray:
        """argmax of <w, G> - ||w||^2/(2 eta): projection of eta*G onto the simplex."""
        G = _check_finite(G, "cumulative utility vector")
        return project_simplex(eta * G)

    def prox_step(self, g, u, eta: float) -> np.ndarray:
        """Prox point argmax of eta*<w, u> - ||w - g||^2/2: the projection of
        g + eta*u.  (The entropy has none: its chained prox steps are FTRL's
        argmax, which ``OmdLearner`` runs.)"""
        g = np.asarray(g, dtype=float)
        u = _check_finite(u, "utility vector")
        return project_simplex(g + eta * u)

    def r_ftrl(self, d: int) -> float:
        """Range of ||w||^2/2 on the simplex: (1 - 1/d) / 2; from the uniform start
        also sup_f ||f - uniform||^2 / 2 (at a vertex), mirror descent's constant."""
        _check_dim(d)
        return 0.5 * (1.0 - 1.0 / d)


_REGISTRY = {
    "entropy": NegativeEntropy,
    "euclidean": SquaredEuclidean,
}


def get_regularizer(name: str):
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown regularizer {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
