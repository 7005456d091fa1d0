"""Metric spaces, product metrics and probability measures.

These are the shared value types: finite metric spaces with a dense distance
matrix, the real line as an implicit space, product spaces carrying the
order-s product metric, and discrete / Gaussian probability measures.
All objects are immutable after construction and validate their invariants
on construction.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError

METRIC_ATOL = 1e-12
WEIGHT_SLACK = 1e-9
MAX_SUPPORT = 4096


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class RealLine:
    """The real line with d(x, y) = |x - y|; points are plain floats."""

    def distance(self, x, y) -> float:
        return abs(float(x) - float(y))

    def pairwise(self, xs, ys) -> np.ndarray:
        x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        return np.abs(x[:, None] - y[None, :])

    def __repr__(self):  # pragma: no cover
        return "RealLine()"

    def __eq__(self, other):
        return isinstance(other, RealLine)

    def __hash__(self):
        return hash("RealLine")


REAL_LINE = RealLine()


@dataclass(frozen=True)
class _LabelLine:
    """Metric on state indices through their real-valued labels."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(float(x) for x in self.labels))

    def distance(self, i, j):
        return abs(self.labels[int(i)] - self.labels[int(j)])

    def pairwise(self, xs, ys) -> np.ndarray:
        lab = np.asarray(self.labels)
        i, j = np.asarray(xs).astype(np.intp), np.asarray(ys).astype(np.intp)
        return np.abs(lab[i][:, None] - lab[j][None, :])


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """Labeled points with a dense symmetric distance matrix.

    Points are referred to by integer index; ``labels`` is kept for IO.
    The matrix must be finite, symmetric with a zero diagonal and satisfy the
    triangle inequality within ``METRIC_ATOL`` (checked exhaustively up to
    512 points, on sampled centers beyond that). Two spaces are equal when
    their labels and distance matrices are.
    """

    labels: tuple
    dist: np.ndarray

    def __post_init__(self):
        d = np.array(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InputError("distance matrix must be square")
        n = d.shape[0]
        if n != len(self.labels):
            raise InputError("labels and distance matrix size mismatch")
        if n > MAX_SUPPORT:
            raise InputError(f"space exceeds the {MAX_SUPPORT}-point cap")
        if not np.all(np.isfinite(d)):
            raise InputError("distances must be finite")
        if np.any(d < 0):
            raise InputError("distances must be nonnegative")
        if np.any(np.abs(np.diag(d)) > 0):
            raise InputError("distance matrix diagonal must be exactly zero")
        if np.max(np.abs(d - d.T)) > METRIC_ATOL:
            raise InputError("distance matrix must be symmetric")
        centers = range(n) if n <= 512 else np.random.default_rng(0).choice(n, 64, replace=False)
        for k in centers:
            # d(i,j) <= d(i,k) + d(k,j) for all i, j
            if np.min(d[:, k, None] + d[None, k, :] - d) < -METRIC_ATOL:
                raise InputError("triangle inequality violated")
        object.__setattr__(self, "labels", tuple(self.labels))
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    def distance(self, i, j) -> float:
        return float(self.dist[int(i), int(j)])

    def pairwise(self, xs, ys) -> np.ndarray:
        i, j = np.asarray(xs).astype(np.intp), np.asarray(ys).astype(np.intp)
        return self.dist[np.ix_(i, j)]

    def __eq__(self, other):
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.dist, other.dist)

    def index(self, label) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class ProductSpace:
    """n-fold product of a base space under the order-s product metric.

    Points are tuples of base points; the metric is
    ``(sum_j d(x_j, y_j)**s) ** (1/s)``.
    """

    base: object = REAL_LINE
    factors: int = 1
    order: float = 1.0

    def __post_init__(self):
        if self.factors < 1:
            raise InputError("factor count must be >= 1")
        if not (1.0 <= self.order <= 2.0):
            raise InputError("product metric order must lie in [1, 2]")

    def distance(self, x, y) -> float:
        return product_distance(x, y, self.order, base=self.base)

    def pairwise(self, xs, ys) -> np.ndarray:
        """Distance matrix between two lists of equal-length tuples."""
        x, y = _factor_columns(xs), _factor_columns(ys)
        if x.shape[1] != y.shape[1]:
            raise InputError(f"tuple length mismatch: {x.shape[1]} vs {y.shape[1]}")
        total = np.zeros((x.shape[0], y.shape[0]))
        for k in range(x.shape[1]):
            total += self.base.pairwise(x[:, k], y[:, k]) ** self.order
        return total ** (1.0 / self.order)


def _factor_columns(points) -> np.ndarray:
    """Stack tuple points as rows of a 2-D array, one column per factor."""
    try:
        arr = np.asarray(points)
    except ValueError:
        arr = None
    if arr is None or arr.ndim != 2:
        raise InputError("product-space points must be tuples of one common length")
    return arr


def product_distance(x: Sequence, y: Sequence, s: float, base=REAL_LINE) -> float:
    """Order-s product metric between equal-length tuples of base points."""
    if len(x) != len(y):
        raise InputError(f"tuple length mismatch: {len(x)} vs {len(y)}")
    if not (1.0 <= s < np.inf):
        raise InputError("order s must lie in [1, inf)")
    terms = [base.distance(a, b) ** s for a, b in zip(x, y)]
    return float(np.power(np.sum(terms), 1.0 / s)) if terms else 0.0


def _point_key(p):
    """Hashable identity of a support point."""
    if isinstance(p, np.ndarray):
        return _point_key(p.tolist())
    if isinstance(p, (list, tuple)):
        return tuple(_point_key(q) for q in p)
    if isinstance(p, (np.floating, np.integer)):
        return p.item()
    return p


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure.

    Support points are integer indices into ``space`` when one is given,
    plain reals (space = the real line) or tuples (product spaces).
    Weights must be finite. Weights summing to 1 within ``WEIGHT_SLACK``
    are renormalized; worse deviations are rejected as genuine bugs.
    Weights already within ``len(weights)`` machine epsilons of 1 are kept
    as given, so a measure rebuilt from its own weights is bit-identical.
    """

    support: tuple
    weights: np.ndarray
    space: object = None

    def __post_init__(self):
        support = tuple(self.support)
        w = np.array(self.weights, dtype=float)
        if len(support) == 0:
            raise InputError("support must be nonempty")
        if len(support) > MAX_SUPPORT:
            raise InputError(f"support exceeds the {MAX_SUPPORT}-point cap")
        if w.shape != (len(support),):
            raise InputError("weights must match the support length")
        if not np.all(np.isfinite(w)):
            raise InputError("weights must be finite")
        if np.any(w < 0):
            raise InputError("weights must be nonnegative")
        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_SLACK:
            raise InputError(f"weights sum to {total!r}, not 1")
        keys = [_point_key(p) for p in support]
        if len(set(keys)) != len(keys):
            raise InputError("support points must be pairwise distinct")
        if abs(total - 1.0) > len(w) * np.finfo(float).eps:
            w = w / total
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", _frozen_array(w))

    def __len__(self) -> int:
        return len(self.support)

    def resolved_space(self):
        if self.space is not None:
            return self.space
        p = self.support[0]
        if isinstance(p, (tuple, list, np.ndarray)):
            return ProductSpace(REAL_LINE, len(p), 1.0)
        return REAL_LINE

    def as_dict(self) -> dict:
        return {_point_key(p): float(w) for p, w in zip(self.support, self.weights)}

    def total_variation(self, other: "DiscreteMeasure") -> float:
        a, b = self.as_dict(), other.as_dict()
        return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian law N(mean, cov) with a symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.array(self.mean, dtype=float))
        c = np.atleast_2d(np.array(self.cov, dtype=float))
        if c.shape != (m.size, m.size):
            raise InputError("covariance shape must match the mean dimension")
        if np.max(np.abs(c - c.T)) > 1e-12:
            raise InputError("covariance must be symmetric")
        if np.min(np.linalg.eigvalsh((c + c.T) / 2)) < -1e-12:
            raise InputError("covariance must be positive semidefinite")
        object.__setattr__(self, "mean", _frozen_array(m))
        object.__setattr__(self, "cov", _frozen_array((c + c.T) / 2))

    @property
    def dim(self) -> int:
        return self.mean.size


def empirical_measure(samples: Sequence, space=None) -> DiscreteMeasure:
    """Empirical distribution of a sample list.

    Weights are exact relative frequencies: counts are accumulated as
    integers and divided only at the end, so they sum to 1 by construction.
    """
    samples = list(samples)
    if not samples:
        raise InputError("empty sample list")
    counts = Counter(_point_key(p) for p in samples)
    first_seen = {}
    for p in samples:
        first_seen.setdefault(_point_key(p), p)
    total = len(samples)
    support = [first_seen[k] for k in counts]
    weights = [float(Fraction(counts[k], total)) for k in counts]
    return DiscreteMeasure(tuple(support), np.array(weights), space=space)


def moment_order_s(mu: DiscreteMeasure, x0, s: float) -> float:
    """s-th moment of the distance to ``x0``: sum_i w_i d(x0, y_i)**s."""
    d = mu.resolved_space().pairwise([x0], mu.support)[0]
    return float(np.dot(mu.weights, d**s))
