"""Metric spaces, product metrics and probability measures.

These are the shared value types: finite metric spaces with a dense distance
matrix, the real line as an implicit space, product spaces carrying the
order-s product metric, and discrete / Gaussian probability measures.
All objects are immutable after construction and validate their invariants
on construction.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, _check

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

    @property
    def n_points(self) -> int:
        return len(self.labels)

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
        _check(dist=d)
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
        _check(factors=self.factors, order=self.order)

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
    # the order-s sum is a metric for every s >= 1; errors._check's rule for
    # s is the [1, 2] of the W_s costs, so this one range check stays here
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


def _numeric(support: tuple):
    """The support as a nonempty 1-D or 2-D integer or float array (one
    entry or row per point), or None when it converts to nothing of that
    kind."""
    try:
        points = np.asarray(support)
    except ValueError:  # ragged
        return None
    if points.dtype.kind in "iuf" and points.ndim in (1, 2) and points.size:
        return points
    return None


def _distinct(support: tuple, points=None) -> bool:
    """Whether the points are pairwise distinct under ``_point_key``
    equality (so 1 == 1.0 and 0.0 == -0.0); ``points`` is ``_numeric`` of
    the support when the caller has it.

    A support that converts to a nonempty 1-D or 2-D integer or float
    array without NaN is checked by one sort, its rows compared as whole
    points. A float conversion never splits points that are equal, so if
    the sort finds no repeat there is none; any repeat it finds (float
    conversion can merge distinct large ints), and every other support
    (ragged, object, string or NaN-holding), is settled by the keys."""
    if points is None:
        points = _numeric(support)
    if points is not None and not (points.dtype.kind == "f" and np.isnan(points).any()):
        rows = points.reshape(len(points), -1)
        rows = rows[np.lexsort(rows.T[::-1])]
        if np.all(np.any(rows[1:] != rows[:-1], axis=1)):
            return True
    keys = [_point_key(p) for p in support]
    return len(set(keys)) == len(keys)


def _finite_point(p) -> bool:
    if isinstance(p, (float, np.floating)):
        return math.isfinite(p)
    if isinstance(p, np.ndarray):
        return _finite_point(p.tolist())
    if isinstance(p, (list, tuple)):
        return all(_finite_point(q) for q in p)
    return True


def _finite(support: tuple, points) -> bool:
    """Whether no point is, or holds, a NaN or infinite float; ``points``
    is ``_numeric`` of the support."""
    if points is not None:
        return points.dtype.kind != "f" or bool(np.isfinite(points).all())
    return all(_finite_point(p) for p in support)


_EXACT_INTS = 2.0**53  # every int of smaller magnitude converts to float exactly


def _matches(support: tuple, other: tuple) -> np.ndarray:
    """For each point of ``support``, the index of the equal point of
    ``other`` under ``_point_key`` equality, or -1; both are supports of
    ``DiscreteMeasure``s, so pairwise distinct and finite.

    Two supports that convert (``_numeric``) to arrays of one shape per
    point are aligned by one sort of their stacked rows, where an equal
    pair sits side by side. A float array whose entries all lie below
    2**53 in magnitude holds every int exactly, so the sort merges no
    distinct points; any other pair of supports is matched by the keys."""
    p, q = _numeric(support), _numeric(other)
    if p is not None and q is not None and p.shape[1:] == q.shape[1:]:
        rows = np.concatenate([p.reshape(len(p), -1), q.reshape(len(q), -1)])
        if rows.dtype.kind != "f" or np.abs(rows).max() < _EXACT_INTS:
            order = np.lexsort(rows.T[::-1])
            rows = rows[order]
            # ties keep the stacked order, so support's point comes first
            k = np.flatnonzero(np.all(rows[1:] == rows[:-1], axis=1))
            out = np.full(len(p), -1, dtype=np.intp)
            out[order[k]] = order[k + 1] - len(p)
            return out
    index = {_point_key(x): j for j, x in enumerate(other)}
    return np.array([index.get(_point_key(x), -1) for x in support], dtype=np.intp)


def _index_error(support: tuple, points, space):
    """Why the support is not one of point indices of ``space``, or None.

    On a ``FiniteMetricSpace`` or ``_LabelLine`` of n points every support
    point must be an integer in [0, n), and on a ``ProductSpace`` over one
    every coordinate; the message names the first point that breaks this.
    ``points`` is ``_numeric`` of the support."""
    product = isinstance(space, ProductSpace)
    base = space.base if product else space
    if not isinstance(base, (FiniteMetricSpace, _LabelLine)):
        return None
    n = base.n_points
    if (points is not None and points.dtype.kind in "iu" and points.ndim == 1 + product
            and points.min() >= 0 and points.max() < n):
        return None
    for p in support:
        coords = p if product and isinstance(p, (tuple, list, np.ndarray)) else (p,)
        if not all(isinstance(c, (int, np.integer)) and 0 <= c < n for c in coords):
            what = "has a coordinate that is not" if product else "is not"
            return (f"support point {_point_key(p)!r} {what} a point index of its finite space: "
                    f"an integer in [0, {n})")
    return None


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure.

    Support points are plain reals (space = the real line), tuples
    (product spaces), or, on a ``FiniteMetricSpace`` (or a tabular chain's
    label line) of n points, integer indices in [0, n), and tuples of them
    on a product of one.
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
        _check(weights=w)
        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_SLACK:
            raise InputError(f"weights sum to {total!r}, not 1")
        points = _numeric(support)
        if not _distinct(support, points):
            raise InputError("support points must be pairwise distinct")
        if not _finite(support, points):
            raise InputError("support points must be finite")
        error = _index_error(support, points, self.space)
        if error is not None:
            raise InputError(error)
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
        """Half the fsum of |self(x) - other(x)| over the union of supports."""
        match = _matches(self.support, other.support)
        unmatched = np.ones(len(other), dtype=bool)
        unmatched[match[match >= 0]] = False
        b = np.where(match >= 0, other.weights[match], 0.0)
        return 0.5 * math.fsum(np.concatenate([np.abs(self.weights - b), other.weights[unmatched]]))


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
        _check(mean=m, cov=c)
        if np.max(np.abs(c - c.T)) > 1e-12:
            raise InputError("covariance must be symmetric")
        eig = np.linalg.eigvalsh((c + c.T) / 2)
        if eig[0] < -1e-12 * max(1.0, np.abs(eig).max()):
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
