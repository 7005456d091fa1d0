"""Metric spaces, product metrics and probability measures.

These are the shared value types: finite metric spaces with a dense distance
matrix, the real line as an implicit space, product spaces carrying the
order-s product metric, and discrete / Gaussian probability measures.
All objects are immutable after construction and validate their invariants
on construction. A discrete measure holds its support once, as one array
(``points``, a (paths, n) table on a product space), which every route reads.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
        return self._power_sums(xs, ys) ** (1.0 / self.order)

    def _power_sums(self, xs, ys) -> np.ndarray:
        """sum_j d(x_j, y_j)**order between two lists of equal-length
        tuples: ``pairwise``'s matrix before its root is taken."""
        x, y = _points(xs, None), _points(ys, None)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise InputError(f"tuple length mismatch: {x.shape[1:]} vs {y.shape[1:]}")
        total = np.zeros((x.shape[0], y.shape[0]))
        # paths of state indices revisit few states: each factor's powered
        # distances are then taken once per pair of distinct states, and
        # gathered; other points (e.g. real coordinates) rarely repeat
        indices = x.dtype.kind in "iu" and y.dtype.kind in "iu"
        for k in range(x.shape[1]):
            if indices:
                ux, ix = np.unique(x[:, k], return_inverse=True)
                uy, iy = np.unique(y[:, k], return_inverse=True)
                total += (self.base.pairwise(ux, uy) ** self.order)[:, iy][ix]
            else:
                total += self.base.pairwise(x[:, k], y[:, k]) ** self.order
        return total


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


_NOT_POINTS = "support points must be real numbers or tuples of them, all of one shape"


def _tuples(x):
    """``tolist()`` output with every list made a tuple."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def _points(support, space) -> np.ndarray:
    """The validated array of ``DiscreteMeasure.points`` on ``space``, its
    distinctness left to the caller."""
    try:
        points = np.asarray(support)
    except ValueError:  # ragged
        raise InputError(_NOT_POINTS) from None
    if points.ndim == 0 or points.size == 0:
        raise InputError("support must be a nonempty sequence of nonempty points")
    kind = points.dtype.kind
    if kind == "f" and not np.isfinite(points).all():
        raise InputError("support points must be finite")
    product = isinstance(space, ProductSpace)
    base = space.base if product else space
    if isinstance(base, (FiniteMetricSpace, _LabelLine)):
        n = base.n_points
        if kind in "iu" and points.ndim == 1 + product:
            rows = points.reshape(len(points), -1)
            bad = np.flatnonzero(np.any((rows < 0) | (rows >= n), axis=1))
            if not bad.size:
                return points.astype(np.intp)
            shown = _tuples(points[bad[0]].tolist())
        else:  # named by the first point with a coordinate of another type
            k = next((k for k, p in enumerate(support) if np.asarray(p).dtype.kind not in "iu"), 0)
            shown = _tuples(np.asarray(support[k], dtype=object).tolist())
        what = "has a coordinate that is not" if product else "is not"
        raise InputError(f"support point {shown!r} {what} a point index of its finite space: "
                         f"an integer in [0, {n})")
    if kind not in "iuf":
        raise InputError(_NOT_POINTS)
    # the line is float64: an integer at or past 2**53 would merge or round
    # (a float array is searched for one only when it holds such a value)
    big = (points >= 2**53) | (points <= -(2**53))
    if big.any() and (kind != "f" or any(isinstance(c, (int, np.integer))
                                         for c in np.asarray(support, dtype=object)[big])):
        raise InputError("integer support coordinates must lie below 2**53 in magnitude")
    return points.astype(np.int64 if kind in "iu" else np.float64)


def _matches(points: np.ndarray, other: np.ndarray) -> np.ndarray:
    """For each of ``points`` (which may repeat), the index of the equal
    point of ``other`` (distinct, as a measure's ``points``), or -1, by one
    sort of the stacked rows. Mixed dtypes meet as float64, exactly since
    integers lie below 2**53; points of another shape never match."""
    out = np.full(len(points), -1, dtype=np.intp)
    if points.shape[1:] != other.shape[1:]:
        return out
    rows = np.concatenate([other.reshape(len(other), -1), points.reshape(len(points), -1)])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    # ties keep the stacked order, so an ``other`` point sorts before the
    # ``points`` equal to it: each takes the last ``other`` point before it
    known = order < len(other)
    last = np.maximum.accumulate(np.where(known, np.arange(order.size), 0))
    hit = ~known & known[last] & np.all(rows == rows[last], axis=1)
    out[order[hit] - len(other)] = order[last[hit]]
    return out


@dataclass(frozen=True, init=False, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure, ``DiscreteMeasure(support,
    weights, space=None)``.

    Support points are reals (the real line), tuples of one length (product
    spaces; equal-length vectors as vector-valued steps) or, on a
    ``FiniteMetricSpace`` or a tabular chain's label line of n points,
    integer indices in [0, n), and tuples of them on a product of one.
    ``points`` stores them once, read-only, of shape (N,) or (N, n): intp
    on an index space, else int64 when every coordinate is an integer and
    float64 otherwise. Equal values are one point (1 == 1.0, 0.0 == -0.0),
    and points must be pairwise distinct. ``InputError`` rejects ragged,
    string, complex or other non-numeric supports, empty tuples, non-finite
    points and, off an index space, integers of magnitude >= 2**53 (the line
    is float64: they would merge or round). ``support`` is a tuple view of
    ``points`` in Python numbers, built on first read; no route reads it.

    Weights must be finite. Weights summing to 1 within ``WEIGHT_SLACK``
    are renormalized; worse deviations are rejected as genuine bugs.
    Weights already within ``len(weights)`` machine epsilons of 1 are kept
    as given, so a measure rebuilt from its own weights is bit-identical.
    """

    points: np.ndarray
    weights: np.ndarray
    space: object = None

    def __init__(self, support, weights, space=None):
        self.__post_init__(support, weights, space)

    def __post_init__(self, support, weights, space):
        points = _points(support, space)
        w = np.array(weights, dtype=float)
        if len(points) > MAX_SUPPORT:
            raise InputError(f"support exceeds the {MAX_SUPPORT}-point cap")
        if w.shape != (len(points),):
            raise InputError("weights must match the support length")
        _check(weights=w)
        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_SLACK:
            raise InputError(f"weights sum to {total!r}, not 1")
        rows = points.reshape(len(points), -1)
        rows = rows[np.lexsort(rows.T[::-1])]
        if np.any(np.all(rows[1:] == rows[:-1], axis=1)):
            raise InputError("support points must be pairwise distinct")
        if abs(total - 1.0) > len(w) * np.finfo(float).eps:
            w = w / total
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "space", space)

    @functools.cached_property
    def support(self) -> tuple:
        return _tuples(self.points.tolist())

    def __len__(self) -> int:
        return len(self.points)

    def resolved_space(self):
        if self.space is not None:
            return self.space
        return ProductSpace(REAL_LINE, self.points.shape[1], 1.0) if self.points.ndim > 1 else REAL_LINE

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.weights.tolist()))

    def total_variation(self, other: "DiscreteMeasure") -> float:
        """Half the fsum of |self(x) - other(x)| over the union of supports."""
        match = _matches(self.points, other.points)
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
    """Empirical distribution of a sample list: its support in first-seen
    order, each weight count / total in one correctly rounded division."""
    if len(samples) == 0:
        raise InputError("empty sample list")
    points = _points(samples, space)
    _, first, counts = np.unique(points, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    return DiscreteMeasure(points[first[order]], counts[order] / len(points), space=space)


def moment_order_s(mu: DiscreteMeasure, x0, s: float) -> float:
    """s-th moment of the distance to ``x0``: sum_i w_i d(x0, y_i)**s."""
    d = mu.resolved_space().pairwise([x0], mu.points)[0]
    return float(np.dot(mu.weights, d**s))
