import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concentra import (
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianMeasure,
    InputError,
    ProductSpace,
    REAL_LINE,
    TabularModel,
    chain_rule_decompose,
    check_gc,
    check_transport,
    cli,
    empirical_measure,
    recursive_coupling_bound,
    tabular_joint_law,
    transport_inequality_audit,
    wasserstein_exact,
)
from concentra.coupling import _LabelLine
from concentra import relative_entropy_discrete
from concentra.measures import _matches, moment_order_s, product_distance
from oracles import distinct_by_keys, empirical_by_counter, kl_by_keys, matches_by_keys, tv_by_keys


def test_real_line_distance():
    assert REAL_LINE.distance(1.0, -2.0) == 3.0
    assert REAL_LINE.distance(5, 5) == 0.0


def test_finite_space_validation():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    sp = FiniteMetricSpace(("a", "b"), d)
    assert sp.n_points == 2
    assert sp.distance(0, 1) == 1.0
    assert sp.index("b") == 1
    with pytest.raises(InputError):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InputError):
        FiniteMetricSpace(("a", "b"), np.array([[0.1, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError):
        # 3 = d(0,2) > d(0,1) + d(1,2) = 2
        FiniteMetricSpace(
            ("a", "b", "c"),
            np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]),
        )


@pytest.mark.parametrize("bad", [-1, 5, "a", 1.0, 2.5])
def test_finite_space_support_points_are_point_indices(bad):
    """On a finite space a support point is an integer in [0, n_points),
    and on a product of one each coordinate: -1 used to wrap around to the
    last point, 5 to fail at the first distance, and labels to fail in int()."""
    sp = FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]])
    with pytest.raises(InputError, match=rf"support point {re.escape(repr(bad))} is not a point index .* \[0, 2\)"):
        DiscreteMeasure((0, bad), [0.5, 0.5], space=sp)
    with pytest.raises(InputError, match=rf"support point \(1, {re.escape(repr(bad))}\) has a coordinate that"):
        DiscreteMeasure(((0, 1), (1, bad)), [0.5, 0.5], space=ProductSpace(sp, 2, 1.0))
    assert DiscreteMeasure((1, np.int64(0)), [0.5, 0.5], space=sp).support == (1, 0)
    assert len(DiscreteMeasure(((0, 1), (1, 1)), [0.5, 0.5], space=ProductSpace(sp, 2, 1.0))) == 2


@pytest.mark.parametrize("space", [FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]]), _LabelLine((0.0, 3.0))],
                         ids=["finite", "labels"])
def test_a_negative_index_no_longer_reads_the_last_point(space):
    """W1 between (0, -1) and (0, 1) was 0.0: -1 read the last point."""
    with pytest.raises(InputError, match="support point -1 is not a point index .* \\[0, 2\\)"):
        wasserstein_exact(DiscreteMeasure((0, -1), [0.5, 0.5], space=space),
                          DiscreteMeasure((0, 1), [0.5, 0.5], space=space), 1.0)


def test_product_distance_matches_manual():
    x, y = (0.0, 1.0, 3.0), (1.0, 1.0, 1.0)
    assert product_distance(x, y, 1.0) == pytest.approx(3.0, abs=1e-12)
    assert product_distance(x, y, 2.0) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    sp = ProductSpace(REAL_LINE, 3, 2.0)
    assert sp.distance(x, y) == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_discrete_measure_renormalizes_tiny_slack():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5 + 1e-10]))
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InputError):
        DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.6]))
    with pytest.raises(InputError):
        DiscreteMeasure((0.0, 0.0), np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        DiscreteMeasure((0.0, 1.0), np.array([-0.1, 1.1]))


def test_discrete_measure_is_immutable():
    mu = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        mu.weights[0] = 0.9


def test_gaussian_measure_validation():
    g = GaussianMeasure([0.0], [[2.0]])
    assert g.dim == 1
    with pytest.raises(InputError):
        GaussianMeasure([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(InputError):
        GaussianMeasure([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
    # the PSD tolerance scales with the largest eigenvalue, not below 1e-12
    with pytest.raises(InputError):
        GaussianMeasure([0.0, 0.0], [[1e20, 0.0], [0.0, -1e10]])
    with pytest.raises(InputError):
        GaussianMeasure([0.0], [[-1e-11]])


def test_empirical_measure_exact_weights():
    mu = empirical_measure([1.0, 1.0, 2.0, 1.0])
    d = mu.as_dict()
    assert d[1.0] == 0.75 and d[2.0] == 0.25
    assert mu.weights.sum() == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
def test_empirical_weights_always_sum_to_one(samples):
    mu = empirical_measure([float(v) for v in samples])
    # counts are exact fractions; only the final float conversion can move
    # the sum, by at most one ulp per atom
    assert abs(float(mu.weights.sum()) - 1.0) <= len(mu) * 2.3e-16


def test_total_variation_and_moment():
    a = DiscreteMeasure((0.0, 1.0), np.array([0.75, 0.25]))
    b = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    assert a.total_variation(b) == pytest.approx(0.25, abs=1e-12)
    assert moment_order_s(a, 0.0, 2.0) == pytest.approx(0.25, abs=1e-12)


def test_empirical_tv_converges():
    rng = np.random.default_rng(3)
    probs = np.array([0.2, 0.3, 0.5])
    draws = rng.choice(3, size=1_000_000, p=probs)
    mu = empirical_measure([float(v) for v in draws])
    target = DiscreteMeasure((0.0, 1.0, 2.0), probs)
    assert mu.total_variation(target) < 0.02


def _metric(rng, n):
    """Euclidean distances between random points of the plane."""
    pts = rng.normal(size=(n, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return (d + d.T) / 2.0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["real", "finite", "label", "product-real", "product-finite"]),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=0, max_value=10_000),
)
def test_pairwise_matches_scalar_distance(kind, order, seed):
    rng = np.random.default_rng(seed)
    n, m, k = (int(v) for v in rng.integers(1, 8, size=3))
    finite = FiniteMetricSpace(tuple(range(6)), _metric(rng, 6))
    if kind == "real":
        space, xs, ys = REAL_LINE, list(rng.normal(size=n)), list(rng.normal(size=m))
    elif kind in ("finite", "label"):
        space = finite if kind == "finite" else _LabelLine(rng.normal(size=6))
        xs, ys = list(rng.integers(0, 6, size=n)), list(rng.integers(0, 6, size=m))
    elif kind == "product-real":
        space = ProductSpace(REAL_LINE, k, order)
        xs = [tuple(p) for p in rng.normal(size=(n, k))]
        ys = [tuple(p) for p in rng.normal(size=(m, k))]
    else:
        space = ProductSpace(finite, k, order)
        xs = [tuple(int(v) for v in p) for p in rng.integers(0, 6, size=(n, k))]
        ys = [tuple(int(v) for v in p) for p in rng.integers(0, 6, size=(m, k))]
    scalar = np.array([[space.distance(x, y) for y in ys] for x in xs])
    np.testing.assert_allclose(space.pairwise(xs, ys), scalar, rtol=1e-12, atol=1e-15)


def test_product_pairwise_rejects_length_mismatch():
    sp = ProductSpace(REAL_LINE, 2, 1.0)
    with pytest.raises(InputError):
        sp.pairwise([(0.0, 1.0)], [(0.0, 1.0, 2.0)])
    with pytest.raises(InputError):
        sp.pairwise([(0.0, 1.0), (0.0,)], [(0.0, 1.0)])


def test_non_finite_inputs_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError):
            DiscreteMeasure((0.0, 1.0), np.array([bad, 1.0]))
        d = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(InputError):
            FiniteMetricSpace(("a", "b"), d)
    with pytest.raises(InputError):
        FiniteMetricSpace(("a", "b", "c"), np.array([[0, 1, 1], [1, 0, np.nan], [1, np.nan, 0]], float))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10_000))
def test_rebuilt_measure_is_bit_identical(n, seed):
    rng = np.random.default_rng(seed)
    support = tuple(range(n))
    mu = DiscreteMeasure(support, rng.dirichlet(np.ones(n)) * (1.0 + rng.uniform(-1e-10, 1e-10)))
    again = DiscreteMeasure(support, mu.weights)
    assert np.array_equal(again.weights, mu.weights)
    assert np.array_equal(DiscreteMeasure(support, list(map(float, mu.weights))).weights, mu.weights)


@pytest.mark.parametrize("support, distinct", [
    ((1, 1.0), False),
    ((0.0, -0.0), False),
    ((True, 1), False),
    ((np.float64(2.0), 2), False),
    ((2**53 - 1, 2**53 - 2), True),  # ints just below 2**53
    ((2**53 - 1, float(2**53)), True),
    ((-(2**53) + 1, 2**53 - 1), True),
    ((1e300, -1e300), True),
    ((0.5, np.float32(0.5)), False),
    (((1.0, 0.5), (1, 0.5)), False),
    (((1, 2), (1, 2.0)), False),
    (((0.0, 1), (-0.0, 1)), False),
    (((1, 2), (2, 1)), True),
    ((np.array([1.0, 2.0]), (1.0, 2.0)), False),
    (((1, 2), (3, 4)), True),
    ((((0, 1), (2, 3)), ((0, 1), (2, 4))), True),  # vector steps
    ((np.int32(1), np.int64(2)), True),
    ((np.int32(1), 1.0), False),
    ((np.uint64(7), 7.5), True),
    (((0.0,), (-0.0,)), False),
    ((((1, 2), (3, 4)), ((1, 2), (3, 4))), False),
    ((np.array([3, 4]), [3.0, 4.0]), False),
])
def test_support_distinctness_follows_point_key_equality(support, distinct):
    """Points are distinct unless their stored values are equal as dict
    keys (so 1 == 1.0 and 0.0 == -0.0): the one-sort check at
    construction agrees with the key set."""
    assert distinct_by_keys(np.asarray(support)) == distinct
    weights = np.full(len(support), 1.0 / len(support))
    if distinct:
        assert len(DiscreteMeasure(support, weights)) == len(support)
    else:
        with pytest.raises(InputError, match="pairwise distinct"):
            DiscreteMeasure(support, weights)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_sorted_distinctness_matches_the_keys(n, width, seed):
    """Random integer and float supports on a coarse grid, so repeats are
    common, and zeros of either sign: the one-sort check agrees with the
    key set."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-3, 4, size=(n, width))
    signed = np.copysign(grid * 0.5, rng.choice([-1.0, 1.0], size=grid.shape))
    for points in (grid, signed, grid[:, 0], signed[:, 0]):
        support = tuple(map(tuple, points.tolist())) if points.ndim == 2 else tuple(points.tolist())
        try:
            built = len(DiscreteMeasure(support, np.full(n, 1.0 / n))) == n
        except InputError as exc:
            assert "pairwise distinct" in str(exc)
            built = False
        assert built == distinct_by_keys(points)


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize("support", [
    (_NAN, 1.0),
    (_INF, 1.0),
    (-_INF, 1.0),
    (0, np.float64("nan")),
    (np.float32("inf"), 2.0),
    ((0.0, _NAN), (1.0, 2.0)),
    ((1, _INF), (1, 2)),
    ((-_INF, 0.0),),
    ((1.0, 3.0), (-_INF, 2.0)),
    (np.array([0.0, _NAN]), (1.0, 1.0)),
    ((0, 1), (2, _NAN)),
])
def test_non_finite_support_points_rejected(support):
    """A NaN or infinite coordinate is an InputError at construction, not a
    NaN distance or an OverflowError downstream."""
    with pytest.raises(InputError, match="support points must be finite"):
        DiscreteMeasure(support, np.full(len(support), 1.0 / len(support)))


def test_large_ints_and_non_numeric_points_are_finite():
    """Ints below 2**53 in magnitude and huge floats are finite points;
    labels and complex numbers are no points at all, not non-finite ones."""
    for support in ((2**53 - 1, -(2**53) + 1), ((2**52, 0.5), (1, 0.5)), (1e300, -1e300)):
        assert len(DiscreteMeasure(support, [0.5, 0.5])) == 2
    for support in ((("a", 1), ("b", 2)), (1j, 2j)):
        with pytest.raises(InputError, match="must be real numbers"):
            DiscreteMeasure(support, [0.5, 0.5])


@pytest.mark.parametrize("support, why", [
    (("a", "b"), "must be real numbers"),
    ((1j, 2j), "must be real numbers"),
    ((1.0, 2 + 0j), "must be real numbers"),
    (((1, 2), (3,)), "must be real numbers"),  # ragged
    ((1, (2, 3)), "must be real numbers"),
    ((2**70, 1), "must be real numbers"),  # beyond int64
    (((2**80, 0.5), (1, 0.5)), "must be real numbers"),
    ((None, 1.0), "must be real numbers"),
    ((True, False), "must be real numbers"),
    (((), ()), "nonempty"),
    ((), "nonempty"),
    ((2**53, 2**53 + 1), "below 2\\*\\*53"),  # float64 would merge them
    ((2**63, 1), "below 2\\*\\*53"),  # converts to float64
    ((np.uint64(2**63 + 1), 3), "below 2\\*\\*53"),
    ((-(2**53), 0), "below 2\\*\\*53"),
    (((2**53, 0.5), (1, 0.5)), "below 2\\*\\*53"),  # an int among floats
])
def test_inputs_that_no_route_computes_on_raise_at_construction(support, why):
    """Such a support used to build a measure, and W_s then died in a raw
    ValueError or TypeError, or KL and W_1 disagreed on (2**53, 2**53 + 1):
    two points for KL, one for the float64 distances."""
    weights = np.full(max(len(support), 1), 1.0 / max(len(support), 1))
    with pytest.raises(InputError, match=why):
        mu = DiscreteMeasure(support, weights)
        wasserstein_exact(mu, mu, 1.0)


def test_index_points_are_intp_and_others_int64_or_float64():
    sp = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert DiscreteMeasure((np.int32(2), 0), [0.5, 0.5], space=sp).points.dtype == np.intp
    assert DiscreteMeasure(((0, 2), (1, 1)), [0.5, 0.5], space=ProductSpace(sp, 2)).points.dtype == np.intp
    assert DiscreteMeasure((np.int32(2), 0), [0.5, 0.5]).points.dtype == np.int64
    mixed = DiscreteMeasure((0, 0.5), [0.5, 0.5])
    assert mixed.points.dtype == np.float64 and mixed.support == (0.0, 0.5)
    assert [type(v) for v in mixed.support] == [float, float]
    mu = DiscreteMeasure([[0, 1], [1, 2]], [0.5, 0.5])
    assert mu.points.shape == (2, 2) and mu.support == ((0, 1), (1, 2))
    assert not mu.points.flags.writeable
    # array fields make no ambiguous comparison: a measure equals only itself
    assert mu == mu and mu != DiscreteMeasure([[0, 1], [1, 2]], [0.5, 0.5])
    # the measure keeps its own copy of an array support
    x = np.array([0.0, 1.0])
    nu = DiscreteMeasure(x, [0.5, 0.5])
    x[0] = 5.0
    assert nu.points.tolist() == [0.0, 1.0]
    # the 2**53 rule binds off index spaces only: there the index range does
    with pytest.raises(InputError, match=r"support point 9007199254740992 is not a point index"):
        DiscreteMeasure((0, 2**53), [0.5, 0.5], space=sp)


@pytest.mark.parametrize("support, other", [
    ((1, 2, 3), (3.0, 1.0)),
    ((0.0, 1.5), (-0.0, 2.5)),
    ((2**53 - 1, 5), (float(2**53), 5)),  # exact in float64, so no merge
    ((2**53 - 1, 7), (float(2**53 - 1), 7.0)),
    ((-(2**53) + 1,), (float(-(2**53)),)),
    (((2**53 - 1, 0.5), (1, 2.0)), ((float(2**53), 0.5), (1.0, 2))),
    ((np.uint64(5), 3), (np.int64(3), np.int64(-1))),
    ((np.float32(0.5), 1), (0.5, 1)),
    (((1, 2), (3, 4)), ((3, 4), (1, 2), (5, 6))),
    (((1.0,), (2.0,)), (1.0, 2.0)),  # a 1-tuple is not its coordinate
    (((1, 2), (3, 4)), ((1, 2, 3),)),
    (((1, 2), (3, 4)), ((3.0, 4.0), (1, 2.5))),
    ((-0.0, 3), (0.0, -3)),
    ((1e300, -1e300), (-1e300, 0.0)),
    ((np.array([1.0, 2.0]), (3.0, 4.0)), ((3, 4), (1, 2))),
])
def test_matches_follow_point_key_equality(support, other):
    """The one-sort alignment of two measures' points is the dict lookup
    keyed on their stored values."""
    mu, nu = (DiscreteMeasure(p, np.full(len(p), 1.0 / len(p))) for p in (support, other))
    assert _matches(mu.points, nu.points).tolist() == matches_by_keys(mu.points, nu.points)


@pytest.mark.parametrize("queries, other", [
    ([[0, 1], [2, 2], [0, 1], [1, 0], [2, 2], [0, 1]], [[2, 2], [0, 1], [1, 1]]),
    ([3, 1.0, 3.0, 2, 1, 1.5, -0.0], [1.0, 0, 3]),
    ([[1.0, 2.0], [1, 2], [3, 4]], [[1, 2]]),
    ([[1, 2], [1, 2]], [[1, 2, 3]]),  # another shape never matches
    ([5, 5, 5], [4]),
])
def test_matches_with_repeated_queries_follow_point_key_equality(queries, other):
    """Queries may repeat (the path rows of a coupling, looked up in a
    joint law's points): each takes the equal point of ``other``."""
    points = np.array(queries)
    table = DiscreteMeasure(other, np.full(len(other), 1.0 / len(other))).points
    assert _matches(points, table).tolist() == matches_by_keys(points, table)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
       st.sampled_from(["int", "float", "mixed", "pairs", "big"]), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=10_000))
def test_aligned_kl_and_tv_are_the_key_loops_bit_for_bit(n, m, kind, zeros, seed):
    """Supports drawn from one small pool, so they share atoms: the sorted
    alignment gives the matches, KL and TV of the key dicts, bit for bit."""
    rng = np.random.default_rng(seed)
    if kind == "pairs":
        pool = [(int(i), float(j) / 2) for i, j in rng.integers(-4, 4, size=(40, 2))]
    elif kind == "big":  # ints just below 2**53 beside their float neighbours
        pool = [2**53 - 1 - k for k in range(12)] + [float(2**53 - 2 * k) for k in range(12)]
    else:
        pool = rng.integers(-20, 20, size=40).tolist()
        if kind != "int":
            pool = [float(v) / 2 if kind == "float" or i % 2 else v for i, v in enumerate(pool)]
    pool = list(dict.fromkeys(pool))

    def measure(k):
        support = [pool[i] for i in rng.choice(len(pool), min(k, len(pool)), replace=False)]
        w = rng.dirichlet(np.ones(len(support)))
        w[rng.choice(len(w), min(zeros, len(w) - 1), replace=False)] = 0.0
        return DiscreteMeasure(tuple(support), w / w.sum())

    nu, mu = measure(n), measure(m)
    assert _matches(nu.points, mu.points).tolist() == matches_by_keys(nu.points, mu.points)
    for a, b in ((nu, mu), (mu, nu), (nu, nu)):
        kl = relative_entropy_discrete(a, b)
        assert kl == kl_by_keys(a, b) or (math.isinf(kl) and math.isinf(kl_by_keys(a, b)))
        assert a.total_variation(b) == tv_by_keys(a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["real", "int", "signed", "pairs", "rows"]), st.integers(min_value=1, max_value=400),
       st.integers(min_value=0, max_value=10_000))
def test_empirical_measure_is_the_counter_loop(kind, size, seed):
    """``np.unique`` counts in first-seen order give the support and the
    weights float(Fraction(count, total)) of a Counter over the samples."""
    rng = np.random.default_rng(seed)
    if kind == "real":
        samples = (rng.integers(-5, 5, size) * 0.25).tolist()
    elif kind == "int":
        samples = rng.integers(-5, 5, size).tolist()
    elif kind == "signed":
        samples = np.copysign(rng.integers(0, 3, size) * 0.5, rng.choice([-1.0, 1.0], size)).tolist()
    elif kind == "pairs":
        samples = [tuple(p) for p in rng.integers(0, 3, (size, 2)).tolist()]
    else:
        samples = list(rng.integers(-2, 2, (size, 3)) * 0.5)
    mu = empirical_measure(samples)
    support, weights = empirical_by_counter(samples)
    assert mu.support == tuple(support)
    assert [math.copysign(1.0, v) for v in np.ravel(mu.points)] == \
        [math.copysign(1.0, v) for v in np.ravel(support)]
    assert mu.weights.tolist() == weights


def _hot_path_cases(tmp_path):
    """(name, fresh measures, call) for each route that must never build
    the tuple view."""
    rng = np.random.default_rng(5)
    line = [DiscreteMeasure(rng.normal(size=6), rng.dirichlet(np.ones(6))) for _ in range(2)]
    plane = [DiscreteMeasure(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5))) for _ in range(2)]
    space = FiniteMetricSpace(tuple(range(4)), _metric(rng, 4))
    finite = [DiscreteMeasure((0, 1, 2, 3), rng.dirichlet(np.ones(4)), space=space) for _ in range(2)]
    p = TabularModel(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]]), labels=(0.0, 1.0))
    q = TabularModel(np.array([0.4, 0.6]), np.array([[0.7, 0.3], [0.4, 0.6]]), labels=(0.0, 1.0))
    joint = [tabular_joint_law(m, 3) for m in (q, p)]
    q_file, p_file = tmp_path / "q.json", tmp_path / "p.json"
    q_file.write_text(json.dumps({"type": "discrete", "support": joint[0].points.tolist(),
                                  "weights": joint[0].weights.tolist()}))
    p_file.write_text(json.dumps({"kind": "tabular", "init": p.init.tolist(), "transition": p.transition.tolist()}))
    return [
        ("wasserstein line", line, lambda: wasserstein_exact(*line, 2.0)),
        ("wasserstein plane", plane, lambda: wasserstein_exact(*plane, 1.0)),
        ("wasserstein finite", finite, lambda: wasserstein_exact(*finite, 1.5)),
        ("kl and tv", line, lambda: (relative_entropy_discrete(*line), line[0].total_variation(line[1]))),
        ("chain rule", joint, lambda: chain_rule_decompose(joint[0], p)),
        ("check_gc", line + finite, lambda: (check_gc(line[0], 1.0), check_gc(finite[0], 1.0))),
        ("check_transport", line + finite,
         lambda: (check_transport(line[0], 1.0, 2.0), check_transport(finite[0], 1.0, 1.0, [finite[1]]))),
        ("coupling", [], lambda: (recursive_coupling_bound(p, q, 3, 1.0),
                                  transport_inequality_audit(p, 1.0, 1.0, 0.9, 3, [q]))),
        ("entropy cli", [], lambda: cli.main(["entropy", "--q", str(q_file), "--model", str(p_file),
                                              "--out", str(tmp_path / "out.json")])),
    ]


def test_hot_paths_never_build_the_tuple_view(tmp_path, monkeypatch):
    """Every route reads ``points``: the cached ``support`` of the inputs
    stays absent, and no measure built on the way reads its view."""
    reads = []
    view = DiscreteMeasure.__dict__["support"].func
    for name, measures, call in _hot_path_cases(tmp_path):
        with monkeypatch.context() as patch:
            patch.setattr(DiscreteMeasure, "support", property(lambda self: reads.append(name) or view(self)))
            call()
        assert not reads, name
        assert all("support" not in mu.__dict__ for mu in measures), name
    mu = DiscreteMeasure(((0, 1), (1, 1)), [0.5, 0.5])
    assert mu.support == ((0, 1), (1, 1)) and mu.__dict__["support"] is mu.support
