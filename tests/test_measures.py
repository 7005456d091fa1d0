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
    empirical_measure,
    wasserstein_exact,
)
from concentra.coupling import _LabelLine
from concentra import relative_entropy_discrete
from concentra.measures import _distinct, _matches, _point_key, moment_order_s, product_distance


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


def _distinct_by_keys(support):
    keys = [_point_key(p) for p in support]
    return len(set(keys)) == len(keys)


_NAN = float("nan")


@pytest.mark.parametrize("support, distinct", [
    ((1, 1.0), False),
    ((0.0, -0.0), False),
    ((True, 1), False),
    ((np.float64(2.0), 2), False),
    ((2**53, 2**53 + 1), True),  # distinct ints that float conversion merges
    ((2**53 + 1, float(2**53)), True),
    ((2**70, 2**70 + 1), True),
    ((float("nan"), float("nan")), True),  # two NaN objects are two keys
    ((_NAN, _NAN), False),  # one NaN object twice is one key
    (((1.0, _NAN), (1.0, _NAN)), False),
    (((1, 2), (1, 2.0)), False),
    (((0.0, 1), (-0.0, 1)), False),
    (((1, 2), (2, 1)), True),
    ((np.array([1.0, 2.0]), (1.0, 2.0)), False),
    (((1, 2), (3,)), True),  # ragged
    ((1, (2, 3)), True),
    (("a", "b"), True),
    (("a", "a"), False),
    ((1j, 2j), True),
    (((), ()), False),
    ((((1, 2), (3, 4)), ((1, 2), (3, 4))), False),
    ((np.inf, np.inf), False),
])
def test_support_distinctness_follows_point_key_equality(support, distinct):
    assert _distinct(support) == _distinct_by_keys(support) == distinct
    if not distinct:
        with pytest.raises(InputError, match="pairwise distinct"):
            DiscreteMeasure(support, np.full(len(support), 1.0 / len(support)))


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
        assert _distinct(support) == _distinct_by_keys(support)


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
    ((1.0,), (-_INF, 2.0)),  # ragged
    (np.array([0.0, _NAN]), (1.0, 1.0)),
    ("a", _INF),
])
def test_non_finite_support_points_rejected(support):
    """A NaN or infinite coordinate is an InputError at construction, not a
    NaN distance or an OverflowError downstream."""
    with pytest.raises(InputError, match="support points must be finite"):
        DiscreteMeasure(support, np.full(len(support), 1.0 / len(support)))


def test_large_ints_and_non_numeric_points_are_finite():
    for support in ((2**70, 2**70 + 1), (("a", 1), ("b", 2)), (1j, 2j), ((2**80, 0.5), (1, 0.5))):
        assert len(DiscreteMeasure(support, [0.5, 0.5])) == 2


def _matches_by_keys(support, other):
    index = {_point_key(q): j for j, q in enumerate(other)}
    return [index.get(_point_key(p), -1) for p in support]


@pytest.mark.parametrize("support, other", [
    ((1, 2, 3), (3.0, 1.0)),
    ((0.0, 1.5), (-0.0, 2.5)),
    ((2**53 + 1, 5), (float(2**53), 5)),  # float conversion would merge them
    ((2**53, 7), (2**53 + 1, 7.0)),
    ((-(2**53) - 1,), (float(-(2**53)),)),
    (((2**53 + 1, 0.5), (1, 2.0)), ((float(2**53), 0.5), (1.0, 2))),
    ((np.uint64(2**63 + 1), 3), (np.int64(3), np.int64(-1))),
    ((2**70, 1), (2**70, 1)),
    (((1, 2), (3, 4)), ((3, 4), (1, 2), (5, 6))),
    (((1.0,), (2.0,)), (1.0, 2.0)),  # a 1-tuple is not its coordinate
    (((1, 2), (3, 4)), ((1, 2, 3),)),
    (((1, 2), (3,)), ((3,), (1, 2))),  # ragged
    (("a", "b"), ("b", "c")),
    ((1e300, -1e300), (-1e300, 0.0)),
    ((np.array([1.0, 2.0]), (3.0, 4.0)), ((3, 4), (1, 2))),
])
def test_matches_follow_point_key_equality(support, other):
    assert _matches(support, other).tolist() == _matches_by_keys(support, other)


def _kl_by_keys(nu, mu):
    """The dict loop: one term per atom of nu with positive weight."""
    mu_w = mu.as_dict()
    terms = []
    for p, w in zip(nu.support, nu.weights):
        if w == 0.0:
            continue
        m = mu_w.get(_point_key(p), 0.0)
        if m == 0.0:
            return math.inf
        terms.append(w * math.log(w / m))
    return max(math.fsum(terms), 0.0)


def _tv_by_keys(a, b):
    a, b = a.as_dict(), b.as_dict()
    return 0.5 * math.fsum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


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
    elif kind == "big":  # ints beyond 2**53 beside their float neighbours
        pool = [2**53 + int(k) for k in range(-6, 6)] + [float(2**53 + 2 * k) for k in range(-6, 6)]
    else:
        pool = rng.integers(-20, 20, size=40).tolist()
        if kind != "int":
            pool = [float(v) / 2 if kind == "float" or i % 2 else v for i, v in enumerate(pool)]
    keys = {}
    for p in pool:
        keys.setdefault(_point_key(p), p)
    pool = list(keys.values())

    def measure(k):
        support = [pool[i] for i in rng.choice(len(pool), min(k, len(pool)), replace=False)]
        w = rng.dirichlet(np.ones(len(support)))
        w[rng.choice(len(w), min(zeros, len(w) - 1), replace=False)] = 0.0
        return DiscreteMeasure(tuple(support), w / w.sum())

    nu, mu = measure(n), measure(m)
    assert _matches(nu.support, mu.support).tolist() == _matches_by_keys(nu.support, mu.support)
    for a, b in ((nu, mu), (mu, nu), (nu, nu)):
        kl = relative_entropy_discrete(a, b)
        assert kl == _kl_by_keys(a, b) or (math.isinf(kl) and math.isinf(_kl_by_keys(a, b)))
        assert a.total_variation(b) == _tv_by_keys(a, b)
