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
)
from concentra.coupling import _LabelLine
from concentra.measures import _distinct, _point_key, moment_order_s, product_distance


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
