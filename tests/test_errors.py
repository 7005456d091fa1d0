"""Every entry point rejects NaN, +inf and -inf in each numeric parameter,
and a non-integer horizon or path count, with InputError."""
import math

import numpy as np
import pytest

from concentra import (
    REAL_LINE,
    ARMAModel,
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianKernelModel,
    GaussianMeasure,
    InputError,
    ProductSpace,
    TabularModel,
    check_bg_duality,
    check_gc,
    check_lsi_grid,
    check_transport,
    gaussian_chain_joint,
    kernel_lipschitz,
    recursive_coupling_bound,
    simulate_joint,
    tabular_joint_law,
    wasserstein_1d,
    wasserstein_exact,
)
from concentra.errors import _check

MU = DiscreteMeasure((0.0, 1.0, 3.0), [0.2, 0.5, 0.3])
NU = DiscreteMeasure((0.5, 2.0), [0.6, 0.4])
TAB = TabularModel([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]])
GK = GaussianKernelModel(0.5, 1.0)
GRID = np.linspace(-3.0, 3.0, 61)

# entry point -> (call taking the parameters by name, their valid values);
# an array parameter is made bad in its last entry
ENTRY_POINTS = {
    "check_gc": (lambda kappa, t_grid: check_gc(MU, kappa, t_grid=t_grid, family_size=4),
                 {"kappa": 1.0, "t_grid": np.array([0.5, 1.0])}),
    "check_transport": (lambda alpha, s: check_transport(MU, alpha, s), {"alpha": 1.0, "s": 1.5}),
    "check_lsi_grid": (lambda grid, density, alpha: check_lsi_grid(grid, density, alpha),
                       {"grid": GRID, "density": np.exp(-GRID**2 / 2.0), "alpha": 1.0}),
    "check_bg_duality": (lambda kappa: check_bg_duality(MU, kappa), {"kappa": 1.0}),
    "recursive_coupling_bound": (lambda n, s: recursive_coupling_bound(TAB, TAB, n, s), {"n": 2, "s": 1.0}),
    "wasserstein_exact": (lambda s: wasserstein_exact(MU, NU, s), {"s": 2.0}),
    "wasserstein_1d": (lambda s: wasserstein_1d(MU, NU, s), {"s": 2.0}),
    "GaussianKernelModel": (GaussianKernelModel, {"theta": 0.5, "sigma2": 1.0, "init_mean": 0.0, "init_var": 2.0}),
    "ARMAModel": (ARMAModel, {"A": np.array([[0.5, 0.1], [0.0, 0.4]]), "B": np.eye(2)}),
    "simulate_joint": (lambda n, N: simulate_joint(TAB, n, N), {"n": 3, "N": 2}),
    "kernel_lipschitz": (lambda s: kernel_lipschitz(TAB, s), {"s": 1.5}),
    "gaussian_chain_joint": (lambda n: gaussian_chain_joint(GK, n), {"n": 3}),
    "tabular_joint_law": (lambda n, s: tabular_joint_law(TAB, n, s), {"n": 2, "s": 1.0}),
    "TabularModel": (TabularModel, {"init": np.array([0.5, 0.5]), "transition": np.array([[0.9, 0.1], [0.2, 0.8]])}),
    "ProductSpace": (lambda factors, order: ProductSpace(REAL_LINE, factors, order), {"factors": 2, "order": 1.0}),
    "GaussianMeasure": (GaussianMeasure, {"mean": np.array([0.0, 1.0]), "cov": np.eye(2)}),
    "DiscreteMeasure": (lambda weights: DiscreteMeasure((0.0, 1.0), weights), {"weights": np.array([0.5, 0.5])}),
    "FiniteMetricSpace": (lambda dist: FiniteMetricSpace((0, 1), dist), {"dist": 1.0 - np.eye(2)}),
}
COUNTS = {"n", "N", "factors"}
# a tabular chain's error names the vector that holds the bad entry
NAMED = {"init": "initial vector", "transition": "row 1 vector"}


def _call(entry, **bad):
    fn, kwargs = ENTRY_POINTS[entry]
    kwargs = dict(kwargs)
    for name, v in bad.items():
        if isinstance(kwargs[name], np.ndarray):
            kwargs[name] = kwargs[name].copy()
            kwargs[name].flat[-1] = v
        else:
            kwargs[name] = v
    return fn(**kwargs)


@pytest.mark.parametrize("entry, name", [
    pytest.param(entry, name, id=f"{entry}-{name}")
    for entry, (_, valid) in ENTRY_POINTS.items() for name in valid
])
def test_every_entry_point_rejects_nonfinite_and_fractional_inputs(entry, name):
    _call(entry)  # the valid values are accepted
    bad = [math.nan, math.inf, -math.inf] + ([2.5, True] if name in COUNTS else [])
    for v in bad:
        with pytest.raises(InputError, match=NAMED.get(name, name)):
            _call(entry, **{name: v})


def test_array_messages_name_the_first_bad_entry_and_not_the_array():
    with pytest.raises(InputError, match=r"^cov must be finite, got nan at cov\[1, 0\]$"):
        GaussianMeasure([0.0, 0.0], [[1.0, 0.0], [math.nan, math.nan]])


def test_tabular_rows_are_checked_together_and_the_first_bad_row_is_named():
    with pytest.raises(InputError, match="^row 1 vector is not a probability vector$"):
        TabularModel([0.5, 0.5], [[0.5, 0.5], [math.nan, 1.0]])
    with pytest.raises(InputError, match="^initial vector"):
        TabularModel([0.5, 0.6], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InputError, match="^row 0 vector"):
        TabularModel([0.5, 0.5], [[math.inf, 0.5], [math.nan, 0.5]])


def test_seed_is_an_integer_below_two_to_the_128():
    """The range NumPy's seed sequences accept: a Python or NumPy integer in
    [0, 2**128); a bool, a float, a negative or a wider integer fails."""
    for ok in (0, 7, np.uint64(2**64 - 1), 2**128 - 1):
        _check(seed=ok)
    for bad in (-1, 2**128, True, 3.0, math.nan, None):
        with pytest.raises(InputError, match=r"^seed must be an integer in \[0, 2\*\*128\), got "):
            _check(seed=bad)
