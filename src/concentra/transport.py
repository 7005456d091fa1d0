"""Exact Wasserstein distances.

Four routes are provided: the transportation LP on finite supports
(exact shortlist column generation on one hot-started HiGHS model, called
directly through SciPy's bundled bindings: dual simplex after the
marginal bounds change, primal simplex after priced-in cells are added;
see ``solve_transport_lp``), the monotone (quantile) coupling on the real
line, the closed form for W2 between Gaussians, and the
Kantorovich-Rubinstein dual for W1. On the real line with s >= 1 the
cost |x - y|**s is convex in x - y, so the north-west-corner plan along
the sorted supports is an optimal coupling (Peyre & Cuturi, *Computational
Optimal Transport*, 2019, section 2.6); ``wasserstein_exact`` returns that
plan there and solves the LP elsewhere.

At s = 1 off the real line the cost is a metric d, and W1 depends only on
mu - nu (Kantorovich-Rubinstein; Villani, *Optimal Transport: Old and
New*, 2009, Thm 5.10). So before the LP, every zero-cost cell that is the
only zero in its row and in its column (under a metric, one point shared
by both supports) keeps min(a_i, b_j) in place, and the LP runs only on the
rows and columns that still carry mass. This is exact: if an optimal plan
left such a cell unsaturated, it would move mass i -> j' and i' -> j, and
moving some of it to i -> j and i' -> j' instead changes the cost by
d(i', j') - d(i, j') - d(i', j) <= 0 by the triangle inequality (which a
``FiniteMetricSpace`` satisfies to ``METRIC_ATOL``). Cells with tied
zeros (a pseudo-metric) are left to the LP. At s > 1 keeping shared mass
is not optimal: 1/2 delta_0 + 1/2 delta_1 against 1/2 delta_1 + 1/2 delta_2
costs 2 with the shared mass kept and 1 with it shifted, so those LPs run
on the full supports. The Kantorovich-Rubinstein potential is the
c-transform of that reduced LP's column potentials.

All routes are exact up to floating-point rounding and LP solver
tolerance; there is no entropic approximation. No route calls
``scipy.optimize.linprog``, and importing this module loads no SciPy
subpackage: the HiGHS bindings are loaded from their extension file (see
``_load_highs_core``), and the Gaussian square roots use NumPy's ``eigh``.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import InputError, SolverError, _check
from .measures import REAL_LINE, DiscreteMeasure, GaussianMeasure, ProductSpace, RealLine, _matches, _tuples

PLAN_ATOL = 1e-10
log = logging.getLogger(__name__)

_HIGHS_CORE = "scipy.optimize._highspy._core"  # private; shipped since SciPy 1.15


def _load_highs_core():
    """SciPy's HiGHS bindings, loaded from their extension file.

    ``from scipy.optimize._highspy import _core`` would first run the
    ``scipy.optimize`` package, which loads ``scipy.linalg``,
    ``scipy.special`` and more that no route here calls. The module is
    registered under its real name, so a later ``scipy.optimize`` import
    reuses it; an already imported one is reused here. If no file matches
    an extension suffix, it falls back to the plain import.
    """
    if _HIGHS_CORE in sys.modules:
        return sys.modules[_HIGHS_CORE]
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHS_CORE] = module
            spec.loader.exec_module(module)
            return module
    from scipy.optimize._highspy import _core

    return _core


_highs = _load_highs_core()


def __getattr__(name):
    # ``linprog`` is no route's solver; the bench tracer and its contract
    # test rebind ``transport.linprog``, so it is imported on first use and
    # then kept as a module global
    if name == "linprog":
        from scipy.optimize import linprog

        globals()["linprog"] = linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two discrete measures together with its cost.

    ``weights[i, j]`` is the mass moved from row support point i to column
    support point j; ``cost`` is sum_ij weights_ij d(x_i, y_j)**order.
    """

    row_measure: DiscreteMeasure
    col_measure: DiscreteMeasure
    weights: np.ndarray
    cost: float
    order: float

    def validate(self, cost_matrix: np.ndarray | None = None) -> None:
        w = self.weights
        if np.any(w < -PLAN_ATOL):
            raise InputError("plan weights must be nonnegative")
        if np.max(np.abs(w.sum(axis=1) - self.row_measure.weights)) > PLAN_ATOL:
            raise InputError("row marginals do not match")
        if np.max(np.abs(w.sum(axis=0) - self.col_measure.weights)) > PLAN_ATOL:
            raise InputError("column marginals do not match")
        if cost_matrix is not None:
            declared = math.fsum((w * cost_matrix).ravel())
            if abs(declared - self.cost) > PLAN_ATOL * max(1.0, abs(self.cost)):
                raise InputError("declared cost does not match the plan")


def _resolve_space(mu: DiscreteMeasure, nu: DiscreteMeasure, space):
    if space is not None:
        return space
    if mu.space is not None and nu.space is not None and mu.space != nu.space:
        raise InputError("measures live on different metric spaces")
    return mu.resolved_space() if mu.space is not None else nu.resolved_space()


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, s: float, space=None) -> np.ndarray:
    """d(x, y)**s between the support points. On a product space of order
    s that is sum_j d(x_j, y_j)**s, taken as it is, not as the s-th power
    of its s-th root."""
    space = _resolve_space(mu, nu, space)
    if isinstance(space, ProductSpace) and space.order == s:
        return space._power_sums(mu.points, nu.points)
    return space.pairwise(mu.points, nu.points) ** s


_SHORTLIST = 16
_COLGEN_THRESHOLD = 40_000  # read only by the bench tracer, to label large solves
# presolve falsely reports infeasibility on restricted column sets with very
# small marginal weights; the default 1e-7 feasibility tolerances leak visible
# cost error when weights span many orders of magnitude
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("presolve", "off"),
    ("primal_feasibility_tolerance", 1e-10),
    ("dual_feasibility_tolerance", 1e-10),
)
_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4  # HiGHS simplex_strategy values, set per round


def _northwest_corner(w_rows: np.ndarray, w_col: np.ndarray):
    """North-west-corner plans from each row of ``w_rows`` to ``w_col``,
    filling atoms in the given order.

    Returns ``(i, j, mass)``, each with one row per row of ``w_rows``:
    ``mass[r, k]`` moves from atom ``i[r, k]`` of row r to atom ``j[r, k]``
    of ``w_col``. The cumulative weights of both sides are merged by a
    stable sort, and each merged piece goes to the atoms whose cumulative
    weights first reach its right end. For a piece of positive mass those
    are the numbers of each side's breakpoints sorted before it, so
    zero-weight atoms receive nothing; pieces between tied breakpoints
    have zero mass.
    """
    nr, nc = w_rows.shape[1], w_col.size
    merged = np.empty((len(w_rows), nr + nc))
    np.cumsum(w_rows, axis=1, out=merged[:, :nr])
    merged[:, nr:] = np.cumsum(w_col)
    i = np.argsort(merged, axis=1, kind="stable")
    mass = np.diff(np.take_along_axis(merged, i, axis=1), axis=1, prepend=0.0)
    from_row = i < nr
    # the permutation's buffer becomes i, the row breakpoints sorted before
    # each piece: batched callers make one temporary fewer per block
    np.cumsum(from_row, axis=1, out=i)
    i -= from_row
    j = np.arange(nr + nc) - i
    # the two totals may differ in the last bits; the excess goes to the last atoms
    np.minimum(i, nr - 1, out=i)
    np.minimum(j, nc - 1, out=j)
    return i, j, mass


class _TransportModel:
    """The restricted transportation LP over one cost matrix, held as one
    HiGHS model and solved for one marginal pair after another.

    Its rows are the row-marginal constraints and every column-marginal
    constraint but the last, which the others imply; its columns are the
    active cells, in the order they were added. A new pair changes the row
    bounds and adds its north-west-corner cells, which keep the LP
    feasible, and the cells of its starting mask if one is given; a round
    adds the priced-in cells. So every ``run``
    hot-starts from the last optimal basis, which stays dual feasible when
    bounds change and primal feasible when cells are added: a pair's first
    run is dual simplex, and each later round primal simplex, which goes on
    from that primal feasible basis (Luebbecke & Desrosiers, Oper. Res.
    53(6), 2005). The active cells only grow, so the stopping certificate
    holds for every pair.
    After a solve, ``u`` and ``v`` hold the final round's row and column
    potentials: ``cost - u - v`` is at least -1e-11 on every cell, and 0
    up to the solver's tolerance on the cells the plan uses.
    """

    def __init__(self, cost: np.ndarray):
        self.cost = cost
        self.active = np.zeros(cost.shape, dtype=bool)
        self.cells = (np.zeros(0, dtype=np.intp),) * 2
        self.rhs = None
        self.highs = _highs._Highs()
        for name, value in _HIGHS_OPTIONS:
            self.highs.setOptionValue(name, value)

    def _add_cells(self, new: np.ndarray) -> None:
        """Append the cells of the boolean mask ``new`` as model columns."""
        i, j = np.nonzero(new)
        if not i.size:
            return
        self.active |= new
        self.cells = tuple(np.concatenate(pair) for pair in zip(self.cells, (i, j)))
        nr, nc = self.cost.shape
        # column (i, j) has a 1 in row i and, unless j is the dropped last column, in row nr + j
        keep = j < nc - 1
        starts = np.zeros(i.size, dtype=np.int32)
        np.cumsum(1 + keep[:-1], out=starts[1:])
        index = np.empty(i.size + np.count_nonzero(keep), dtype=np.int32)
        index[starts] = i
        index[starts[keep] + 1] = nr + j[keep]
        self.highs.addCols(i.size, self.cost[i, j], np.zeros(i.size), np.full(i.size, np.inf),
                           index.size, starts, index, np.ones(index.size))

    def solve(self, w_row: np.ndarray, w_col: np.ndarray, mask: np.ndarray | None = None):
        """``(fsum(plan * cost), plan)`` for one marginal pair; see
        ``solve_transport_lp``. A boolean ``mask`` of the cost's shape
        replaces the shortlists of a first solve: its first restricted LP
        then holds the north-west-corner plan and the masked cells, e.g.
        the support of a known feasible coupling near the optimum.
        Afterwards ``stats`` holds the solve's rounds, simplex iterations
        and final column count."""
        t0 = time.perf_counter()
        highs, cost = self.highs, self.cost
        nr, nc = cost.shape
        rhs = np.concatenate([w_row, w_col[:-1]])
        new = np.zeros((nr, nc), dtype=bool) if mask is None else mask.copy()
        i, j, _ = (a[0] for a in _northwest_corner(w_row[None, :], w_col))
        new[i, j] = True
        first = self.rhs is None
        if first:
            no_entries = np.zeros(rhs.size, dtype=np.int32)
            highs.addRows(rhs.size, rhs, rhs, 0, no_entries, no_entries[:0], np.zeros(0))
            if mask is None:
                for axis in (0, 1):
                    k = min(_SHORTLIST, cost.shape[axis])
                    cheapest = np.argpartition(cost, k - 1, axis=axis)
                    np.put_along_axis(new, cheapest[:k] if axis == 0 else cheapest[:, :k], True, axis=axis)
        else:
            for r in np.flatnonzero(rhs != self.rhs):
                highs.changeRowBounds(int(r), rhs[r], rhs[r])
        self.rhs = rhs
        new &= ~self.active
        rounds = iterations = 0
        while True:
            self._add_cells(new)
            highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX if rounds else _DUAL_SIMPLEX)
            highs.run()
            status = highs.getModelStatus()
            if status != _highs.HighsModelStatus.kOptimal:
                raise SolverError(f"transport LP failed: HiGHS model status {highs.modelStatusToString(status)}")
            rounds += 1
            # HiGHS counts the iterations of each run from zero
            iterations += highs.getInfo().simplex_iteration_count
            solution = highs.getSolution()
            duals = np.asarray(solution.row_dual)
            u, v = duals[:nr], np.append(duals[nr:], 0.0)
            new = (cost - u[:, None] - v[None, :] < -1e-11) & ~self.active
            if not new.any():
                break
        self.u, self.v = u, v
        x = np.maximum(np.asarray(solution.col_value), 0.0)
        ci, cj = self.cells
        plan = np.zeros((nr, nc))
        plan[ci, cj] = x
        self.stats = {"rounds": rounds, "iterations": iterations, "columns": ci.size}
        if log.isEnabledFor(logging.DEBUG):
            if mask is None:
                start = "shortlist" if first else "previous"
            else:
                start = f"coupling cells={np.count_nonzero(mask)}"
            log.debug("transport LP %dx%d: %d rounds, %d active cells, %d iterations, %.1f ms; start=%s",
                      nr, nc, rounds, ci.size, iterations, 1e3 * (time.perf_counter() - t0), start)
        return math.fsum(x * cost[ci, cj]), plan


def solve_transport_lp(cost: np.ndarray, w_row: np.ndarray, w_col: np.ndarray):
    """Minimum-cost transportation plan between two weight vectors, by
    exact shortlist column generation (Gottschlich & Schuhmacher, PLoS ONE
    9(10):e110214, 2014) on one HiGHS model.

    The first restricted LP holds the north-west-corner plan, which keeps
    it feasible, and each row's and each column's ``_SHORTLIST`` cheapest
    cells, so a side with no more atoms than that starts with every cell.
    Each round solves the active cells with HiGHS (called directly,
    presolve off, feasibility tolerances 1e-10) and adds every inactive
    cell whose reduced cost ``cost - u - v`` is below -1e-11; the first
    round runs the dual simplex, and each next round the primal simplex,
    hot-started from the last optimal basis. A round that adds
    none is the full LP's optimality certificate; the active set only
    grows, so the loop ends. Returns ``(fsum(plan * cost), plan)``. Raises
    ``SolverError`` naming the HiGHS model status when a round is not
    solved to optimality, e.g. for marginals of different totals.
    """
    return _TransportModel(cost).solve(w_row, w_col)


def _w1_transport(cost: np.ndarray, w_row: np.ndarray, w_col: np.ndarray, mask: np.ndarray | None = None):
    """The W1 transportation LP over a metric cost matrix, with the shared
    mass left in place (see the module docstring).

    Every zero cell that is the only zero in its row and in its column
    keeps min(w_row[i], w_col[j]); the LP runs on the rows and columns
    that still carry mass, and its plan is embedded beside the kept mass;
    a starting ``mask`` (see ``_TransportModel.solve``) is cut to those rows
    and columns. The kept cells cost 0, so the cost is the LP's. Returns
    ``(fsum(plan * cost), plan, model, cols)``: ``model`` is the solved
    ``_TransportModel`` of the reduced LP, whose column potentials belong
    to the columns ``cols``, or None when no mass is left to move.
    """
    zero = cost == 0.0
    ki, kj = np.nonzero(zero & (zero.sum(axis=1) == 1)[:, None] & (zero.sum(axis=0) == 1)[None, :])
    kept = np.minimum(w_row[ki], w_col[kj])
    a, b = w_row.copy(), w_col.copy()
    a[ki] -= kept
    b[kj] -= kept
    rows, cols = np.flatnonzero(a > 0.0), np.flatnonzero(b > 0.0)
    lp = rows.size > 0 and cols.size > 0
    if log.isEnabledFor(logging.DEBUG):
        log.debug("W1 reduction %dx%d: %d atoms kept in place, mass %.17g kept, reduced LP %dx%d",
                  *cost.shape, ki.size, math.fsum(kept), lp * rows.size, lp * cols.size)
    plan = np.zeros(cost.shape)
    plan[ki, kj] = kept
    raw, model = 0.0, None
    if lp:
        model = _TransportModel(cost[np.ix_(rows, cols)])
        raw, sub = model.solve(a[rows], b[cols], None if mask is None else mask[np.ix_(rows, cols)])
        # a kept cell's row or column is spent, so no LP cell overlaps it
        plan[np.ix_(rows, cols)] += sub
    return raw, plan, model, cols


def _lp_cost(cost: np.ndarray, w_row: np.ndarray, w_col: np.ndarray, s: float, mask: np.ndarray | None = None):
    """The order-s transport LP off the real line: at s = 1 with the shared
    mass left in place (``_w1_transport``), else on the full supports; a
    boolean ``mask`` seeds the first restricted LP (see
    ``_TransportModel.solve``). Returns ``(fsum(plan * cost), plan,
    model)``, ``model`` being the solved ``_TransportModel``, or None when
    no mass is left to move."""
    if s == 1.0:
        raw, plan, model, _ = _w1_transport(cost, w_row, w_col, mask)
    else:
        model = _TransportModel(cost)
        raw, plan = model.solve(w_row, w_col, mask)
    return raw, plan, model


def wasserstein_exact(
    mu: DiscreteMeasure, nu: DiscreteMeasure, s: float, space=None
) -> tuple[float, TransportPlan]:
    """W_s between discrete measures with an optimal plan.

    On the real line the plan is the monotone coupling of the sorted
    supports, which is optimal for every s >= 1 (see the module
    docstring); on any other space it is an exact LP solution, at s = 1
    with the mass shared by both measures left in place. Returns the
    distance (min cost to the power 1/s) and the dense plan, whose cost is
    ``fsum(plan * cost)``.
    """
    _check(s=s)
    space = _resolve_space(mu, nu, space)
    if isinstance(space, RealLine):
        x = np.asarray(mu.points, dtype=float)
        y = np.asarray(nu.points, dtype=float)
        ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
        i, j, mass = (a[0] for a in _northwest_corner(mu.weights[ix][None, :], nu.weights[iy]))
        plan = np.zeros((len(mu), len(nu)))
        np.add.at(plan, (ix[i], iy[j]), mass)
        # fsum is exact, so the nonzero cells alone give fsum(plan * cost)
        r, c = np.nonzero(plan)
        raw = math.fsum(plan[r, c] * np.abs(x[r] - y[c]) ** s)
    else:
        raw, plan, _ = _lp_cost(cost_matrix(mu, nu, s, space), mu.weights, nu.weights, s)
    plan_obj = TransportPlan(mu, nu, plan, raw, s)
    return float(max(raw, 0.0) ** (1.0 / s)), plan_obj


def wasserstein_1d(mu: DiscreteMeasure, nu: DiscreteMeasure, s: float) -> float:
    """W_s on the real line by the quantile coupling: ``wasserstein_exact`` on ``REAL_LINE``."""
    return wasserstein_exact(mu, nu, s, space=REAL_LINE)[0]


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def wasserstein_gaussian_w2(mu: GaussianMeasure, nu: GaussianMeasure) -> float:
    """Closed-form W2 between Gaussian laws (Bures metric plus mean shift):
    exactly 0.0 for equal laws, else the square root turns round-off in the
    trace into a floor of about sqrt(eps * (tr mu.cov + tr nu.cov))."""
    if mu.dim != nu.dim:
        raise InputError("Gaussian dimensions differ")
    if np.array_equal(mu.mean, nu.mean) and np.array_equal(mu.cov, nu.cov):
        return 0.0
    s1 = _psd_sqrt(mu.cov)
    cross = _psd_sqrt(s1 @ nu.cov @ s1)
    gap = float(np.sum((mu.mean - nu.mean) ** 2))
    trace = float(np.trace(mu.cov) + np.trace(nu.cov) - 2.0 * np.trace(cross))
    return math.sqrt(max(gap + max(trace, 0.0), 0.0))


def kantorovich_dual_w1(
    mu: DiscreteMeasure, nu: DiscreteMeasure, space=None
) -> tuple[float, dict]:
    """W1 by Kantorovich-Rubinstein duality, with a 1-Lipschitz potential
    attaining it.

    The potential on the joint support is the c-transform
    f(x) = min_j (d(x, y_j) - v_j) of the column potentials v of the
    reduced primal LP (see ``wasserstein_exact``), taken over that LP's
    columns and shifted so that mu's first point gets 0. As a minimum of
    1-Lipschitz functions f is 1-Lipschitz; it equals the row potential
    on every row that still carries mass and is at most -v_j on column j,
    so int f d(mu - nu) attains the primal optimum up to the LP
    tolerance. Returns ``(fsum(mu f) - fsum(nu f), {point: f(point)})``,
    each point as the measures' tuple view shows it (a Python number, a
    tuple on a product space), built from ``points.tolist()``.
    """
    space = _resolve_space(mu, nu, space)
    cost = cost_matrix(mu, nu, 1.0, space)
    _, _, model, cols = _w1_transport(cost, mu.weights, nu.weights)
    # nu's points that are not mu's follow mu's points in the joint support
    match = _matches(nu.points, mu.points)
    extra = np.flatnonzero(match < 0)
    if model is None:
        f = np.zeros(len(mu) + extra.size)
    else:
        d = cost[:, cols]
        if extra.size:
            d = np.vstack([d, space.pairwise(nu.points[extra], nu.points[cols])])
        f = np.min(d - model.v[None, :], axis=1)
        f -= f[0]
    at_nu = match.copy()
    at_nu[extra] = len(mu) + np.arange(extra.size)
    value = math.fsum(mu.weights * f[: len(mu)]) - math.fsum(nu.weights * f[at_nu])
    points = _tuples(mu.points.tolist()) + _tuples(nu.points[extra].tolist())
    return value, dict(zip(points, f.tolist()))
