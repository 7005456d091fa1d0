"""Empirical certification of concentration, transport and log-Sobolev
inequalities.

Certification is one-sided by construction: a pass only says that no
member of the generated test family violates the inequality at the given
constant. Certificates therefore record the family size and a witness
that re-evaluates to the reported worst slack, so every verdict can be
replayed.

Every family is built and scored as an array, with the same members,
t-grid and family sizes as a member-by-member loop: the Lipschitz family
and the LSI test functions are matrices with one function per row, and
T_s perturbations are weight rows on the support of mu. The default LSI
family's random bumps come from draws that do not depend on the grid, made
once per integer seed, and all their Gaussians are evaluated in one
``np.exp``; every member is bit for bit the loop's. GC and T_s
evaluation runs in blocks of about ``_BLOCK`` floats, so working memory
stays proportional to the family size times the support size. The
scalar slacks ``gc_slack``, ``transport_slack`` and ``lsi_slack`` are
the reference that ``replay`` evaluates. ``check_lsi_grid`` logs one
DEBUG line per call with its grid size, family size and the time spent
building and scoring the family.

No family depends on the constant, and each slack is affine in kappa
(GC), alpha^(-1/2) (T_s) or 1/alpha (LSI), so every certificate records
its family's pass/fail boundary, the critical constant, in closed form.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .entropy import relative_entropy_discrete
from .errors import InputError, _check
from .measures import DiscreteMeasure, RealLine, _matches
from .transport import _northwest_corner, _resolve_space, _TransportModel, wasserstein_exact

log = logging.getLogger(__name__)

GC = "GC"
TS = "T_s"
LSI = "LSI"

SLACK_TOL = 1e-9
REPLAY_TOL = 1e-9
_BLOCK = 1 << 14  # floats per temporary array of a batched evaluation
_LSI_BUMPS = 16  # random bump functions in default_lsi_family


@dataclass(frozen=True)
class Certificate:
    """Outcome of one inequality check at one constant."""

    inequality: str
    constant: float
    order_s: float | None
    worst_slack: float
    witness: dict
    verdict: str
    search_size: int
    tolerance: float = SLACK_TOL
    family: str = ""
    grid_h: float | None = None
    critical: float | None = None  # passes at kappa >= it (GC), at alpha <= it (T_s, LSI)

    def __post_init__(self):
        expected = "pass" if self.worst_slack <= self.tolerance else "fail"
        if self.verdict != expected:
            raise InputError("verdict inconsistent with worst slack and tolerance")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _verdict(worst: float, tol: float) -> str:
    return "pass" if worst <= tol else "fail"


def _support_distances(mu: DiscreteMeasure) -> np.ndarray:
    return mu.resolved_space().pairwise(mu.points, mu.points)


def _blocks(count: int, per_item: int) -> list[slice]:
    """Consecutive slices of range(count), each covering about _BLOCK floats
    when every item takes ``per_item`` of them."""
    step = max(1, _BLOCK // max(per_item, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


@functools.cache
def _vertex_tables(n: int):
    """``(edges, paths, signs)`` for vertex enumeration on n >= 2 points,
    read-only and made once per n: ``edges[t]`` holds spanning tree t's
    n - 1 edges as indices into ``np.triu_indices(n, 1)``, ``paths[t]`` is
    the integral inverse of its incidence matrix without the column of
    point 0, and ``signs`` holds the 2^(n-1) sign patterns, one per row."""
    ei, ej = np.triu_indices(n, 1)
    subsets = np.array(list(itertools.combinations(range(ei.size), n - 1)))
    incidence = np.zeros((len(subsets), n - 1, n))
    sub, edge = np.indices(subsets.shape)
    incidence[sub, edge, ei[subsets]] = 1.0
    incidence[sub, edge, ej[subsets]] = -1.0
    incidence = incidence[:, :, 1:]
    trees = np.abs(np.linalg.det(incidence)) > 0.5
    tables = (subsets[trees], np.rint(np.linalg.inv(incidence[trees])),
              np.array(list(itertools.product((1.0, -1.0), repeat=n - 1))))
    for table in tables:
        table.setflags(write=False)
    return tables


def lipschitz_polytope_vertices(dist: np.ndarray) -> list[np.ndarray]:
    """All extreme 1-Lipschitz functions on a small metric space, up to an
    additive constant (anchored at point 0).

    A vertex is determined by a spanning tree of tight constraints
    f_i - f_j = +/- d_ij. An (n-1)-edge subset is a spanning tree exactly
    when its incidence matrix without the column of point 0 is
    nonsingular, and the inverse of that matrix is integral (incidence
    matrices are totally unimodular); the trees, inverses and sign
    patterns depend on n only (``_vertex_tables``). Every tree is solved
    at once for a block of sign patterns, and a solution is kept when it
    satisfies all remaining constraints.
    """
    n = dist.shape[0]
    if n > 6:
        raise InputError("vertex enumeration is limited to 6 points")
    if n == 1:
        return [np.zeros(1)]
    ei, ej = np.triu_indices(n, 1)
    edges, paths, signs = _vertex_tables(n)
    lengths = dist[ei, ej][edges]
    bound = np.minimum(dist, dist.T)[ei, ej]
    found = []
    # sign patterns in blocks: all tree x sign candidates together would be
    # 41,472 rows at n = 6; below 6 points one block holds them all
    for b in _blocks(len(signs), len(paths) * n):
        f = np.zeros((len(signs[b]), len(paths), n))
        f[:, :, 1:] = np.einsum("tij,stj->sti", paths, lengths * signs[b, None, :])
        f = f.reshape(-1, n)
        ok = np.all(np.abs(f[:, ei] - f[:, ej]) - bound <= 1e-12, axis=1)
        found.append(f[ok])
    verts = np.concatenate(found)
    # the first of each group of candidates equal to 12 decimals, in order:
    # a stable sort puts it first in its group
    key = np.round(verts, 12)
    order = np.lexsort(key.T[::-1])
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = np.any(key[1:] != key[:-1], axis=1)
    return list(verts[np.sort(order[first])])


def lipschitz_family(
    mu: DiscreteMeasure, family_size: int = 64, seed: int = 0
) -> np.ndarray:
    """1-Lipschitz test functions on the support of ``mu``, one per row.

    Distance functions to each support point, seeded McShane extensions
    min_j (v_j + d(x, x_j)), and (on supports of at most 6 points) every
    extreme point of the Lipschitz polytope.
    """
    dist = _support_distances(mu)
    n = dist.shape[0]
    diam = float(dist.max()) or 1.0
    v = np.random.default_rng(seed).uniform(0.0, diam, size=(family_size, n))
    mcshane = np.empty((family_size, n))
    for b in _blocks(family_size, n * n):
        mcshane[b] = np.min(v[b, None, :] + dist[None, :, :], axis=2)
    vertices = lipschitz_polytope_vertices(dist) if n <= 6 else []
    return np.vstack([dist.T, mcshane, *vertices])


def default_t_grid() -> np.ndarray:
    pos = np.geomspace(1e-2, 8.0, 20)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log sum exp(a) along ``axis``, in the log1p form of SciPy's
    ``logsumexp`` (bit for bit SciPy 1.17's value): with a_max the largest
    entry and m the number of entries equal to it,
    log1p(sum_{a_i < a_max} exp(a_i - a_max) / m) + log m + a_max, or
    log sum exp(a) itself where that is not finite (an infinite or NaN
    a_max, or every entry -inf)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        top = a == a_max
        count = np.sum(top, axis=axis, keepdims=True, dtype=float)
        rest = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + a_max
        if not np.all(np.isfinite(out)):
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(np.isfinite(out), out, direct)
    return np.squeeze(out, axis=axis)


def gc_slack(mu: DiscreteMeasure, kappa: float, f_values: np.ndarray, t: float) -> float:
    """log int e^{tF} dmu - t int F dmu - kappa t^2 / 2."""
    w = mu.weights
    logw = np.log(np.where(w > 0, w, 1.0))
    mask = w > 0
    lse = float(_logsumexp(logw[mask] + t * f_values[mask]))
    mean = float(np.dot(w, f_values))
    return lse - t * mean - kappa * t**2 / 2.0


def check_gc(
    mu: DiscreteMeasure,
    kappa: float,
    t_grid: Sequence[float] | None = None,
    family_size: int = 64,
    seed: int = 0,
) -> Certificate:
    """Certify or falsify the sub-Gaussian MGF bound at constant kappa.

    The slack ``gc_slack`` of every test function at every t is computed
    at once, a block of t values per ``_logsumexp``. The critical constant is
    max 2 (Lambda_f(t) - t E f - tol) / t^2 over members and t != 0 (or -inf).
    """
    t_grid = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    _check(kappa=kappa, t_grid=t_grid)
    if t_grid.size == 0:
        raise InputError("empty t grid")
    family = lipschitz_family(mu, family_size, seed)
    mask = mu.weights > 0
    logw = np.log(mu.weights[mask])
    assert abs(_logsumexp(logw)) < 1e-12, "GC slack must vanish at t = 0"
    values = family[:, mask]
    means = family @ mu.weights
    centred = np.empty((len(family), t_grid.size))  # Lambda_f(t) - t E f
    for b in _blocks(t_grid.size, values.size):
        t = t_grid[b, None]
        centred[:, b] = (_logsumexp(logw + t[:, :, None] * values) - t * means).T
    slack = centred - kappa * t_grid**2 / 2.0
    # the first maximum in (member, t) order
    fi, ti = np.unravel_index(np.argmax(slack), slack.shape)
    worst = float(slack[fi, ti])
    nz = t_grid != 0.0
    critical = float(np.max(2.0 * (centred[:, nz] - SLACK_TOL) / t_grid[nz] ** 2, initial=-math.inf))
    return Certificate(
        inequality=GC,
        constant=float(kappa),
        order_s=None,
        worst_slack=worst,
        witness={"f_values": [float(v) for v in family[fi]], "t": float(t_grid[ti]), "family_index": int(fi)},
        verdict=_verdict(worst, SLACK_TOL),
        search_size=slack.size,
        family=f"dist+mcshane[{family_size}]" + ("+vertices" if len(mu) <= 6 else ""),
        critical=critical,
    )


def tilt_family(mu: DiscreteMeasure, seed: int = 0) -> np.ndarray:
    """Default perturbations as weight rows on the support of ``mu``: mu
    itself, the exponential tilts e^{tF} mu of a Lipschitz family for
    0 < |t| <= 2 on the default t-grid, then 24 seeded Dirichlet
    reweightings."""
    t = default_t_grid()
    t = t[(t != 0.0) & (np.abs(t) <= 2.0)]
    family = lipschitz_family(mu, family_size=8, seed=seed)
    n, w = len(mu), mu.weights
    tilts = len(family) * t.size
    rows = np.empty((1 + tilts + 24, n))
    rows[0] = w
    logits = rows[1 : 1 + tilts].reshape(len(family), t.size, n)
    np.multiply(t[None, :, None], family[:, None, :], out=logits)
    logits += np.log(np.where(w > 0, w, 1e-300))
    logits -= logits.max(axis=2, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=2, keepdims=True)
    rows[1 + tilts :] = np.random.default_rng(seed + 1).dirichlet(np.ones(n), size=24)
    return rows


def _member_rows(family: list, mu: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """User perturbations as weight rows on the support of ``mu``, and the
    mask of members with mass off that support.

    A member whose Ent(nu | mu) is infinite (mass off the support or on a
    zero-weight atom) scores -inf whatever its space; every other member
    must live on mu's space.
    """
    rows = np.zeros((len(family), len(mu)))
    off = np.zeros(len(family), dtype=bool)
    for r, nu in enumerate(family):
        index = _matches(nu.points, mu.points)
        on, held = index >= 0, nu.weights > 0
        off[r] = np.any(held & ~on)
        rows[r, index[on & held]] = nu.weights[on & held]
    scored = ~off & np.all((rows == 0) | (mu.weights > 0), axis=1)
    for nu in itertools.compress(family, scored):
        _resolve_space(mu, nu, None)
    return rows, off


def _row_entropy(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Ent(nu_r | mu) for weight rows nu_r on the support of mu (weights
    ``w``); +inf for a row with mass on a zero-weight atom."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, rows * np.log(rows / w), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)


def _line_wasserstein(rows: np.ndarray, mu: DiscreteMeasure, s: float) -> np.ndarray:
    """W_s(nu_r, mu) on the real line for weight rows nu_r on mu's support.

    At s = 1, W_1 is the L^1 distance between the two CDFs (Vallender,
    Theory Probab. Appl. 18, 1973): along mu's sorted support x it is
    sum_{k < n-1} |F_nu(x_k) - F_mu(x_k)| (x_{k+1} - x_k), with no
    breakpoint merge and no sort per row. A row equal to mu's weights has the same
    CDF bit for bit, so it scores exactly 0; the CDFs' last entries, which
    may differ in the last bits of the totals, are never used. For
    s in (1, 2] all rows come from one north-west-corner walk along the
    sorted support.
    """
    x = np.asarray(mu.points, dtype=float)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if s == 1.0:
        cdf = rows[:, order]  # a copy, accumulated and scored in place
        np.cumsum(cdf, axis=1, out=cdf)
        cdf -= np.cumsum(mu.weights[order])
        np.abs(cdf, out=cdf)
        inner = cdf[:, :-1]
        inner *= np.diff(xs)
        # an elementwise product and a row sum, so no BLAS build moves the rounding
        return inner.sum(axis=1)
    i, j, mass = _northwest_corner(rows[:, order], mu.weights[order])
    gap = xs[i]  # mass * |x_i - y_j|**s, formed in place
    gap -= xs[j]
    np.abs(gap, out=gap)
    gap **= s
    gap *= mass
    return np.maximum(np.sum(gap, axis=1), 0.0) ** (1.0 / s)


def _transport_terms(rows, off, mu: DiscreteMeasure, s: float) -> tuple[np.ndarray, np.ndarray]:
    """W_s(nu_r, mu) and Ent(nu_r | mu) of every weight row on the support
    of mu. Rows whose Ent is infinite, or that ``off`` marks as having mass
    off the support, get Ent = inf and W_s = 0, so their slack is -inf."""
    ws = np.zeros(len(rows))
    ent = np.full(len(rows), math.inf)
    line = isinstance(mu.resolved_space(), RealLine)
    for b in _blocks(len(rows), 2 * len(mu)):
        e = _row_entropy(rows[b], mu.weights)
        live = np.isfinite(e) & ~off[b]
        if line:
            ws[b][live] = _line_wasserstein(rows[b][live], mu, s)
        ent[b][live] = e[live]
    if not line:
        # one LP per distinct row, so equal rows score alike and the first
        # stays the witness; every LP runs on one model, hot-started row to row
        live = np.isfinite(ent)
        distinct, inverse = np.unique(rows[live], axis=0, return_inverse=True)
        model = _TransportModel(_support_distances(mu) ** s)
        raw = np.array([model.solve(row, mu.weights)[0] for row in distinct])
        ws[live] = np.maximum(raw, 0.0)[inverse.reshape(-1)] ** (1.0 / s)
    return ws, ent


def transport_slack(nu: DiscreteMeasure, mu: DiscreteMeasure, alpha: float, s: float) -> float:
    ent = relative_entropy_discrete(nu, mu)
    if math.isinf(ent):
        return -math.inf  # the bound is vacuous for non-absolutely-continuous nu
    return wasserstein_exact(nu, mu, s)[0] - math.sqrt(2.0 * ent / alpha)


def check_transport(
    mu: DiscreteMeasure,
    alpha: float,
    s: float,
    perturbation_family: Sequence[DiscreteMeasure] | None = None,
    seed: int = 0,
) -> Certificate:
    """Certify or falsify W_s(nu, mu) <= sqrt(2 Ent(nu|mu) / alpha) over a
    perturbation family.

    Every member is scored as a weight row on the support of mu; a member
    with mass off that support scores -inf. On the real line W_1 of all
    rows is the L^1 distance between their CDFs and mu's (Vallender,
    Theory Probab. Appl. 18, 1973), and W_s for s > 1 comes from one
    batched north-west-corner walk; elsewhere each distinct row gets one
    transport LP. The critical constant is min 2 Ent / (W_s - tol)^2 over
    scored members with W_s > tol (+inf if there is none).
    """
    _check(alpha=alpha, s=s)
    if perturbation_family is None:
        members = None
        rows = tilt_family(mu, seed)
        off = np.zeros(len(rows), dtype=bool)
    else:
        members = list(perturbation_family)
        if not members:
            raise InputError("empty perturbation family")
        rows, off = _member_rows(members, mu)
    ws, ent = _transport_terms(rows, off, mu, s)
    slack = ws - np.sqrt(2.0 * ent / alpha)
    i = int(np.argmax(slack))  # the first maximum
    worst = float(slack[i])
    binding = ws > SLACK_TOL
    critical = float(np.min(2.0 * ent[binding] / (ws[binding] - SLACK_TOL) ** 2, initial=math.inf))
    witness = {}
    if worst > -math.inf:
        support, weights = (mu.points, rows[i]) if members is None else (members[i].points, members[i].weights)
        witness = {"family_index": i, "support": support.tolist(), "weights": weights.tolist()}
    return Certificate(
        inequality=TS,
        constant=float(alpha),
        order_s=float(s),
        worst_slack=worst,
        witness=witness,
        verdict=_verdict(worst, SLACK_TOL),
        search_size=len(rows),
        family="tilts+dirichlet" if perturbation_family is None else "user",
        critical=critical,
    )


def _grid_gradient(f: np.ndarray, h: float, out: np.ndarray) -> np.ndarray:
    """Central differences along the last axis, one-sided at the ends,
    written into ``out``."""
    inner = out[..., 1:-1]
    np.subtract(f[..., 2:], f[..., :-2], out=inner)
    inner /= 2.0 * h
    np.subtract(f[..., 1], f[..., 0], out=out[..., 0])
    out[..., 0] /= h
    np.subtract(f[..., -1], f[..., -2], out=out[..., -1])
    out[..., -1] /= h
    return out


def _lsi_terms(weights: np.ndarray, f: np.ndarray, h: float):
    """int f^2 dmu, the terms f^2 log(f^2 / int f^2 dmu) of Ent_mu(f^2),
    and int |f'|^2 dmu, for functions along the last axis of ``f``."""
    f2 = np.square(f, dtype=float)
    m = f2 @ weights
    positive = f2 > 0
    terms = np.zeros_like(f2)  # log(f^2 / m) where f^2 > 0, then times f^2
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(f2, m[..., None], out=terms, where=positive)
        np.log(terms, out=terms, where=positive)
    terms *= f2
    g = _grid_gradient(f, h, out=f2)  # f^2 is no longer needed
    np.square(g, out=g)
    return m, terms, g @ weights


def lsi_slack(weights: np.ndarray, f: np.ndarray, h: float, alpha: float) -> float:
    """Ent_mu(f^2) - (2/alpha) int |f'|^2 dmu on a uniform grid."""
    m, terms, dirichlet = _lsi_terms(weights, f, h)
    return 0.0 if m <= 0 else float(terms @ weights) - 2.0 / alpha * float(dirichlet)


def _draw_bumps(rng: np.random.Generator) -> tuple[np.ndarray, int, int, np.ndarray]:
    """The bumps' random draws, made in the order of a member-by-member
    build: per bump one ``integers(1, 4)`` Gaussian count, then per
    Gaussian the unit draws of its amplitude, centre and width.

    Returns, read-only, the (Gaussians, 3) unit draws laid out for summing
    in place, the numbers of bumps with at least 2 and with 3 Gaussians,
    and each bump's row in that layout. The bumps are sorted by falling
    count (stably), and the rows hold their first Gaussians, then the
    second Gaussians of the first ``two`` bumps, then the third Gaussians
    of the first ``three``."""
    counts = np.empty(_LSI_BUMPS, dtype=int)
    draws = []
    for b in range(_LSI_BUMPS):
        counts[b] = rng.integers(1, 4)
        draws.append(rng.random((counts[b], 3)))
    by_count = np.argsort(-counts, kind="stable")
    units = np.array([draws[b][j] for j in range(3) for b in by_count if counts[b] > j])
    row = np.argsort(by_count)
    for a in (units, row):
        a.setflags(write=False)
    return units, int(np.sum(counts >= 2)), int(np.sum(counts == 3)), row


@functools.lru_cache(maxsize=32, typed=True)
def _seeded_bumps(seed: int) -> tuple[np.ndarray, int, int, np.ndarray]:
    return _draw_bumps(np.random.default_rng(seed))


def default_lsi_family(grid: np.ndarray, seed: int = 0) -> list[np.ndarray]:
    """The default LSI test functions on a float grid x, one array per
    member; all are rows of one array, built in place:

    - x, x^2, x^3, x^4, 1 + x and 1 + x + x^2;
    - e^{tx/2} for t = 0.25, -0.25, 0.5, -0.5, 1, -1, 1.5, -1.5, 2, -2;
    - ``_LSI_BUMPS`` bumps 1 + sum_j a_j exp(-(x - c_j)^2 / (2 w_j^2)) of
      1 to 3 Gaussians, with a_j uniform on [-1, 1], c_j on the middle 60 %
      of the grid's span and w_j on [0.05, 0.3] times the span.

    ``seed`` (anything ``np.random.default_rng`` takes) fixes the bumps'
    Gaussian counts and unit draws, which do not depend on the grid: a
    draw on [lo, hi] is lo + (hi - lo) u for a unit draw u. A Python int
    seed's draws are made once and cached (the last 32 such seeds); any
    other seed draws on every call, so a ``Generator`` advances by one
    ``integers`` call per bump and three ``random`` draws per Gaussian."""
    x = grid
    units, two, three, row = (_seeded_bumps(seed) if isinstance(seed, int)
                              else _draw_bumps(np.random.default_rng(seed)))
    x0, x1 = float(x[0]), float(x[-1])
    span = x1 - x0
    lo_c, lo_w = x0 + 0.2 * span, 0.05 * span
    range_c, range_w = (x1 - 0.2 * span) - lo_c, 0.3 * span - lo_w
    if not (0.0 <= range_c < math.inf and 0.0 <= range_w < math.inf):
        raise InputError("the grid must be increasing with a finite span")
    # Python floats, as a member-by-member build forms them: w ** 2 is
    # libm pow, which can differ from np.square in the last bit
    amp, centre, scale = [], [], []
    for ua, uc, uw in units.tolist():
        width = lo_w + range_w * uw
        amp.append(-1.0 + 2.0 * ua)
        centre.append(lo_c + range_c * uc)
        scale.append(2.0 * width**2)
    out = np.empty((16 + len(units), x.size))
    out[0] = x
    out[1] = x**2
    out[2] = x**3
    out[3] = x**4
    np.add(1.0, x, out=out[4])
    np.add(out[4], out[1], out=out[5])
    tilts = out[6:16]
    np.multiply(np.array([0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 2.0, -2.0])[:, None], x, out=tilts)
    tilts /= 2.0
    np.exp(tilts, out=tilts)
    # every Gaussian a exp(-(x - c)^2 / (2 w^2)) at once, one per row
    g = out[16:]
    np.subtract(x, np.array(centre)[:, None], out=g)
    np.square(g, out=g)
    np.negative(g, out=g)
    g /= np.array(scale)[:, None]
    np.exp(g, out=g)
    g *= np.array(amp)[:, None]
    # each bump sums its Gaussians in draw order (from 0, whose only trace,
    # the sign of a zero sum, 1 + f drops), level by level in place
    bumps = g[:_LSI_BUMPS]
    bumps[:two] += g[_LSI_BUMPS:_LSI_BUMPS + two]
    bumps[:three] += g[_LSI_BUMPS + two:]
    bumps += 1.0
    return [*out[:16], *(bumps[r] for r in row.tolist())]


def check_lsi_grid(
    grid: np.ndarray,
    density: np.ndarray,
    alpha: float,
    test_functions: Sequence[np.ndarray] | None = None,
    seed: int = 0,
) -> Certificate:
    """Certify or falsify the log-Sobolev inequality for a density sampled
    on a uniform 1-D grid, with central-difference gradients.

    The pass tolerance carries an O(h^2) allowance on top of the 1e-6
    base, and the certificate records h so the allowance is explicit.
    The family is scored as one matrix, and the members within round-off
    of its maximum are re-scored with ``lsi_slack``, as a loop would. The
    critical constant is min 2 D / (Ent - tol) over members with Ent > tol,
    where D = int |f'|^2 dmu (+inf if there is none).
    """
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or density.shape != grid.shape:
        raise InputError("grid and density must be matching 1-D arrays")
    _check(grid=grid, density=density, alpha=alpha)
    h = float(grid[1]) - float(grid[0])  # inf, not a NumPy overflow warning
    if not _uniform(grid, h):
        raise InputError("grid must be uniform, with a finite step h > 0")
    weights = density / density.sum()
    t0 = time.perf_counter()
    family = default_lsi_family(grid, seed) if test_functions is None else list(test_functions)
    if not family or any(np.shape(f) != grid.shape for f in family):
        raise InputError("the test family must be nonempty, with one value per grid point")
    f = np.array(family, dtype=float)
    del family  # free the members' own arrays before scoring
    t1 = time.perf_counter()
    tol = 1e-6 + 10.0 * h**2
    m, terms, dirichlet = _lsi_terms(weights, f, h)
    ent = terms @ weights
    slack = np.where(m > 0, ent - 2.0 / alpha * dirichlet, 0.0)
    # summation order moves a slack by far less than this margin (terms is
    # spent: its absolute values are taken in place)
    margin = 1e-12 * (m + np.abs(terms, out=terms) @ weights + 2.0 / alpha * dirichlet)
    near = np.flatnonzero(slack + margin >= np.max(slack - margin))
    rescored = [lsi_slack(weights, f[i], h, alpha) for i in near]
    k = int(np.argmax(rescored))  # the first maximum
    i, worst = int(near[k]), rescored[k]
    critical = float(np.min(2.0 * dirichlet[ent > tol] / (ent[ent > tol] - tol), initial=math.inf))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("LSI grid check: %d points, %d members, family %.3f ms, scoring %.3f ms",
                  grid.size, len(f), 1e3 * (t1 - t0), 1e3 * (time.perf_counter() - t1))
    return Certificate(
        inequality=LSI,
        constant=float(alpha),
        order_s=None,
        worst_slack=worst,
        witness={"family_index": i, "f_values": f[i].tolist()},
        verdict=_verdict(worst, tol),
        search_size=len(f),
        tolerance=tol,
        family="poly+exp+bumps" if test_functions is None else "user",
        grid_h=h,
        critical=critical,
    )


def _uniform(grid: np.ndarray, h: float) -> bool:
    """Whether h is finite and > 0 and every step of ``grid`` is h to
    within 1e-9 h."""
    return bool(0.0 < h < math.inf and np.all(np.abs(np.diff(grid) - h) <= 1e-9 * h))


def replay(cert: Certificate, mu=None, grid=None, density=None) -> float:
    """Re-evaluate a certificate's witness on ``mu`` (GC, T_s) or on a grid
    with the certificate's spacing (LSI); must reproduce worst_slack."""
    if cert.inequality == GC:
        f = np.asarray(cert.witness["f_values"])
        slack = gc_slack(mu, cert.constant, f, cert.witness["t"])
    elif cert.inequality == TS:
        if "support" not in cert.witness:
            raise InputError("certificate has no witness to replay: no member was scored")
        nu = DiscreteMeasure(
            cert.witness["support"],
            np.asarray(cert.witness["weights"]),
            space=mu.space,
        )
        slack = transport_slack(nu, mu, cert.constant, cert.order_s)
    elif cert.inequality == LSI:
        grid, weights = np.asarray(grid, dtype=float), np.asarray(density, dtype=float)
        if grid.ndim != 1 or grid.shape != weights.shape or not _uniform(grid, cert.grid_h):
            raise InputError("grid must match the density and be uniform with the certificate's spacing")
        weights = weights / weights.sum()
        slack = lsi_slack(weights, np.asarray(cert.witness["f_values"]), cert.grid_h, cert.constant)
    else:
        raise InputError(f"unknown inequality {cert.inequality!r}")
    if abs(slack - cert.worst_slack) > REPLAY_TOL:
        raise InputError("witness does not replay to the recorded slack")
    return slack


def best_constant(checker: Callable[[float], Certificate], bracket: tuple[float, float]) -> float:
    """The strongest constant in ``bracket`` at which ``checker`` passes.

    One call, at the lower end, gives the family's critical constant: the
    families do not depend on the constant. GC constants get weaker as
    they grow, T_s and LSI constants stronger. A bracket that passes
    throughout returns its strongest end, one that passes nowhere raises
    ``InputError``, and otherwise the critical constant is returned.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InputError("bracket must satisfy lo < hi")
    cert = checker(lo)
    if cert.critical is None:
        raise InputError("the certificate carries no critical constant")
    best = max(lo, cert.critical) if cert.inequality == GC else min(hi, cert.critical)
    if not lo <= best <= hi:
        raise InputError("no constant in the bracket passes")
    return best


def check_bg_duality(mu: DiscreteMeasure, kappa: float, seed: int = 0) -> dict:
    """Check GC(kappa) and T_1(1/kappa) side by side.

    The two are equivalent in principle; a disagreement here means one
    test family was too weak, not that a counterexample was found.
    """
    _check(kappa=kappa)
    gc_cert = check_gc(mu, kappa, seed=seed)
    t1_cert = check_transport(mu, 1.0 / kappa, 1.0, seed=seed)
    return {
        "gc_verdict": gc_cert.verdict,
        "t1_verdict": t1_cert.verdict,
        "agree": gc_cert.passed == t1_cert.passed,
        "gc_certificate": gc_cert,
        "t1_certificate": t1_cert,
    }
