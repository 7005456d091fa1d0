"""Constructive recursive coupling between joint laws of two chains.

The coupled pair is advanced one step at a time: the first step couples
the two initial laws optimally, and each later step couples the two
conditional kernels optimally for every point of the coupled history.
Each step is optimal but the composition need not be, so the result is a
certified upper bound on W_s between the joint laws.

For tabular chains the coupling is a Markov chain on the state pairs whose
kernel couples each pair's rows by the monotone plan on a line (also at
s = 1, where optimal plans are not unique), else by one LP per pair.
Gaussian chains need no discretization: on the real line the
step-optimal coupling is comonotone, so both chains share their standard
normal innovations, the pair (gap, P-state) is a linear-Gaussian chain
whose moments come from the recursion in ``processes``, and each step's
gap is exactly Gaussian with a closed-form s-th absolute moment.

``kernel_lipschitz`` gives a chain kernel's exact Lipschitz constant into
(Prob_s, W_s), for tabular chains from the same pair plans.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .constants import ts_markov_alpha
from .entropy import relative_entropy_discrete, relative_entropy_gaussian
from .errors import InputError, _check
from .measures import RealLine, _LabelLine, _matches
from .processes import (
    ARMAModel,
    GaussianKernelModel,
    TabularModel,
    _linear_moments,
    gaussian_chain_joint,
    tabular_joint_law,
)
from .transport import _lp_cost, _northwest_corner, _TransportModel, cost_matrix, wasserstein_gaussian_w2

log = logging.getLogger(__name__)

_AUDIT_TOL = 1e-9  # the largest slack transport_inequality_audit passes


@dataclass(frozen=True)
class CouplingBound:
    """Upper bound on W_s between two joint laws, with per-step costs."""

    upper_bound: float
    step_costs: tuple
    s: float
    method: str

    def __post_init__(self):
        _check(step_costs=self.step_costs)
        total = math.fsum(self.step_costs)
        if abs(self.upper_bound**self.s - total) > 1e-10 * max(1.0, total):
            raise InputError("upper bound does not match the step costs")


def _tabular_cost(model_q: TabularModel, model_p: TabularModel, s: float) -> np.ndarray:
    if model_q.n_states != model_p.n_states or model_q.state_space != model_p.state_space:
        raise InputError("state spaces differ")
    states = np.arange(model_q.n_states)
    return model_q.state_space.pairwise(states, states) ** s


def _pair_plans(q_rows: np.ndarray, p_rows: np.ndarray, space, cost: np.ndarray):
    """Optimal plans from each row of q_rows to each row of p_rows as flat
    (pair, a, b, mass) over the cells with mass, pair = r * len(p_rows) + c:
    on a line by one north-west-corner walk per row of p_rows in label
    order, else by LPs on one HiGHS model, hot-started pair to pair."""
    nq, npr = len(q_rows), len(p_rows)
    parts = []
    if isinstance(space, (RealLine, _LabelLine)):
        pos = space.labels if isinstance(space, _LabelLine) else range(len(cost))
        order = np.argsort(pos, kind="stable")
        for c in range(npr):
            i, j, mass = _northwest_corner(q_rows[:, order], p_rows[c, order])
            # a walk has len(cost) + len(cost) pieces, most of no mass on sparse rows
            r, k = np.nonzero(mass)
            parts.append((r * npr + c, order[i[r, k]], order[j[r, k]], mass[r, k]))
    else:
        model = _TransportModel(cost)
        for r, c in np.ndindex(nq, npr):
            _, plan = model.solve(q_rows[r], p_rows[c])
            a, b = np.nonzero(plan)
            parts.append((np.full(a.size, r * npr + c), a, b, plan[a, b]))
    return [np.concatenate([np.ravel(part[k]) for part in parts]) for k in range(4)]


def kernel_lipschitz(model, s: float) -> float:
    """The kernel's Lipschitz constant into (Prob_s, W_s), exactly:
    sup over x != y of W_s(P_x, P_y) / d(x, y).

    Gaussian kernel and OU: |theta| for every s in [1, 2]. P_x and P_y are
    N(theta x, sigma2) and N(theta y, sigma2); under any coupling
    E|X - Y| >= |E X - E Y| = |theta| |x - y|, so W_s >= W_1 >= |theta| |x - y|
    (Jensen), and the translation coupling Y = X + theta (y - x) attains it.

    ARMA: ||A||_2 in the Euclidean norm, by the same argument with
    P_z = N(A z, B B^T): W_s(P_z, P_w) = |A (z - w)|, whose largest ratio
    to |z - w| is the top singular value of A.

    Tabular: the max over state pairs i != j of W_s(P_i, P_j) / d(i, j) on
    ``TabularModel.state_space``, a finite max of exact W_s: on a line from
    the rows' pair plans (``_pair_plans``, north-west-corner walks), else
    from S(S - 1)/2 LPs on one hot-started model, one per pair i < j, since
    W_s is symmetric and 0 on the diagonal; 0.0 for a single state. A pair at
    distance 0 is skipped when its rows are equal; one with W_s > 0 raises
    ``InputError``, since the kernel is not Lipschitz there.

    A contraction-noise chain raises ``InputError``: its map is a callable,
    and its ``lipschitz`` is already the declared hypothesis.
    """
    _check(s=s)
    if isinstance(model, GaussianKernelModel):
        return float(abs(model.theta))
    if isinstance(model, ARMAModel):
        return float(np.linalg.norm(model.A, 2))
    if not isinstance(model, TabularModel):
        raise InputError(f"no exact kernel Lipschitz constant for model kind {model.kind!r}: "
                         "its map is a callable, and its declared lipschitz is the hypothesis")
    rows, size = model.transition, model.n_states
    states = np.arange(size)
    d = model.state_space.pairwise(states, states)
    cost = d ** s
    if isinstance(model.state_space, (RealLine, _LabelLine)):
        pair, a, b, mass = _pair_plans(rows, rows, model.state_space, cost)
        ws = np.bincount(pair, weights=mass * cost[a, b], minlength=size * size).reshape(size, size)
    else:
        # W_s is symmetric and 0 on the diagonal: one LP per pair i < j
        ws = np.zeros((size, size))
        upper = np.triu_indices(size, 1)
        lp = _TransportModel(cost)
        ws[upper] = [lp.solve(rows[i], rows[j])[0] for i, j in zip(*upper)]
        ws += ws.T
    i, j = np.nonzero(d == 0.0)
    moved = (i != j) & (ws[i, j] > 0.0) & np.any(rows[i] != rows[j], axis=1)
    if moved.any():
        k = np.argmax(moved)
        raise InputError(f"states {i[k]} and {j[k]} are at distance 0 but their rows are W_s > 0 "
                         "apart: the kernel is not Lipschitz")
    apart = d > 0.0
    return float(np.max(np.maximum(ws[apart], 0.0) ** (1.0 / s) / d[apart], initial=0.0))


def _tabular_bound(q: TabularModel, p: TabularModel, n: int, s: float):
    """Step k costs m_k . c, with m_k the coupled pair's law and c the pair plan costs.

    Returns the bound and the coupling on the state pairs a * S + b: its
    initial law and, at n > 1, its kernel as flat (pair, a, b, mass)."""
    cost = _tabular_cost(q, p, s)
    space, size = q.state_space, q.n_states * q.n_states
    _, a, b, mass = _pair_plans(q.init[None], p.init[None], space, cost)
    steps = [math.fsum(mass * cost[a, b])]
    m = init = np.bincount(a * q.n_states + b, weights=mass, minlength=size)
    kernel = None
    if n > 1:
        kernel = pair, a, b, mass = _pair_plans(q.transition, p.transition, space, cost)
        c = np.bincount(pair, weights=mass * cost[a, b], minlength=size)
        for _ in range(1, n):
            steps.append(math.fsum(m * c))
            m = np.bincount(a * q.n_states + b, weights=m[pair] * mass, minlength=size)
    bound = CouplingBound(math.fsum(steps) ** (1.0 / s), tuple(steps), s, "tabular-exact-steps")
    return bound, (init, kernel)


def _coupling_paths(coupling, n: int, n_states: int, q_joint, p_joint):
    """The step-optimal coupling of ``_tabular_bound`` on the path pairs of
    two n-step joint laws, as ``(rows, cols, mass)``: path pair
    (q_joint.points[rows[t]], p_joint.points[cols[t]]) carries mass[t]
    (a pair may repeat; its masses add).

    A path pair (x, y) carries mass when the initial law charges (x_1, y_1)
    and every step's kernel K_(x_(k-1), y_(k-1)) charges (x_k, y_k); its
    mass is that product. The masses are a feasible coupling of the two
    joint laws up to round-off, and their cost in the product metric is the
    coupling bound's. Pairs whose path falls off a joint law's support
    (a north-west-corner walk clamps round-off excess onto the last atom,
    whatever its weight) are dropped. The kernel stays flat: each path
    branches into its last pair's entries, so the work is the path pairs'.
    """
    init, kernel = coupling
    paths = np.flatnonzero(init > 0)[:, None]
    mass = init[paths[:, 0]]
    if n > 1:
        pair, a, b, k_mass = kernel
        # pair r's kernel entries are by_pair[start[r] : start[r] + count[r]]
        by_pair = np.argsort(pair, kind="stable")
        count = np.bincount(pair, minlength=init.size)
        start = np.cumsum(count) - count
        nxt = a * n_states + b
        for _ in range(n - 1):
            last = paths[:, -1]
            c = count[last]
            src = np.repeat(np.arange(len(paths)), c)
            # child t of a path takes entry t - (the path's first child) of its pair's
            entry = by_pair[np.repeat(start[last] - (np.cumsum(c) - c), c) + np.arange(src.size)]
            paths = np.column_stack([paths[src], nxt[entry]])
            mass = mass[src] * k_mass[entry]
    rows = _matches(paths // n_states, q_joint.points)
    cols = _matches(paths % n_states, p_joint.points)
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], mass[keep]


def _abs_moment(m: float, v: float, s: float) -> float:
    """E|N(m, v)|^s in closed form (Winkelbauer 2012, absolute moments)."""
    if v <= 1e-32 * m * m:
        # also v = 0; the relative correction s(s-1)v/2m^2 is below round-off
        return abs(m) ** s
    if s == 2.0:
        return m * m + v
    from scipy.special import gamma, hyp1f1

    return float(
        v ** (s / 2) * 2 ** (s / 2) * gamma((s + 1) / 2) / math.sqrt(math.pi)
        * hyp1f1(-s / 2, 0.5, -m * m / (2 * v))
    )


def _gaussian_bound(q: GaussianKernelModel, p: GaussianKernelModel, n: int, s: float) -> CouplingBound:
    """Exact cost of the comonotone coupling of two Gaussian chains.

    X^q_k = theta_q X^q_{k-1} + sigma_q Y_k and X^p_k likewise share Y_k
    (X_1 uses the initial laws), so (D_k, X^p_k) with D_k = X^q_k - X^p_k
    is a 2-state linear chain, D_k = theta_q D_{k-1} + (theta_q - theta_p)
    X^p_{k-1} + (sigma_q - sigma_p) Y_k, whose moment recursion gives the
    gap law N(m_k, v_k); v_k stays exactly 0 when the kernels and initial
    variances agree. Raises ``InputError`` when a moment or the total overflows.
    """
    sq, sp = math.sqrt(q.sigma2), math.sqrt(p.sigma2)
    rq, rp = math.sqrt(q.init_var), math.sqrt(p.init_var)
    b, r = np.array([[sq - sp], [sp]]), np.array([[rq - rp], [rp]])  # rank-one roots
    with np.errstate(over="ignore", invalid="ignore"):
        means, covs = _linear_moments(
            np.array([[q.theta, q.theta - p.theta], [0.0, p.theta]]),
            b @ b.T,
            np.array([q.init_mean - p.init_mean, p.init_mean]),
            r @ r.T,
            n,
        )
    try:
        steps = [_abs_moment(float(mk[0]), max(float(ck[0, 0]), 0.0), s) for mk, ck in zip(means, covs)]
        total = math.fsum(steps)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise InputError("the Gaussian coupling cost overflows: the chains' moments are not finite")
    return CouplingBound(total ** (1.0 / s), tuple(steps), s, "gaussian-monotone-closed")


def _coupling(p_model, q_model, n: int, s: float):
    """``recursive_coupling_bound`` and, for tabular chains, the coupling
    it costs (see ``_tabular_bound``); None for Gaussian chains."""
    _check(n=n, s=s)
    t0 = time.perf_counter()
    if isinstance(p_model, TabularModel) and isinstance(q_model, TabularModel):
        bound, coupling = _tabular_bound(q_model, p_model, n, s)
    elif isinstance(p_model, GaussianKernelModel) and isinstance(q_model, GaussianKernelModel):
        bound, coupling = _gaussian_bound(q_model, p_model, n, s), None
    else:
        raise InputError("both chains must be tabular or both Gaussian, on the same state space")
    log.debug("coupling bound: method=%s n=%d s=%g wall=%.6fs",
              bound.method, n, s, time.perf_counter() - t0)
    return bound, coupling


def recursive_coupling_bound(p_model, q_model, n: int, s: float) -> CouplingBound:
    """Certified upper bound on W_s between the length-n joint laws of two
    chains, built from per-step optimal couplings.

    Exact at n = 1. Tabular chains advance the coupled state pair as a
    Markov chain whose kernel couples each pair's rows optimally in
    ``TabularModel.state_space``; on a line by the monotone plan, also at
    s = 1, where optimal plans are not unique. Gaussian and OU chains
    use the comonotone coupling, whose step costs are the exact
    closed-form moments of a Gaussian gap, in O(n).
    """
    return _coupling(p_model, q_model, n, s)[0]


def transport_inequality_audit(
    p_model,
    alpha_hyp: float,
    s: float,
    L_hyp: float,
    n: int,
    perturbations,
) -> dict:
    """Audit the order-s transport inequality for a chain's joint law.

    For each perturbed chain Q the report carries the coupling upper
    bound, the exact distance when a closed form applies, the joint
    relative entropy, and the slack against sqrt(2 Ent / alpha_n) with
    alpha_n derived from the declared hypothesis constants. The verdict
    is "pass" when the worst slack is at most ``_AUDIT_TOL`` = 1e-9.

    For tabular chains the exact distance is the transport LP between the
    two joint laws, solved by column generation whose first restricted LP
    holds the north-west-corner plan and the path pairs that the
    step-optimal coupling of the bound charges: a feasible plan near the
    optimum (at s = 1, those of the rows and columns that still carry mass
    once the shared mass stays in place). Pricing and its stopping test
    are those of every LP, so the result is the full LP's optimum. Those
    entries also carry ``lp``, the LP's rounds, simplex iterations and
    final column count (all 0 when the two laws are equal at s = 1 and no
    mass moves).
    """
    alpha_n = ts_markov_alpha(alpha_hyp, L_hyp, s, n).value
    gaussian = isinstance(p_model, GaussianKernelModel)
    p_joint = gaussian_chain_joint(p_model, n) if gaussian else tabular_joint_law(p_model, n, s)
    entries = []
    for q_model in perturbations:
        bound, coupling = _coupling(p_model, q_model, n, s)
        w_exact, entry = None, {}
        if gaussian:
            q_joint = gaussian_chain_joint(q_model, n)
            ent = relative_entropy_gaussian(q_joint, p_joint)
            if s == 2.0:
                w_exact = wasserstein_gaussian_w2(q_joint, p_joint)
        else:
            q_joint = tabular_joint_law(q_model, n, s)
            ent = relative_entropy_discrete(q_joint, p_joint)
            cost = cost_matrix(q_joint, p_joint, s, q_joint.space)
            seed = np.zeros(cost.shape, dtype=bool)
            seed[_coupling_paths(coupling, n, q_model.n_states, q_joint, p_joint)[:2]] = True
            raw, _, model = _lp_cost(cost, q_joint.weights, p_joint.weights, s, seed)
            w_exact = float(max(raw, 0.0) ** (1.0 / s))
            entry["lp"] = model.stats if model is not None else {"rounds": 0, "iterations": 0, "columns": 0}
        w_used = bound.upper_bound if w_exact is None else w_exact
        rhs = math.sqrt(2.0 * ent / alpha_n) if math.isfinite(ent) else math.inf
        slack = w_used - rhs if math.isfinite(rhs) else -math.inf
        entries.append(
            {
                "w_coupling_bound": bound.upper_bound,
                "w_exact": w_exact,
                "entropy": ent,
                "slack": slack,
                **entry,
            }
        )
    worst = max((e["slack"] for e in entries), default=-math.inf)
    return {
        "alpha_n": alpha_n,
        "order_s": s,
        "horizon": n,
        "entries": entries,
        "worst_slack": worst,
        "verdict": "pass" if worst <= _AUDIT_TOL else "fail",
    }
