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
step-optimal coupling is comonotone, so both chains are driven by the
same standard normal innovations and every step's gap is exactly
Gaussian; its s-th absolute moment has a closed form.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, hyp1f1

from .constants import ts_weak_alpha
from .entropy import relative_entropy_discrete, relative_entropy_gaussian
from .errors import InputError
from .measures import RealLine, _LabelLine
from .processes import (
    GaussianKernelModel,
    OUModel,
    TabularModel,
    gaussian_chain_joint,
    tabular_joint_law,
)
from .transport import (_northwest_corner, solve_transport_lp, wasserstein_exact,
                        wasserstein_gaussian_w2)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CouplingBound:
    """Upper bound on W_s between two joint laws, with per-step costs."""

    upper_bound: float
    step_costs: tuple
    s: float
    method: str

    def __post_init__(self):
        if any(d < 0 for d in self.step_costs):
            raise InputError("step costs must be nonnegative")
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
    (pair, a, b, mass), pair = r * len(p_rows) + c: on a line by one
    north-west-corner walk per row of p_rows in label order, else by LPs."""
    nq, npr = len(q_rows), len(p_rows)
    parts = []
    if isinstance(space, (RealLine, _LabelLine)):
        pos = space.labels if isinstance(space, _LabelLine) else range(len(cost))
        order = np.argsort(pos, kind="stable")
        for c in range(npr):
            i, j, mass = _northwest_corner(q_rows[:, order], p_rows[c, order])
            parts.append((np.repeat(np.arange(nq) * npr + c, i.shape[1]), order[i], order[j], mass))
    else:
        for r, c in np.ndindex(nq, npr):
            _, plan = solve_transport_lp(cost, q_rows[r], p_rows[c])
            a, b = np.nonzero(plan)
            parts.append((np.full(a.size, r * npr + c), a, b, plan[a, b]))
    return [np.concatenate([np.ravel(part[k]) for part in parts]) for k in range(4)]


def _tabular_bound(q: TabularModel, p: TabularModel, n: int, s: float) -> CouplingBound:
    """Step k costs m_k . c, with m_k the coupled pair's law and c the pair plan costs."""
    cost = _tabular_cost(q, p, s)
    space, size = q.state_space, q.n_states * q.n_states
    _, a, b, mass = _pair_plans(q.init[None], p.init[None], space, cost)
    steps = [math.fsum(mass * cost[a, b])]
    m = np.bincount(a * q.n_states + b, weights=mass, minlength=size)
    if n > 1:
        pair, a, b, mass = _pair_plans(q.transition, p.transition, space, cost)
        c = np.bincount(pair, weights=mass * cost[a, b], minlength=size)
        for _ in range(1, n):
            steps.append(math.fsum(m * c))
            m = np.bincount(a * q.n_states + b, weights=m[pair] * mass, minlength=size)
    return CouplingBound(math.fsum(steps) ** (1.0 / s), tuple(steps), s, "tabular-exact-steps")


def _as_gaussian(model) -> GaussianKernelModel:
    return model.as_gaussian_kernel() if isinstance(model, OUModel) else model


def _abs_moment(m: float, v: float, s: float) -> float:
    """E|N(m, v)|^s in closed form (Winkelbauer 2012, absolute moments)."""
    if v <= 1e-32 * m * m:
        # also v = 0; the relative correction s(s-1)v/2m^2 is below round-off
        return abs(m) ** s
    if s == 2.0:
        return m * m + v
    return float(
        v ** (s / 2) * 2 ** (s / 2) * gamma((s + 1) / 2) / math.sqrt(math.pi)
        * hyp1f1(-s / 2, 0.5, -m * m / (2 * v))
    )


def _gaussian_bound(q: GaussianKernelModel, p: GaussianKernelModel, n: int, s: float) -> CouplingBound:
    """Exact cost of the comonotone coupling of two Gaussian chains.

    X^q_k = theta_q X^q_{k-1} + sigma_q Z_k and X^p_k likewise share Z_k
    (X_1 uses the initial laws), so the gap D_k = X^q_k - X^p_k is
    N(m_k, v_k). The pair's 2x2 covariance is carried as Var D_k,
    Cov(D_k, X^p_k) and Var X^p_k, which keeps v_k exactly 0 when the
    kernels and initial variances agree. Raises ``InputError`` when a
    moment or the total overflows.
    """
    d_theta = q.theta - p.theta
    sq, sp = math.sqrt(q.init_var), math.sqrt(p.init_var)
    m, mp = q.init_mean - p.init_mean, p.init_mean
    v, c, vp = (sq - sp) ** 2, (sq - sp) * sp, p.init_var
    sq, sp = math.sqrt(q.sigma2), math.sqrt(p.sigma2)
    d_sigma = sq - sp
    try:
        steps = [_abs_moment(m, v, s)]
        for _ in range(1, n):
            # D_k = theta_q D_{k-1} + d_theta X^p_{k-1} + d_sigma Z_k
            m, mp = q.theta * m + d_theta * mp, p.theta * mp
            v, c, vp = (
                max(q.theta**2 * v + 2 * q.theta * d_theta * c + d_theta**2 * vp, 0.0) + d_sigma**2,
                q.theta * p.theta * c + d_theta * p.theta * vp + d_sigma * sp,
                p.theta**2 * vp + p.sigma2,
            )
            steps.append(_abs_moment(m, v, s))
        total = math.fsum(steps)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise InputError("the Gaussian coupling cost overflows: the chains' moments are not finite")
    return CouplingBound(total ** (1.0 / s), tuple(steps), s, "gaussian-monotone-closed")


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
    if n < 1:
        raise InputError("n must be >= 1")
    if not (1.0 <= s <= 2.0):
        raise InputError("order s must lie in [1, 2]")
    t0 = time.perf_counter()
    if isinstance(p_model, TabularModel) and isinstance(q_model, TabularModel):
        bound = _tabular_bound(q_model, p_model, n, s)
    elif isinstance(p_model, (GaussianKernelModel, OUModel)) and isinstance(
        q_model, (GaussianKernelModel, OUModel)
    ):
        bound = _gaussian_bound(_as_gaussian(q_model), _as_gaussian(p_model), n, s)
    else:
        raise InputError("both chains must be tabular or both Gaussian, on the same state space")
    log.debug("coupling bound: method=%s n=%d s=%g wall=%.6fs",
              bound.method, n, s, time.perf_counter() - t0)
    return bound


def transport_inequality_audit(
    p_model,
    alpha_hyp: float,
    s: float,
    L_hyp: float,
    n: int,
    perturbations,
    seed: int = 0,
    tol: float = 1e-9,
) -> dict:
    """Audit the order-s transport inequality for a chain's joint law.

    For each perturbed chain Q the report carries the coupling upper
    bound, the exact distance when a closed form applies, the joint
    relative entropy, and the slack against sqrt(2 Ent / alpha_n) with
    alpha_n derived from the declared hypothesis constants.
    """
    alpha_n = ts_weak_alpha(alpha_hyp, L_hyp, s, n).value
    entries = []
    for q_model in perturbations:
        bound = recursive_coupling_bound(p_model, q_model, n, s)
        w_exact = None
        if isinstance(p_model, (GaussianKernelModel, OUModel)):
            qj = gaussian_chain_joint(_as_gaussian(q_model), n)
            pj = gaussian_chain_joint(_as_gaussian(p_model), n)
            ent = relative_entropy_gaussian(qj, pj)
            if s == 2.0:
                w_exact = wasserstein_gaussian_w2(qj, pj)
        else:
            q_joint = tabular_joint_law(q_model, n, s)
            p_joint = tabular_joint_law(p_model, n, s)
            ent = relative_entropy_discrete(q_joint, p_joint)
            w_exact = wasserstein_exact(q_joint, p_joint, s, space=q_joint.space)[0]
        w_used = bound.upper_bound if w_exact is None else w_exact
        rhs = math.sqrt(2.0 * ent / alpha_n) if math.isfinite(ent) else math.inf
        slack = w_used - rhs if math.isfinite(rhs) else -math.inf
        entries.append(
            {
                "w_coupling_bound": bound.upper_bound,
                "w_exact": w_exact,
                "entropy": ent,
                "slack": slack,
            }
        )
    worst = max((e["slack"] for e in entries), default=-math.inf)
    return {
        "alpha_n": alpha_n,
        "order_s": s,
        "horizon": n,
        "entries": entries,
        "worst_slack": worst,
        "verdict": "pass" if worst <= tol else "fail",
    }
