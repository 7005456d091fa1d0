"""Constructive recursive coupling between joint laws of two chains.

The coupled pair is advanced one step at a time: the first step couples
the two initial laws optimally, and each later step couples the two
conditional kernels optimally for every atom of the coupled history.
Each step is optimal but the composition need not be, so the result is a
certified upper bound on W_s between the joint laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .constants import ts_weak_alpha
from .entropy import chain_rule_decompose, relative_entropy_gaussian
from .errors import InputError, ResourceError
from .measures import DiscreteMeasure, ProductSpace, REAL_LINE
from .processes import (
    GaussianKernelModel,
    OUModel,
    TabularModel,
    gaussian_chain_joint,
)
from .transport import solve_transport_lp, wasserstein_exact, wasserstein_gaussian_w2

DEFAULT_RESOLUTION = 128
ATOM_BUDGET = 500_000
DROP_TOL = 1e-15
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class CouplingBound:
    """Upper bound on W_s between two joint laws, with per-step costs."""

    upper_bound: float
    step_costs: tuple
    s: float
    method: str
    error_budget: float = 0.0

    def __post_init__(self):
        if any(d < 0 for d in self.step_costs):
            raise InputError("step costs must be nonnegative")
        total = math.fsum(self.step_costs)
        if abs(self.upper_bound**self.s - total) > 1e-10 * max(1.0, total):
            raise InputError("upper bound does not match the step costs")


def _tabular_cost(model_q: TabularModel, model_p: TabularModel, s: float) -> np.ndarray:
    if model_q.n_states != model_p.n_states:
        raise InputError("state spaces differ")
    nq = model_q.n_states
    if model_q.space is not None:
        d = model_q.space.dist
    elif model_q.labels is not None:
        lab = np.asarray(model_q.labels)
        d = np.abs(lab[:, None] - lab[None, :])
    else:
        d = (np.arange(nq)[:, None] != np.arange(nq)[None, :]).astype(float)
    return d**s


def _tabular_bound(q: TabularModel, p: TabularModel, n: int, s: float) -> CouplingBound:
    cost = _tabular_cost(q, p, s)
    d1, plan = solve_transport_lp(cost, q.init, p.init)
    atoms = {
        (i, j): float(plan[i, j])
        for i in range(plan.shape[0])
        for j in range(plan.shape[1])
        if plan[i, j] > 0
    }
    steps = [d1]
    step_plans = {}
    for _ in range(1, n):
        dk = []
        nxt: dict = {}
        for (i, j), w in atoms.items():
            if (i, j) not in step_plans:
                step_plans[(i, j)] = solve_transport_lp(cost, q.transition[i], p.transition[j])
            ck, pk = step_plans[(i, j)]
            dk.append(w * ck)
            for a in range(pk.shape[0]):
                for b in range(pk.shape[1]):
                    if pk[a, b] > 0:
                        key = (a, b)
                        nxt[key] = nxt.get(key, 0.0) + w * pk[a, b]
        atoms = nxt
        steps.append(math.fsum(dk))
    total = math.fsum(steps)
    return CouplingBound(max(total, 0.0) ** (1.0 / s), tuple(steps), s, "tabular-exact-steps")


def _as_gaussian(model) -> GaussianKernelModel:
    return model.as_gaussian_kernel() if isinstance(model, OUModel) else model


def _gaussian_bound(
    q: GaussianKernelModel, p: GaussianKernelModel, n: int, s: float, resolution: int
) -> CouplingBound:
    same_kernel = abs(q.theta - p.theta) < 1e-15 and abs(q.sigma2 - p.sigma2) < 1e-15
    z = ndtri((np.arange(resolution) + 0.5) / resolution)
    if same_kernel and abs(q.init_var - p.init_var) < 1e-15:
        # monotone couplings keep the pairwise gap deterministic: it starts
        # at the initial mean gap and contracts by theta each step
        delta = abs(q.init_mean - p.init_mean)
        steps = []
        for k in range(n):
            steps.append(delta**s)
            delta *= abs(q.theta)
        total = math.fsum(steps)
        return CouplingBound(total ** (1.0 / s), tuple(steps), s, "gaussian-monotone-closed")
    # general case: quantile-discretized monotone couplings, atom pruning
    sq, sp = math.sqrt(q.init_var), math.sqrt(p.init_var)
    atoms = [(q.init_mean + sq * zi, p.init_mean + sp * zi, 1.0 / resolution) for zi in z]
    steps = [math.fsum(w * abs(x - y) ** s for x, y, w in atoms)]
    dropped = 0.0
    sq, sp = math.sqrt(q.sigma2), math.sqrt(p.sigma2)
    for _ in range(1, n):
        dk = math.fsum(w * abs(q.theta * x - p.theta * y) ** s for x, y, w in atoms)
        steps.append(dk)
        nxt: dict = {}
        for x, y, w in atoms:
            for zi in z:
                key = (
                    round((q.theta * x + sq * zi) / MERGE_TOL),
                    round((p.theta * y + sp * zi) / MERGE_TOL),
                )
                nxt[key] = nxt.get(key, 0.0) + w / resolution
        if len(nxt) > ATOM_BUDGET:
            raise ResourceError(
                f"coupling atoms ({len(nxt)}) exceed the budget; lower the resolution"
            )
        atoms = [
            (kx * MERGE_TOL, ky * MERGE_TOL, w) for (kx, ky), w in nxt.items() if w >= DROP_TOL
        ]
        kept = math.fsum(w for _, _, w in atoms)
        dropped += 1.0 - kept
        atoms = [(x, y, w / kept) for x, y, w in atoms]
    total = math.fsum(steps)
    return CouplingBound(
        total ** (1.0 / s), tuple(steps), s, f"gaussian-quantile[{resolution}]", max(dropped, 0.0)
    )


def recursive_coupling_bound(
    p_model, q_model, n: int, s: float, resolution: int = DEFAULT_RESOLUTION
) -> CouplingBound:
    """Certified upper bound on W_s between the length-n joint laws of two
    chains, built from per-step optimal couplings.

    Exact at n = 1; tabular chains use exact per-step transport plans,
    Gaussian kernels use monotone quantile couplings (discretized at
    ``resolution`` quantiles when the kernels differ).
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if not (1.0 <= s <= 2.0):
        raise InputError("order s must lie in [1, 2]")
    if isinstance(p_model, TabularModel) and isinstance(q_model, TabularModel):
        return _tabular_bound(q_model, p_model, n, s)
    if isinstance(p_model, (GaussianKernelModel, OUModel)) and isinstance(
        q_model, (GaussianKernelModel, OUModel)
    ):
        return _gaussian_bound(_as_gaussian(q_model), _as_gaussian(p_model), n, s, resolution)
    raise InputError("both chains must be tabular or both Gaussian, on the same state space")


def transport_inequality_audit(
    p_model,
    alpha_hyp: float,
    s: float,
    L_hyp: float,
    n: int,
    perturbations,
    seed: int = 0,
    tol: float = 1e-9,
    resolution: int = 32,
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
        bound = recursive_coupling_bound(p_model, q_model, n, s, resolution=resolution)
        w_exact = None
        if isinstance(p_model, (GaussianKernelModel, OUModel)):
            qj = gaussian_chain_joint(_as_gaussian(q_model), n)
            pj = gaussian_chain_joint(_as_gaussian(p_model), n)
            ent = relative_entropy_gaussian(qj, pj)
            if s == 2.0:
                w_exact = wasserstein_gaussian_w2(qj, pj)
        else:
            q_joint = _tabular_joint_indices(q_model, n, s)
            p_joint = _tabular_joint_indices(p_model, n, s)
            ent = chain_rule_decompose(q_joint, p_model).total
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


def _tabular_joint_indices(model: TabularModel, n: int, s: float) -> DiscreteMeasure:
    """Joint law on index tuples, metrized by the declared state metric."""
    paths = [((i,), float(w)) for i, w in enumerate(model.init) if w > 0]
    for _ in range(n - 1):
        paths = [
            (p + (j,), w * float(pj))
            for p, w in paths
            for j, pj in enumerate(model.transition[p[-1]])
            if pj > 0
        ]
    if model.space is not None:
        base = model.space
    elif model.labels is not None:
        base = _LabelLine(model.labels)
    else:
        base = REAL_LINE
    space = ProductSpace(base, n, s if s <= 2.0 else 2.0)
    return DiscreteMeasure(
        tuple(p for p, _ in paths), np.array([w for _, w in paths]), space=space
    )


class _LabelLine:
    """Metric on state indices through their real-valued labels."""

    def __init__(self, labels):
        self.labels = tuple(float(x) for x in labels)

    def distance(self, i, j):
        return abs(self.labels[int(i)] - self.labels[int(j)])

    def pairwise(self, xs, ys) -> np.ndarray:
        lab = np.asarray(self.labels)
        i, j = np.asarray(xs).astype(np.intp), np.asarray(ys).astype(np.intp)
        return np.abs(lab[i][:, None] - lab[j][None, :])

    def __eq__(self, other):
        return isinstance(other, _LabelLine) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)
