"""Relative entropy for discrete and Gaussian pairs, and the chain rule.

All logarithms are natural. The chain rule splits the relative entropy of
two joint laws on a product space into the entropy of the first marginals
plus one conditional term per later time step. It runs on the joint law's
support as an array of paths, whose steps may be numbers or vectors of one
common length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .measures import DiscreteMeasure, GaussianMeasure, _matches
from .processes import TabularModel


def relative_entropy_discrete(nu: DiscreteMeasure, mu: DiscreteMeasure) -> float:
    """sum nu_i log(nu_i / mu_i), with 0 log 0 = 0; +inf off the support of mu.

    The fsum of one term per atom of nu with positive weight, each
    ``w * math.log(w / m)``."""
    match = _matches(nu.points, mu.points)
    live = nu.weights > 0.0
    w = nu.weights[live]
    m = np.where(match >= 0, mu.weights[match], 0.0)[live]
    if not np.all(m > 0.0):
        return math.inf
    terms = w * np.array([math.log(r) for r in (w / m).tolist()])
    return max(math.fsum(terms), 0.0)


def relative_entropy_gaussian(nu: GaussianMeasure, mu: GaussianMeasure) -> float:
    """Closed-form KL divergence between nondegenerate Gaussian laws."""
    if nu.dim != mu.dim:
        raise InputError("Gaussian dimensions differ")
    m = mu.dim
    sign, logdet_mu = np.linalg.slogdet(mu.cov)
    if sign <= 0:
        raise InputError("reference covariance is singular")
    sign_nu, logdet_nu = np.linalg.slogdet(nu.cov)
    if sign_nu <= 0:
        raise InputError("covariance of the first argument is singular")
    prec = np.linalg.inv(mu.cov)
    gap = mu.mean - nu.mean
    val = 0.5 * (
        float(np.trace(prec @ nu.cov)) - m + float(gap @ prec @ gap) + logdet_mu - logdet_nu
    )
    return max(val, 0.0)


@dataclass(frozen=True)
class EntropyBreakdown:
    """Chain-rule decomposition of a joint relative entropy.

    ``total = initial_term + sum(conditional_terms)`` when finite;
    ``failure_step`` is the 1-based step at which absolute continuity
    failed when total is +inf.
    """

    total: float
    initial_term: float
    conditional_terms: tuple = field(default_factory=tuple)
    failure_step: int | None = None

    def __post_init__(self):
        if math.isfinite(self.total):
            parts = self.initial_term + math.fsum(self.conditional_terms)
            if abs(parts - self.total) > 1e-10 * max(1.0, abs(self.total)):
                raise InputError("breakdown terms do not sum to the total")
            if self.initial_term < -1e-12 or any(t < -1e-12 for t in self.conditional_terms):
                raise InputError("entropy terms must be nonnegative")


def _paths(points: np.ndarray) -> np.ndarray:
    """A joint law's ``points`` as an array of shape (paths, n, m): m = 1
    for scalar steps, the vector length for vector-valued steps."""
    if points.ndim < 2:
        raise InputError("a joint law's support points must be tuples")
    return points.reshape(points.shape[0], points.shape[1], -1)


def _tabular_log_kernel(model: TabularModel, x: np.ndarray) -> np.ndarray:
    """log P(x_k | x_(k-1)) of a tabular chain per path and step (log init at
    step 1); -inf at a step outside the states 0..S-1 or vector-valued."""
    state = x[..., 0]
    ok = (x.shape[2] == 1) & (state == np.floor(state)) & (state >= 0) & (state < model.n_states)
    i = np.where(ok, state, 0).astype(np.intp)
    prob = np.where(ok, model.init[i], 0.0)
    prob[:, 1:] = np.where(ok[:, :-1] & ok[:, 1:], model.transition[i[:, :-1], i[:, 1:]], 0.0)
    with np.errstate(divide="ignore"):
        return np.log(prob)


def chain_rule_decompose(q: DiscreteMeasure, p) -> EntropyBreakdown:
    """Decompose Ent(Q | P) along time steps of a product-space joint law.

    ``q`` must have tuple support; each step is a number or a vector of one
    common length. ``p`` is a tabular Markov model or a discrete joint law
    on the same product space. A state of ``q`` outside a tabular ``p``'s
    states 0..S-1 is mass off P's support. Raises ``InputError`` when
    support tuples are ragged, ``q`` and ``p`` tuples differ in shape, or
    ``p`` is neither kind.

    One grouped pass over the paths, sorted once in lexicographic order:
    at step k, a path starts a new k-prefix group where its first k steps
    differ from the previous path's, so the group ids number the k-prefixes
    in lexicographic order. Q's prefix masses come from ``np.bincount``
    over the ids, and the term is
    sum q(x^k) [log q(x_k | x^(k-1)) - log p(x_k | x^(k-1))] over the
    prefixes Q charges. A discrete P's prefix masses come from the same ids
    on the stacked supports. Histories Q does not visit contribute nothing.
    """
    x = _paths(q.points)
    nq, n = x.shape[0], x.shape[1]
    if isinstance(p, DiscreteMeasure):
        y = _paths(p.points)
        if y.shape[1:] != x.shape[1:]:
            raise InputError(f"q and p paths differ in shape: {x.shape[1:]} vs {y.shape[1:]}")
        x, log_kernel = np.concatenate([x, y]), None
    elif isinstance(p, TabularModel):
        log_kernel = _tabular_log_kernel(p, x)
    else:
        raise InputError("p must be a tabular chain or a discrete joint law")
    # stable, so each group's first sorted path is its first path in x
    order = np.lexsort(x.reshape(len(x), -1).T[::-1])
    ordered = x[order]
    new = np.zeros(len(x), dtype=bool)
    new[0] = True
    group = np.zeros(len(x), dtype=np.intp)
    q_prev = p_prev = np.ones(1)
    terms = []
    for k in range(n):
        new[1:] |= np.any(ordered[1:, k] != ordered[:-1, k], axis=1)
        first = order[new]
        parent = group[first]
        group = np.empty_like(group)
        group[order] = np.cumsum(new) - 1
        q_k = np.bincount(group[:nq], weights=q.weights, minlength=first.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            if log_kernel is None:
                p_k = np.bincount(group[nq:], weights=p.weights, minlength=first.size)
                log_p = np.log(p_k) - np.log(p_prev[parent])
                p_prev = p_k
            else:
                log_p = log_kernel[first, k]
        live = q_k > 0
        if np.any(log_p[live] == -np.inf):
            initial = terms[0] if terms else math.inf
            return EntropyBreakdown(math.inf, initial, tuple(terms[1:]), failure_step=k + 1)
        w = q_k[live]
        terms.append(max(math.fsum(w * (np.log(w / q_prev[parent[live]]) - log_p[live])), 0.0))
        q_prev = q_k
    return EntropyBreakdown(math.fsum(terms), terms[0], tuple(terms[1:]))
