"""Markov process models, joint-law simulation and hypothesis estimators.

Models are horizon-free descriptions (initial law plus kernel). The
estimators report sup-type hypothesis quantities over declared probe
sets, so they are lower bounds on the true constants: the verification
stance is "no violation found at this resolution", never a proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .constants import ou_kappa
from .errors import InputError
from .measures import (MAX_SUPPORT, REAL_LINE, DiscreteMeasure, GaussianMeasure, ProductSpace,
                       _LabelLine)
from .transport import wasserstein_1d

PROB_ATOL = 1e-12


@dataclass(frozen=True)
class TabularModel:
    """Finite-state chain: initial probability vector and transition matrix.

    ``labels`` may carry real-valued state positions (used as the metric);
    otherwise states are metrized through ``space``.
    """

    init: np.ndarray
    transition: np.ndarray
    labels: tuple | None = None
    space: object = None
    kind: str = field(default="tabular", init=False)

    def __post_init__(self):
        init = np.asarray(self.init, dtype=float)
        trans = np.asarray(self.transition, dtype=float)
        if trans.shape != (init.size, init.size):
            raise InputError("transition matrix shape must match the initial vector")
        for name, row in [("initial", init)] + [
            (f"row {i}", trans[i]) for i in range(trans.shape[0])
        ]:
            if np.any(row < 0) or abs(row.sum() - 1.0) > PROB_ATOL:
                raise InputError(f"{name} vector is not a probability vector")
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "transition", trans)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(float(x) for x in self.labels))

    @property
    def n_states(self) -> int:
        return self.init.size

    @property
    def state_space(self):
        """Metric on the state indices: the declared space, else the label
        distance, else |i - j|."""
        if self.space is not None:
            return self.space
        return REAL_LINE if self.labels is None else _LabelLine(self.labels)


@dataclass(frozen=True)
class OUModel:
    """Time-discretized Ornstein-Uhlenbeck chain started at x0."""

    rho: float
    tau: float
    x0: float = 0.0
    kind: str = field(default="ou", init=False)

    def __post_init__(self):
        if self.tau <= 0:
            raise InputError("tau must be positive")

    def as_gaussian_kernel(self) -> "GaussianKernelModel":
        c = ou_kappa(self.rho, self.tau, 1, self.x0)
        return GaussianKernelModel(
            theta=c["theta"],
            sigma2=c["sigma2"],
            init_mean=c["theta"] * self.x0,
            init_var=c["sigma2"],
        )


@dataclass(frozen=True)
class GaussianKernelModel:
    """Chain with kernel N(theta x, sigma2) and a Gaussian initial law."""

    theta: float
    sigma2: float
    init_mean: float = 0.0
    init_var: float | None = None
    kind: str = field(default="gaussian_kernel", init=False)

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise InputError("sigma2 must be positive")
        if self.init_var is None:
            object.__setattr__(self, "init_var", self.sigma2)
        elif self.init_var <= 0:
            raise InputError("init_var must be positive")


@dataclass(frozen=True)
class ARMAModel:
    """Z_{j+1} = A Z_j + B Y_{j+1} with standard Gaussian Z_0 and noise."""

    A: np.ndarray
    B: np.ndarray
    kind: str = field(default="arma", init=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_2d(np.asarray(self.B, dtype=float))
        if a.shape[0] != a.shape[1] or a.shape != b.shape:
            raise InputError("A and B must be square matrices of equal size")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ContractionNoiseModel:
    """Z_{j+1} = Theta(Z_j) + Y_{j+1} with a declared Lipschitz bound.

    ``noise_sampler(rng, size)`` draws the innovations and
    ``init_sampler(rng, size)`` the starting states.
    """

    theta_map: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    noise_sampler: Callable
    init_sampler: Callable
    kind: str = field(default="contraction_noise", init=False)


MarkovModel = TabularModel | OUModel | GaussianKernelModel | ARMAModel | ContractionNoiseModel


@dataclass(frozen=True)
class SamplePaths:
    """N paths of length n, plus the seed and model that produced them."""

    values: np.ndarray
    seed: int
    model: MarkovModel

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1]


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based, so draws are reproducible and independent of
    # any worker partitioning of the path index range.
    return np.random.Generator(np.random.Philox(key=int(seed)))


def simulate_joint(model: MarkovModel, n: int, N: int, seed: int = 0) -> SamplePaths:
    """Draw N independent length-n paths by sequential kernel sampling."""
    if n < 1 or N < 1:
        raise InputError("n and N must be >= 1")
    rng = _rng(seed)
    if isinstance(model, OUModel):
        model_for_sim = model.as_gaussian_kernel()
        values = _simulate_gaussian(model_for_sim, n, N, rng)
    elif isinstance(model, GaussianKernelModel):
        values = _simulate_gaussian(model, n, N, rng)
    elif isinstance(model, TabularModel):
        values = _simulate_tabular(model, n, N, rng)
    elif isinstance(model, ARMAModel):
        values = _simulate_arma(model, n, N, rng)
    elif isinstance(model, ContractionNoiseModel):
        values = _simulate_contraction(model, n, N, rng)
    else:
        raise InputError(f"unknown model {model!r}")
    return SamplePaths(values, int(seed), model)


def _simulate_gaussian(model: GaussianKernelModel, n, N, rng):
    eps = rng.standard_normal((N, n))
    out = np.empty((N, n))
    out[:, 0] = model.init_mean + math.sqrt(model.init_var) * eps[:, 0]
    sigma = math.sqrt(model.sigma2)
    for k in range(1, n):
        out[:, k] = model.theta * out[:, k - 1] + sigma * eps[:, k]
    return out


def _simulate_tabular(model: TabularModel, n, N, rng):
    u = rng.random((N, n))
    out = np.empty((N, n), dtype=int)
    out[:, 0] = np.searchsorted(np.cumsum(model.init), u[:, 0], side="right")
    cum = np.cumsum(model.transition, axis=1)
    for k in range(1, n):
        rows = cum[out[:, k - 1]]
        out[:, k] = (u[:, k, None] >= rows).sum(axis=1)
    return out


def _simulate_arma(model: ARMAModel, n, N, rng):
    m = model.dim
    z = rng.standard_normal((N, m))
    out = np.empty((N, n, m))
    out[:, 0] = z
    for k in range(1, n):
        y = rng.standard_normal((N, m))
        out[:, k] = out[:, k - 1] @ model.A.T + y @ model.B.T
    return out


def _simulate_contraction(model: ContractionNoiseModel, n, N, rng):
    z = np.asarray(model.init_sampler(rng, N))
    out = np.empty((N, n) + z.shape[1:])
    out[:, 0] = z
    for k in range(1, n):
        out[:, k] = model.theta_map(out[:, k - 1]) + np.asarray(model.noise_sampler(rng, N))
    return out


def ou_transition(x: float, rho: float, tau: float) -> GaussianMeasure:
    """One-step law N(theta x, sigma2) of the discretized OU chain."""
    c = ou_kappa(rho, tau, 1, x)
    return GaussianMeasure([c["theta"] * x], [[c["sigma2"]]])


def kernel_law(model: MarkovModel, x):
    """Law of the next state given the current one, as a 1-D measure."""
    if isinstance(model, OUModel):
        return ou_transition(float(x), model.rho, model.tau)
    if isinstance(model, GaussianKernelModel):
        return GaussianMeasure([model.theta * float(x)], [[model.sigma2]])
    if isinstance(model, TabularModel):
        if model.labels is None:
            raise InputError("tabular kernel laws need real-valued labels")
        row = model.transition[int(x)]
        keep = row > 0
        return DiscreteMeasure(
            tuple(np.asarray(model.labels)[keep]), row[keep], space=REAL_LINE
        )
    raise InputError(f"kernel law unavailable for model kind {model.kind!r}")


def kernel_lipschitz_estimate(model: MarkovModel, probe_pairs: Sequence, s: float) -> float:
    """max over probe pairs of W_s(p(.|x), p(.|x')) / d(x, x').

    A lower bound on the kernel's true Lipschitz constant; for Gaussian
    kernels with state-independent variance the ratio is exactly |theta|.
    """
    ratios = []
    for x, y in probe_pairs:
        gap = abs(float(x) - float(y)) if not isinstance(model, TabularModel) else None
        if isinstance(model, TabularModel):
            if model.labels is None:
                raise InputError("tabular kernel laws need real-valued labels")
            gap = abs(model.labels[int(x)] - model.labels[int(y)])
        if gap == 0.0:
            continue
        a, b = kernel_law(model, x), kernel_law(model, y)
        if isinstance(a, GaussianMeasure):
            # both laws have the kernel's variance: the translation coupling
            # is optimal, so W_s is the mean gap for every s
            w = abs(a.mean[0] - b.mean[0])
        else:
            w = wasserstein_1d(a, b, s)
        ratios.append(w / gap)
    if not ratios:
        raise InputError("all probe pairs are coincident")
    return float(max(ratios))


def _gauss_hermite_nodes(model: GaussianKernelModel, x: float, order: int):
    nodes, weights = hermegauss(order)
    y = model.theta * float(x) + math.sqrt(model.sigma2) * nodes
    return y, weights / math.sqrt(2.0 * math.pi)


def _dual_exponent(s: float) -> float:
    if s == 1.0:
        return math.inf
    return s / (s - 1.0)


def _holder_norm(vec: np.ndarray, sp: float) -> float:
    vec = np.abs(np.atleast_1d(vec))
    if math.isinf(sp):
        return float(vec.max())
    return float((vec**sp).sum() ** (1.0 / sp))


def ms_estimate(
    u_gradients: Callable,
    model: MarkovModel,
    s: float,
    probes: Sequence | None = None,
    quadrature_order: int = 64,
) -> float:
    """sup over probed histories of int ||(du/dx_k)_k||^2_{l^s'} p(dy|x).

    ``u_gradients(history, y)`` returns the gradient of the kernel energy
    with respect to each history coordinate. Gaussian kernels use
    Gauss-Hermite quadrature (with a doubling check against truncation);
    tabular kernels sum over states.
    """
    if not (1.0 <= s <= 2.0):
        raise InputError("order s must lie in [1, 2]")
    sp = _dual_exponent(s)
    if probes is None:
        probes = [(-2.0,), (-1.0,), (0.0,), (1.0,), (2.0,)]
    base = model.as_gaussian_kernel() if isinstance(model, OUModel) else model
    sup = 0.0
    for hist in probes:
        x_last = float(np.atleast_1d(hist)[-1])
        if isinstance(base, GaussianKernelModel):
            def integral(order):
                ys, ws = _gauss_hermite_nodes(base, x_last, order)
                vals = [_holder_norm(np.asarray(u_gradients(hist, y)), sp) ** 2 for y in ys]
                return float(np.dot(ws, vals))

            lo, hi = integral(quadrature_order), integral(2 * quadrature_order)
            if abs(hi - lo) > 1e-6 * max(1.0, abs(hi)) and hi > 2.0 * lo:
                raise InputError("quadrature diverged across node doubling")
            sup = max(sup, hi)
        elif isinstance(base, TabularModel):
            law = kernel_law(base, x_last)
            val = sum(
                w * _holder_norm(np.asarray(u_gradients(hist, y)), sp) ** 2
                for y, w in zip(law.support, law.weights)
            )
            sup = max(sup, float(val))
        else:
            raise InputError(f"unsupported model kind {base.kind!r}")
    return sup


def lambda_mgf_estimate(
    u_gradient: Callable | None,
    model: MarkovModel,
    s_grid: Sequence[float],
    probes: Sequence[float] | None = None,
    quadrature_order: int = 64,
) -> tuple[float, dict]:
    """Least admissible sub-Gaussian parameter of the coupling MGF.

    Returns (kappa_hat, witness) with kappa_hat = max over the grid of
    2 log Lambda(s|x) / s^2; for Gaussian kernels with ``u_gradient=None``
    the MGF is Gaussian and evaluated in closed form (theta^2 / sigma2).
    """
    if probes is None:
        probes = [-2.0, -1.0, 0.0, 1.0, 2.0]
    base = model.as_gaussian_kernel() if isinstance(model, OUModel) else model
    if u_gradient is None:
        if not isinstance(base, GaussianKernelModel):
            raise InputError("closed-form MGF needs a Gaussian kernel")
        # du/dx = -theta (y - theta x) / sigma2 is N(0, theta^2 / sigma2)
        kappa = base.theta**2 / base.sigma2
        return kappa, {"s": None, "x": None, "closed_form": True}
    best = 0.0
    witness = {"s": None, "x": None, "closed_form": False}
    for x in probes:
        for sv in s_grid:
            sv = float(sv)
            if sv == 0.0:
                continue
            if isinstance(base, GaussianKernelModel):
                ys, ws = _gauss_hermite_nodes(base, x, quadrature_order)
                vals = np.array([math.exp(sv * float(np.atleast_1d(u_gradient((x,), y))[0])) for y in ys])
                lam = float(np.dot(ws, vals))
            elif isinstance(base, TabularModel):
                law = kernel_law(base, x)
                lam = sum(
                    w * math.exp(sv * float(np.atleast_1d(u_gradient((x,), y))[0]))
                    for y, w in zip(law.support, law.weights)
                )
            else:
                raise InputError(f"unsupported model kind {base.kind!r}")
            if not math.isfinite(lam):
                raise InputError(f"divergent MGF at s = {sv}, x = {x}")
            cand = 2.0 * math.log(lam) / sv**2
            if cand > best:
                best = cand
                witness = {"s": sv, "x": x, "closed_form": False}
    return best, witness


def arma_joint_covariance(A, B, n: int) -> np.ndarray:
    """Covariance of the stacked vector (Z_0, ..., Z_{n-1}), Z_0 ~ N(0, I).

    Marginal covariances follow S_{j+1} = A S_j A^T + B B^T from S_0 = I,
    and Cov(Z_i, Z_j) = A^(i-j) S_j for i >= j.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    m = A.shape[0]
    sigmas = [np.eye(m)]
    for _ in range(n - 1):
        sigmas.append(A @ sigmas[-1] @ A.T + B @ B.T)
    out = np.zeros((n * m, n * m))
    for j in range(n):
        out[j * m : (j + 1) * m, j * m : (j + 1) * m] = sigmas[j]
        block = sigmas[j]
        for i in range(j + 1, n):
            block = A @ block
            out[i * m : (i + 1) * m, j * m : (j + 1) * m] = block
            out[j * m : (j + 1) * m, i * m : (i + 1) * m] = block.T
    return (out + out.T) / 2.0


def gaussian_chain_joint(model: GaussianKernelModel | OUModel, n: int) -> GaussianMeasure:
    """Exact joint Gaussian law of the first n states of a Gaussian chain."""
    base = model.as_gaussian_kernel() if isinstance(model, OUModel) else model
    means = np.empty(n)
    means[0] = base.init_mean
    for k in range(1, n):
        means[k] = base.theta * means[k - 1]
    var = np.empty(n)
    var[0] = base.init_var
    for k in range(1, n):
        var[k] = base.theta**2 * var[k - 1] + base.sigma2
    cov = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            lo = min(i, j)
            cov[i, j] = base.theta ** abs(i - j) * var[lo]
    return GaussianMeasure(means, cov)


def tabular_joint_law(model: TabularModel, n: int, s: float = 1.0) -> DiscreteMeasure:
    """Joint law of a tabular chain on ``ProductSpace(model.state_space, n, s)``:
    the positive-probability paths as state-index tuples, in lexicographic
    order. Raises ``InputError`` once a step passes ``MAX_SUPPORT`` paths."""
    paths = np.flatnonzero(model.init > 0)[:, None]
    weights = model.init[paths[:, 0]]
    for _ in range(n - 1):
        rows = model.transition[paths[:, -1]]
        src, nxt = np.nonzero(rows > 0)
        if src.size > MAX_SUPPORT:
            raise InputError(f"the joint law has more than {MAX_SUPPORT} paths")
        paths = np.column_stack([paths[src], nxt])
        weights = weights[src] * rows[src, nxt]
    space = ProductSpace(model.state_space, n, s)
    return DiscreteMeasure(tuple(map(tuple, paths.tolist())), weights, space=space)
