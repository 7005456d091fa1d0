"""Markov process models and joint-law simulation.

Models are horizon-free descriptions (initial law plus kernel).
Gaussian-kernel (so OU) and ARMA chains share one ``linear_form``,
X_1 = mean1 + root1 Y_1 and X_{k+1} = A X_k + B Y_{k+1} with standard
Gaussian Y: one moment recursion, started from the variances as given
(``linear_covariances``), gives their joint laws (and the Gaussian
coupling's gap moments) and one sampler their paths.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import ou_kappa
from .errors import InputError, _check
from .measures import (MAX_SUPPORT, REAL_LINE, DiscreteMeasure, GaussianMeasure, ProductSpace,
                       _LabelLine)

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
        rows = np.vstack([init, trans])  # NaN fails >= 0, and +inf the sum
        bad = np.flatnonzero(~np.all(rows >= 0, axis=1) | (np.abs(rows.sum(axis=1) - 1.0) > PROB_ATOL))
        if bad.size:
            raise InputError(f"{'initial' if bad[0] == 0 else f'row {bad[0] - 1}'} vector is not a probability vector")
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
class GaussianKernelModel:
    """Chain with kernel N(theta x, sigma2) and a Gaussian initial law."""

    theta: float
    sigma2: float
    init_mean: float = 0.0
    init_var: float | None = None
    kind: str = field(default="gaussian_kernel", init=False)

    def __post_init__(self):
        if self.init_var is None:
            object.__setattr__(self, "init_var", self.sigma2)
        _check(theta=self.theta, sigma2=self.sigma2, init_mean=self.init_mean, init_var=self.init_var)

    @property
    def linear_form(self):
        """(A, B, mean1, root1) with X_1 = mean1 + root1 Y_1 and
        X_{k+1} = A X_k + B Y_{k+1}, here as 1x1 matrices."""
        return (np.array([[self.theta]]), np.array([[math.sqrt(self.sigma2)]]),
                np.array([self.init_mean]), np.array([[math.sqrt(self.init_var)]]))

    @property
    def linear_covariances(self):
        """(B B^T, root1 root1^T) of ``linear_form``, as given: (sigma2, init_var)."""
        return np.array([[self.sigma2]]), np.array([[self.init_var]])


@dataclass(frozen=True)
class OUModel(GaussianKernelModel):
    """Time-discretized Ornstein-Uhlenbeck chain started at x0: the Gaussian
    kernel with theta = exp(-rho tau) and sigma2 = (1 - theta^2) / (2 rho)
    (tau at rho = 0), whose first state is one kernel step from x0."""

    theta: float = field(init=False)
    sigma2: float = field(init=False)
    init_mean: float = field(init=False)
    init_var: float = field(init=False)
    rho: float
    tau: float
    x0: float = 0.0
    kind: str = field(default="ou", init=False)

    def __post_init__(self):
        c = ou_kappa(self.rho, self.tau, 1, self.x0)
        object.__setattr__(self, "theta", c["theta"])
        object.__setattr__(self, "sigma2", c["sigma2"])
        object.__setattr__(self, "init_mean", c["theta"] * self.x0)
        object.__setattr__(self, "init_var", c["sigma2"])
        super().__post_init__()


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
        _check(A=a, B=b)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def linear_form(self):
        """(A, B, mean1, root1) with X_1 = Z_0 = mean1 + root1 Y_1: (A, B, 0, I)."""
        return self.A, self.B, np.zeros(self.dim), np.eye(self.dim)

    @property
    def linear_covariances(self):
        """(B B^T, root1 root1^T) of ``linear_form``: (B B^T, I)."""
        return self.B @ self.B.T, np.eye(self.dim)


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


MarkovModel = TabularModel | GaussianKernelModel | ARMAModel | ContractionNoiseModel


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


def _rng(seed: int, jumps: int = 0) -> np.random.Generator:
    # Philox is counter-based: the linear sampler's block b draws from the
    # stream advanced by b jumps of 2**128 draws, so its paths are
    # independent of any worker partitioning of the path index range
    return np.random.Generator(np.random.Philox(key=int(seed)).jumped(jumps))


def _raise_on_overflow(finite: np.ndarray, n: int) -> None:
    """``InputError`` naming the first step whose ``finite`` entry is False."""
    if not finite.all():
        raise InputError(f"the simulated chain overflows: step {np.argmin(finite) + 1} "
                         f"of {n} has a non-finite value")


def simulate_joint(model: MarkovModel, n: int, N: int, seed: int = 0) -> SamplePaths:
    """Draw N independent length-n paths by sequential kernel sampling.

    The paths depend on (model, n, N, seed) only: Gaussian-kernel, OU and
    ARMA chains are drawn block by block on all usable CPUs (see
    ``_simulate_linear``), the same for any number of them. Raises
    ``InputError`` naming the first step with a non-finite value when a
    chain overflows."""
    _check(n=n, N=N)
    if isinstance(model, (GaussianKernelModel, ARMAModel)):
        values, finite = _simulate_linear(*model.linear_form, n, N, seed)
        if isinstance(model, GaussianKernelModel):
            values = values[..., 0]
    elif isinstance(model, TabularModel):
        # integer states: nothing can overflow
        return SamplePaths(_simulate_tabular(model, n, N, _rng(seed)), int(seed), model)
    elif isinstance(model, ContractionNoiseModel):
        with np.errstate(over="ignore", invalid="ignore"):
            values = _simulate_contraction(model, n, N, _rng(seed))
        finite = np.isfinite(values).reshape(N, n, -1).all(axis=(0, 2))
    else:
        raise InputError(f"unknown model {model!r}")
    _raise_on_overflow(finite, n)
    return SamplePaths(values, int(seed), model)


def simulate_path_sums(model: GaussianKernelModel, n: int, N: int, seed: int = 0) -> np.ndarray:
    """The N path sums x_1 + ... + x_n of ``simulate_joint(model, n, N,
    seed)``, bit for bit equal to ``values.sum(axis=1)``, without its
    (N, n) path table: each block of paths is summed as it is drawn.
    Raises ``InputError`` as ``simulate_joint`` does."""
    if not isinstance(model, GaussianKernelModel):
        raise InputError(f"path sums need a Gaussian-kernel chain, got model kind {model.kind!r}")
    _check(n=n, N=N)
    sums, finite = _simulate_linear(*model.linear_form, n, N, seed, sums=True)
    _raise_on_overflow(finite, n)
    return sums


# most paths per block of the linear and tabular samplers: a block of
# 20-step scalar paths (640 KB) stays in a core's L2 cache through the
# whole recursion
_BLOCK_PATHS = 4096

_POOL = None  # (pid, executor or None, helpers): the linear sampler's helper threads
_POOL_LOCK = threading.Lock()


def _sampler_pool():
    """``(executor, helpers)``: the linear sampler's helper threads, one per
    usable CPU besides the calling thread's (``(None, 0)`` on one CPU),
    made on first use, and made again in a forked child, which has none
    of the parent's threads."""
    global _POOL
    from concurrent.futures import ThreadPoolExecutor

    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            helpers = cpus - 1
            pool = ThreadPoolExecutor(helpers, thread_name_prefix="concentra-sampler") if helpers else None
            _POOL = (os.getpid(), pool, helpers)
        return _POOL[1:]


def _linear_block(A, B, mean1, root1, x, rng) -> None:
    """Fill the (paths, n, m) array ``x`` with paths of X_1 = mean1 + root1 Y_1,
    X_{k+1} = A X_k + B Y_{k+1}: one draw of the innovations Y into ``x``,
    then the recursion in place, one (paths, m) time slice at a time.

    A 1x1 product is the one rounding of the scalar multiply, which needs
    no matrix-product call. A wider noise product B Y runs over at least
    two rows, as in an unblocked draw: one time slice of a block, or all n
    steps of a lone path (a one-row product takes BLAS's vector route,
    which rounds differently)."""
    rng.standard_normal(out=x)
    n = x.shape[1]
    if B.shape == (1, 1):
        a, b, xs = A[0, 0], B[0, 0], x[..., 0]
        xs[:, 0] *= root1[0, 0]
        xs[:, 0] += mean1[0]
        prev = np.empty(len(x))
        for k in range(1, n):
            xs[:, k] *= b
            xs[:, k] += np.multiply(xs[:, k - 1], a, out=prev)
        return
    first = mean1 + x[:, 0] @ root1.T
    for y in [x[0]] if len(x) == 1 else [x[:, k] for k in range(1, n)]:
        y[...] = y @ B.T
    x[:, 0] = first
    for k in range(1, n):
        x[:, k] += x[:, k - 1] @ A.T


def _simulate_linear(A, B, mean1, root1, n, N, seed, sums=False):
    """Paths of X_1 = mean1 + root1 Y_1, X_{k+1} = A X_k + B Y_{k+1} with
    standard Gaussian Y, and which steps are finite on every path.

    Returns ``(out, finite)``: ``out`` is the (N, n, m) paths, or with
    ``sums`` the (N,) row sums of a scalar chain's (N, n) paths, and
    ``finite[k]`` says whether step k + 1 is finite on every path.

    The N paths are split into ceil(N / ``_BLOCK_PATHS``) near-equal blocks
    (as ``np.array_split`` splits them), which hold at least two paths
    unless N = 1. Block b draws its innovations, path-major, from
    ``_rng(seed, b)``, the stream advanced by b jumps, so block 0 is the
    one stream of an unblocked draw and the paths depend on (n, N, seed)
    only, never on which thread draws which block. The calling thread and
    ``_sampler_pool``'s helpers take the next block in turn; the caller
    works instead of sleeping, which keeps it on its CPU. Each block
    writes into its own rows of one output; with ``sums`` it is drawn into
    its own buffer and only its row sums are kept. NumPy's error state is
    per thread, so each block sets its own."""
    m = B.shape[1]
    blocks = -(-N // _BLOCK_PATHS)
    starts = [b * (N // blocks) + min(b, N % blocks) for b in range(blocks + 1)]
    out = np.empty((N,) if sums else (N, n, m))
    finite = np.empty((blocks, n), dtype=bool)

    def run(b):
        lo, hi = starts[b], starts[b + 1]
        x = np.empty((hi - lo, n, m)) if sums else out[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            _linear_block(A, B, mean1, root1, x, _rng(seed, b))
            finite[b] = np.isfinite(x).all(axis=(0, 2))
            if sums:
                out[lo:hi] = x[..., 0].sum(axis=1)

    todo, lock = iter(range(blocks)), threading.Lock()

    def drain():
        while True:
            with lock:
                b = next(todo, None)
            if b is None:
                return
            run(b)

    pool, helpers = _sampler_pool() if blocks > 1 else (None, 0)
    futures = [pool.submit(drain) for _ in range(min(helpers, blocks - 1))]
    try:
        drain()
    finally:
        for future in futures:  # re-raises a helper's exception here
            future.result()
    return out, finite.all(axis=0)


def _capped_cumsum(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis of probability vectors ``p``,
    +inf from each vector's last positive entry on."""
    cum = np.cumsum(p, axis=-1)
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    cum[np.arange(p.shape[-1]) >= np.expand_dims(last, -1)] = np.inf
    return cum


def _simulate_tabular(model: TabularModel, n, N, rng):
    """Paths of a finite-state chain by inverse-CDF draws. The uniforms are
    one row-major (N, n) stream from ``rng``, drawn and used one
    ``_BLOCK_PATHS`` block of paths at a time, so each path depends on its
    own row of draws only and the per-step gather and comparison are
    (block, S) temporaries. A state is the count of its law's cumulative
    probabilities at or below the draw; they are +inf from the last
    positive-probability state on (``_capped_cumsum``), so a draw at or
    past a law's total, which may be 1 - ``PROB_ATOL``, takes that state."""
    init, cum = _capped_cumsum(model.init), _capped_cumsum(model.transition)
    out = np.empty((N, n), dtype=int)
    for lo in range(0, N, _BLOCK_PATHS):
        x = out[lo:lo + _BLOCK_PATHS]
        u = rng.random(x.shape)
        x[:, 0] = np.searchsorted(init, u[:, 0], side="right")
        for k in range(1, n):
            x[:, k] = (u[:, k, None] >= cum[x[:, k - 1]]).sum(axis=1)
    return out


def _simulate_contraction(model: ContractionNoiseModel, n, N, rng):
    z = np.asarray(model.init_sampler(rng, N))
    out = np.empty((N, n) + z.shape[1:])
    out[:, 0] = z
    for k in range(1, n):
        out[:, k] = model.theta_map(out[:, k - 1]) + np.asarray(model.noise_sampler(rng, N))
    return out


def _linear_moments(A, noise, mean1, cov1, n: int):
    """Means m_k and covariances S_k of X_1..X_n for X_1 ~ N(mean1, cov1)
    and X_{k+1} = A X_k + W_{k+1} with independent W_{k+1} ~ N(0, noise):
    m_{k+1} = A m_k, S_1 = cov1 and S_{k+1} = A S_k A^T + noise."""
    means, covs = [mean1], [cov1]
    for _ in range(n - 1):
        means.append(A @ means[-1])
        covs.append(A @ covs[-1] @ A.T + noise)
    return means, covs


def gaussian_chain_joint(model: GaussianKernelModel | ARMAModel, n: int) -> GaussianMeasure:
    """Exact joint Gaussian law of the stacked first n states of a
    Gaussian-kernel, OU or ARMA chain, with Cov(X_i, X_j) = A^(i-j) S_j
    for i >= j."""
    if not isinstance(model, (GaussianKernelModel, ARMAModel)):
        raise InputError(f"no Gaussian joint law for model kind {model.kind!r}")
    _check(n=n)
    A, _, mean1, _ = model.linear_form
    noise, cov1 = model.linear_covariances
    means, covs = _linear_moments(A, noise, mean1, cov1, n)
    m = A.shape[0]
    out = np.zeros((n * m, n * m))
    for j in range(n):
        out[j * m : (j + 1) * m, j * m : (j + 1) * m] = block = covs[j]
        for i in range(j + 1, n):
            block = A @ block
            out[i * m : (i + 1) * m, j * m : (j + 1) * m] = block
            out[j * m : (j + 1) * m, i * m : (i + 1) * m] = block.T
    return GaussianMeasure(np.concatenate(means), (out + out.T) / 2.0)


def tabular_joint_law(model: TabularModel, n: int, s: float = 1.0) -> DiscreteMeasure:
    """Joint law of a tabular chain on ``ProductSpace(model.state_space, n, s)``:
    the positive-probability paths as state-index tuples, in lexicographic
    order. Raises ``InputError`` once a step passes ``MAX_SUPPORT`` paths."""
    _check(n=n, s=s)
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
    return DiscreteMeasure(paths, weights, space=space)
