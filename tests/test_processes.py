import math
import os
import signal
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concentra import (
    ARMAModel,
    ContractionNoiseModel,
    GaussianKernelModel,
    InputError,
    OUModel,
    TabularModel,
    gaussian_chain_joint,
    ou_kappa,
    simulate_joint,
    simulate_path_sums,
    tabular_joint_law,
)
from concentra import processes
from concentra.processes import _BLOCK_PATHS, _rng, _simulate_linear, _simulate_tabular

import oracles


def test_tabular_model_validation():
    with pytest.raises(InputError):
        TabularModel(np.array([0.5, 0.6]), np.eye(2))
    with pytest.raises(InputError):
        TabularModel(np.array([0.5, 0.5]), np.array([[0.5, 0.6], [0.5, 0.5]]))
    m = TabularModel(np.array([1.0, 0.0]), np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert m.n_states == 2


def test_ou_kernel_conversion():
    g = OUModel(math.log(2.0), 1.0, x0=1.0)
    assert g.theta == pytest.approx(0.5, abs=1e-15)
    assert g.init_mean == pytest.approx(0.5, abs=1e-15)
    assert g.init_var == g.sigma2 == pytest.approx(0.75 / math.log(4.0), rel=1e-15)


@pytest.mark.parametrize("rho, tau, x0", [(1.0, 0.5, 0.3), (0.0, 0.7, -1.2), (2.5, 0.1, 0.0)])
def test_ou_model_is_its_gaussian_kernel(rho, tau, x0):
    """An OU chain gives the numbers of the Gaussian kernel built from
    ou_kappa, bit for bit."""
    ou = OUModel(rho, tau, x0)
    c = ou_kappa(rho, tau, 1, x0)
    g = GaussianKernelModel(c["theta"], c["sigma2"], c["theta"] * x0, c["sigma2"])
    assert isinstance(ou, GaussianKernelModel) and ou.kind == "ou"
    assert (ou.theta, ou.sigma2, ou.init_mean, ou.init_var) == (g.theta, g.sigma2, g.init_mean, g.init_var)
    assert np.array_equal(simulate_joint(ou, 6, 50, seed=4).values, simulate_joint(g, 6, 50, seed=4).values)
    a, b = gaussian_chain_joint(ou, 6), gaussian_chain_joint(g, 6)
    assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


def test_simulation_is_reproducible_and_seed_sensitive():
    model = GaussianKernelModel(0.5, 1.0)
    a = simulate_joint(model, 4, 100, seed=7)
    b = simulate_joint(model, 4, 100, seed=7)
    c = simulate_joint(model, 4, 100, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.n_paths == 100 and a.horizon == 4


_EXPLODING = ContractionNoiseModel(theta_map=lambda z: 1e200 * z, lipschitz=1e200,
                                   noise_sampler=lambda rng, size: rng.standard_normal(size),
                                   init_sampler=lambda rng, size: rng.standard_normal(size))


@pytest.mark.parametrize("model", [ARMAModel([[1e200]], [[1.0]]), GaussianKernelModel(1e200, 1.0), _EXPLODING],
                         ids=["arma", "gaussian_kernel", "contraction"])
def test_simulate_joint_raises_on_an_overflowing_chain(model):
    """In one block, and across blocks run on worker threads, whose NumPy
    error state is their own."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning on the way
        for N in (2, 2 * _BLOCK_PATHS + 1):
            with pytest.raises(InputError, match="step 3 of 4 has a non-finite value"):
                simulate_joint(model, 4, N)
            if isinstance(model, GaussianKernelModel):
                with pytest.raises(InputError, match="step 3 of 4 has a non-finite value"):
                    simulate_path_sums(model, 4, N)


def test_gaussian_simulation_moments():
    model = GaussianKernelModel(0.5, 1.0, init_mean=2.0, init_var=0.25)
    paths = simulate_joint(model, 3, 200_000, seed=1)
    assert paths.values[:, 0].mean() == pytest.approx(2.0, abs=0.01)
    assert paths.values[:, 0].var() == pytest.approx(0.25, abs=0.01)
    # E X_1 = theta * 2, Var X_1 = theta^2 * 0.25 + 1
    assert paths.values[:, 1].mean() == pytest.approx(1.0, abs=0.02)
    assert paths.values[:, 1].var() == pytest.approx(1.0625, abs=0.02)


def test_gaussian_and_ou_paths_are_pinned():
    """A seed's Gaussian-kernel and OU paths do not move: pinned values."""
    cases = [
        (GaussianKernelModel(0.5, 1.0, init_mean=2.0, init_var=0.25), [
            [2.1639361966834376, 0.37372358764392577, 0.3767484022455857],
            [2.7259080400908866, 0.14382760274182194, 0.042358611288821846],
            [2.015298914601182, 1.8413374287981128, 0.8751985312339693],
            [1.9687831612222184, 1.1849644124171266, -0.7779436719268602],
        ]),
        (OUModel(1.0, 0.5, x0=1.0), [
            [0.7908580229999418, 0.08150996674976463, 0.15619109945585558],
            [1.422730606557741, 0.1775461434260368, 0.09107147665655552],
            [0.623732526332969, 0.8470059309554916, 0.4881720752957572],
            [0.5714309215310485, 0.45935089279218055, -0.4918325948758826],
        ]),
    ]
    for model, want in cases:
        assert simulate_joint(model, 3, 4, seed=9).values.tolist() == want


_LINEAR_CHAINS = [
    OUModel(0.5, 0.3, x0=0.2),
    GaussianKernelModel(-0.7, 0.5, init_mean=0.3, init_var=2.0),
    GaussianKernelModel(0.0, 1.5),
    ARMAModel([[0.5, 0.1], [0.2, -0.3]], [[1.0, 0.2], [0.0, 0.7]]),
    ARMAModel(np.random.default_rng(1).normal(size=(3, 3)) * 0.4, np.random.default_rng(2).normal(size=(3, 3))),
]


@pytest.mark.parametrize("model", _LINEAR_CHAINS, ids=lambda m: f"{m.kind}-{m.linear_form[0].shape[0]}")
def test_time_major_sampler_matches_path_major_oracle(model):
    """The blocked in-place recursion gives the path-major sampler's paths
    bit for bit, for every seed, one path, one step, a block's worth of
    paths and block boundaries that leave a one- or two-path remainder."""
    sizes = [(1, 1), (1, 6), (2, 4), (7, 3), (1000, 20), (3, 40), (_BLOCK_PATHS, 2),
             (_BLOCK_PATHS + 1, 3), (2 * _BLOCK_PATHS + 2, 5), (2 * _BLOCK_PATHS, 1)]
    for seed in (0, 1, 23):
        for N, n in sizes:
            want = oracles.simulate_linear_path_major(*model.linear_form, n, N, seed, _BLOCK_PATHS)
            got, finite = _simulate_linear(*model.linear_form, n, N, seed)
            assert got.shape == want.shape and np.array_equal(got, want), (seed, N, n)
            assert finite.shape == (n,) and finite.all()


def test_paths_of_one_block_are_pinned():
    """Up to one block (N <= _BLOCK_PATHS) the paths are those of one
    Philox stream drawn path-major: pinned values of its last paths."""
    ou = simulate_joint(OUModel(0.5, 0.3, x0=0.2), 5, _BLOCK_PATHS, seed=3).values
    assert ou[-1].tolist() == [0.6972905418178617, 1.292052349548296, 0.7486645513371255,
                               0.38834441384965696, 0.3770316455491039]
    assert ou[2047].tolist() == [-0.6475924812503248, -0.3684490334996565, -0.7955829868975883,
                                 -0.8219388242542933, -0.4661045642424013]
    arma = simulate_joint(_LINEAR_CHAINS[3], 3, _BLOCK_PATHS, seed=5).values
    assert arma[-1].tolist() == [[1.3136450587786075, -2.1496698093732114],
                                 [2.1064816508555104, 0.6009435011469297],
                                 [3.6260394153195596, 2.023478370912741]]


def test_paths_do_not_depend_on_the_worker_count(monkeypatch):
    """The calling thread alone, with one helper, and with three helpers on
    a fast thread switch give the same paths and path sums: each block
    writes only its own rows, whichever thread draws it."""
    cases = [(_LINEAR_CHAINS[0], 7, 3 * _BLOCK_PATHS + 5), (_LINEAR_CHAINS[4], 4, 2 * _BLOCK_PATHS + 1)]
    runs = []
    interval = sys.getswitchinterval()
    try:
        for helpers in (0, 1, 3):
            with ThreadPoolExecutor(max(helpers, 1)) as pool:
                monkeypatch.setattr(processes, "_POOL", (os.getpid(), pool if helpers else None, helpers))
                if helpers == 3:
                    sys.setswitchinterval(1e-6)
                runs.append([simulate_joint(m, n, N, seed=11).values for m, n, N in cases]
                            + [simulate_path_sums(cases[0][0], 7, cases[0][2], seed=11)])
                sys.setswitchinterval(interval)
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))


@pytest.mark.parametrize("N", [2, _BLOCK_PATHS, _BLOCK_PATHS + 1, 3 * _BLOCK_PATHS - 1])
def test_path_sums_are_row_sums_of_the_paths(N):
    """simulate_path_sums is simulate_joint's values.sum(axis=1), bit for
    bit, in one block and across block boundaries."""
    for model, n in ((OUModel(0.7, 0.4, x0=-0.5), 30), (GaussianKernelModel(-0.9, 2.0), 3)):
        want = simulate_joint(model, n, N, seed=17).values.sum(axis=1)
        assert np.array_equal(simulate_path_sums(model, n, N, seed=17), want)
    with pytest.raises(InputError, match="Gaussian-kernel chain"):
        simulate_path_sums(_LINEAR_CHAINS[3], 3, N)


def test_a_forked_child_makes_its_own_pool():
    """A pool made before fork has no threads in the child; the child's
    sampler makes a new one and draws the parent's paths."""
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    model, n, N = _LINEAR_CHAINS[0], 3, 2 * _BLOCK_PATHS + 3
    want = simulate_joint(model, n, N, seed=2).values  # makes the parent's pool
    pid = os.fork()
    if pid == 0:  # the child reports through its exit status only
        ok = False
        try:
            ok = np.array_equal(simulate_joint(model, n, N, seed=2).values, want)
            ok = ok and processes._POOL[0] == os.getpid()
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's sampler did not finish within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


def test_tabular_simulation_matches_joint_law():
    model = TabularModel(np.array([0.6, 0.4]), np.array([[0.7, 0.3], [0.2, 0.8]]))
    paths = simulate_joint(model, 2, 300_000, seed=3)
    law = tabular_joint_law(model, 2)
    counts = {}
    for row in paths.values:
        key = tuple(int(v) for v in row)
        counts[key] = counts.get(key, 0) + 1
    for pt, w in zip(law.support, law.weights):
        emp = counts.get(tuple(int(v) for v in pt), 0) / paths.n_paths
        assert emp == pytest.approx(float(w), abs=0.005)


_TABULAR_CHAINS = [
    TabularModel([0.6, 0.4], [[0.7, 0.3], [0.2, 0.8]]),
    # zero-probability states, leading, inner and trailing
    TabularModel([0.0, 0.3, 0.0, 0.7, 0.0],
                 [[0.0, 0.5, 0.5, 0.0, 0.0], [0.2, 0.0, 0.3, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0],
                  [0.1, 0.2, 0.3, 0.4, 0.0], [0.25, 0.25, 0.25, 0.25, 0.0]]),
    TabularModel(np.full(10, 0.1), np.random.default_rng(2).dirichlet(np.ones(10), size=10)),
]


def test_blocked_tabular_sampler_is_the_whole_table_sampler(monkeypatch):
    """Drawn one _BLOCK_PATHS block of paths at a time from one stream, the
    paths equal those of one (N, n) draw for every N, at the real block
    size around its boundaries and at a block of 3 for every N to 3 blocks
    and 5 paths."""
    for model in _TABULAR_CHAINS:
        for N in (1, 2, _BLOCK_PATHS - 1, _BLOCK_PATHS, _BLOCK_PATHS + 1, 3 * _BLOCK_PATHS + 5):
            for n in (1, 4):
                want = oracles.simulate_tabular_whole_table(model, n, N, _rng(7))
                assert np.array_equal(_simulate_tabular(model, n, N, _rng(7)), want), (N, n)
        # simulate_joint returns the integer path table as drawn, with no finite check
        paths = simulate_joint(model, 6, 2 * _BLOCK_PATHS + 1, seed=4).values
        assert paths.dtype.kind == "i"
        assert np.array_equal(paths, oracles.simulate_tabular_whole_table(model, 6, 2 * _BLOCK_PATHS + 1, _rng(4)))
    monkeypatch.setattr(processes, "_BLOCK_PATHS", 3)
    for model in _TABULAR_CHAINS:
        for N in range(1, 3 * 3 + 6):
            want = oracles.simulate_tabular_whole_table(model, 5, N, _rng(N))
            assert np.array_equal(_simulate_tabular(model, 5, N, _rng(N)), want), N


class _ConstantDraws:
    """An ``rng`` stand-in whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def test_tabular_draw_past_the_row_total_takes_the_last_positive_state():
    """Rows may sum to 1 - PROB_ATOL: a draw at or past a row's total goes
    to the row's last positive-probability state, never to a state out of
    range or of zero probability."""
    short = 1.0 - 1e-12
    model = TabularModel([0.5, short - 0.5], [[0.5, short - 0.5], [0.25, short - 0.25]])
    for u in (short, 1.0 - 5e-13):
        assert _simulate_tabular(model, 1, 2, _ConstantDraws(u)).tolist() == [[1], [1]]
        assert _simulate_tabular(model, 3, 2, _ConstantDraws(u)).tolist() == [[1, 1, 1]] * 2
    trailing = TabularModel([0.5, short - 0.5, 0.0], [[short, 0.0, 0.0], [0.0, short, 0.0], [0.0, 0.5, 0.5]])
    paths = _simulate_tabular(trailing, 4, 3, _ConstantDraws(1.0 - 5e-13))
    assert paths.tolist() == [[1, 1, 1, 1]] * 3
    # below the total the draws are those of the plain cumulative sums
    below = _ConstantDraws(short - 1e-15)
    for m in (model, trailing):
        assert np.array_equal(_simulate_tabular(m, 4, 2, below),
                              oracles.simulate_tabular_whole_table(m, 4, 2, below))


def test_arma_simulation_covariance():
    model = ARMAModel(np.array([[0.5]]), np.array([[1.0]]))
    paths = simulate_joint(model, 3, 200_000, seed=5)
    flat = paths.values.reshape(paths.n_paths, 3)
    emp = np.cov(flat.T)
    want = gaussian_chain_joint(ARMAModel(model.A, model.B), 3).cov
    assert np.max(np.abs(emp - want)) < 0.03


def test_arma_2d_simulation_covariance():
    model = ARMAModel(np.array([[0.5, 0.1], [-0.2, 0.4]]), np.array([[1.0, 0.0], [0.3, 0.8]]))
    paths = simulate_joint(model, 3, 200_000, seed=6)
    assert paths.values.shape == (200_000, 3, 2)
    flat = paths.values.reshape(paths.n_paths, 6)
    mean, want = oracles.linear_gaussian_joint(model.A, model.B, np.zeros(2), np.eye(2), 3)
    assert np.max(np.abs(flat.mean(axis=0) - mean)) < 0.03
    assert np.max(np.abs(np.cov(flat.T) - want)) < 0.03


def test_contraction_model_simulation():
    model = ContractionNoiseModel(
        theta_map=lambda z: 0.5 * z,
        lipschitz=0.5,
        noise_sampler=lambda rng, size: rng.standard_normal(size),
        init_sampler=lambda rng, size: rng.standard_normal(size),
    )
    paths = simulate_joint(model, 4, 50_000, seed=2)
    # stationary variance 1/(1 - 0.25) = 4/3 approached from 1
    assert paths.values[:, 3].var() == pytest.approx(1.3125, abs=0.03)


def _tabular_chain():
    trans = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.0, 0.4, 0.6]])
    return TabularModel(np.full(3, 1.0 / 3.0), trans, labels=(-1.0, 0.5, 2.0))


def test_arma_joint_covariance_properties():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    a *= 0.6 / max(abs(np.linalg.eigvals(a)))
    cov = gaussian_chain_joint(ARMAModel(a, np.eye(2)), 4).cov
    assert cov.shape == (8, 8)
    assert np.allclose(cov, cov.T)
    assert np.min(np.linalg.eigvalsh(cov)) > 0
    assert np.allclose(cov[:2, :2], np.eye(2))


def test_gaussian_chain_joint_matches_arma_scalar():
    model = GaussianKernelModel(0.5, 1.0, init_mean=0.0, init_var=1.0)
    joint = gaussian_chain_joint(model, 4)
    want = gaussian_chain_joint(ARMAModel(np.array([[0.5]]), np.array([[1.0]])), 4).cov
    assert np.max(np.abs(joint.cov - want)) < 1e-12
    assert np.max(np.abs(joint.mean)) == 0.0


@pytest.mark.parametrize("theta, n", [(3.0, 20), (2.0, 30), (3.0, 40), (-0.7, 25)])
def test_gaussian_chain_joint_builds_expansive_chains(theta, n):
    """Covariances with entries up to ~1e38 pass the relative PSD check,
    and the broadcast covariance matches the entrywise formula."""
    model = GaussianKernelModel(theta, 1.3, init_mean=0.2, init_var=0.7)
    cov = gaussian_chain_joint(model, n).cov
    var = [0.7]
    for _ in range(n - 1):
        var.append(theta**2 * var[-1] + 1.3)
    for i in range(n):
        for j in range(n):
            want = theta ** abs(i - j) * var[min(i, j)]
            assert cov[i, j] == pytest.approx(want, rel=1e-15, abs=0)


def test_gaussian_chain_joint_takes_the_variances_as_given():
    """S_1 = init_var and the noise sigma2 enter the moment recursion as
    given; squaring their square roots back gave 2.0000000000000004."""
    cov = gaussian_chain_joint(GaussianKernelModel(0.3, 0.25, init_var=2.0), 2).cov
    assert cov[0][0] == 2.0 and cov[0][1] == cov[1][0] == 0.6
    ou = OUModel(0.7, 0.3, 1.0)
    assert gaussian_chain_joint(ou, 1).cov[0][0] == ou.sigma2


def test_gaussian_chain_joint_mean_recursion():
    model = GaussianKernelModel(0.5, 1.0, init_mean=2.0)
    joint = gaussian_chain_joint(model, 3)
    assert np.allclose(joint.mean, [2.0, 1.0, 0.5])


@st.composite
def _linear_chains(draw):
    """A Gaussian-kernel, OU or ARMA chain, with its linear form
    (A, B, mean1, root1) written out from the model's parameters."""
    kind = draw(st.sampled_from(["gaussian_kernel", "ou", "arma"]))
    if kind == "arma":
        m = draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a = rng.normal(size=(m, m))
        a *= draw(st.floats(0.0, 1.5)) / max(abs(np.linalg.eigvals(a)))
        b = rng.normal(size=(m, m))
        return ARMAModel(a, b), (a, b, np.zeros(m), np.eye(m))
    if kind == "ou":
        model = OUModel(draw(st.floats(-0.4, 2.0)), draw(st.floats(0.05, 1.0)), draw(st.floats(-3.0, 3.0)))
    else:
        model = GaussianKernelModel(draw(st.floats(-1.5, 1.5)), draw(st.floats(0.05, 3.0)),
                                    draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 3.0)))
    form = ([[model.theta]], [[math.sqrt(model.sigma2)]], [model.init_mean], [[math.sqrt(model.init_var)]])
    return model, tuple(np.array(x) for x in form)


@settings(max_examples=80, deadline=None)
@given(_linear_chains(), st.integers(1, 12))
def test_gaussian_chain_joint_matches_innovation_map_oracle(chain, n):
    model, form = chain
    joint = gaussian_chain_joint(model, n)
    mean, cov = oracles.linear_gaussian_joint(*form, n)
    tol = 1e-12 * max(1.0, np.abs(cov).max())
    assert np.max(np.abs(joint.mean - mean)) <= tol
    assert np.max(np.abs(joint.cov - cov)) <= tol


def test_gaussian_chain_joint_rejects_other_kinds_and_empty_horizons():
    with pytest.raises(InputError):
        gaussian_chain_joint(_tabular_chain(), 3)
    with pytest.raises(InputError):
        gaussian_chain_joint(GaussianKernelModel(0.5, 1.0), 0)


def test_tabular_joint_law_size_guard():
    m = TabularModel(np.full(8, 0.125), np.full((8, 8), 0.125))
    with pytest.raises(InputError):
        tabular_joint_law(m, 7)
