import math

import numpy as np
import pytest

from concentra import (
    ARMAModel,
    ContractionNoiseModel,
    GaussianKernelModel,
    InputError,
    OUModel,
    TabularModel,
    arma_joint_covariance,
    gaussian_chain_joint,
    kernel_law,
    kernel_lipschitz_estimate,
    lambda_mgf_estimate,
    ms_estimate,
    ou_transition,
    simulate_joint,
    tabular_joint_law,
)


def test_tabular_model_validation():
    with pytest.raises(InputError):
        TabularModel(np.array([0.5, 0.6]), np.eye(2))
    with pytest.raises(InputError):
        TabularModel(np.array([0.5, 0.5]), np.array([[0.5, 0.6], [0.5, 0.5]]))
    m = TabularModel(np.array([1.0, 0.0]), np.array([[0.9, 0.1], [0.2, 0.8]]))
    assert m.n_states == 2


def test_ou_kernel_conversion():
    ou = OUModel(math.log(2.0), 1.0, x0=1.0)
    g = ou.as_gaussian_kernel()
    assert g.theta == pytest.approx(0.5, abs=1e-15)
    assert g.init_mean == pytest.approx(0.5, abs=1e-15)
    law = ou_transition(1.0, math.log(2.0), 1.0)
    assert law.mean[0] == pytest.approx(0.5, abs=1e-15)
    assert law.cov[0, 0] == pytest.approx(g.sigma2, abs=1e-15)


def test_simulation_is_reproducible_and_seed_sensitive():
    model = GaussianKernelModel(0.5, 1.0)
    a = simulate_joint(model, 4, 100, seed=7)
    b = simulate_joint(model, 4, 100, seed=7)
    c = simulate_joint(model, 4, 100, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.n_paths == 100 and a.horizon == 4


def test_gaussian_simulation_moments():
    model = GaussianKernelModel(0.5, 1.0, init_mean=2.0, init_var=0.25)
    paths = simulate_joint(model, 3, 200_000, seed=1)
    assert paths.values[:, 0].mean() == pytest.approx(2.0, abs=0.01)
    assert paths.values[:, 0].var() == pytest.approx(0.25, abs=0.01)
    # E X_1 = theta * 2, Var X_1 = theta^2 * 0.25 + 1
    assert paths.values[:, 1].mean() == pytest.approx(1.0, abs=0.02)
    assert paths.values[:, 1].var() == pytest.approx(1.0625, abs=0.02)


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


def test_arma_simulation_covariance():
    model = ARMAModel(np.array([[0.5]]), np.array([[1.0]]))
    paths = simulate_joint(model, 3, 200_000, seed=5)
    flat = paths.values.reshape(paths.n_paths, 3)
    emp = np.cov(flat.T)
    want = arma_joint_covariance(model.A, model.B, 3)
    assert np.max(np.abs(emp - want)) < 0.03


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


def test_kernel_law_tabular_needs_labels():
    m = TabularModel(np.array([1.0, 0.0]), np.array([[0.5, 0.5], [0.1, 0.9]]))
    with pytest.raises(InputError):
        kernel_law(m, 0)
    m2 = TabularModel(
        np.array([1.0, 0.0]), np.array([[0.5, 0.5], [0.1, 0.9]]), labels=(0.0, 2.0)
    )
    law = kernel_law(m2, 0)
    assert law.as_dict() == {0.0: 0.5, 2.0: 0.5}


def test_kernel_lipschitz_estimate_gaussian_is_theta():
    model = GaussianKernelModel(0.7, 2.0)
    for s in (1.0, 1.5, 2.0):
        est = kernel_lipschitz_estimate(model, [(-1.0, 1.0), (0.0, 3.0)], s)
        assert est == pytest.approx(0.7, rel=1e-7)
    for s in (1.0, 1.5, 2.0):
        est = kernel_lipschitz_estimate(GaussianKernelModel(-0.6, 0.5), [(-1.0, 1.0), (0.0, 3.0)], s)
        assert est == pytest.approx(0.6, rel=1e-15)
    with pytest.raises(InputError):
        kernel_lipschitz_estimate(model, [(1.0, 1.0)], 2.0)


def test_kernel_lipschitz_estimate_tabular():
    m = TabularModel(
        np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]), labels=(0.0, 1.0)
    )
    # deterministic identity kernel moves mass exactly with the state
    assert kernel_lipschitz_estimate(m, [(0, 1)], 1.0) == pytest.approx(1.0, abs=1e-12)


def test_ms_estimate_gaussian_quadratic_energy():
    model = GaussianKernelModel(0.5, 1.0)
    # kernel energy gradient du/dx = -theta (y - theta x) / sigma2
    grad = lambda hist, y: [-0.5 * (y - 0.5 * hist[-1])]
    for s in (1.0, 2.0):
        got = ms_estimate(grad, model, s)
        assert got == pytest.approx(0.25, rel=1e-9)


def test_ms_estimate_holder_norm_direction():
    model = GaussianKernelModel(0.5, 1.0)
    grad = lambda hist, y: [1.0, 1.0]  # constant two-coordinate gradient
    # s = 2 -> dual 2-norm squared = 2; s = 1 -> sup norm squared = 1
    assert ms_estimate(grad, model, 2.0) == pytest.approx(2.0, rel=1e-9)
    assert ms_estimate(grad, model, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_lambda_mgf_closed_form_and_quadrature_agree():
    model = GaussianKernelModel(0.5, 2.0)
    closed, wit = lambda_mgf_estimate(None, model, [])
    assert wit["closed_form"]
    assert closed == pytest.approx(0.125, rel=1e-12)
    grad = lambda hist, y: -0.25 * (y - 0.5 * hist[0])  # du/dx for this kernel
    est, wit2 = lambda_mgf_estimate(grad, model, np.linspace(-2, 2, 9))
    assert est == pytest.approx(closed, rel=1e-6)
    assert not wit2["closed_form"]


def test_arma_joint_covariance_properties():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    a *= 0.6 / max(abs(np.linalg.eigvals(a)))
    cov = arma_joint_covariance(a, np.eye(2), 4)
    assert cov.shape == (8, 8)
    assert np.allclose(cov, cov.T)
    assert np.min(np.linalg.eigvalsh(cov)) > 0
    assert np.allclose(cov[:2, :2], np.eye(2))


def test_gaussian_chain_joint_matches_arma_scalar():
    model = GaussianKernelModel(0.5, 1.0, init_mean=0.0, init_var=1.0)
    joint = gaussian_chain_joint(model, 4)
    want = arma_joint_covariance(np.array([[0.5]]), np.array([[1.0]]), 4)
    assert np.max(np.abs(joint.cov - want)) < 1e-12
    assert np.max(np.abs(joint.mean)) == 0.0


def test_gaussian_chain_joint_mean_recursion():
    model = GaussianKernelModel(0.5, 1.0, init_mean=2.0)
    joint = gaussian_chain_joint(model, 3)
    assert np.allclose(joint.mean, [2.0, 1.0, 0.5])


def test_tabular_joint_law_size_guard():
    m = TabularModel(np.full(8, 0.125), np.full((8, 8), 0.125))
    with pytest.raises(InputError):
        tabular_joint_law(m, 7)
