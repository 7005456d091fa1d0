"""Acceptance suite: twelve end-to-end criteria, one verdict line each."""
import math
import time

import numpy as np

from concentra import (
    ARMAModel,
    DiscreteMeasure,
    FiniteMetricSpace,
    GaussianKernelModel,
    GaussianMeasure,
    OUModel,
    ProductSpace,
    REAL_LINE,
    TabularModel,
    arma_lsi_alpha,
    best_constant,
    check_gc,
    check_lsi_grid,
    chain_rule_decompose,
    gaussian_chain_joint,
    gc_markov_kappa,
    gc_weak_kappa_general,
    kantorovich_dual_w1,
    lsi_markov_alpha,
    lsi_markov_kernel_alpha,
    lsi_weak_alpha_general,
    contraction_noise_alpha,
    ou_kappa,
    recursive_coupling_bound,
    relative_entropy_discrete,
    simulate_joint,
    tabular_joint_law,
    transport_inequality_audit,
    ts_general_alpha,
    ts_markov_alpha,
    wasserstein_exact,
    wasserstein_gaussian_w2,
)

import oracles


def _report(tag: str, desc: str, ok: bool, detail: str = "") -> None:
    print(f"{tag} {desc}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{tag} {desc}: {detail}"


def test_a1_ou_cross_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for theta in (0.5, 1.0, 1.5):
        rho = -math.log(theta)
        for n in range(1, 21):
            out = ou_kappa(rho, 1.0, n)
            direct = float(gaussian_chain_joint(OUModel(rho, 1.0), n).cov.sum())
            worst = max(worst, abs(out["kappa_n"] - direct) / abs(direct))
    elapsed = time.perf_counter() - t0
    _report(
        "A1", "OU cross-identity", worst <= 1e-12 and elapsed < 1.0,
        f"worst_rel={worst:.2e}, {elapsed:.2f}s",
    )


def test_a2_ou_mgf_exactness():
    t0 = time.perf_counter()
    n, big_n = 5, 100_000
    out = ou_kappa(1.0, 0.5, n, 0.0)
    paths = simulate_joint(OUModel(1.0, 0.5, 0.0), n, big_n, seed=0)
    fn = paths.values.sum(axis=1)
    worst_se = 0.0
    for s in (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0):
        shift = float(np.max(s * fn))
        y = np.exp(s * fn - shift)
        emp = shift + math.log(float(y.mean()))
        se = float(y.std(ddof=1) / (y.mean() * math.sqrt(big_n)))
        target = s * out["mean_Fn"] + s * s * out["kappa_n"] / 2.0
        worst_se = max(worst_se, abs(emp - target) / se)
    elapsed = time.perf_counter() - t0
    _report(
        "A2", "OU MGF exactness", worst_se <= 3.0 and elapsed < 30.0,
        f"worst={worst_se:.2f} std errs, {elapsed:.1f}s",
    )


def test_a3_kr_duality():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.2, 2.0, size=(n, n))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        for k in range(n):  # shortest-path closure makes it a metric
            w = np.minimum(w, w[:, k, None] + w[None, k, :])
        space = FiniteMetricSpace(tuple(range(n)), w)
        mu = DiscreteMeasure(tuple(range(n)), rng.dirichlet(np.ones(n)), space=space)
        nu = DiscreteMeasure(tuple(range(n)), rng.dirichlet(np.ones(n)), space=space)
        primal = wasserstein_exact(mu, nu, 1.0)[0]
        dual = kantorovich_dual_w1(mu, nu)[0]
        worst = max(worst, abs(primal - dual))
    elapsed = time.perf_counter() - t0
    _report(
        "A3", "KR duality", worst <= 1e-9 and elapsed < 10.0,
        f"worst_gap={worst:.2e}, {elapsed:.1f}s",
    )


def test_a4_chain_rule():
    t0 = time.perf_counter()
    support = tuple((i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1))
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        q = DiscreteMeasure(support, rng.dirichlet(np.ones(8)))
        p = DiscreteMeasure(support, rng.dirichlet(np.ones(8)))
        direct = relative_entropy_discrete(q, p)
        worst = max(worst, abs(chain_rule_decompose(q, p).total - direct))
    elapsed = time.perf_counter() - t0
    _report(
        "A4", "chain-rule identity", worst <= 1e-10 and elapsed < 5.0,
        f"worst_gap={worst:.2e}, {elapsed:.1f}s",
    )


def test_a5_gaussian_w2_vs_lp():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m1, m2 = rng.normal(0.0, 1.0, size=2)
        v1, v2 = rng.uniform(0.5, 2.0, size=2)
        closed = wasserstein_gaussian_w2(
            GaussianMeasure([m1], [[v1]]), GaussianMeasure([m2], [[v2]])
        )

        def disc(mean, var):
            sd = math.sqrt(var)
            xs = np.linspace(mean - 6 * sd, mean + 6 * sd, 300)
            wts = np.exp(-((xs - mean) ** 2) / (2 * var))
            return DiscreteMeasure(tuple(xs), wts / wts.sum())

        lp = wasserstein_exact(disc(m1, v1), disc(m2, v2), 2.0)[0]
        worst = max(worst, abs(lp - closed) / closed)
    elapsed = time.perf_counter() - t0
    _report(
        "A5", "Gaussian W2 vs discretized LP", worst <= 0.02 and elapsed < 30.0,
        f"worst_rel={worst:.3%}, {elapsed:.1f}s",
    )


def test_a6_arma_lsi_bound():
    t0 = time.perf_counter()
    ok = True
    worst = -math.inf
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = 2 if seed % 2 == 0 else 3
        a = rng.normal(size=(m, m))
        a *= rng.uniform(0.2, 0.9) / max(abs(np.linalg.eigvals(a)))
        alpha = arma_lsi_alpha(a, np.eye(m))
        for n in range(1, 11):
            exact = 1.0 / float(np.max(np.linalg.eigvalsh(gaussian_chain_joint(ARMAModel(a, np.eye(m)), n).cov)))
            worst = max(worst, alpha - exact)
            ok = ok and alpha <= exact + 1e-9
    elapsed = time.perf_counter() - t0
    _report(
        "A6", "ARMA LSI lower-bounds the exact Gaussian constant",
        ok and elapsed < 20.0, f"worst_excess={worst:.2e}, {elapsed:.1f}s",
    )


def test_a7_tensorization():
    t0 = time.perf_counter()
    kappa = 0.25
    ok = True
    for n in range(1, 5):
        support = tuple(
            tuple(float(b) for b in np.binary_repr(i, width=n)) for i in range(2**n)
        )
        mu = DiscreteMeasure(
            support, np.full(2**n, 2.0**-n), space=ProductSpace(REAL_LINE, n, 1.0)
        )
        ok = ok and check_gc(mu, n * kappa).passed
    # failure direction at n = 1 where the extremal function is known
    single = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))
    ok = ok and not check_gc(single, 0.9 * kappa).passed
    elapsed = time.perf_counter() - t0
    _report("A7", "GC tensorization on the hypercube", ok and elapsed < 20.0, f"{elapsed:.1f}s")


def test_a8_transport_regimes():
    t0 = time.perf_counter()
    worst = -math.inf
    for theta in (0.5, 1.0, 2.0):
        p = GaussianKernelModel(theta, 1.0)
        perturbs = [
            GaussianKernelModel(theta, 1.0, init_mean=c)
            for c in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
        ]
        report = transport_inequality_audit(
            p, alpha_hyp=1.0, s=2.0, L_hyp=theta**2, n=3, perturbations=perturbs
        )
        worst = max(worst, report["worst_slack"])
    elapsed = time.perf_counter() - t0
    _report(
        "A8", "transport inequality across regimes", worst <= 1e-6 and elapsed < 60.0,
        f"worst_slack={worst:.2e}, {elapsed:.1f}s",
    )


def test_a9_coupling_bound_validity():
    t0 = time.perf_counter()
    ok = True
    worst = -math.inf
    eq_gap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = TabularModel(rng.dirichlet(np.ones(2)), np.vstack([rng.dirichlet(np.ones(2)) for _ in range(2)]))
        q = TabularModel(rng.dirichlet(np.ones(2)), np.vstack([rng.dirichlet(np.ones(2)) for _ in range(2)]))
        for s in (1.0, 2.0):
            for n in (2, 3):
                bound = recursive_coupling_bound(p, q, n, s).upper_bound
                pj, qj = tabular_joint_law(p, n, s), tabular_joint_law(q, n, s)
                exact = wasserstein_exact(qj, pj, s, space=qj.space)[0]
                worst = max(worst, exact - bound)
                ok = ok and bound >= exact - 1e-9
            one = recursive_coupling_bound(p, q, 1, s).upper_bound
            exact1 = wasserstein_exact(
                tabular_joint_law(q, 1, s), tabular_joint_law(p, 1, s), s
            )[0]
            eq_gap = max(eq_gap, abs(one - exact1))
    ok = ok and eq_gap <= 1e-10
    elapsed = time.perf_counter() - t0
    _report(
        "A9", "coupling bound dominates exact W_s", ok and elapsed < 60.0,
        f"worst_undershoot={worst:.2e}, n=1 gap={eq_gap:.2e}, {elapsed:.1f}s",
    )


def test_a10_lsi_calibration():
    t0 = time.perf_counter()
    grid = np.linspace(-6.0, 6.0, 601)
    dens = np.exp(-(grid**2) / 2.0)
    best = best_constant(lambda a: check_lsi_grid(grid, dens, a), (0.5, 2.0))
    elapsed = time.perf_counter() - t0
    _report(
        "A10", "LSI checker calibration on N(0,1)", 0.9 <= best <= 1.1 and elapsed < 30.0,
        f"best_alpha={best:.4f}, {elapsed:.1f}s",
    )


def test_a11_constant_regressions():
    t0 = time.perf_counter()
    checks = [
        (gc_markov_kappa(1.0, 1.0, 3), oracles.oracle_gc_markov(1.0, 1.0, 3)),
        (gc_weak_kappa_general(1.0, 1.0, 2), oracles.oracle_gc_general(1.0, 1.0, 2)),
        (ts_markov_alpha(1.0, 2.0, 1.0, 3).value, oracles.oracle_ts(1.0, 2.0, 1.0, 3)),
        (ts_markov_alpha(1.0, 1.0, 2.0, 1).value, oracles.oracle_ts(1.0, 1.0, 2.0, 1)),
        (ts_general_alpha(1.0, 1.0, 1.0, 2), oracles.oracle_ts_general(1.0, 1.0, 1.0, 2)),
        (lsi_markov_alpha(1.0, 1.0, 2).value, oracles.oracle_lsi_markov(1.0, 1.0, 2)),
        (lsi_markov_alpha(1.0, 2.0, 1).value, oracles.oracle_lsi_markov(1.0, 2.0, 1)),
        (
            lsi_weak_alpha_general(1.0, [[0.0, 0.0], [1.0, 0.0]], 2, epsilon=1.0),
            oracles.oracle_lsi_weak_general(1.0, [[0.0, 0.0], [1.0, 0.0]], 2, 1.0),
        ),
        (lsi_markov_kernel_alpha(1.0, 1.0, 3).value, oracles.oracle_lsi_weak(1.0, 1.0, 3)),
        (contraction_noise_alpha(1.0, 2.0, 2).value, oracles.oracle_contraction(1.0, 2.0, 2)),
    ]
    got = ou_kappa(math.log(2.0), 1.0, 2, 1.0)
    want = oracles.oracle_ou(math.log(2.0), 1.0, 2, 1.0)
    checks += [(got[k], want[k]) for k in ("theta", "sigma2", "kappa_n", "mean_Fn")]
    worst = max(abs(a - b) / max(abs(b), 1e-300) for a, b in checks)
    elapsed = time.perf_counter() - t0
    _report(
        "A11", "constant formulas match direct-summation oracles",
        worst <= 1e-12 and elapsed < 1.0, f"worst_rel={worst:.2e}",
    )


def test_a12_s2_n_independence():
    ok = True
    for L in (0.1, 0.5, 0.9):
        v1 = ts_markov_alpha(1.0, L, 2.0, 1).value
        v10 = ts_markov_alpha(1.0, L, 2.0, 10).value
        v100 = ts_markov_alpha(1.0, L, 2.0, 100).value
        ok = ok and v1 == v10 == v100
    _report("A12", "s=2 transport constant is n-independent", ok)
