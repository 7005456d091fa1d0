import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import oracles

from concentra import (
    DiscreteMeasure,
    FiniteMetricSpace,
    InputError,
    best_constant,
    check_bg_duality,
    check_gc,
    check_lsi_grid,
    check_transport,
    replay,
)
from concentra.certify import (
    Certificate,
    _line_wasserstein,
    _logsumexp,
    default_lsi_family,
    default_t_grid,
    gc_slack,
    lipschitz_family,
    lipschitz_polytope_vertices,
    lsi_slack,
    tilt_family,
    transport_slack,
)
from concentra.transport import wasserstein_1d

TWO_POINT = DiscreteMeasure((0.0, 1.0), np.array([0.5, 0.5]))


def scalar_gc_slack_oracle(kappa, t):
    """Two-point uniform measure, f = indicator: log cosh(t/2) - kappa t^2/2."""
    return math.log(math.cosh(t / 2.0)) - kappa * t * t / 2.0


def test_gc_slack_matches_scalar_oracle():
    f = np.array([0.0, 1.0])
    for t in (-3.0, -0.5, 0.7, 2.0):
        got = gc_slack(TWO_POINT, 0.2, f, t)
        assert got == pytest.approx(scalar_gc_slack_oracle(0.2, t), abs=1e-12)


def _mp_logsumexp(a):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        terms = [mpmath.exp(mpmath.mpf(float(x))) for x in a if x != -math.inf]
        return float(mpmath.log(mpmath.fsum(terms))) if terms else -math.inf


def test_logsumexp_within_two_ulp_of_mpmath():
    """The slack kernel's log-sum-exp against 60-digit arithmetic, on
    arrays with tied maxima, -inf entries and magnitudes from 1e-3 to 1e3,
    one array at a time and along the last axis of a 3-D block."""
    rng = np.random.default_rng(0)
    arrays = []
    for i in range(600):
        k = int(rng.integers(1, 40))
        a = rng.normal(size=k) * 10 ** rng.uniform(-3, 3)
        if i % 3 == 0:
            a[rng.integers(0, k, size=rng.integers(1, k + 1))] = a.max()
        if i % 4 == 0:
            a[rng.integers(0, k)] = -math.inf
        arrays.append(a)
    arrays += [np.full(5, 0.25), np.array([-math.inf, 0.0]), np.array([-1e308, 700.0, 700.0])]
    for a in arrays:
        got, want = float(_logsumexp(a)), _mp_logsumexp(a)
        assert got == want or abs(got - want) <= 2 * math.ulp(want), a
    block = rng.normal(size=(3, 4, 9)) * 5.0
    block[0, :, 2] = block[0].max(axis=-1)
    block[1, :, 0] = -math.inf
    got = _logsumexp(block)
    assert got.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        want = _mp_logsumexp(block[idx])
        assert abs(got[idx] - want) <= 2 * math.ulp(want)


def test_logsumexp_edge_values():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _logsumexp(np.array([-math.inf, -math.inf])) == -math.inf
        assert _logsumexp(np.array([math.inf, 1.0])) == math.inf
        assert math.isnan(_logsumexp(np.array([math.nan, 1.0])))
        assert _logsumexp(np.array([3.0])) == 3.0
        assert _logsumexp(np.array([3.0, 3.0])) == 3.0 + math.log(2.0)


def test_check_gc_two_point_boundary():
    # kappa = 1/4 is the exact constant of the uniform two-point measure
    assert check_gc(TWO_POINT, 0.25).passed
    cert = check_gc(TWO_POINT, 0.2)
    assert not cert.passed
    assert cert.worst_slack > 0
    # point masses concentrate perfectly at any constant
    delta = DiscreteMeasure((0.0,), np.array([1.0]))
    assert check_gc(delta, 1e-6).passed


def test_gc_monotone_in_kappa():
    verdicts = [check_gc(TWO_POINT, k).passed for k in (0.1, 0.2, 0.25, 0.5, 1.0)]
    assert verdicts == [False, False, True, True, True]


def test_replay_reproduces_worst_slack():
    cert = check_gc(TWO_POINT, 0.2)
    assert replay(cert, mu=TWO_POINT) == pytest.approx(cert.worst_slack, abs=1e-12)
    tampered = Certificate(
        inequality=cert.inequality,
        constant=cert.constant,
        order_s=cert.order_s,
        worst_slack=cert.worst_slack + 1.0,
        witness=cert.witness,
        verdict="fail",
        search_size=cert.search_size,
    )
    with pytest.raises(InputError):
        replay(tampered, mu=TWO_POINT)


def test_certificate_rejects_inconsistent_verdict():
    with pytest.raises(InputError):
        Certificate(
            inequality="GC",
            constant=1.0,
            order_s=None,
            worst_slack=1.0,
            witness={},
            verdict="pass",
            search_size=1,
        )


def test_lipschitz_polytope_vertices_two_points():
    verts = lipschitz_polytope_vertices(np.array([[0.0, 1.0], [1.0, 0.0]]))
    got = sorted(tuple(v) for v in verts)
    assert got == [(0.0, -1.0), (0.0, 1.0)]


def test_lipschitz_polytope_vertices_are_lipschitz():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 1.5, size=(4, 4))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    for k in range(4):
        w = np.minimum(w, w[:, k, None] + w[None, k, :])
    verts = lipschitz_polytope_vertices(w)
    assert verts
    for f in verts:
        gaps = np.abs(f[:, None] - f[None, :])
        assert np.max(gaps - w) <= 1e-9


def test_lipschitz_family_members_are_lipschitz():
    sp = FiniteMetricSpace((0, 1, 2), np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], float))
    mu = DiscreteMeasure((0, 1, 2), np.array([0.2, 0.3, 0.5]), space=sp)
    for f in lipschitz_family(mu, family_size=32, seed=1):
        gaps = np.abs(f[:, None] - f[None, :])
        assert np.max(gaps - sp.dist) <= 1e-9


@pytest.mark.parametrize("s, index, critical, worst", [
    (1.5, 3, 0.01263951718478266, 0.7989722417543315),
    (2.0, 3104, 0.0012372358361321509, 0.9891541876432888),
])
def test_check_transport_on_six_points_keeps_its_certificate(s, index, critical, worst):
    """The 6-point Euclidean space, whose 8,537 family rows are solved on one
    hot-started model, gives the pinned verdict, witness and critical
    constant however its LP rounds are re-solved."""
    rng = np.random.default_rng(6)
    p = rng.normal(size=(6, 2))
    space = FiniteMetricSpace(tuple("abcdef"), np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1)))
    mu = DiscreteMeasure(tuple(range(6)), rng.dirichlet(np.ones(6)), space=space)
    cert = check_transport(mu, 1.0, s)
    assert cert.search_size == 8537 and cert.verdict == "fail"
    assert cert.witness["family_index"] == index
    assert cert.critical == pytest.approx(critical, rel=1e-12)
    assert cert.worst_slack == pytest.approx(worst, rel=1e-12)


def test_check_transport_and_bg_duality():
    assert check_transport(TWO_POINT, 4.0, 1.0).passed
    cert = check_transport(TWO_POINT, 40.0, 1.0)
    assert not cert.passed
    assert replay(cert, mu=TWO_POINT) == pytest.approx(cert.worst_slack, abs=1e-9)
    out = check_bg_duality(TWO_POINT, 0.25)
    assert out["agree"]
    assert out["gc_verdict"] == "pass" and out["t1_verdict"] == "pass"


def test_transport_monotone_in_alpha():
    verdicts = [check_transport(TWO_POINT, a, 1.0).passed for a in (1.0, 4.0, 10.0, 40.0)]
    assert verdicts == [True, True, False, False]


def test_check_lsi_gaussian_grid():
    grid = np.linspace(-6.0, 6.0, 601)
    dens = np.exp(-(grid**2) / 2.0)
    cert = check_lsi_grid(grid, dens, 1.0)
    assert cert.passed
    assert cert.grid_h == pytest.approx(0.02, abs=1e-12)
    bad = check_lsi_grid(grid, dens, 1.5)
    assert not bad.passed
    slack = replay(bad, grid=grid, density=dens)
    assert slack == pytest.approx(bad.worst_slack, abs=1e-9)


def test_replay_checks_the_grid_it_is_given():
    grid = np.linspace(-6.0, 6.0, 601)
    dens = np.exp(-(grid**2) / 2.0)
    bad = check_lsi_grid(grid, dens, 1.5)
    coarse = np.linspace(-6.0, 6.0, 301)
    for other, density in [(2.0 * grid, dens), (coarse, np.exp(-(coarse**2) / 2.0)), (grid[:-1], dens),
                           (np.where(grid == 0.0, math.nan, grid), dens), (None, dens)]:
        with pytest.raises(InputError, match="grid"):
            replay(bad, grid=other, density=density)
    assert replay(bad, grid=grid + 1.0, density=dens) == pytest.approx(bad.worst_slack, abs=1e-9)


def test_check_lsi_input_validation():
    grid = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(InputError):
        check_lsi_grid(grid, np.zeros_like(grid), 1.0)
    with pytest.raises(InputError):
        check_lsi_grid(np.array([0.0, 0.1, 0.3]), np.ones(3), 1.0)
    with pytest.raises(InputError):
        check_lsi_grid(grid, np.ones_like(grid), -1.0)
    # the test family must be nonempty, with one value per grid point
    for family in ([grid, grid[:-1]], [np.ones((11, 2))], []):
        with pytest.raises(InputError):
            check_lsi_grid(grid, np.ones_like(grid), 1.0, test_functions=family)


def test_lsi_slack_oracle_exponential_function():
    """For f = e^{tx/2} under N(0,1): slack = (t^2/2) e^{t^2/2} (1 - 1/alpha)."""
    grid = np.linspace(-8.0, 8.0, 3201)
    dens = np.exp(-(grid**2) / 2.0)
    from concentra.certify import lsi_slack

    w = dens / dens.sum()
    t = 1.0
    f = np.exp(t * grid / 2.0)
    for alpha in (0.5, 2.0):
        want = (t * t / 2.0) * math.exp(t * t / 2.0) * (1.0 - 1.0 / alpha)
        got = lsi_slack(w, f, grid[1] - grid[0], alpha)
        assert got == pytest.approx(want, abs=5e-3)


def test_best_constant_bisection():
    best = best_constant(lambda k: check_gc(TWO_POINT, k), (0.1, 1.0))
    assert best == pytest.approx(0.25, abs=1e-3)
    # degenerate bracket: both ends pass -> strongest end
    delta = DiscreteMeasure((0.0,), np.array([1.0]))
    assert best_constant(lambda k: check_gc(delta, k), (0.5, 1.0)) == 0.5
    with pytest.raises(InputError):
        best_constant(lambda k: check_gc(TWO_POINT, k), (0.01, 0.05))
    with pytest.raises(InputError):
        best_constant(lambda k: check_gc(TWO_POINT, k), (1.0, 0.1))


def _lsi_problem(rng, kind, points):
    """A grid, a Gaussian or bimodal density on it, and (for ``user``) a
    family of random-walk and polynomial test functions of random scale."""
    sigma = rng.uniform(0.5, 2.0)
    grid = np.linspace(-6.0 * sigma, 6.0 * sigma, points)
    density = np.exp(-(grid**2) / (2.0 * sigma**2))
    if kind == "bimodal":
        c, width = rng.uniform(1.0, 2.0) * sigma, rng.uniform(0.2, 0.4) * sigma
        density = density * (1.0 + rng.uniform(1.0, 4.0) * np.exp(-((grid - c) ** 2) / (2.0 * width**2)))
    if kind != "user":
        return grid, density, None
    walks = 1.0 + rng.normal(size=(4, points)).cumsum(axis=1) / math.sqrt(points)
    polys = [np.polyval(rng.normal(size=4), grid / sigma) for _ in range(4)]
    family = [f * 10 ** rng.uniform(-2.0, 4.0) for f in [*walks, *polys]]
    return grid, density, family + [family[1].copy(), np.zeros(points)]


def _checker(kind, n, s, seed):
    """A checker c -> Certificate on a random problem of the given kind."""
    rng = np.random.default_rng(seed)
    family, space = kind.split("-")
    if family == "gc":
        mu = _random_measure(rng, n, space)
        return lambda k: check_gc(mu, k, family_size=8, seed=seed)
    if family == "ts":
        if space == "line":
            mu = _random_measure(rng, n, space)
            return lambda a: check_transport(mu, a, s, seed=seed)
        mu = _random_measure(rng, min(n, 5), space)
        members = [DiscreteMeasure(mu.support, w, space=mu.space)
                   for w in rng.dirichlet(np.ones(len(mu)), size=6)]
        return lambda a: check_transport(mu, a, s, perturbation_family=[mu, *members])
    grid, density, members = _lsi_problem(rng, space, int(rng.integers(101, 402)))
    return lambda a: check_lsi_grid(grid, density, a, test_functions=members, seed=seed)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["gc-line", "gc-finite", "ts-line", "ts-finite", "lsi-gaussian", "lsi-bimodal", "lsi-user"]),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=0, max_value=10_000),
)
def test_critical_constant_matches_bisection(kind, n, s, seed):
    """The closed-form critical constant is the boundary a bisection of the
    checker's verdicts finds, and best_constant reads it from one call."""
    checker = _checker(kind, n, s, seed)
    cert = checker(1.0)
    c, gc = cert.critical, cert.inequality == "GC"
    assert all(checker(k).critical == c for k in (0.3, 7.0))  # the family ignores the constant
    if not 0.0 < c < math.inf:
        # GC at c <= 0, or T_s / LSI at c = inf: passes at every constant
        assert {checker(k).passed for k in (1e-6, 1e6)} == {gc or c == math.inf}
        return
    assert c == pytest.approx(oracles.bisect_boundary(lambda k: checker(k).passed, c / 2, 2 * c), rel=1e-8)
    passing, failing = (1 + 1e-9, 1 - 1e-6) if gc else (1 - 1e-9, 1 + 1e-6)
    assert checker(c * passing).passed and not checker(c * failing).passed
    calls = []

    def counted(k):
        calls.append(k)
        return checker(k)

    assert best_constant(counted, (c / 2, 2 * c)) == c and len(calls) == 1
    # a bracket on the passing side returns its strongest end; one on the
    # failing side passes nowhere
    weak, strong = ((4 * c, 2 * c), (c / 4, c / 2)) if gc else ((c / 4, c / 2), (2 * c, 4 * c))
    assert best_constant(checker, sorted(weak)) == weak[1]
    with pytest.raises(InputError):
        best_constant(checker, sorted(strong))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["gaussian", "bimodal", "user"]),
    st.integers(min_value=101, max_value=801),
    st.floats(min_value=0.2, max_value=5.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_check_lsi_matches_member_loop(kind, points, alpha, seed):
    """The batched LSI check reports exactly the worst slack, witness and
    verdict of a member-by-member loop over ``lsi_slack``."""
    grid, density, family = _lsi_problem(np.random.default_rng(seed), kind, points)
    cert = check_lsi_grid(grid, density, alpha, test_functions=family, seed=seed)
    members = default_lsi_family(grid, seed) if family is None else family
    weights = density / density.sum()
    worst, index = -math.inf, None
    for i, f in enumerate(members):
        slack = lsi_slack(weights, f, cert.grid_h, alpha)
        if slack > worst:
            worst, index = slack, i
    assert cert.worst_slack == worst and cert.witness["family_index"] == index
    assert cert.verdict == ("pass" if worst <= cert.tolerance else "fail")
    assert replay(cert, grid=grid, density=density) == worst


@pytest.mark.parametrize("seed", range(6))
def test_check_lsi_near_ties_keep_the_loop_witness(seed):
    """Members one ulp apart have slacks closer than the round-off of a
    batched sum; the witness is still the loop's first maximum."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(101, 801))
    grid = np.linspace(-6.0, 6.0, n)
    density = np.exp(-(grid**2) / 2.0)
    base = 1.0 + rng.normal(size=n).cumsum() / math.sqrt(n)
    family = [base]
    for _ in range(6):
        f = base.copy()
        j = rng.integers(n)
        f[j] = np.nextafter(f[j], math.inf if rng.random() < 0.5 else -math.inf)
        family.append(f)
    cert = check_lsi_grid(grid, density, 1.0, test_functions=family)
    slacks = [lsi_slack(density / density.sum(), f, cert.grid_h, 1.0) for f in family]
    assert cert.witness["family_index"] == int(np.argmax(slacks))
    assert cert.worst_slack == max(slacks)


def test_best_constant_needs_a_critical_constant():
    bare = Certificate(inequality="GC", constant=0.5, order_s=None, worst_slack=0.0,
                       witness={}, verdict="pass", search_size=1)
    with pytest.raises(InputError):
        best_constant(lambda k: bare, (0.1, 1.0))


def test_certificates_record_search_metadata():
    cert = check_gc(TWO_POINT, 0.25, family_size=16, seed=3)
    assert cert.search_size > 0
    assert "mcshane" in cert.family
    assert cert.witness["t"] is not None


def _random_measure(rng, n, kind, zero_atoms=False):
    """A measure on n distinct points of the line or of a random finite space."""
    w = rng.dirichlet(np.ones(n))
    if zero_atoms and n > 1:
        w[rng.integers(0, n)] = 0.0
        w = w / w.sum()
    if kind == "line":
        x = rng.permutation(np.arange(n) * 0.37 + rng.normal(0.0, 0.1, n))
        return DiscreteMeasure(tuple(x.tolist()), w)
    pts = np.round(rng.normal(size=(n, 2)), 1)  # rounding ties some distances
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
    space = FiniteMetricSpace(tuple(range(n)), d)
    return DiscreteMeasure(tuple(range(n)), w, space=space)


def _oracle_tilt_family(mu, seed):
    """The default T_s family as explicit measures, one member at a time."""
    t_grid = [t for t in default_t_grid() if t != 0.0 and abs(t) <= 2.0]
    w = mu.weights
    out = [mu]
    for f in lipschitz_family(mu, family_size=8, seed=seed):
        for t in t_grid:
            logits = np.log(np.where(w > 0, w, 1e-300)) + t * f
            weights = np.exp(logits - logsumexp(logits))
            out.append(DiscreteMeasure(mu.support, weights / weights.sum(), space=mu.space))
    rng = np.random.default_rng(seed + 1)
    for _ in range(24):
        out.append(DiscreteMeasure(mu.support, rng.dirichlet(np.ones(len(mu))), space=mu.space))
    return out


def _assert_matches_oracle(cert, slacks, witness_index, **replay_data):
    """Verdict, search size and worst slack equal the scalar maximum, and
    the witness is a maximizer that replays."""
    worst = max(slacks)
    assert cert.search_size == len(slacks)
    assert cert.verdict == ("pass" if worst <= cert.tolerance else "fail")
    assert cert.worst_slack == pytest.approx(worst, rel=0, abs=1e-12)
    assert slacks[witness_index] == pytest.approx(worst, rel=0, abs=1e-12)
    assert replay(cert, **replay_data) == pytest.approx(cert.worst_slack, rel=0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["line", "finite"]),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)
def test_check_gc_matches_scalar_oracle(n, kind, seed, zero_atoms):
    rng = np.random.default_rng(seed)
    mu = _random_measure(rng, n, kind, zero_atoms)
    kappa = float(rng.uniform(0.01, 1.0))
    cert = check_gc(mu, kappa, family_size=8, seed=seed)
    slacks = [
        gc_slack(mu, kappa, f, float(t))
        for f in lipschitz_family(mu, family_size=8, seed=seed)
        for t in default_t_grid()
    ]
    at = cert.witness["family_index"] * default_t_grid().size
    at += list(default_t_grid()).index(cert.witness["t"])
    _assert_matches_oracle(cert, slacks, at, mu=mu)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=0, max_value=10_000),
    st.booleans(),
)
def test_check_transport_default_family_matches_scalar_oracle(n, s, seed, zero_atoms):
    rng = np.random.default_rng(seed)
    mu = _random_measure(rng, n, "line", zero_atoms)
    alpha = float(rng.uniform(0.5, 20.0))
    cert = check_transport(mu, alpha, s, seed=seed)
    slacks = [transport_slack(nu, mu, alpha, s) for nu in _oracle_tilt_family(mu, seed)]
    _assert_matches_oracle(cert, slacks, cert.witness["family_index"], mu=mu)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["line", "finite"]),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=0, max_value=10_000),
)
def test_check_transport_user_family_matches_scalar_oracle(n, kind, s, seed):
    rng = np.random.default_rng(seed)
    mu = _random_measure(rng, n, kind)
    members = [mu]
    for _ in range(6):
        members.append(DiscreteMeasure(mu.support, rng.dirichlet(np.ones(n)), space=mu.space))
    # a member on a subset of mu's support, listed in another order
    sub = rng.permutation(n)[: max(1, n // 2)]
    members.append(DiscreteMeasure(
        tuple(mu.support[i] for i in sub), rng.dirichlet(np.ones(sub.size)), space=mu.space))
    # a member with mass off mu's support scores -inf
    members.append(DiscreteMeasure((mu.support[0], 10**6), np.array([0.5, 0.5])))
    alpha = float(rng.uniform(0.5, 20.0))
    cert = check_transport(mu, alpha, s, perturbation_family=members)
    slacks = [transport_slack(nu, mu, alpha, s) for nu in members]
    assert slacks[-1] == -math.inf
    _assert_matches_oracle(cert, slacks, cert.witness["family_index"], mu=mu)


def test_check_transport_all_members_off_support():
    off = DiscreteMeasure((5.0, 6.0), np.array([0.5, 0.5]))
    cert = check_transport(TWO_POINT, 1.0, 1.0, perturbation_family=[off, off])
    assert cert.worst_slack == -math.inf and cert.passed
    assert cert.witness == {} and cert.search_size == 2
    with pytest.raises(InputError):
        replay(cert, mu=TWO_POINT)


@pytest.mark.parametrize("s", [0.0, 0.5, 3.0, math.nan])
@pytest.mark.parametrize("family", [None, [TWO_POINT]])
def test_check_transport_rejects_order_outside_one_two(s, family):
    with pytest.raises(InputError):
        check_transport(TWO_POINT, 1.0, s, perturbation_family=family)


def test_check_transport_member_on_another_space():
    """A member scored against mu must live on mu's space; one whose
    Ent(nu | mu) is infinite scores -inf whatever its space."""
    a = FiniteMetricSpace((0, 1, 2), 1.0 - np.eye(3))
    b = FiniteMetricSpace((0, 1, 2, 3), 2.0 * (1.0 - np.eye(4)))
    mu = DiscreteMeasure((0, 1, 2), np.array([0.5, 0.5, 0.0]), space=a)
    on = DiscreteMeasure((0, 1), np.array([0.3, 0.7]), space=b)
    with pytest.raises(InputError):
        check_transport(mu, 1.0, 1.0, perturbation_family=[mu, on])
    zero_atom = DiscreteMeasure((0, 2), np.array([0.3, 0.7]), space=b)
    off = DiscreteMeasure((0, 3), np.array([0.3, 0.7]), space=b)
    cert = check_transport(mu, 1.0, 1.0, perturbation_family=[mu, zero_atom, off])
    assert cert.witness["family_index"] == 0 and cert.worst_slack == 0.0
    assert transport_slack(zero_atom, mu, 1.0, 1.0) == -math.inf
    assert transport_slack(off, mu, 1.0, 1.0) == -math.inf


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=0, max_value=10_000),
)
def test_line_wasserstein_rows_match_wasserstein_1d(n, s, seed):
    rng = np.random.default_rng(seed)
    mu = _random_measure(rng, n, "line", zero_atoms=True)
    rows = rng.dirichlet(np.ones(n), size=12)
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[:, 0] += 1.0 - rows.sum(axis=1)
    rows = np.vstack([np.abs(rows), mu.weights])
    got = _line_wasserstein(rows, mu, s)
    for row, w in zip(rows, got):
        nu = DiscreteMeasure(mu.support, row / row.sum())
        want = wasserstein_1d(nu, mu, s)
        assert w**s == pytest.approx(want**s, rel=0, abs=1e-12)
    assert got[-1] == 0.0


def test_mu_witness_replays_exactly():
    """A passing T_s certificate whose witness is mu itself replays to 0."""
    seen = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 41))
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        mu = DiscreteMeasure(tuple(x.tolist()), rng.dirichlet(np.full(n, 2.0)))
        cert = check_transport(mu, 4.0 / (x[-1] - x[0]) ** 2, 1.0)
        if cert.witness["family_index"] == 0:
            seen += 1
            assert cert.worst_slack == 0.0
            assert replay(cert, mu=mu) == 0.0
    assert seen > 0


def _vertex_set(verts):
    return {tuple(np.round(v, 9) + 0.0) for v in verts}


def test_vertices_match_traversal_oracle():
    rng = np.random.default_rng(11)
    cases = []
    for n in (2, 3, 4, 5, 6):
        pts = rng.normal(size=(n, 2))
        cases.append(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    # collinear points, where triangle inequalities are tight
    for n in (4, 6):
        x = np.sort(rng.uniform(0.0, 3.0, n))
        cases.append(np.abs(x[:, None] - x[None, :]))
    # tied distances: integer points of the line and the discrete metric
    x = np.array([0.0, 1.0, 2.0, 4.0, 5.0])
    cases.append(np.abs(x[:, None] - x[None, :]))
    cases.append(1.0 - np.eye(5))
    grid = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
    cases.append(np.abs(grid[:, None] - grid[None]).sum(-1))
    for dist in cases:
        got = lipschitz_polytope_vertices(dist)
        assert _vertex_set(got) == _vertex_set(oracles.oracle_lipschitz_vertices(dist))
        assert len(got) == len(_vertex_set(got))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_checks_keep_memory_bounded():
    """Working memory stays within a small multiple of the family itself,
    far below a family x t x support (or all tree x sign) stack."""
    rng = np.random.default_rng(5)
    mu = _random_measure(rng, 200, "line")
    rows = tilt_family(mu, 0).nbytes
    assert _peak_bytes(lambda: check_transport(mu, 1.0, 2.0)) < 2 * rows + 4e6
    family = lipschitz_family(mu).nbytes
    assert _peak_bytes(lambda: check_gc(mu, 1.0)) < 2 * family + 4e6
    pts = rng.normal(size=(6, 2))
    dist = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    assert _peak_bytes(lambda: lipschitz_polytope_vertices(dist)) < 4e6
