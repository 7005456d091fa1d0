"""Independent direct-summation oracles for the closed-form constants,
a traversal oracle for the Lipschitz polytope vertices, quadrature
oracles for the comonotone coupling of two Gaussian chains, the joint
law of a linear-Gaussian chain as the image of its innovations, the
path-major sampler of a linear-Gaussian chain, a
pair-by-pair recursion for the step-optimal coupling of two tabular
chains, prefix-marginal differences for the chain rule of relative
entropy, bisection of a checker's verdicts for the critical
constants of the certificates, the transport LP over every cell
posed through SciPy's ``linprog``, the Kantorovich-Rubinstein dual
LP over every pair of points, and the Gaussian W2 closed form through
SciPy's Schur-based ``sqrtm``.

These deliberately avoid the library's closed forms: every sum is an
explicit loop, every power a literal, so a regression in the formulas
cannot hide in shared code.
"""
import itertools
import math

import numpy as np
from scipy import sparse
from scipy.linalg import sqrtm
from scipy.optimize import linprog


def oracle_gc_markov(kappa1, L, n):
    total = 0.0
    for m in range(1, n + 1):
        inner = 0.0
        for k in range(m):
            inner += L**k
        total += inner * inner
    return kappa1 * total


def oracle_gc_general(kappa1, M, n):
    return kappa1 * (1.0 + M) ** (2 * n) / (M * M)


def oracle_ts(alpha, R, s, n):
    if R < 1.0:
        return n ** (1.0 - 2.0 / s) * (1.0 - R ** (1.0 / s)) ** 2 * alpha
    if R == 1.0:
        return math.e ** (2.0 / s - 2.0) * (n + 1) ** (-2.0 / s - 1.0) * alpha
    return ((R - 1.0) / (math.e ** (s - 1.0) * R**n)) ** (2.0 / s) * alpha / (n + 1)


def oracle_ts_general(alpha, M, s, n):
    return alpha * ((n * math.e) ** (1.0 - s) * M / (1.0 + M) ** n) ** (2.0 / s)


def oracle_lsi_markov(alpha, L, n):
    if L < alpha:
        return (alpha - L) ** 2 / alpha
    if L == alpha:
        return alpha / (n * (n + 1) * (math.e - 1.0))
    return (alpha / L) ** (2 * n) * (L * L - alpha * alpha) / (alpha * math.e * (n + 1))


def oracle_lsi_weak(alpha, R, n):
    if R < alpha:
        return (math.sqrt(alpha) - math.sqrt(R)) ** 2
    if R == alpha:
        return alpha / (n * (n + 1) * (math.e - 1.0))
    return (alpha / R) ** n * (R - alpha) / (math.e * (n + 1))


def oracle_lsi_weak_general(alpha, kappa, n, eps):
    """Loop evaluation of the coupled-chain log-Sobolev display."""
    ks = []
    for j in range(1, n):
        total = 0.0
        for ell in range(j):
            total += kappa[n - ell - 1][n - j - 1]
        ks.append((1.0 + 1.0 / eps) * total / alpha)
    bracket = 1.0
    for k in range(n - 1):
        prod = 1.0
        for m in range(k + 1, n):
            prod *= 1.0 + ks[m - 1]
        bracket += prod
    return alpha / (1.0 + eps) / bracket


def oracle_contraction(alpha, L, n):
    if L < 1.0:
        return (1.0 - L) ** 2 * alpha
    if L == 1.0:
        return alpha / (n * (n + 1) * (math.e - 1.0))
    return (L - 1.0) * alpha / (L**n * math.e * (n + 1))


def oracle_arma_alpha(A, B):
    """((1 - sqrt(rho)) / max(1, |B|))^2 / S^2 with S = sum_j rho^-j |A^j|^2
    summed term by term, unscaled, until a term is below 1e-18 of the sum."""
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    total, power, j = 1.0, np.eye(A.shape[0]), 0
    while True:
        j += 1
        power = power @ A
        term = float(np.linalg.norm(power, 2)) ** 2 / rho**j
        total += term
        if term < 1e-18 * total:
            break
    return ((1.0 - math.sqrt(rho)) / max(1.0, float(np.linalg.norm(B, 2)))) ** 2 / total**2


def oracle_ou(rho, tau, n, x):
    theta = math.exp(-rho * tau)
    y = 2.0 * rho * tau
    if abs(y) < 1.0:
        # sigma2 = tau (1 - e^-y) / y, summed as its power series
        # sum_k (-y)^k / (k + 1)!, which cannot cancel as rho tau -> 0
        series, term = 0.0, 1.0
        for k in range(1, 40):
            series += term
            term *= -y / (k + 1)
        sigma2 = tau * series
    else:
        sigma2 = (1.0 - theta * theta) / (2.0 * rho)
    kappa = 0.0
    for j in range(n):
        inner = 0.0
        for i in range(n - j):
            inner += theta**i
        kappa += inner * inner
    mean = 0.0
    for i in range(1, n + 1):
        mean += x * theta**i
    return {"theta": theta, "sigma2": sigma2, "kappa_n": sigma2 * kappa, "mean_Fn": mean}


def oracle_lipschitz_vertices(dist):
    """Extreme 1-Lipschitz functions anchored at point 0, by traversal.

    Every (n-1)-edge subset is tested for being a spanning tree with a
    union-find; each tree and sign assignment f_i - f_j = +/- d_ij is
    solved by walking the tree from point 0 and kept when it satisfies
    every constraint.
    """
    n = dist.shape[0]
    if n == 1:
        return [np.zeros(1)]
    edges = list(itertools.combinations(range(n), 2))
    out = {}
    for tree in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        ok = True
        for i, j in tree:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if not ok:
            continue
        adj = {i: [] for i in range(n)}
        for idx, (i, j) in enumerate(tree):
            adj[i].append((j, idx))
            adj[j].append((i, idx))
        for signs in itertools.product((1.0, -1.0), repeat=n - 1):
            f = np.full(n, np.nan)
            f[0] = 0.0
            stack = [0]
            while stack:
                u = stack.pop()
                for v, idx in adj[u]:
                    if not np.isnan(f[v]):
                        continue
                    i, j = tree[idx]
                    delta = signs[idx] * dist[i, j]  # f_i - f_j = delta
                    f[v] = f[u] + delta if v == i else f[u] - delta
                    stack.append(v)
            gaps = np.abs(f[:, None] - f[None, :])
            if np.max(gaps - dist) <= 1e-12:
                out[tuple(np.round(f, 12))] = f
    return list(out.values())


def chain_noise_matrix(theta, sigma2, init_var, n):
    """Lower-triangular A with X = mean + A Z for a Gaussian chain driven
    by i.i.d. standard normals Z_1..Z_n (X_1 = mean_1 + sqrt(init_var) Z_1)."""
    a = np.zeros((n, n))
    a[0, 0] = math.sqrt(init_var)
    for k in range(1, n):
        for j in range(k):
            a[k, j] = theta * a[k - 1, j]
        a[k, k] = math.sqrt(sigma2)
    return a


def linear_gaussian_joint(A, B, mean1, root1, n):
    """Mean and covariance of the stacked (X_1..X_n) for X_1 = mean1 + root1 Y_1
    and X_k = A X_{k-1} + B Y_k: the covariance is L L^T of the linear map L
    from the stacked innovations (Y_1..Y_n) to the path, and the means are
    A^(k-1) mean1 by matrix powers."""
    m, r = np.shape(root1)
    lin = np.zeros((n * m, n * r))
    lin[:m, :r] = root1
    for k in range(1, n):
        lin[k * m : (k + 1) * m] = A @ lin[(k - 1) * m : k * m]
        lin[k * m : (k + 1) * m, k * r : (k + 1) * r] += B
    mean = np.concatenate([np.linalg.matrix_power(A, k) @ mean1 for k in range(n)])
    return mean, lin @ lin.T


def comonotone_gap_laws(q, p, n):
    """Means and variances of X^q_k - X^p_k when both chains share Z."""
    dm = np.empty(n)
    mq, mp = q.init_mean, p.init_mean
    for k in range(n):
        dm[k] = mq - mp
        mq, mp = q.theta * mq, p.theta * mp
    da = chain_noise_matrix(q.theta, q.sigma2, q.init_var, n) - chain_noise_matrix(
        p.theta, p.sigma2, p.init_var, n
    )
    return dm, np.array([sum(x * x for x in row) for row in da])


def abs_moment_quad(m, v, s):
    """E|m + sqrt(v) Z|^s by adaptive quadrature over |z| <= 40 (the normal
    density is below 1e-347 beyond), with the kink as a breakpoint."""
    from scipy.integrate import quad

    sd = math.sqrt(v)

    def f(z):
        return abs(m + sd * z) ** s * math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)

    kink = [-m / sd] if sd > 0.0 and abs(m) < 40.0 * sd else None
    return quad(f, -40.0, 40.0, points=kink, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def tabular_state_cost(model, s):
    """|x_a - x_b|^s in a tabular chain's state metric, by explicit loops:
    the declared space's distances, else the labels, else the indices."""
    k = model.n_states
    cost = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            if model.space is not None:
                d = float(model.space.dist[a, b])
            elif model.labels is not None:
                d = abs(model.labels[a] - model.labels[b])
            else:
                d = float(abs(a - b))
            cost[a, b] = d**s
    return cost


def all_cells_transport_lp(cost, w_row, w_col):
    """The transport LP over every cell exactly as SciPy's ``linprog``
    poses and solves it: cells as columns in row-major order, one equality
    row per row marginal and per column marginal but the last (the totals
    imply it), presolve off, feasibility tolerances 1e-10. Returns
    ``(fsum(plan * cost), plan)``."""
    nr, nc = cost.shape
    a_eq = np.vstack([np.kron(np.eye(nr), np.ones(nc)), np.kron(np.ones(nr), np.eye(nc))[:-1]])
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w_row, w_col[:-1]]), bounds=(0, None),
        method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    plan = np.maximum(res.x.reshape(nr, nc), 0.0)
    return math.fsum((plan * cost).ravel()), plan



def kantorovich_dual_lp(dist, c):
    """W1 as the Kantorovich-Rubinstein dual LP on a joint support: maximise
    sum_i c_i f_i over potentials with f_i - f_j <= dist[i, j] for every
    ordered pair i != j and f_0 = 0, where c is mu - nu on the support.
    Returns ``(value, f)``."""
    n = len(c)
    if n == 1:
        return 0.0, np.zeros(1)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    r = i.size
    a_ub = sparse.csr_matrix(
        (np.tile([1.0, -1.0], r), (np.repeat(np.arange(r), 2), np.column_stack([i, j]).ravel())),
        shape=(r, n),
    )
    res = linprog(
        -np.asarray(c), A_ub=a_ub, b_ub=dist[i, j], bounds=[(0.0, 0.0)] + [(None, None)] * (n - 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return -res.fun, res.x

def stepwise_coupling_costs(q, p, n, s):
    """Step costs of the step-optimal coupling of tabular chains Q and P.

    The coupled history is carried as dict atoms {(i, j): mass} over the
    reached state pairs; each reached pair's kernel rows are coupled by
    one LP over every cell, and step k is charged sum mass * plan cost.
    """
    cost = tabular_state_cost(q, s)
    d1, plan = all_cells_transport_lp(cost, q.init, p.init)
    k = q.n_states
    atoms = {(i, j): plan[i, j] for i in range(k) for j in range(k) if plan[i, j] > 0}
    steps = [d1]
    plans = {}
    for _ in range(1, n):
        dk, nxt = [], {}
        for (i, j), w in atoms.items():
            if (i, j) not in plans:
                plans[(i, j)] = all_cells_transport_lp(cost, q.transition[i], p.transition[j])
            ck, pk = plans[(i, j)]
            dk.append(w * ck)
            for a in range(k):
                for b in range(k):
                    if pk[a, b] > 0:
                        nxt[(a, b)] = nxt.get((a, b), 0.0) + w * pk[a, b]
        atoms = nxt
        steps.append(math.fsum(dk))
    return steps


def _prefix_law(paths, weights, k):
    """Marginal law of the first k steps, summed path by path in a dict."""
    from concentra import DiscreteMeasure

    law = {}
    for path, w in zip(paths, weights):
        key = tuple(path[:k])
        law[key] = law.get(key, 0.0) + float(w)
    return DiscreteMeasure(tuple(law), np.array(list(law.values())))


def _tabular_prefix_law(model, k):
    """Law of a tabular chain's first k states, over all S^k paths by loops."""
    from concentra import DiscreteMeasure

    law = {}
    for path in itertools.product(range(model.n_states), repeat=k):
        w = float(model.init[path[0]])
        for a, b in zip(path, path[1:]):
            w *= float(model.transition[a, b])
        if w > 0:
            law[path] = w
    return DiscreteMeasure(tuple(law), np.array(list(law.values())))


def chain_rule_terms(q, p, n):
    """Chain-rule terms of Ent(Q | P) for a discrete joint law q on n-tuples
    and p a tabular chain or a discrete joint law: step k's term is
    KL(Q_{1:k} | P_{1:k}) - KL(Q_{1:k-1} | P_{1:k-1}), each KL by
    ``relative_entropy_discrete`` on explicit prefix marginals. Returns the
    terms before the first infinite KL and that 1-based step (else None)."""
    from concentra import DiscreteMeasure, relative_entropy_discrete

    terms, prev = [], 0.0
    for k in range(1, n + 1):
        if isinstance(p, DiscreteMeasure):
            p_k = _prefix_law(p.support, p.weights, k)
        else:
            p_k = _tabular_prefix_law(p, k)
        kl = relative_entropy_discrete(_prefix_law(q.support, q.weights, k), p_k)
        if math.isinf(kl):
            return terms, k
        terms.append(kl - prev)
        prev = kl
    return terms, None


def bisect_boundary(passes, lo, hi, width=1e-10):
    """The pass/fail boundary of a verdict ``passes(c)`` on [lo, hi] by
    bisection to relative width ``width``: the ends must disagree, and
    every verdict seen must be monotone in c. Returns the midpoint of the
    final bracket."""
    trace = [(lo, passes(lo)), (hi, passes(hi))]
    assert trace[0][1] != trace[1][1], "bracket does not straddle the boundary"
    while hi - lo > width * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        trace.append((mid, passes(mid)))
        if trace[-1][1] == trace[0][1]:
            lo = mid
        else:
            hi = mid
    trace.sort()
    assert sum(a[1] != b[1] for a, b in zip(trace, trace[1:])) == 1, "verdicts are not monotone"
    return 0.5 * (lo + hi)


def simulate_linear_path_major(A, B, mean1, root1, n, N, seed, block_paths=4096):
    """(N, n, m) paths of X_1 = mean1 + root1 Y_1, X_{k+1} = A X_k + B Y_{k+1}
    path-major: all the noise B Y in one matrix product, then the
    recursion over the strided (N, m) columns. Y holds ceil(N / block_paths)
    near-equal blocks of paths, the first N % blocks one path longer, and
    block b is drawn from Philox(key=seed) advanced by b jumps."""
    blocks = -(-N // block_paths)
    sizes = [N // blocks + (b < N % blocks) for b in range(blocks)]
    eps = np.concatenate([
        np.random.Generator(np.random.Philox(key=seed).jumped(b)).standard_normal((size, n, B.shape[1]))
        for b, size in enumerate(sizes)
    ])
    out = (eps.reshape(N * n, -1) @ B.T).reshape(N, n, -1)
    out[:, 0] = mean1 + eps[:, 0] @ root1.T
    for k in range(1, n):
        out[:, k] += out[:, k - 1] @ A.T
    return out


def gaussian_w2_sqrtm(m1, s1, m2, s2):
    """W2 between N(m1, s1) and N(m2, s2) from the trace of sqrtm(s1 s2):
    s1 s2 is similar to s1^(1/2) s2 s1^(1/2), so their principal roots have
    the same trace. No symmetric eigendecomposition is taken."""
    cross = np.trace(sqrtm(np.asarray(s1) @ np.asarray(s2))).real
    gap = float(np.sum((np.asarray(m1) - np.asarray(m2)) ** 2))
    return math.sqrt(gap + np.trace(s1) + np.trace(s2) - 2.0 * cross)
