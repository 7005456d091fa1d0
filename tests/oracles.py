"""Independent direct-summation oracles for the closed-form constants,
a traversal oracle for the Lipschitz polytope vertices, quadrature
oracles for the comonotone coupling of two Gaussian chains, and a
pair-by-pair recursion for the step-optimal coupling of two tabular
chains, and prefix-marginal differences for the chain rule of relative
entropy.

These deliberately avoid the library's closed forms: every sum is an
explicit loop, every power a literal, so a regression in the formulas
cannot hide in shared code.
"""
import itertools
import math

import numpy as np


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


def oracle_ou(rho, tau, n, x):
    theta = math.exp(-rho * tau)
    sigma2 = tau if rho == 0.0 else (1.0 - theta * theta) / (2.0 * rho)
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


def dense_transport(cost, w_row, w_col):
    """Optimal transport cost and plan between two weight vectors, as one
    dense LP over all cells."""
    from scipy.optimize import linprog

    nr, nc = cost.shape
    a_eq = np.vstack([np.kron(np.eye(nr), np.ones(nc)), np.kron(np.ones(nr), np.eye(nc))])
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w_row, w_col]), bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    plan = np.maximum(res.x.reshape(nr, nc), 0.0)
    return math.fsum((plan * cost).ravel()), plan


def stepwise_coupling_costs(q, p, n, s):
    """Step costs of the step-optimal coupling of tabular chains Q and P.

    The coupled history is carried as dict atoms {(i, j): mass} over the
    reached state pairs; each reached pair's kernel rows are coupled by
    one dense LP, and step k is charged sum mass * plan cost.
    """
    cost = tabular_state_cost(q, s)
    d1, plan = dense_transport(cost, q.init, p.init)
    k = q.n_states
    atoms = {(i, j): plan[i, j] for i in range(k) for j in range(k) if plan[i, j] > 0}
    steps = [d1]
    plans = {}
    for _ in range(1, n):
        dk, nxt = [], {}
        for (i, j), w in atoms.items():
            if (i, j) not in plans:
                plans[(i, j)] = dense_transport(cost, q.transition[i], p.transition[j])
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
