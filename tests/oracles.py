"""Brute-force reference implementations used only to check the fast paths.

Everything here enumerates: components by flood fill over explicit edge
lists, cliques and k-connected sets by subset enumeration, path costs by
walking every simple path. Exponential, fine for n <= 7.
"""

from itertools import combinations, permutations

import numpy as np


def threshold_edges(d, delta):
    n = d.shape[0]
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if d[i, j] <= delta
    }


def oracle_components(n, edges):
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def is_clique(subset, edges):
    return all(
        (min(a, b), max(a, b)) in edges for a, b in combinations(subset, 2)
    )


def oracle_max_cliques(n, edges):
    cliques = [
        set(s)
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
        if is_clique(s, edges)
    ]
    maximal = [
        tuple(sorted(c))
        for c in cliques
        if not any(c < other for other in cliques)
    ]
    return sorted(maximal)


def oracle_minimax_path(d, i, j, max_hops=None):
    """Minimum over simple paths of the maximum step length, with a hop cap."""
    n = d.shape[0]
    if i == j:
        return 0.0
    best = np.inf
    others = [v for v in range(n) if v not in (i, j)]
    cap = n - 1 if max_hops is None else max_hops
    for length in range(0, min(cap - 1, len(others)) + 1):
        for mids in permutations(others, length):
            path = (i,) + mids + (j,)
            cost = max(d[a, b] for a, b in zip(path, path[1:]))
            best = min(best, cost)
    return best


def subset_connected(subset, edges):
    subset = list(subset)
    if len(subset) <= 1:
        return True
    seen = {subset[0]}
    frontier = [subset[0]]
    inset = set(subset)
    while frontier:
        v = frontier.pop()
        for u in inset - seen:
            if (min(u, v), max(u, v)) in edges:
                seen.add(u)
                frontier.append(u)
    return seen == inset


def oracle_is_j_connected(subset, edges, j):
    """Connected after every removal of fewer than j vertices (empty set counts)."""
    subset = set(subset)
    if len(subset) <= 1:
        return True
    for r in range(0, min(j - 1, len(subset)) + 1):
        for removed in combinations(sorted(subset), r):
            if not subset_connected(subset - set(removed), edges):
                return False
    return True


def oracle_maximal_j_connected(n, edges, j):
    good = [
        set(s)
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
        if oracle_is_j_connected(s, edges, j)
    ]
    maximal = [
        tuple(sorted(c))
        for c in good
        if not any(c < other for other in good)
    ]
    return sorted(maximal)


def exhaustive_interleaving_epsilon(h1, h2):
    """Reference interleaving distance: scan every candidate shift in order.

    Like the fast path, the shifted side is evaluated at its exact stored
    scales (a rounded delta + eps must not land one ulp below a breakpoint).
    """
    import math

    from coverembed import cover_at, refines

    candidates = sorted({0.0} | {abs(s - t) for s in h1.scales for t in h2.scales})
    for eps in candidates:
        ok = True
        for ha, hb in ((h1, h2), (h2, h1)):
            checkpoints = [(s, s + eps) for s in ha.scales]
            checkpoints += [(t - eps, t) for t in hb.scales if t - eps > 0]
            checkpoints.append((0.0, eps))
            for delta, shifted in checkpoints:
                if not refines(cover_at(ha, max(delta, 0.0)), cover_at(hb, shifted)):
                    ok = False
        if ok:
            return eps
    return math.inf


def random_space(rng, n=6, low=0.2, high=2.0):
    """Random symmetric distance matrix (not necessarily triangle-valid)."""
    from coverembed import from_matrix

    d = rng.uniform(low, high, size=(n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def random_euclidean(rng, n=6, dim=3, scale=1.0):
    from coverembed import from_points_euclidean

    return from_points_euclidean(rng.normal(scale=scale, size=(n, dim)))


def perturbed(rng, space, eps):
    """A space within eps of the input in max-entry distance."""
    from coverembed import from_matrix

    n = space.n
    noise = rng.uniform(-eps, eps, size=(n, n))
    noise = (noise + noise.T) / 2.0
    np.fill_diagonal(noise, 0.0)
    d = np.clip(space.d + noise, 0.0, None)
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def oracle_refines(fine, coarse):
    """Every block of `fine` is a subset of some block of `coarse`, by set containment."""
    return all(
        any(set(b) <= set(c) for c in coarse.blocks) for b in fine.blocks
    )


def reference_interleaving_report(h1, h2):
    """Bisection over the candidate shifts with set-based refinement at every checkpoint.

    The search `interleaving_distance` ran before it cached refinement tests:
    same candidates, same bisection order and witnesses, each checkpoint
    evaluated afresh through `cover_at` and `oracle_refines`.
    """
    import math

    from coverembed import cover_at
    from coverembed.stability import InterleavingReport

    def refinement_failure(ha, hb, eps):
        checkpoints = [(s, s + eps) for s in ha.scales]
        checkpoints += [(t - eps, t) for t in hb.scales if t - eps > 0]
        checkpoints.append((0.0, eps))
        for delta, shifted in sorted(checkpoints):
            if not oracle_refines(cover_at(ha, max(delta, 0.0)), cover_at(hb, shifted)):
                return delta
        return None

    candidates = sorted({0.0} | {abs(s - t) for s in h1.scales for t in h2.scales})
    failures = []
    lo, hi = 0, len(candidates) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        eps = candidates[mid]
        witness = refinement_failure(h1, h2, eps)
        if witness is None:
            witness = refinement_failure(h2, h1, eps)
        if witness is None:
            best = eps
            hi = mid - 1
        else:
            failures.append((eps, witness))
            lo = mid + 1
    return InterleavingReport(
        epsilon_star=best if best is not None else math.inf,
        candidates=tuple(candidates),
        failures=tuple(sorted(failures)),
    )


def oracle_membership(h):
    """W[i, j] = exp(-scale) of the first cover, scanning all of them, where i, j share a block."""
    n = h.n
    w = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for scale, cover in zip(h.scales, h.covers):
                if any(i in b and j in b for b in cover.blocks):
                    w[i, j] = float(np.exp(-scale))
                    break
    return w
