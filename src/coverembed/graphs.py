"""Deterministic graph machinery shared by the clustering constructors.

All functions take either a dense distance matrix or adjacency as a list of
neighbor sets, and return canonically ordered results so that downstream
covers compare bytewise.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def threshold_neighbors(d: np.ndarray, delta: float) -> list[set[int]]:
    """Neighbor sets of the graph with an edge wherever d[i,j] <= delta, i != j."""
    n = d.shape[0]
    adj = (d <= delta)
    np.fill_diagonal(adj, False)
    return [set(np.flatnonzero(adj[i]).tolist()) for i in range(n)]


def connected_components(neighbors: list[set[int]]) -> list[tuple[int, ...]]:
    """Components as sorted tuples, ordered by smallest member."""
    n = len(neighbors)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = []
        queue = deque([s])
        seen[s] = True
        while queue:
            v = queue.popleft()
            comp.append(v)
            for u in neighbors[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def max_cliques(neighbors: list[set[int]]) -> list[tuple[int, ...]]:
    """All maximal cliques via Bron-Kerbosch with pivoting, canonically ordered.

    Exponential in the worst case; threshold graphs near merge scales are
    sparse enough at desk scale.
    """
    out: list[tuple[int, ...]] = []
    n = len(neighbors)

    def expand(r: list[int], p: set[int], x: set[int]):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot, best = -1, -1
        for u in sorted(p | x):
            score = len(p & neighbors[u])
            if score > best:
                pivot, best = u, score
        for v in sorted(p - neighbors[pivot]):
            expand(r + [v], p & neighbors[v], x & neighbors[v])
            p.remove(v)
            x.add(v)

    expand([], set(range(n)), set())
    return sorted(out)


def prim_mst(d: np.ndarray) -> list[tuple[float, int, int]]:
    """Minimum spanning tree edges of the complete graph weighted by d.

    Deterministic: grows from vertex 0, ties broken by smallest vertex index.
    Returns (weight, i, j) with i < j, sorted by (weight, i, j).
    """
    n = d.shape[0]
    if n <= 1:
        return []
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    best_from = np.zeros(n, dtype=int)
    best[0] = np.inf
    edges = []
    for _ in range(n - 1):
        v = int(np.argmin(best))
        w = float(best[v])
        u = int(best_from[v])
        edges.append((w, min(u, v), max(u, v)))
        in_tree[v] = True
        best[v] = np.inf
        closer = d[v] < best
        closer &= ~in_tree
        best[closer] = d[v][closer]
        best_from[closer] = v
    return sorted(edges)


def bottleneck_matrix(d: np.ndarray) -> np.ndarray:
    """Minimax path cost between all pairs (max edge minimized over paths).

    Computed along the minimum spanning tree by merging clusters in edge-weight
    order: when two clusters join at weight w, every cross pair gets w.
    """
    n = d.shape[0]
    b = np.zeros((n, n))
    parent = list(range(n))
    members: list[list[int]] = [[i] for i in range(n)]

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for w, i, j in prim_mst(d):
        ri, rj = find(i), find(j)
        if ri == rj:
            continue
        mi, mj = members[ri], members[rj]
        b[np.ix_(mi, mj)] = w
        b[np.ix_(mj, mi)] = w
        if len(mi) < len(mj):
            ri, rj = rj, ri
            mi, mj = mj, mi
        parent[rj] = ri
        members[ri] = mi + mj
        members[rj] = []
    return b


def hop_bounded_minimax(d: np.ndarray, hops: int) -> np.ndarray:
    """Minimax path cost restricted to paths of at most `hops` edges.

    hops=1 reproduces d; hops >= n-1 reproduces the full bottleneck matrix.
    """
    if hops < 1:
        raise ValueError("hop bound must be >= 1")
    n = d.shape[0]
    b = d.copy()
    np.fill_diagonal(b, 0.0)
    for _ in range(min(hops, n - 1) - 1):
        # one more hop: go to any intermediate l, then take a direct edge
        step = np.minimum(b, np.min(np.maximum(b[:, :, None], d[None, :, :]), axis=1))
        if np.array_equal(step, b):
            break
        b = step
    np.fill_diagonal(b, 0.0)
    return b


def geodesic_matrix(d: np.ndarray, delta_cap: float) -> np.ndarray:
    """All-pairs shortest-path lengths in the threshold graph at delta_cap.

    Entries are inf for pairs in different components.
    """
    n = d.shape[0]
    g = np.where(d <= delta_cap, d, np.inf)
    np.fill_diagonal(g, 0.0)
    for k in range(n):
        np.minimum(g, g[:, k, None] + g[None, k, :], out=g)
    return g


def components_of_inf(g: np.ndarray) -> list[tuple[int, ...]]:
    """Components implied by a matrix with inf marking unreachable pairs."""
    finite = np.isfinite(g)
    neighbors = [set(np.flatnonzero(finite[i]).tolist()) - {i} for i in range(g.shape[0])]
    return connected_components(neighbors)


# -- vertex connectivity via max-flow on the vertex-split network ------------


def _vertex_capacity_maxflow(neighbors, s, t):
    """Max number of internally vertex-disjoint s-t paths (Menger).

    Unit-capacity vertex-split digraph solved by BFS augmentation. Returns
    (flow_value, residual_reachable_on_original_vertices_in/out).
    """
    n = len(neighbors)
    # node 2v = "in" copy, 2v+1 = "out" copy
    inf = n + 1
    cap: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(2 * n)]

    def add_edge(a, b, c):
        if (a, b) not in cap:
            cap[(a, b)] = 0
            cap[(b, a)] = cap.get((b, a), 0)
            adj[a].append(b)
            adj[b].append(a)
        cap[(a, b)] += c

    for v in range(n):
        add_edge(2 * v, 2 * v + 1, 1 if v not in (s, t) else inf)
        for u in sorted(neighbors[v]):
            add_edge(2 * v + 1, 2 * u, inf)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        prev = {source: None}
        queue = deque([source])
        while queue and sink not in prev:
            a = queue.popleft()
            for b in adj[a]:
                if b not in prev and cap.get((a, b), 0) > 0:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            break
        b = sink
        while prev[b] is not None:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] = cap.get((b, a), 0) + 1
            b = a
        flow += 1
    reach = {source}
    queue = deque([source])
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            if b not in reach and cap.get((a, b), 0) > 0:
                reach.add(b)
                queue.append(b)
    return flow, reach


def _min_cut_for_pair(neighbors, s, t):
    """(size, cut vertex set) of a minimum s-t vertex cut, deterministic."""
    flow, reach = _vertex_capacity_maxflow(neighbors, s, t)
    cut = tuple(
        v
        for v in range(len(neighbors))
        if 2 * v in reach and 2 * v + 1 not in reach
    )
    return flow, cut


def is_complete(neighbors) -> bool:
    n = len(neighbors)
    return all(len(neighbors[v]) == n - 1 for v in range(n))


def min_vertex_cut(neighbors):
    """(kappa, cut) of the whole graph; cut=() if disconnected, None if complete.

    Ties among equal-size cuts are broken by the lexicographically smallest
    cut vertex set.
    """
    n = len(neighbors)
    comps = connected_components(neighbors)
    if len(comps) > 1:
        return 0, ()
    if is_complete(neighbors):
        return n - 1, None
    best_val, best_cut = None, None
    for s in range(n):
        for t in range(s + 1, n):
            if t in neighbors[s]:
                continue
            val, cut = _min_cut_for_pair(neighbors, s, t)
            if best_val is None or val < best_val or (val == best_val and cut < best_cut):
                best_val, best_cut = val, cut
    return best_val, best_cut


def maximal_j_connected_sets(neighbors, j: int) -> list[tuple[int, ...]]:
    """Maximal vertex sets whose induced subgraph is j-connected.

    Recursive splitting along minimum vertex cuts: any j-connected set lies
    inside component + cut for every cut smaller than j, so the recursion is
    exhaustive. Isolated vertices surface as singleton blocks.
    """
    n = len(neighbors)
    found: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()

    def rec(vertices: frozenset[int]):
        if vertices in seen:
            return
        seen.add(vertices)
        vs = sorted(vertices)
        index = {v: i for i, v in enumerate(vs)}
        sub = [
            {index[u] for u in neighbors[v] if u in index}
            for v in vs
        ]
        if len(vs) <= 1 or is_complete(sub):
            found.add(vertices)
            return
        kappa, cut = min_vertex_cut(sub)
        if cut is None or kappa >= j:
            found.add(vertices)
            return
        cut_orig = {vs[c] for c in cut}
        cut_set = set(cut)
        rest = [set() if i in cut_set else sub[i] - cut_set for i in range(len(vs))]
        for comp in connected_components(rest):
            if comp[0] not in cut_set:
                rec(frozenset({vs[v] for v in comp} | cut_orig))

    rec(frozenset(range(n)))
    candidates = sorted(found, key=lambda s: tuple(sorted(s)))
    maximal = [
        s for s in candidates
        if not any(s < other for other in candidates)
    ]
    return sorted(tuple(sorted(s)) for s in maximal)
