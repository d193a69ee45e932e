"""Deterministic graph machinery shared by the clustering constructors.

All functions take either a dense distance matrix or adjacency as a list of
neighbor sets, and return canonically ordered results so that downstream
covers compare bytewise.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform


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


def max_cliques(
    neighbors: list[set[int]], vertices: set[int] | None = None
) -> list[tuple[int, ...]]:
    """All maximal cliques of the subgraph on `vertices` (default: every vertex),
    via Bron-Kerbosch with pivoting, canonically ordered.

    Exponential in the worst case. The threshold scans call it only on the
    common neighborhood of an inserted edge (`insert_clique_edge`).
    """
    out: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        # any pivot gives every clique once; the one with most neighbors in p
        # branches least, and a pivot leaving at most one branch is kept at once
        pivot, best = -1, -1
        for u in p | x:
            score = len(p & neighbors[u])
            if score > best:
                pivot, best = u, score
                if score >= len(p) - 1:
                    break
        for v in p - neighbors[pivot]:
            expand(r + [v], p & neighbors[v], x & neighbors[v])
            p.remove(v)
            x.add(v)

    expand([], set(range(len(neighbors)) if vertices is None else vertices), set())
    return sorted(out)


def insert_clique_edge(neighbors, through, u: int, v: int) -> None:
    """Add edge {u, v} to `neighbors`, keeping `through[w]`, the set of maximal
    cliques (sorted tuples) that contain w, current for every vertex w.

    The new maximal cliques are {u, v} with each maximal clique of the common
    neighborhood of u and v. An old clique through u stops being maximal
    exactly when v is adjacent to all of it, that is when it lies inside one
    of the new cliques; likewise through v. No other clique changes (Stix 2004).
    """
    fresh = [tuple(sorted(c + (u, v))) for c in max_cliques(neighbors, neighbors[u] & neighbors[v])]
    neighbors[u].add(v)
    neighbors[v].add(u)
    for a, b in ((u, v), (v, u)):
        for c in [c for c in through[a] if neighbors[b].issuperset(c)]:
            for w in c:
                through[w].discard(c)
    for c in fresh:
        for w in c:
            through[w].add(c)


def bottleneck_matrix(d: np.ndarray) -> np.ndarray:
    """Minimax path cost between all pairs (max edge minimized over paths).

    This is the cophenetic distance of the single-linkage dendrogram (Gower &
    Ross 1969): its entries are minimum-spanning-tree edge weights, copied from
    d without arithmetic, and unique whatever tie-break the tree takes.
    """
    n = d.shape[0]
    if n < 2:
        return np.zeros((n, n))
    return squareform(cophenet(linkage(squareform(d, checks=False), "single")))


def hop_bounded_minimax(d: np.ndarray, hops: int) -> np.ndarray:
    """Minimax path cost restricted to paths of at most `hops` edges.

    hops=1 reproduces d; hops >= n-1 reproduces the full bottleneck matrix.
    Memory is O(n^2): each hop is one pass over the intermediate vertex.
    """
    if hops < 1:
        raise ValueError("hop bound must be >= 1")
    n = d.shape[0]
    b = d.copy()
    np.fill_diagonal(b, 0.0)
    for _ in range(min(hops, n - 1) - 1):
        # one more hop: go to any intermediate l, then take a direct edge;
        # b stays the previous round's matrix so each round adds one hop only
        step = b.copy()
        for l in range(n):
            np.minimum(step, np.maximum(b[:, l, None], d[None, l, :]), out=step)
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


# -- vertex connectivity on the vertex-split network -------------------------


def _separator(neighbors, s, t, j: int) -> tuple[int, ...] | None:
    """A set of fewer than j vertices that separates s from t, or None.

    s and t are distinct and non-adjacent. Vertex v splits into an in-copy 2v
    and an out-copy 2v+1 joined by a unit arc; edge {u, v} gives uncapacitated
    arcs out(u) -> in(v) and out(v) -> in(u). A flow from s's out-copy to t's
    in-copy counts internally vertex-disjoint s-t paths (Menger), and j such
    paths rule out a separator below j (Even & Tarjan 1975), so at most j are
    augmented. With fewer, the flow is maximum and the answer is the minimum
    separator nearest to s: the vertices whose in-copy the source still
    reaches in the residual network but whose out-copy it does not.
    """
    flow: dict[tuple[int, int], int] = defaultdict(int)  # flow[a, b] == -flow[b, a]

    def residual_arcs(a):
        v = a >> 1
        if a & 1:  # out-copy: undo v's unit, or enter any neighbor
            if flow[a - 1, a]:
                yield a - 1
            for u in neighbors[v]:
                yield 2 * u
        else:  # in-copy: v's unit arc, or undo flow that entered from a neighbor
            if not flow[a, a + 1]:
                yield a + 1
            for u in neighbors[v]:
                if flow[2 * u + 1, a] > 0:
                    yield 2 * u + 1

    source, sink = 2 * s + 1, 2 * t
    for _ in range(j):
        prev = {source: None}
        queue = deque([source])
        while queue and sink not in prev:
            a = queue.popleft()
            for b in residual_arcs(a):
                if b not in prev:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            return tuple(
                v for v in range(len(neighbors)) if 2 * v in prev and 2 * v + 1 not in prev
            )
        b = sink
        while prev[b] is not None:
            a = prev[b]
            flow[a, b] += 1
            flow[b, a] -= 1
            b = a
    return None


def maximal_j_connected_sets(neighbors, j: int) -> list[tuple[int, ...]]:
    """Maximal vertex sets that stay connected when any fewer than j are removed.

    A set is split along a separator below j of its first non-adjacent pair
    (s, t), in increasing order, that has one: into each component of the
    rest, each with the separator added. A j-connected subset minus any
    separator below j is connected, so it lies in one of the parts. Whichever
    separators are taken, every j-connected set thus ends inside a leaf, a
    set with no such pair. Leaves are j-connected
    (complete sets and single vertices among them; a disconnected set splits
    along the empty separator), so the maximal leaves are the answer, and
    isolated vertices surface as singleton blocks. A graph with no vertices
    has no such sets.
    """
    if not neighbors:
        return []
    found: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()

    def rec(vertices: frozenset[int]):
        if vertices in seen:
            return
        seen.add(vertices)
        vs = sorted(vertices)
        index = {v: i for i, v in enumerate(vs)}
        sub = [{index[u] for u in neighbors[v] if u in index} for v in vs]
        pairs = ((s, t) for s in range(len(vs)) for t in range(s + 1, len(vs)) if t not in sub[s])
        cut = next((c for s, t in pairs if (c := _separator(sub, s, t, j)) is not None), None)
        if cut is None:
            found.add(vertices)
            return
        cut_set = set(cut)
        rest = [set() if i in cut_set else sub[i] - cut_set for i in range(len(vs))]
        for comp in connected_components(rest):
            if comp[0] not in cut_set:
                rec(frozenset(vs[v] for v in comp + cut))

    rec(frozenset(range(len(neighbors))))
    return sorted(tuple(sorted(s)) for s in found if not any(s < other for other in found))
