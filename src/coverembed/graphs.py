"""Deterministic graph machinery shared by the clustering constructors.

Graphs are adjacency as one int bitmask per vertex: bit u of neighbors[v] is
set iff {u, v} is an edge. Vertex sets are masks too, so intersecting a
neighborhood with a candidate set, or testing that a set lies inside a
neighborhood, is one big-int operation (bit-parallel Bron-Kerbosch, San
Segundo et al. 2011). Results are canonically ordered sorted tuples, so
downstream covers compare bytewise.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform


def members(mask: int) -> tuple[int, ...]:
    """The vertices of a mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _component_masks(neighbors: list[int], within: int):
    """The components of the subgraph on `within`, as masks, by smallest member."""
    while within:
        comp, frontier = 0, within & -within
        while frontier:
            comp |= frontier
            reached = 0
            for v in members(frontier):
                reached |= neighbors[v]
            frontier = reached & within & ~comp
        within &= ~comp
        yield comp


def connected_components(neighbors: list[int]) -> list[tuple[int, ...]]:
    """Components as sorted tuples, ordered by smallest member."""
    return [members(c) for c in _component_masks(neighbors, (1 << len(neighbors)) - 1)]


def _clique_masks(neighbors: list[int], p: int) -> list[int]:
    """The maximal cliques of the subgraph on mask `p`, as masks: Bron-Kerbosch
    with pivoting, each clique once. The empty graph has one, the empty clique."""
    out: list[int] = []

    def expand(r: int, p: int, x: int):
        while p & (p - 1):
            # any pivot gives every clique once; the one with most neighbors in p
            # branches least, and a pivot leaving at most one branch is kept at once
            pivot, best, enough, rest = 0, -1, p.bit_count() - 1, p | x
            while rest:
                low = rest & -rest
                rest ^= low
                nb = neighbors[low.bit_length() - 1]
                score = (p & nb).bit_count()
                if score > best:
                    pivot, best = nb, score  # the pivot's neighbors
                    if score >= enough:
                        break
            branch = p & ~pivot
            if not branch & (branch - 1):  # at most one branch: follow it here
                if not branch:
                    return
                nb = neighbors[branch.bit_length() - 1]
                r, p, x = r | branch, p & nb, x & nb
                continue
            while branch:
                bit = branch & -branch
                branch ^= bit
                nb = neighbors[bit.bit_length() - 1]
                expand(r | bit, p & nb, x & nb)
                p ^= bit
                x |= bit
            return
        # at most one candidate v: r + v is maximal unless x holds a neighbor of v
        if not x & (neighbors[p.bit_length() - 1] if p else -1):
            out.append(r | p)

    expand(0, p, 0)
    return out


def max_cliques(neighbors: list[int], vertices: int | None = None) -> list[tuple[int, ...]]:
    """All maximal cliques of the subgraph on mask `vertices` (default: every
    vertex), via Bron-Kerbosch with pivoting on bitmasks, canonically ordered.

    Exponential in the worst case. The threshold scans call it only on the
    common neighborhood of an inserted edge (`insert_clique_edge`).
    """
    if vertices is None:
        vertices = (1 << len(neighbors)) - 1
    return sorted(map(members, _clique_masks(neighbors, vertices)))


def insert_clique_edge(neighbors: list[int], through: list[dict], u: int, v: int):
    """Add edge {u, v} to `neighbors`, keeping `through[w]`, the maximal cliques
    that contain w (mask -> sorted tuple, the tuple made once when the clique
    is born), current for every vertex w. Returns the cliques that died and
    those born, as sorted tuples.

    The new maximal cliques are {u, v} with each maximal clique of the common
    neighborhood of u and v. An old clique through u stops being maximal
    exactly when v is adjacent to all of it, that is when it lies inside one
    of the new cliques; likewise through v. No other clique changes (Stix 2004).
    """
    ends = 1 << u | 1 << v
    fresh = [c | ends for c in _clique_masks(neighbors, neighbors[u] & neighbors[v])]
    neighbors[u] |= 1 << v
    neighbors[v] |= 1 << u
    died = []
    for a, b in ((u, v), (v, u)):
        outside = ~neighbors[b]
        for c, block in [item for item in through[a].items() if not item[0] & outside]:
            died.append(block)
            for w in block:
                del through[w][c]
    born = []
    for c in fresh:
        block = members(c)
        born.append(block)
        for w in block:
            through[w][c] = block
    return died, born


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

    Entries are inf for pairs in different components, and none is -0.0 (a
    -0.0 length reads as 0.0). SciPy's compiled Floyd-Warshall relaxes in the
    textbook k, i, j order, with no BLAS call. It takes a sparse graph: a
    dense one would read a zero length as a missing edge.
    """
    from scipy.sparse.csgraph import csgraph_from_masked, floyd_warshall  # deferred: iso only

    # shrink=False keeps a mask with no pair above the cap an array, as SciPy needs;
    # the dense lengths are freed before the relaxation allocates its output
    graph = csgraph_from_masked(np.ma.MaskedArray(d + 0.0, mask=d > delta_cap, shrink=False))
    return floyd_warshall(graph, directed=False)


# -- vertex connectivity on the vertex-split network -------------------------


def _separator(neighbors, s, t, j: int) -> tuple[int, ...] | None:
    """A set of fewer than j vertices that separates s from t, or None.

    s and t are distinct and non-adjacent; `neighbors[v]` lists v's neighbors
    within the graph searched. Vertex v splits into an in-copy 2v
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
            return tuple(sorted(a >> 1 for a in prev if not a & 1 and a + 1 not in prev))
        b = sink
        while prev[b] is not None:
            a = prev[b]
            flow[a, b] += 1
            flow[b, a] -= 1
            b = a
    return None


def maximal_j_connected_sets(neighbors: list[int], j: int) -> list[tuple[int, ...]]:
    """Maximal vertex sets that stay connected when any fewer than j are removed.

    A set is split along a separator below j of its first non-adjacent pair
    (s, t), in increasing order, that has one: into each component of the
    rest, each with the separator added. Only sources s among the set's first
    j vertices are tried: a separator below j misses one of them, which lies
    across it from s or from t, so a pair with that source is split by it and
    comes no later (Even 1975). A j-connected subset minus any
    separator below j is connected, so it lies in one of the parts. Whichever
    separators are taken, every j-connected set thus ends inside a leaf, a
    set with no such pair. Leaves are j-connected
    (complete sets and single vertices among them; a disconnected set splits
    along the empty separator), so the maximal leaves are the answer, and
    isolated vertices surface as singleton blocks. A graph with no vertices
    has no such sets. Sets are masks; the separator search gets each set's
    induced subgraph as its members' masks ANDed with the set, listed once.
    """
    if not neighbors:
        return []
    found: set[int] = set()
    seen: set[int] = set()

    def rec(vertices: int):
        if vertices in seen:
            return
        seen.add(vertices)
        vs = members(vertices)
        # the targets t > s not adjacent to s
        pairs = [(s, t) for s in vs[:j] for t in members(vertices & ~neighbors[s] & -(2 << s))]
        sub = {v: members(neighbors[v] & vertices) for v in vs} if pairs else {}
        cut = next((c for s, t in pairs if (c := _separator(sub, s, t, j)) is not None), None)
        if cut is None:
            found.add(vertices)
            return
        cut_mask = sum(1 << v for v in cut)
        for comp in _component_masks(neighbors, vertices & ~cut_mask):
            rec(comp | cut_mask)

    rec((1 << len(neighbors)) - 1)
    return sorted(members(s) for s in found if not any(s != o and not s & ~o for o in found))
