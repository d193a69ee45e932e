"""Hierarchical overlapping clustering constructors: the one stage table.

A clustering stage is described by its first-co-occurrence matrix, the least
scale at which each pair of points shares a block (`first_cooccurrence`);
`check_stage` is the one check of a stage's parameters (k, delta). Each
stage's hierarchy is one threshold scan: at 0 and at every distinct finite
value delta of the scanned matrix, the blocks of the graph whose edges are
the pairs at matrix entry <= delta (edges take effect exactly at their
value). The scan inserts the pairs as edges in value order, one batch per
value, and reads the blocks off after each batch:

  sl     bottleneck matrix       connected components
  ml     d                       maximal cliques
  lk     hop-bounded minimax     maximal cliques
  vlk    d                       maximal k-vertex-connected subgraphs
  iso    geodesic metric         maximal cliques
  fuzzy  -log fuzzy membership   maximal cliques

Except for `vlk`, the scanned matrix is the first-co-occurrence matrix. The
bottleneck matrix is the single-linkage cophenetic distance: its distinct
values are among the dendrogram's n-1 merge heights, so `sl` takes its
components at most n times. `vlk` recomputes its blocks on the current
graph after each batch; the maximal cliques are updated per inserted edge
(`graphs.insert_clique_edge`), so no clique scale reruns Bron-Kerbosch on
the whole graph. The scan keeps one adjacency for every stage, an int
bitmask per vertex, which the clique updates, `sl`'s components and `vlk`'s
separator searches all read. Each clique's sorted tuple is made once, when
it is born, and the clique scans keep their sorted block list current by the
cliques each insertion kills and creates. Every hierarchy a scan builds is
marked as coarsening, so the interleaving never checks it again.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from .covers import (
    Cover,
    HierarchicalCover,
    MembershipMatrix,
    build_hierarchy,
    cap_disconnected,
    first_cooccurrence_scales,
    target_distances,
)
from .errors import DisconnectedError, ValidationError, _check_int
from .graphs import (
    bottleneck_matrix,
    connected_components,
    geodesic_matrix,
    hop_bounded_minimax,
    insert_clique_edge,
    maximal_j_connected_sets,
)
from .metric import PseudometricSpace

CLUSTER_STAGES = ("sl", "ml", "lk", "vlk", "iso", "fuzzy")


def check_stage(
    stage: str, k: int | None = None, delta: float | None = None, disconnected: str | None = None
) -> None:
    """The one parameter check of every clustering entry point (ValidationError)."""
    if stage not in CLUSTER_STAGES:
        raise ValidationError(f"unknown clustering stage {stage!r}")
    if k is not None:
        _check_int("k", k)
    if stage in ("lk", "vlk") and (k is None or k < 1):
        raise ValidationError(f"stage {stage!r} needs parameter k >= 1, got {k!r}")
    if delta is not None and not (math.isfinite(delta) and delta >= 0):
        raise ValidationError(f"delta must be finite and nonnegative, got {delta!r}")
    if disconnected not in ("error", "cap", None):
        raise ValidationError(f"unknown disconnection policy {disconnected!r}")


def connectivity_radius(space: PseudometricSpace) -> float:
    """Smallest threshold connecting the threshold graph: the largest bottleneck entry.

    That entry is the last merge height of the single-linkage dendrogram; 0.0
    below two points. Adding 0.0 turns a -0.0 height into 0.0.
    """
    if space.n < 2:
        return 0.0
    return float(linkage(squareform(space.d, checks=False), "single")[-1, 2] + 0.0)


def _threshold_hierarchy(dist: np.ndarray, blocks_of=None) -> HierarchicalCover:
    """Blocks of the threshold graphs of `dist`, at 0 and each distinct finite value.

    `dist` is the functor's symmetric first-co-occurrence matrix: two points
    share a block from scale dist[i, j] on. One scan inserts the finite pairs in
    value order, a scale's pairs as one batch (scale 0 takes every entry
    <= 0), and records the cover after each batch. `blocks_of` maps the
    adjacency bitmasks to the blocks; without it the blocks are the maximal
    cliques, a sorted list updated per inserted edge. The scan stops at the
    first single block. It only adds edges, so each cover refines the next,
    and `build_hierarchy` marks the result as coarsening.
    """
    n = dist.shape[0]
    rows, cols = np.triu_indices(n, 1)
    vals = dist[rows, cols]
    order = np.argsort(vals, kind="stable")
    order = order[np.isfinite(vals[order])]
    rows, cols, vals = rows[order].tolist(), cols[order].tolist(), vals[order].tolist()
    neighbors = [0] * n  # adjacency bitmasks
    through = [{1 << v: (v,)} for v in range(n)]  # the maximal cliques through each vertex
    blocks = [(v,) for v in range(n)]  # the maximal cliques, sorted
    staged, pos, delta = [], 0, 0.0
    while True:
        while pos < len(vals) and vals[pos] <= delta:
            u, v = rows[pos], cols[pos]
            if blocks_of is None:
                died, born = insert_clique_edge(neighbors, through, u, v)
                for b in died:
                    del blocks[bisect_left(blocks, b)]
                for b in born:
                    insort(blocks, b)
            else:
                neighbors[u] |= 1 << v
                neighbors[v] |= 1 << u
            pos += 1
        if blocks_of is not None:
            blocks = blocks_of(neighbors)
        staged.append((delta, Cover(n, tuple(blocks))))  # blocks come sorted
        if len(blocks) == 1 or pos == len(vals):
            return build_hierarchy(n, staged)
        delta = vals[pos]


def cluster_hierarchy(
    space: PseudometricSpace,
    stage: str,
    k: int | None = None,
    delta: float | None = None,
    disconnected: str = "error",
) -> HierarchicalCover:
    """The hierarchical cover of a clustering stage, by name: the one entry point.

    Every stage but `vlk` scans its first-co-occurrence matrix, and `vlk`'s
    is read off its hierarchy, so every membership matrix is
    exp(-first_cooccurrence). Per stage:

    - `sl`: components, visited only at the n-1 dendrogram merge heights;
    - `lk`: k counts the points of a connecting path, so the hop bound is
      max(1, k-1); k = 1 is `ml` and k >= n is `sl`. This is the library's
      one k convention; `algorithms.named_spec` turns `kpath`'s hop bound
      into k = hops + 1;
    - `vlk`: the maximal min(n, k)-vertex-connected subgraphs, isolated
      vertices as singletons; cliques count as k-connected for every k, so
      k >= n is `ml` and k = 1 is `sl`;
    - `iso`: `ml` over the geodesic metric of the threshold graph at delta
      (default: the connectivity radius), so the membership makes stress the
      IsoMap objective; `disconnected` is its policy for pairs in different
      components: "error" raises, "cap" applies `cap_disconnected`;
    - `fuzzy`: the flag closure of the graph on pairs of membership >= a,
      i.e. the scan at -log `fuzzy_union_membership`.
    """
    if stage == "vlk":
        check_stage(stage, k, delta, disconnected)
        j = min(space.n, k)
        return _threshold_hierarchy(space.d, lambda nb: maximal_j_connected_sets(nb, j))
    d = first_cooccurrence(space, stage, k, delta, disconnected)
    return _threshold_hierarchy(d, connected_components if stage == "sl" else None)


def first_cooccurrence(
    space: PseudometricSpace,
    stage: str,
    k: int | None = None,
    delta: float | None = None,
    disconnected: str | None = "error",
) -> np.ndarray:
    """The stage's first-co-occurrence matrix, inf for pairs that never share a block.

    Parameters are those of `cluster_hierarchy`; `disconnected` None leaves
    `iso` pairs in different components inf, and "error" names the
    components: each row's finite entries are its point's. The matrix may be
    read-only: `ml`'s is the space's own distance matrix, `vlk`'s its
    hierarchy's cache.
    """
    check_stage(stage, k, delta, disconnected)
    if stage == "sl":
        return bottleneck_matrix(space.d)
    if stage == "ml":
        return space.d
    if stage == "lk":
        return hop_bounded_minimax(space.d, max(1, k - 1))
    if stage == "vlk":
        return first_cooccurrence_scales(cluster_hierarchy(space, stage, k))
    if stage == "fuzzy":
        return target_distances(fuzzy_union_membership(space))
    # iso: the geodesic metric of the threshold graph at delta
    delta = connectivity_radius(space) if delta is None else delta
    g = geodesic_matrix(space.d, delta)
    if disconnected is None or np.isfinite(g).all():
        return g
    if disconnected == "cap":
        return cap_disconnected(g)
    comps = sorted({tuple(np.flatnonzero(row).tolist()) for row in np.isfinite(g)})
    raise DisconnectedError(
        f"threshold graph at {delta!r} has {len(comps)} components: {comps}", components=comps
    )


def fuzzy_union_membership(space: PseudometricSpace) -> MembershipMatrix:
    """Pairwise memberships from locally rescaled distances.

    Around each point i the distances are shifted down by rho_i, the distance
    to its nearest distinct point (clamped at 0 so strengths stay <= 1); the
    two directed strengths exp(-shifted distance) combine by probabilistic sum.
    """
    n = space.n
    if n < 2:
        raise ValidationError("local rescaling needs at least 2 points")
    d = space.d
    masked = d + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    rho = masked.min(axis=1)
    directed = np.exp(-np.maximum(d - rho[:, None], 0.0))
    w = 1.0 - (1.0 - directed) * (1.0 - directed.T)
    np.fill_diagonal(w, 1.0)
    return MembershipMatrix(w)
