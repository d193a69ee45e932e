"""Hierarchical overlapping clustering constructors: the one stage table.

A clustering stage is described by its first-co-occurrence matrix, the least
scale at which each pair of points shares a block (`first_cooccurrence`);
`check_stage` is the one check of a stage's parameters (k, delta). Each
stage's hierarchy is one threshold scan: at 0 and at every distinct finite
value delta of the scanned matrix, the blocks of the graph whose edges are
the pairs at matrix entry <= delta (edges take effect exactly at their
value). The scan inserts the pairs as edges in value order, one batch per
value, and reads the blocks off after each batch:

  sl     single_linkage   bottleneck matrix       connected components
  ml     maximal_linkage  d                       maximal cliques
  lk     l_k_linkage      hop-bounded minimax     maximal cliques
  vlk    vl_k_linkage     d                       maximal k-vertex-connected subgraphs
  iso    iso_cluster      geodesic metric         maximal cliques
  fuzzy  fuzzy_simplex    -log fuzzy membership   maximal cliques

Except for `vlk`, the scanned matrix is the first-co-occurrence matrix. The
bottleneck matrix is the single-linkage cophenetic distance: its distinct
values are among the dendrogram's n-1 merge heights, so `sl` takes its
components at most n times. `vlk` recomputes its blocks on the current
graph after each batch; the maximal cliques are updated per inserted edge
(`graphs.insert_clique_edge`), so no clique scale reruns Bron-Kerbosch on
the whole graph.
"""

from __future__ import annotations

import math

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
from .errors import DisconnectedError, ValidationError
from .graphs import (
    bottleneck_matrix,
    components_of_inf,
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
    neighbor sets to the blocks; without it the blocks are the maximal
    cliques, updated per inserted edge. The scan stops at the first single
    block.
    """
    n = dist.shape[0]
    rows, cols = np.triu_indices(n, 1)
    vals = dist[rows, cols]
    order = np.argsort(vals, kind="stable")
    order = order[np.isfinite(vals[order])]
    rows, cols, vals = rows[order].tolist(), cols[order].tolist(), vals[order].tolist()
    neighbors: list[set[int]] = [set() for _ in range(n)]
    through = [{(v,)} for v in range(n)]  # the maximal cliques through each vertex
    staged, pos, delta = [], 0, 0.0
    while True:
        while pos < len(vals) and vals[pos] <= delta:
            u, v = rows[pos], cols[pos]
            if blocks_of is None:
                insert_clique_edge(neighbors, through, u, v)
            else:
                neighbors[u].add(v)
                neighbors[v].add(u)
            pos += 1
        blocks = sorted(set().union(*through)) if blocks_of is None else blocks_of(neighbors)
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
    """The hierarchical cover of a clustering stage, by name.

    Every stage but `vlk` scans its first-co-occurrence matrix, and `vlk`'s
    is read off its hierarchy, so every membership matrix is
    exp(-first_cooccurrence). `iso` without delta takes the connectivity
    radius; `disconnected` is its policy for pairs in different components:
    "error" raises, "cap" applies `cap_disconnected`.
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
    `iso` pairs in different components inf.
    """
    check_stage(stage, k, delta, disconnected)
    if stage == "sl":
        return bottleneck_matrix(space.d)
    if stage == "ml":
        return space.d.copy()
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
    comps = components_of_inf(g)
    raise DisconnectedError(
        f"threshold graph at {delta!r} has {len(comps)} components: {comps}", components=comps
    )


def single_linkage(space: PseudometricSpace) -> HierarchicalCover:
    """Blocks at scale delta are the connected components of the threshold graph.

    Scanned over the bottleneck matrix, so the only scales visited are the
    n-1 merge heights of the single-linkage dendrogram, not every distinct
    distance.
    """
    return cluster_hierarchy(space, "sl")


def maximal_linkage(space: PseudometricSpace) -> HierarchicalCover:
    """Blocks at scale delta are the maximal cliques of the threshold graph."""
    return cluster_hierarchy(space, "ml")


def l_k_linkage(space: PseudometricSpace, k: int) -> HierarchicalCover:
    """Blocks are maximal sets of points pairwise reachable within a bounded hop count.

    k counts the points of the connecting sequence, so the hop bound is
    max(1, k-1); k=1 collapses to the direct edge relation (maximal linkage)
    and k >= n reproduces single linkage. This is the one k convention of the
    library and of `PipelineSpec.k`; the named algorithm `kpath` takes a hop
    bound instead, which `algorithms.named_spec` turns into k = hops + 1.
    """
    return cluster_hierarchy(space, "lk", k=k)


def vl_k_linkage(space: PseudometricSpace, k: int) -> HierarchicalCover:
    """Blocks at scale delta are the maximal min(n,k)-vertex-connected subgraphs.

    Isolated vertices appear as singleton blocks; complete subgraphs count as
    k-vertex-connected for every k, so k >= n reproduces maximal linkage and
    k = 1 reproduces single linkage.
    """
    return cluster_hierarchy(space, "vlk", k=k)


def geodesic_metric(
    space: PseudometricSpace, delta_cap: float | None, disconnected: str = "error"
) -> PseudometricSpace:
    """Shortest-path metric of the weighted threshold graph at delta_cap: the `iso`
    stage's first-co-occurrence matrix (delta_cap None: the connectivity radius).

    Pairs in different components either raise (policy "error") or take the
    cap rule `cap_disconnected`, 3 times the largest finite geodesic ("cap").
    """
    g = first_cooccurrence(space, "iso", delta=delta_cap, disconnected=disconnected)
    return PseudometricSpace(g, space.labels)


def iso_cluster(
    space: PseudometricSpace, delta_cap: float | None, disconnected: str = "error"
) -> HierarchicalCover:
    """Maximal linkage over the geodesic metric at delta_cap.

    The membership matrix is then exp(-geodesic distance), so a stress loss
    over its target distances is the IsoMap objective.
    """
    return cluster_hierarchy(space, "iso", delta=delta_cap, disconnected=disconnected)


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


def fuzzy_simplex(space: PseudometricSpace) -> tuple[HierarchicalCover, MembershipMatrix]:
    """Hierarchical cover and membership matrix of the local-rescaling construction.

    The cover at strength a is the flag closure (maximal cliques) of the graph
    on pairs with membership >= a, i.e. scale delta = -log membership.
    """
    membership = fuzzy_union_membership(space)
    return _threshold_hierarchy(target_distances(membership)), membership
