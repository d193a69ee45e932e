"""Hierarchical overlapping clustering constructors.

Each constructor maps a pseudometric space to a HierarchicalCover through one
threshold scan: at every distinct finite value delta of a first-co-occurrence
matrix, the blocks of the graph whose edges are the pairs at matrix entry
<= delta (edges take effect exactly at their value). The six constructors
differ only in the matrix scanned and in how graph structure becomes blocks:

  single_linkage   bottleneck matrix       connected components
  maximal_linkage  d                       maximal cliques
  l_k_linkage      hop-bounded minimax     maximal cliques
  vl_k_linkage     d                       maximal k-vertex-connected subgraphs
  iso_cluster      geodesic metric         maximal cliques
  fuzzy_simplex    -log fuzzy membership   maximal cliques

Single linkage scans the bottleneck matrix, whose distinct values are the
n-1 merge heights of the minimum spanning tree, so it builds at most n
threshold graphs instead of one per distinct distance.
"""

from __future__ import annotations

import numpy as np

from .covers import (
    HierarchicalCover,
    MembershipMatrix,
    build_hierarchy,
    make_cover,
    target_distances,
)
from .errors import DisconnectedError, ValidationError
from .graphs import (
    bottleneck_matrix,
    components_of_inf,
    connected_components,
    geodesic_matrix,
    hop_bounded_minimax,
    max_cliques,
    maximal_j_connected_sets,
    threshold_neighbors,
)
from .metric import PseudometricSpace


def _threshold_hierarchy(dist: np.ndarray, blocks_of=max_cliques) -> HierarchicalCover:
    """Blocks of the threshold graphs of `dist`, at 0 and each distinct finite value.

    `dist` is the functor's first-co-occurrence matrix: two points share a
    block from scale dist[i, j] on. The scan stops at the first single block.
    """
    n = dist.shape[0]
    vals = np.unique(dist[~np.eye(n, dtype=bool)])
    staged = []
    for delta in [0.0] + [float(v) for v in vals[np.isfinite(vals)] if v > 0]:
        blocks = blocks_of(threshold_neighbors(dist, delta))
        staged.append((delta, make_cover(n, blocks, validate=False)))
        if len(blocks) == 1:
            break
    return build_hierarchy(n, staged)


def single_linkage(space: PseudometricSpace) -> HierarchicalCover:
    """Blocks at scale delta are the connected components of the threshold graph.

    Scanned over the bottleneck matrix, so the only scales visited are the
    n-1 merge heights of the minimum spanning tree, not every distinct
    distance.
    """
    return _threshold_hierarchy(bottleneck_matrix(space.d), connected_components)


def maximal_linkage(space: PseudometricSpace) -> HierarchicalCover:
    """Blocks at scale delta are the maximal cliques of the threshold graph."""
    return _threshold_hierarchy(space.d)


def l_k_linkage(space: PseudometricSpace, k: int) -> HierarchicalCover:
    """Blocks are maximal sets of points pairwise reachable within a bounded hop count.

    k counts the points of the connecting sequence, so the hop bound is
    max(1, k-1); k=1 collapses to the direct edge relation (maximal linkage)
    and k >= n reproduces single linkage. This is the one k convention of the
    library: `PipelineSpec.k` and `k_path_scaling` translate to it.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return _threshold_hierarchy(hop_bounded_minimax(space.d, max(1, k - 1)))


def vl_k_linkage(space: PseudometricSpace, k: int) -> HierarchicalCover:
    """Blocks at scale delta are the maximal min(n,k)-vertex-connected subgraphs.

    Isolated vertices appear as singleton blocks; complete subgraphs count as
    k-vertex-connected for every k, so k >= n reproduces maximal linkage and
    k = 1 reproduces single linkage.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    j = min(space.n, k)
    return _threshold_hierarchy(
        space.d, lambda neighbors: maximal_j_connected_sets(neighbors, j)
    )


def geodesic_metric(
    space: PseudometricSpace,
    delta_cap: float,
    disconnected: str = "error",
    cap_factor: float = 3.0,
) -> PseudometricSpace:
    """Shortest-path metric of the weighted threshold graph at delta_cap.

    Pairs in different components either raise (policy "error") or are capped
    at cap_factor times the largest finite geodesic (policy "cap").
    """
    if delta_cap < 0:
        raise ValidationError(f"delta_cap must be nonnegative, got {delta_cap!r}")
    if disconnected not in ("error", "cap"):
        raise ValidationError(f"unknown disconnection policy {disconnected!r}")
    g = geodesic_matrix(space.d, delta_cap)
    if not np.isfinite(g).all():
        if disconnected == "error":
            comps = components_of_inf(g)
            raise DisconnectedError(
                f"threshold graph at {delta_cap!r} has {len(comps)} components: "
                f"{comps}",
                components=comps,
            )
        finite_max = g[np.isfinite(g)].max()
        g = np.where(np.isfinite(g), g, cap_factor * finite_max)
        np.fill_diagonal(g, 0.0)
    return PseudometricSpace(g, space.labels)


def iso_cluster(
    space: PseudometricSpace,
    delta_cap: float,
    disconnected: str = "error",
    cap_factor: float = 3.0,
) -> HierarchicalCover:
    """Maximal linkage over the geodesic metric at delta_cap.

    The membership matrix is then exp(-geodesic distance), so a stress loss
    over its target distances is the IsoMap objective.
    """
    return _threshold_hierarchy(geodesic_metric(space, delta_cap, disconnected, cap_factor).d)


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


CLUSTER_STAGES = ("sl", "ml", "lk", "vlk", "iso", "fuzzy")


def cluster_hierarchy(
    space: PseudometricSpace,
    stage: str,
    k: int | None = None,
    delta: float | None = None,
    disconnected: str = "error",
    cap_factor: float = 3.0,
) -> HierarchicalCover:
    """Dispatch a clustering stage by name (the CLI `cluster` entry point)."""
    if stage == "sl":
        return single_linkage(space)
    if stage == "ml":
        return maximal_linkage(space)
    if stage == "lk":
        if k is None:
            raise ValidationError("stage 'lk' needs parameter k")
        return l_k_linkage(space, k)
    if stage == "vlk":
        if k is None:
            raise ValidationError("stage 'vlk' needs parameter k")
        return vl_k_linkage(space, k)
    if stage == "iso":
        if delta is None:
            raise ValidationError("stage 'iso' needs parameter delta")
        return iso_cluster(space, delta, disconnected, cap_factor)
    if stage == "fuzzy":
        return fuzzy_simplex(space)[0]
    raise ValidationError(f"unknown clustering stage {stage!r}")
