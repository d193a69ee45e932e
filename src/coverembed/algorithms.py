"""Named embedding pipelines: a clustering stage composed with a loss stage.

Every stress-family pipeline routes through an explicit target-distance
matrix (the closed form of its composed objective) rather than through the
strength integral, which keeps oracles direct; the fuzzy cross-entropy
pipeline routes through a membership matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .covers import MembershipMatrix, membership_matrix, target_distances
from .errors import ValidationError
from .functors import fuzzy_union_membership, geodesic_metric, vl_k_linkage
from .graphs import bottleneck_matrix, geodesic_matrix, hop_bounded_minimax, prim_mst
from .loss import StressProblem, fce_problem, mds_stress_problem
from .metric import PseudometricSpace
from .optimize import Embedding, MinimizeResult, OptimizerConfig, minimize

LOSS_STAGES = ("mds", "fce")


@dataclass(frozen=True)
class PipelineSpec:
    """A clustering stage + loss stage + embedding dimension + solver config."""

    cluster: str  # sl | ml | lk | vlk | iso | fuzzy
    loss: str = "mds"
    m: int = 2
    k: int | None = None
    delta: float | None = None
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    policy: str = "cap"
    cap_factor: float = 3.0
    fce_clamp: float = 1e-6

    def __post_init__(self):
        from .functors import CLUSTER_STAGES

        if self.cluster not in CLUSTER_STAGES:
            raise ValidationError(f"unknown clustering stage {self.cluster!r}")
        if self.loss not in LOSS_STAGES:
            raise ValidationError(f"unknown loss stage {self.loss!r}")
        if self.cluster in ("lk", "vlk") and (self.k is None or self.k < 1):
            raise ValidationError(f"stage {self.cluster!r} needs k >= 1")
        if self.m < 1:
            raise ValidationError(f"embedding dimension must be >= 1, got {self.m}")


@dataclass(frozen=True)
class PipelineReport:
    spec: PipelineSpec
    stage_seconds: dict[str, float]
    target_summary: dict[str, float]
    final_loss: float
    exit_reason: str
    grad_norm: float
    n_iters: int
    trace: tuple[tuple[int, float, float, float], ...]


def connectivity_radius(space: PseudometricSpace) -> float:
    """Smallest threshold at which the threshold graph is connected (MST max edge)."""
    edges = prim_mst(space.d)
    return max((w for w, _, _ in edges), default=0.0)


def stage_targets(space: PseudometricSpace, spec: PipelineSpec) -> np.ndarray:
    """Target distances -log(membership) of the clustering stage, closed form.

    Maximal linkage reproduces the input distances exactly; single linkage
    gives minimax path costs; the remaining stages derive their targets from
    graph structure as documented on each named pipeline.
    """
    d = space.d
    if spec.cluster == "ml":
        return d.copy()
    if spec.cluster == "sl":
        return bottleneck_matrix(d)
    if spec.cluster == "lk":
        return hop_bounded_minimax(d, max(1, spec.k - 1))
    if spec.cluster == "vlk":
        return target_distances(membership_matrix(vl_k_linkage(space, spec.k)))
    if spec.cluster == "iso":
        delta = spec.delta if spec.delta is not None else connectivity_radius(space)
        if spec.policy == "strict":
            return geodesic_metric(space, delta, disconnected="error").d.copy()
        # leave disconnected pairs infinite so the loss policy counts the caps
        return geodesic_matrix(space.d, delta)
    if spec.cluster == "fuzzy":
        w = fuzzy_union_membership(space)
        return target_distances(w)
    raise ValidationError(f"unknown clustering stage {spec.cluster!r}")


def stage_membership(space: PseudometricSpace, spec: PipelineSpec) -> MembershipMatrix:
    """Membership matrix of the clustering stage (exp of minus the targets)."""
    if spec.cluster == "fuzzy":
        return fuzzy_union_membership(space)
    targets = stage_targets(space, spec)
    w = np.exp(-targets)
    np.fill_diagonal(w, 1.0)
    return MembershipMatrix(w)


def _summarize_targets(t: np.ndarray, capped: int) -> dict[str, float]:
    off = t[~np.eye(t.shape[0], dtype=bool)]
    finite = off[np.isfinite(off)]
    return {
        "min": float(finite.min()) if finite.size else 0.0,
        "max": float(finite.max()) if finite.size else 0.0,
        "mean": float(finite.mean()) if finite.size else 0.0,
        "infinite_pairs": float(int((~np.isfinite(off)).sum() // 2)),
        "capped_pairs": float(capped),
    }


def build_problem(space: PseudometricSpace, spec: PipelineSpec):
    if spec.loss == "mds":
        targets = stage_targets(space, spec)
        return mds_stress_problem(targets, spec.m, policy=spec.policy, cap_factor=spec.cap_factor)
    w = stage_membership(space, spec)
    return fce_problem(w, spec.m, clamp=spec.fce_clamp)


def run_pipeline(spec: PipelineSpec, space: PseudometricSpace) -> tuple[Embedding, PipelineReport]:
    """Execute the composition and report per-stage timings and solver exit state."""
    timings = {}
    t0 = time.perf_counter()
    problem = build_problem(space, spec)
    timings["targets"] = time.perf_counter() - t0
    if isinstance(problem, StressProblem):
        summary = _summarize_targets(problem.targets, problem.capped_pairs)
    else:
        summary = _summarize_targets(problem.init_targets(), 0)
    t0 = time.perf_counter()
    result: MinimizeResult = minimize(problem, spec.optimizer)
    timings["optimize"] = time.perf_counter() - t0
    embedding = Embedding(result.embedding.coords, labels=space.labels)
    report = PipelineReport(
        spec=spec,
        stage_seconds=timings,
        target_summary=summary,
        final_loss=result.loss,
        exit_reason=result.exit_reason,
        grad_norm=result.grad_norm,
        n_iters=result.n_iters,
        trace=result.trace,
    )
    return embedding, report


def _run(spec: PipelineSpec, space: PseudometricSpace) -> Embedding:
    return run_pipeline(spec, space)[0]


def metric_mds(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against the input distances themselves."""
    return _run(PipelineSpec("ml", "mds", m, optimizer=optimizer), space)


def single_linkage_scaling(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against minimax (bottleneck) path costs.

    Points connected through a chain of short steps embed close together even
    when their direct distance is large.
    """
    return _run(PipelineSpec("sl", "mds", m, optimizer=optimizer), space)


def isomap(
    space: PseudometricSpace,
    delta_cap: float | None = None,
    m: int = 2,
    optimizer: OptimizerConfig = OptimizerConfig(),
    policy: str = "strict",
    cap_factor: float = 3.0,
) -> Embedding:
    """Stress minimization against geodesic (shortest-path) distances.

    delta_cap defaults to the smallest threshold connecting the graph.
    When the geodesic metric does not embed isometrically in R^m (a closed
    loop in R^1, for example), the stress minimum folds the loop rather than
    unrolling it.
    """
    spec = PipelineSpec(
        "iso", "mds", m, delta=delta_cap, optimizer=optimizer, policy=policy, cap_factor=cap_factor
    )
    return _run(spec, space)


def k_path_scaling(
    space: PseudometricSpace, k: int, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against minimax costs over paths of at most k edges.

    Here k counts path edges (hops = k), so k=1 reproduces the metric MDS
    targets and k >= n-1 the single linkage targets; the pipeline's k counts
    path points, hence k + 1.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return _run(PipelineSpec("lk", "mds", m, k=k + 1, optimizer=optimizer), space)


def k_vertex_scaling(
    space: PseudometricSpace, k: int, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against first-co-occurrence scales in k-connected subgraphs."""
    return _run(PipelineSpec("vlk", "mds", m, k=k, optimizer=optimizer), space)


def umap_simplified(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Fuzzy cross-entropy over the locally rescaled membership matrix."""
    return _run(PipelineSpec("fuzzy", "fce", m, optimizer=optimizer), space)


def mds_fuzzy(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against -log of the locally rescaled memberships."""
    return _run(PipelineSpec("fuzzy", "mds", m, optimizer=optimizer), space)
