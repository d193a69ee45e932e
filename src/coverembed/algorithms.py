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
from scipy.spatial.distance import squareform

from .covers import MembershipMatrix, target_distances
from .errors import ValidationError
from .functors import check_stage, first_cooccurrence, fuzzy_union_membership
from .functors import connectivity_radius  # noqa: F401 (re-exported)
from .loss import CrossEntropyProblem, StressProblem, check_policy
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

    def __post_init__(self):
        check_stage(self.cluster, self.k, self.delta)
        if self.loss not in LOSS_STAGES:
            raise ValidationError(f"unknown loss stage {self.loss!r}")
        check_policy(self.policy)
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


def stage_targets(space: PseudometricSpace, spec: PipelineSpec) -> np.ndarray:
    """Target distances of the clustering stage: `functors.first_cooccurrence`.

    `iso` pairs in different components stay inf, so the loss's target policy
    caps or drops them and counts them; "strict" raises DisconnectedError.
    """
    disconnected = "error" if spec.policy == "strict" else None
    return first_cooccurrence(space, spec.cluster, spec.k, spec.delta, disconnected)


def build_stage(
    space: PseudometricSpace, spec: PipelineSpec
) -> tuple[np.ndarray, MembershipMatrix]:
    """Target distances and membership matrix of the clustering stage, from one build.

    `fuzzy` keeps its union membership; other stages take exp(-targets).
    """
    if spec.cluster == "fuzzy":
        w = fuzzy_union_membership(space)
        return target_distances(w), w
    targets = stage_targets(space, spec)
    w = np.exp(-targets)
    np.fill_diagonal(w, 1.0)
    return targets, MembershipMatrix(w)


def _summarize_targets(problem) -> dict[str, float]:
    """The targets the loss fits, and the stage's pairs at inf before the policy.

    Capped pairs count with their capped value; dropped pairs are left out.
    The fce loss fits memberships, and its targets are the capped -log w of
    its classical-MDS initialization. The counts read the condensed pair
    data; min/max/mean read the n x n targets, whose row-major order fixes
    the mean's rounding.
    """
    if isinstance(problem, StressProblem):
        fit = squareform(problem.weights) > 0  # weight 0: diagonal, dropped
        capped = problem.capped_pairs
        infinite = capped + int((problem.weights == 0).sum())
    else:
        fit = ~np.eye(problem.n, dtype=bool)
        capped = infinite = int((problem.w == 0).sum())
    values = problem.init_targets()[fit]
    return {
        "min": float(values.min()) if values.size else 0.0,
        "max": float(values.max()) if values.size else 0.0,
        "mean": float(values.mean()) if values.size else 0.0,
        "infinite_pairs": float(infinite),
        "capped_pairs": float(capped),
    }


def build_problem(space: PseudometricSpace, spec: PipelineSpec):
    if spec.loss == "mds":
        return StressProblem(stage_targets(space, spec), spec.m, spec.policy)
    return CrossEntropyProblem(build_stage(space, spec)[1], spec.m)


def run_pipeline(spec: PipelineSpec, space: PseudometricSpace) -> tuple[Embedding, PipelineReport]:
    """Execute the composition and report per-stage timings and solver exit state."""
    timings = {}
    t0 = time.perf_counter()
    problem = build_problem(space, spec)
    timings["targets"] = time.perf_counter() - t0
    summary = _summarize_targets(problem)
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


def metric_mds(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against the input distances themselves."""
    return run_pipeline(PipelineSpec("ml", "mds", m, optimizer=optimizer), space)[0]


def single_linkage_scaling(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against minimax (bottleneck) path costs.

    Points connected through a chain of short steps embed close together even
    when their direct distance is large.
    """
    return run_pipeline(PipelineSpec("sl", "mds", m, optimizer=optimizer), space)[0]


def isomap(
    space: PseudometricSpace,
    delta_cap: float | None = None,
    m: int = 2,
    optimizer: OptimizerConfig = OptimizerConfig(),
    policy: str = "strict",
) -> Embedding:
    """Stress minimization against geodesic (shortest-path) distances.

    delta_cap defaults to the smallest threshold connecting the graph. Pairs
    in different components raise DisconnectedError (policy "strict"), are
    dropped ("drop") or take 3 times the largest finite geodesic ("cap",
    `covers.cap_disconnected`). When the geodesic metric does not embed
    isometrically in R^m (a closed loop in R^1, for example), the stress
    minimum folds the loop rather than unrolling it.
    """
    spec = PipelineSpec("iso", "mds", m, delta=delta_cap, optimizer=optimizer, policy=policy)
    return run_pipeline(spec, space)[0]


def path_points(hops: int) -> int:
    """The `lk` stage's k for paths of at most `hops` edges: their points, hops + 1."""
    if hops < 1:
        raise ValidationError(f"k must be >= 1, got {hops}")
    return hops + 1


def k_path_scaling(
    space: PseudometricSpace, k: int, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against minimax costs over paths of at most k edges.

    Here k counts path edges (hops = k), so k=1 reproduces the metric MDS
    targets and k >= n-1 the single linkage targets; the pipeline's k counts
    path points (`path_points`).
    """
    spec = PipelineSpec("lk", "mds", m, k=path_points(k), optimizer=optimizer)
    return run_pipeline(spec, space)[0]


def k_vertex_scaling(
    space: PseudometricSpace, k: int, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against first-co-occurrence scales in k-connected subgraphs."""
    return run_pipeline(PipelineSpec("vlk", "mds", m, k=k, optimizer=optimizer), space)[0]


def umap_simplified(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Fuzzy cross-entropy over the locally rescaled membership matrix."""
    return run_pipeline(PipelineSpec("fuzzy", "fce", m, optimizer=optimizer), space)[0]


def mds_fuzzy(
    space: PseudometricSpace, m: int, optimizer: OptimizerConfig = OptimizerConfig()
) -> Embedding:
    """Stress minimization against -log of the locally rescaled memberships."""
    return run_pipeline(PipelineSpec("fuzzy", "mds", m, optimizer=optimizer), space)[0]
