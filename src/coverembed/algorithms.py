"""Embedding pipelines: a clustering stage composed with a loss stage.

`ALGO_TABLE` names the paper's algorithms as such compositions; a named
algorithm runs as `run_pipeline(named_spec(name, m), space)`. Every
stress-family pipeline routes through an explicit target-distance
matrix (the closed form of its composed objective) rather than through the
strength integral, which keeps oracles direct; the fuzzy cross-entropy
pipeline routes through a membership matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .covers import MembershipMatrix, target_distances
from .errors import ValidationError, _check_int
from .functors import check_stage, first_cooccurrence, fuzzy_union_membership
from .functors import connectivity_radius  # noqa: F401 (re-exported)
from .loss import CrossEntropyProblem, StressProblem, _square, check_policy
from .metric import PseudometricSpace
from .optimize import Embedding, OptimizerConfig, initial_coords, minimize

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
        _check_int("embedding dimension", self.m)
        if self.m < 1:
            raise ValidationError(f"embedding dimension must be >= 1, got {self.m}")


ALGO_TABLE = {
    # algo name -> (cluster stage, loss stage, k rule)
    "mmds": ("ml", "mds", None),  # stress against the input distances
    "sls": ("sl", "mds", None),  # stress against minimax (bottleneck) path costs
    "isomap": ("iso", "mds", None),  # stress against geodesic distances at delta
    "kpath": ("lk", "mds", "hops"),  # minimax costs over paths of at most k edges
    "kvertex": ("vlk", "mds", "k"),  # first co-occurrence in k-connected subgraphs
    "umap": ("fuzzy", "fce", None),  # cross-entropy over locally rescaled memberships
    "mdsfuzzy": ("fuzzy", "mds", None),  # stress against -log of those memberships
}


def named_spec(algo: str, m: int = 2, k: int | None = None, **fields) -> PipelineSpec:
    """The pipeline of a named algorithm of `ALGO_TABLE`, in dimension m.

    The row's k rule reads k: None ignores it, "k" passes it through, and
    "hops" takes it as a bound on path edges and passes the `lk` stage its
    k + 1 path points, so `kpath` with k=1 has the `mmds` targets and with
    k >= n-1 the `sls` targets. The other fields (delta, optimizer, policy)
    go to `PipelineSpec`.
    """
    if algo not in ALGO_TABLE:
        raise ValidationError(f"unknown algorithm {algo!r}; choose from {', '.join(ALGO_TABLE)}")
    cluster, loss, k_rule = ALGO_TABLE[algo]
    if k_rule is None:
        k = None
    elif k is None:
        raise ValidationError(f"algorithm {algo!r} needs k")
    elif k_rule == "hops":
        _check_int("k", k)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        k += 1
    return PipelineSpec(cluster, loss, m, k=k, **fields)


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
        fit = _square(problem.weights, problem.n) > 0  # weight 0: diagonal, dropped
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
    """Execute the composition; report stage timings (targets, init, optimize) and exit state."""
    timings = {}
    t0 = time.perf_counter()
    problem = build_problem(space, spec)
    timings["targets"] = time.perf_counter() - t0
    summary = _summarize_targets(problem)
    t0 = time.perf_counter()
    coords = initial_coords(problem, spec.optimizer)
    timings["init"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = minimize(problem, replace(spec.optimizer, init="given", init_coords=coords))
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
