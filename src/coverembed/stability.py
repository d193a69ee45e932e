"""Interleaving distance between hierarchical covers and loss-transfer bounds.

Interleavings are restricted to identity point maps on a shared ground set:
two step functions are eps-interleaved when each cover at scale delta refines
the other's cover at delta + eps, in both directions. Because both sides are
step functions, the least such eps lies in the finite set of pairwise scale
differences, and refinement only needs checking at interval breakpoints.

Cost of `interleaving_distance` on hierarchies with S1 and S2 critical scales:
the candidate set holds at most |S1|*|S2| + 1 values, bisection over it takes
O(log(|S1|*|S2|)) steps, and each step checks O(|S1| + |S2|) breakpoints per
direction. A breakpoint maps to a pair (cover i of one side, cover j of the
other), and each pair's `refines` test runs at most once per direction and
call: later steps look it up. A `refines` test costs one bitmask AND per pair
of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import PipelineSpec, run_pipeline, stage_membership
from .covers import HierarchicalCover, refines
from .errors import ValidationError
from .metric import PseudometricSpace, isometry_epsilon
from .loss import pairwise_distances


@dataclass(frozen=True)
class InterleavingReport:
    epsilon_star: float
    candidates: tuple[float, ...]
    failures: tuple[tuple[float, float], ...]  # (candidate eps, scale where refinement failed)

    def __float__(self):
        return self.epsilon_star


def _refinement_failure(
    ha: HierarchicalCover,
    hb: HierarchicalCover,
    eps: float,
    memo: dict[tuple[int, int], bool],
) -> float | None:
    """First scale where ha(delta) fails to refine hb(delta + eps), else None.

    Checkpoints are the breakpoints of either side; the shifted side is
    evaluated at its exact stored scales so a rounded delta + eps cannot land
    one ulp below a cover change. Evaluating ha one ulp early is harmless: an
    even finer cover refines everything the intended one refines. Each
    checkpoint maps to cover indices (i, j) the way `cover_at` does, and
    `memo[(i, j)]` caches whether ha.covers[i] refines hb.covers[j].
    """
    checkpoints = [(s, s + eps) for s in ha.scales]
    checkpoints += [(t - eps, t) for t in hb.scales if t - eps > 0]
    checkpoints.append((0.0, eps))
    checkpoints.sort()
    fine = np.searchsorted(
        np.asarray(ha.scales), [max(delta, 0.0) for delta, _ in checkpoints], side="right"
    ) - 1
    coarse = np.searchsorted(
        np.asarray(hb.scales), [shifted for _, shifted in checkpoints], side="right"
    ) - 1
    for (delta, _), i, j in zip(checkpoints, fine.tolist(), coarse.tolist()):
        ok = memo.get((i, j))
        if ok is None:
            ok = memo[i, j] = refines(ha.covers[i], hb.covers[j])
        if not ok:
            return delta
    return None


def interleaving_distance(h1: HierarchicalCover, h2: HierarchicalCover) -> InterleavingReport:
    """Least eps such that the two step functions are mutually eps-shifted refinements.

    Searched over the complete candidate set {0} u {|s - t|} of scale
    differences (monotone in eps, so bisection applies); inf when even the
    largest candidate fails.
    """
    if h1.n != h2.n:
        raise ValidationError(f"ground set mismatch: {h1.n} vs {h2.n}")
    candidates = np.unique(
        np.append(np.abs(np.subtract.outer(h1.scales, h2.scales)), 0.0)
    ).tolist()
    failures: list[tuple[float, float]] = []
    # refinement results per direction, shared by every bisection step
    memo12: dict[tuple[int, int], bool] = {}
    memo21: dict[tuple[int, int], bool] = {}
    lo, hi = 0, len(candidates) - 1
    best: float | None = None
    # bisection over the sorted candidates: interleaving is monotone in eps
    while lo <= hi:
        mid = (lo + hi) // 2
        eps = candidates[mid]
        witness = _refinement_failure(h1, h2, eps, memo12)
        if witness is None:
            witness = _refinement_failure(h2, h1, eps, memo21)
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


@dataclass(frozen=True)
class ShiftStabilityReport:
    epsilon: float
    epsilon_star: float
    passed: bool
    interleaving: InterleavingReport


def check_interleaving_bound(
    build_hierarchy,
    x: PseudometricSpace,
    y: PseudometricSpace,
    slack: float = 1e-12,
) -> ShiftStabilityReport:
    """Interleaving distance of two clusterings vs the isometry defect of their inputs.

    `build_hierarchy` maps a space to a HierarchicalCover. Passes when the
    interleaving distance is at most the pairwise max distance difference.
    """
    if x.n != y.n:
        raise ValidationError(f"size mismatch: {x.n} vs {y.n}")
    eps = isometry_epsilon(x, y)
    report = interleaving_distance(build_hierarchy(x), build_hierarchy(y))
    return ShiftStabilityReport(
        epsilon=eps,
        epsilon_star=report.epsilon_star,
        passed=report.epsilon_star <= eps + slack,
        interleaving=report,
    )


@dataclass(frozen=True)
class StabilityReport:
    epsilon: float
    k_c: float
    k_e: float
    radius: float
    loss_cross: float  # X-objective evaluated at Y's embedding
    loss_base: float  # X-objective evaluated at X's embedding
    bound: float
    passed: bool
    constant_e: bool


def check_loss_transfer(
    spec: PipelineSpec,
    x: PseudometricSpace,
    y: PseudometricSpace,
    radius: float | None = None,
    rel_slack: float = 1e-9,
) -> StabilityReport:
    """Certified loss-transfer bound for a stress-family pipeline on eps-isometric inputs.

    Optimizes both spaces, evaluates X's objective at Y's embedding, and
    checks it against the X-optimum plus K_c * n^2 * (1 - exp(-eps)), where
    K_c is twice the exact supremum of the family's contractive term over
    strengths and over distances in [0, radius]. The expansive term of a
    stress family is constant in the distance, so the tighter bound (no K_e
    term) applies; K_e is still certified and reported.
    """
    if spec.loss != "mds":
        raise ValidationError("the loss-transfer checker needs a stress-family pipeline")
    if x.n != y.n:
        raise ValidationError(f"size mismatch: {x.n} vs {y.n}")
    eps = isometry_epsilon(x, y)
    emb_x, _ = run_pipeline(spec, x)
    emb_y, _ = run_pipeline(spec, y)
    from .algorithms import build_problem

    problem_x = build_problem(x, spec)
    loss_base = problem_x.loss(emb_x.coords)
    loss_cross = problem_x.loss(emb_y.coords)
    if radius is None:
        r = float(
            max(
                pairwise_distances(emb_x.coords).max(initial=0.0),
                pairwise_distances(emb_y.coords).max(initial=0.0),
            )
        ) * 1.1
    else:
        r = float(radius)
    if r <= 0:
        raise ValidationError(f"evaluation radius must be positive, got {r!r}")
    w_min = 1.0
    for space in (x, y):
        w = stage_membership(space, spec).w
        off = w[~np.eye(w.shape[0], dtype=bool)]
        positive = off[off > 0]
        if positive.size == 0:
            raise ValidationError("no co-clustering strength to certify against")
        w_min = min(w_min, float(positive.min()))
    # family suprema are attained at strength 1: |c| <= (2/w - 1) x^2, |e| <= -2 log(w)/w
    k_c = 2.0 * (2.0 / w_min - 1.0) * r * r
    k_e = 2.0 * abs(2.0 * math.log(w_min) / w_min)
    n = x.n
    bound = loss_base + k_c * n * n * (1.0 - math.exp(-eps))
    passed = loss_cross <= bound + rel_slack * max(1.0, abs(bound))
    return StabilityReport(
        epsilon=eps,
        k_c=k_c,
        k_e=k_e,
        radius=r,
        loss_cross=loss_cross,
        loss_base=loss_base,
        bound=bound,
        passed=passed,
        constant_e=True,
    )
