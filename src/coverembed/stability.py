"""Interleaving distance between hierarchical covers and loss-transfer bounds.

Both checks take a `PipelineSpec` and read its stage as one matrix T
(`first_cooccurrence`, strengths exp(-T)); an unset `iso` delta is the larger
connectivity radius of the two spaces, so one functor clusters both. Between
flag stages (all but `vlk`) the interleaving distance is max |T_x - T_y| over
the pairs either side joins, inf when only one does, 0 at least: a flag
scan's scales are 0 and T's distinct finite entries, and the started scan
below takes t_j(i) = M_i (Carlsson & Memoli's sup-norm bound, JMLR 2010).
So `check_interleaving_bound` builds covers for `vlk` alone, and
`check_stability` runs it and `check_loss_transfer` on one build of each
space's stage.

Interleavings are restricted to identity point maps on a shared ground set:
two step functions are eps-interleaved when each cover at scale delta refines
the other's cover at delta + eps, in both directions. Both sides must coarsen
(`validate_coarsening`), so cover i of one side refines cover j of the other
for every j from some least j(i) on, and j(i) never decreases in i. Cover i
is in effect from its scale s_i, so it needs the shift t_{j(i)} - s_i: a
difference of stored scales, never a rounded s_i + eps.

Cost of `interleaving_distance` on hierarchies with S1 and S2 critical scales:
`validate_coarsening` on each side not yet known to coarsen (scan-built and
already checked hierarchies are marked, so they cost nothing), then one scan
per direction in which i walks one side and j only advances over the other.
The scan starts cover i at the first j whose scale reaches M_i, the largest
first-co-occurrence scale on the other side of a pair that cover i already
joins (`_search_starts`: each side's cached `first_cooccurrence_scales`,
one stable argsort, a running max and one searchsorted), so every cover that
scale excludes is skipped untested. A flag scan's hierarchy (every stage
but `vlk`) holds that matrix from its build, and toward it the start is
j(i) itself: no `refines` test runs, so two such sides cost O(n^2 log n)
with no block read. Toward any other side each remaining step is one
`refines` test, at most |S1| + |S2| per direction. A `refines` test skips
the blocks the two covers share (consecutive covers share almost all) and
ANDs the other side's per-vertex block masks over each remaining block: |b|
big-int ANDs per block b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algorithms import PipelineSpec, stage_targets
from .covers import HierarchicalCover, cap_disconnected, first_cooccurrence_scales, refines
from .errors import ValidationError
from .functors import cluster_hierarchy, connectivity_radius
from .loss import StressProblem, pair_distances
from .metric import PseudometricSpace, isometry_epsilon
from .optimize import minimize

INTERLEAVING_SLACK = 1e-12  # absolute slack of eps* <= eps in `check_interleaving_bound`
LOSS_TRANSFER_REL_SLACK = 1e-9  # relative slack of the `check_loss_transfer` bound


@dataclass(frozen=True)
class InterleavingReport:
    epsilon_star: float
    candidates: tuple[float, ...]  # required shift per cover, in scan order
    # (side, i, j): cover i of h1 (side 0) or h2 (side 1) first refines cover j
    # of the other at the shift that attains eps*; j is None when eps* is inf
    witness: tuple[int, int, int | None]


def interleaving_distance(h1: HierarchicalCover, h2: HierarchicalCover) -> InterleavingReport:
    """Least eps such that the two step functions are mutually eps-shifted refinements.

    The largest required shift t_{j(i)} - s_i over the covers of both sides,
    and 0 at least; inf when some cover refines no cover of the other side.
    Raises ValidationError when the ground sets differ or either side does
    not coarsen.
    """
    if h1.n != h2.n:
        raise ValidationError(f"ground set mismatch: {h1.n} vs {h2.n}")
    h1.validate_coarsening()
    h2.validate_coarsening()
    shifts: list[float] = []
    pairs: list[tuple[int, int, int]] = []
    for side, (ha, hb) in enumerate(((h1, h2), (h2, h1))):
        j, starts = 0, _search_starts(ha, hb)
        for i, (s, cover) in enumerate(zip(ha.scales, ha.covers)):
            # nothing before j(i - 1) can serve (cover i - 1 refines cover i),
            # nor any cover below the start bound; toward a flag side the start
            # serves: each block of cover i is a clique of pairs that share a
            # block of cover j, so it lies in a maximal clique, a block there
            j = max(j, starts[i])
            while not hb._flag and j < len(hb.covers) and not refines(cover, hb.covers[j]):
                j += 1
            if j == len(hb.covers):
                return InterleavingReport(math.inf, tuple(shifts), (side, i, None))
            shifts.append(hb.scales[j] - s)
            pairs.append((side, i, j))
    best = max(range(len(shifts)), key=shifts.__getitem__)
    return InterleavingReport(max(0.0, shifts[best]), tuple(shifts), pairs[best])


def _search_starts(ha: HierarchicalCover, hb: HierarchicalCover) -> list[int]:
    """Per cover i of `ha`, the first cover j of `hb` with t_j >= M_i.

    M_i = max T_b(p) over pairs p with T_a(p) <= s_i, T being each side's
    `first_cooccurrence_scales`. Those pairs share a block of cover i (`ha`
    coarsens), so a cover of `hb` that cover i refines holds each of them in
    one block, and its scale is at least M_i: no earlier cover can serve.
    One stable argsort of T_a, a running max of T_b, and one searchsorted
    per side.
    """
    rows, cols = np.triu_indices(ha.n, 1)
    ta = first_cooccurrence_scales(ha)[rows, cols]
    order = np.argsort(ta, kind="stable")
    tb = first_cooccurrence_scales(hb)[rows, cols][order]
    m = np.concatenate(([-np.inf], np.maximum.accumulate(tb)))
    m = m[np.searchsorted(ta[order], ha.scales, side="right")]
    return np.searchsorted(hb.scales, m, side="left").tolist()


def _one_delta(spec: PipelineSpec, x: PseudometricSpace, y: PseudometricSpace) -> PipelineSpec:
    """`spec`, with an unset `iso` delta at the larger connectivity radius of x and y."""
    if spec.cluster == "iso" and spec.delta is None:
        return replace(spec, delta=max(connectivity_radius(x), connectivity_radius(y)))
    return spec


@dataclass(frozen=True)
class ShiftStabilityReport:
    epsilon: float
    epsilon_star: float
    passed: bool


def _stages(spec: PipelineSpec, x: PseudometricSpace, y: PseudometricSpace):
    """`spec` at its one delta, the two `vlk` hierarchies (None for a flag stage)
    and the two stage matrices T (`stage_targets`; `vlk`'s read off its hierarchy)."""
    spec = _one_delta(spec, x, y)
    if spec.cluster == "vlk":
        hierarchies = tuple(cluster_hierarchy(s, "vlk", spec.k) for s in (x, y))
        return spec, hierarchies, [first_cooccurrence_scales(h) for h in hierarchies]
    return spec, None, [stage_targets(s, spec) for s in (x, y)]


def check_interleaving_bound(
    spec: PipelineSpec,
    x: PseudometricSpace,
    y: PseudometricSpace,
) -> ShiftStabilityReport:
    """eps* of the spec's clustering stage on x and y vs their isometry defect eps;
    passes when eps* <= eps. A flag stage reads eps* off the two matrices,
    capping `iso` pairs across components ("strict" raises)."""
    return _interleaving_bound(isometry_epsilon(x, y), *_stages(spec, x, y))


def _interleaving_bound(eps, spec, hierarchies, matrices) -> ShiftStabilityReport:
    if hierarchies is not None:
        eps_star = interleaving_distance(*hierarchies).epsilon_star
    else:
        tx, ty = map(cap_disconnected, matrices) if spec.cluster == "iso" else matrices
        with np.errstate(invalid="ignore"):  # inf - inf: a pair neither side joins
            eps_star = float(np.nanmax(np.abs(tx - ty), initial=0.0))
    return ShiftStabilityReport(eps, eps_star, passed=eps_star <= eps + INTERLEAVING_SLACK)


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
) -> StabilityReport:
    """Certified loss-transfer bound for a stress-family pipeline on eps-isometric inputs.

    Builds each space's stage targets T once, optimizes both spaces,
    evaluates X's objective at Y's embedding, and checks it against the
    X-optimum plus K_c * n^2 * (1 - exp(-eps)), where K_c is twice the exact
    supremum of the family's contractive term over strengths down to the
    least positive exp(-T) and over distances in [0, r]. The evaluation
    radius r is 1.1 times the largest embedded distance of either embedding,
    and is reported; r = 0 (both embeddings collapse to a point) is a
    ValidationError. The expansive term of a stress family is constant in the
    distance, so the tighter bound (no K_e term) applies; K_e is still
    certified and reported.
    """
    if spec.loss != "mds":
        raise ValidationError("the loss-transfer checker needs a stress-family pipeline")
    eps = isometry_epsilon(x, y)
    spec, _, targets = _stages(spec, x, y)
    return _loss_transfer(eps, spec, targets)


def check_stability(spec: PipelineSpec, x: PseudometricSpace, y: PseudometricSpace):
    """Both checks of the `stability` subcommand on one build of each space's
    stage: the interleaving bound, and the loss transfer of a stress-family
    pipeline (None for any other)."""
    eps, (spec, hierarchies, targets) = isometry_epsilon(x, y), _stages(spec, x, y)
    shift = _interleaving_bound(eps, spec, hierarchies, targets)
    return shift, _loss_transfer(eps, spec, targets) if spec.loss == "mds" else None


def _loss_transfer(eps, spec, targets) -> StabilityReport:
    problems = [StressProblem(t, spec.m, spec.policy) for t in targets]
    emb_x, emb_y = (minimize(p, spec.optimizer).embedding.coords for p in problems)
    loss_base = problems[0].loss(emb_x)
    loss_cross = problems[0].loss(emb_y)
    r = float(max(pair_distances(e).max(initial=0.0) for e in (emb_x, emb_y))) * 1.1
    if r <= 0:
        raise ValidationError(f"evaluation radius must be positive, got {r!r}")
    n = problems[0].n
    strengths = [np.exp(-t[~np.eye(n, dtype=bool)]) for t in targets]
    if not all((w > 0).any() for w in strengths):
        raise ValidationError("no co-clustering strength to certify against")
    w_min = min(float(w[w > 0].min()) for w in strengths)
    # sup |c| over a in (0, 1] and x in [0, r], and sup |e|: both at a = 1
    k_c = 2.0 * ((2.0 / w_min - 1.0) * r * r)
    k_e = 2.0 * abs(2.0 * math.log(w_min) / w_min)
    bound = loss_base + k_c * n * n * (1.0 - math.exp(-eps))
    passed = loss_cross <= bound + LOSS_TRANSFER_REL_SLACK * max(1.0, abs(bound))
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
