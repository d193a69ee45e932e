"""Interleaving distance between hierarchical covers and loss-transfer bounds.

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
scale excludes is skipped untested. Each remaining step is one `refines`
test, at most |S1| + |S2| per direction. A `refines` test skips the blocks
the two covers share (consecutive covers share almost all) and ANDs the
other side's per-vertex block masks over each remaining block: |b| big-int
ANDs per block b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import PipelineSpec, build_stage
from .covers import HierarchicalCover, first_cooccurrence_scales, refines
from .errors import ValidationError
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

    def __float__(self):
        return self.epsilon_star


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
            # nor any cover below the start bound
            j = max(j, starts[i])
            while j < len(hb.covers) and not refines(cover, hb.covers[j]):
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
) -> ShiftStabilityReport:
    """Interleaving distance of two clusterings vs the isometry defect of their inputs.

    `build_hierarchy` maps a space to a HierarchicalCover. Passes when the
    interleaving distance is at most the pairwise max distance difference.
    """
    eps = isometry_epsilon(x, y)
    report = interleaving_distance(build_hierarchy(x), build_hierarchy(y))
    return ShiftStabilityReport(
        epsilon=eps,
        epsilon_star=report.epsilon_star,
        passed=report.epsilon_star <= eps + INTERLEAVING_SLACK,
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
) -> StabilityReport:
    """Certified loss-transfer bound for a stress-family pipeline on eps-isometric inputs.

    Builds each space's clustering stage once, optimizes both spaces,
    evaluates X's objective at Y's embedding, and checks it against the
    X-optimum plus K_c * n^2 * (1 - exp(-eps)), where K_c is twice the exact
    supremum of the family's contractive term over strengths and over
    distances in [0, radius]. The expansive term of a stress family is
    constant in the distance, so the tighter bound (no K_e term) applies; K_e
    is still certified and reported.
    """
    if spec.loss != "mds":
        raise ValidationError("the loss-transfer checker needs a stress-family pipeline")
    eps = isometry_epsilon(x, y)
    stages = [build_stage(space, spec) for space in (x, y)]
    problems = [StressProblem(t, spec.m, spec.policy) for t, _ in stages]
    emb_x, emb_y = (minimize(p, spec.optimizer).embedding.coords for p in problems)
    loss_base = problems[0].loss(emb_x)
    loss_cross = problems[0].loss(emb_y)
    if radius is None:
        r = float(max(pair_distances(e).max(initial=0.0) for e in (emb_x, emb_y))) * 1.1
    else:
        r = float(radius)
    if r <= 0:
        raise ValidationError(f"evaluation radius must be positive, got {r!r}")
    n = x.n
    w_min = 1.0
    for _, membership in stages:
        off = membership.w[~np.eye(n, dtype=bool)]
        positive = off[off > 0]
        if positive.size == 0:
            raise ValidationError("no co-clustering strength to certify against")
        w_min = min(w_min, float(positive.min()))
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
