"""Non-nested flag covers, hierarchical covers, and membership matrices.

A Cover is a family of blocks over {0..n-1} whose blocks are exactly the
maximal cliques of their co-occurrence graph (the flag condition). A
HierarchicalCover is a right-continuous step function from distance scale
delta in [0, inf) to Cover, stored as critical scales plus one cover per
scale; in strength coordinates a = exp(-delta) it is a fuzzy cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


def _canonical_blocks(blocks) -> tuple[tuple[int, ...], ...]:
    uniq = {tuple(sorted(set(map(int, b)))) for b in blocks}
    return tuple(sorted(uniq))


@dataclass(frozen=True)
class Cover:
    """A canonical cover: blocks sorted, deduplicated, lexicographically ordered."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        """One int per block, bit v set iff v is a member; computed once per cover."""
        return tuple(sum(1 << v for v in b) for b in self.blocks)

    def co_occurrence_edges(self) -> set[tuple[int, int]]:
        edges = set()
        for b in self.blocks:
            for s in range(len(b)):
                for t in range(s + 1, len(b)):
                    edges.add((b[s], b[t]))
        return edges


def make_cover(n: int, blocks, validate: bool = True) -> Cover:
    """Canonicalize and (optionally) validate a cover of {0..n-1}.

    Validation checks index range, that the blocks cover the ground set, and
    the non-nested condition. The flag condition is more expensive and is
    checked separately via is_flag_cover.
    """
    blocks = _canonical_blocks(blocks)
    if validate:
        seen = set()
        for b in blocks:
            if not b:
                raise ValidationError("empty block")
            if b[0] < 0 or b[-1] >= n:
                raise ValidationError(f"block {b} out of range for n={n}")
            seen.update(b)
        if seen != set(range(n)):
            missing = sorted(set(range(n)) - seen)
            raise ValidationError(f"not a cover: elements {missing} uncovered")
        sets = [set(b) for b in blocks]
        for s in range(len(sets)):
            for t in range(len(sets)):
                if s != t and sets[s] < sets[t]:
                    raise ValidationError(
                        f"nested blocks: {blocks[s]} inside {blocks[t]}"
                    )
    return Cover(n, blocks)


def is_flag_cover(cover: Cover) -> bool:
    """True iff the blocks equal the maximal cliques of their co-occurrence graph."""
    from .graphs import max_cliques

    neighbors = [set() for _ in range(cover.n)]
    for i, j in cover.co_occurrence_edges():
        neighbors[i].add(j)
        neighbors[j].add(i)
    cliques = max_cliques(neighbors)
    return tuple(sorted(cliques)) == cover.blocks


def refines(fine: Cover, coarse: Cover) -> bool:
    """True iff every block of `fine` is contained in some block of `coarse`."""
    if fine.n != coarse.n:
        raise ValidationError(f"ground set mismatch: {fine.n} vs {coarse.n}")
    coarse_masks = coarse.block_masks
    return all(
        any((b & c) == b for c in coarse_masks) for b in fine.block_masks
    )


@dataclass(frozen=True)
class HierarchicalCover:
    """Step function from scale delta to Cover; changes take effect at each scale.

    scales[0] must be 0 and covers[t] must refine covers[t+1] (covers only
    coarsen as the scale grows).
    """

    n: int
    scales: tuple[float, ...]
    covers: tuple[Cover, ...]

    def __post_init__(self):
        if len(self.scales) != len(self.covers) or not self.scales:
            raise ValidationError("need one cover per critical scale")
        if self.scales[0] != 0.0:
            raise ValidationError(f"first scale must be 0, got {self.scales[0]!r}")
        for s, t in zip(self.scales, self.scales[1:]):
            if not t > s:
                raise ValidationError("scales must be strictly increasing")
        for c in self.covers:
            if c.n != self.n:
                raise ValidationError("cover ground set mismatch")

    def validate_coarsening(self):
        for t in range(len(self.covers) - 1):
            if not refines(self.covers[t], self.covers[t + 1]):
                raise ValidationError(
                    f"cover at scale {self.scales[t]!r} does not refine "
                    f"the cover at scale {self.scales[t + 1]!r}"
                )


def build_hierarchy(n: int, staged, validate: bool = False) -> HierarchicalCover:
    """Assemble (scale, cover) pairs into a HierarchicalCover.

    Drops scales whose cover equals the previous one, so critical scales are
    exactly the scales where the cover changes.
    """
    scales: list[float] = []
    covers: list[Cover] = []
    for scale, cover in staged:
        if covers and cover == covers[-1]:
            continue
        scales.append(float(scale))
        covers.append(cover)
    h = HierarchicalCover(n, tuple(scales), tuple(covers))
    if validate:
        h.validate_coarsening()
    return h


def cover_at(h: HierarchicalCover, delta: float) -> Cover:
    """The cover in effect at scale delta (right-continuous step function)."""
    if delta < 0:
        raise ValidationError(f"scale must be nonnegative, got {delta!r}")
    idx = int(np.searchsorted(np.asarray(h.scales), delta, side="right")) - 1
    return h.covers[idx]


@dataclass(frozen=True, eq=False)
class MembershipMatrix:
    """Symmetric matrix of pairwise co-clustering strengths in [0, 1], diag 1."""

    w: np.ndarray

    def __post_init__(self):
        w = self.w
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"membership matrix must be square, got {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValidationError("membership matrix must be symmetric")
        if w.min(initial=1.0) < 0 or w.max(initial=0.0) > 1:
            raise ValidationError("membership entries must lie in [0, 1]")
        if not (np.diagonal(w) == 1.0).all():
            raise ValidationError("membership diagonal must be 1")
        w.flags.writeable = False

    @property
    def n(self) -> int:
        return self.w.shape[0]


def membership_matrix(h: HierarchicalCover) -> MembershipMatrix:
    """W[i,j] = exp(-delta*) at the smallest scale delta* where i,j share a block.

    Pairs that never share a block get W = 0 (the sup over an empty strength
    set); the diagonal is 1. A block already in the previous scale's cover is
    skipped: every pair in it was assigned at that scale or earlier.
    """
    n = h.n
    w = np.zeros((n, n))
    assigned = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(w, 1.0)
    np.fill_diagonal(assigned, True)
    previous: frozenset[tuple[int, ...]] = frozenset()
    for scale, cover in zip(h.scales, h.covers):
        strength = float(np.exp(-scale))
        for b in cover.blocks:
            if b in previous:
                continue
            sub = np.ix_(b, b)
            fresh = ~assigned[sub]
            if fresh.any():
                w[sub] = np.where(fresh, strength, w[sub])
                assigned[sub] = True
        if assigned.all():
            break
        previous = frozenset(cover.blocks)
    return MembershipMatrix(w)


def target_distances(m: MembershipMatrix) -> np.ndarray:
    """Derived target distances -log W (inf where W = 0, 0 on the diagonal)."""
    with np.errstate(divide="ignore"):
        d = -np.log(m.w)
    np.fill_diagonal(d, 0.0)
    return d


def cover_to_json(cover: Cover) -> dict:
    return {"n": cover.n, "blocks": [list(b) for b in cover.blocks]}


def cover_from_json(obj) -> Cover:
    try:
        n = int(obj["n"])
        blocks = obj["blocks"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad cover JSON: {exc}") from exc
    return make_cover(n, blocks)


def hierarchy_to_json(h: HierarchicalCover) -> dict:
    return {
        "n": h.n,
        "scales": [float(s) for s in h.scales],
        "covers": [cover_to_json(c) for c in h.covers],
    }


def hierarchy_from_json(obj) -> HierarchicalCover:
    try:
        n = int(obj["n"])
        scales = tuple(float(s) for s in obj["scales"])
        covers = tuple(cover_from_json(c) for c in obj["covers"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad hierarchical cover JSON: {exc}") from exc
    h = HierarchicalCover(n, scales, covers)
    h.validate_coarsening()
    return h
