"""Non-nested covers, hierarchical covers, and membership matrices.

A Cover is a family of non-nested blocks over {0..n-1}. It is flag when its
blocks are exactly the maximal cliques of their co-occurrence graph
(`is_flag_cover`): `sl`, `ml`, `lk`, `iso` and `fuzzy` emit flag covers, and
`vlk`'s maximal k-vertex-connected sets need not be. A HierarchicalCover is
a right-continuous step function from distance scale delta in [0, inf) to
Cover, stored as critical scales plus one cover per scale; in strength
coordinates a = exp(-delta) it is a fuzzy cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import filterfalse, islice
from operator import and_

import numpy as np

from .errors import ValidationError


def _json_int(value) -> int:
    """int(value) for a value that int() keeps: 2 or 2.0, not 2.9, true or "2"."""
    i = int(value)
    if i != value or isinstance(value, bool):
        raise ValueError(f"{value!r} is not an integer")
    return i


def _json_float(value) -> float:
    """float(value) for a JSON number: 2 or 2.5, not true or "2"."""
    f = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return f


def _json_block(b) -> tuple[int, ...]:
    return tuple(sorted(set(map(_json_int, b))))


@dataclass(frozen=True)
class Cover:
    """A canonical cover: blocks sorted, deduplicated, lexicographically ordered."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @cached_property
    def vertex_masks(self) -> tuple[int, ...]:
        """One int per vertex, bit k set iff the vertex lies in block k; computed once."""
        masks = [0] * self.n
        for k, b in enumerate(self.blocks):
            for v in b:
                masks[v] |= 1 << k
        return tuple(masks)

    def containing(self, b) -> int:
        """Bit k set iff block k holds every vertex of b (every bit for an empty b)."""
        return reduce(and_, map(self.vertex_masks.__getitem__, b), (1 << len(self.blocks)) - 1)


def make_cover(n: int, blocks) -> Cover:
    """Canonicalize and validate a cover of {0..n-1}.

    `n` and every block member must be integers, as in `cover_from_json`: a
    value that int() would change (1.5, True, "2") is a ValidationError
    naming it. Validation checks index range, that the blocks cover the
    ground set, and the non-nested condition. The flag condition is more
    expensive and is checked separately via is_flag_cover.
    """
    return _read_cover({"n": n, "blocks": blocks}, _json_block, "cover")


def _checked(cover: Cover) -> Cover:
    """`cover`, after make_cover's checks of a canonical cover (ValidationError)."""
    n, blocks = cover.n, cover.blocks
    if n < 0:
        raise ValidationError(f"cover size n={n} is negative")
    seen = set()
    for b in blocks:
        if not b:
            raise ValidationError("empty block")
        if b[0] < 0 or b[-1] >= n:
            raise ValidationError(f"block {b} out of range for n={n}")
        seen.update(b)
    if len(seen) < n:  # members are in range, so counting them checks coverage
        first = list(islice(filterfalse(seen.__contains__, range(n)), 10))
        raise ValidationError(f"not a cover: {n - len(seen)} elements uncovered, first {first}")
    for s, b in enumerate(blocks):
        # blocks are distinct, so another block holding all of b is a strict superset
        others = cover.containing(b) & ~(1 << s)
        if others:
            t = (others & -others).bit_length() - 1
            raise ValidationError(f"nested blocks: {b} inside {blocks[t]}")
    return cover


def is_flag_cover(cover: Cover) -> bool:
    """True iff the blocks equal the maximal cliques of their co-occurrence graph."""
    from .graphs import max_cliques

    neighbors = [0] * cover.n
    for b in cover.blocks:
        mask = sum(1 << v for v in b)
        for v in b:
            neighbors[v] |= mask ^ (1 << v)
    return tuple(max_cliques(neighbors)) == cover.blocks


def refines(fine: Cover, coarse: Cover) -> bool:
    """True iff every block of `fine` is contained in some block of `coarse`.

    Blocks both covers hold pass by a set difference; any other block b
    passes when `coarse.containing(b)`, |b| big-int ANDs, is nonzero. So the
    cached `coarse.vertex_masks` is built only when such a b exists.
    """
    if fine.n != coarse.n:
        raise ValidationError(f"ground set mismatch: {fine.n} vs {coarse.n}")
    return all(map(coarse.containing, set(fine.blocks).difference(coarse.blocks)))


@dataclass(frozen=True)
class HierarchicalCover:
    """Step function from scale delta to Cover; changes take effect at each scale.

    scales[0] must be 0 and covers[t] must refine covers[t+1] (covers only
    coarsen as the scale grows). The constructor does not check that;
    `validate_coarsening` does, once: a hierarchy it has checked, or one that
    `build_hierarchy` assembled from a threshold scan, is marked as
    coarsening. The mark is no constructor parameter and no equality reads it.
    """

    n: int
    scales: tuple[float, ...]
    covers: tuple[Cover, ...]
    _coarsens: bool = field(default=False, init=False, repr=False, compare=False)

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
        """Raise ValidationError unless each cover refines the next; a marked
        hierarchy returns at once, and one that passes is marked."""
        if self._coarsens:
            return
        for t in range(len(self.covers) - 1):
            if not refines(self.covers[t], self.covers[t + 1]):
                raise ValidationError(
                    f"cover at scale {self.scales[t]!r} does not refine "
                    f"the cover at scale {self.scales[t + 1]!r}"
                )
        object.__setattr__(self, "_coarsens", True)

    @cached_property
    def _first_cooccurrence(self) -> np.ndarray:
        """`first_cooccurrence_scales(self)`, computed on first use, read-only."""
        n = self.n
        t = np.full((n, n), np.inf)
        np.fill_diagonal(t, 0.0)
        births = _births(self)
        while chunk := list(islice(births, 64)):
            scales, blocks = zip(*chunk)
            masks = np.array(Cover(n, blocks).vertex_masks, dtype=np.uint64)
            shared = masks[:, None] & masks[None, :]
            shared &= -shared  # the lowest set bit
            first = np.frexp(shared.astype(float))[1] - 1
            np.minimum(t, np.array(scales + (np.inf,))[first], out=t)
        t.flags.writeable = False
        return t


def build_hierarchy(n: int, staged) -> HierarchicalCover:
    """Assemble the (scale, cover) pairs of a threshold scan into a HierarchicalCover.

    Drops scales whose cover equals the previous one, so critical scales are
    exactly the scales where the cover changes. A scan only adds edges, so
    each cover refines the next: the result is marked as coarsening, and
    `validate_coarsening` does not check it again.
    """
    scales: list[float] = []
    covers: list[Cover] = []
    for scale, cover in staged:
        if covers and cover == covers[-1]:
            continue
        scales.append(float(scale))
        covers.append(cover)
    h = HierarchicalCover(n, tuple(scales), tuple(covers))
    object.__setattr__(h, "_coarsens", True)
    return h


def cover_at(h: HierarchicalCover, delta: float) -> Cover:
    """The cover in effect at scale delta (right-continuous step function)."""
    if not delta >= 0:
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


def first_cooccurrence_scales(h: HierarchicalCover) -> np.ndarray:
    """T[i,j] = the smallest scale of `h` at which i,j share a block, as stored.

    Pairs that never share a block get inf; the diagonal is 0. Each pair takes
    the earliest birth (`_births`) of a block holding it. Births go in scale
    order, 64 at a time: a pair's lowest shared bit in the chunk's
    `vertex_masks` is its first common block, and frexp reads the bit's index
    exactly (-1, birth inf, when none). Extra memory: a few n x n arrays and
    one cover's block set, whatever the block count. Computed at most once
    per hierarchy; the array is read-only.
    """
    return h._first_cooccurrence


def _births(h: HierarchicalCover):
    """(scale, block) for each block a cover holds and the previous cover does not:
    each block's first scale, and, if `h` does not coarsen, any later returns."""
    previous: frozenset[tuple[int, ...]] = frozenset()
    for scale, cover in zip(h.scales, h.covers):
        current = frozenset(cover.blocks)
        yield from ((scale, b) for b in current - previous)
        previous = current


def membership_matrix(h: HierarchicalCover) -> MembershipMatrix:
    """W[i,j] = exp(-delta*) at the smallest scale delta* where i,j share a block.

    Pairs that never share a block get W = 0 (the sup over an empty strength
    set); the diagonal is 1.
    """
    return MembershipMatrix(np.exp(-first_cooccurrence_scales(h)))


def target_distances(m: MembershipMatrix) -> np.ndarray:
    """Derived target distances -log W (inf where W = 0, 0 on the diagonal)."""
    with np.errstate(divide="ignore"):
        d = -np.log(m.w)
    np.fill_diagonal(d, 0.0)
    return d


def cap_disconnected(t: np.ndarray) -> np.ndarray:
    """`t` with each inf entry set to 3 times its largest finite entry: the one cap
    rule for pairs that never share a block, of every "cap" policy."""
    finite = np.isfinite(t)
    return np.where(finite, t, 3.0 * t[finite].max(initial=0.0))


def cover_from_json(obj) -> Cover:
    """The checked cover of a cover JSON object. `n` and every block member
    must be integers: a value that int() would change (2.9, true, "2") is a
    `ValidationError` naming it."""
    return _read_cover(obj, _json_block)


def _read_cover(obj, canonical, what: str = "cover JSON") -> Cover:
    """The checked cover of a cover JSON object, each raw block through `canonical`."""
    try:
        n = _json_int(obj["n"])
        blocks = tuple(sorted(set(map(canonical, obj["blocks"]))))
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: int("x") names "x"
        raise ValidationError(f"bad {what}: {exc}") from exc
    return _checked(Cover(n, blocks))


def hierarchy_from_json(obj) -> HierarchicalCover:
    """The checked hierarchy of a cover JSON object. Each scale must be a finite
    JSON number: a string, a bool or a non-finite value is refused.

    Covers repeat most blocks, so each distinct raw block of Python ints is
    canonicalized once; the covers and the errors are those of
    `cover_from_json` per cover.
    """
    memo: dict[tuple, tuple[int, ...]] = {}

    def canonical(b):
        key = tuple(b)
        # 1.0 and True equal 1 as keys, so only blocks of ints share the memo
        if set(map(type, key)) != {int}:
            return _json_block(key)
        try:
            return memo[key]
        except KeyError:
            memo[key] = block = tuple(sorted(set(key)))
            return block

    try:
        n = _json_int(obj["n"])
        scales = tuple(map(_json_float, obj["scales"]))
        for s in scales:
            if not math.isfinite(s):
                raise ValidationError(f"bad hierarchical cover JSON: scale {s!r} is not finite")
        covers = tuple(_read_cover(c, canonical) for c in obj["covers"])
    except ValidationError:  # already names what is wrong; it is a ValueError too
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: float("a") names "a"
        raise ValidationError(f"bad hierarchical cover JSON: {exc}") from exc
    h = HierarchicalCover(n, scales, covers)
    h.validate_coarsening()
    return h
