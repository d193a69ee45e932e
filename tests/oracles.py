"""Brute-force reference implementations used only to check the fast paths.

Everything here enumerates: components by flood fill over explicit edge
lists, cliques and k-connected sets by subset enumeration, path costs by
walking every simple path. Exponential, fine for n <= 7. Loss objects and
stress families as tagged forms per pair and per strength (the reference
of the condensed ones), hand-built loss families, the exact interval sup of
a form, the JSON round trip of loss objects, the cover JSON objects whose
`json.dumps` text hierarchy files must match, the one-hot Hamming counts,
the broadcast Euclidean distances, the n x n embedding losses (every pair
counted twice), the condensed losses and gradients as plain expressions
(the reference bytes of the in-place kernels), Floyd-Warshall as numpy
passes (the reference bytes of the geodesic kernel), the central-difference
gradient check of the embedding problems, and the permuting and CSV-writing
helpers that tests use to build inputs live here too.
"""

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from coverembed import ValidationError
from coverembed.covers import Cover, cap_disconnected
from coverembed.loss import FCE_CLAMP_DEFAULT, SIGN_TOL, LossObject, SignReport, pair_distances


def threshold_edges(d, delta):
    n = d.shape[0]
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if d[i, j] <= delta
    }


def oracle_components(n, edges):
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def is_clique(subset, edges):
    return all(
        (min(a, b), max(a, b)) in edges for a, b in combinations(subset, 2)
    )


def oracle_max_cliques(n, edges):
    cliques = [
        set(s)
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
        if is_clique(s, edges)
    ]
    maximal = [
        tuple(sorted(c))
        for c in cliques
        if not any(c < other for other in cliques)
    ]
    return sorted(maximal)


def oracle_minimax_path(d, i, j, max_hops=None):
    """Minimum over simple paths of the maximum step length, with a hop cap."""
    n = d.shape[0]
    if i == j:
        return 0.0
    best = np.inf
    others = [v for v in range(n) if v not in (i, j)]
    cap = n - 1 if max_hops is None else max_hops
    for length in range(0, min(cap - 1, len(others)) + 1):
        for mids in permutations(others, length):
            path = (i,) + mids + (j,)
            cost = max(d[a, b] for a, b in zip(path, path[1:]))
            best = min(best, cost)
    return best


def subset_connected(subset, edges):
    subset = list(subset)
    if len(subset) <= 1:
        return True
    seen = {subset[0]}
    frontier = [subset[0]]
    inset = set(subset)
    while frontier:
        v = frontier.pop()
        for u in inset - seen:
            if (min(u, v), max(u, v)) in edges:
                seen.add(u)
                frontier.append(u)
    return seen == inset


def oracle_is_j_connected(subset, edges, j):
    """Connected after every removal of fewer than j vertices (empty set counts)."""
    subset = set(subset)
    if len(subset) <= 1:
        return True
    for r in range(0, min(j - 1, len(subset)) + 1):
        for removed in combinations(sorted(subset), r):
            if not subset_connected(subset - set(removed), edges):
                return False
    return True


def oracle_maximal_j_connected(n, edges, j):
    good = [
        set(s)
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
        if oracle_is_j_connected(s, edges, j)
    ]
    maximal = [
        tuple(sorted(c))
        for c in good
        if not any(c < other for other in good)
    ]
    return sorted(maximal)


def exact_interleaving_epsilon(h1, h2):
    """Reference interleaving distance in exact rational arithmetic.

    For each cover i of either side, the least j whose cover on the other side
    it refines (by set containment, searching every j) gives the required
    shift Fraction(t_j) - Fraction(s_i); eps* is the largest, 0 at least, and
    inf when some cover refines none. Returned as the nearest float.
    """
    import math
    from fractions import Fraction

    shifts = [Fraction(0)]
    for ha, hb in ((h1, h2), (h2, h1)):
        for s, fine in zip(ha.scales, ha.covers):
            js = [j for j, coarse in enumerate(hb.covers) if oracle_refines(fine, coarse)]
            if not js:
                return math.inf
            shifts.append(Fraction(hb.scales[min(js)]) - Fraction(s))
    return float(max(shifts))


def reference_interleaving(h1, h2):
    """(eps*, candidates, witness) of `interleaving_distance` by searching every j.

    For each cover i of h1, then of h2, the least j whose cover on the other
    side it refines (by set containment) gives the shift t_j - s_i; the first
    cover that refines none ends the search with eps* inf and witness
    (side, i, None). Otherwise eps* is the largest shift, 0 at least, and the
    witness the first (side, i, j) attaining it.
    """
    import math

    shifts, pairs = [], []
    for side, (ha, hb) in enumerate(((h1, h2), (h2, h1))):
        for i, (s, fine) in enumerate(zip(ha.scales, ha.covers)):
            js = [j for j, coarse in enumerate(hb.covers) if oracle_refines(fine, coarse)]
            if not js:
                return math.inf, tuple(shifts), (side, i, None)
            shifts.append(hb.scales[js[0]] - s)
            pairs.append((side, i, js[0]))
    best = max(range(len(shifts)), key=shifts.__getitem__)
    return max(0.0, shifts[best]), tuple(shifts), pairs[best]


def all_pairs_j_connected_sets(neighbors, j):
    """`graphs.maximal_j_connected_sets` trying every non-adjacent pair (s, t) of a
    set in increasing order, not only sources among its first j vertices."""
    from coverembed.graphs import _separator, members

    found, seen = set(), set()

    def rec(vertices):
        if vertices in seen:
            return
        seen.add(vertices)
        vs = members(vertices)
        sub = {v: members(neighbors[v] & vertices) for v in vs}
        pairs = ((s, t) for s in vs for t in vs if t > s and t not in sub[s])
        cut = next((c for s, t in pairs if (c := _separator(sub, s, t, j)) is not None), None)
        if cut is None:
            found.add(vertices)
            return
        cut_mask = sum(1 << v for v in cut)
        rest = vertices & ~cut_mask
        for comp in oracle_components(len(neighbors), [
            (a, b) for a in members(rest) for b in members(neighbors[a] & rest)
        ]):
            if rest >> comp[0] & 1:
                rec(sum(1 << v for v in comp) | cut_mask)

    if neighbors:
        rec((1 << len(neighbors)) - 1)
    return sorted(members(s) for s in found if not any(s != o and not s & ~o for o in found))


def random_space(rng, n=6, low=0.2, high=2.0):
    """Random symmetric distance matrix (not necessarily triangle-valid)."""
    from coverembed import from_matrix

    d = rng.uniform(low, high, size=(n, n))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def random_euclidean(rng, n=6, dim=3, scale=1.0):
    from coverembed import from_points_euclidean

    return from_points_euclidean(rng.normal(scale=scale, size=(n, dim)))


def perturbed(rng, space, eps):
    """A space within eps of the input in max-entry distance."""
    from coverembed import from_matrix

    n = space.n
    noise = rng.uniform(-eps, eps, size=(n, n))
    noise = (noise + noise.T) / 2.0
    np.fill_diagonal(noise, 0.0)
    d = np.clip(space.d + noise, 0.0, None)
    np.fill_diagonal(d, 0.0)
    return from_matrix(d)


def permuted(space, perm):
    """`space` with points reordered so new index t is old index perm[t]."""
    from coverembed import PseudometricSpace

    perm = np.asarray(perm, dtype=int)
    labels = None if space.labels is None else tuple(space.labels[p] for p in perm)
    return PseudometricSpace(space.d[np.ix_(perm, perm)].copy(), labels)


def write_distance_csv(path, space):
    """The distance CSV that `coverembed --input-kind dist` reads: labels row first."""
    from coverembed.fileio import fmt

    with open(path, "w", encoding="utf-8") as fh:
        if space.labels is not None:
            fh.write(",".join(space.labels) + "\n")
        for row in space.d:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def oracle_refines(fine, coarse):
    """Every block of `fine` is a subset of some block of `coarse`, by set containment."""
    return all(
        any(set(b) <= set(c) for c in coarse.blocks) for b in fine.blocks
    )


def cover_to_json(cover):
    return {"n": cover.n, "blocks": [list(b) for b in cover.blocks]}


def hierarchy_to_json(h):
    return {
        "n": h.n,
        "scales": [float(s) for s in h.scales],
        "covers": [cover_to_json(c) for c in h.covers],
    }


def hierarchy_json_bytes(h):
    """The bytes `fileio.write_hierarchy_json` must write: `write_json`'s rendering."""
    return (json.dumps(hierarchy_to_json(h), indent=2, sort_keys=True) + "\n").encode()


def oracle_membership(h):
    """W[i, j] = exp(-scale) of the first cover, scanning all of them, where i, j share a block."""
    n = h.n
    w = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for scale, cover in zip(h.scales, h.covers):
                if any(i in b and j in b for b in cover.blocks):
                    w[i, j] = float(np.exp(-scale))
                    break
    return w


# -- per-pair loss forms and families ----------------------------------------------
#
# The loss objects and stress families as they were before they became
# condensed coefficient arrays: one tagged form per pair term, dicts of
# pairs, loops over strengths, and a sample grid for the orders of forms that
# are not affine in x^2. The condensed ones in `coverembed.loss` are checked
# against these.

ORACLE_GRID = np.linspace(0.0, 10.0, 101)  # samples for orders of non-polynomial forms


@dataclass(frozen=True)
class Form:
    """Tagged parametric function of the embedded distance x >= 0.

    kinds: "zero"; "const" b; "quad" a*x^2; "affine_x2" a*x^2 + b;
    "log_barrier" lin*x - bar*log(1 - v(x)) + const with v = clamp(e^-x),
    the fuzzy cross-entropy pair term.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    lin: float = 0.0
    bar: float = 0.0
    clamp: float = FCE_CLAMP_DEFAULT

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "const":
            return np.full_like(x, self.b)
        if self.kind == "quad":
            return self.a * x * x
        if self.kind == "affine_x2":
            return self.a * x * x + self.b
        if self.kind == "log_barrier":
            v = np.clip(np.exp(-x), self.clamp, 1.0 - self.clamp)
            return self.lin * x - self.bar * np.log1p(-v) + self.b
        raise ValidationError(f"unknown form kind {self.kind!r}")

    def is_polynomial(self) -> bool:
        return self.kind in ("zero", "const", "quad", "affine_x2")

    def as_affine_x2(self) -> tuple[float, float]:
        if self.kind == "zero":
            return 0.0, 0.0
        if self.kind == "const":
            return 0.0, self.b
        if self.kind == "quad":
            return self.a, 0.0
        if self.kind == "affine_x2":
            return self.a, self.b
        raise ValidationError(f"{self.kind!r} form is not affine in x^2")

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        for name in ("a", "b", "lin", "bar"):
            val = getattr(self, name)
            if val != 0.0:
                obj[name] = val
        if self.kind == "log_barrier":
            obj["clamp"] = self.clamp
        return obj


ZERO_FORM = Form("zero")


def form_abs_sup(form: Form, radius: float) -> float:
    """Exact sup of |form.value| over [0, radius]."""
    if radius < 0:
        raise ValidationError("interval radius must be nonnegative")
    if form.kind == "zero":
        return 0.0
    if form.kind == "const":
        return abs(form.b)
    if form.kind in ("quad", "affine_x2"):
        # monotone in x^2, so the endpoints dominate
        return max(abs(float(form.value(0.0))), abs(float(form.value(radius))))
    if form.kind == "log_barrier":
        candidates = [0.0, radius]
        # stationary point of lin*x - bar*log(1 - e^-x)
        if form.lin > 0 and form.bar > 0:
            xstar = math.log((form.lin + form.bar) / form.lin)
            if 0 < xstar < radius:
                candidates.append(xstar)
        return max(abs(float(form.value(x))) for x in candidates)
    raise ValidationError(f"unknown form kind {form.kind!r}")


def form_leq(f: Form, g: Form, xs=ORACLE_GRID) -> bool:
    """f <= g: on every x >= 0 for forms affine in x^2, on the samples `xs` otherwise."""
    if f.is_polynomial() and g.is_polynomial():
        fa, fb = f.as_affine_x2()
        ga, gb = g.as_affine_x2()
        return fb <= gb and fa <= ga
    return bool(np.all(f.value(xs) <= g.value(xs)))


@dataclass(frozen=True)
class PairLossObject:
    """Per-pair (c, e) forms over an n-point ground set; missing pairs are zero."""

    n: int
    terms: dict = field(default_factory=dict)

    def pair(self, i: int, j: int) -> tuple[Form, Form]:
        return self.terms.get((min(i, j), max(i, j)), (ZERO_FORM, ZERO_FORM))


def oracle_loss_leq(l1: PairLossObject, l2: PairLossObject, xs=ORACLE_GRID) -> bool:
    """l1 <= l2: c2 <= c1 and e1 <= e2 for every pair, form by form."""
    if l1.n != l2.n:
        raise ValidationError(f"cardinality mismatch: {l1.n} vs {l2.n}")
    for key in sorted(set(l1.terms) | set(l2.terms)):
        c1, e1 = l1.pair(*key)
        c2, e2 = l2.pair(*key)
        if not (form_leq(c2, c1, xs) and form_leq(e1, e2, xs)):
            return False
    return True


class OracleMdsPair:
    """One pair's stress family as forms per strength, with math.log throughout."""

    def __init__(self, w: float):
        if not 0.0 < w <= 1.0:
            raise ValidationError(f"membership must lie in (0, 1], got {w!r}")
        self.w = float(w)

    def critical_strengths(self) -> tuple[float, ...]:
        return (self.w,) if self.w < 1.0 else ()

    def c_form_at(self, a: float) -> Form:
        if a <= self.w:
            return Form("quad", a=1.0)
        return Form("quad", a=1.0 + 2.0 * (1.0 / self.w - 1.0 / a))

    def e_form_at(self, a: float) -> Form:
        if a <= self.w:
            return ZERO_FORM
        return Form("const", b=2.0 * math.log(self.w) / self.w - 2.0 * math.log(a) / a)

    def flatten_exact(self) -> tuple[Form, Form]:
        w = self.w
        coeff = 1.0 + 2.0 * (1.0 - w) / w + 2.0 * math.log(w)
        econst = 2.0 * math.log(w) / w * (1.0 - w) + math.log(w) ** 2
        return Form("quad", a=coeff), Form("const", b=econst) if econst != 0.0 else ZERO_FORM


class PiecewisePairFamily:
    """Strength-piecewise-constant (c, e) forms, for hand-built loss families."""

    def __init__(self, breaks, c_forms, e_forms):
        if not (len(breaks) + 1 == len(c_forms) == len(e_forms)):
            raise ValidationError("need one form per strength interval")
        self.breaks = tuple(float(b) for b in breaks)
        self.c_forms = tuple(c_forms)
        self.e_forms = tuple(e_forms)

    def critical_strengths(self) -> tuple[float, ...]:
        return self.breaks

    def _piece(self, a: float) -> int:
        idx = 0
        for b in self.breaks:
            if a > b:
                idx += 1
        return idx

    def c_form_at(self, a: float) -> Form:
        return self.c_forms[self._piece(a)]

    def e_form_at(self, a: float) -> Form:
        return self.e_forms[self._piece(a)]

    def flatten_exact(self) -> tuple[Form, Form]:
        edges = (0.0,) + self.breaks + (1.0,)
        ca = cb = ea = eb = 0.0
        for t in range(len(edges) - 1):
            width = edges[t + 1] - edges[t]
            a1, b1 = self.c_forms[t].as_affine_x2()
            a2, b2 = self.e_forms[t].as_affine_x2()
            ca += width * a1
            cb += width * b1
            ea += width * a2
            eb += width * b2
        return Form("affine_x2", a=ca, b=cb), Form("affine_x2", a=ea, b=eb)

    def sup_abs_c(self, radius: float) -> float:
        return max(form_abs_sup(f, radius) for f in self.c_forms)

    def sup_abs_e(self) -> float:
        return max(form_abs_sup(f, 0.0) for f in self.e_forms)


@dataclass(frozen=True)
class OracleFamily:
    """Map from strength a in (0, 1] to a PairLossObject, one pair family per pair."""

    n: int
    pairs: dict = field(default_factory=dict)

    def critical_strengths(self) -> tuple[float, ...]:
        crit = set()
        for fam in self.pairs.values():
            crit.update(fam.critical_strengths())
        return tuple(sorted(crit))

    def loss_object_at(self, a: float) -> PairLossObject:
        if not 0.0 < a <= 1.0:
            raise ValidationError(f"strength must lie in (0, 1], got {a!r}")
        return PairLossObject(
            self.n, {key: (fam.c_form_at(a), fam.e_form_at(a)) for key, fam in self.pairs.items()}
        )


def oracle_mds_family(w, a_min=None) -> OracleFamily:
    """The stress family of the square membership matrix w, pair by pair."""
    n = w.shape[0]
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            wij = float(w[i, j])
            if wij == 0.0:
                if a_min is None:
                    raise ValidationError(f"pair ({i}, {j}) never co-clusters (w = 0)")
                wij = a_min
            pairs[(i, j)] = OracleMdsPair(wij)
    return OracleFamily(n, pairs)


def oracle_family_leq(f1: OracleFamily, f2: OracleFamily, xs=ORACLE_GRID) -> bool:
    """f1 <= f2 at every critical strength (and at a = 1)."""
    if f1.n != f2.n:
        raise ValidationError(f"cardinality mismatch: {f1.n} vs {f2.n}")
    strengths = sorted(set(f1.critical_strengths()) | set(f2.critical_strengths()) | {1.0})
    return all(oracle_loss_leq(f1.loss_object_at(a), f2.loss_object_at(a), xs) for a in strengths)


def oracle_flatten(family: OracleFamily) -> PairLossObject:
    """Each pair family's `flatten_exact`."""
    return PairLossObject(
        family.n, {key: fam.flatten_exact() for key, fam in sorted(family.pairs.items())}
    )


def oracle_sign_classification(family: OracleFamily, xs=ORACLE_GRID) -> SignReport:
    """Signs of c and e at each critical strength, half of each, and a = 1, on the samples xs."""
    strengths = set(family.critical_strengths()) | {1.0}
    for a in sorted(strengths):
        strengths.add(max(a / 2.0, 1e-12))
    c_nn = e_np = c_np = e_nn = True
    witnesses = []
    for a in sorted(strengths):
        for key, (c, e) in sorted(family.loss_object_at(a).terms.items()):
            cv = c.value(xs)
            ev = e.value(xs)
            if (cv < -SIGN_TOL).any():
                c_nn = False
                witnesses.append(f"c<0 at a={a!r} pair={key}")
            if (ev > SIGN_TOL).any():
                e_np = False
                witnesses.append(f"e>0 at a={a!r} pair={key}")
            if (cv > SIGN_TOL).any():
                c_np = False
            if (ev < -SIGN_TOL).any():
                e_nn = False
    return SignReport(c_nn, e_np, c_np, e_nn, tuple(witnesses[:10]))


def condensed_loss_object(obj: PairLossObject) -> LossObject:
    """The library loss object with the coefficients of `obj`'s polynomial forms."""
    coefficients = [
        c.as_affine_x2() + e.as_affine_x2()
        for c, e in (obj.pair(i, j) for i, j in combinations(range(obj.n), 2))
    ]
    return LossObject(obj.n, *np.array(coefficients, dtype=float).reshape(-1, 4).T)


def coefficient_range(family: OracleFamily) -> tuple[LossObject, LossObject]:
    """Each coefficient's least and greatest value over the pieces of a family of
    `PiecewisePairFamily`s, one per pair, as library loss objects (lo, hi)."""
    per_pair = [
        np.array([c.as_affine_x2() + e.as_affine_x2() for c, e in zip(fam.c_forms, fam.e_forms)])
        for fam in (family.pairs[key] for key in combinations(range(family.n), 2))
    ]
    lo = np.array([coef.min(axis=0) for coef in per_pair]).reshape(-1, 4)
    hi = np.array([coef.max(axis=0) for coef in per_pair]).reshape(-1, 4)
    return LossObject(family.n, *lo.T), LossObject(family.n, *hi.T)


def range_sign_report(lo: LossObject, hi: LossObject) -> SignReport:
    """The sign report of a family whose coefficients range over [lo, hi] per pair.

    `lo` and `hi` hold each coefficient's least and greatest value over the
    strengths. a x^2 + b drops below -SIGN_TOL somewhere on x >= 0 iff
    b < -SIGN_TOL or a < 0, and rises above SIGN_TOL iff b > SIGN_TOL or
    a > 0; so a pattern holds at every strength iff it holds at the ends of
    the ranges, on all of x >= 0 and not only on a sample grid. Witnesses
    name up to 10 pairs with c < 0 or e > 0.
    """
    if lo.n != hi.n:
        raise ValidationError(f"cardinality mismatch: {lo.n} vs {hi.n}")
    c_neg = (lo.c_a < 0.0) | (lo.c_b < -SIGN_TOL)
    e_pos = (hi.e_a > 0.0) | (hi.e_b > SIGN_TOL)
    c_pos = (hi.c_a > 0.0) | (hi.c_b > SIGN_TOL)
    e_neg = (lo.e_a < 0.0) | (lo.e_b < -SIGN_TOL)
    pairs = list(combinations(range(lo.n), 2))
    witnesses = [
        f"{term} at pair={pairs[k]}"
        for k in np.flatnonzero(c_neg | e_pos)[:10]
        for term, bad in (("c<0", c_neg), ("e>0", e_pos))
        if bad[k]
    ]
    return SignReport(not c_neg.any(), not e_pos.any(), not c_pos.any(), not e_neg.any(),
                      tuple(witnesses[:10]))


def canonical_cover(n, blocks) -> Cover:
    """The `Cover` of `blocks`, canonicalized but unchecked: blocks may be
    empty or nested, and need not cover {0..n-1}."""
    return Cover(n, tuple(sorted({tuple(sorted(set(b))) for b in blocks})))


def reference_threshold_hierarchy(d, blocks_of):
    """Threshold scan at 0 and at every distinct finite off-diagonal value of d.

    The scan every functor ran before single linkage moved to its merge
    heights: one graph per value, blocks from `blocks_of(n, edges)` (for
    example `oracle_components` or `oracle_max_cliques`), stopping at the
    first single block.
    """
    from coverembed.covers import build_hierarchy

    n = d.shape[0]
    vals = np.unique(d[~np.eye(n, dtype=bool)])
    vals = vals[np.isfinite(vals)]
    staged = []
    for delta in [0.0] + [float(v) for v in vals if v > 0]:
        blocks = blocks_of(n, threshold_edges(d, delta))
        staged.append((delta, canonical_cover(n, blocks)))
        if len(blocks) == 1:
            break
    return build_hierarchy(n, staged)


def form_from_json(obj) -> Form:
    return Form(
        kind=obj["kind"],
        a=float(obj.get("a", 0.0)),
        b=float(obj.get("b", 0.0)),
        lin=float(obj.get("lin", 0.0)),
        bar=float(obj.get("bar", 0.0)),
        clamp=float(obj.get("clamp", FCE_CLAMP_DEFAULT)),
    )


LOSS_COEFFICIENTS = ("c_a", "c_b", "e_a", "e_b")


def loss_object_to_json(obj: LossObject) -> dict:
    return {"n": obj.n, **{name: getattr(obj, name).tolist() for name in LOSS_COEFFICIENTS}}


def loss_object_from_json(obj) -> LossObject:
    return LossObject(int(obj["n"]), *(obj[name] for name in LOSS_COEFFICIENTS))


# -- geodesic metric -----------------------------------------------------------------


def oracle_geodesic_matrix(d, delta_cap):
    """Floyd-Warshall as n numpy passes over the threshold graph at delta_cap, the
    reference bytes of `graphs.geodesic_matrix`: pass k relaxes every pair
    through k with `np.minimum`, which takes the candidate on a tie, so a -0.0
    input can leave -0.0 where the kernel writes 0.0. Pairs in different
    components stay inf."""
    n = d.shape[0]
    g = np.where(d <= delta_cap, d, np.inf)
    np.fill_diagonal(g, 0.0)
    for k in range(n):
        np.minimum(g, g[:, k, None] + g[None, k, :], out=g)
    return g


# -- Hamming distances ---------------------------------------------------------------


def onehot_hamming(codes):
    """L minus the agreeing positions, counted one symbol at a time as
    onehot @ onehot^T: every partial sum is an integer <= L, exact in float64."""
    n, length = codes.shape
    d = np.full((n, n), float(length))
    for symbol in np.unique(codes):
        onehot = (codes == symbol).astype(float)
        d -= onehot @ onehot.T
    return d


# -- n x n embedding losses -------------------------------------------------------


def broadcast_euclidean(points):
    """The n x n Euclidean distances as one n x n x k broadcast, summed over k.

    NumPy sums fewer than 8 terms in order, as `pdist` does, so for k <= 7
    the bytes equal `from_points_euclidean`'s.
    """
    p = np.asarray(points, dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def pairwise_distances(a):
    """The full n x n Euclidean distance matrix of the rows of `a`."""
    d = cdist(a, a)
    np.fill_diagonal(d, 0.0)
    return d


def reference_pair_gradient(a, delta, slope):
    """Row i is sum_j (slope_ij / delta_ij)(a_i - a_j), from n x n matrices."""
    coeff = np.divide(slope, delta, out=np.zeros_like(slope), where=delta > 0)
    at = np.ascontiguousarray(a.T)
    return coeff.sum(axis=1)[:, None] * a - np.einsum("ij,kj->ik", coeff, at)


class ReferenceStress:
    """Stress summed over the n x n matrix, every unordered pair twice."""

    def __init__(self, targets, policy="strict"):
        t = np.array(targets, dtype=float)
        weights = np.ones_like(t)
        np.fill_diagonal(weights, 0.0)
        infinite = ~np.isfinite(t)
        if infinite.any():
            if policy == "strict":
                raise ValidationError("infinite target")
            if policy == "cap":
                t = cap_disconnected(t)
            else:
                weights[infinite] = 0.0
                t[infinite] = 0.0
        self.targets, self.weights = t, weights

    def loss(self, a):
        resid = self.weights * (self.targets - pairwise_distances(a))
        return float((resid * resid).sum())

    def grad(self, a):
        delta = pairwise_distances(a)
        slope = 4.0 * (delta - self.targets)
        slope *= self.weights
        return reference_pair_gradient(a, delta, slope)


class ReferenceCrossEntropy:
    """Fuzzy cross-entropy summed over the n x n matrix, every unordered pair twice."""

    def __init__(self, w, clamp=FCE_CLAMP_DEFAULT):
        self.w = np.array(w, dtype=float)
        self.clamp = clamp

    def loss(self, a):
        v = np.clip(np.exp(-pairwise_distances(a)), self.clamp, 1.0 - self.clamp)
        w = self.w
        with np.errstate(divide="ignore", invalid="ignore"):
            attract = np.where(w > 0, w * (np.log(np.where(w > 0, w, 1.0)) - np.log(v)), 0.0)
            repel = np.where(
                w < 1,
                (1 - w) * (np.log(np.where(w < 1, 1 - w, 1.0)) - np.log1p(-v)),
                0.0,
            )
        total = np.where(~np.eye(len(w), dtype=bool), attract + repel, 0.0)
        return float(total.sum())

    def grad(self, a):
        delta = pairwise_distances(a)
        raw_v = np.exp(-delta)
        clamped = (raw_v <= self.clamp) | (raw_v >= 1.0 - self.clamp)
        v = np.clip(raw_v, self.clamp, 1.0 - self.clamp)
        slope = np.where(clamped, 0.0, 2.0 * (self.w - (1.0 - self.w) * v / (1.0 - v)))
        return reference_pair_gradient(a, delta, slope)


# -- condensed losses and gradients as plain expressions ----------------------------
#
# The expressions of `StressProblem` and `CrossEntropyProblem` before their
# kernels became in-place ufunc chains over `pdist`'s compiled kernel, kept
# verbatim: public `pdist`, `np.clip`, a `zeros_like` output and `np.where`.
# Each takes the problem for its condensed pair data only.


def plain_pair_gradient(a, delta, slope):
    coeff = squareform(np.divide(slope, delta, out=np.zeros_like(slope), where=delta > 0))
    at = np.ascontiguousarray(a.T)
    return coeff.sum(axis=1)[:, None] * a - np.einsum("ij,kj->ik", coeff, at)


def plain_stress_loss(prob, a):
    delta = pdist(a)
    resid = prob.targets - delta
    resid *= prob.weights
    with np.errstate(over="ignore"):  # inf is caught by the optimizer
        resid *= resid
        return 2.0 * float(resid.sum())


def plain_stress_grad(prob, a):
    delta = pdist(a)
    # 2 x d(resid^2) per unordered pair, counted twice in the total
    slope = 4.0 * (delta - prob.targets)
    slope *= prob.weights
    return plain_pair_gradient(a, delta, slope)


def plain_fce_loss(prob, a):
    delta = pdist(a)
    v = np.negative(delta)
    np.exp(v, out=v)
    np.clip(v, FCE_CLAMP_DEFAULT, 1.0 - FCE_CLAMP_DEFAULT, out=v)
    attract = np.log(v)
    np.subtract(prob._log_w, attract, out=attract)
    attract *= prob.w
    np.negative(v, out=v)
    np.log1p(v, out=v)
    np.subtract(prob._log_1mw, v, out=v)
    v *= prob._1mw
    attract += v
    return 2.0 * float(attract.sum())


def plain_fce_grad(prob, a):
    delta = pdist(a)
    raw_v = np.exp(-delta)
    clamped = (raw_v <= FCE_CLAMP_DEFAULT) | (raw_v >= 1.0 - FCE_CLAMP_DEFAULT)
    v = np.clip(raw_v, FCE_CLAMP_DEFAULT, 1.0 - FCE_CLAMP_DEFAULT)
    # d(loss)/d(delta) = (w/v - (1-w)/(1-v)) * v where v is active, twice
    # because each unordered pair appears twice in the total
    slope = np.where(clamped, 0.0, 2.0 * (prob.w - prob._1mw * v / (1.0 - v)))
    return plain_pair_gradient(a, delta, slope)


GRAD_CHECK_STEP = 1e-5  # central-difference step of `grad_check`


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    skipped_rows: tuple[int, ...]  # rows touching a coincident pair (loss kink)


def grad_check(problem, coords: np.ndarray) -> GradCheckResult:
    """Compare the analytic gradient against central finite differences.

    Rows involved in a coincident pair sit on the distance kink and are
    excluded from the comparison (and reported).
    """
    a = np.array(coords, dtype=float)
    first, second = np.triu_indices(a.shape[0], 1)  # the condensed pair order
    close = pair_distances(a) < 10 * GRAD_CHECK_STEP
    kink_rows = sorted(set(first[close].tolist()) | set(second[close].tolist()))
    analytic = problem.grad(a)
    numeric = np.zeros_like(a)
    for i in range(a.shape[0]):
        if i in kink_rows:
            continue
        for j in range(a.shape[1]):
            bump = np.zeros_like(a)
            bump[i, j] = GRAD_CHECK_STEP
            rise = problem.loss(a + bump) - problem.loss(a - bump)
            numeric[i, j] = rise / (2 * GRAD_CHECK_STEP)
    rows = [i for i in range(a.shape[0]) if i not in kink_rows]
    if not rows:
        return GradCheckResult(0.0, tuple(kink_rows))
    diff = np.abs(analytic[rows] - numeric[rows])
    scale = np.maximum(np.abs(analytic[rows]) + np.abs(numeric[rows]), 1e-8)
    return GradCheckResult(float((diff / scale).max()), tuple(kink_rows))
