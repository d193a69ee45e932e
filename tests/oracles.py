"""Brute-force reference implementations used only to check the fast paths.

Everything here enumerates: components by flood fill over explicit edge
lists, cliques and k-connected sets by subset enumeration, path costs by
walking every simple path. Exponential, fine for n <= 7. Hand-built loss
families, the exact interval sup of a form, the JSON round trip of loss
objects, the cover JSON objects whose `json.dumps` text hierarchy files must
match, the one-hot Hamming counts, the broadcast Euclidean distances, the
n x n embedding losses (every pair counted twice), the condensed losses and
gradients as plain expressions (the reference bytes of the in-place
kernels), and the permuting and CSV-writing helpers that tests use to build
inputs live here too.
"""

import json
import math
from itertools import combinations, permutations

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from coverembed import ValidationError
from coverembed.covers import cap_disconnected
from coverembed.loss import FCE_CLAMP_DEFAULT, Form, LossObject


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


def reference_threshold_hierarchy(d, blocks_of):
    """Threshold scan at 0 and at every distinct finite off-diagonal value of d.

    The scan every functor ran before single linkage moved to its merge
    heights: one graph per value, blocks from `blocks_of(n, edges)` (for
    example `oracle_components` or `oracle_max_cliques`), stopping at the
    first single block.
    """
    from coverembed.covers import build_hierarchy, make_cover

    n = d.shape[0]
    vals = np.unique(d[~np.eye(n, dtype=bool)])
    vals = vals[np.isfinite(vals)]
    staged = []
    for delta in [0.0] + [float(v) for v in vals if v > 0]:
        blocks = blocks_of(n, threshold_edges(d, delta))
        staged.append((delta, make_cover(n, blocks, validate=False)))
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


def loss_object_to_json(obj: LossObject) -> dict:
    return {
        "n": obj.n,
        "terms": [
            {"i": i, "j": j, "c": c.to_json(), "e": e.to_json()}
            for (i, j), (c, e) in sorted(obj.terms.items())
        ],
    }


def loss_object_from_json(obj) -> LossObject:
    terms = {
        (int(t["i"]), int(t["j"])): (form_from_json(t["c"]), form_from_json(t["e"]))
        for t in obj["terms"]
    }
    return LossObject(int(obj["n"]), terms)


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
