"""Pairwise loss objects, strength-indexed loss families, and embedding problems.

Loss objects carry, per pair, a contractive term c and an expansive term e,
each a x^2 + b in the embedded distance x >= 0, as condensed coefficient
arrays. The ordering on loss objects is
  (c, e) <= (c', e')  iff  c' <= c and e <= e' pointwise,
and on such terms it compares coefficients, which is exact for every x >= 0.

The stress family assigns a loss object to every strength a in (0, 1] and is
stored as one condensed vector of memberships w. Its order, its flattening
(c and e integrated over a) and its sign classification are closed forms in
w, with no sample grid; adaptive quadrature only verifies the flattening
(`check_quadrature`), and the stability checker's suprema are its terms at
a = 1 (`stability.check_loss_transfer`).

The embedding problems keep their pair data condensed: one entry per
unordered pair {i, j}, i < j, in the row-major order of the upper triangle
(`pair_distances`, `scipy.spatial.distance.squareform`). Each loss is twice
the sum over those pairs, which is the sum over ordered pairs i != j; each
gradient expands its per-pair coefficients to n x n once.

The optimizer evaluates these once per trial point, and at the sizes it runs
most (n of a few dozen to a few hundred) a call costs more in Python wrappers
than in arithmetic. So the distances come straight from SciPy's compiled
`pdist` kernel, and the losses and gradients are chains of in-place ufuncs
over one or two pair-sized buffers, each step the same operation on the same
operands as the plain expression it replaces, so the bytes are those of the
plain expressions (`tests/oracles.py` keeps them as references).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial._distance_pybind import pdist_euclidean
from scipy.spatial.distance import squareform

from .covers import MembershipMatrix, cap_disconnected
from .errors import ValidationError, _check_int

FCE_CLAMP_DEFAULT = 1e-6
TARGET_POLICIES = ("strict", "cap", "drop")
SIGN_TOL = 1e-12  # |e| at or below this counts as zero in `sign_classification`


# -- loss objects ---------------------------------------------------------------


def _per_pair(name: str, values, n: int) -> np.ndarray:
    """A read-only float copy of `values`, one entry per pair of n points, else ValidationError."""
    arr = np.array(values, dtype=float)
    pairs = n * (n - 1) // 2
    if arr.shape != (pairs,):
        raise ValidationError(
            f"{name} needs one entry per pair, {pairs} for n={n}; got shape {arr.shape}"
        )
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LossObject:
    """Per-pair terms c = c_a x^2 + c_b and e = e_a x^2 + e_b over an n-point ground set.

    Each coefficient is a read-only float array with one entry per unordered
    pair, in `pair_distances` order; the constructor copies its arguments and
    rejects any other length.
    """

    n: int
    c_a: np.ndarray
    c_b: np.ndarray
    e_a: np.ndarray
    e_b: np.ndarray

    def __post_init__(self):
        for name in ("c_a", "c_b", "e_a", "e_b"):
            object.__setattr__(self, name, _per_pair(name, getattr(self, name), self.n))


def loss_leq(l1: LossObject, l2: LossObject) -> bool:
    """l1 <= l2 in the loss ordering: c2 <= c1 and e1 <= e2 on every pair and every x >= 0.

    a x^2 + b <= a' x^2 + b' for all x >= 0 iff b <= b' (at x = 0) and
    a <= a' (as x grows), so the order compares coefficients.
    """
    if l1.n != l2.n:
        raise ValidationError(f"cardinality mismatch: {l1.n} vs {l2.n}")
    pairs = ((l2.c_a, l1.c_a), (l2.c_b, l1.c_b), (l1.e_a, l2.e_a), (l1.e_b, l2.e_b))
    return all((lo <= hi).all() for lo, hi in pairs)


# -- the stress family -------------------------------------------------------------

# the quadrature check integrates t = -log a up to the pair's target + this margin
QUADRATURE_TAIL_MARGIN = 20.0
# embedded distances at which the quadrature check compares the closed-form c term
QUADRATURE_X_PROBE = (0.0, 0.5, 1.0, 2.0)
# the least relative tolerance `quad` accepts without an absolute one: 50 eps
QUADRATURE_REL_TOL_MIN = 50 * math.ulp(1.0)


def _terms_past(w, log_w, a: float):
    """c's x^2 coefficient and e at a strength a > w, for membership w (float or array)."""
    return 1.0 + 2.0 * (1.0 / w - 1.0 / a), 2.0 * log_w / w - 2.0 * math.log(a) / a


def _flat_terms(w, log_w, log_w_sq):
    """The integrals over a in (0, 1] of c's x^2 coefficient and of e, for membership w."""
    return 1.0 + 2.0 * (1.0 - w) / w + 2.0 * log_w, 2.0 * log_w / w * (1.0 - w) + log_w_sq


def _logs(w: np.ndarray) -> list[float]:
    """math.log of each membership.

    The family takes its logs (and their squares, by float pow) entry by
    entry: numpy's vectorized log and square round differently on some
    entries, and these are the bytes `flatten-check` has always reported.
    """
    return list(map(math.log, w.tolist()))


@dataclass(frozen=True, eq=False)
class FuzzyLossFamily:
    """The stress family over n points: one membership w in (0, 1] per pair.

    `w` is condensed (`pair_distances` order) and read-only. At strength a
    in (0, 1] a pair is co-clustered while a <= w: c = x^2, e = 0. Beyond
    w, c = (1 + 2 (1/w - 1/a)) x^2 and e = 2 log(w)/w - 2 log(a)/a. So
    every operation on the family is one numpy expression over `w`.
    """

    n: int
    w: np.ndarray

    def __post_init__(self):
        w = _per_pair("w", self.w, self.n)
        bad = np.flatnonzero(~((w > 0.0) & (w <= 1.0)))
        if bad.size:
            k = bad[0]
            i, j = (int(index[k]) for index in np.triu_indices(self.n, 1))
            raise ValidationError(
                f"memberships must lie in (0, 1], got {float(w[k])!r} at pair ({i}, {j})"
            )
        object.__setattr__(self, "w", w)

    def loss_object_at(self, a: float) -> LossObject:
        """The loss object at strength a: each pair's terms at a (see the class)."""
        if not 0.0 < a <= 1.0:
            raise ValidationError(f"strength must lie in (0, 1], got {a!r}")
        w = self.w
        with np.errstate(over="ignore"):  # a subnormal w has infinite terms
            c_a, e_b = _terms_past(w, np.array(_logs(w)), a)
        coclustered = a <= w
        c_a[coclustered] = 1.0
        e_b[coclustered] = 0.0
        zero = np.zeros_like(w)
        return LossObject(self.n, c_a, zero, zero, e_b)


def mds_fuzzy_family(w: MembershipMatrix, a_min: float | None = None) -> FuzzyLossFamily:
    """Strength-indexed stress family for a membership matrix.

    Pairs with w = 0 have a non-integrable family and are rejected unless
    a_min, in (0, 1], requests truncation, which floors their membership at
    a_min.
    """
    if a_min is not None and not 0.0 < a_min <= 1.0:
        raise ValidationError(f"a_min must lie in (0, 1], got {a_min!r}")
    wc = squareform(w.w, checks=False)
    never = wc == 0.0
    if never.any():
        if a_min is None:
            i, j = np.argwhere(w.w == 0.0)[0]  # row-major: the first pair, i < j
            raise ValidationError(
                f"pair ({i}, {j}) never co-clusters (w = 0): its family is "
                "non-integrable; pass a_min to truncate"
            )
        wc[never] = a_min
    return FuzzyLossFamily(w.n, wc)


def family_leq(f1: FuzzyLossFamily, f2: FuzzyLossFamily) -> bool:
    """f1 <= f2 at every strength a in (0, 1]: w1 <= w2 on every pair.

    At each a, a pair's c falls and its e rises as w grows, because log(a)/a
    increases on (0, 1]; and where w1 > w2 the strength a = w1 has c1 = x^2
    below c2. So the order of families is the order of memberships.
    """
    if f1.n != f2.n:
        raise ValidationError(f"cardinality mismatch: {f1.n} vs {f2.n}")
    return bool((f1.w <= f2.w).all())


def flatten(family: FuzzyLossFamily) -> LossObject:
    """Integrate c and e over strengths a in (0, 1], pairwise, in closed form.

    `check_quadrature` verifies the closed form numerically.
    """
    logs = _logs(family.w)
    with np.errstate(over="ignore"):  # a subnormal w has infinite terms
        c_a, e_b = _flat_terms(family.w, np.array(logs), np.array([v**2 for v in logs]))
    zero = np.zeros_like(family.w)
    return LossObject(family.n, c_a, zero, zero, e_b)


def _integrand(t: float, w: float, log_w: float, x: float | None = None) -> float:
    """c at distance x (e if x is None) at strength a = exp(-t), times |da/dt| = a."""
    a = math.exp(-t)
    c, e = _terms_past(w, log_w, a) if a > w else (1.0, 0.0)
    return e * a if x is None else c * x * x * a


def check_quadrature(family: FuzzyLossFamily, rel_tol: float = 1e-8) -> None:
    """Verify `flatten(family)` pair by pair, by adaptive quadrature over strengths.

    Substitutes a = exp(-t) and integrates t over [0, T], T = -log w +
    QUADRATURE_TAIL_MARGIN, with a breakpoint at -log w; the c tail past
    T, on the co-clustered branch, is added analytically. The c term is
    compared at each distance in QUADRATURE_X_PROBE, then the e term; a
    probe fails when the two differ by more than 10 * rel_tol relative
    (absolute below 1), or are not finite (a subnormal w), and raises
    ValidationError naming w and the probe. A rel_tol that is not finite or
    below QUADRATURE_REL_TOL_MIN is a ValidationError naming it.
    """
    if not (math.isfinite(rel_tol) and rel_tol >= QUADRATURE_REL_TOL_MIN):
        raise ValidationError(
            f"rel_tol must be finite and >= {QUADRATURE_REL_TOL_MIN!r}, got {rel_tol!r}"
        )
    from scipy.integrate import quad  # deferred: only this check integrates

    flat = flatten(family)
    for w, log_w, coeff, econst in zip(
        family.w.tolist(), _logs(family.w), flat.c_a.tolist(), flat.e_b.tolist()
    ):
        t_max = -log_w + QUADRATURE_TAIL_MARGIN
        breaks = [-log_w] if 0.0 < -log_w < t_max else []
        # (probe, the integrand's extra args, closed form, analytic tail)
        probes = [
            (f"at x={x}", (w, log_w, x), coeff * x * x, x * x * math.exp(-t_max))
            for x in QUADRATURE_X_PROBE
        ]
        probes.append(("(e term)", (w, log_w), econst, 0.0))
        for probe, args, want, tail in probes:
            got, _ = quad(_integrand, 0.0, t_max, args=args, points=breaks,
                          epsabs=0.0, epsrel=rel_tol, limit=200)
            got += tail
            if not abs(got - want) <= rel_tol * max(1.0, abs(want)) * 10:  # NaN fails
                raise ValidationError(
                    f"quadrature disagrees with closed form for w={w!r} {probe}: "
                    f"{got!r} vs {want!r}"
                )


# -- sign classification -----------------------------------------------------------


@dataclass(frozen=True)
class SignReport:
    """Sign pattern of a family's terms over every strength and every x >= 0.

    `witnesses` names terms with c < 0 or e > 0, up to 10.
    """

    c_nonnegative: bool
    e_nonpositive: bool
    c_nonpositive: bool
    e_nonnegative: bool
    witnesses: tuple[str, ...]

    @property
    def classification(self) -> str:
        pos = self.c_nonnegative and self.e_nonpositive
        neg = self.c_nonpositive and self.e_nonnegative
        if pos and neg:
            return "both"
        if pos:
            return "positive-extensible"
        if neg:
            return "negative-extensible"
        return "neither"


def sign_classification(family: FuzzyLossFamily) -> SignReport:
    """Check c >= 0 / e <= 0 (and the mirrored pattern) over every strength and x >= 0.

    Per pair, c = c_a x^2 with c_a running from 1 (a <= w) to 2/w - 1
    (a = 1), and e is a constant running from 2 log(w)/w (a = 1) to 0
    (a <= w). So c is never negative and e never positive: every stress
    family is positive-extensible, with no witnesses. c is nonpositive only
    when there are no pairs, and e is nonnegative unless some
    2 log(w)/w < -SIGN_TOL.
    """
    w = family.w
    with np.errstate(over="ignore"):  # a subnormal w has e = -inf
        e_at_one = 2.0 * np.array(_logs(w)) / w
    return SignReport(True, True, w.size == 0, not (e_at_one < -SIGN_TOL).any(), ())


# -- embedding problems -------------------------------------------------------------


def pair_distances(a: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of `a`, one per unordered pair.

    Condensed layout: pair (i, j), i < j, in row-major order of the upper
    triangle, as `scipy.spatial.distance.squareform` reads and writes it.
    This is the compiled kernel that `scipy.spatial.distance.pdist(a)`
    dispatches to, `scipy.spatial._distance_pybind.pdist_euclidean`, called
    directly: `pdist`'s array-API wrapper costs more than the kernel's work
    at n = 64, and the optimizer calls this once per trial point. The bytes
    are `pdist`'s, which a test pins, so a SciPy release that moves the
    kernel fails that test instead of changing results. The kernel runs its
    own loop, not BLAS.
    """
    return pdist_euclidean(a)


def _square(condensed: np.ndarray, n: int) -> np.ndarray:
    """`squareform(condensed)`, n x n: squareform alone makes n = 0 a 1 x 1 matrix."""
    return squareform(condensed) if n else np.zeros((0, 0))


def _pair_gradient(
    a: np.ndarray, delta: np.ndarray, slope: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Gradient of a sum of pair terms whose derivative in delta_ij is slope_ij.

    `delta`, `slope` and the boolean `active` are condensed, and `active`
    holds only pairs with delta > 0. Row i is sum_j c_ij (a_i - a_j), where
    c_ij = slope_ij / delta_ij on active pairs and +0.0 elsewhere: coincident
    pairs contribute zero (the stable subgradient choice). `slope` is
    overwritten with c and `active` with its complement, so no pair-sized
    array is allocated here; `slope` must own its memory, or `squareform`
    copies it before the n x n expansion. The product runs in einsum's own
    loop, not BLAS, so its bytes do not depend on the BLAS thread count.
    """
    np.divide(slope, delta, out=slope, where=active)
    np.logical_not(active, out=active)
    np.copyto(slope, 0.0, where=active)
    coeff = squareform(slope)
    at = np.ascontiguousarray(a.T)
    g = coeff.sum(axis=1)[:, None] * a
    g -= np.einsum("ij,kj->ik", coeff, at)
    return g


def check_policy(policy: str) -> None:
    """Reject a target policy other than "strict", "cap" or "drop"."""
    if policy not in TARGET_POLICIES:
        raise ValidationError(f"unknown target policy {policy!r}")


def _apply_target_policy(targets: np.ndarray, policy: str):
    """Condensed targets and weights of a square target matrix, after `policy`.

    The weights are None unless the drop policy zeroed a pair.
    """
    check_policy(policy)
    t = np.asarray(targets, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValidationError(f"target matrix must be square, got {t.shape}")
    if not np.array_equal(t, t.T):
        raise ValidationError("target matrix must be symmetric")
    if np.diagonal(t).any():
        raise ValidationError("target diagonal must be zero")
    if np.isnan(t).any() or (t < 0).any():
        raise ValidationError("targets must be nonnegative reals or +inf")
    if policy == "strict" and not np.isfinite(t).all():
        i, j = np.argwhere(~np.isfinite(t))[0]
        raise ValidationError(f"infinite target at ({i}, {j}); choose policy 'cap' or 'drop'")
    t = squareform(t, checks=False)
    weights = None
    infinite = ~np.isfinite(t)
    capped = 0
    if infinite.any():
        if policy == "cap":
            t = cap_disconnected(t)
            capped = int(infinite.sum())
        else:
            weights = np.ones_like(t)
            weights[infinite] = 0.0
            t[infinite] = 0.0
    return t, weights, capped


class StressProblem:
    """Pairwise squared-difference loss against fixed target distances.

    Targets and weights are condensed (see `pair_distances`). The total sums
    over ordered pairs i != j, which is twice the sum over unordered pairs.
    `loss` and `grad` take the condensed distances of `a` when the caller
    already has them. A weight vector is stored only when the drop policy
    zeroed a pair; otherwise every weight is 1 and none is multiplied in.
    """

    kind = "stress"
    _weights = None

    def __init__(self, targets, m: int, policy: str = "strict"):
        t, weights, capped = _apply_target_policy(targets, policy)
        self.targets = t
        if weights is not None:
            self._weights = weights
        self.capped_pairs = capped
        self.n = len(targets)
        _check_int("embedding dimension", m)
        self.m = int(m)
        if self.m < 1:
            raise ValidationError(f"embedding dimension must be >= 1, got {m}")

    @property
    def majorizing_step(self) -> float:
        """1/(4n), a step along -grad that never raises the loss in exact arithmetic.

        It minimizes de Leeuw's (1977) majorizer, a quadratic with Hessian 4V (V the
        weight Laplacian, V <= nI - 11^T) and gradient `grad` at a: with unit
        weights, the Guttman (SMACOF) transform up to a translation."""
        return 1.0 / (4 * max(self.n, 1))

    @property
    def weights(self) -> np.ndarray:
        """Condensed pair weights: 0 for a dropped pair, 1 elsewhere."""
        return np.ones_like(self.targets) if self._weights is None else self._weights

    def loss(self, a: np.ndarray, delta: np.ndarray | None = None) -> float:
        if delta is None:
            delta = pair_distances(a)
        resid = self.targets - delta
        if self._weights is not None:
            resid *= self._weights
        with np.errstate(over="ignore"):  # inf is caught by the optimizer
            resid *= resid
            return 2.0 * float(resid.sum())

    def grad(self, a: np.ndarray, delta: np.ndarray | None = None) -> np.ndarray:
        if delta is None:
            delta = pair_distances(a)
        # 2 x d(resid^2) per unordered pair, counted twice in the total
        slope = np.subtract(delta, self.targets)
        slope *= 4.0
        if self._weights is not None:
            slope *= self._weights
        return _pair_gradient(a, delta, slope, delta > 0)

    def init_targets(self) -> np.ndarray:
        return _square(self.targets, self.n)


class CrossEntropyProblem:
    """Fuzzy cross-entropy between memberships and exp(-embedded distance).

    The low-dimensional membership v = exp(-distance) is clamped to
    [FCE_CLAMP_DEFAULT, 1 - FCE_CLAMP_DEFAULT] so the loss and gradient stay
    finite at distance 0.
    Memberships are condensed (see `pair_distances`), with log w and
    log(1 - w) computed once; the total is twice the sum over unordered
    pairs. `loss` and `grad` take the condensed distances of `a` when the
    caller already has them.
    """

    kind = "fce"

    def __init__(self, w: MembershipMatrix, m: int):
        self.n = w.n
        _check_int("embedding dimension", m)
        self.m = int(m)
        if self.m < 1:
            raise ValidationError(f"embedding dimension must be >= 1, got {m}")
        self.w = squareform(w.w, checks=False)
        self._1mw = 1.0 - self.w
        # a pair with w = 0 (w = 1) has no attracting (repelling) term: its
        # log is masked to 0 and the term is 0 x finite = +0
        self._log_w = np.log(np.where(self.w > 0, self.w, 1.0))
        self._log_1mw = np.log(np.where(self.w < 1, self._1mw, 1.0))

    def loss(self, a: np.ndarray, delta: np.ndarray | None = None) -> float:
        if delta is None:
            delta = pair_distances(a)
        # two pair-sized buffers: v, whose log feeds the attracting term, is
        # then overwritten by the repelling term
        v = np.negative(delta)
        np.exp(v, out=v)
        np.maximum(v, FCE_CLAMP_DEFAULT, out=v)
        np.minimum(v, 1.0 - FCE_CLAMP_DEFAULT, out=v)
        attract = np.log(v)
        np.subtract(self._log_w, attract, out=attract)
        attract *= self.w
        np.negative(v, out=v)
        np.log1p(v, out=v)
        np.subtract(self._log_1mw, v, out=v)
        v *= self._1mw
        attract += v
        return 2.0 * float(attract.sum())

    def grad(self, a: np.ndarray, delta: np.ndarray | None = None) -> np.ndarray:
        if delta is None:
            delta = pair_distances(a)
        v = np.negative(delta)
        np.exp(v, out=v)
        # a pair is active while v lies strictly inside the clamp interval,
        # which implies delta > 0; NaN distances are inactive
        active = v > FCE_CLAMP_DEFAULT
        active &= v < 1.0 - FCE_CLAMP_DEFAULT
        # inactive pairs' slopes are discarded; the upper clip keeps 1 - v
        # nonzero for them, and active pairs are already inside the interval
        np.minimum(v, 1.0 - FCE_CLAMP_DEFAULT, out=v)
        # d(loss)/d(delta) = (w/v - (1-w)/(1-v)) * v on active pairs, twice
        # because each unordered pair appears twice in the total:
        # 2 (w - (1-w) v / (1-v))
        slope = np.subtract(1.0, v)
        v *= self._1mw
        np.divide(v, slope, out=slope)
        np.subtract(self.w, slope, out=slope)
        slope *= 2.0
        return _pair_gradient(a, delta, slope, active)

    def init_targets(self) -> np.ndarray:
        """Capped -log w, the stage's target distances."""
        with np.errstate(divide="ignore"):
            return cap_disconnected(_square(-np.log(self.w), self.n))

