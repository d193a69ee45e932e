"""Pairwise loss objects, strength-indexed loss families, and embedding problems.

Loss objects carry, per pair, a contractive term c and an expansive term e as
tagged parametric forms so that interval suprema (needed by the stability
checker) are exact rather than sampled. The ordering on loss objects is
  (c, e) <= (c', e')  iff  c' <= c and e <= e' pointwise.

A fuzzy loss family assigns a loss object to every strength a in (0, 1];
flattening integrates c and e over a in closed form; adaptive quadrature
only verifies that closed form (`MdsPairFamily.check_quadrature`).

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
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial._distance_pybind import pdist_euclidean
from scipy.spatial.distance import squareform

from .covers import (
    HierarchicalCover,
    MembershipMatrix,
    cap_disconnected,
    membership_matrix,
)
from .errors import ValidationError

FCE_CLAMP_DEFAULT = 1e-6
TARGET_POLICIES = ("strict", "cap", "drop")
SIGN_TOL = 1e-12  # |value| at or below this counts as zero in `sign_classification`


# -- parametric scalar forms ---------------------------------------------------


@dataclass(frozen=True)
class Form:
    """Tagged parametric function of the embedded distance x >= 0.

    kinds: "zero"; "const" b; "quad" a*x^2; "affine_x2" a*x^2 + b;
    "log_barrier" lin*x - bar*log(1 - v(x)) + const with v = clamp(e^-x).
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


def _form_leq(f: Form, g: Form, xs: np.ndarray) -> bool:
    """f <= g: on every x >= 0 for forms affine in x^2, on the samples `xs` otherwise.

    a x^2 + b <= a' x^2 + b' for all x >= 0 iff b <= b' (at x = 0) and
    a <= a' (as x grows), so polynomial forms compare their coefficients.
    """
    if f.is_polynomial() and g.is_polynomial():
        fa, fb = f.as_affine_x2()
        ga, gb = g.as_affine_x2()
        return fb <= gb and fa <= ga
    return bool(np.all(f.value(xs) <= g.value(xs)))


# -- loss objects ---------------------------------------------------------------


@dataclass(frozen=True)
class LossObject:
    """Per-pair (c, e) forms over an n-point ground set; missing pairs are zero."""

    n: int
    terms: dict[tuple[int, int], tuple[Form, Form]] = field(default_factory=dict)

    def pair(self, i: int, j: int) -> tuple[Form, Form]:
        key = (min(i, j), max(i, j))
        return self.terms.get(key, (ZERO_FORM, ZERO_FORM))


@dataclass(frozen=True)
class GridSpec:
    """Sample grid for pointwise order checks on [0, x_max]."""

    x_max: float = 10.0
    count: int = 101

    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.count)


def loss_leq(l1: LossObject, l2: LossObject, grid: GridSpec = GridSpec()) -> bool:
    """l1 <= l2 in the loss ordering: c2 <= c1 and e1 <= e2 for every pair."""
    if l1.n != l2.n:
        raise ValidationError(f"cardinality mismatch: {l1.n} vs {l2.n}")
    xs = grid.points()
    for key in sorted(set(l1.terms) | set(l2.terms)):
        c1, e1 = l1.pair(*key)
        c2, e2 = l2.pair(*key)
        if not _form_leq(c2, c1, xs):
            return False
        if not _form_leq(e1, e2, xs):
            return False
    return True


# -- strength-indexed families --------------------------------------------------

# the quadrature check integrates t = -log a up to the pair's target + this margin
QUADRATURE_TAIL_MARGIN = 20.0
# embedded distances at which the quadrature check compares the closed-form c term
QUADRATURE_X_PROBE = (0.0, 0.5, 1.0, 2.0)


class MdsPairFamily:
    """The stress-derived (c, e) family for one pair with membership w in (0, 1].

    For strengths a <= w the pair is co-clustered: c = x^2, e = 0. Beyond w,
    c = x^2 + 2 x^2 (1/w - 1/a) and e = 2 log(w)/w - 2 log(a)/a.
    """

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
        val = 2.0 * math.log(self.w) / self.w - 2.0 * math.log(a) / a
        return Form("const", b=val)

    def flatten_exact(self) -> tuple[Form, Form]:
        w = self.w
        # integral of the quadratic coefficient over a in (0, 1]
        coeff = 1.0 + 2.0 * (1.0 - w) / w + 2.0 * math.log(w)
        # integral of the constant e over a in (w, 1]
        econst = 2.0 * math.log(w) / w * (1.0 - w) + math.log(w) ** 2
        c = Form("quad", a=coeff)
        e = Form("const", b=econst) if econst != 0.0 else ZERO_FORM
        return c, e

    def check_quadrature(self, rel_tol: float = 1e-8) -> None:
        """Verify `flatten_exact` by adaptive quadrature over strengths.

        Substitutes a = exp(-t) and integrates t over [0, T], T = -log w +
        QUADRATURE_TAIL_MARGIN, with a breakpoint at -log w; the c tail past
        T, on the co-clustered branch, is added analytically. The c term is
        compared at each distance in QUADRATURE_X_PROBE, then the e term; a
        probe fails when the two differ by more than 10 * rel_tol relative
        (absolute below 1), and raises ValidationError naming it.
        """
        from scipy.integrate import quad  # deferred: only this check integrates

        c_exact, e_exact = self.flatten_exact()
        target = -math.log(self.w)
        t_max = target + QUADRATURE_TAIL_MARGIN
        breaks = [target] if 0.0 < target < t_max else []
        # (probe, integrand, its extra args, closed form, analytic tail)
        probes = [
            (f"at x={x}", self.c_integrand_t, (x,), float(c_exact.value(x)),
             x * x * math.exp(-t_max))
            for x in QUADRATURE_X_PROBE
        ]
        probes.append(("(e term)", self.e_integrand_t, (), float(e_exact.value(0.0)), 0.0))
        for probe, integrand, args, want, tail in probes:
            got, _ = quad(integrand, 0.0, t_max, args=args, points=breaks,
                          epsabs=0.0, epsrel=rel_tol, limit=200)
            got += tail
            if abs(got - want) > rel_tol * max(1.0, abs(want)) * 10:
                raise ValidationError(
                    f"quadrature disagrees with closed form for w={self.w!r} {probe}: "
                    f"{got!r} vs {want!r}"
                )

    def sup_abs_c(self, radius: float) -> float:
        """sup over a in (0,1] and x in [0, radius] of |c|; attained at a = 1."""
        return (2.0 / self.w - 1.0) * radius * radius

    def sup_abs_e(self) -> float:
        """sup over a in (0,1] of |e|; attained at a = 1."""
        return abs(2.0 * math.log(self.w) / self.w)

    def c_integrand_t(self, t: float, x: float) -> float:
        """c(a, x) * da/dt under the substitution a = exp(-t)."""
        a = math.exp(-t)
        return float(self.c_form_at(a).value(x)) * a

    def e_integrand_t(self, t: float) -> float:
        a = math.exp(-t)
        return float(self.e_form_at(a).value(0.0)) * a


@dataclass(frozen=True)
class FuzzyLossFamily:
    """Map from strength a in (0, 1] to a LossObject, with finitely many breaks."""

    n: int
    pairs: dict[tuple[int, int], object] = field(default_factory=dict)

    def critical_strengths(self) -> tuple[float, ...]:
        crit = set()
        for fam in self.pairs.values():
            crit.update(fam.critical_strengths())
        return tuple(sorted(crit))

    def loss_object_at(self, a: float) -> LossObject:
        if not 0.0 < a <= 1.0:
            raise ValidationError(f"strength must lie in (0, 1], got {a!r}")
        terms = {
            key: (fam.c_form_at(a), fam.e_form_at(a))
            for key, fam in self.pairs.items()
        }
        return LossObject(self.n, terms)


def mds_fuzzy_family(
    w: MembershipMatrix,
    h: HierarchicalCover | None = None,
    a_min: float | None = None,
) -> FuzzyLossFamily:
    """Strength-indexed stress family for a membership matrix.

    If the hierarchy is supplied it must reproduce w. Pairs with w = 0 have a
    non-integrable family and are rejected unless a_min requests truncation,
    which floors their membership at a_min.
    """
    if h is not None:
        recomputed = membership_matrix(h)
        if not np.allclose(recomputed.w, w.w, rtol=0, atol=1e-12):
            raise ValidationError("membership matrix inconsistent with hierarchy")
    n = w.n
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            wij = float(w.w[i, j])
            if wij == 0.0:
                if a_min is None:
                    raise ValidationError(
                        f"pair ({i}, {j}) never co-clusters (w = 0): its family is "
                        "non-integrable; pass a_min to truncate"
                    )
                wij = a_min
            pairs[(i, j)] = MdsPairFamily(wij)
    return FuzzyLossFamily(n, pairs)


def family_leq(
    f1: FuzzyLossFamily, f2: FuzzyLossFamily, grid: GridSpec = GridSpec()
) -> bool:
    """f1 <= f2 at every critical strength (and at a = 1)."""
    if f1.n != f2.n:
        raise ValidationError(f"cardinality mismatch: {f1.n} vs {f2.n}")
    strengths = sorted(set(f1.critical_strengths()) | set(f2.critical_strengths()) | {1.0})
    return all(loss_leq(f1.loss_object_at(a), f2.loss_object_at(a), grid) for a in strengths)


# -- flatten ---------------------------------------------------------------------


def flatten(family: FuzzyLossFamily) -> LossObject:
    """Integrate c and e over strengths a in (0, 1], pairwise, in closed form.

    Each pair family's `flatten_exact` gives the integrals of its parametric
    pieces; `MdsPairFamily.check_quadrature` verifies them numerically.
    """
    terms = {key: fam.flatten_exact() for key, fam in sorted(family.pairs.items())}
    return LossObject(family.n, terms)


# -- sign classification -----------------------------------------------------------


@dataclass(frozen=True)
class SignReport:
    """Observed sign pattern of a family over a grid of strengths and distances."""

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


def sign_classification(family: FuzzyLossFamily, grid: GridSpec = GridSpec()) -> SignReport:
    """Check c >= 0 / e <= 0 (and the mirrored pattern) over strengths and x."""
    strengths = set(family.critical_strengths()) | {1.0}
    for a in sorted(strengths):
        strengths.add(max(a / 2.0, 1e-12))
    xs = grid.points()
    c_nn = e_np = c_np = e_nn = True
    witnesses = []
    for a in sorted(strengths):
        obj = family.loss_object_at(a)
        for key, (c, e) in sorted(obj.terms.items()):
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
        self.m = int(m)
        if self.m < 1:
            raise ValidationError(f"embedding dimension must be >= 1, got {m}")

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
        return squareform(self.targets)


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
            return cap_disconnected(squareform(-np.log(self.w)))

