import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from coverembed import (
    CrossEntropyProblem,
    MembershipMatrix,
    StressProblem,
    ValidationError,
    cluster_hierarchy,
    flatten,
    from_matrix,
    loss_leq,
    mds_fuzzy_family,
    membership_matrix,
    sign_classification,
)
from coverembed import loss as loss_module
from coverembed.loss import (
    FuzzyLossFamily,
    LossObject,
    check_quadrature,
    family_leq,
    pair_distances,
)
from coverembed.covers import cap_disconnected, target_distances
from oracles import (
    LOSS_COEFFICIENTS,
    ORACLE_GRID,
    ZERO_FORM,
    Form,
    OracleFamily,
    OracleMdsPair,
    PairLossObject,
    PiecewisePairFamily,
    ReferenceCrossEntropy,
    ReferenceStress,
    coefficient_range,
    condensed_loss_object,
    form_abs_sup,
    form_from_json,
    loss_object_from_json,
    loss_object_to_json,
    oracle_family_leq,
    oracle_flatten,
    oracle_loss_leq,
    oracle_mds_family,
    oracle_sign_classification,
    pairwise_distances,
    plain_fce_grad,
    plain_fce_loss,
    plain_stress_grad,
    plain_stress_loss,
    range_sign_report,
)

CHAIN = from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def member(w):
    return MembershipMatrix(np.array([[1.0, w], [w, 1.0]]))


def coefficients(obj: LossObject) -> list[tuple[float, float, float, float]]:
    """(c_a, c_b, e_a, e_b) of each pair."""
    return list(zip(*(getattr(obj, name).tolist() for name in LOSS_COEFFICIENTS)))


def same_bytes(l1: LossObject, l2: LossObject) -> bool:
    return l1.n == l2.n and all(
        getattr(l1, name).tobytes() == getattr(l2, name).tobytes() for name in LOSS_COEFFICIENTS
    )


def one_pair(c: Form, e: Form) -> LossObject:
    return condensed_loss_object(PairLossObject(2, {(0, 1): (c, e)}))


# -- parametric forms (the per-pair reference) ---------------------------------------


def test_form_values_and_sups():
    q = Form("quad", a=2.0)
    assert q.value(np.array(3.0)) == 18.0
    assert form_abs_sup(q, 3.0) == 18.0
    aff = Form("affine_x2", a=-1.0, b=5.0)
    assert form_abs_sup(aff, 3.0) == 5.0  # |5 - 9| = 4 < 5
    assert form_abs_sup(Form("const", b=-2.0), 100.0) == 2.0
    assert form_abs_sup(ZERO_FORM, 10.0) == 0.0


def test_log_barrier_form_is_the_cross_entropy_pair_term():
    w = math.exp(-1.0)
    f = Form(
        "log_barrier",
        lin=w,
        bar=1.0 - w,
        b=w * math.log(w) + (1 - w) * math.log(1 - w),
    )
    # at x = 1 the memberships agree and the term vanishes
    assert float(f.value(np.array(1.0))) == pytest.approx(0.0, abs=1e-12)
    assert form_abs_sup(f, 5.0) >= 0.0


def test_form_json_round_trip():
    for f in (Form("quad", a=1.5), Form("const", b=-1.0), Form("log_barrier", lin=1.0, bar=2.0)):
        assert form_from_json(f.to_json()) == f


# -- loss objects ----------------------------------------------------------------------


def test_loss_object_rejects_a_wrong_length():
    one = [1.0]
    LossObject(2, one, one, one, one)
    with pytest.raises(ValidationError, match="c_a needs one entry per pair, 3 for n=3"):
        LossObject(3, one, one, one, one)
    with pytest.raises(ValidationError, match="e_b needs one entry per pair"):
        LossObject(2, one, one, one, [1.0, 2.0])
    with pytest.raises(ValidationError, match=r"got shape \(1, 1\)"):
        LossObject(2, [[1.0]], one, one, one)
    with pytest.raises(ValidationError, match="c_a needs one entry per pair, 0 for n=1"):
        LossObject(1, one, [], [], [])
    with pytest.raises(ValidationError, match="w needs one entry per pair, 3 for n=3"):
        FuzzyLossFamily(3, np.array([0.5, 0.5]))
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ValidationError, match=rf"lie in \(0, 1\], got {bad!r} at pair \(0, 1\)"):
            FuzzyLossFamily(2, np.array([bad]))
    with pytest.raises(ValidationError, match=r"got -0.5 at pair \(1, 2\)"):
        FuzzyLossFamily(3, [0.5, 0.5, -0.5])


def test_loss_objects_and_families_hold_read_only_copies():
    w = np.array([0.5, 0.25, 1.0])
    fam = FuzzyLossFamily(3, w)
    w[0] = 2.0  # the caller's array stays the caller's
    assert fam.w.tolist() == [0.5, 0.25, 1.0]
    for obj in (fam, fam.loss_object_at(0.5), flatten(fam)):
        for name in ("w",) if obj is fam else LOSS_COEFFICIENTS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(obj, name)[0] = 0.75
    for obj in (fam.loss_object_at(0.5), flatten(fam)):
        assert not np.shares_memory(obj.c_b, obj.e_a)


# -- the stress family ------------------------------------------------------------


def test_family_coclustered_branch_is_pure_quadratic():
    fam = mds_fuzzy_family(member(1.0))
    for a in (0.1, 0.5, 1.0):
        assert coefficients(fam.loss_object_at(a)) == [(1.0, 0.0, 0.0, 0.0)]


def test_family_branches_meet_at_the_seam():
    w = math.exp(-1.0)
    fam = mds_fuzzy_family(member(w))
    assert coefficients(fam.loss_object_at(w)) == [(1.0, 0.0, 0.0, 0.0)]
    just_above = fam.loss_object_at(w * 1.00001)
    assert just_above.c_a[0] == pytest.approx(1.0, abs=1e-4)
    assert just_above.e_b[0] == pytest.approx(0.0, abs=1e-3)


def test_family_else_branch_formulas():
    w = 0.5
    fam = mds_fuzzy_family(member(w))
    a = 0.75
    obj = fam.loss_object_at(a)
    assert obj.c_a[0] == pytest.approx(1.0 + 2.0 * (1 / w - 1 / a))
    assert obj.e_b[0] == pytest.approx(2 * math.log(w) / w - 2 * math.log(a) / a)
    assert obj.c_b[0] == obj.e_a[0] == 0.0


def test_one_point_space_maps_to_the_zero_object():
    fam = mds_fuzzy_family(MembershipMatrix(np.ones((1, 1))))
    for obj in (fam.loss_object_at(0.5), flatten(fam)):
        assert obj.n == 1 and coefficients(obj) == []
    assert sign_classification(fam).classification == "both"


def test_family_rejects_zero_membership_without_floor():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="non-integrable"):
        mds_fuzzy_family(MembershipMatrix(w))
    fam = mds_fuzzy_family(MembershipMatrix(w), a_min=1e-6)
    assert fam.w.tolist() == [1e-6]
    w3 = np.ones((3, 3))
    w3[1, 2] = w3[2, 1] = 0.0
    with pytest.raises(ValidationError, match=r"pair \(1, 2\) never co-clusters"):
        mds_fuzzy_family(MembershipMatrix(w3))


def test_family_rejects_a_floor_outside_the_unit_interval():
    w = MembershipMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    for a_min in (2.0, math.nan, 0.0, -0.5):
        with pytest.raises(ValidationError, match=r"a_min must lie in \(0, 1\]"):
            mds_fuzzy_family(w, a_min=a_min)
    with pytest.raises(ValidationError, match="a_min"):
        mds_fuzzy_family(member(0.5), a_min=2.0)  # no pair to floor: still refused


def test_family_monotone_along_strengths():
    # larger strength = later functor stage: c grows pointwise, e shrinks
    fam = mds_fuzzy_family(member(math.exp(-1.0)))
    lo = fam.loss_object_at(0.5)
    hi = fam.loss_object_at(0.9)
    assert lo.c_a[0] <= hi.c_a[0] and lo.c_b[0] == hi.c_b[0] == 0.0
    assert hi.e_b[0] <= lo.e_b[0] and lo.e_a[0] == hi.e_a[0] == 0.0


# -- flatten --------------------------------------------------------------------------


def test_flatten_constant_family_has_unit_weight():
    fam = OracleFamily(
        2, {(0, 1): PiecewisePairFamily((), [Form("quad", a=1.0)], [ZERO_FORM])}
    )
    c, e = oracle_flatten(fam).pair(0, 1)
    assert c.as_affine_x2() == (1.0, 0.0)
    assert e.as_affine_x2() == (0.0, 0.0)
    # the stress family of w = 1 is that constant family
    assert coefficients(flatten(mds_fuzzy_family(member(1.0)))) == [(1.0, 0.0, 0.0, 0.0)]


def test_flatten_exact_matches_quadrature():
    for w in (math.exp(-0.5), math.exp(-1.0), math.exp(-2.0)):
        family = mds_fuzzy_family(member(w))
        check_quadrature(family, 1e-8)
        flat = flatten(family)
        c, e = OracleMdsPair(w).flatten_exact()
        coeff, econst = c.as_affine_x2()[0], e.as_affine_x2()[1]
        assert same_bytes(flat, LossObject(2, [coeff], [0.0], [0.0], [econst]))


def test_quadrature_checks_every_pair_of_a_random_family():
    rng = np.random.default_rng(11)
    w = np.exp(-rng.uniform(0.0, 3.0, size=(6, 6)))
    w = np.minimum(w, w.T)
    w[0, 1] = w[1, 0] = 1.0
    np.fill_diagonal(w, 1.0)
    family = mds_fuzzy_family(MembershipMatrix(w))
    assert family.w.size == 15 and (family.w == 1.0).sum() == 1
    check_quadrature(family, 1e-8)


def test_quadrature_check_rejects_an_off_closed_form(monkeypatch):
    flat_terms = loss_module._flat_terms

    def off_flat_terms(w, log_w, log_w_sq):
        coeff, econst = flat_terms(w, log_w, log_w_sq)
        return coeff + 1e-3, econst

    monkeypatch.setattr(loss_module, "_flat_terms", off_flat_terms)
    with pytest.raises(ValidationError, match=r"at x=0.5: .* vs "):
        check_quadrature(mds_fuzzy_family(member(math.exp(-1.0))), 1e-8)


def test_quadrature_check_fails_on_an_infinite_closed_form():
    # a subnormal membership flattens to inf; inf - inf must not pass as agreement
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # QUADPACK's roundoff warnings
        with pytest.raises(ValidationError, match=r"w=5e-324 at x=0.0: nan vs nan"):
            check_quadrature(FuzzyLossFamily(2, [5e-324]))


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # each deferred SciPy module loads with the one check or kernel that needs it
    script = (
        "import sys\n"
        "import coverembed.cli\n"
        "from coverembed import first_cooccurrence, from_matrix\n"
        "from coverembed.loss import FuzzyLossFamily, check_quadrature\n"
        "loaded = lambda: [m in sys.modules for m in ('scipy.integrate', 'scipy.sparse.csgraph')]\n"
        "print(*loaded())\n"
        "check_quadrature(FuzzyLossFamily(2, [0.5]))\n"
        "print(*loaded())\n"
        "first_cooccurrence(from_matrix([[0, 1], [1, 0]]), 'iso')\n"
        "print(*loaded())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False", "False", "True", "False", "True", "True"]


def test_flatten_two_point_argmin_vs_grid_oracle():
    # grid-minimize the quadrature values; the argmin sits at 0, not at -log w
    w = math.exp(-1.0)
    pair = OracleMdsPair(w)
    from scipy.integrate import quad

    def c_integrand_t(t, x):  # c(a, x) * da/dt under a = exp(-t)
        return float(pair.c_form_at(math.exp(-t)).value(x)) * math.exp(-t)

    def e_integrand_t(t):
        return float(pair.e_form_at(math.exp(-t)).value(0.0)) * math.exp(-t)

    xs = np.linspace(0.0, 3.0, 301)
    t_max = -math.log(w) + 20.0
    values = []
    for x in xs:
        got, _ = quad(c_integrand_t, 0.0, t_max, args=(float(x),),
                      points=[-math.log(w)], epsabs=0.0, epsrel=1e-10, limit=200)
        got += x * x * math.exp(-t_max)
        got_e, _ = quad(e_integrand_t, 0.0, t_max,
                        points=[-math.log(w)], epsabs=0.0, epsrel=1e-10, limit=200)
        values.append(got + got_e)
    grid_arg = xs[int(np.argmin(values))]
    flat = flatten(mds_fuzzy_family(member(w)))
    closed = flat.c_a[0] * xs * xs + flat.e_b[0]
    closed_arg = xs[int(np.argmin(closed))]
    assert grid_arg == closed_arg == 0.0  # the recorded argmin mismatch with -log w


def test_flatten_is_monotone():
    w_sl = membership_matrix(cluster_hierarchy(CHAIN, "sl"))
    w_ml = membership_matrix(cluster_hierarchy(CHAIN, "ml"))
    fam_sl = mds_fuzzy_family(w_sl)
    fam_ml = mds_fuzzy_family(w_ml)
    assert family_leq(fam_ml, fam_sl)
    assert loss_leq(flatten(fam_ml), flatten(fam_sl))


# -- stress and cross-entropy problems ---------------------------------------------------


def test_stress_two_points_realizable():
    prob = StressProblem(np.array([[0.0, 3.0], [3.0, 0.0]]), 1)
    a = np.array([[0.0], [3.0]])
    assert prob.loss(a) == 0.0
    assert prob.loss(np.array([[0.0], [2.0]])) == pytest.approx(2.0)  # ordered pairs


def test_stress_equilateral_zero_at_triangle():
    targets = np.ones((3, 3)) - np.eye(3)
    prob = StressProblem(targets, 2)
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert prob.loss(tri) == pytest.approx(0.0, abs=1e-15)


def test_stress_policies_for_infinite_targets():
    t = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValidationError, match="infinite target"):
        StressProblem(t, 1)
    t4 = np.array(
        [
            [0.0, 1.0, np.inf, np.inf],
            [1.0, 0.0, np.inf, np.inf],
            [np.inf, np.inf, 0.0, 1.0],
            [np.inf, np.inf, 1.0, 0.0],
        ]
    )
    capped = StressProblem(t4, 1, policy="cap")
    assert capped.init_targets()[0, 2] == 3.0
    assert capped.capped_pairs == 4
    dropped = StressProblem(t4, 1, policy="drop")
    assert squareform(dropped.weights)[0, 2] == 0.0
    a = np.array([[0.0], [1.0], [10.0], [11.0]])
    assert dropped.loss(a) == pytest.approx(0.0)


def test_fce_values():
    w = math.exp(-1.0)
    prob = CrossEntropyProblem(member(w), 1)
    a = np.array([[0.0], [1.0]])
    assert prob.loss(a) == pytest.approx(0.0, abs=1e-12)
    # w = 1: pure attraction log(1/v)
    prob1 = CrossEntropyProblem(member(1.0), 1)
    val = prob1.loss(a)
    assert val == pytest.approx(2 * 1.0, rel=1e-5)
    # w = 0: pure repulsion -log(1 - v), decreasing in distance
    prob0 = CrossEntropyProblem(MembershipMatrix(np.array([[1.0, 0.0], [0.0, 1.0]])), 1)
    near = prob0.loss(np.array([[0.0], [0.5]]))
    far = prob0.loss(np.array([[0.0], [2.5]]))
    assert near > far > 0.0


def test_fce_loss_nonnegative_and_zero_at_match():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = float(rng.uniform(0.05, 0.95))
        prob = CrossEntropyProblem(member(w), 1)
        gap = rng.uniform(0.05, 3.0)
        assert prob.loss(np.array([[0.0], [gap]])) >= -1e-12
        assert prob.loss(np.array([[0.0], [-math.log(w)]])) == pytest.approx(0.0, abs=1e-12)


# -- classification and ordering -----------------------------------------------------------


def test_sign_classification_of_stress_family():
    w = membership_matrix(cluster_hierarchy(CHAIN, "ml"))
    report = sign_classification(mds_fuzzy_family(w))
    assert report.classification == "positive-extensible"
    assert report.c_nonnegative and report.e_nonpositive


def test_sign_classification_zero_family_degenerate():
    fam = OracleFamily(2, {(0, 1): PiecewisePairFamily((), [ZERO_FORM], [ZERO_FORM])})
    assert range_sign_report(*coefficient_range(fam)).classification == "both"
    assert oracle_sign_classification(fam).classification == "both"


def test_sign_classification_flags_negative_quadratic():
    fam = OracleFamily(
        2, {(0, 1): PiecewisePairFamily((), [Form("quad", a=-1.0)], [ZERO_FORM])}
    )
    for report in (range_sign_report(*coefficient_range(fam)), oracle_sign_classification(fam)):
        assert not report.c_nonnegative
        assert report.classification == "negative-extensible"
        assert report.witnesses
    assert range_sign_report(*coefficient_range(fam)).witnesses == ("c<0 at pair=(0, 1)",)


def test_sign_range_is_exact_past_the_grid():
    # c = -1e-15 x^2 stays above -SIGN_TOL on [0, 10] but not for x > 32
    fam = OracleFamily(
        2, {(0, 1): PiecewisePairFamily((0.5,), [Form("quad", a=1.0), Form("affine_x2", a=-1e-15)],
                                        [ZERO_FORM, Form("const", b=-1.0)])}
    )
    assert oracle_sign_classification(fam).c_nonnegative
    report = range_sign_report(*coefficient_range(fam))
    assert not report.c_nonnegative and not report.c_nonpositive
    assert report.e_nonpositive and report.classification == "neither"


def test_loss_leq_reflexive_and_orders_chain_families():
    w_sl = membership_matrix(cluster_hierarchy(CHAIN, "sl"))
    w_ml = membership_matrix(cluster_hierarchy(CHAIN, "ml"))
    fam_sl = mds_fuzzy_family(w_sl)
    fam_ml = mds_fuzzy_family(w_ml)
    for a in (0.2, math.exp(-1.0), 0.9, 1.0):
        ml_obj = fam_ml.loss_object_at(a)
        sl_obj = fam_sl.loss_object_at(a)
        assert loss_leq(ml_obj, ml_obj)
        # the single-linkage side dominates in e (and is dominated in c)
        assert loss_leq(ml_obj, sl_obj)


def test_loss_leq_false_for_crossing_curves():
    l1 = one_pair(Form("affine_x2", a=1.0, b=0.0), ZERO_FORM)
    l2 = one_pair(Form("affine_x2", a=0.0, b=1.0), ZERO_FORM)
    # c curves cross at x=1: neither direction holds
    assert not loss_leq(l1, l2)
    assert not loss_leq(l2, l1)


def test_loss_leq_compares_affine_forms_past_the_grid():
    # e1 <= e2 on [0, 10], but 0.5 + 0.1 x^2 = 12.60 > 12.39 = 1.5 + 0.09 x^2 at x = 11
    e1, e2 = Form("affine_x2", a=0.1, b=0.5), Form("affine_x2", a=0.09, b=1.5)
    assert float(e1.value(11.0)) > float(e2.value(11.0))
    assert (e1.value(ORACLE_GRID) <= e2.value(ORACLE_GRID)).all()
    quad = Form("quad", a=1.0)
    l1, l2 = (one_pair(quad, e) for e in (e1, e2))
    assert not loss_leq(l1, l2)
    assert not loss_leq(l2, l1)  # b: 1.5 > 0.5 at x = 0
    # the same crossing in the c term, which the ordering reverses
    c1, c2 = (one_pair(c, ZERO_FORM) for c in (e1, e2))
    assert not loss_leq(c2, c1)
    assert not loss_leq(c1, c2)
    # both coefficients ordered: the order holds
    l3 = one_pair(quad, Form("affine_x2", a=0.1, b=1.5))
    assert loss_leq(l1, l3) and loss_leq(l2, l3)
    assert not loss_leq(l3, l1)


def test_loss_object_json_round_trip():
    w = membership_matrix(cluster_hierarchy(CHAIN, "ml"))
    flat = flatten(mds_fuzzy_family(w))
    again = loss_object_from_json(loss_object_to_json(flat))
    assert again.n == flat.n
    for name in LOSS_COEFFICIENTS:
        assert getattr(again, name).tobytes() == getattr(flat, name).tobytes()


def test_family_order_false_for_crossing_memberships():
    # pair (0, 1) is stronger in f1 and pair (0, 2) in f2: neither family is below the other
    w1 = MembershipMatrix(squareform([0.8, 0.2, 0.5]) + np.eye(3))
    w2 = MembershipMatrix(squareform([0.5, 0.5, 0.5]) + np.eye(3))
    f1, f2 = mds_fuzzy_family(w1), mds_fuzzy_family(w2)
    o1, o2 = oracle_mds_family(w1.w), oracle_mds_family(w2.w)
    assert not family_leq(f1, f2) and not family_leq(f2, f1)
    assert not oracle_family_leq(o1, o2) and not oracle_family_leq(o2, o1)
    assert not loss_leq(flatten(f1), flatten(f2)) and not loss_leq(flatten(f2), flatten(f1))
    assert family_leq(f1, f1) and loss_leq(flatten(f1), flatten(f1))
    assert family_leq(mds_fuzzy_family(MembershipMatrix(np.minimum(w1.w, w2.w))), f1)


def test_family_order_of_memberships_whose_terms_overflow():
    # 1/w overflows for subnormal w: the terms past w are inf - inf = NaN in
    # the reference, whose comparisons then fail both ways; the membership
    # order still orders the families
    m1, m2 = member(2.2250738585e-313), member(2.225073858507e-311)
    f1, f2 = mds_fuzzy_family(m1), mds_fuzzy_family(m2)
    assert np.isinf(flatten(f1).c_a).all() and np.isinf(flatten(f2).c_a).all()
    assert family_leq(f1, f2) and not family_leq(f2, f1)
    o1, o2 = oracle_mds_family(m1.w), oracle_mds_family(m2.w)
    assert not oracle_family_leq(o1, o2) and not oracle_family_leq(o2, o1)


# -- the condensed family against the per-pair reference -------------------------------

MEMBERSHIP_TIES = (0.0, 0.05, math.exp(-1.0), 0.5, 1.0)
FLOORS = (1e-300, 1e-6, 0.3)
# below about 1e-305 the terms 1/w and 2 log(w)/w overflow, and the
# reference's comparisons of their differences (NaN) no longer order anything
# (`test_family_order_of_memberships_whose_terms_overflow`)
W_FINITE = 1e-300


@st.composite
def membership_pair(draw):
    """Two condensed membership vectors over one n in 1..6, and a floor for their zeros."""
    n = draw(st.integers(1, 6))
    pairs = n * (n - 1) // 2
    if draw(st.booleans()):
        value = st.sampled_from(MEMBERSHIP_TIES)
    else:
        value = st.one_of(st.floats(W_FINITE, 1.0), st.sampled_from(MEMBERSHIP_TIES))
    w1, w2 = (draw(st.lists(value, min_size=pairs, max_size=pairs)) for _ in range(2))
    return n, w1, w2, draw(st.sampled_from(FLOORS))


def square(n, w):
    return MembershipMatrix(squareform(np.array(w, dtype=float), checks=False) + np.eye(n))


@settings(max_examples=300, deadline=None)
@given(membership_pair(), st.floats(1e-9, 1.0))
def test_condensed_family_agrees_with_the_per_pair_reference(case, a):
    n, w1, w2, a_min = case
    m1, m2 = square(n, w1), square(n, w2)
    f1, f2 = (mds_fuzzy_family(m, a_min=a_min) for m in (m1, m2))
    o1, o2 = (oracle_mds_family(m.w, a_min) for m in (m1, m2))
    assert family_leq(f1, f2) == oracle_family_leq(o1, o2)
    assert family_leq(f2, f1) == oracle_family_leq(o2, o1)
    flat1, flat2 = flatten(f1), flatten(f2)
    assert loss_leq(flat1, flat2) == oracle_loss_leq(oracle_flatten(o1), oracle_flatten(o2))
    assert loss_leq(flat2, flat1) == oracle_loss_leq(oracle_flatten(o2), oracle_flatten(o1))
    for fam, oracle, flat in ((f1, o1, flat1), (f2, o2, flat2)):
        assert sign_classification(fam) == oracle_sign_classification(oracle)
        assert same_bytes(flat, condensed_loss_object(oracle_flatten(oracle)))
        for strength in sorted(set(fam.w.tolist()) | {a, 1.0}):
            want = condensed_loss_object(oracle.loss_object_at(strength))
            assert same_bytes(fam.loss_object_at(strength), want)


PIECE_A = (-1.0, 0.0, 0.5, 2.0)  # every sign change of a x^2 + b below x = 10
PIECE_B = (-1.0, 0.0, 1.0)


@st.composite
def piecewise_family(draw):
    n = draw(st.integers(1, 4))
    breaks = tuple(sorted(draw(st.sets(st.floats(0.01, 0.99), max_size=2))))
    form = st.builds(lambda a, b: Form("affine_x2", a=a, b=b),
                     st.sampled_from(PIECE_A), st.sampled_from(PIECE_B))
    forms = st.lists(form, min_size=len(breaks) + 1, max_size=len(breaks) + 1)
    return OracleFamily(n, {
        (i, j): PiecewisePairFamily(breaks, draw(forms), draw(forms))
        for i in range(n) for j in range(i + 1, n)
    })


@settings(max_examples=200, deadline=None)
@given(piecewise_family())
def test_sign_range_agrees_with_the_sampled_reference(fam):
    got = range_sign_report(*coefficient_range(fam))
    want = oracle_sign_classification(fam)
    assert got.classification == want.classification
    assert (got.c_nonnegative, got.e_nonpositive, got.c_nonpositive, got.e_nonnegative) == (
        want.c_nonnegative, want.e_nonpositive, want.c_nonpositive, want.e_nonnegative)
    assert bool(got.witnesses) == bool(want.witnesses)


def test_family_operations_at_the_size_of_the_north_star():
    # n = 1000: 499,500 pairs, each operation a few numpy passes over them
    rng = np.random.default_rng(7)
    space = rng.normal(size=(1000, 3))
    w_ml = MembershipMatrix(np.exp(-pairwise_distances(space)))
    fam_ml = mds_fuzzy_family(w_ml)
    fam_sl = FuzzyLossFamily(1000, np.maximum(fam_ml.w, np.flip(fam_ml.w)))
    t0 = time.perf_counter()
    assert family_leq(fam_ml, fam_sl)
    assert loss_leq(flatten(fam_ml), flatten(fam_sl))
    assert sign_classification(fam_ml).classification == "positive-extensible"
    assert time.perf_counter() - t0 < 5.0


# -- gradients ------------------------------------------------------------------------


def test_gradients_match_finite_differences():
    from oracles import grad_check

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 4))
        a = rng.normal(size=(n, m))
        d = rng.uniform(0.3, 2.0, size=(n, n))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        res = grad_check(StressProblem(d, m), a)
        worst = max(worst, res.max_rel_error)
        w = np.exp(-d)
        np.fill_diagonal(w, 1.0)
        res = grad_check(CrossEntropyProblem(MembershipMatrix(w), m), a)
        worst = max(worst, res.max_rel_error)
    assert worst < 1e-5


def test_loss_and_grad_take_the_callers_distances_bit_for_bit():
    rng = np.random.default_rng(12)
    d = rng.uniform(0.3, 2.0, size=(6, 6))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    dropped = d.copy()
    dropped[0, 4] = dropped[4, 0] = np.inf
    w = np.exp(-d)
    np.fill_diagonal(w, 1.0)
    problems = (
        StressProblem(d, 2),
        StressProblem(dropped, 2, policy="drop"),
        CrossEntropyProblem(MembershipMatrix(w), 2),
    )
    a = rng.normal(size=(6, 2))
    a[3] = a[1]  # a coincident pair
    delta = pair_distances(a)
    for prob in problems:
        assert prob.loss(a, delta) == prob.loss(a)
        assert np.array_equal(prob.grad(a, delta), prob.grad(a))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 12),
    m=st.integers(1, 3),
    policy=st.sampled_from(("strict", "cap", "drop")),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_majorizing_step_never_raises_the_stress(n, m, policy, seed):
    """loss(a - grad(a) / (4n)) <= loss(a), up to a few ulps of the loss, with
    infinite targets (capped or dropped), zero targets and coincident rows."""
    rng = np.random.default_rng(seed)
    d = rng.choice([0.0, 0.5, 1.0, 2.0, 3.5], size=(n, n)) * rng.uniform(0.5, 2.0)
    if policy != "strict":
        d[rng.random((n, n)) < 0.3] = np.inf
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    problem = StressProblem(d, m, policy)
    a = rng.integers(-2, 3, size=(n, m)) * rng.uniform(0.1, 3.0)  # coincident rows
    a[rng.random(n) < 0.5] += rng.normal(size=m)
    f, g = problem.loss(a), problem.grad(a)
    assert problem.majorizing_step == 1.0 / (4 * n)
    assert problem.loss(a - g * problem.majorizing_step) <= f + 8 * math.ulp(f)


def test_pairwise_distances_matches_direct_formula():
    rng = np.random.default_rng(10)
    a = rng.normal(size=(6, 3))
    diff = a[:, None, :] - a[None, :, :]
    direct = np.sqrt((diff * diff).sum(-1))
    assert np.allclose(pairwise_distances(a), direct, atol=1e-12)


def _distance_inputs():
    """Random, tie-heavy and duplicate-row point sets, n in {0, 1, 2, 64, 400}."""
    rng = np.random.default_rng(41)
    for n in (0, 1, 2, 64, 400):
        for m in (1, 2, 7):
            yield rng.normal(size=(n, m))
            yield rng.integers(0, 3, size=(n, m)).astype(float)
            dup = rng.normal(size=(n, m))
            dup[n // 2 :] = dup[: n - n // 2]
            yield dup


def test_pair_distances_are_the_bytes_of_public_pdist():
    """The compiled kernel called directly gives `pdist`'s bytes for every layout."""
    for x in _distance_inputs():
        want = pdist(x)
        got = pair_distances(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert pair_distances(np.asfortranarray(x)).tobytes() == want.tobytes()
        assert pair_distances(np.repeat(x, 2, axis=1)[:, ::2]).tobytes() == want.tobytes()
        frozen = x.copy()
        frozen.flags.writeable = False
        assert pair_distances(frozen).tobytes() == want.tobytes()


def _plain_expression_cases():
    """(targets, memberships, coords): pairs clamped at both ends, delta = 0, NaN."""
    rng = np.random.default_rng(43)
    for n, m in ((2, 1), (5, 2), (9, 2), (40, 3), (64, 2), (64, 5)):
        targets = pairwise_distances(rng.normal(size=(n, 3)))
        w = np.exp(-targets)
        np.fill_diagonal(w, 1.0)
        if n >= 9:  # memberships 0 and 1: pairs with one term only
            w[1, 2:5] = w[2:5, 1] = 0.0
            w[3, 5:8] = w[5:8, 3] = 1.0
        a = rng.normal(size=(n, m))
        yield targets, w, a
        b = a.copy()
        b[1] = b[0]  # delta = 0
        if n > 2:
            b[2] = b[0] + 1e-8  # exp(-delta) above 1 - clamp
        if n > 3:
            b[3] = b[0] + 40.0  # exp(-delta) below the clamp
        yield targets, w, b
        c = b.copy()
        c[-1, 0] = np.nan
        yield targets, w, c


def test_pair_kernels_give_the_bytes_of_their_plain_expressions():
    def same(x, y):
        return np.asarray(x).tobytes() == np.asarray(y).tobytes()

    for targets, w, a in _plain_expression_cases():
        n, m = a.shape
        dropped = targets.copy()
        dropped[0, n - 1] = dropped[n - 1, 0] = np.inf
        problems = (
            (StressProblem(targets, m), plain_stress_loss, plain_stress_grad),
            (StressProblem(dropped, m, policy="drop"), plain_stress_loss, plain_stress_grad),
            (CrossEntropyProblem(MembershipMatrix(w), m), plain_fce_loss, plain_fce_grad),
        )
        for prob, plain_loss, plain_grad in problems:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # 1 - v is never 0, no 0/0
                delta = pair_distances(a)
                got = (prob.loss(a), prob.loss(a, delta), prob.grad(a), prob.grad(a, delta))
            want_loss, want_grad = plain_loss(prob, a), plain_grad(prob, a)
            assert same(got[0], want_loss) and same(got[1], want_loss), (n, m, prob.kind)
            assert same(got[2], want_grad) and same(got[3], want_grad), (n, m, prob.kind)


def _pair_kernel_cases():
    """(problem, n x n reference, coords) on the inputs the pair layout must survive."""
    rng = np.random.default_rng(31)
    cases = []

    def add(targets, a, policy="strict"):
        m = a.shape[1]
        cases.append((StressProblem(targets, m, policy), ReferenceStress(targets, policy), a))
        if np.isfinite(targets).all():
            w = np.exp(-targets)
            np.fill_diagonal(w, 1.0)
            cases.append((CrossEntropyProblem(MembershipMatrix(w), m), ReferenceCrossEntropy(w), a))

    for n, m in ((1, 2), (2, 1), (2, 3), (7, 2), (40, 3)):
        add(pairwise_distances(rng.normal(size=(n, 4))), rng.normal(size=(n, m)))
    add(np.zeros((2, 2)), np.zeros((2, 2)))  # n = 2, both points at one spot
    # tie-heavy: integer targets and a grid embedding, many equal distances
    grid = np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)
    add(np.round(pairwise_distances(rng.integers(0, 3, size=(16, 2)))), grid)
    # coincident points, with zero targets among them
    a = rng.normal(size=(9, 2))
    a[5] = a[7] = a[2]
    t = pairwise_distances(rng.integers(0, 2, size=(9, 3)))
    add(t, a)
    # disconnected targets under the drop and cap policies
    t = pairwise_distances(rng.normal(size=(10, 3)))
    t[:4, 4:] = t[4:, :4] = np.inf
    for policy in ("drop", "cap"):
        add(t, rng.normal(size=(10, 2)), policy)
    # memberships w in {0, 1}, coincident points included
    w = np.triu((rng.random((12, 12)) < 0.5).astype(float), 1)
    w = w + w.T + np.eye(12)
    a = rng.normal(size=(12, 2))
    a[3] = a[0]
    cases.append((CrossEntropyProblem(MembershipMatrix(w), 2), ReferenceCrossEntropy(w), a))
    return cases


def test_pair_kernels_match_the_square_matrix_reference():
    for prob, ref, a in _pair_kernel_cases():
        delta = pair_distances(a)
        assert np.array_equal(squareform(delta), pairwise_distances(a))
        assert np.array_equal(prob.grad(a, delta), ref.grad(a))
        want = ref.loss(a)
        assert abs(prob.loss(a, delta) - want) <= 1e-12 * abs(want)
        if prob.kind == "stress":
            assert np.array_equal(prob.init_targets(), ref.targets)
        else:
            want_init = cap_disconnected(target_distances(MembershipMatrix(ref.w)))
            assert np.array_equal(prob.init_targets(), want_init)


def test_problems_hold_pair_data_and_loss_stays_below_one_square_matrix():
    n = 400
    rng = np.random.default_rng(33)
    d = pairwise_distances(rng.normal(size=(n, 3)))
    dropped = d.copy()
    dropped[:50, 50:] = dropped[50:, :50] = np.inf
    w = np.exp(-d)
    a = rng.normal(size=(n, 2))
    delta = pair_distances(a)
    problems = (
        StressProblem(d, 2),
        StressProblem(dropped, 2, policy="drop"),
        CrossEntropyProblem(MembershipMatrix(w), 2),
    )
    for prob in problems:
        for name, value in vars(prob).items():
            assert isinstance(value, (int, float, str, np.ndarray)), name
            if isinstance(value, np.ndarray):
                assert value.shape == (n * (n - 1) // 2,), name
        prob.loss(a, delta)
        tracemalloc.start()
        try:
            prob.loss(a, delta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(float).itemsize, (prob.kind, peak)
