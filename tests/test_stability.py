import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverembed import (
    PipelineSpec,
    ValidationError,
    check_interleaving_bound,
    check_loss_transfer,
    from_matrix,
    from_points_euclidean,
    interleaving_distance,
)
from coverembed.covers import HierarchicalCover, make_cover, refines
from coverembed.functors import cluster_hierarchy

from coverembed.covers import hierarchy_from_json

from oracles import (
    exact_interleaving_epsilon,
    hierarchy_to_json,
    permuted,
    perturbed,
    random_space,
    reference_interleaving,
)

CHAIN = from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def _exact_report(h1, h2):
    """interleaving_distance(h1, h2), checked against the exact oracle, the search
    of every j, and its own witness."""
    report = interleaving_distance(h1, h2)
    assert report.epsilon_star == exact_interleaving_epsilon(h1, h2)
    assert (report.epsilon_star, report.candidates, report.witness) == reference_interleaving(
        h1, h2
    )
    side, i, j = report.witness
    ha, hb = (h1, h2) if side == 0 else (h2, h1)
    if j is None:
        assert math.isinf(report.epsilon_star)
        assert not any(refines(ha.covers[i], c) for c in hb.covers)
    else:
        assert len(report.candidates) == len(h1.scales) + len(h2.scales)
        assert report.epsilon_star == max((0.0, *report.candidates))
        assert report.epsilon_star == max(0.0, hb.scales[j] - ha.scales[i])
        assert refines(ha.covers[i], hb.covers[j])
        assert j == 0 or not refines(ha.covers[i], hb.covers[j - 1])
    return report


def test_interleaving_identity():
    h = cluster_hierarchy(CHAIN, "sl")
    assert _exact_report(h, h).epsilon_star == 0.0


def test_interleaving_two_point_spaces():
    a = cluster_hierarchy(from_matrix([[0, 1], [1, 0]]), "sl")
    b = cluster_hierarchy(from_matrix([[0, 2], [2, 0]]), "sl")
    report = _exact_report(a, b)
    assert report.epsilon_star == 1.0
    # a's pair {0, 1} forms at 1 and first fits in a block of b at 2
    assert report.witness == (0, 1, 1)
    assert report.candidates == (0.0, 1.0, 0.0, -1.0)


def test_interleaving_of_shifted_functor_output():
    rng = np.random.default_rng(1)
    for stage in ("sl", "ml"):
        space = random_space(rng, n=5, low=0.5, high=2.0)
        gaps = np.diff(np.unique(space.d))
        eps = float(min(0.3, gaps[gaps > 0].min() * 0.9)) if (gaps > 0).any() else 0.1
        report = _exact_report(
            cluster_hierarchy(space, stage), cluster_hierarchy(space.shifted(eps), stage)
        )
        assert report.epsilon_star == pytest.approx(eps, abs=1e-12)


def test_interleaving_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        h1 = cluster_hierarchy(random_space(rng, n=5), "sl")
        h2 = cluster_hierarchy(random_space(rng, n=5), "ml")
        _exact_report(h1, h2)


def _rounded(space, decimals=1):
    # rounding makes distances and scale differences tie
    return from_matrix(np.round(space.d, decimals))


def _json_round_trip(h):
    return hierarchy_from_json(hierarchy_to_json(h))


def test_interleaving_report_matches_reference_search():
    rng = np.random.default_rng(12)
    params = {"sl": {}, "ml": {}, "lk": {"k": 2}, "vlk": {"k": 2}, "fuzzy": {}}
    for _ in range(4):
        x = _rounded(random_space(rng, n=6))
        y = _rounded(perturbed(rng, x, 0.3))
        z = _rounded(random_space(rng, n=6))
        for stage, kwargs in params.items():
            hx, hy, hz = (cluster_hierarchy(s, stage, **kwargs) for s in (x, y, z))
            # two calls in a row on different pairs, then a repeat of the first
            first = _exact_report(hx, hy)
            _exact_report(hz, hx)
            assert interleaving_distance(hx, hy) == first
            assert _exact_report(hx, hx).epsilon_star == 0.0
            # hierarchies read back from JSON are checked once, then searched alike
            jx, jy = _json_round_trip(hx), _json_round_trip(hy)
            assert _exact_report(jx, jy) == first
            assert _exact_report(jx, hy) == first


def test_interleaving_report_matches_reference_small_and_infinite():
    one = cluster_hierarchy(from_matrix([[0.0]]), "sl")
    assert _exact_report(one, one).epsilon_star == 0.0
    a = cluster_hierarchy(from_matrix([[0, 1], [1, 0]]), "sl")
    b = cluster_hierarchy(from_matrix([[0, 2], [2, 0]]), "ml")
    assert _exact_report(a, b).epsilon_star == 1.0
    h = cluster_hierarchy(CHAIN, "ml")
    truncated = HierarchicalCover(3, h.scales[:2], h.covers[:2])
    report = _exact_report(h, truncated)
    assert math.isinf(report.epsilon_star)
    assert report.witness == (0, 2, None)


def test_interleaving_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        hs = [
            cluster_hierarchy(random_space(rng, n=5), "sl"),
            cluster_hierarchy(random_space(rng, n=5), "ml"),
            cluster_hierarchy(random_space(rng, n=5), "sl"),
        ]
        d01 = _exact_report(hs[0], hs[1]).epsilon_star
        d10 = _exact_report(hs[1], hs[0]).epsilon_star
        assert d01 == d10
        d02 = _exact_report(hs[0], hs[2]).epsilon_star
        d12 = _exact_report(hs[1], hs[2]).epsilon_star
        assert d02 <= d01 + d12 + 1e-12


def test_interleaving_invariant_under_joint_relabeling():
    rng = np.random.default_rng(4)
    x = random_space(rng, n=6)
    y = perturbed(rng, x, 0.2)
    perm = rng.permutation(6)
    base = _exact_report(cluster_hierarchy(x, "sl"), cluster_hierarchy(y, "sl")).epsilon_star
    moved = _exact_report(
        cluster_hierarchy(permuted(x, perm), "sl"), cluster_hierarchy(permuted(y, perm), "sl")
    ).epsilon_star
    assert base == moved


def test_interleaving_infinite_when_never_refining():
    h1 = cluster_hierarchy(CHAIN, "sl")  # eventually one block
    frozen = HierarchicalCover(3, (0.0,), (make_cover(3, [[0], [1], [2]]),))
    report = _exact_report(h1, frozen)
    assert math.isinf(report.epsilon_star)
    assert report.witness == (0, 1, None)
    assert report.candidates == (0.0,)


def test_interleaving_exact_where_a_rounded_shift_falls_short():
    # fuzzy covers of 5 points and a noisy copy: eps* = t - s with t =
    # 0.12453252429237253 and s = 0.05072340642254656, but s + eps* rounds to
    # 0.12453252429237252, one ulp below t, so testing refinement at s + eps
    # rejects the exact shift
    rng = np.random.default_rng(1)
    for trial in range(5):
        n = int(rng.integers(2, 16))
        pts = rng.normal(size=(n, 2))
        if trial % 3 == 0:
            pts = np.round(pts, 1)
        noise = rng.normal(scale=0.05, size=pts.shape)
    assert n == 5
    h1 = cluster_hierarchy(from_points_euclidean(pts), "fuzzy")
    h2 = cluster_hierarchy(from_points_euclidean(pts + noise), "fuzzy")
    report = _exact_report(h1, h2)
    assert report.epsilon_star == 0.07380911786982597
    side, i, j = report.witness
    s = (h1, h2)[side].scales[i]
    t = (h2, h1)[side].scales[j]
    assert (s, t) == (0.05072340642254656, 0.12453252429237253)
    assert s + report.epsilon_star < t


def test_interleaving_rejects_a_hierarchy_that_does_not_coarsen():
    # {0, 1} at scale 1 splits again at scale 2
    split = HierarchicalCover(3, (0.0, 1.0, 2.0), (
        make_cover(3, [[0], [1], [2]]),
        make_cover(3, [[0, 1], [2]]),
        make_cover(3, [[0], [1, 2]]),
    ))
    good = cluster_hierarchy(CHAIN, "sl")
    for h1, h2 in ((split, good), (good, split)):
        with pytest.raises(ValidationError, match="does not refine"):
            interleaving_distance(h1, h2)


def test_interleaving_ground_set_mismatch():
    with pytest.raises(ValidationError):
        interleaving_distance(
            cluster_hierarchy(CHAIN, "sl"), cluster_hierarchy(from_matrix([[0, 1], [1, 0]]), "sl")
        )


def test_shift_bound_trivial_and_uniform():
    x = CHAIN
    assert check_interleaving_bound(lambda s: cluster_hierarchy(s, "sl"), x, x).epsilon_star == 0.0
    rep = check_interleaving_bound(lambda s: cluster_hierarchy(s, "sl"), x, x.shifted(0.5))
    assert rep.interleaving == _exact_report(
        cluster_hierarchy(x, "sl"), cluster_hierarchy(x.shifted(0.5), "sl")
    )
    assert rep.epsilon == pytest.approx(0.5)
    assert rep.epsilon_star == pytest.approx(0.5)
    assert rep.passed


def test_shift_bound_random_perturbations():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = random_space(rng, n=6)
        y = perturbed(rng, x, 0.1)
        rep = check_interleaving_bound(lambda s: cluster_hierarchy(s, "ml"), x, y)
        assert rep.interleaving == _exact_report(
            cluster_hierarchy(x, "ml"), cluster_hierarchy(y, "ml")
        )
        assert rep.passed


def test_loss_transfer_trivial_pair():
    spec = PipelineSpec("sl", "mds", 2)
    rep = check_loss_transfer(spec, CHAIN, CHAIN)
    assert rep.epsilon == 0.0
    assert rep.loss_cross == rep.loss_base
    assert rep.passed
    assert rep.constant_e


def test_loss_transfer_plane_perturbation():
    # index-aligned point clouds within eps/2 per point: the no-reduction case
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 2, size=(8, 2))
    noise = rng.uniform(-0.1, 0.1, size=(8, 2))
    x = from_points_euclidean(pts)
    y = from_points_euclidean(pts + noise)
    rep = check_loss_transfer(PipelineSpec("ml", "mds", 2), x, y)
    assert rep.passed
    assert rep.epsilon <= 2 * float(np.linalg.norm(noise, axis=1).max())


def test_loss_transfer_circle_radial_noise():
    n, r = 16, 1.0
    theta = 2 * np.pi * np.arange(n) / n
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    rng = np.random.default_rng(7)
    radial = 1.0 + rng.uniform(-0.02, 0.02, size=n)
    x = from_points_euclidean(r * ring)
    y = from_points_euclidean((r * radial)[:, None] * ring)
    chord = 2 * r * math.sin(math.pi / n)
    spec = PipelineSpec("iso", "mds", 1, delta=chord * 1.1)
    rep = check_loss_transfer(spec, x, y)
    assert rep.passed
    assert rep.k_c > 0 and rep.radius > 0


def test_loss_transfer_validations():
    spec = PipelineSpec("fuzzy", "fce", 2)
    with pytest.raises(ValidationError, match="stress-family"):
        check_loss_transfer(spec, CHAIN, CHAIN)
    with pytest.raises(ValidationError, match="radius"):
        check_loss_transfer(
            PipelineSpec("ml", "mds", 2), CHAIN, CHAIN, radius=-1.0
        )


def test_loss_transfer_random_pairs():
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = random_space(rng, n=6, low=0.5, high=2.0)
        y = perturbed(rng, x, 0.25)
        for cluster in ("ml", "sl"):
            rep = check_loss_transfer(PipelineSpec(cluster, "mds", 2), x, y)
            assert rep.passed


def test_loss_transfer_builds_each_space_stage_once(monkeypatch):
    """One build of the clustering stage per space, counted where the stage is computed."""
    import coverembed.algorithms as algorithms
    import coverembed.functors as functors

    rng = np.random.default_rng(14)
    x = random_space(rng, n=6, low=0.5, high=2.0)
    y = perturbed(rng, x, 0.1)
    cases = (
        (PipelineSpec("sl", "mds", 2), [(functors, "bottleneck_matrix")]),
        (PipelineSpec("lk", "mds", 2, k=2), [(functors, "hop_bounded_minimax")]),
        (PipelineSpec("iso", "mds", 2), [(functors, "geodesic_matrix")]),
        (
            PipelineSpec("fuzzy", "mds", 2),
            [(functors, "fuzzy_union_membership"), (algorithms, "fuzzy_union_membership")],
        ),
    )
    for spec, counted_at in cases:
        built = []
        with monkeypatch.context() as patch:
            for module, name in counted_at:

                def counted(arg, *rest, _original=getattr(module, name)):
                    # the first argument is the space or its distance matrix
                    built.append("x" if arg is x or arg is x.d else "y")
                    return _original(arg, *rest)

                patch.setattr(module, name, counted)
            assert check_loss_transfer(spec, x, y).passed
        assert sorted(built) == ["x", "y"], spec.cluster


@st.composite
def coarsening_hierarchies(draw, n=5):
    """Hand-built hierarchies that coarsen but need not be flag: each cover keeps
    the maximal sets among the previous blocks and some drawn ones."""
    blocks = {(v,) for v in range(n)}
    scales, covers = [0.0], [make_cover(n, blocks)]
    for _ in range(draw(st.integers(0, 4))):
        drawn = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2), min_size=1, max_size=3))
        blocks |= {tuple(sorted(b)) for b in drawn}
        blocks = {b for b in blocks if not any(set(b) < set(c) for c in blocks)}
        cover = make_cover(n, blocks)
        if cover != covers[-1]:
            scales.append(scales[-1] + draw(st.sampled_from([0.25, 0.5, 1.0])))
            covers.append(cover)
    return HierarchicalCover(n, tuple(scales), tuple(covers))


@settings(max_examples=80, deadline=None)
@given(h1=coarsening_hierarchies(), h2=coarsening_hierarchies())
def test_bound_started_search_is_exact_on_non_flag_hierarchies(h1, h2):
    """The first-co-occurrence start bound holds for any two coarsening hierarchies."""
    _exact_report(h1, h2)
