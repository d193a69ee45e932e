import math

import numpy as np
import pytest

from coverembed import (
    PipelineSpec,
    ValidationError,
    check_interleaving_bound,
    check_loss_transfer,
    from_matrix,
    from_points_euclidean,
    interleaving_distance,
    maximal_linkage,
    single_linkage,
)
from coverembed.covers import HierarchicalCover, make_cover
from coverembed.functors import cluster_hierarchy

from oracles import exhaustive_interleaving_epsilon as exhaustive_epsilon
from oracles import perturbed, random_space, reference_interleaving_report

CHAIN = from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_interleaving_identity():
    h = single_linkage(CHAIN)
    assert interleaving_distance(h, h).epsilon_star == 0.0


def test_interleaving_two_point_spaces():
    a = single_linkage(from_matrix([[0, 1], [1, 0]]))
    b = single_linkage(from_matrix([[0, 2], [2, 0]]))
    report = interleaving_distance(a, b)
    assert report.epsilon_star == 1.0
    # the largest failing candidate below eps* was evaluated and witnessed
    assert any(eps < 1.0 for eps, _ in report.failures)


def test_interleaving_of_shifted_functor_output():
    rng = np.random.default_rng(1)
    for build in (single_linkage, maximal_linkage):
        space = random_space(rng, n=5, low=0.5, high=2.0)
        gaps = np.diff(np.unique(space.d))
        eps = float(min(0.3, gaps[gaps > 0].min() * 0.9)) if (gaps > 0).any() else 0.1
        report = interleaving_distance(build(space), build(space.shifted(eps)))
        assert report.epsilon_star == pytest.approx(eps, abs=1e-12)


def test_interleaving_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        h1 = single_linkage(random_space(rng, n=5))
        h2 = maximal_linkage(random_space(rng, n=5))
        assert interleaving_distance(h1, h2).epsilon_star == exhaustive_epsilon(h1, h2)


def _rounded(space, decimals=1):
    # rounding makes distances and scale differences tie
    return from_matrix(np.round(space.d, decimals))


def test_interleaving_report_matches_reference_search():
    rng = np.random.default_rng(12)
    params = {"sl": {}, "ml": {}, "lk": {"k": 2}, "fuzzy": {}}
    for _ in range(4):
        x = _rounded(random_space(rng, n=6))
        y = _rounded(perturbed(rng, x, 0.3))
        z = _rounded(random_space(rng, n=6))
        for stage, kwargs in params.items():
            hx, hy, hz = (cluster_hierarchy(s, stage, **kwargs) for s in (x, y, z))
            # two calls in a row on different pairs, then a repeat of the first
            first = interleaving_distance(hx, hy)
            assert first == reference_interleaving_report(hx, hy)
            assert interleaving_distance(hz, hx) == reference_interleaving_report(hz, hx)
            assert interleaving_distance(hx, hy) == first
            itself = interleaving_distance(hx, hx)
            assert itself == reference_interleaving_report(hx, hx)
            assert itself.epsilon_star == 0.0


def test_interleaving_report_matches_reference_small_and_infinite():
    one = single_linkage(from_matrix([[0.0]]))
    assert interleaving_distance(one, one) == reference_interleaving_report(one, one)
    a = single_linkage(from_matrix([[0, 1], [1, 0]]))
    b = maximal_linkage(from_matrix([[0, 2], [2, 0]]))
    assert interleaving_distance(a, b) == reference_interleaving_report(a, b)
    h = maximal_linkage(CHAIN)
    truncated = HierarchicalCover(3, h.scales[:2], h.covers[:2])
    report = interleaving_distance(h, truncated)
    assert math.isinf(report.epsilon_star)
    assert report == reference_interleaving_report(h, truncated)


def test_interleaving_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        hs = [
            single_linkage(random_space(rng, n=5)),
            maximal_linkage(random_space(rng, n=5)),
            single_linkage(random_space(rng, n=5)),
        ]
        d01 = interleaving_distance(hs[0], hs[1]).epsilon_star
        d10 = interleaving_distance(hs[1], hs[0]).epsilon_star
        assert d01 == d10
        d02 = interleaving_distance(hs[0], hs[2]).epsilon_star
        d12 = interleaving_distance(hs[1], hs[2]).epsilon_star
        assert d02 <= d01 + d12 + 1e-12


def test_interleaving_invariant_under_joint_relabeling():
    rng = np.random.default_rng(4)
    x = random_space(rng, n=6)
    y = perturbed(rng, x, 0.2)
    perm = rng.permutation(6)
    base = interleaving_distance(single_linkage(x), single_linkage(y)).epsilon_star
    moved = interleaving_distance(
        single_linkage(x.permuted(perm)), single_linkage(y.permuted(perm))
    ).epsilon_star
    assert base == moved


def test_interleaving_infinite_when_never_refining():
    h1 = single_linkage(CHAIN)  # eventually one block
    frozen = HierarchicalCover(3, (0.0,), (make_cover(3, [[0], [1], [2]]),))
    report = interleaving_distance(h1, frozen)
    assert math.isinf(report.epsilon_star)


def test_interleaving_ground_set_mismatch():
    with pytest.raises(ValidationError):
        interleaving_distance(
            single_linkage(CHAIN), single_linkage(from_matrix([[0, 1], [1, 0]]))
        )


def test_shift_bound_trivial_and_uniform():
    x = CHAIN
    assert check_interleaving_bound(single_linkage, x, x).epsilon_star == 0.0
    rep = check_interleaving_bound(single_linkage, x, x.shifted(0.5))
    assert rep.epsilon == pytest.approx(0.5)
    assert rep.epsilon_star == pytest.approx(0.5)
    assert rep.passed


def test_shift_bound_random_perturbations():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = random_space(rng, n=6)
        y = perturbed(rng, x, 0.1)
        rep = check_interleaving_bound(maximal_linkage, x, y)
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
