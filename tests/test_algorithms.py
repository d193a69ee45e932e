import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from coverembed import (
    OptimizerConfig,
    PipelineSpec,
    ValidationError,
    from_matrix,
    from_points_euclidean,
    fuzzy_union_membership,
    named_spec,
    run_pipeline,
)
from coverembed.algorithms import (
    ALGO_TABLE,
    build_problem,
    connectivity_radius,
    stage_targets,
)
from coverembed.graphs import bottleneck_matrix, hop_bounded_minimax
from coverembed.loss import StressProblem
from coverembed.optimize import minimize

from oracles import (
    oracle_minimax_path,
    pairwise_distances,
    permuted,
    random_euclidean,
    random_space,
)

CHAIN = from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def spec(cluster, loss="mds", m=2, **kw):
    return PipelineSpec(cluster, loss, m, **kw)


# -- target builders ---------------------------------------------------------------


def test_maximal_linkage_targets_are_the_distances():
    rng = np.random.default_rng(0)
    space = random_space(rng, n=6)
    t = stage_targets(space, spec("ml"))
    assert np.array_equal(t, space.d)


def test_bottleneck_chain_value():
    assert bottleneck_matrix(CHAIN.d)[0, 2] == 2.0


def _oracle_spaces(rng):
    """n = 1 and 2, random reals, duplicate points, tie-heavy non-metric integers."""
    yield from_matrix([[0.0]])
    yield from_matrix([[0.0, 1.5], [1.5, 0.0]])
    for _ in range(5):
        yield random_space(rng, n=6)
    for _ in range(5):  # six points on four grid cells
        yield from_points_euclidean(rng.integers(0, 2, size=(6, 2)).astype(float))
    for _ in range(5):
        a = np.triu(rng.integers(0, 3, size=(6, 6)), 1).astype(float)
        yield from_matrix(a + a.T)


def test_bottleneck_matches_path_oracle():
    for space in _oracle_spaces(np.random.default_rng(1)):
        n = space.n
        want = [[oracle_minimax_path(space.d, i, j) for j in range(n)] for i in range(n)]
        assert np.array_equal(bottleneck_matrix(space.d), want)


def test_ultrametric_is_a_single_linkage_fixed_point():
    # ultrametric from a two-level hierarchy: within-group 1, across 2
    d = np.full((4, 4), 2.0)
    d[0, 1] = d[1, 0] = 1.0
    d[2, 3] = d[3, 2] = 1.0
    np.fill_diagonal(d, 0.0)
    space = from_matrix(d)
    assert np.array_equal(bottleneck_matrix(space.d), space.d)
    # and a non-ultrametric input moves: the chain contracts
    assert not np.array_equal(bottleneck_matrix(CHAIN.d), CHAIN.d)


def test_kpath_target_conventions():
    rng = np.random.default_rng(2)
    space = random_space(rng, n=6)
    # one edge: the raw distances
    assert np.array_equal(hop_bounded_minimax(space.d, 1), space.d)
    # n-1 edges: the single-linkage targets
    assert np.array_equal(hop_bounded_minimax(space.d, 5), bottleneck_matrix(space.d))
    # chain with 2 edges bridges the ends at cost 2
    assert hop_bounded_minimax(CHAIN.d, 2)[0, 2] == 2.0


def test_hop_bounded_minimax_memory_is_quadratic():
    n = 200
    d = pairwise_distances(np.random.default_rng(3).random((n, 3)))
    tracemalloc.start()
    try:
        b = hop_bounded_minimax(d, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * n * 8
    for i, j in [(0, 1), (5, 150), (199, 17)]:
        assert b[i, j] == oracle_minimax_path(d, i, j, max_hops=3)


def test_stress_problem_of_the_ml_stage_holds_no_square_copy():
    # the ml stage's targets are the space's read-only distances, condensed once
    n = 400
    space = from_points_euclidean(np.random.default_rng(3).normal(size=(n, 3)))
    mmds = named_spec("mmds", m=2)
    assert stage_targets(space, mmds) is space.d
    build_problem(space, mmds)
    tracemalloc.start()
    try:
        problem = build_problem(space, mmds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem.targets.shape == (n * (n - 1) // 2,)
    assert peak < n * n * 8


def test_vlk_targets_four_cycle():
    d = np.full((4, 4), 5.0)
    np.fill_diagonal(d, 0.0)
    weights = {(0, 1): 1.0, (1, 2): 1.2, (2, 3): 1.1, (3, 0): 1.3}
    for (i, j), w in weights.items():
        d[i, j] = d[j, i] = w
    space = from_matrix(d)
    t = stage_targets(space, spec("vlk", k=2))
    # adjacent pairs form complete (hence 2-connected) subgraphs at their own
    # edge weight; the diagonals wait for the full cycle, i.e. its last edge
    for (i, j), w in weights.items():
        assert t[i, j] == w
    assert t[0, 2] == 1.3
    assert t[1, 3] == 1.3


def test_vlk_k1_equals_sl_targets():
    rng = np.random.default_rng(3)
    for _ in range(4):
        space = random_space(rng, n=5)
        t1 = stage_targets(space, spec("vlk", k=1))
        t2 = stage_targets(space, spec("sl"))
        assert np.array_equal(t1, t2)


def test_vlk_large_k_equals_ml_targets():
    rng = np.random.default_rng(4)
    for _ in range(4):
        space = random_space(rng, n=5)
        t = stage_targets(space, spec("vlk", k=7))
        assert np.array_equal(t, space.d)


def test_connectivity_radius_is_zero_at_one_point_and_on_duplicates():
    assert connectivity_radius(from_points_euclidean([[3.0, 4.0]])) == 0.0
    assert connectivity_radius(from_points_euclidean([[1.0, 2.0]] * 3)) == 0.0
    # a distance CSV of "-0" entries: every merge height is -0.0
    for n in range(2, 7):
        radius = connectivity_radius(from_matrix(np.full((n, n), -0.0)))
        assert radius == 0.0 and not np.signbit(radius)


def test_iso_targets_default_radius_connects():
    space = from_points_euclidean([[0.0], [1.0], [10.0]])
    assert connectivity_radius(space) == 9.0
    t = stage_targets(space, spec("iso"))
    assert np.isfinite(t).all()


def test_iso_pipeline_counts_capped_pairs():
    space = from_points_euclidean([[0.0], [1.0], [10.0], [11.0]])
    _, report = run_pipeline(spec("iso", m=1, delta=2.0, policy="cap"), space)
    assert report.target_summary["capped_pairs"] == 4.0
    assert report.target_summary["max"] == 3.0  # 3 x the largest finite geodesic
    with pytest.raises(Exception):
        run_pipeline(spec("iso", m=1, delta=2.0, policy="strict"), space)


def test_target_summary_counts_inf_pairs_before_the_policy():
    # a unit square with its center, and a unit square 10 to the right
    square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    space = from_points_euclidean(square + [[0.5, 0.5]] + [[x + 10, y] for x, y in square])
    geodesic = stage_targets(space, spec("iso", delta=1.5))
    finite = geodesic[np.isfinite(geodesic) & ~np.eye(9, dtype=bool)]
    assert finite.min() == pytest.approx(0.5**0.5, rel=1e-15)
    summaries = {
        (loss, policy): run_pipeline(spec("iso", loss, delta=1.5, policy=policy), space)[1]
        .target_summary
        for loss, policy in (("mds", "cap"), ("fce", "cap"), ("mds", "drop"))
    }
    for summary in summaries.values():
        assert summary["infinite_pairs"] == 20.0  # 5 x 4 pairs across the groups
        assert summary["min"] == finite.min()
    for key in (("mds", "cap"), ("fce", "cap")):
        assert summaries[key]["capped_pairs"] == 20.0
        assert summaries[key]["max"] == 3.0 * finite.max()
    dropped = summaries[("mds", "drop")]
    assert dropped["capped_pairs"] == 0.0
    assert dropped["max"] == finite.max()
    assert dropped["mean"] == pytest.approx(finite.mean(), rel=1e-15)


def test_drop_policy_gradient_matches_finite_differences():
    from oracles import grad_check

    t = np.array(
        [
            [0.0, 1.0, np.inf, np.inf],
            [1.0, 0.0, np.inf, np.inf],
            [np.inf, np.inf, 0.0, 1.0],
            [np.inf, np.inf, 1.0, 0.0],
        ]
    )
    from coverembed import StressProblem

    prob = StressProblem(t, 2, policy="drop")
    rng = np.random.default_rng(0)
    assert grad_check(prob, rng.normal(size=(4, 2))).max_rel_error < 1e-5


def test_fuzzy_targets_match_union_membership():
    rng = np.random.default_rng(5)
    space = random_space(rng, n=5)
    t = stage_targets(space, spec("fuzzy"))
    w = fuzzy_union_membership(space)
    assert np.allclose(np.exp(-t), w.w, atol=1e-12)


def test_target_ordering_shadow():
    rng = np.random.default_rng(6)
    for _ in range(5):
        space = random_space(rng, n=6)
        d = space.d
        sl = stage_targets(space, spec("sl"))
        ml = stage_targets(space, spec("ml"))
        for k in (1, 2, 3, 6):
            lk = stage_targets(space, spec("lk", k=k))
            vlk = stage_targets(space, spec("vlk", k=k))
            assert (sl <= lk + 1e-12).all()
            assert (lk <= ml + 1e-12).all()
            assert (sl <= vlk + 1e-12).all()
            assert (vlk <= d + 1e-12).all()
        assert np.array_equal(ml, d)


# -- named pipelines ------------------------------------------------------------------


def test_metric_mds_realizable_targets_reach_zero():
    space = from_points_euclidean([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    emb, report = run_pipeline(spec("ml"), space)
    assert report.final_loss < 1e-10
    got = pairwise_distances(emb.coords)
    assert np.allclose(got, space.d, atol=1e-6)


def test_metric_mds_two_far_clusters():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    space = from_points_euclidean(pts)
    emb = run_pipeline(named_spec("mmds", 2), space)[0]
    got = pairwise_distances(emb.coords)
    assert got[0, 2] == pytest.approx(10.0, rel=0.05)


def test_sls_equals_mmds_on_two_points():
    space = from_matrix([[0.0, 4.0], [4.0, 0.0]])
    a = run_pipeline(named_spec("sls", 1), space)[0]
    b = run_pipeline(named_spec("mmds", 1), space)[0]
    assert np.array_equal(a.coords, b.coords)


def test_isomap_collinear_recovers_line():
    space = from_points_euclidean([[0.0], [1.0], [2.0]])
    emb, report = run_pipeline(spec("iso", m=1, delta=1.0), space)
    assert report.final_loss < 1e-10
    gaps = np.abs(np.diff(np.sort(emb.coords.ravel())))
    assert np.allclose(gaps, 1.0, atol=1e-5)


def test_isomap_folds_closed_circle():
    # A closed circle's geodesic metric does not embed in R^1: every exact
    # chord-gap walk has more stress than the fold IsoMap returns, so no stress
    # minimizer unrolls it. Flipping all signs mirrors a walk without changing
    # its stress, so fixing the first step covers all 2^15 walks.
    n = 16
    chord = 2 * np.sin(np.pi / n)
    theta = 2 * np.pi * np.arange(n) / n
    space = from_points_euclidean(np.column_stack([np.cos(theta), np.sin(theta)]))
    s = spec("iso", m=1, delta=chord * 1.001)
    _, report = run_pipeline(s, space)
    targets = stage_targets(space, s)
    bits = (np.arange(2 ** (n - 2))[:, None] >> np.arange(n - 2)) & 1
    steps = np.hstack([np.ones((len(bits), 1)), 1 - 2 * bits]) * chord
    walks = np.hstack([np.zeros((len(bits), 1)), np.cumsum(steps, axis=1)])
    i, j = np.triu_indices(n, 1)
    walk_stress = 2 * ((targets[i, j] - np.abs(walks[:, i] - walks[:, j])) ** 2).sum(axis=1)
    assert walk_stress.min() == pytest.approx(176.5995, abs=1e-3)
    assert report.final_loss < walk_stress.min()


def test_isomap_full_radius_equals_metric_mds():
    rng = np.random.default_rng(7)
    space = random_euclidean(rng, n=6, dim=2)
    cap = float(space.d.max())
    a = run_pipeline(named_spec("isomap", 2, delta=cap, policy="strict"), space)[0]
    b = run_pipeline(named_spec("mmds", 2), space)[0]
    assert np.array_equal(a.coords, b.coords)


def test_kpath_k1_matches_metric_mds_targets():
    rng = np.random.default_rng(8)
    space = random_space(rng, n=6)
    a = run_pipeline(named_spec("kpath", 2, 1), space)[0]
    b = run_pipeline(named_spec("mmds", 2), space)[0]
    assert np.array_equal(a.coords, b.coords)


def test_kpath_large_k_matches_sls():
    rng = np.random.default_rng(9)
    space = random_space(rng, n=6)
    a = run_pipeline(named_spec("kpath", 2, 5), space)[0]
    b = run_pipeline(named_spec("sls", 2), space)[0]
    assert np.array_equal(a.coords, b.coords)


def test_kpath_is_stress_on_k_hop_minimax_targets():
    rng = np.random.default_rng(27)
    labelled = from_matrix(
        [[0, 0, 1, 1], [0, 0, 1, 2], [1, 1, 0, 1], [1, 2, 1, 0]], labels=list("abcd")
    )
    config = OptimizerConfig(max_iters=200)
    for space in (CHAIN, labelled, random_space(rng, n=6)):
        for k in (1, 2, space.n):
            got = run_pipeline(named_spec("kpath", 2, k, optimizer=config), space)[0]
            want = minimize(StressProblem(hop_bounded_minimax(space.d, k), 2), config)
            assert np.array_equal(got.coords, want.embedding.coords)
            assert got.labels == space.labels


def test_kvertex_k1_matches_sls():
    rng = np.random.default_rng(10)
    space = random_space(rng, n=5)
    a = run_pipeline(named_spec("kvertex", 2, 1), space)[0]
    b = run_pipeline(named_spec("sls", 2), space)[0]
    assert np.allclose(a.coords, b.coords, atol=1e-12)


def test_umap_two_points_collapse():
    space = from_matrix([[0.0, 2.0], [2.0, 0.0]])
    emb = run_pipeline(named_spec("umap", 1), space)[0]
    assert abs(emb.coords[0, 0] - emb.coords[1, 0]) < 1e-5


def test_umap_separates_two_tight_clusters():
    pts = np.vstack([
        np.array([[0.0, 0.0], [0.05, 0.0], [0.0, 0.05]]),
        np.array([[5.0, 5.0], [5.05, 5.0], [5.0, 5.05]]),
    ])
    space = from_points_euclidean(pts)
    w = fuzzy_union_membership(space).w
    assert w[0, 1] > 0.9 and w[0, 3] < 0.05
    emb = run_pipeline(named_spec("umap", 2), space)[0]
    got = pairwise_distances(emb.coords)
    within = max(got[0, 1], got[0, 2], got[3, 4], got[3, 5])
    across = got[np.ix_([0, 1, 2], [3, 4, 5])].min()
    assert across > within


def test_mds_fuzzy_examples():
    # 2 points: membership 1, target 0, coincident embedding
    space = from_matrix([[0.0, 2.0], [2.0, 0.0]])
    emb = run_pipeline(named_spec("mdsfuzzy", 1), space)[0]
    assert abs(emb.coords[0, 0] - emb.coords[1, 0]) < 1e-9
    # collinear 0,1,3: the recombined target for the outer pair
    space3 = from_points_euclidean([[0.0], [1.0], [3.0]])
    t = stage_targets(space3, spec("fuzzy"))
    expected = -np.log(1 - (1 - np.exp(-2.0)) * (1 - np.exp(-1.0)))
    assert t[0, 2] == pytest.approx(expected, rel=1e-12)


def test_named_spec_reads_the_algorithm_table():
    explicit = {
        "mmds": PipelineSpec("ml", "mds", 3),
        "sls": PipelineSpec("sl", "mds", 3),
        "isomap": PipelineSpec("iso", "mds", 3),
        "kpath": PipelineSpec("lk", "mds", 3, k=5),  # 4 hops: 5 path points
        "kvertex": PipelineSpec("vlk", "mds", 3, k=4),
        "umap": PipelineSpec("fuzzy", "fce", 3),
        "mdsfuzzy": PipelineSpec("fuzzy", "mds", 3),
    }
    assert list(explicit) == list(ALGO_TABLE)
    config = OptimizerConfig(max_iters=7)
    for algo, want in explicit.items():
        assert named_spec(algo, 3, 4) == want
        fields = dict(delta=0.5, optimizer=config, policy="drop")
        assert named_spec(algo, 3, 4, **fields) == PipelineSpec(
            want.cluster, want.loss, 3, k=want.k, **fields
        )
        if ALGO_TABLE[algo][2] is None:  # k is ignored
            assert named_spec(algo, 3) == named_spec(algo, 3, -2) == want
        else:
            with pytest.raises(ValidationError, match=f"algorithm {algo!r} needs k"):
                named_spec(algo, 3)
    assert named_spec("kpath", k=1).k == 2
    assert named_spec("kvertex", k=1).k == 1
    with pytest.raises(ValidationError, match="unknown algorithm 'foo'; choose from mmds, "):
        named_spec("foo")
    with pytest.raises(ValidationError, match="k must be >= 1, got -3"):
        named_spec("kpath", k=-3)
    with pytest.raises(ValidationError, match="needs parameter k >= 1, got 0"):
        named_spec("kvertex", k=0)


def test_run_pipeline_report_contents():
    space = from_points_euclidean([[0.0], [1.0], [2.0]])
    _, report = run_pipeline(spec("sl", m=1), space)
    assert set(report.stage_seconds) == {"targets", "init", "optimize"}
    assert report.target_summary["max"] == 1.0
    assert report.target_summary["infinite_pairs"] == 0.0
    assert report.exit_reason in ("converged", "stationary", "max_iters")
    assert report.trace[0][0] == 0
    # the init is timed on its own and handed to `minimize`, which then makes the
    # bytes that computing it inside `minimize` makes
    points = from_points_euclidean(np.random.default_rng(4).normal(size=(12, 3)))
    for algo, init in (("mmds", "classical"), ("umap", "classical"), ("sls", "random")):
        pipeline = named_spec(algo, optimizer=OptimizerConfig(max_iters=30, init=init))
        embedding, report = run_pipeline(pipeline, points)
        direct = minimize(build_problem(points, pipeline), pipeline.optimizer)
        assert np.array_equal(embedding.coords, direct.embedding.coords)
        assert report.trace == direct.trace


def test_pipeline_validation():
    with pytest.raises(ValidationError):
        PipelineSpec("nope")
    with pytest.raises(ValidationError):
        PipelineSpec("lk")  # missing k
    with pytest.raises(ValidationError):
        PipelineSpec("ml", "mystery")
    with pytest.raises(ValidationError, match="k must be >= 1, got 0"):
        named_spec("kpath", 2, 0)


@pytest.mark.parametrize("cluster, fields, name, value", [
    ("sl", {"m": 2.5}, "embedding dimension", 2.5),
    ("ml", {"m": True}, "embedding dimension", True),
    ("lk", {"k": 2.5}, "k", 2.5),
    ("vlk", {"k": 2.5}, "k", 2.5),
    ("lk", {"k": True}, "k", True),
])
def test_pipeline_parameters_must_be_integers(cluster, fields, name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {value!r}$"):
        PipelineSpec(cluster, **fields)


@pytest.mark.parametrize("k", [1.5, True])
def test_kpath_hop_bound_must_be_an_integer(k):
    with pytest.raises(ValidationError, match=f"^k must be an integer, got {k!r}$"):
        named_spec("kpath", 2, k)


def test_pipeline_parameters_may_be_numpy_integers():
    spec = PipelineSpec("lk", m=np.int64(2), k=np.int32(3))
    emb, _ = run_pipeline(spec, from_matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert emb.coords.shape == (2, 2)


def test_an_empty_space_embeds_as_no_rows():
    empty = from_matrix(np.zeros((0, 0)))
    for algo in ("mmds", "sls", "isomap", "kvertex"):
        emb, report = run_pipeline(named_spec(algo, 3, k=2), empty)
        assert emb.coords.shape == (0, 3)
        assert report.target_summary["max"] == 0.0


def test_permutation_equivariance_of_pipelines():
    rng = np.random.default_rng(12)
    space = random_euclidean(rng, n=6, dim=2)
    perm = rng.permutation(6)
    relabeled = permuted(space, perm)
    tight = OptimizerConfig(max_iters=20000, conv_rel=1e-14)
    for s in (
        spec("ml", optimizer=tight),
        spec("sl", optimizer=tight),
        spec("fuzzy", loss="fce", optimizer=tight),
    ):
        # the clustering/target stage is exactly equivariant
        t = stage_targets(space, s)
        t_perm = stage_targets(relabeled, s)
        assert np.allclose(t_perm, t[np.ix_(perm, perm)], atol=1e-12)
    # embeddings are equivariant up to solver tolerance where the optimum is
    # unique (realizable targets); non-realizable losses have several minima
    # and index-ordered eigensweeps may tip the descent into another basin
    s = spec("ml", optimizer=tight)
    base = pairwise_distances(run_pipeline(s, space)[0].coords)
    moved = pairwise_distances(run_pipeline(s, relabeled)[0].coords)
    assert np.allclose(moved, base[np.ix_(perm, perm)], atol=1e-6)


def test_stage_membership_consistency():
    rng = np.random.default_rng(13)
    space = random_space(rng, n=5)
    for s in (spec("ml"), spec("sl"), spec("lk", k=2), spec("fuzzy")):
        w = build_problem(space, spec(s.cluster, "fce", k=s.k)).w
        t = stage_targets(space, s)
        assert np.allclose(w, squareform(np.exp(-t), checks=False), atol=1e-12)


def test_unknown_target_policy_is_rejected_up_front():
    with pytest.raises(ValidationError, match="target policy"):
        PipelineSpec("ml", policy="typo")
    # finite targets never reach the infinite-entry branch, and still fail
    with pytest.raises(ValidationError, match="target policy"):
        StressProblem(CHAIN.d, 1, policy="typo")


def test_bad_delta_is_rejected_for_every_stage():
    for delta in (-1.0, float("nan"), float("inf"), -float("inf")):
        for cluster in ("iso", "ml"):
            with pytest.raises(ValidationError, match="delta"):
                PipelineSpec(cluster, delta=delta)
        with pytest.raises(ValidationError, match="delta"):
            named_spec("isomap", 1, delta=delta, policy="strict")
