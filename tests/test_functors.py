import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverembed import (
    DisconnectedError,
    ValidationError,
    cover_at,
    from_matrix,
    from_points_euclidean,
    fuzzy_simplex,
    fuzzy_union_membership,
    geodesic_metric,
    is_flag_cover,
    iso_cluster,
    l_k_linkage,
    maximal_linkage,
    membership_matrix,
    refines,
    single_linkage,
    vl_k_linkage,
)

from coverembed.algorithms import PipelineSpec, connectivity_radius, stage_targets
from coverembed.covers import Cover
from coverembed.fileio import write_hierarchy_json
from coverembed.functors import CLUSTER_STAGES, cluster_hierarchy, first_cooccurrence
from coverembed.graphs import (
    _separator,
    insert_clique_edge,
    max_cliques,
    maximal_j_connected_sets,
)
from coverembed.loss import StressProblem

from oracles import (
    hierarchy_json_bytes,
    hierarchy_to_json,
    oracle_components,
    oracle_max_cliques,
    oracle_maximal_j_connected,
    oracle_minimax_path,
    permuted,
    random_space,
    reference_threshold_hierarchy,
    threshold_edges,
)

CHAIN = from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


# -- single linkage ------------------------------------------------------------


def test_single_linkage_chain():
    h = single_linkage(CHAIN)
    assert h.scales == (0.0, 1.0, 2.0)
    assert [c.blocks for c in h.covers] == [
        ((0,), (1,), (2,)),
        ((0, 1), (2,)),
        ((0, 1, 2),),
    ]


def test_single_linkage_all_identical_points():
    h = single_linkage(from_matrix(np.zeros((4, 4))))
    assert h.scales == (0.0,)
    assert h.covers[0].blocks == ((0, 1, 2, 3),)


def test_single_linkage_two_points():
    h = single_linkage(from_matrix([[0, 5], [5, 0]]))
    assert h.scales == (0.0, 5.0)


# -- maximal linkage -----------------------------------------------------------


def test_maximal_linkage_chain_overlap():
    h = maximal_linkage(CHAIN)
    assert cover_at(h, 2.5).blocks == ((0, 1), (1, 2))
    assert cover_at(h, 3.0).blocks == ((0, 1, 2),)
    assert cover_at(h, 0.5).blocks == ((0,), (1,), (2,))


def test_maximal_linkage_matches_clique_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        space = random_space(rng, n=6)
        h = maximal_linkage(space)
        for delta in h.scales:
            expected = oracle_max_cliques(6, threshold_edges(space.d, delta))
            assert cover_at(h, delta).blocks == tuple(expected)


# -- bounded-hop linkage ---------------------------------------------------------


def test_l_k_rejects_zero():
    with pytest.raises(ValidationError):
        l_k_linkage(CHAIN, 0)


def test_l_1_equals_maximal_linkage():
    rng = np.random.default_rng(12)
    for _ in range(6):
        space = random_space(rng, n=5)
        assert l_k_linkage(space, 1) == maximal_linkage(space)


def test_l_3_chain_connects_ends_at_two():
    h = l_k_linkage(CHAIN, 3)
    assert cover_at(h, 2.0).blocks == ((0, 1, 2),)
    assert cover_at(h, 1.5).blocks == ((0, 1), (2,))


def test_l_k_at_least_n_equals_single_linkage():
    rng = np.random.default_rng(13)
    for _ in range(6):
        space = random_space(rng, n=5)
        assert l_k_linkage(space, 5) == single_linkage(space)
        assert l_k_linkage(space, 9) == single_linkage(space)


def test_l_k_relation_matches_path_oracle():
    rng = np.random.default_rng(14)
    for _ in range(4):
        space = random_space(rng, n=5)
        for k in (2, 3):
            h = l_k_linkage(space, k)
            w = membership_matrix(h)
            for i in range(5):
                for j in range(i + 1, 5):
                    want = oracle_minimax_path(space.d, i, j, max_hops=k - 1)
                    assert -np.log(w.w[i, j]) == pytest.approx(want, abs=1e-12)


# -- vertex-connectivity linkage ---------------------------------------------------


def test_vl_1_equals_single_linkage():
    rng = np.random.default_rng(15)
    for _ in range(6):
        space = random_space(rng, n=5)
        assert vl_k_linkage(space, 1) == single_linkage(space)


def test_vl_2_four_cycle_is_one_block():
    # 4-cycle: edges (0,1),(1,2),(2,3),(3,0) short, diagonals long
    d = np.full((4, 4), 5.0)
    np.fill_diagonal(d, 0.0)
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        d[i, j] = d[j, i] = 1.0
    space = from_matrix(d)
    h = vl_k_linkage(space, 2)
    assert cover_at(h, 1.0).blocks == ((0, 1, 2, 3),)
    assert cover_at(h, 0.5).blocks == ((0,), (1,), (2,), (3,))


def test_vl_k_at_least_n_equals_maximal_linkage():
    rng = np.random.default_rng(16)
    for _ in range(5):
        space = random_space(rng, n=5)
        assert vl_k_linkage(space, 5) == maximal_linkage(space)


def test_vl_k_blocks_match_subset_oracle():
    rng = np.random.default_rng(17)
    for _ in range(3):
        space = random_space(rng, n=6)
        for k in (2, 3):
            h = vl_k_linkage(space, k)
            for delta in h.scales:
                expected = oracle_maximal_j_connected(
                    6, threshold_edges(space.d, delta), k
                )
                assert cover_at(h, delta).blocks == tuple(expected)


def test_vl_3_block_appears_at_an_edge_inside_an_existing_block():
    # two triangles {0,2,3}, {1,2,3} and the 3-connected {0,1,4,5,6} at scale 1;
    # the edge (0,1) at scale 2 joins two members of that block, yet completes
    # the K4 {0,1,2,3}: a batch of such edges can still change a j >= 3 cover
    d = np.full((7, 7), 3.0)
    np.fill_diagonal(d, 0.0)
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6),
                 (0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6)):
        d[i, j] = d[j, i] = 1.0
    d[0, 1] = d[1, 0] = 2.0
    h = vl_k_linkage(from_matrix(d), 3)
    assert cover_at(h, 1.0).blocks == ((0, 1, 4, 5, 6), (0, 2, 3), (1, 2, 3))
    assert cover_at(h, 2.0).blocks == ((0, 1, 2, 3), (0, 1, 4, 5, 6))
    assert h.scales == (0.0, 1.0, 2.0, 3.0)
    want = reference_threshold_hierarchy(
        d, lambda n, edges: oracle_maximal_j_connected(n, edges, 3)
    )
    assert hierarchy_to_json(h) == hierarchy_to_json(want)


def _neighbors(n, edges):
    nb = [set() for _ in range(n)]
    for a, b in edges:
        nb[a].add(b)
        nb[b].add(a)
    return nb


# Vertex 3 is a 1-cut (it alone holds 4), but the first non-adjacent pair,
# (0, 3), is separated by {1, 2} only: the split takes a non-minimum separator.
KITE_WITH_TAIL = (5, {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)})


@pytest.mark.parametrize("n, edges", [
    (1, set()),
    (5, set()),
    (5, {(a, b) for a in range(5) for b in range(a + 1, 5)}),
    (6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}),
    KITE_WITH_TAIL,
], ids=["one-vertex", "edgeless", "complete", "disconnected", "kite-with-tail"])
def test_maximal_j_connected_sets_match_the_subset_oracle(n, edges):
    for j in sorted({1, 2, 3, n}):
        assert maximal_j_connected_sets(_neighbors(n, edges), j) == oracle_maximal_j_connected(
            n, edges, j
        )


def test_the_kite_splits_along_a_separator_larger_than_its_cut_vertex():
    nb = _neighbors(*KITE_WITH_TAIL)
    assert _separator(nb, 0, 3, 3) == (1, 2)
    assert _separator(nb, 0, 4, 3) == (3,)
    assert _separator(nb, 0, 3, 2) is None


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, {p for p, keep in zip(pairs, present) if keep}


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), j=st.sampled_from([1, 2, 3, None]))
def test_maximal_j_connected_sets_match_the_subset_oracle_on_random_graphs(graph, j):
    n, edges = graph
    j = n if j is None else j
    assert maximal_j_connected_sets(_neighbors(n, edges), j) == oracle_maximal_j_connected(
        n, edges, j
    )


# -- geodesic metric and iso_cluster ------------------------------------------------


def test_geodesic_collinear_path_through_middle():
    space = from_points_euclidean([[0.0], [1.0], [2.0]])
    geo = geodesic_metric(space, 1.0)
    assert geo.d[0, 2] == pytest.approx(2.0)


def test_geodesic_identity_at_full_cap():
    rng = np.random.default_rng(18)
    space = from_points_euclidean(rng.normal(size=(5, 2)))
    geo = geodesic_metric(space, float(space.d.max()))
    assert np.allclose(geo.d, space.d)


def test_geodesic_disconnection_policies():
    space = from_points_euclidean([[0.0], [1.0], [10.0], [11.0]])
    with pytest.raises(DisconnectedError) as err:
        geodesic_metric(space, 2.0)
    assert err.value.components == [(0, 1), (2, 3)]
    capped = geodesic_metric(space, 2.0, disconnected="cap")
    assert capped.d[0, 2] == pytest.approx(3.0 * 1.0)


def test_iso_cluster_reduces_to_maximal_linkage_at_full_cap():
    rng = np.random.default_rng(19)
    space = from_points_euclidean(rng.normal(size=(5, 2)))
    assert iso_cluster(space, float(space.d.max())) == maximal_linkage(space)


def test_iso_cluster_collinear_membership():
    space = from_points_euclidean([[0.0], [1.0], [2.0]])
    w = membership_matrix(iso_cluster(space, 1.0))
    assert w.w[0, 2] == pytest.approx(np.exp(-2.0))


def test_iso_cluster_circle_geodesics_are_chord_sums():
    n, r = 16, 1.0
    theta = 2 * np.pi * np.arange(n) / n
    space = from_points_euclidean(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    chord = 2 * r * np.sin(np.pi / n)
    geo = geodesic_metric(space, chord * 1.0001)
    hops = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    hops = np.minimum(hops, n - hops)
    assert np.allclose(geo.d, chord * hops, atol=1e-12)


# -- fuzzy simplex ---------------------------------------------------------------


def test_fuzzy_two_points_full_membership():
    for dist in (0.5, 1.0, 7.0):
        w = fuzzy_union_membership(from_matrix([[0, dist], [dist, 0]]))
        assert w.w[0, 1] == 1.0


def test_fuzzy_collinear_union_formula():
    space = from_points_euclidean([[0.0], [1.0], [3.0]])
    w = fuzzy_union_membership(space)
    expected = 1.0 - (1.0 - np.exp(-2.0)) * (1.0 - np.exp(-1.0))
    assert w.w[0, 2] == pytest.approx(expected, rel=1e-15)


def test_fuzzy_symmetric_triple():
    d = np.full((3, 3), 2.0)
    np.fill_diagonal(d, 0.0)
    w = fuzzy_union_membership(from_matrix(d))
    off = w.w[~np.eye(3, dtype=bool)]
    assert np.unique(off).size == 1


def test_fuzzy_needs_two_points():
    with pytest.raises(ValidationError):
        fuzzy_simplex(from_matrix([[0.0]]))


def test_every_stage_gives_no_blocks_on_the_empty_space():
    empty = from_matrix(np.zeros((0, 0)))
    for stage in CLUSTER_STAGES:
        if stage == "fuzzy":
            with pytest.raises(ValidationError, match="at least 2 points"):
                cluster_hierarchy(empty, stage)
            continue
        h = cluster_hierarchy(empty, stage, k=2)
        assert h.scales == (0.0,) and h.covers == (Cover(0, ()),), stage
        assert membership_matrix(h).w.shape == (0, 0)


def test_fuzzy_hierarchy_consistent_with_membership():
    rng = np.random.default_rng(20)
    space = random_space(rng, n=5)
    h, w = fuzzy_simplex(space)
    again = membership_matrix(h)
    assert np.allclose(again.w, w.w, rtol=1e-12)


def test_fuzzy_membership_permutation_equivariant():
    rng = np.random.default_rng(21)
    space = random_space(rng, n=6)
    perm = rng.permutation(6)
    w = fuzzy_union_membership(space).w
    w_perm = fuzzy_union_membership(permuted(space, perm)).w
    assert np.array_equal(w_perm, w[np.ix_(perm, perm)])


# -- cross-constructor invariants ----------------------------------------------------


def _hierarchies(space, k):
    return {
        "sl": single_linkage(space),
        "ml": maximal_linkage(space),
        "lk": l_k_linkage(space, k),
        "vlk": vl_k_linkage(space, k),
    }


def test_refinement_spectrum_on_random_spaces():
    rng = np.random.default_rng(22)
    for _ in range(5):
        space = random_space(rng, n=6)
        for k in (1, 2, 3, 6):
            hs = _hierarchies(space, k)
            deltas = sorted(set().union(*(h.scales for h in hs.values())))
            for delta in deltas:
                ml = cover_at(hs["ml"], delta)
                sl = cover_at(hs["sl"], delta)
                assert refines(ml, cover_at(hs["lk"], delta))
                assert refines(cover_at(hs["lk"], delta), sl)
                assert refines(ml, cover_at(hs["vlk"], delta))
                assert refines(cover_at(hs["vlk"], delta), sl)


def test_all_constructors_produce_flag_coarsening_hierarchies():
    # every hierarchy coarsens; vlk's covers need not be flag
    # (test_covers.test_vlk_covers_need_not_be_flag), every other stage's are
    rng = np.random.default_rng(23)
    spaces = [random_space(rng, n=5) for _ in range(4)]
    for _ in range(4):  # ties and zero distances
        a = np.triu(rng.integers(0, 3, size=(6, 6)), 1).astype(float)
        spaces.append(from_matrix(a + a.T))
    for space in spaces:
        vl_k_linkage(space, 2).validate_coarsening()
        for h in (
            single_linkage(space),
            maximal_linkage(space),
            l_k_linkage(space, 2),
            l_k_linkage(space, 3),
            iso_cluster(space, float(space.d.max())),
            fuzzy_simplex(space)[0],
        ):
            h.validate_coarsening()
            assert all(is_flag_cover(cover) for cover in h.covers)


def test_unknown_disconnection_policy_is_rejected_for_every_stage():
    for stage in CLUSTER_STAGES:
        k = 2 if stage in ("lk", "vlk") else None
        with pytest.raises(ValidationError, match="unknown disconnection policy 'bogus'"):
            cluster_hierarchy(CHAIN, stage, k=k, disconnected="bogus")
        with pytest.raises(ValidationError, match="unknown disconnection policy 'bogus'"):
            first_cooccurrence(CHAIN, stage, k=k, disconnected="bogus")


def test_single_linkage_respects_point_collapse():
    # quotient a random space by gluing points 0 and 1 (shortest-path closure)
    rng = np.random.default_rng(24)
    for _ in range(4):
        space = random_space(rng, n=5)
        glued = space.d.copy()
        glued[0, 1] = glued[1, 0] = 0.0
        for k in range(5):
            glued = np.minimum(glued, glued[:, k, None] + glued[None, k, :])
        keep = [0, 2, 3, 4]  # drop index 1, now identified with 0
        quotient = from_matrix(glued[np.ix_(keep, keep)])
        qmap = {0: 0, 1: 0, 2: 1, 3: 2, 4: 3}
        hx = single_linkage(space)
        hq = single_linkage(quotient)
        for delta in sorted(set(hx.scales) | set(hq.scales)):
            q_blocks = [set(b) for b in cover_at(hq, delta).blocks]
            for block in cover_at(hx, delta).blocks:
                image = {qmap[v] for v in block}
                assert any(image <= qb for qb in q_blocks)


def test_uniform_shift_moves_covers_rigidly():
    rng = np.random.default_rng(25)
    space = random_space(rng, n=5)
    eps = 0.35
    shifted = space.shifted(eps)
    for build in (single_linkage, maximal_linkage):
        h = build(space)
        h_shift = build(shifted)
        for delta in list(h.scales) + [max(h.scales) + 1.0]:
            assert cover_at(h_shift, delta + eps) == cover_at(h, delta)


# -- every functor against the scan over every distinct distance ---------------------


def _minimax_oracle_matrix(d, hops):
    n = d.shape[0]
    return np.array(
        [[oracle_minimax_path(d, i, j, max_hops=hops) for j in range(n)] for i in range(n)]
    )


def _reference_cases(space, delta):
    """(name, functor hierarchy, reference hierarchy) for all six functors."""
    n, d = space.n, space.d
    cases = [
        ("sl", single_linkage(space), reference_threshold_hierarchy(d, oracle_components)),
        ("ml", maximal_linkage(space), reference_threshold_hierarchy(d, oracle_max_cliques)),
    ]
    for k in sorted({1, 2, n}):
        lk_dist = _minimax_oracle_matrix(d, max(1, k - 1))
        cases.append(
            (f"lk{k}", l_k_linkage(space, k),
             reference_threshold_hierarchy(lk_dist, oracle_max_cliques))
        )
        cases.append(
            (f"vlk{k}", vl_k_linkage(space, k),
             reference_threshold_hierarchy(
                 d, lambda n_, edges: oracle_maximal_j_connected(n_, edges, min(n, k))
             ))
        )
    geo = geodesic_metric(space, delta, disconnected="cap")
    cases.append(
        ("iso", iso_cluster(space, delta, disconnected="cap"),
         reference_threshold_hierarchy(geo.d, oracle_max_cliques))
    )
    if n >= 2:
        w = fuzzy_union_membership(space).w
        with np.errstate(divide="ignore"):
            fuzzy_dist = -np.log(w)
        np.fill_diagonal(fuzzy_dist, 0.0)
        fuzzy_dist = np.maximum(fuzzy_dist, 0.0)
        cases.append(
            ("fuzzy", fuzzy_simplex(space)[0],
             reference_threshold_hierarchy(fuzzy_dist, oracle_max_cliques))
        )
    return cases


@st.composite
def tie_heavy_spaces(draw):
    """1-7 points with integer distances in 0..3: ties and zero distances throughout."""
    n = draw(st.integers(1, 7))
    upper = draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    return from_matrix(d + d.T)


@settings(max_examples=80, deadline=None)
@given(space=tie_heavy_spaces(), delta=st.integers(0, 3))
@example(space=from_matrix([[0.0]]), delta=0)
@example(space=from_matrix([[0.0, 0.0], [0.0, 0.0]]), delta=0)
@example(space=from_matrix([[0.0, 2.0], [2.0, 0.0]]), delta=1)
@example(space=from_matrix(np.zeros((5, 5))), delta=0)
@example(space=from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]]), delta=3)
def test_every_functor_equals_the_scan_over_every_distinct_value(space, delta):
    for name, got, want in _reference_cases(space, float(delta)):
        assert hierarchy_to_json(got) == hierarchy_to_json(want), name


def test_every_functor_equals_the_scan_on_random_distances():
    rng = np.random.default_rng(26)
    for n in (3, 5, 6):
        space = random_space(rng, n=n)
        delta = float(np.median(space.d))
        for name, got, want in _reference_cases(space, delta):
            assert hierarchy_to_json(got) == hierarchy_to_json(want), name


def _rebuilt_cliques(n, edges):
    """The maximal cliques of the whole threshold graph, by the library's Bron-Kerbosch."""
    return max_cliques(_neighbors(n, edges))


def _four_clusters(n, seed):
    """The benchmark's clustered pair: four Gaussian clusters at the corners of a
    3 x 3 square, and a copy with each point moved by at most 0.025."""
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]])
    x = corners[np.arange(n) % 4] + 0.3 * rng.normal(size=(n, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    r = 0.025 * np.sqrt(rng.random(n))
    y = x + np.column_stack([r * np.cos(angle), r * np.sin(angle)])
    return from_points_euclidean(x), from_points_euclidean(y)


def _clique_scan_spaces():
    rng = np.random.default_rng(28)
    yield from _four_clusters(30, 3)
    upper = rng.integers(0, 4, size=25 * 24 // 2).astype(float)
    d = np.zeros((25, 25))
    d[np.triu_indices(25, 1)] = upper
    yield from_matrix(d + d.T)  # ties throughout, a quarter of the pairs at 0
    points = rng.normal(size=(12, 2))
    points[6:] += 1000.0
    far = from_points_euclidean(points)
    # memberships exp(-1000) underflow to 0: the fuzzy scan skips inf entries
    assert np.isinf(first_cooccurrence(far, "fuzzy")).any()
    yield far
    yield from_matrix([[0.0]])
    yield from_matrix([[0.0, 2.0], [2.0, 0.0]])


def test_clique_scans_equal_the_per_scale_rebuild_beyond_the_oracle():
    """ml, lk, iso and fuzzy update their cliques edge by edge; rebuilding every
    scale's cliques from scratch gives the same hierarchy, at sizes the subset
    oracle cannot reach."""
    for space in _clique_scan_spaces():
        cases = [("ml", {}), ("lk", {"k": 3}), ("iso", {"disconnected": "cap"})]
        cases += [("fuzzy", {})] if space.n >= 2 else []
        for stage, params in cases:
            d = first_cooccurrence(space, stage, **params)
            got = cluster_hierarchy(space, stage, **params)
            want = reference_threshold_hierarchy(d, _rebuilt_cliques)
            assert hierarchy_to_json(got) == hierarchy_to_json(want), (space.n, stage)


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 2**32 - 1))
def test_inserting_edges_keeps_the_maximal_cliques_current(graph, seed):
    n, edges = graph
    neighbors = [set() for _ in range(n)]
    through = [{(v,)} for v in range(n)]
    inserted = set()
    for a, b in np.random.default_rng(seed).permutation(sorted(edges)).tolist():
        insert_clique_edge(neighbors, through, a, b)
        inserted.add((a, b))
        assert sorted(set().union(*through)) == oracle_max_cliques(n, inserted)
        assert all(w in c for w in range(n) for c in through[w])


# -- the two routes: hierarchy memberships and stage targets --------------------------


def _stage_cases(space):
    """(stage, parameters) of every clustering stage: lk and vlk at k = 1, 2, 3 and n;
    iso at delta below, at and above the connectivity radius, capping across components."""
    n = space.n
    cases = [("sl", {}), ("ml", {})]
    cases += [(stage, {"k": k}) for stage in ("lk", "vlk") for k in sorted({1, 2, 3, n})]
    if n >= 2:
        cases.append(("fuzzy", {}))
    r = connectivity_radius(space)
    cases += [("iso", {"delta": delta}) for delta in sorted({r / 2, r, r + 1.0})]
    return cases


def _assert_routes_agree(space):
    for stage, params in _stage_cases(space):
        h = cluster_hierarchy(space, stage, disconnected="cap", **params)
        # the stress targets the pipeline embeds, after its "cap" policy
        targets = stage_targets(space, PipelineSpec(stage, **params))
        capped = StressProblem(targets, 1, policy="cap").init_targets()
        want = np.exp(-capped)
        np.fill_diagonal(want, 1.0)
        assert np.array_equal(membership_matrix(h).w, want), (stage, params)


@settings(max_examples=60, deadline=None)
@given(space=tie_heavy_spaces())
@example(space=from_matrix([[0.0]]))
@example(space=from_matrix([[0.0, 0.0], [0.0, 0.0]]))
@example(space=from_matrix([[0.0, 2.0], [2.0, 0.0]]))
@example(space=from_matrix([[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 1], [3, 3, 1, 0]]))
def test_hierarchy_memberships_equal_exp_of_stage_targets_on_ties(space):
    _assert_routes_agree(space)


def test_hierarchy_memberships_equal_exp_of_stage_targets_on_random_spaces():
    rng = np.random.default_rng(27)
    for n in (1, 2, 3, 5, 7):
        _assert_routes_agree(random_space(rng, n=n))
        points = rng.normal(size=(n, 2))
        points[n // 2:] += 8.0  # two far groups: iso below the radius caps pairs
        _assert_routes_agree(from_points_euclidean(points))


def _assert_hierarchy_json_is_the_json_dumps_text(space, path):
    for stage, params in _stage_cases(space):
        h = cluster_hierarchy(space, stage, disconnected="cap", **params)
        write_hierarchy_json(path, h)
        assert path.read_bytes() == hierarchy_json_bytes(h), (stage, params)


@settings(max_examples=40, deadline=None)
@given(space=tie_heavy_spaces())
@example(space=from_matrix([[0.0]]))
@example(space=from_matrix(np.zeros((4, 4))))
def test_hierarchy_json_is_the_json_dumps_text_on_ties(space, tmp_path_factory):
    path = tmp_path_factory.mktemp("json") / "h.json"
    _assert_hierarchy_json_is_the_json_dumps_text(space, path)


def test_hierarchy_json_is_the_json_dumps_text_on_random_spaces(tmp_path):
    rng = np.random.default_rng(28)
    for n in (1, 2, 3, 5, 8):
        points = rng.normal(size=(n, 2))
        points[n // 2:] += 8.0
        for space in (random_space(rng, n=n), from_points_euclidean(points)):
            _assert_hierarchy_json_is_the_json_dumps_text(space, tmp_path / "h.json")
