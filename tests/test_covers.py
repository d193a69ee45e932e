import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coverembed import (
    ValidationError,
    cover_at,
    from_matrix,
    is_flag_cover,
    make_cover,
    maximal_linkage,
    membership_matrix,
    refines,
    single_linkage,
    target_distances,
)
from coverembed.covers import (
    Cover,
    HierarchicalCover,
    build_hierarchy,
    cover_from_json,
    cover_to_json,
    hierarchy_from_json,
    hierarchy_to_json,
)
from coverembed.functors import cluster_hierarchy

from oracles import (
    oracle_components,
    oracle_membership,
    oracle_refines,
    random_space,
    threshold_edges,
)

CHAIN = from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_make_cover_canonicalizes_and_validates():
    cover = make_cover(3, [[2, 1], [0, 1], [1, 2]])
    assert cover.blocks == ((0, 1), (1, 2))
    with pytest.raises(ValidationError, match="uncovered"):
        make_cover(3, [[0, 1]])
    with pytest.raises(ValidationError, match="nested"):
        make_cover(3, [[0, 1, 2], [0, 1]])
    with pytest.raises(ValidationError, match="range"):
        make_cover(2, [[0, 1, 2]])


def test_flag_condition():
    assert is_flag_cover(make_cover(3, [[0, 1], [1, 2]]))
    # {0,1},{1,2},{0,2} co-occur pairwise, so the triangle is the only max clique
    assert not is_flag_cover(make_cover(3, [[0, 1], [1, 2], [0, 2]]))


def test_refines_examples():
    singles = make_cover(2, [[0], [1]])
    merged = make_cover(2, [[0, 1]])
    assert refines(singles, merged)
    assert not refines(merged, singles)
    assert refines(make_cover(3, [[0, 1], [1, 2]]), make_cover(3, [[0, 1, 2]]))
    with pytest.raises(ValidationError):
        refines(singles, make_cover(3, [[0, 1, 2]]))


BLOCKS = st.lists(st.sets(st.integers(0, 127), min_size=1, max_size=8), min_size=1, max_size=6)


@given(n=st.integers(1, 70), fine=BLOCKS, coarse=BLOCKS)
@example(n=1, fine=[{0}], coarse=[{0}])
@example(n=5, fine=[{0, 1}, {1, 2, 3}, {4}], coarse=[{0, 1}, {1, 2, 3}, {4}])
@example(n=4, fine=[{0}, {1}, {2}, {3}], coarse=[{0, 1, 2, 3}])
@example(n=4, fine=[{0, 1, 2, 3}], coarse=[{0, 1}, {2, 3}])
@example(n=4, fine=[{0, 1}, {2, 3}], coarse=[{0, 2}, {1, 3}])
@example(n=70, fine=[{0, 69}], coarse=[{0, 68, 69}])
def test_refines_equals_set_containment(n, fine, coarse):
    # block members are drawn from 0..127 and folded into the ground set
    fine_cover = make_cover(n, [{v % n for v in b} for b in fine], validate=False)
    coarse_cover = make_cover(n, [{v % n for v in b} for b in coarse], validate=False)
    assert refines(fine_cover, coarse_cover) == oracle_refines(fine_cover, coarse_cover)
    assert refines(fine_cover, fine_cover)
    assert fine_cover.block_masks == tuple(
        sum(2**v for v in b) for b in fine_cover.blocks
    )
    with pytest.raises(ValidationError, match="mismatch"):
        refines(fine_cover, Cover(n + 1, coarse_cover.blocks))


def test_cover_at_interval_conventions():
    h = single_linkage(CHAIN)
    # between critical values
    assert cover_at(h, 1.5).blocks == ((0, 1), (2,))
    # exactly at a critical value: the new cover takes effect
    assert cover_at(h, 1.0).blocks == ((0, 1), (2,))
    assert cover_at(h, 2.0).blocks == ((0, 1, 2),)
    # beyond every critical value
    assert cover_at(h, 99.0).blocks == ((0, 1, 2),)
    with pytest.raises(ValidationError):
        cover_at(h, -0.1)


def test_membership_chain_against_component_oracle():
    h = single_linkage(CHAIN)
    w = membership_matrix(h)
    # brute force: first threshold at which each pair is co-clustered
    for i in range(3):
        for j in range(3):
            expected = 0.0
            for delta in sorted({0.0, 1.0, 2.0, 3.0}):
                comps = oracle_components(3, threshold_edges(CHAIN.d, delta))
                if any(i in c and j in c for c in comps):
                    expected = np.exp(-delta)
                    break
            assert w.w[i, j] == expected
    assert w.w[0, 2] == np.exp(-2.0)


def test_membership_never_coclustered_is_zero():
    # truncate the hierarchy before everything merges
    h = single_linkage(CHAIN)
    truncated = HierarchicalCover(3, h.scales[:2], h.covers[:2])
    w = membership_matrix(truncated)
    assert w.w[0, 2] == 0.0
    assert w.w[0, 1] == np.exp(-1.0)


def test_membership_equals_first_co_occurrence_scan():
    rng = np.random.default_rng(11)
    for _ in range(6):
        # rounded distances tie, so one scale can merge several pairs
        d = np.round(random_space(rng, n=6).d, 1)
        space = from_matrix(d)
        for h in (
            single_linkage(space),
            maximal_linkage(space),
            cluster_hierarchy(space, "lk", k=2),
            cluster_hierarchy(space, "fuzzy"),
        ):
            assert np.array_equal(membership_matrix(h).w, oracle_membership(h))
            # truncated before everything merges: some pairs stay at W = 0
            if len(h.scales) > 2:
                cut = HierarchicalCover(6, h.scales[:2], h.covers[:2])
                assert np.array_equal(membership_matrix(cut).w, oracle_membership(cut))


def test_membership_of_a_hierarchy_that_does_not_coarsen():
    # (0, 1) is dropped at scale 1 and returns at scale 2 without being in the
    # previous cover; (2, 3) is kept across scales 1 and 2
    covers = (
        make_cover(4, [[0, 1], [2], [3]]),
        make_cover(4, [[0], [1, 2, 3]]),
        make_cover(4, [[0, 1], [1, 2, 3]]),
        make_cover(4, [[0, 3], [1, 2, 3]]),
    )
    h = HierarchicalCover(4, (0.0, 1.0, 2.0, 3.0), covers)
    with pytest.raises(ValidationError, match="refine"):
        h.validate_coarsening()
    w = membership_matrix(h).w
    assert np.array_equal(w, oracle_membership(h))
    assert w[0, 1] == 1.0
    assert w[1, 3] == np.exp(-1.0)
    assert w[0, 3] == np.exp(-3.0)
    assert w[0, 2] == 0.0


def test_target_distances_values():
    h = single_linkage(CHAIN)
    truncated = HierarchicalCover(3, h.scales[:2], h.covers[:2])
    t = target_distances(membership_matrix(truncated))
    assert t[0, 0] == 0.0
    assert t[0, 1] == 1.0
    assert np.isinf(t[0, 2])


def test_maximal_linkage_membership_is_exp_of_distance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        space = random_space(rng, n=5)
        w = membership_matrix(maximal_linkage(space))
        assert np.array_equal(w.w, np.exp(-space.d))


def test_cover_at_refines_later_scales():
    rng = np.random.default_rng(8)
    for _ in range(5):
        space = random_space(rng, n=5)
        for h in (single_linkage(space), maximal_linkage(space)):
            deltas = list(h.scales) + [h.scales[-1] + 1.0]
            for a in deltas:
                for b in deltas:
                    if a <= b:
                        assert refines(cover_at(h, a), cover_at(h, b))


def test_refining_a_cover_never_decreases_targets():
    h = single_linkage(CHAIN)
    # split the merged top block back apart at the final scale
    finer_top = make_cover(3, [[0, 1], [1, 2]])
    perturbed = HierarchicalCover(3, h.scales, h.covers[:-1] + (finer_top,))
    base = target_distances(membership_matrix(h))
    finer = target_distances(membership_matrix(perturbed))
    assert (finer >= base).all()
    assert finer[0, 2] > base[0, 2]


def test_hierarchy_validation():
    c = make_cover(2, [[0], [1]])
    merged = make_cover(2, [[0, 1]])
    with pytest.raises(ValidationError, match="first scale"):
        HierarchicalCover(2, (0.5,), (c,))
    with pytest.raises(ValidationError, match="increasing"):
        HierarchicalCover(2, (0.0, 0.0), (c, merged))
    bad = HierarchicalCover(2, (0.0, 1.0), (merged, c))
    with pytest.raises(ValidationError, match="refine"):
        bad.validate_coarsening()


def test_build_hierarchy_drops_repeats():
    c = make_cover(2, [[0], [1]])
    merged = make_cover(2, [[0, 1]])
    h = build_hierarchy(2, [(0.0, c), (0.5, c), (1.0, merged)])
    assert h.scales == (0.0, 1.0)


def test_json_round_trip():
    cover = make_cover(3, [[0, 1], [1, 2]])
    assert cover_from_json(json.loads(json.dumps(cover_to_json(cover)))) == cover
    h = maximal_linkage(CHAIN)
    again = hierarchy_from_json(json.loads(json.dumps(hierarchy_to_json(h))))
    assert again == h
    with pytest.raises(ValidationError):
        cover_from_json({"blocks": [[0]]})
