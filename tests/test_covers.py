import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coverembed import (
    NumericalError,
    ValidationError,
    cluster_hierarchy,
    cover_at,
    from_matrix,
    from_points_euclidean,
    is_flag_cover,
    make_cover,
    membership_matrix,
    refines,
    target_distances,
)
from coverembed.covers import (
    Cover,
    HierarchicalCover,
    build_hierarchy,
    cover_from_json,
    first_cooccurrence_scales,
    hierarchy_from_json,
)
from coverembed.fileio import write_hierarchy_json
from coverembed.functors import cluster_hierarchy

from oracles import (
    canonical_cover,
    cover_to_json,
    hierarchy_json_bytes,
    hierarchy_to_json,
    oracle_components,
    oracle_max_cliques,
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


def test_make_cover_refuses_members_that_are_not_integers():
    # int() would keep 1 of 1.5 and of True; the cover readers refuse both
    for bad in (1.5, True):
        with pytest.raises(ValidationError, match=f"{bad!r} is not an integer"):
            make_cover(3, [[0, bad], [2]])
    assert make_cover(3, [[0, 1.0], [np.int64(2)]]).blocks == ((0, 1), (2,))


def test_a_negative_cover_size_is_refused():
    with pytest.raises(ValidationError, match="n=-1"):
        make_cover(-1, [])
    with pytest.raises(ValidationError, match="n=-1"):
        cover_from_json({"n": -1, "blocks": []})


def test_uncovered_elements_are_counted_not_listed():
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="uncovered") as err:
            cover_from_json({"n": 10**6, "blocks": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert len(message) < 1000
    assert peak < 2**20
    assert "1000000" in message and "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]" in message


def test_flag_condition():
    assert is_flag_cover(make_cover(3, [[0, 1], [1, 2]]))
    # {0,1},{1,2},{0,2} co-occur pairwise, so the triangle is the only max clique
    assert not is_flag_cover(make_cover(3, [[0, 1], [1, 2], [0, 2]]))


def test_vlk_covers_need_not_be_flag():
    rng = np.random.default_rng(0)
    for _ in range(22):
        points = rng.normal(size=(9, 2))
    h = cluster_hierarchy(from_points_euclidean(points), "vlk", k=3)
    cover = h.covers[h.scales.index(1.465780125765619)]
    assert cover.blocks == ((0, 5), (0, 8), (1, 2, 3, 4, 5, 7, 8), (6, 7, 8))
    # 0, 5 and 8 co-occur pairwise but share no block
    assert not is_flag_cover(cover)


def test_refines_examples():
    singles = make_cover(2, [[0], [1]])
    merged = make_cover(2, [[0, 1]])
    assert refines(singles, merged)
    assert not refines(merged, singles)
    assert refines(make_cover(3, [[0, 1], [1, 2]]), make_cover(3, [[0, 1, 2]]))
    with pytest.raises(ValidationError):
        refines(singles, make_cover(3, [[0, 1, 2]]))


BLOCKS = st.lists(st.sets(st.integers(0, 127), min_size=1, max_size=8), min_size=1, max_size=6)


BLOCKS_OR_NONE = st.lists(st.sets(st.integers(0, 127), max_size=8), max_size=6)


@given(n=st.integers(1, 9), blocks=BLOCKS)
@example(n=3, blocks=[{0, 1}, {1, 2}, {0, 2}])
@example(n=4, blocks=[{0, 1, 2}, {2, 3}])
def test_flag_cover_equals_the_clique_oracle(n, blocks):
    blocks = [{v % n for v in b} for b in blocks]
    blocks += [{v} for v in set(range(n)).difference(*blocks)]
    blocks = [b for b in blocks if not any(b < c for c in blocks)]
    cover = make_cover(n, blocks)
    edges = {(i, j) for b in cover.blocks for i in b for j in b if i < j}
    assert is_flag_cover(cover) == (tuple(oracle_max_cliques(n, edges)) == cover.blocks)


@given(n=st.integers(1, 70), fine=BLOCKS_OR_NONE, coarse=BLOCKS_OR_NONE)
@example(n=1, fine=[{0}], coarse=[{0}])
@example(n=5, fine=[{0, 1}, {1, 2, 3}, {4}], coarse=[{0, 1}, {1, 2, 3}, {4}])
@example(n=4, fine=[{0}, {1}, {2}, {3}], coarse=[{0, 1, 2, 3}])
@example(n=4, fine=[{0, 1, 2, 3}], coarse=[{0, 1}, {2, 3}])
@example(n=4, fine=[{0, 1}, {2, 3}], coarse=[{0, 2}, {1, 3}])
@example(n=70, fine=[{0, 69}], coarse=[{0, 68, 69}])
@example(n=3, fine=[set()], coarse=[])
@example(n=3, fine=[set()], coarse=[{1}])
@example(n=3, fine=[{0}], coarse=[{0, 1}, {0, 1, 2}])
@example(n=6, fine=[{0, 1}, {0, 1, 2}, {4}], coarse=[{0, 1, 2}, {0, 1, 2, 3}, {3, 4}])
def test_refines_equals_set_containment(n, fine, coarse):
    # block members are drawn from 0..127 and folded into the ground set; blocks
    # may be empty and nested, and a cover may have no blocks (canonical_cover)
    fine_cover = canonical_cover(n, [{v % n for v in b} for b in fine])
    coarse_cover = canonical_cover(n, [{v % n for v in b} for b in coarse])
    assert refines(fine_cover, coarse_cover) == oracle_refines(fine_cover, coarse_cover)
    assert refines(fine_cover, fine_cover)
    for cover in (fine_cover, coarse_cover):
        assert len(cover.vertex_masks) == n
        for v, mask in enumerate(cover.vertex_masks):
            assert mask == sum(2**k for k, b in enumerate(cover.blocks) if v in b)
    with pytest.raises(ValidationError, match="mismatch"):
        refines(fine_cover, Cover(n + 1, coarse_cover.blocks))


@given(n=st.integers(1, 12), blocks=BLOCKS)
@example(n=3, blocks=[{0, 1, 2}, {0, 1}])
@example(n=4, blocks=[{0}, {0, 1}, {0, 2}, {3}])
@example(n=4, blocks=[{1, 2}, {0, 1, 2}, {1, 2, 3}])
def test_nested_block_error_names_the_brute_force_pair(n, blocks):
    blocks = [{v % n for v in b} for b in blocks]
    blocks += [{v} for v in set(range(n)).difference(*blocks)]
    canonical = canonical_cover(n, blocks).blocks
    nested = [
        (b, c) for b in canonical for c in canonical if b != c and set(b) < set(c)
    ]
    if not nested:
        assert make_cover(n, blocks).blocks == canonical
        return
    b, c = nested[0]
    with pytest.raises(ValidationError) as err:
        make_cover(n, blocks)
    assert str(err.value) == f"nested blocks: {b} inside {c}"


def test_cover_at_interval_conventions():
    h = cluster_hierarchy(CHAIN, "sl")
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
    h = cluster_hierarchy(CHAIN, "sl")
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
    h = cluster_hierarchy(CHAIN, "sl")
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
            cluster_hierarchy(space, "sl"),
            cluster_hierarchy(space, "ml"),
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


COVERS = st.lists(st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=4), max_size=4),
                  min_size=1, max_size=6)


@given(covers=COVERS)
@example(covers=[[{0, 1}], [{0}, {1}], [{0, 1}]])
@example(covers=[[{0, 1, 2}], [{0, 1}, {1, 2}], [{0, 2}]])
@example(covers=[[], [{3}], []])
def test_first_cooccurrence_on_hierarchies_that_do_not_coarsen(covers):
    # blocks split, vanish and return; covers may leave points out or hold no block
    h = HierarchicalCover(
        6,
        tuple(float(s) for s in range(len(covers))),
        tuple(canonical_cover(6, c) for c in covers),
    )
    assert np.array_equal(membership_matrix(h).w, oracle_membership(h))


def test_first_cooccurrence_memory_stays_within_a_few_square_matrices():
    n = 60
    space = from_points_euclidean(np.random.default_rng(5).normal(size=(n, 3)))
    h = cluster_hierarchy(space, "ml")
    assert len({b for c in h.covers for b in c.blocks}) > 5000
    tracemalloc.start()
    try:
        t = first_cooccurrence_scales(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(t, space.d)
    assert peak < 12 * n * n * 8


def test_target_distances_values():
    h = cluster_hierarchy(CHAIN, "sl")
    truncated = HierarchicalCover(3, h.scales[:2], h.covers[:2])
    t = target_distances(membership_matrix(truncated))
    assert t[0, 0] == 0.0
    assert t[0, 1] == 1.0
    assert np.isinf(t[0, 2])


def test_maximal_linkage_membership_is_exp_of_distance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        space = random_space(rng, n=5)
        w = membership_matrix(cluster_hierarchy(space, "ml"))
        assert np.array_equal(w.w, np.exp(-space.d))


def test_cover_at_refines_later_scales():
    rng = np.random.default_rng(8)
    for _ in range(5):
        space = random_space(rng, n=5)
        for h in (cluster_hierarchy(space, "sl"), cluster_hierarchy(space, "ml")):
            deltas = list(h.scales) + [h.scales[-1] + 1.0]
            for a in deltas:
                for b in deltas:
                    if a <= b:
                        assert refines(cover_at(h, a), cover_at(h, b))


def test_refining_a_cover_never_decreases_targets():
    h = cluster_hierarchy(CHAIN, "sl")
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
    h = cluster_hierarchy(CHAIN, "ml")
    again = hierarchy_from_json(json.loads(json.dumps(hierarchy_to_json(h))))
    assert again == h
    with pytest.raises(ValidationError):
        cover_from_json({"blocks": [[0]]})


def test_hierarchy_json_is_the_json_dumps_text_with_repeated_blocks(tmp_path):
    path = tmp_path / "h.json"
    repeated = HierarchicalCover(4, (-0.0, 1e-300, 0.1, 1.5e16), (
        make_cover(4, [[0], [1], [2], [3]]),
        make_cover(4, [[0, 1], [2], [3]]),
        make_cover(4, [[0, 1], [2, 3]]),
        make_cover(4, [[0, 1], [1, 2], [2, 3]]),
    ))
    odd = HierarchicalCover(3, (0.0, 2.0), (Cover(3, ((),)), Cover(3, ())))
    empty = cluster_hierarchy(from_matrix(np.zeros((0, 0))), "sl")
    single = cluster_hierarchy(from_matrix([[0.0]]), "ml")
    for h in (repeated, odd, empty, single):
        write_hierarchy_json(path, h)
        assert path.read_bytes() == hierarchy_json_bytes(h)
    assert hierarchy_from_json(json.loads(path.read_text())) == single


def test_hierarchy_json_refuses_an_infinite_scale(tmp_path):
    c = make_cover(2, [[0], [1]])
    merged = make_cover(2, [[0, 1]])
    path = tmp_path / "h.json"
    with pytest.raises(NumericalError, match="not JSON compliant") as err:
        write_hierarchy_json(path, HierarchicalCover(2, (0.0, math.inf), (c, merged)))
    assert str(path) in str(err.value)
    assert not path.exists()


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_hierarchy_json_refuses_a_non_finite_scale(token):
    text = '{"n": 2, "scales": [0, %s], "covers": [{"n": 2, "blocks": [[0], [1]]}, ' \
           '{"n": 2, "blocks": [[0, 1]]}]}' % token
    value = repr(float(token.lower().replace("infinity", "inf")))
    with pytest.raises(ValidationError, match=f"scale {value} is not finite"):
        hierarchy_from_json(json.loads(text))


def test_cover_at_refuses_a_nan_scale():
    h = cluster_hierarchy(CHAIN, "sl")
    for delta in (-1.0, math.nan):
        with pytest.raises(ValidationError, match="scale must be nonnegative"):
            cover_at(h, delta)


def test_first_cooccurrence_is_computed_once_and_read_only():
    h = cluster_hierarchy(from_points_euclidean(np.random.default_rng(9).normal(size=(7, 2))), "ml")
    t = first_cooccurrence_scales(h)
    assert first_cooccurrence_scales(h) is t
    assert not t.flags.writeable
    assert np.array_equal(membership_matrix(h).w, np.exp(-t))


def _raw_hierarchy(covers, scales=None):
    """A cover JSON object over 3 points, one scale per cover."""
    scales = list(range(len(covers))) if scales is None else scales
    return {"n": 3, "scales": scales, "covers": [{"n": 3, "blocks": c} for c in covers]}


def test_hierarchy_json_reads_each_cover_as_cover_from_json():
    # one block in several raw spellings, repeated across covers
    covers = [
        [[0], [1], [2]],
        [[1, 0], [2]],
        [[0, 1.0, 1], [2, 2]],
        [[1.0, 0], [2.0]],
        [[0, 1, 2]],
    ]
    h = hierarchy_from_json(_raw_hierarchy(covers))
    assert h.covers == tuple(cover_from_json({"n": 3, "blocks": c}) for c in covers)
    assert h.scales == (0.0, 1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("bad", [
    [[0, 1], [[2]]],  # a list member: int() refuses it
    [[0, 1], [2, {"a": 1}]],  # a dict member
    [[0, 1], 2],  # a block that is no list
    [[0, 1], None],
    [[0, 1], ["x"]],  # int("x") raises a ValueError naming "x"
    [[0, True], [2]],  # True equals 1, so it would hit the memo of [0, 1]
    [[0, 1.5], [2]],  # int() would truncate it to 1
    [[0, 1], "2"],  # a string block: int() would read its character
    [[0, 1], []],
    [[0, 1], [3]],
    [[0, 1], [0]],
    [[0]],
])
def test_hierarchy_json_errors_are_those_of_cover_from_json(bad):
    """With blocks already seen in an earlier cover, a malformed cover raises the
    ValidationError that `cover_from_json` raises, with the same message."""
    with pytest.raises(ValidationError) as alone:
        cover_from_json({"n": 3, "blocks": bad})
    with pytest.raises(ValidationError) as read:
        hierarchy_from_json(_raw_hierarchy([[[0, 1], [2]], bad]))
    assert type(alone.value) is type(read.value) is ValidationError
    assert str(read.value) == str(alone.value)


@pytest.mark.parametrize("obj, message", [
    ({"n": 2, "blocks": [["x"], [1]]}, "bad cover JSON: invalid literal for int() with base 10: 'x'"),
    ({"n": "two", "blocks": [[0, 1]]}, "bad cover JSON: invalid literal for int() with base 10: 'two'"),
    # values that int() would change are refused, not truncated
    ({"n": 2.9, "blocks": [[0], [1]]}, "bad cover JSON: 2.9 is not an integer"),
    ({"n": True, "blocks": [[0]]}, "bad cover JSON: True is not an integer"),
    ({"n": "2", "blocks": [[0, 1]]}, "bad cover JSON: '2' is not an integer"),
    ({"n": 2, "blocks": [[0, 1.5]]}, "bad cover JSON: 1.5 is not an integer"),
    ({"n": 2, "blocks": [[0, True]]}, "bad cover JSON: True is not an integer"),
], ids=["block-member", "n", "fractional-n", "boolean-n", "string-n", "fractional-member",
        "boolean-member"])
def test_cover_json_names_a_non_numeric_value(obj, message):
    with pytest.raises(ValidationError) as exc:
        cover_from_json(obj)
    assert str(exc.value) == message
    with pytest.raises(ValidationError) as exc:
        hierarchy_from_json({"n": 2, "scales": [0], "covers": [obj]})
    assert str(exc.value) == message


def test_cover_json_reads_integral_floats_as_their_integers():
    assert cover_from_json({"n": 2.0, "blocks": [[1.0, 0]]}) == make_cover(2, [[0, 1]])
    with pytest.raises(ValidationError) as exc:
        hierarchy_from_json({"n": 2.9, "scales": [0], "covers": [{"n": 2, "blocks": [[0, 1]]}]})
    assert str(exc.value) == "bad hierarchical cover JSON: 2.9 is not an integer"


@pytest.mark.parametrize("scales, value", [
    (["0", "1.5"], "'0'"),
    ([False, True], "False"),
    ([0, " 2 "], "' 2 '"),
], ids=["strings", "booleans", "padded-string"])
def test_hierarchy_json_scales_must_be_json_numbers(scales, value):
    obj = _raw_hierarchy([[[0], [1], [2]], [[0, 1, 2]]], scales=scales)
    with pytest.raises(ValidationError) as exc:
        hierarchy_from_json(obj)
    assert str(exc.value) == f"bad hierarchical cover JSON: {value} is not a number"


def test_hierarchy_json_names_a_non_numeric_scale():
    obj = _raw_hierarchy([[[0], [1], [2]], [[0, 1, 2]]], scales=[0, "a"])
    with pytest.raises(ValidationError) as exc:
        hierarchy_from_json(obj)
    assert str(exc.value) == "bad hierarchical cover JSON: could not convert string to float: 'a'"


def _every_stage(space):
    yield from (("sl", {}), ("ml", {}), ("lk", {"k": 3}), ("vlk", {"k": 2}))
    yield "iso", {"disconnected": "cap"}
    if space.n >= 2:
        yield "fuzzy", {}


def _mark_cases():
    rng = np.random.default_rng(31)
    for n in range(1, 13):
        yield random_space(rng, n=n)
        upper = rng.integers(0, 3, size=n * (n - 1) // 2).astype(float)
        d = np.zeros((n, n))
        d[np.triu_indices(n, 1)] = upper
        yield from_matrix(d + d.T)  # ties and zero distances


def test_scan_built_hierarchies_are_marked_and_coarsen():
    for space in _mark_cases():
        for stage, params in _every_stage(space):
            h = cluster_hierarchy(space, stage, **params)
            assert h._coarsens, (space.n, stage)
            copy = HierarchicalCover(h.n, h.scales, h.covers)
            assert not copy._coarsens and copy == h
            copy.validate_coarsening()  # the full check, on an unmarked copy
            assert copy._coarsens


def test_only_the_check_marks_constructed_and_read_hierarchies(monkeypatch):
    c = make_cover(2, [[0], [1]])
    merged = make_cover(2, [[0, 1]])
    assert not HierarchicalCover(2, (0.0, 1.0), (c, merged))._coarsens
    unmarked_at_check = []
    check = HierarchicalCover.validate_coarsening

    def recording(self):
        unmarked_at_check.append(not self._coarsens)
        check(self)

    monkeypatch.setattr(HierarchicalCover, "validate_coarsening", recording)
    h = hierarchy_from_json(hierarchy_to_json(cluster_hierarchy(CHAIN, "ml")))
    assert unmarked_at_check == [True] and h._coarsens
    with pytest.raises(ValidationError, match="does not refine"):
        hierarchy_from_json(_raw_hierarchy([[[0, 1], [2]], [[0], [1, 2]]]))
    bad = HierarchicalCover(2, (0.0, 1.0), (merged, c))
    for _ in range(2):  # a failed check leaves no mark
        with pytest.raises(ValidationError, match="does not refine"):
            bad.validate_coarsening()
    assert not bad._coarsens
