import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from coverembed import (
    ValidationError,
    from_matrix,
    from_points_euclidean,
    from_sequences_hamming,
    isometry_epsilon,
)
from coverembed.loss import pair_distances
from coverembed.metric import _first_triangle_violation, hamming_matrix

from oracles import broadcast_euclidean, permuted


def test_from_matrix_two_points():
    space = from_matrix([[0, 1], [1, 0]])
    assert space.n == 2
    assert space.d[0, 1] == 1.0


def test_from_matrix_rejects_asymmetry():
    with pytest.raises(ValidationError, match="asymmetric"):
        from_matrix([[0, 1], [2, 0]])


def test_from_matrix_rejects_negative_and_diagonal():
    with pytest.raises(ValidationError, match="negative"):
        from_matrix([[0, -1], [-1, 0]])
    with pytest.raises(ValidationError, match="diagonal"):
        from_matrix([[1, 2], [2, 0]])


def test_strict_triangle_violation_names_indices():
    with pytest.raises(ValidationError, match=r"\(0, 2, 1\)"):
        from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]], strict=True)
    # the same matrix passes without strict mode
    from_matrix([[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_small_asymmetry_is_symmetrized():
    eps = 1e-14
    space = from_matrix([[0, 1 + eps], [1, 0]])
    assert space.d[0, 1] == space.d[1, 0]


def test_large_finite_distances_stay_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = from_matrix([[0, 1.5e308], [1.5e308, 0]])
        with pytest.raises(ValidationError, match=r"asymmetric distances at \(0, 1\)"):
            from_matrix([[0, 1.5e308], [-1.5e308, 0]])
    assert space.d[0, 1] == space.d[1, 0] == 1.5e308


def test_symmetrizing_matches_the_mean_with_the_transpose():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 30):
        raw = rng.uniform(0, 2, size=(n, n))
        raw = raw + raw.T + rng.uniform(-1e-13, 1e-13, size=(n, n))
        np.fill_diagonal(raw, 0.0)
        assert from_matrix(raw).d.tobytes() == ((raw + raw.T) / 2.0).tobytes()
    # an exactly symmetric -0 stays -0; -0 against 0 averages to 0
    for raw in (np.full((3, 3), -0.0), np.array([[-0.0, -0.0, 1], [0.0, 0.0, 2], [1, 2, 0]])):
        assert from_matrix(raw).d.tobytes() == ((raw + raw.T) / 2.0).tobytes()
    d = from_matrix([[0.0, -0.0], [0.0, -0.0]]).d
    assert not np.signbit(d[0, 1]) and not np.signbit(d[1, 0]) and np.signbit(d[1, 1])


def test_euclidean_line_and_345():
    assert from_points_euclidean([[0], [3]]).d[0, 1] == 3.0
    assert from_points_euclidean([[0, 0], [3, 4]]).d[0, 1] == 5.0


def test_euclidean_duplicates_give_zero():
    space = from_points_euclidean([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    assert space.d[0, 1] == 0.0


def test_euclidean_rejects_non_finite_distances():
    with pytest.raises(ValidationError, match=r"non-finite distance at \(0, 1\)"):
        with np.errstate(over="ignore"):
            from_points_euclidean([[0.0], [1e200], [2e200]])
    with pytest.raises(ValidationError, match="non-finite distance"):
        with np.errstate(invalid="ignore"):
            from_points_euclidean([[0.0], [np.inf]])
    # the overflow is reported once, by the validation error, not by a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"non-finite distance at \(0, 1\)"):
            from_points_euclidean([[1e200, 0.0], [-1e200, 0.0]])


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 8, 13, 64])
@pytest.mark.parametrize("n", [1, 2, 10, 64])
def test_euclidean_is_the_optimizer_pair_kernel(n, k):
    points = np.random.default_rng(n * 100 + k).normal(size=(n, k))
    d = from_points_euclidean(points).d
    assert d.tobytes() == squareform(pair_distances(points)).tobytes()
    if k <= 7:  # below 8 terms numpy's broadcast sum is sequential, like pdist's loop
        assert d.tobytes() == broadcast_euclidean(points).tobytes()


def test_euclidean_memory_does_not_grow_with_the_dimension():
    n, k = 300, 50
    points = np.random.default_rng(3).normal(size=(n, k))
    tracemalloc.start()
    try:
        from_points_euclidean(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * n * n * 8  # the n x n x k broadcast peaked at about 100 n x n arrays


def test_hamming_examples():
    assert from_sequences_hamming(["AA", "AA"]).d[0, 1] == 0.0
    assert from_sequences_hamming(["ACGT", "AGGA"]).d[0, 1] == 2.0
    assert from_sequences_hamming(["A", "C"]).d[0, 1] == 1.0
    # characters compare by code point, not by UTF-8 byte
    assert from_sequences_hamming(["ACGÉ", "ACGT"]).d[0, 1] == 1.0
    assert from_sequences_hamming(["αβγ", "αβδ"]).d[0, 1] == 1.0


def test_hamming_rejects_unequal_lengths():
    with pytest.raises(ValidationError, match="length"):
        from_sequences_hamming(["AC", "A"])


def test_hamming_values_are_integral_floats():
    space = from_sequences_hamming(["ACGTAC", "TGCATG", "ACGTTG"])
    assert np.array_equal(space.d, np.round(space.d))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 9),
    length=st.integers(1, 12),
    symbols=st.integers(5, 256),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, length=1, symbols=5, seed=0)
@example(n=6, length=1, symbols=256, seed=1)
@example(n=1, length=12, symbols=256, seed=2)
def test_hamming_matrix_equals_brute_force(n, length, symbols, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, symbols, size=(n, length), dtype=np.uint8)
    expected = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            expected[i, j] = sum(int(a != b) for a, b in zip(codes[i], codes[j]))
    assert np.array_equal(hamming_matrix(codes), expected)


def test_isometry_epsilon_examples():
    x = from_matrix([[0, 1], [1, 0]])
    assert isometry_epsilon(x, x) == 0.0
    y = from_matrix([[0, 2.5], [2.5, 0]])
    assert isometry_epsilon(x, y) == 1.5
    shifted = x.shifted(0.3)
    assert isometry_epsilon(x, shifted) == pytest.approx(0.3)


def test_isometry_epsilon_symmetric_and_size_checked():
    rng = np.random.default_rng(0)
    a = from_points_euclidean(rng.normal(size=(5, 2)))
    b = from_points_euclidean(rng.normal(size=(5, 2)))
    assert isometry_epsilon(a, b) == isometry_epsilon(b, a)
    with pytest.raises(ValidationError, match="mismatch"):
        isometry_epsilon(a, from_matrix([[0]]))


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=3),
        min_size=1,
        max_size=7,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_euclidean_spaces_pass_strict_validation(points):
    space = from_points_euclidean(points)
    assert _first_triangle_violation(space.d, 1e-9) is None
    assert np.array_equal(space.d, space.d.T)
    assert (np.diagonal(space.d) == 0).all()


def test_labels_round_through_permutation():
    space = from_matrix([[0, 1], [1, 0]], labels=["a", "b"])
    flipped = permuted(space, [1, 0])
    assert flipped.labels == ("b", "a")
    assert flipped.d[0, 1] == 1.0


def test_spaces_are_immutable():
    space = from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        space.d[0, 1] = 7.0
