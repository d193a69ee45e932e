"""Finite pseudometric spaces: construction, validation, comparison.

A space is a dense n x n matrix of nonnegative distances with zero diagonal.
Distinct points at distance zero are allowed (pseudometric); the triangle
inequality is enforced only in strict mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import ValidationError

SYMMETRY_TOL = 1e-12
TRIANGLE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PseudometricSpace:
    """Immutable finite pseudometric space (distance matrix + optional labels)."""

    d: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self.d.flags.writeable = False
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationError(
                f"got {len(self.labels)} labels for {self.n} points"
            )

    @property
    def n(self) -> int:
        return self.d.shape[0]

    def shifted(self, eps: float) -> "PseudometricSpace":
        """Space with every off-diagonal distance increased by eps >= 0."""
        if eps < 0:
            raise ValidationError("shift must be nonnegative")
        d = self.d + eps
        np.fill_diagonal(d, 0.0)
        return PseudometricSpace(d, self.labels)


def _first_triangle_violation(d: np.ndarray, tol: float):
    """Lexicographically smallest (i, k, j) with d[i,k] > d[i,j] + d[j,k] + tol."""
    n = d.shape[0]
    best = None
    for j in range(n):
        viol = d > d[:, j, None] + d[None, j, :] + tol
        viol[:, j] = False
        viol[j, :] = False
        if viol.any():
            i, k = np.argwhere(viol)[0]
            cand = (int(i), int(k), j)
            if best is None or cand < best:
                best = cand
    return best


def from_matrix(raw, strict: bool = False, labels=None) -> PseudometricSpace:
    """Validate a raw square matrix as a pseudometric space.

    Asymmetry beyond 1e-12 is rejected; smaller asymmetry is absorbed by
    symmetrizing d <- (d + d^T)/2 where d differs from d^T. Strict mode
    additionally checks the triangle inequality (absolute slack 1e-9).
    """
    d = np.array(raw, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {d.shape}")
    if not np.isfinite(d).all():
        i, j = np.argwhere(~np.isfinite(d))[0]
        raise ValidationError(f"non-finite distance at ({i}, {j})")
    # only entries that differ from their transpose (in value or sign of zero)
    # are checked and averaged: summing two equal entries can overflow to inf
    differ = (d != d.T) | (np.signbit(d) != np.signbit(d.T))
    entry, mirror = d[differ], d.T[differ]
    with np.errstate(over="ignore"):  # an overflowing difference is asymmetric too
        asym = np.abs(entry - mirror)
    if asym.max(initial=0.0) > SYMMETRY_TOL:
        i, j = np.argwhere(differ)[np.argmax(asym > SYMMETRY_TOL)]
        raise ValidationError(
            f"asymmetric distances at ({i}, {j}): {d[i, j]!r} vs {d[j, i]!r}"
        )
    d[differ] = (entry + mirror) / 2.0
    if d.min(initial=0.0) < 0:
        i, j = np.argwhere(d < 0)[0]
        raise ValidationError(f"negative distance at ({i}, {j}): {d[i, j]!r}")
    diag = np.abs(np.diagonal(d))
    if diag.max(initial=0.0) > 0:
        i = int(np.argmax(diag > 0))
        raise ValidationError(f"nonzero diagonal at ({i}, {i}): {d[i, i]!r}")
    if strict:
        bad = _first_triangle_violation(d, TRIANGLE_TOL)
        if bad is not None:
            i, k, j = bad
            raise ValidationError(
                f"triangle violation at ({i}, {k}, {j}): "
                f"{d[i, k]!r} > {d[i, j]!r} + {d[j, k]!r}"
            )
    if labels is not None:
        labels = tuple(str(x) for x in labels)
    return PseudometricSpace(d, labels)


def from_points_euclidean(points, labels=None) -> PseudometricSpace:
    """Euclidean distance matrix of an n x k point array (rows are points).

    The distances come from SciPy's `pdist` loop, the kernel behind the
    optimizer's `loss.pair_distances`, so memory stays O(n^2) for any k.
    Validated by `from_matrix`, so coordinates whose distances overflow fail.
    """
    p = np.atleast_2d(np.array(points, dtype=float))
    if p.ndim != 2:
        raise ValidationError(f"points must form an n x k array, got shape {p.shape}")
    if p.shape[0] < 1:
        raise ValidationError("need at least one point")
    return from_matrix(squareform(pdist(p)), labels=labels)


def from_sequences_hamming(seqs, labels=None) -> PseudometricSpace:
    """Hamming distance matrix of equal-length strings over any alphabet (by code point)."""
    seqs = list(seqs)
    if not seqs:
        raise ValidationError("need at least one sequence")
    length = len(seqs[0])
    for t, s in enumerate(seqs):
        if len(s) != length:
            raise ValidationError(
                f"sequence {t} has length {len(s)}, expected {length}"
            )
    codes = np.frombuffer("".join(seqs).encode("utf-32-le"), dtype="<u4")
    codes = codes.reshape(len(seqs), length)
    d = hamming_matrix(codes)
    if labels is not None:
        labels = tuple(str(x) for x in labels)
    return PseudometricSpace(d, labels)


def hamming_matrix(codes: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between rows of a 2-d code array.

    Row i's mismatches with every later row are counted at once, in the
    smallest unsigned integer type that holds L, and written to both halves
    of the matrix. Counts are exact integers, so no summation order can
    change them, and there is no BLAS call. Besides the n x n output, the
    only temporary is one mismatch mask of at most n x L bytes.
    """
    n, length = codes.shape
    count = np.min_scalar_type(length)
    d = np.zeros((n, n))
    for i in range(n - 1):
        mismatch = np.not_equal(codes[i + 1 :], codes[i])
        row = np.add.reduce(mismatch.view(np.uint8), axis=1, dtype=count)
        d[i, i + 1 :] = row
        d[i + 1 :, i] = row
    return d


def isometry_epsilon(x: PseudometricSpace, y: PseudometricSpace) -> float:
    """Least eps making both identity maps non-expansive into the (+eps) shift.

    Equals max_{i,j} |d_X[i,j] - d_Y[i,j]| for identically indexed spaces.
    """
    if x.n != y.n:
        raise ValidationError(f"size mismatch: {x.n} vs {y.n}")
    return float(np.abs(x.d - y.d).max(initial=0.0))
