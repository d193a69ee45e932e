import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coverembed import (
    CrossEntropyProblem,
    MembershipMatrix,
    NumericalError,
    OptimizerConfig,
    StressProblem,
    ValidationError,
    classical_mds_init,
    minimize,
)
from coverembed.loss import pair_distances
from coverembed.cli import dispatch
from coverembed.optimize import random_init, top_eigenpairs
from oracles import grad_check, pairwise_distances


def _lapack_top(s, m):
    evals, evecs = np.linalg.eigh(s)
    return evals[::-1][:m], evecs[:, ::-1][:, :m]


def test_top_eigenpairs_two_by_two():
    evals, evecs = top_eigenpairs(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
    assert evals == pytest.approx([3.0, 1.0], abs=1e-14)
    # columns are orthonormal
    assert np.allclose(evecs.T @ evecs, np.eye(2), atol=1e-12)
    assert np.allclose(evecs[:, 0], [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-12)


def test_top_eigenpairs_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(2)
    for n in (3, 6, 12, 64, 256, 400):
        s = rng.normal(size=(n, n))
        s = (s + s.T) / 2
        for m in sorted({1, min(3, n), min(5, n)}):
            evals, evecs = top_eigenpairs(s.copy(), m)
            ref_evals, ref_evecs = _lapack_top(s, m)
            assert evals.shape == (m,) and evecs.shape == (n, m)
            assert np.allclose(evals, ref_evals, rtol=1e-10, atol=0)
            assert np.allclose(evecs.T @ evecs, np.eye(m), atol=1e-12)
            # same invariant subspace: the orthogonal projectors agree
            assert np.allclose(evecs @ evecs.T, ref_evecs @ ref_evecs.T, atol=1e-9)
            assert np.allclose(s @ evecs, evecs * evals, atol=1e-10 * np.abs(s).max())
        if n <= 12:
            evals, evecs = top_eigenpairs(s.copy(), n)
            assert np.allclose(evecs @ np.diag(evals) @ evecs.T, s, atol=1e-9)


def test_top_eigenpairs_matches_lapack_across_the_cutoff():
    rng = np.random.default_rng(7)
    for n in (256, 257):
        s = rng.normal(size=(n, n))
        s = (s + s.T) / 2
        evals, evecs = top_eigenpairs(s.copy(), 3)
        ref_evals, ref_evecs = _lapack_top(s, 3)
        assert np.allclose(evals, ref_evals, rtol=1e-10, atol=0)
        assert np.allclose(evecs @ evecs.T, ref_evecs @ ref_evecs.T, atol=1e-9)


def test_top_eigenpairs_degenerate_top_eigenvalue():
    rng = np.random.default_rng(3)
    rotation8, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rotation300, _ = np.linalg.qr(rng.normal(size=(300, 300)))
    for basis in (np.eye(8), rotation8, rotation300):
        n = basis.shape[0]
        spectrum = np.array([3.0, 3.0] + [1.0] * (n - 2))
        s = basis @ np.diag(spectrum) @ basis.T
        s = (s + s.T) / 2
        evals, evecs = top_eigenpairs(s.copy(), 2)
        assert evals == pytest.approx([3.0, 3.0], abs=1e-12)
        # an orthonormal basis of the 2-dimensional top eigenspace
        assert np.allclose(evecs.T @ evecs, np.eye(2), atol=1e-12)
        top = basis[:, :2]
        assert np.allclose(evecs @ evecs.T, top @ top.T, atol=1e-10)
        again = top_eigenpairs(s.copy(), 2)
        assert np.array_equal(again[0], evals) and np.array_equal(again[1], evecs)


def test_top_eigenpairs_tiny_and_zero_matrices():
    evals, evecs = top_eigenpairs(np.array([[-2.5]]), 3)
    assert evals.tolist() == [-2.5] and evecs.tolist() == [[1.0]]
    evals, evecs = top_eigenpairs(np.array([[1.0, 0.0], [0.0, 4.0]]), 1)
    assert evals.tolist() == [4.0]
    assert np.allclose(evecs, [[0.0], [1.0]], atol=0)
    evals, evecs = top_eigenpairs(np.zeros((5, 5)), 2)
    assert evals.tolist() == [0.0, 0.0]
    assert np.allclose(evecs.T @ evecs, np.eye(2), atol=1e-12)


def test_top_eigenpairs_sign_convention():
    evals, evecs = top_eigenpairs(np.diag([3.0, 1.0, 2.0]), 3)
    assert list(evals) == [3.0, 2.0, 1.0]
    rng = np.random.default_rng(5)
    r = rng.normal(size=(20, 20))
    _, random_evecs = top_eigenpairs((r + r.T) / 2, 4)
    # each column's largest-magnitude entry is positive
    for vecs in (evecs, random_evecs):
        for col in range(vecs.shape[1]):
            idx = int(np.argmax(np.abs(vecs[:, col])))
            assert vecs[idx, col] > 0


def _stdout_under_blas_threads(script: str, threads: str) -> str:
    """stdout of `python -c script` with OpenBLAS and OpenMP at `threads` threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout


_CLASSICAL_BYTES = """
import hashlib, sys
import numpy as np
from coverembed import classical_mds_init, from_points_euclidean
rng = np.random.default_rng(11)
points = rng.normal(size=(256, 4))
targets = from_points_euclidean(points).d ** 0.75
coords = classical_mds_init(targets, 3).coords
sys.stdout.write(hashlib.sha256(coords.tobytes()).hexdigest())
"""


def test_classical_init_bytes_do_not_depend_on_blas_threads():
    digests = [_stdout_under_blas_threads(_CLASSICAL_BYTES, t) for t in "12"]
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


# Sizes at which OpenBLAS splits a matrix product or LAPACK `eigh` across threads,
# so a path through either would change bytes with the thread count.
_OPTIMIZER_BYTES = """
import hashlib, tempfile
from pathlib import Path
import numpy as np
from coverembed import (
    CrossEntropyProblem, MembershipMatrix, StressProblem, classical_mds_init, from_points_euclidean,
)
from coverembed.cli import dispatch

def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

rng = np.random.default_rng(11)
targets = from_points_euclidean(rng.normal(size=(400, 4))).d ** 0.75
print("classical_mds_init n=400", digest(classical_mds_init(targets, 3).coords))
for n, m in ((400, 7), (1000, 2)):
    targets = from_points_euclidean(rng.normal(size=(n, 3))).d
    grad = StressProblem(targets, m).grad(rng.normal(size=(n, m)))
    print(f"stress grad n={n} m={m}", digest(grad))
w = MembershipMatrix(np.exp(-from_points_euclidean(rng.normal(size=(400, 3))).d))
print("fce grad n=400 m=7", digest(CrossEntropyProblem(w, 7).grad(rng.normal(size=(400, 7)))))
with tempfile.TemporaryDirectory() as tmp:
    points, out = Path(tmp, "points.csv"), Path(tmp, "emb.csv")
    np.savetxt(points, rng.normal(size=(300, 3)), delimiter=",", fmt="%.17g")
    code = dispatch(["embed", "--algo", "sls", "--input-kind", "points", "--max-iters", "100",
                     "--in", str(points), "--out", str(out)])
    print("embed sls n=300 exit", code, hashlib.sha256(out.read_bytes()).hexdigest())
"""


def test_optimizer_bytes_do_not_depend_on_blas_threads_above_256_points():
    one, two = (_stdout_under_blas_threads(_OPTIMIZER_BYTES, t).splitlines() for t in "12")
    assert len(one) == 6  # five digests and the embed command's summary line
    assert one == two


def test_classical_init_recovers_line_gaps():
    targets = np.abs(np.subtract.outer([0.0, 1.0, 3.0, 6.0], [0.0, 1.0, 3.0, 6.0]))
    emb = classical_mds_init(targets, 1)
    got = pairwise_distances(emb.coords)
    assert np.allclose(got, targets, atol=1e-8)


def test_classical_init_zero_targets():
    emb = classical_mds_init(np.zeros((4, 4)), 2)
    assert np.allclose(emb.coords, 0.0)


def test_an_empty_problem_embeds_as_no_rows():
    assert classical_mds_init(np.zeros((0, 0)), 2).coords.shape == (0, 2)
    empty_w = MembershipMatrix(np.zeros((0, 0)))
    for problem in (StressProblem(np.zeros((0, 0)), 2), CrossEntropyProblem(empty_w, 2)):
        assert problem.init_targets().shape == (0, 0)
        for init in ("classical", "random"):
            result = minimize(problem, OptimizerConfig(init=init))
            assert result.embedding.coords.shape == (0, 2)
            assert result.loss == 0.0


@pytest.mark.parametrize("field, value", [
    ("max_iters", 2.5), ("max_iters", True), ("seed", 1.5), ("seed", True),
])
def test_optimizer_config_counts_must_be_integers(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be an integer, got {value!r}$"):
        OptimizerConfig(**{field: value})
    assert OptimizerConfig(**{field: np.int64(3)})


@pytest.mark.parametrize("m", [2.5, True, "2"])
def test_problems_refuse_a_non_integer_dimension(m):
    w = MembershipMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    for make in (lambda: StressProblem(np.zeros((2, 2)), m), lambda: CrossEntropyProblem(w, m)):
        with pytest.raises(ValidationError, match=f"embedding dimension must be an integer, got {m!r}"):
            make()


def test_classical_init_rejects_infinite():
    t = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValidationError):
        classical_mds_init(t, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classical_init_refuses_a_non_finite_target(bad):
    # the one check between outside input and the trusting eigensolver
    t = np.ones((3, 3)) - np.eye(3)
    t[2, 1] = t[1, 2] = bad
    with pytest.raises(ValidationError, match="^classical MDS needs finite targets"):
        classical_mds_init(t, 1)


def test_classical_init_rejects_a_non_positive_dimension():
    with pytest.raises(ValidationError, match=r"^embedding dimension must be >= 1, got 0$"):
        classical_mds_init(np.ones((3, 3)) - np.eye(3), 0)


def test_classical_init_rejects_a_non_square_matrix():
    with pytest.raises(ValidationError, match=r"must be square, got shape \(2, 3\)"):
        classical_mds_init(np.zeros((2, 3)), 1)


def test_classical_init_names_an_overflowing_target():
    with pytest.raises(NumericalError) as exc:
        classical_mds_init([[0, 1e200], [1e200, 0]], 1)
    assert str(exc.value) == "squared target at (0, 1) overflows: 1e+200"
    # squares near the largest double are finite, but their row sums are not
    big = np.full((3, 3), 1e154) - np.diag([1e154] * 3)
    with pytest.raises(NumericalError) as exc:
        classical_mds_init(big, 1)
    assert str(exc.value) == "the means of the squared targets overflow"


def test_embed_with_an_overflowing_target_is_a_numerical_error(tmp_path, capsys):
    dist = tmp_path / "dist.csv"
    dist.write_text("0,1e200\n1e200,0\n")
    capsys.readouterr()
    assert dispatch(["embed", "--algo", "mmds", "--in", str(dist), "--out",
                     str(tmp_path / "o.csv"), "--json-errors"]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {
        "error": "numerical", "message": "squared target at (0, 1) overflows: 1e+200",
    }


def test_classical_init_holds_little_beyond_its_gram_matrix():
    n = 400
    targets = pairwise_distances(np.random.default_rng(13).normal(size=(n, 5))) ** 0.75
    classical_mds_init(targets, 5)
    tracemalloc.start()
    try:
        classical_mds_init(targets, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gram matrix and at most as much again; copies, symmetrization
    # temporaries and fresh rank-2 updates peaked at about 5 n x n arrays
    assert peak < 2 * n * n * 8, peak


def test_classical_init_pads_extra_dimensions():
    targets = np.array([[0.0, 1.0], [1.0, 0.0]])
    emb = classical_mds_init(targets, 3)
    assert emb.coords.shape == (2, 3)
    assert np.allclose(emb.coords[:, 1:], 0.0)


def test_minimize_two_point_stress():
    prob = StressProblem(np.array([[0.0, 3.0], [3.0, 0.0]]), 1)
    res = minimize(prob)
    assert res.loss < 1e-12
    gap = abs(res.embedding.coords[0, 0] - res.embedding.coords[1, 0])
    assert gap == pytest.approx(3.0, abs=1e-6)


def test_minimize_equilateral():
    targets = np.ones((3, 3)) - np.eye(3)
    res = minimize(StressProblem(targets, 2))
    assert res.loss < 1e-10


def test_minimize_fce_two_points():
    w = MembershipMatrix(np.array([[1.0, math.exp(-1)], [math.exp(-1), 1.0]]))
    res = minimize(CrossEntropyProblem(w, 1))
    gap = abs(res.embedding.coords[0, 0] - res.embedding.coords[1, 0])
    assert gap == pytest.approx(1.0, abs=1e-3)


def test_minimize_trace_is_monotone_and_deterministic():
    rng = np.random.default_rng(3)
    d = rng.uniform(0.5, 2.0, size=(6, 6))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    prob = StressProblem(d, 2)
    cfg = OptimizerConfig(init="random", seed=11)
    res1 = minimize(prob, cfg)
    res2 = minimize(prob, cfg)
    losses = [row[1] for row in res1.trace]
    assert all(b <= a for a, b in zip(losses, losses[1:]))
    assert np.array_equal(res1.embedding.coords, res2.embedding.coords)
    assert res1.trace == res2.trace
    assert res1.grad_norm >= 0.0


def test_minimize_divergence_raises_with_trace():
    class Bomb:
        n, m = 2, 1

        def loss(self, a, delta=None):
            return float("nan")

        def grad(self, a):
            return np.zeros_like(a)

        def init_targets(self):
            return np.zeros((2, 2))

    with pytest.raises(NumericalError) as err:
        minimize(Bomb())
    assert err.value.trace == []


def test_minimize_computes_one_distance_matrix_per_loss_evaluation(monkeypatch):
    import coverembed.loss
    import coverembed.optimize

    counts = {"distances": 0, "loss": 0, "grad": 0}

    def counted_distances(a):
        counts["distances"] += 1
        return pair_distances(a)

    class Counted:
        def __init__(self, problem):
            self.problem, self.n, self.m = problem, problem.n, problem.m

        def loss(self, a, delta=None):
            counts["loss"] += 1
            return self.problem.loss(a, delta)

        def grad(self, a, delta=None):
            counts["grad"] += 1
            return self.problem.grad(a, delta)

        def init_targets(self):
            return self.problem.init_targets()

    for module in (coverembed.loss, coverembed.optimize):
        monkeypatch.setattr(module, "pair_distances", counted_distances)
    rng = np.random.default_rng(3)
    d = rng.uniform(0.5, 2.0, size=(6, 6))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    res = minimize(Counted(StressProblem(d, 2)), OptimizerConfig(max_iters=50))
    assert counts["grad"] == len(res.trace) > 10
    assert counts["loss"] > counts["grad"]
    assert counts["distances"] == counts["loss"]


def test_random_init_range_and_determinism():
    a = random_init(50, 3, seed=4).coords
    b = random_init(50, 3, seed=4).coords
    assert np.array_equal(a, b)
    assert a.min() >= -0.5 and a.max() <= 0.5
    assert not np.array_equal(a, random_init(50, 3, seed=5).coords)


def test_translation_and_rotation_invariance():
    rng = np.random.default_rng(6)
    d = rng.uniform(0.5, 2.0, size=(5, 5))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    prob = StressProblem(d, 2)
    a = rng.normal(size=(5, 2))
    shift = a + np.array([3.0, -1.5])
    assert prob.loss(shift) == pytest.approx(prob.loss(a), rel=1e-12)
    angle = 0.7
    q = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    assert prob.loss(a @ q) == pytest.approx(prob.loss(a), rel=1e-9)


def test_grad_check_reports_coincident_rows():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    prob = StressProblem(d, 1)
    a = np.array([[0.0], [0.0], [5.0]])  # rows 0 and 1 coincide
    res = grad_check(prob, a)
    assert res.skipped_rows == (0, 1)
    assert res.max_rel_error < 1e-5


def test_grad_check_zero_problem():
    prob = StressProblem(np.zeros((3, 3)), 2)
    a = np.zeros((3, 2))
    res = grad_check(prob, a)
    assert np.array_equal(prob.grad(a), np.zeros((3, 2)))
    assert res.max_rel_error == 0.0


def test_optimizer_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(init="mystery")
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        OptimizerConfig(seed=-1)
    with pytest.raises(ValidationError):
        minimize(StressProblem(np.zeros((2, 2)), 1), OptimizerConfig(init="given"))
