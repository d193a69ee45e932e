"""End-to-end acceptance suite: one test per exit criterion, timed.

Runs everything at the stated sizes and tolerances; prints one PASS/FAIL line
per criterion (visible with `pytest -s` or in captured output). Criterion 2
unrolls a circle with one of its 17 equally spaced samples missing: the gap
leaves the threshold graph a path, so the geodesic metric is hops x chord and
embeds isometrically in R^1, which is the case IsoMap's stress can unroll. A
closed circle cannot: its geodesic metric does not embed in R^1, and the
stress minimum folds it (see `test_isomap_folds_closed_circle` in
test_algorithms.py).
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coverembed import (
    CrossEntropyProblem,
    MembershipMatrix,
    PipelineSpec,
    StressProblem,
    cluster_hierarchy,
    from_matrix,
    from_points_euclidean,
    interleaving_distance,
    membership_matrix,
    minimize,
    named_spec,
    run_pipeline,
    target_distances,
)
from coverembed.algorithms import stage_targets
from coverembed.cli import dispatch
from coverembed.covers import cover_at, refines
from coverembed.dna import BenchConfig, run_bench
from coverembed.fileio import read_json
from coverembed.graphs import bottleneck_matrix, hop_bounded_minimax
from coverembed.metric import isometry_epsilon

from oracles import (
    exact_interleaving_epsilon,
    grad_check,
    oracle_max_cliques,
    oracle_maximal_j_connected,
    oracle_minimax_path,
    perturbed,
    random_space,
    threshold_edges,
    write_distance_csv,
)
from test_optimize import _stdout_under_blas_threads


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    outcome = {"ok": False, "detail": ""}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if outcome["ok"] and elapsed < limit_seconds else "FAIL"
        print(
            f"ACCEPTANCE {number:2d} {name}: {status} "
            f"({elapsed:.1f}s / limit {limit_seconds:.0f}s) {outcome['detail']}"
        )
        assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_01_exact_recovery_stress():
    with criterion(1, "exact-recovery stress", 1.0) as out:
        res2 = minimize(StressProblem(np.array([[0.0, 3.0], [3.0, 0.0]]), 1))
        tri = minimize(StressProblem(np.ones((3, 3)) - np.eye(3), 2))
        out["detail"] = f"losses {res2.loss:.2e}, {tri.loss:.2e}"
        assert res2.loss < 1e-10
        assert tri.loss < 1e-10


def test_criterion_02_circle_isomap_gap_recovery():
    # 16 of 17 equally spaced samples on the circle: the missing sample is the
    # gap, the threshold graph at chord * 1.001 is a path, and the geodesic
    # targets are hops x chord, so the unrolled line has zero stress. Metric
    # MDS on the same points folds them (gap deviation ~0.31).
    n, r = 16, 1.0
    chord = 2 * r * math.sin(math.pi / (n + 1))
    with criterion(2, "circle unrolling gap match", 5.0) as out:
        theta = 2 * np.pi * np.arange(n) / (n + 1)
        space = from_points_euclidean(
            np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        )
        spec = named_spec("isomap", 1, delta=chord * 1.001, policy="strict")
        emb = run_pipeline(spec, space)[0]
        coords = emb.coords.ravel()
        # alignment: gaps are translation/sign invariant; allow any rotation or
        # reflection of the circular indexing before comparing to the chord
        best_dev = math.inf
        for flip in (1, -1):
            seq = coords[::flip]
            for shift in range(n):
                rolled = np.roll(seq, shift)
                gaps = np.abs(np.diff(rolled))
                best_dev = min(best_dev, float(np.abs(gaps - chord).max()))
        out["detail"] = (
            f"max |gap - {chord:.6f}| = {best_dev:.2e} after alignment "
            "(16 of 17 samples, geodesic targets hops x chord)"
        )
        assert best_dev <= 1e-3, out["detail"]


def test_criterion_03_benchmark_ordering():
    with criterion(3, "recombination benchmark ordering", 15 * 60.0) as out:
        cfg = BenchConfig(repetitions=3)
        result = run_bench(cfg)
        mmds2 = result.row("ml", 2).mean
        mmds5 = result.row("ml", 5).mean
        sls2 = result.row("sl", 2).mean
        sls5 = result.row("sl", 5).mean
        out["detail"] = (
            f"MMDS m=2 {mmds2:.3f}, m=5 {mmds5:.3f}; SLS m=2 {sls2:.3f}, m=5 {sls5:.3f}"
        )
        assert sls2 > mmds2
        assert sls5 > mmds5
        assert sls5 >= 0.8
        assert mmds2 <= 0.5


def test_criterion_04_interleaving_bound_suite():
    with criterion(4, "interleaving bound on perturbed spaces", 60.0) as out:
        rng = np.random.default_rng(104)
        worst = 0.0
        for trial in range(200):
            x = random_space(rng, n=6, low=0.5, high=2.0)
            eps = float(rng.uniform(0.01, 0.5))
            y = perturbed(rng, x, eps)
            eps_true = isometry_epsilon(x, y)
            for stage in ("sl", "ml"):
                hx, hy = cluster_hierarchy(x, stage), cluster_hierarchy(y, stage)
                got = interleaving_distance(hx, hy).epsilon_star
                assert got <= eps_true + 1e-12
                worst = max(worst, got - eps_true)
                assert got == exact_interleaving_epsilon(hx, hy)
        out["detail"] = f"200 trials x 2 functors, max (eps* - eps) = {worst:.2e}"


def test_criterion_05_loss_transfer_bound_suite():
    from coverembed import check_loss_transfer

    with criterion(5, "certified loss-transfer bound", 120.0) as out:
        rng = np.random.default_rng(105)
        specs = [
            PipelineSpec("ml", "mds", 2),
            PipelineSpec("sl", "mds", 2),
            PipelineSpec("lk", "mds", 2, k=2),
            PipelineSpec("vlk", "mds", 2, k=2),
        ]
        margin = math.inf
        for trial in range(50):
            x = random_space(rng, n=8, low=0.5, high=2.0)
            y = perturbed(rng, x, float(rng.uniform(0.02, 0.4)))
            rep = check_loss_transfer(specs[trial % len(specs)], x, y)
            assert rep.passed, f"trial {trial}: {rep}"
            assert math.isfinite(rep.k_c) and rep.k_c > 0
            margin = min(margin, rep.bound - rep.loss_cross)
        out["detail"] = f"50 trials, min bound slack = {margin:.3g}"


def test_criterion_06_refinement_spectrum():
    with criterion(6, "refinement spectrum with brute-force oracles", 120.0) as out:
        rng = np.random.default_rng(106)
        for trial in range(100):
            space = random_space(rng, n=6)
            sl = cluster_hierarchy(space, "sl")
            ml = cluster_hierarchy(space, "ml")
            for k in (1, 2, 3, 6):
                lk = cluster_hierarchy(space, "lk", k=k)
                vlk = cluster_hierarchy(space, "vlk", k=k)
                scales = sorted(
                    set(sl.scales) | set(ml.scales) | set(lk.scales) | set(vlk.scales)
                )
                for delta in scales:
                    cm = cover_at(ml, delta)
                    cs = cover_at(sl, delta)
                    assert refines(cm, cover_at(lk, delta))
                    assert refines(cover_at(lk, delta), cs)
                    assert refines(cm, cover_at(vlk, delta))
                    assert refines(cover_at(vlk, delta), cs)
            if trial % 10 == 0:
                # brute-force block verification on a deterministic subsample
                for delta in ml.scales:
                    edges = threshold_edges(space.d, delta)
                    assert cover_at(ml, delta).blocks == tuple(
                        oracle_max_cliques(6, edges)
                    )
                    assert cover_at(cluster_hierarchy(space, "vlk", k=2), delta).blocks == tuple(
                        oracle_maximal_j_connected(6, edges, 2)
                    )
                w = membership_matrix(cluster_hierarchy(space, "lk", k=3))
                for i in range(6):
                    for j in range(i + 1, 6):
                        want = oracle_minimax_path(space.d, i, j, max_hops=2)
                        assert -math.log(w.w[i, j]) == pytest.approx(want, abs=1e-12)
        out["detail"] = "100 spaces x k in {1,2,3,6}, oracle subsample every 10th"


def test_criterion_07_gradient_checks():
    with criterion(7, "analytic gradients vs central differences", 60.0) as out:
        rng = np.random.default_rng(107)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, 4))
            a = rng.normal(size=(n, m))
            d = rng.uniform(0.3, 2.5, size=(n, n))
            d = (d + d.T) / 2
            np.fill_diagonal(d, 0.0)
            worst = max(worst, grad_check(StressProblem(d, m), a).max_rel_error)
            w = np.exp(-d)
            np.fill_diagonal(w, 1.0)
            worst = max(
                worst, grad_check(CrossEntropyProblem(MembershipMatrix(w), m), a).max_rel_error
            )
        out["detail"] = f"100 instances, max rel error = {worst:.2e}"
        assert worst < 1e-5


def test_criterion_08_degenerate_identities():
    with criterion(8, "degenerate-case identities", 60.0) as out:
        rng = np.random.default_rng(108)
        for trial in range(50):
            space = random_space(rng, n=6)
            # VL_1 == SL and L_1 == ML, as covers and as target matrices
            assert cluster_hierarchy(space, "vlk", k=1) == cluster_hierarchy(space, "sl")
            assert cluster_hierarchy(space, "lk", k=1) == cluster_hierarchy(space, "ml")
            t_vl1 = target_distances(membership_matrix(cluster_hierarchy(space, "vlk", k=1)))
            t_sl = target_distances(membership_matrix(cluster_hierarchy(space, "sl")))
            assert np.array_equal(t_vl1, t_sl)
            # k-path with k >= n-1 has the single-linkage targets
            assert np.array_equal(
                hop_bounded_minimax(space.d, 5), bottleneck_matrix(space.d)
            )
            # IsoMap at full radius has the metric-MDS targets (needs a metric)
            euclidean = from_points_euclidean(rng.normal(size=(6, 3)))
            t_iso = stage_targets(
                euclidean, PipelineSpec("iso", delta=float(euclidean.d.max()))
            )
            assert np.array_equal(t_iso, euclidean.d)
        out["detail"] = "50 spaces, all four identities exact"


def test_criterion_09_cli_determinism(tmp_path):
    with criterion(9, "CLI manifest determinism across threads", 300.0) as out:
        rng = np.random.default_rng(109)
        dist = tmp_path / "dist.csv"
        write_distance_csv(dist, from_points_euclidean(rng.uniform(0, 2, size=(7, 2))))
        dist2 = tmp_path / "dist2.csv"
        write_distance_csv(
            dist2, from_points_euclidean(rng.uniform(0, 2, size=(7, 2)))
        )
        runs = [
            (["embed", "--algo", "sls", "--m", "2", "--in", str(dist),
              "--out", str(tmp_path / "emb.csv"),
              "--trace-out", str(tmp_path / "trace.csv")],
             ["emb.csv", "trace.csv"]),
            (["cluster", "--functor", "ml", "--in", str(dist),
              "--out", str(tmp_path / "h.json")], ["h.json"]),
            (["stability", "--algo", "mmds", "--m", "2", "--x", str(dist),
              "--y", str(dist2), "--out", str(tmp_path / "stab.json")],
             ["stab.json"]),
            (["bench-dna", "--n", "3", "--m-steps", "3", "--len", "30",
              "--subs", "3", "--reps", "2", "--seed", "1", "--max-iters", "60",
              "--out", str(tmp_path / "bench.csv")], ["bench.csv"]),
            (["flatten-check", "--in", str(dist), "--pair", "0", "1",
              "--out", str(tmp_path / "fc.json")], ["fc.json"]),
        ]
        for argv, outputs in runs:
            assert dispatch(argv) == 0
            manifest = tmp_path / (outputs[0] + ".manifest.json")
            for threads in ("1", "4"):
                # a fresh interpreter, whose BLAS thread pool starts at this size;
                # a nonzero exit raises
                rerun_dir = tmp_path / f"{outputs[0]}.r{threads}"
                rerun = ["rerun", str(manifest), "--out-dir", str(rerun_dir)]
                _stdout_under_blas_threads(
                    f"from coverembed.cli import dispatch\nraise SystemExit(dispatch({rerun!r}))",
                    threads,
                )
                for name in outputs:
                    assert (rerun_dir / name).read_bytes() == (
                        tmp_path / name
                    ).read_bytes(), f"{argv[0]} output {name} differs"
        # interleave's deterministic output is its printed value + report
        h1 = tmp_path / "h.json"
        assert dispatch(["cluster", "--functor", "sl", "--in", str(dist),
                         "--out", str(tmp_path / "hsl.json")]) == 0
        assert dispatch(["interleave", "--a", str(h1), "--b", str(tmp_path / "hsl.json"),
                         "--out", str(tmp_path / "il.json")]) == 0
        first = (tmp_path / "il.json").read_bytes()
        assert dispatch(["interleave", "--a", str(h1), "--b", str(tmp_path / "hsl.json"),
                         "--out", str(tmp_path / "il.json")]) == 0
        assert (tmp_path / "il.json").read_bytes() == first
        out["detail"] = "6 subcommands bit-identical across reruns at 1 and 4 BLAS threads"


def test_criterion_10_flatten_verification(tmp_path):
    with criterion(10, "flatten quadrature reports", 60.0) as out:
        mismatches = []
        for d in (0.5, 1.0, 2.0):
            path = tmp_path / f"two_{d}.csv"
            write_distance_csv(path, from_matrix([[0.0, d], [d, 0.0]]))
            report_path = tmp_path / f"fc_{d}.json"
            assert dispatch([
                "flatten-check", "--in", str(path), "--pair", "0", "1",
                "--rel-tol", "1e-8", "--out", str(report_path),
            ]) == 0
            report = read_json(report_path)
            assert report["quadrature_converged"]
            assert report["target_distance"] == pytest.approx(d)
            assert "residual_curve" in report and report["residual_curve"]["x"]
            if not report["argmin_matches_target"]:
                mismatches.append(d)
        out["detail"] = (
            f"reports produced for d in (0.5, 1, 2); argmin != -log w surfaced "
            f"for all of {mismatches} (recorded open question)"
        )
        assert mismatches == [0.5, 1.0, 2.0]
