import json
import math

import numpy as np
import pytest

from coverembed import (
    HierarchicalCover,
    NumericalError,
    ValidationError,
    cluster_hierarchy,
    membership_matrix,
)
from coverembed.algorithms import connectivity_radius, named_spec, run_pipeline
from coverembed.cli import build_hash, dispatch, flatten_check_report
from coverembed.fileio import (
    fmt,
    read_distance_csv,
    read_embedding_csv,
    read_hierarchy_json,
    read_json,
    write_embedding_csv,
    write_hierarchy_json,
    write_json,
)
from coverembed.metric import from_matrix, from_points_euclidean
from coverembed.optimize import Embedding, OptimizerConfig

from oracles import write_distance_csv

CHAIN = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
# quad's floor on a relative tolerance is 50 machine epsilons
REL_TOL_REFUSED = "rel_tol must be finite and >= 1.1102230246251565e-14, got "


@pytest.fixture
def dist_csv(tmp_path):
    path = tmp_path / "dist.csv"
    write_distance_csv(path, from_matrix(CHAIN, labels=["a", "b", "c"]))
    return path


def test_embed_happy_path(dist_csv, tmp_path):
    out = tmp_path / "emb.csv"
    trace = tmp_path / "trace.csv"
    code = dispatch([
        "embed", "--algo", "sls", "--m", "2",
        "--in", str(dist_csv), "--out", str(out), "--trace-out", str(trace),
    ])
    assert code == 0
    emb = read_embedding_csv(out)
    assert emb.coords.shape == (3, 2)
    assert emb.labels == ("a", "b", "c")
    header = trace.read_text().splitlines()[0]
    assert header == "iteration,loss,step,grad_norm"
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["subcommand"] == "embed"
    assert str(dist_csv) in manifest["inputs"]


def test_embed_manifest_records_the_iteration_count(tmp_path):
    d = np.random.default_rng(2).uniform(0.5, 2.0, size=(6, 6))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    path = tmp_path / "dist.csv"
    write_distance_csv(path, from_matrix(d))
    for algo, max_iters in (("mmds", 2000), ("umap", 2000), ("sls", 4)):
        out, trace = tmp_path / f"{algo}.csv", tmp_path / f"{algo}.trace.csv"
        assert dispatch([
            "embed", "--algo", algo, "--in", str(path), "--out", str(out),
            "--trace-out", str(trace), "--max-iters", str(max_iters),
        ]) == 0
        manifest = read_json(str(out) + ".manifest.json")
        _, report = run_pipeline(
            named_spec(algo, optimizer=OptimizerConfig(max_iters=max_iters)),
            read_distance_csv(path),
        )
        assert manifest["n_iters"] == report.n_iters > 0
        assert manifest["exit_reason"] == report.exit_reason != "stationary"
        # only the fce loss takes momentum steps, whose rejected trials restart
        assert manifest["restarts"] == report.restarts
        assert (report.restarts > 0) == (algo == "umap")
        # the trace's last row is the last accepted iteration
        assert trace.read_text().splitlines()[-1].startswith(f"{manifest['n_iters']},")
    assert manifest["exit_reason"] == "max_iters" and manifest["n_iters"] == 4


def test_embed_pipeline_recombination(dist_csv, tmp_path):
    out = tmp_path / "emb.csv"
    code = dispatch([
        "embed", "--pipeline", "cluster=sl,loss=fce", "--m", "1",
        "--in", str(dist_csv), "--out", str(out),
    ])
    assert code == 0
    assert read_embedding_csv(out).coords.shape == (3, 1)


def test_cluster_and_interleave_round_trip(dist_csv, tmp_path, capsys):
    h1 = tmp_path / "h1.json"
    h2 = tmp_path / "h2.json"
    assert dispatch(["cluster", "--functor", "sl", "--in", str(dist_csv), "--out", str(h1)]) == 0
    assert dispatch(["cluster", "--functor", "ml", "--in", str(dist_csv), "--out", str(h2)]) == 0
    # written JSON reads back to an equal value
    again = read_hierarchy_json(h1)
    assert again == cluster_hierarchy(from_matrix(CHAIN), "sl")
    capsys.readouterr()
    assert dispatch(["interleave", "--a", str(h1), "--b", str(h1)]) == 0
    assert capsys.readouterr().out.strip() == "0"
    out = tmp_path / "interleave.json"
    assert dispatch(["interleave", "--a", str(h1), "--b", str(h2), "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "1"
    # SL's single block forms at 2, ML's at 3; every other cover needs no shift
    assert read_json(out) == {
        "epsilon_star": 1.0,
        "candidates": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0],
        "witness": [0, 2, 3],
    }


def test_cluster_kvertex_needs_k(dist_csv, tmp_path):
    code = dispatch([
        "cluster", "--functor", "vlk", "--in", str(dist_csv),
        "--out", str(tmp_path / "h.json"),
    ])
    assert code == 1


def test_stability_report(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 2, size=(6, 2))
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    write_distance_csv(x, from_points_euclidean(pts))
    write_distance_csv(y, from_points_euclidean(pts + rng.uniform(-0.05, 0.05, size=(6, 2))))
    out = tmp_path / "report.json"
    code = dispatch([
        "stability", "--algo", "sls", "--m", "2",
        "--x", str(x), "--y", str(y), "--out", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert report["interleaving"]["passed"]
    assert report["loss_transfer"]["passed"]
    assert report["loss_transfer"]["constant_e"]


def test_bench_dna_tiny(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = dispatch([
        "bench-dna", "--n", "4", "--m-steps", "3", "--len", "40", "--subs", "4",
        "--reps", "2", "--seed", "5", "--max-iters", "100",
        "--out", str(out), "--embeddings-out", str(tmp_path / "emb"),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("cluster,loss,m,mean_accuracy")
    assert len(lines) == 1 + 4  # two algos x two dims
    emb = read_embedding_csv(tmp_path / "emb_ml_mds_m2.csv")
    assert emb.coords.shape == (12, 2)
    assert emb.labels[0] == "list0_step0"


def test_bench_dna_embeddings_out_are_the_scored_embeddings(tmp_path, monkeypatch):
    import coverembed.cli as cli

    scored = {}
    real_run_bench = cli.run_bench

    def recording_run_bench(cfg, progress=None):
        def record(rep, spec, acc, result):
            if rep == 0:
                scored[spec.cluster, spec.m] = result.embedding.coords.copy()
            progress(rep, spec, acc, result)

        return real_run_bench(cfg, progress=record)

    monkeypatch.setattr(cli, "run_bench", recording_run_bench)
    code = dispatch([
        "bench-dna", "--n", "5", "--m-steps", "4", "--len", "60", "--subs", "4",
        "--dim", "2,5", "--algos", "mmds,sls", "--reps", "2", "--seed", "11",
        "--max-iters", "60", "--out", str(tmp_path / "table.csv"),
        "--embeddings-out", str(tmp_path / "emb"),
    ])
    assert code == 0
    assert sorted(scored) == [("ml", 2), ("ml", 5), ("sl", 2), ("sl", 5)]
    for (cluster, m), coords in scored.items():
        emb = read_embedding_csv(tmp_path / f"emb_{cluster}_mds_m{m}.csv")
        assert np.array_equal(emb.coords, coords)
        assert emb.labels[-1] == "list4_step3"


def test_flatten_check_values(dist_csv, tmp_path):
    out = tmp_path / "fc.json"
    code = dispatch([
        "flatten-check", "--in", str(dist_csv), "--pair", "0", "1",
        "--out", str(out),
    ])
    assert code == 0
    report = read_json(out)
    assert report["membership"] == pytest.approx(math.exp(-1.0))
    assert report["target_distance"] == pytest.approx(1.0)
    assert report["quadrature_converged"]
    # the argmin mismatch is surfaced, not hidden
    assert report["grid_argmin"] == 0.0
    assert not report["argmin_matches_target"]


def test_flatten_check_one_point_space(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0\n")
    report = flatten_check_report(read_distance_csv(path), 0, 1)
    assert report["n"] == 1
    assert report["quadrature_converged"]
    # no pair to integrate, and still no tolerance quad would refuse
    with pytest.raises(ValidationError) as exc:
        flatten_check_report(read_distance_csv(path), 0, 1, rel_tol=0.0)
    assert str(exc.value) == REL_TOL_REFUSED + "0.0"


def test_flatten_check_untruncated_for_positive_membership():
    # maximal-linkage memberships of a finite space are never zero, so the
    # truncation flag stays off even when a floor is offered
    report = flatten_check_report(from_matrix(CHAIN), 0, 1, a_min=1e-6)
    assert not report["truncated"]
    with pytest.raises(Exception):
        flatten_check_report(from_matrix(CHAIN), 0, 5)


def test_flatten_check_rejects_a_membership_whose_flattened_loss_overflows(tmp_path, capsys):
    # at d = 745, w = exp(-d) = 5e-324 is subnormal and 1/w overflows, so the
    # flattened coefficients are infinite; at d = 700 they are finite but the
    # loss overflows on the report grid
    for d in (700.0, 745.0):
        with pytest.raises(ValidationError, match="membership 0; pass --a-min"):
            flatten_check_report(from_matrix([[0, d], [d, 0]]), 0, 1)
    near = flatten_check_report(from_matrix([[0, 690.0], [690.0, 0]]), 0, 1)
    assert math.isfinite(near["value_at_target"]) and not near["truncated"]
    path = tmp_path / "far.csv"
    write_distance_csv(path, from_matrix([[0, 745.0], [745.0, 0]]))
    out = tmp_path / "fc.json"
    argv = ["flatten-check", "--in", str(path), "--pair", "0", "1", "--out", str(out)]
    capsys.readouterr()
    assert dispatch(argv) == 1
    assert "membership 0; pass --a-min to truncate" in capsys.readouterr().err
    assert not out.exists()
    assert dispatch(argv + ["--a-min", "5e-324"]) == 1
    assert dispatch(argv + ["--a-min", "1e-3"]) == 0
    report = read_json(out)
    assert report["truncated"] and report["membership"] == 1e-3
    assert math.isfinite(report["grid_min_value"]) and math.isfinite(report["value_at_target"])


def test_rerun_reproduces_bit_identical(dist_csv, tmp_path):
    out = tmp_path / "emb.csv"
    assert dispatch([
        "embed", "--algo", "mmds", "--m", "2",
        "--in", str(dist_csv), "--out", str(out),
    ]) == 0
    rerun_dir = tmp_path / "rerun"
    assert dispatch([
        "rerun", str(out) + ".manifest.json", "--out-dir", str(rerun_dir),
    ]) == 0
    assert (rerun_dir / "emb.csv").read_bytes() == out.read_bytes()


def test_exit_codes_and_json_errors(tmp_path, capsys):
    # missing file -> validation (1)
    assert dispatch(["embed", "--algo", "mmds", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 1
    # malformed matrix -> validation (1), structured when asked
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n2,0\n")
    code = dispatch(["embed", "--algo", "mmds", "--in", str(bad),
                     "--out", str(tmp_path / "o.csv"), "--json-errors"])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "validation"
    # unknown flag -> validation (1)
    assert dispatch(["embed", "--frobnicate"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["embed", "--pipeline", "cluster"], "--pipeline wants 'cluster=STAGE,loss=STAGE'"),
    (["bench-dna", "--dim", "2,x"], "--dim wants comma-separated integers, got '2,x'"),
    (["bench-dna", "--algos", "foo"], "--algos: unknown algorithm 'foo'"),
    (["bench-dna", "--subs", "-1"], "substitutions per step must be in [0, 1000], got -1"),
    (["bench-dna", "--seed", "-3"], "seed must be >= 0, got -3"),
    (["embed", "--algo", "mmds", "--init", "random", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["embed", "--algo", "mmds", "--in", "DIR"], "Is a directory"),
    (["embed", "--algo", "mmds", "--config", "DIR"], "Is a directory"),
    (["embed", "--algo", "mmds", "--out", "DIR"], "Is a directory"),
    (["flatten-check", "--rel-tol", "0"], REL_TOL_REFUSED + "0.0"),
    (["flatten-check", "--rel-tol", "-1"], REL_TOL_REFUSED + "-1.0"),
    (["flatten-check", "--rel-tol", "1e-300"], REL_TOL_REFUSED + "1e-300"),
    (["flatten-check", "--rel-tol", "nan"], REL_TOL_REFUSED + "nan"),
    (["flatten-check", "--rel-tol", "inf"], REL_TOL_REFUSED + "inf"),
], ids=["pipeline-key-without-value", "dim-not-an-integer", "unknown-algo",
        "negative-subs", "negative-bench-seed", "negative-embed-seed",
        "in-is-a-directory", "config-is-a-directory", "out-is-a-directory",
        "zero-rel-tol", "negative-rel-tol", "rel-tol-below-quad-floor", "nan-rel-tol",
        "infinite-rel-tol"])
def test_a_malformed_option_value_exits_one(dist_csv, tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    directory = tmp_path / "dir"
    directory.mkdir()
    argv = [str(directory) if token == "DIR" else token for token in argv]
    if argv[0] in ("embed", "flatten-check") and "--in" not in argv:
        argv = argv + ["--in", str(dist_csv)]
    if "--out" not in argv:
        argv = argv + ["--out", str(out)]
    capsys.readouterr()
    assert dispatch(argv + ["--json-errors"]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "validation"
    assert message in payload["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, named, message", [
    (["embed", "--algo", "mmds", "--in", "LATIN1"], "LATIN1", "not UTF-8 text"),
    (["embed", "--algo", "mmds", "--input-kind", "seqs", "--in", "LATIN1"], "LATIN1",
     "not UTF-8 text"),
    (["embed", "--algo", "mmds", "--in", "DIST", "--config", "LATIN1"], "LATIN1", "not UTF-8 text"),
    (["rerun", "LATIN1"], "LATIN1", "not UTF-8 text"),
    (["rerun", "NOTJSON"], "NOTJSON", "invalid JSON"),
    (["interleave", "--a", "LATIN1", "--b", "LATIN1"], "LATIN1", "not UTF-8 text"),
], ids=["embed-in", "embed-in-seqs", "embed-config", "rerun", "rerun-not-json", "interleave-a"])
def test_an_undecodable_input_file_is_a_validation_error_naming_it(
    dist_csv, tmp_path, capsys, argv, named, message
):
    paths = {
        "LATIN1": tmp_path / "latin1.txt",
        "NOTJSON": tmp_path / "manifest.json",
        "DIST": dist_csv,
    }
    paths["LATIN1"].write_bytes(b"0,1\n1,0\n# caf\xe9\n")
    paths["NOTJSON"].write_text("{argv: [embed]}\n")
    out = tmp_path / "out.csv"
    argv = [str(paths.get(token, token)) for token in argv]
    if argv[0] == "embed":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert dispatch(argv) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith(f"coverembed: validation error: {paths[named]}: {message} (")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("ACGT\nACG\n", "sequence 1 has length 3, expected 4"),
    ("", "need at least one sequence"),
], ids=["ragged", "empty"])
def test_a_bad_sequence_file_is_a_validation_error_naming_it(tmp_path, capsys, text, message):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text(text)
    out = tmp_path / "emb.csv"
    capsys.readouterr()
    assert dispatch(["embed", "--algo", "mmds", "--input-kind", "seqs", "--in", str(seqs),
                     "--out", str(out), "--json-errors"]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert json.loads(line) == {"error": "validation", "message": f"{seqs}: {message}"}
    assert not out.exists()


def test_kpath_rejects_a_hop_bound_below_one_with_the_library_message(dist_csv, tmp_path, capsys):
    out = tmp_path / "emb.csv"
    for k in (0, -3):
        with pytest.raises(ValidationError) as exc:
            named_spec("kpath", 2, k)
        capsys.readouterr()
        assert dispatch(["embed", "--algo", "kpath", "--k", str(k),
                         "--in", str(dist_csv), "--out", str(out)]) == 1
        assert str(exc.value) == f"k must be >= 1, got {k}"
        assert f"validation error: {exc.value}\n" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_precedence(dist_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=3\nmax_iters=50\n")
    out = tmp_path / "emb.csv"
    # flag defaults are overridden by the config file
    assert dispatch([
        "embed", "--algo", "mmds", "--in", str(dist_csv),
        "--out", str(out), "--config", str(cfg),
    ]) == 0
    assert read_embedding_csv(out).coords.shape == (3, 3)
    # explicit flags beat the config file
    out2 = tmp_path / "emb2.csv"
    assert dispatch([
        "embed", "--algo", "mmds", "--m", "1", "--in", str(dist_csv),
        "--out", str(out2), "--config", str(cfg),
    ]) == 0
    assert read_embedding_csv(out2).coords.shape == (3, 1)


def test_config_file_loses_to_a_flag_at_its_default(dist_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=3\nmax-iters=50\n")
    out = tmp_path / "emb.csv"
    # --m 2 is the default value, and still spelled out on the command line
    assert dispatch([
        "embed", "--algo", "mmds", "--m", "2", "--in", str(dist_csv),
        "--out", str(out), "--config", str(cfg),
    ]) == 0
    assert read_embedding_csv(out).coords.shape == (3, 2)
    assert read_json(str(out) + ".manifest.json")["config"]["max_iters"] == 50


def test_config_file_key_that_names_no_option_exits_one(dist_csv, tmp_path, capsys):
    out = tmp_path / "emb.csv"
    for text in ("maxiters=5\n", "out=elsewhere.csv\nfunctor=sl\n"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert dispatch([
            "embed", "--algo", "mmds", "--in", str(dist_csv),
            "--out", str(out), "--config", str(cfg),
        ]) == 1
        assert "no option of 'embed'" in capsys.readouterr().err
        assert not out.exists()
    # a known key with a value its option cannot parse is a validation error too
    cfg.write_text("m=three\n")
    assert dispatch([
        "embed", "--algo", "mmds", "--in", str(dist_csv),
        "--out", str(out), "--config", str(cfg),
    ]) == 1


def test_stability_takes_the_common_io_flags(dist_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_iters=20\n")
    out = tmp_path / "stab.json"
    manifest = tmp_path / "stab.manifest.json"
    assert dispatch([
        "stability", "--algo", "sls", "--x", str(dist_csv), "--y", str(dist_csv),
        "--out", str(out), "--manifest", str(manifest),
        "--config", str(cfg), "--json-errors",
    ]) == 0
    config = read_json(manifest)["config"]
    assert config["max_iters"] == 20
    assert config["json_errors"] is True
    assert config["input_kind"] == "dist"


def test_numerical_failure_exits_two(tmp_path):
    # astronomically large targets overflow the stress at any start point
    huge = tmp_path / "huge.csv"
    write_distance_csv(huge, from_matrix([[0.0, 1e200], [1e200, 0.0]]))
    code = dispatch([
        "embed", "--algo", "mmds", "--m", "1", "--init", "random",
        "--in", str(huge), "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2


def test_embed_reads_sequences_and_points(tmp_path):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("ACGT\nACGA\nTTTT\n")
    out = tmp_path / "emb.csv"
    assert dispatch([
        "embed", "--algo", "sls", "--m", "2", "--input-kind", "seqs",
        "--in", str(seqs), "--out", str(out),
    ]) == 0
    assert read_embedding_csv(out).coords.shape == (3, 2)
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n3,4\n")
    assert dispatch([
        "embed", "--algo", "mmds", "--m", "1", "--input-kind", "points",
        "--in", str(pts), "--out", str(out),
    ]) == 0


@pytest.mark.parametrize("kind, text, message", [
    ("dist", "0,1,2\n1,0\n2,1,0\n", "rows of different lengths (2 to 3 cells)"),
    ("dist", "a,b\n0,1\n1,x\n", "non-numeric entry (could not convert string to float: 'x')"),
    ("points", "1,2\n3\n", "rows of different lengths (1 to 2 cells)"),
    ("points", "p,1,2\nq,3,y\n", "non-numeric entry (could not convert string to float: 'y')"),
], ids=["dist-ragged", "dist-non-numeric", "points-ragged", "points-non-numeric"])
def test_a_malformed_csv_is_one_json_validation_error(tmp_path, capsys, kind, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code = dispatch(["embed", "--algo", "mmds", "--input-kind", kind, "--in", str(bad),
                     "--out", str(tmp_path / "o.csv"), "--json-errors"])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "validation", "message": f"{bad}: {message}"}
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text, message", [
    ("a,1,2\nb,3\n", "rows of different lengths (1 to 2 cells)"),
    ("1,2\n3,z\n", "non-numeric entry (could not convert string to float: 'z')"),
], ids=["ragged", "non-numeric"])
def test_a_malformed_embedding_csv_is_a_validation_error(tmp_path, text, message):
    bad = tmp_path / "emb.csv"
    bad.write_text(text)
    with pytest.raises(ValidationError) as exc:
        read_embedding_csv(bad)
    assert str(exc.value) == f"{bad}: {message}"


def test_embed_reads_sequences_beyond_ascii(tmp_path):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("ACGÉ\nACGT\nTTTT\n", encoding="utf-8")
    out = tmp_path / "emb.csv"
    assert dispatch([
        "embed", "--algo", "mmds", "--m", "1", "--input-kind", "seqs",
        "--in", str(seqs), "--out", str(out),
    ]) == 0
    assert read_embedding_csv(out).labels == ("ACGÉ", "ACGT", "TTTT")


@pytest.mark.parametrize("text", ["A,CG\nACGT\nAAGT\n", "#ACG\nACGT\nAAGT\n", "1001\n1011\n0110\n"],
                         ids=["comma", "hash", "all-digits"])
def test_sequence_labels_that_would_not_read_back_are_dropped(tmp_path, text):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text(text)
    out = tmp_path / "emb.csv"
    assert dispatch([
        "embed", "--algo", "mmds", "--m", "2", "--input-kind", "seqs",
        "--in", str(seqs), "--out", str(out),
    ]) == 0
    emb = read_embedding_csv(out)
    assert emb.coords.shape == (3, 2)
    assert emb.labels is None


@pytest.mark.parametrize("labels, named", [
    (("A,CG", "ACGT"), "label 'A,CG'"),
    (("ACGT", "#ACG"), "label '#ACG'"),
    (("ACGT", " ACG"), "label ' ACG'"),
    (("1001", "1011", "0110", "1e3"), "labels '1001', '1011', '0110', ... (all read as numbers)"),
], ids=["comma", "hash", "whitespace", "all-numbers"])
def test_embedding_csv_refuses_labels_that_would_not_read_back(tmp_path, labels, named):
    out = tmp_path / "emb.csv"
    with pytest.raises(ValidationError) as exc:
        write_embedding_csv(out, Embedding(np.zeros((len(labels), 2)), labels))
    assert str(exc.value) == f"{out}: {named} would not read back from the CSV"
    assert not out.exists()


def test_embed_refuses_unreadable_labels_before_running_the_pipeline(
    tmp_path, monkeypatch, capsys
):
    import coverembed.cli as cli

    dist = tmp_path / "dist.csv"
    dist.write_text("a,#b,c\n0,1,3\n1,0,2\n3,2,0\n")

    def never(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr(cli, "run_pipeline", never)
    out = tmp_path / "emb.csv"
    capsys.readouterr()
    assert dispatch(["embed", "--algo", "mmds", "--in", str(dist), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"coverembed: validation error: {out}: label '#b' would not read back from the CSV\n"
    )
    assert list(tmp_path.iterdir()) == [dist]
    # reading such a file is fine: other subcommands still take it
    cover = tmp_path / "cover.json"
    assert dispatch(["cluster", "--functor", "sl", "--in", str(dist), "--out", str(cover)]) == 0
    assert read_hierarchy_json(cover).n == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("coverembed 0.1.0 build ")


def test_missing_algo_is_a_validation_error(dist_csv, tmp_path):
    assert dispatch([
        "embed", "--in", str(dist_csv), "--out", str(tmp_path / "o.csv"),
    ]) == 1


def test_malformed_cover_json_is_a_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert dispatch(["interleave", "--a", str(bad), "--b", str(bad)]) == 1
    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text('{"n": 2, "scales": [0.5], "covers": [{"n": 2, "blocks": [[0, 1]]}]}')
    # first scale must be 0: schema violation -> validation error
    assert dispatch(["interleave", "--a", str(schema_bad), "--b", str(schema_bad)]) == 1


@pytest.mark.parametrize("text, value", [
    ('{"n": 2, "scales": [0], "covers": [{"n": 2, "blocks": [["x"], [1]]}]}', "'x'"),
    ('{"n": 2, "scales": [0, "a"], "covers": [{"n": 2, "blocks": [[0], [1]]}, '
     '{"n": 2, "blocks": [[0, 1]]}]}', "'a'"),
    ('{"n": 2.9, "scales": [0], "covers": [{"n": 2, "blocks": [[0, 1]]}]}',
     "2.9 is not an integer"),
    ('{"n": 2, "scales": [0], "covers": [{"n": 2, "blocks": [[0, 1.5]]}]}',
     "1.5 is not an integer"),
    ('{"n": 2, "scales": [0], "covers": [{"n": true, "blocks": [[0, 1]]}]}',
     "True is not an integer"),
    ('{"n": -2, "scales": [0.0], "covers": [{"n": -2, "blocks": []}]}',
     "n=-2 is negative"),
], ids=["block-member", "scale", "fractional-n", "fractional-member", "boolean-n", "negative-n"])
def test_a_non_numeric_cover_json_value_is_a_validation_error_naming_it(tmp_path, capsys, text,
                                                                       value):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    capsys.readouterr()
    assert dispatch(["interleave", "--a", str(bad), "--b", str(bad), "--json-errors"]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "validation"
    assert payload["message"].endswith(value)


def test_build_hash_stable():
    assert build_hash() == build_hash()
    assert len(build_hash()) == 12


def test_seventeen_digit_round_trip(tmp_path):
    space = from_points_euclidean(np.random.default_rng(1).normal(size=(4, 2)))
    path = tmp_path / "d.csv"
    write_distance_csv(path, space)
    again = read_distance_csv(path)
    assert np.array_equal(again.d, space.d)


def test_flatten_check_membership_is_the_maximal_linkage_entry():
    # zero distances, ties, and two pairs whose exp(-d) underflows to 0
    d = np.array([
        [0.0, 0.0, 1.0, 800.0],
        [0.0, 0.0, 2.5, 2.5],
        [1.0, 2.5, 0.0, 746.0],
        [800.0, 2.5, 746.0, 0.0],
    ])
    rng = np.random.default_rng(3)
    spaces = [from_matrix(d), from_points_euclidean(rng.normal(size=(5, 2)))]
    for space in spaces:
        w = membership_matrix(cluster_hierarchy(space, "ml")).w
        for i in range(space.n):
            for j in range(space.n):
                if i == j:
                    continue
                if w[i, j] == 0.0:
                    with pytest.raises(ValidationError, match="membership 0"):
                        flatten_check_report(space, i, j)
                    report = flatten_check_report(space, i, j, a_min=1e-3)
                    assert report["membership"] == 1e-3 and report["truncated"]
                else:
                    assert flatten_check_report(space, i, j)["membership"] == w[i, j]
    assert membership_matrix(cluster_hierarchy(spaces[0], "ml")).w[0, 3] == 0.0


BENCH_TINY = ["--n", "3", "--m-steps", "3", "--len", "30", "--subs", "3",
              "--reps", "1", "--seed", "1", "--max-iters", "30"]


def test_config_flag_false_leaves_verbose_off_and_replays(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("verbose=false\njson_errors=false\n")
    argv = ["bench-dna", *BENCH_TINY, "--out", str(out), "--config", str(cfg)]
    assert dispatch(argv) == 0
    assert "rep 0" not in capsys.readouterr().err
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["config"]["verbose"] is False
    assert "--verbose" not in manifest["argv"] and "--config" not in manifest["argv"]
    assert dispatch(["rerun", str(out) + ".manifest.json",
                     "--out-dir", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "bench.csv").read_bytes() == out.read_bytes()
    cfg.write_text("verbose=true\n")
    assert dispatch(argv) == 0
    assert "rep 0" in capsys.readouterr().err
    for value in ("yes", "False", "1", ""):
        cfg.write_text(f"verbose={value}\n")
        assert dispatch(argv) == 1
        assert "want true or false" in capsys.readouterr().err


def test_rerun_replays_after_the_config_file_is_deleted(dist_csv, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=3\nmax_iters=40\n")
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--algo", "mmds", "--in", str(dist_csv),
                     "--out", str(out), "--config", str(cfg)]) == 0
    cfg.unlink()
    assert dispatch(["rerun", str(out) + ".manifest.json",
                     "--out-dir", str(tmp_path / "again")]) == 0
    assert read_json(str(out) + ".manifest.json")["argv"] == [
        "embed", "--m", "3", "--max-iters", "40", "--algo", "mmds",
        "--in", str(dist_csv), "--out", str(out),
    ]
    again = tmp_path / "again" / "emb.csv"
    assert again.read_bytes() == out.read_bytes()
    assert read_embedding_csv(again).coords.shape == (3, 3)


def test_json_errors_from_a_config_file_gives_a_json_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n2,0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("json_errors=true\n")
    assert dispatch(["embed", "--algo", "mmds", "--in", str(bad),
                     "--out", str(tmp_path / "o.csv"), "--config", str(cfg)]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "validation"


def test_config_keys_are_option_names(dist_csv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"in={dist_csv}\nalgo=mmds\nm=1\n")
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--out", str(out), "--config", str(cfg)]) == 0
    assert read_embedding_csv(out).coords.shape == (3, 1)
    cfg.write_text("len=20\npair=0 2\n")
    bench = tmp_path / "bench.csv"
    assert dispatch(["bench-dna", *BENCH_TINY, "--out", str(bench), "--config", str(cfg)]) == 1
    assert "no option of 'bench-dna': pair" in capsys.readouterr().err
    cfg.write_text("len=20\n")
    assert dispatch(["bench-dna", *BENCH_TINY, "--out", str(bench), "--config", str(cfg)]) == 0
    # the command line's --len 30 wins over the file
    assert read_json(str(bench) + ".manifest.json")["config"]["length"] == 30
    without_len = BENCH_TINY[:4] + BENCH_TINY[6:]
    assert dispatch(["bench-dna", *without_len,
                     "--out", str(bench), "--config", str(cfg)]) == 0
    assert read_json(str(bench) + ".manifest.json")["config"]["length"] == 20
    # a key is an option name, not the name it is stored under
    for text in ("length=20\n", f"infile={dist_csv}\n"):
        cfg.write_text(text)
        assert dispatch(["bench-dna", *BENCH_TINY, "--out", str(bench),
                         "--config", str(cfg)]) == 1
        assert "no option of 'bench-dna'" in capsys.readouterr().err
    cfg.write_text("pair=0 2\n")
    fc = tmp_path / "fc.json"
    assert dispatch(["flatten-check", "--in", str(dist_csv), "--out", str(fc),
                     f"--config={cfg}"]) == 0
    assert read_json(fc)["pair"] == [0, 2]


def test_rerun_redirects_every_output_spelling_under_out_dir(dist_csv, tmp_path):
    out = tmp_path / "emb.csv"
    trace = tmp_path / "trace.csv"
    manifest = tmp_path / "run.json"
    assert dispatch(["embed", "--algo", "sls", "--in", str(dist_csv), f"--out={out}",
                     "--trace-out", str(trace), f"--manifest={manifest}"]) == 0
    written = {path: path.read_bytes() for path in (out, trace)}
    for path in (out, trace):
        path.write_text("original\n")
    again = tmp_path / "again"
    assert dispatch(["rerun", str(manifest), "--out-dir", str(again)]) == 0
    for path, data in written.items():
        assert (again / path.name).read_bytes() == data
        assert path.read_text() == "original\n"
    argv = read_json(again / "run.json")["argv"]
    assert f"--out={again / 'emb.csv'}" in argv and str(again / "trace.csv") in argv


def test_an_abbreviated_option_exits_one(dist_csv, tmp_path):
    trace = tmp_path / "trace.csv"
    assert dispatch(["embed", "--algo", "sls", "--in", str(dist_csv),
                     "--out", str(tmp_path / "emb.csv"), "--trac", str(trace)]) == 1
    assert not trace.exists()


def test_rerun_of_a_manifest_without_argv_exits_one(dist_csv, tmp_path, capsys):
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--algo", "mmds", "--in", str(dist_csv), "--out", str(out)]) == 0
    manifest = read_json(str(out) + ".manifest.json")
    del manifest["argv"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert dispatch(["rerun", str(old), "--out-dir", str(tmp_path / "again")]) == 1
    assert "no 'argv'" in capsys.readouterr().err
    assert not (tmp_path / "again" / "emb.csv").exists()


def test_rerun_of_a_manifest_recording_threads_exits_one(dist_csv, tmp_path, capsys):
    out = tmp_path / "emb.csv"
    assert dispatch(["embed", "--algo", "mmds", "--in", str(dist_csv), "--out", str(out)]) == 0
    manifest = read_json(str(out) + ".manifest.json")
    manifest["argv"] += ["--threads", "4"]  # an option older versions took
    old = tmp_path / "old.json"
    write_json(old, manifest)
    capsys.readouterr()
    assert dispatch(["rerun", str(old), "--out-dir", str(tmp_path / "again")]) == 1
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err
    assert not (tmp_path / "again" / "emb.csv").exists()


def test_rerun_of_interleave_is_byte_identical(dist_csv, tmp_path):
    h1 = tmp_path / "h1.json"
    h2 = tmp_path / "h2.json"
    assert dispatch(["cluster", "--functor", "sl", "--in", str(dist_csv), "--out", str(h1)]) == 0
    assert dispatch(["cluster", "--functor", "ml", "--in", str(dist_csv), "--out", str(h2)]) == 0
    out = tmp_path / "il.json"
    assert dispatch(["interleave", "--a", str(h1), "--b", str(h2), "--out", str(out)]) == 0
    again = tmp_path / "again"
    assert dispatch(["rerun", str(out) + ".manifest.json", "--out-dir", str(again)]) == 0
    assert (again / "il.json").read_bytes() == out.read_bytes()


def test_stability_isomap_defaults_delta_to_the_larger_connectivity_radius(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 2, size=(6, 2))
    x, y = from_points_euclidean(pts), from_points_euclidean(pts + rng.uniform(-0.1, 0.1, (6, 2)))
    assert connectivity_radius(x) != connectivity_radius(y)
    paths = []
    for name, space in (("x.csv", x), ("y.csv", y)):
        paths += [tmp_path / name]
        write_distance_csv(paths[-1], space)
    argv = ["stability", "--algo", "isomap", "--x", str(paths[0]), "--y", str(paths[1])]
    delta = max(connectivity_radius(x), connectivity_radius(y))
    assert dispatch(argv + ["--out", str(tmp_path / "default.json")]) == 0
    assert dispatch(argv + ["--out", str(tmp_path / "explicit.json"),
                            "--delta", fmt(delta)]) == 0
    default = (tmp_path / "default.json").read_bytes()
    assert default == (tmp_path / "explicit.json").read_bytes()
    assert "loss_transfer" in json.loads(default)


def _no_constants(token):
    raise ValueError(f"non-JSON constant {token}")


def test_interleave_writes_an_infinite_epsilon_star_as_null(tmp_path, capsys):
    h = cluster_hierarchy(from_matrix(CHAIN), "ml")
    paths = [tmp_path / "ml.json", tmp_path / "head.json"]
    write_hierarchy_json(paths[0], h)
    write_hierarchy_json(paths[1], HierarchicalCover(3, h.scales[:2], h.covers[:2]))
    out = tmp_path / "il.json"
    capsys.readouterr()
    assert dispatch(["interleave", "--a", str(paths[0]), "--b", str(paths[1]),
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "inf"
    report = json.loads(out.read_text(), parse_constant=_no_constants)
    assert report["epsilon_star"] is None and report["witness"][2] is None
    manifest = str(out) + ".manifest.json"
    json.loads(open(manifest).read(), parse_constant=_no_constants)


def test_write_json_refuses_non_finite_numbers(tmp_path):
    for value in (math.inf, -math.inf, math.nan):
        path = tmp_path / "x.json"
        with pytest.raises(NumericalError, match="not JSON compliant"):
            write_json(path, {"a": [1.0, value]})
        assert not path.exists()
    write_json(path, {"a": [1.0, None]})
    assert json.loads(path.read_text(), parse_constant=_no_constants) == {"a": [1.0, None]}


def test_flatten_check_names_a_positive_membership_it_rejects(tmp_path, capsys):
    path = tmp_path / "far.csv"
    write_distance_csv(path, from_matrix([[0, 700.0], [700.0, 0]]))
    capsys.readouterr()
    assert dispatch(["flatten-check", "--in", str(path), "--pair", "0", "1"]) == 1
    err = capsys.readouterr().err
    assert (f"pair (0, 1) has membership {fmt(math.exp(-700.0))}, whose flattened loss "
            "is not finite on the grid, so it counts as membership 0; pass --a-min") in err
    with pytest.raises(ValidationError) as exc:
        flatten_check_report(from_matrix([[0, 800.0], [800.0, 0]]), 0, 1)
    assert str(exc.value) == "pair (0, 1) has membership 0; pass --a-min to truncate"


def test_embed_rejects_a_negative_delta_before_writing(dist_csv, tmp_path):
    out = tmp_path / "emb.csv"
    code = dispatch([
        "embed", "--algo", "isomap", "--delta", "-1",
        "--in", str(dist_csv), "--out", str(out),
    ])
    assert code == 1
    assert list(tmp_path.iterdir()) == [dist_csv]


def test_cluster_rejects_a_nan_delta_before_writing(dist_csv, tmp_path):
    out = tmp_path / "h.json"
    code = dispatch([
        "cluster", "--functor", "iso", "--delta", "nan", "--policy", "cap",
        "--in", str(dist_csv), "--out", str(out),
    ])
    assert code == 1
    assert list(tmp_path.iterdir()) == [dist_csv]
