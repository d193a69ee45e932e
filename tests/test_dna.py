import numpy as np
import pytest

from coverembed import BenchConfig, OptimizerConfig, PipelineSpec, ValidationError, accuracy, generate, run_bench
from coverembed.dna import ALPHABET, DnaDataset
from coverembed.optimize import Embedding


def tiny_cfg(**kw):
    base = dict(
        n_lists=4,
        list_len=3,
        seq_len=40,
        subs_per_step=4,
        pipelines=(
            PipelineSpec("ml", "mds", 2, optimizer=OptimizerConfig(max_iters=150)),
            PipelineSpec("sl", "mds", 2, optimizer=OptimizerConfig(max_iters=150)),
        ),
        repetitions=2,
        seed=5,
    )
    base.update(kw)
    return BenchConfig(**base)


def test_generate_is_deterministic_per_seed():
    cfg = tiny_cfg()
    a = generate(cfg, 123)
    b = generate(cfg, 123)
    c = generate(cfg, 124)
    assert np.array_equal(a.codes, b.codes)
    assert not np.array_equal(a.codes, c.codes)


def test_generate_golden_sequences():
    # frozen from a seeded run; guards the generator against silent drift
    cfg = BenchConfig(n_lists=1, list_len=2, seq_len=4, subs_per_step=1,
                      repetitions=1, seed=0)
    ds = generate(cfg, 42)
    assert ds.sequence(0) == "GATA"
    assert ds.sequence(1) == "GATT"


def test_counting_and_shapes():
    cfg = tiny_cfg(n_lists=2, list_len=2)
    ds = generate(cfg, 7)
    assert ds.codes.shape == (4, 40)
    space = ds.space()
    assert space.n == 4


def test_single_substitution_drift_bound():
    cfg = BenchConfig(n_lists=3, list_len=6, seq_len=30, subs_per_step=1,
                      repetitions=1, seed=0)
    ds = generate(cfg, 9)
    space = ds.space()
    for i in range(cfg.n_lists):
        root = ds.original_index(i)
        for t in range(cfg.list_len):
            assert space.d[root, root + t] <= t


def test_consecutive_steps_change_exactly_subs_positions():
    cfg = tiny_cfg()
    ds = generate(cfg, 11)
    space = ds.space()
    for i in range(cfg.n_lists):
        row = ds.original_index(i)
        for t in range(1, cfg.list_len):
            assert space.d[row + t - 1, row + t] == cfg.substitutions


def test_mutations_always_change_the_base():
    cfg = tiny_cfg()
    ds = generate(cfg, 13)
    for i in range(cfg.n_lists):
        row = ds.original_index(i)
        for t in range(1, cfg.list_len):
            diff = ds.codes[row + t - 1] != ds.codes[row + t]
            assert diff.sum() == cfg.substitutions


def test_more_steps_never_get_closer_in_expectation():
    cfg = BenchConfig(n_lists=20, list_len=8, seq_len=60, subs_per_step=6,
                      repetitions=1, seed=0)
    ds = generate(cfg, 17)
    space = ds.space()
    means = []
    for t in range(1, cfg.list_len):
        dists = [
            space.d[ds.original_index(i), ds.original_index(i) + t]
            for i in range(cfg.n_lists)
        ]
        means.append(np.mean(dists))
    assert all(b >= a - 1.0 for a, b in zip(means, means[1:]))


def test_substitution_cap_validation():
    with pytest.raises(ValidationError):
        BenchConfig(seq_len=10, subs_per_step=11)
    with pytest.raises(ValidationError, match=r"must be in \[0, 10\], got -1"):
        BenchConfig(seq_len=10, subs_per_step=-1)
    # substituting every position at once is allowed
    cfg = BenchConfig(n_lists=1, list_len=2, seq_len=10, subs_per_step=10,
                      repetitions=1)
    ds = generate(cfg, 0)
    assert ds.space().d[0, 1] == 10.0


def test_negative_seeds_are_rejected():
    for kw in (dict(seed=-1), dict(repetitions=2, seeds=(0, -2))):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            BenchConfig(**kw)
    assert BenchConfig(repetitions=2, seed=0, seeds=(0, 1)).repetition_seeds() == (0, 1)


def test_default_substitution_rate():
    assert BenchConfig(seq_len=1000).substitutions == 150
    assert BenchConfig(seq_len=10).substitutions == 2


def test_accuracy_collapsed_lists_score_one():
    cfg = tiny_cfg()
    ds = generate(cfg, 19)
    coords = np.zeros((cfg.n_lists * cfg.list_len, 2))
    for i in range(cfg.n_lists):
        coords[i * cfg.list_len:(i + 1) * cfg.list_len] = [i * 10.0, 0.0]
    res = accuracy(Embedding(coords), ds)
    assert res.value == 1.0
    assert res.tie_lists == ()


def test_accuracy_all_coincident_is_tie_flagged_miss():
    cfg = tiny_cfg()
    ds = generate(cfg, 21)
    res = accuracy(Embedding(np.zeros((cfg.n_lists * cfg.list_len, 2))), ds)
    assert res.value == 0.0
    assert len(res.tie_lists) == cfg.n_lists


def test_accuracy_random_embeddings_near_chance():
    cfg = BenchConfig(n_lists=25, list_len=2, seq_len=10, subs_per_step=1,
                      repetitions=1, seed=0)
    ds = generate(cfg, 23)
    rng = np.random.default_rng(0)
    values = [
        accuracy(Embedding(rng.normal(size=(50, 2))), ds).value
        for _ in range(40)
    ]
    assert np.mean(values) == pytest.approx(1.0 / 25.0, abs=0.03)


def test_accuracy_alignment_check():
    cfg = tiny_cfg()
    ds = generate(cfg, 25)
    with pytest.raises(ValidationError, match="misaligned"):
        accuracy(Embedding(np.zeros((3, 2))), ds)


def test_run_bench_tiny_deterministic():
    cfg = tiny_cfg()
    a = run_bench(cfg)
    b = run_bench(cfg)
    assert [r.accuracies for r in a.rows] == [r.accuracies for r in b.rows]
    for row in a.rows:
        assert 0.0 <= row.mean <= 1.0
        assert len(row.accuracies) == cfg.repetitions
        assert not row.single_rep
    # rows are addressable by stage and dimension
    assert a.row("sl", 2).pipeline.cluster == "sl"
    with pytest.raises(KeyError):
        a.row("sl", 9)


def test_a_pipeline_result_does_not_depend_on_the_pipelines_before_it():
    # `cap` and `drop` share a stage but not a target matrix, so not an initialization
    def spec(policy):
        return PipelineSpec("iso", "mds", 2, delta=16.0, policy=policy,
                            optimizer=OptimizerConfig(max_iters=20))

    def drop_run(pipelines):
        coords = {}

        def keep(rep, s, acc, result):
            coords[s.policy] = result.embedding.coords

        cfg = BenchConfig(n_lists=6, list_len=4, seq_len=60, repetitions=1, pipelines=pipelines)
        return run_bench(cfg, progress=keep).rows[-1].accuracies, coords["drop"]

    after_cap = drop_run((spec("cap"), spec("drop")))
    alone = drop_run((spec("drop"),))
    assert after_cap[0] == alone[0]
    assert after_cap[1].tobytes() == alone[1].tobytes()


def test_run_bench_single_rep_std_zero_by_convention():
    cfg = tiny_cfg(repetitions=1)
    res = run_bench(cfg)
    for row in res.rows:
        assert row.std == 0.0
        assert row.single_rep


def test_explicit_seeds_override_stream():
    cfg = tiny_cfg(repetitions=2, seeds=(10, 11))
    res = run_bench(cfg)
    assert len(res.rows[0].accuracies) == 2
    with pytest.raises(ValidationError):
        tiny_cfg(repetitions=3, seeds=(1, 2)).repetition_seeds()


def test_alphabet_is_the_four_bases():
    assert ALPHABET == "ACGT"
    ds = DnaDataset(np.array([[0, 1, 2, 3]], dtype=np.uint8), 1, 1)
    assert ds.sequence(0) == "ACGT"
