"""Sequence-recombination benchmark: generate, mutate, embed, score.

Random base sequences are mutated step by step into mutation lists; all
sequences enter one Hamming-distance space; an embedding algorithm scores by
how often the last element of each list has its own original as Euclidean
nearest neighbor among the originals. The mutation model substitutes a fixed
number of distinct positions per step, each to a different base. The default
rate is 15% of the length: consecutive list elements stay far closer than
unrelated sequences (so chain-following methods collapse each list), while
the total drift after ten steps approaches the unrelated-sequence distance
(so raw-distance methods confuse originals in low dimensions). At 1% per
step every method scores perfectly and the benchmark separates nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .algorithms import PipelineSpec, build_problem
from .errors import ValidationError
from .metric import PseudometricSpace, hamming_matrix
from .optimize import Embedding, OptimizerConfig, classical_mds_init, minimize

ALPHABET = "ACGT"


def default_bench_pipelines(ms=(2, 5)) -> tuple[PipelineSpec, ...]:
    optimizer = OptimizerConfig(max_iters=500)
    specs = []
    for m in ms:
        specs.append(PipelineSpec("ml", "mds", m, optimizer=optimizer))
        specs.append(PipelineSpec("sl", "mds", m, optimizer=optimizer))
    return tuple(specs)


@dataclass(frozen=True)
class BenchConfig:
    n_lists: int = 100  # original sequences
    list_len: int = 10  # sequences per mutation list, element 0 = original
    seq_len: int = 1000
    subs_per_step: int | None = None  # default ceil(0.15 * seq_len)
    pipelines: tuple[PipelineSpec, ...] = field(default_factory=default_bench_pipelines)
    repetitions: int = 10
    seed: int = 7
    seeds: tuple[int, ...] | None = None  # overrides seed-derived streams

    def __post_init__(self):
        if self.n_lists < 1 or self.list_len < 1 or self.seq_len < 1:
            raise ValidationError("benchmark sizes must be positive")
        if self.repetitions < 1:
            raise ValidationError("need at least one repetition")
        if self.subs_per_step is not None and not 0 <= self.subs_per_step <= self.seq_len:
            raise ValidationError(
                f"substitutions per step must be in [0, {self.seq_len}], got {self.subs_per_step}"
            )
        for seed in (self.seed, *(self.seeds or ())):
            if seed < 0:
                raise ValidationError(f"seed must be >= 0, got {seed}")

    @property
    def substitutions(self) -> int:
        if self.subs_per_step is not None:
            return self.subs_per_step
        return int(np.ceil(0.15 * self.seq_len))

    def repetition_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            if len(self.seeds) != self.repetitions:
                raise ValidationError(
                    f"got {len(self.seeds)} seeds for {self.repetitions} repetitions"
                )
            return self.seeds
        children = np.random.SeedSequence(self.seed).spawn(self.repetitions)
        return tuple(int(c.generate_state(1, dtype=np.uint64)[0] >> 1) for c in children)


@dataclass(frozen=True, eq=False)
class DnaDataset:
    """codes[i*list_len + t] is element t of mutation list i (t=0: the original)."""

    codes: np.ndarray  # (n_lists * list_len, seq_len) uint8, values 0..3
    n_lists: int
    list_len: int

    def sequence(self, idx: int) -> str:
        return "".join(ALPHABET[c] for c in self.codes[idx])

    def original_index(self, list_idx: int) -> int:
        return list_idx * self.list_len

    def last_index(self, list_idx: int) -> int:
        return list_idx * self.list_len + self.list_len - 1

    def space(self) -> PseudometricSpace:
        return PseudometricSpace(hamming_matrix(self.codes))


def generate(cfg: BenchConfig, seed: int) -> DnaDataset:
    """Generate the mutation lists for one repetition, deterministically per seed."""
    subs = cfg.substitutions
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    total = cfg.n_lists * cfg.list_len
    codes = np.empty((total, cfg.seq_len), dtype=np.uint8)
    for i in range(cfg.n_lists):
        row = i * cfg.list_len
        codes[row] = rng.integers(0, 4, size=cfg.seq_len, dtype=np.uint8)
        for t in range(1, cfg.list_len):
            prev = codes[row + t - 1]
            cur = prev.copy()
            positions = rng.choice(cfg.seq_len, size=subs, replace=False)
            offsets = rng.integers(1, 4, size=subs, dtype=np.uint8)
            cur[positions] = (cur[positions] + offsets) % 4
            codes[row + t] = cur
    return DnaDataset(codes, cfg.n_lists, cfg.list_len)


@dataclass(frozen=True)
class AccuracyResult:
    value: float
    tie_lists: tuple[int, ...]  # lists whose nearest-original distance was tied

    def __float__(self):
        return self.value


def accuracy(embedding: Embedding | np.ndarray, dataset: DnaDataset) -> AccuracyResult:
    """Fraction of lists whose last element is embedded nearest its own original.

    Distance ties among originals break toward the smaller index and count as
    misses unless the tie set is exactly the true original.
    """
    coords = embedding.coords if isinstance(embedding, Embedding) else np.asarray(embedding)
    expected = dataset.n_lists * dataset.list_len
    if coords.shape[0] != expected:
        raise ValidationError(
            f"embedding rows ({coords.shape[0]}) misaligned with dataset ({expected})"
        )
    original_rows = coords[[dataset.original_index(i) for i in range(dataset.n_lists)]]
    hits = 0
    ties = []
    for i in range(dataset.n_lists):
        last = coords[dataset.last_index(i)]
        dist = np.sqrt(((original_rows - last) ** 2).sum(axis=1))
        best = dist.min()
        winners = np.flatnonzero(dist == best)
        if winners.size > 1:
            ties.append(i)
        if winners.size == 1 and winners[0] == i:
            hits += 1
    return AccuracyResult(hits / dataset.n_lists, tuple(ties))


@dataclass(frozen=True)
class BenchRow:
    pipeline: PipelineSpec
    accuracies: tuple[float, ...]
    mean: float
    std: float  # ddof=1; 0 by convention for a single repetition
    single_rep: bool
    ties_seen: int


@dataclass(frozen=True)
class BenchResult:
    config: BenchConfig
    rows: tuple[BenchRow, ...]
    seconds: float

    def row(self, cluster: str, m: int) -> BenchRow:
        for r in self.rows:
            if r.pipeline.cluster == cluster and r.pipeline.m == m:
                return r
        raise KeyError(f"no row for ({cluster!r}, m={m})")


def run_bench(cfg: BenchConfig, progress=None) -> BenchResult:
    """Run every pipeline on every repetition and aggregate accuracies.

    The classical initialization is computed once per distinct target matrix
    per repetition, for the largest embedding dimension that shares it; each
    pipeline takes its leading m columns. `progress(rep, spec, accuracy,
    result)`, when given, sees each scored `MinimizeResult`.
    """
    t_start = time.perf_counter()
    per_pipeline: list[list[float]] = [[] for _ in cfg.pipelines]
    tie_counts = [0 for _ in cfg.pipelines]
    for rep, seed in enumerate(cfg.repetition_seeds()):
        dataset = generate(cfg, seed)
        space = dataset.space()
        problems = [build_problem(space, spec) for spec in cfg.pipelines]
        init_cache: dict[tuple, np.ndarray] = {}
        for idx, (spec, problem) in enumerate(zip(cfg.pipelines, problems)):
            if spec.optimizer.init == "classical":
                key = (spec.cluster, spec.loss, spec.k, spec.delta, spec.policy)
                if key not in init_cache:
                    m_max = max(
                        s.m for s in cfg.pipelines
                        if (s.cluster, s.loss, s.k, s.delta, s.policy) == key
                    )
                    init_cache[key] = classical_mds_init(problem.init_targets(), m_max).coords
                coords = np.ascontiguousarray(init_cache[key][:, : spec.m])
                optimizer = replace(spec.optimizer, init="given", init_coords=coords)
            else:
                optimizer = replace(spec.optimizer, seed=spec.optimizer.seed + rep)
            result = minimize(problem, optimizer)
            acc = accuracy(result.embedding, dataset)
            per_pipeline[idx].append(acc.value)
            tie_counts[idx] += len(acc.tie_lists)
            if progress is not None:
                progress(rep, spec, acc.value, result)
    rows = []
    for spec, accs, ties in zip(cfg.pipelines, per_pipeline, tie_counts):
        arr = np.array(accs)
        single = len(accs) == 1
        rows.append(
            BenchRow(
                pipeline=spec,
                accuracies=tuple(accs),
                mean=float(arr.mean()),
                std=0.0 if single else float(arr.std(ddof=1)),
                single_rep=single,
                ties_seen=ties,
            )
        )
    return BenchResult(cfg, tuple(rows), time.perf_counter() - t_start)
