"""The three benchmark workloads: input generation, one timed pass, and its gates.

Each workload calls the library's public functions in the order its CLI
subcommand or `run_bench` calls them, wrapping every call in a span named
after the module it enters. A pass returns its raw outputs; `gate` then
checks them and digests them outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from coverembed import cli
from coverembed.algorithms import PipelineSpec, build_problem, connectivity_radius
from coverembed.covers import membership_matrix, target_distances
from coverembed.dna import BenchConfig, accuracy, default_bench_pipelines, generate, run_bench
from coverembed.fileio import (
    fmt,
    read_embedding_csv,
    read_space,
    sha256_file,
    write_embedding_csv,
    write_hierarchy_json,
    write_json,
)
from coverembed.functors import cluster_hierarchy
from coverembed.graphs import bottleneck_matrix
from coverembed.metric import from_points_euclidean, isometry_epsilon
from coverembed.optimize import Embedding, OptimizerConfig, classical_mds_init, minimize
from coverembed.stability import interleaving_distance

from tracing import TracedProblem

# exp/log round trip of a membership strength: a few ulps of the scale
TARGET_RTOL = 1e-12
# slack of coverembed.stability.check_interleaving_bound
INTERLEAVE_SLACK = 1e-12


@dataclass
class PassOutput:
    ops: list[str]
    errors: dict[str, str] = field(default_factory=dict)  # op -> traceback
    data: dict = field(default_factory=dict)


@dataclass
class GateResult:
    attempted: int
    failures: list[str]
    digest: str
    loss_ratios: list[float]
    pipelines: list[dict]
    counters: dict[str, float]


def _problem(problem, tr):
    return TracedProblem(problem, tr) if tr.enabled else problem


def _embedding_text(coords: np.ndarray) -> str:
    return "\n".join(",".join(fmt(x) for x in row) for row in coords) + "\n"


def _pipeline_record(name: str, result) -> dict:
    return {
        "pipeline": name,
        "exit": result.exit_reason,
        "iters": result.n_iters,
        "accepted": len(result.trace) - 1,
        "init_loss": result.trace[0][1],
        "final_loss": result.loss,
    }


def _finish(out: PassOutput, failures: list[str], digest, loss_ratios, pipelines, counters):
    failures = [f"{op}: raised\n{tb}" for op, tb in out.errors.items()] + failures
    return GateResult(
        attempted=len(out.ops),
        failures=failures,
        digest=digest.hexdigest(),
        loss_ratios=loss_ratios,
        pipelines=pipelines,
        counters=counters,
    )


class DnaRecomb:
    name = "dna-recomb"
    why = (
        "criterion-3 sequence benchmark at 400 sequences: optimizer iterations dominate, "
        "eigensolver on the LAPACK path, no hierarchy built"
    )
    n_lists = 40

    def setup(self, seed: int, out_dir: Path):
        cfg = BenchConfig(
            n_lists=self.n_lists,
            pipelines=default_bench_pipelines((2, 5)),
            repetitions=1,
            seeds=(seed,),
        )
        return {"cfg": cfg, "seed": cfg.repetition_seeds()[0]}

    @staticmethod
    def _op(spec) -> str:
        return f"{spec.cluster}-m{spec.m}"

    def run_pass(self, inputs, tr, out_dir: Path) -> PassOutput:
        """One repetition in `run_bench` order, with its init cache."""
        cfg = inputs["cfg"]
        out = PassOutput(ops=[self._op(s) for s in cfg.pipelines])
        results = out.data
        try:
            with tr.span("dna.generate"):
                dataset = generate(cfg, inputs["seed"])
            with tr.span("metric.hamming"):
                space = dataset.space()
            problems = []
            for spec in cfg.pipelines:
                with tr.span("algorithms.targets"):
                    problems.append(build_problem(space, spec))
        except Exception:
            out.errors = {op: traceback.format_exc() for op in out.ops}
            return out
        init_cache: dict[tuple, np.ndarray] = {}
        for spec, problem in zip(cfg.pipelines, problems):
            op = self._op(spec)
            try:
                # run_bench's init cache: one eigensolve per target matrix,
                # whose top-m columns serve every m
                key = (spec.cluster, spec.loss, spec.k, spec.delta)
                if key not in init_cache:
                    m_max = max(
                        s.m for s in cfg.pipelines if (s.cluster, s.loss, s.k, s.delta) == key
                    )
                    with tr.span("optimize.init"):
                        init_cache[key] = classical_mds_init(problem.init_targets(), m_max).coords
                    tr.count("optimize.eigensolves")
                coords = np.ascontiguousarray(init_cache[key][:, : spec.m])
                optimizer = replace(spec.optimizer, init="given", init_coords=coords)
                with tr.span("optimize.minimize"):
                    result = minimize(_problem(problem, tr), optimizer)
                with tr.span("dna.accuracy"):
                    acc = accuracy(result.embedding, dataset)
                results[op] = (spec, result, acc.value)
            except Exception:
                out.errors[op] = traceback.format_exc()
        return out

    def gate(self, inputs, out: PassOutput) -> GateResult:
        """SLS beats MMDS at every m, and SLS accuracy is at least 0.8."""
        failures = []
        digest = hashlib.sha256()
        acc = {}
        loss_ratios, pipelines = [], []
        for op in out.ops:
            if op not in out.data:
                continue
            spec, result, value = out.data[op]
            acc[(spec.cluster, spec.m)] = value
            digest.update(f"{op} acc={value!r}\n".encode())
            digest.update(_embedding_text(result.embedding.coords).encode())
            loss_ratios.append(result.loss / result.trace[0][1])
            pipelines.append(_pipeline_record(op, result))
        for m in sorted({m for _, m in acc}):
            sls, mmds = acc.get(("sl", m)), acc.get(("ml", m))
            if sls is None or mmds is None:
                continue
            if not sls > mmds:
                failures.append(f"sl-m{m}: SLS accuracy {sls} does not beat MMDS {mmds}")
            if not sls >= 0.8:
                failures.append(f"sl-m{m}: SLS accuracy {sls} < 0.8")
        sls_accs = [v for (c, _), v in acc.items() if c == "sl"]
        mmds_accs = [v for (c, _), v in acc.items() if c == "ml"]
        counters = {
            "dna.sls_acc": float(np.mean(sls_accs)) if sls_accs else 0.0,
            "dna.mmds_acc": float(np.mean(mmds_accs)) if mmds_accs else 0.0,
        }
        return _finish(out, failures, digest, loss_ratios, pipelines, counters)

    def verify(self, inputs, out: PassOutput, out_dir: Path) -> list[str]:
        """The decomposed pass scores exactly what `run_bench` scores for this seed."""
        bench = run_bench(inputs["cfg"])
        failures = []
        for row in bench.rows:
            op = self._op(row.pipeline)
            mine = out.data[op][2] if op in out.data else None
            if mine != row.accuracies[0]:
                failures.append(f"{op}: pass accuracy {mine} != run_bench {row.accuracies[0]}")
        return failures


def swiss_roll(n: int, seed, noise: float = 0.05) -> np.ndarray:
    """Noisy 3-d swiss roll; `seed` is anything np.random.default_rng accepts."""
    rng = np.random.default_rng(seed)
    t = 1.5 * np.pi * (1.0 + 2.0 * rng.random(n))
    height = 21.0 * rng.random(n)
    pts = np.column_stack([t * np.cos(t), height, t * np.sin(t)])
    return pts + noise * rng.normal(size=(n, 3))


class EmbedRoll:
    name = "embed-roll"
    why = (
        "CLI embed of two 64-point swiss rolls with isomap, kpath, umap, mdsfuzzy: "
        "Jacobi eigensolver, fce loss, convergence exits, CSV read and write"
    )
    n = 64
    rolls = 2
    # CLI algorithm name -> --k flag (None: the algorithm takes no k)
    algos = (("isomap", None), ("kpath", 3), ("umap", None), ("mdsfuzzy", None))

    def setup(self, seed: int, out_dir: Path):
        rolls = []
        for r, child in enumerate(np.random.SeedSequence(seed).spawn(self.rolls)):
            points = out_dir / f"roll{r}.csv"
            with open(points, "w", encoding="utf-8") as fh:
                for row in swiss_roll(self.n, child):
                    fh.write(",".join(format(float(x), ".17g") for x in row) + "\n")
            rolls.append(points)
        specs = {}
        for algo, k_flag in self.algos:
            cluster, loss, k_rule = cli.ALGO_TABLE[algo]
            k = None
            if k_rule is not None:
                k = k_flag + 1 if k_rule == "hops" else k_flag
            # the CLI defaults of `coverembed embed`
            specs[algo] = PipelineSpec(
                cluster, loss, 2, k=k, optimizer=OptimizerConfig(max_iters=2000), policy="cap"
            )
        return {"rolls": rolls, "specs": specs}

    def _ops(self, inputs):
        for points in inputs["rolls"]:
            for algo, k_flag in self.algos:
                yield f"{points.stem}-{algo}", points, algo, k_flag

    def run_pass(self, inputs, tr, out_dir: Path) -> PassOutput:
        """`coverembed embed --input-kind points` per roll and algorithm."""
        out = PassOutput(ops=[op for op, *_ in self._ops(inputs)])
        for op, points, algo, _ in self._ops(inputs):
            spec = inputs["specs"][algo]
            try:
                with tr.span("fileio.read"):
                    space = read_space(points, "points")
                with tr.span("algorithms.targets"):
                    problem = build_problem(space, spec)
                with tr.span("optimize.init"):
                    coords = classical_mds_init(problem.init_targets(), spec.m).coords
                tr.count("optimize.eigensolves")
                optimizer = replace(spec.optimizer, init="given", init_coords=coords)
                with tr.span("optimize.minimize"):
                    result = minimize(_problem(problem, tr), optimizer)
                embedding = Embedding(result.embedding.coords, labels=space.labels)
                csv_path = out_dir / f"{op}.csv"
                with tr.span("fileio.write"):
                    write_embedding_csv(csv_path, embedding)
                with tr.span("fileio.read"):
                    input_digest = sha256_file(points)
                with tr.span("fileio.write"):
                    write_json(
                        str(csv_path) + ".manifest.json",
                        {
                            "inputs": {points.name: input_digest},
                            "final_loss": result.loss,
                            "exit_reason": result.exit_reason,
                        },
                    )
                out.data[op] = (result, csv_path)
            except Exception:
                out.errors[op] = traceback.format_exc()
        return out

    def gate(self, inputs, out: PassOutput) -> GateResult:
        """Finite coordinates, loss not above its initial value, CSV reads back exactly."""
        failures = []
        digest = hashlib.sha256()
        loss_ratios, pipelines = [], []
        written = 0
        for op in out.ops:
            if op not in out.data:
                continue
            result, csv_path = out.data[op]
            coords = result.embedding.coords
            init_loss = result.trace[0][1]
            if not np.isfinite(coords).all():
                failures.append(f"{op}: non-finite coordinates")
            if not result.loss <= init_loss:
                failures.append(f"{op}: final loss {result.loss} > initial {init_loss}")
            if not np.array_equal(read_embedding_csv(csv_path).coords, coords):
                failures.append(f"{op}: {csv_path.name} does not read back to the coordinates")
            data = csv_path.read_bytes()
            written += len(data) + Path(str(csv_path) + ".manifest.json").stat().st_size
            digest.update(f"{op}\n".encode() + data)
            loss_ratios.append(result.loss / init_loss)
            pipelines.append(_pipeline_record(op, result))
        return _finish(out, failures, digest, loss_ratios, pipelines, {"fileio.bytes_written": written})

    def verify(self, inputs, out: PassOutput, out_dir: Path) -> list[str]:
        """`coverembed embed` on the same files writes byte-identical embeddings."""
        failures = []
        for op, points, algo, k_flag in self._ops(inputs):
            cli_csv = out_dir / f"cli-{op}.csv"
            argv = ["embed", "--algo", algo, "--in", str(points)]
            argv += ["--input-kind", "points", "--out", str(cli_csv)]
            if k_flag is not None:
                argv += ["--k", str(k_flag)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch(argv)
            if code != 0:
                failures.append(f"{op}: coverembed embed exited {code}")
            elif op in out.data and cli_csv.read_bytes() != out.data[op][1].read_bytes():
                failures.append(f"{op}: coverembed embed output differs from the pass")
        return failures


def clustered_pair(n: int, seed, radius: float = 0.025):
    """Four Gaussian clusters at the corners of a 3 x 3 square, and a copy with
    each point moved by at most `radius`, so every distance changes by <= 2 * radius.

    The corners are fixed so that the seed varies the points but not the
    cluster layout, which sets how much clique and interleaving work there is.
    `seed` is anything np.random.default_rng accepts.
    """
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0]])
    x = corners[np.arange(n) % 4] + 0.3 * rng.normal(size=(n, 2))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radius * np.sqrt(rng.random(n))
    y = x + np.column_stack([r * np.cos(angle), r * np.sin(angle)])
    return x, y


class CoverStability:
    name = "cover-stability"
    why = (
        "six functor hierarchies on three pairs of 18 clustered points and 0.05-perturbed "
        "copies, memberships and interleavings: threshold-graph code, no optimizer"
    )
    n = 18
    pairs = 3
    # k-vertex-connected subgraphs are exponential in n, and their cost swings
    # most between inputs: at 16 points it ranged 0.5-1.8 s per pass
    vlk_n = 12
    stages = ("sl", "ml", "lk", "fuzzy", "iso", "vlk")

    def setup(self, seed: int, out_dir: Path):
        children = np.random.SeedSequence(seed).spawn(self.pairs)
        return {"pairs": [clustered_pair(self.n, child) for child in children]}

    def run_pass(self, inputs, tr, out_dir: Path) -> PassOutput:
        """Per pair: `coverembed cluster` on both spaces per functor, then `interleave`."""
        out = PassOutput(ops=[f"pair{p}-{s}" for p in range(self.pairs) for s in self.stages])
        for p, (x_pts, y_pts) in enumerate(inputs["pairs"]):
            try:
                with tr.span("metric.points"):
                    x = from_points_euclidean(x_pts)
                    y = from_points_euclidean(y_pts)
                    x_small = from_points_euclidean(x_pts[: self.vlk_n])
                    y_small = from_points_euclidean(y_pts[: self.vlk_n])
                with tr.span("algorithms.radius"):
                    delta = 1.5 * connectivity_radius(x)
            except Exception:
                for stage in self.stages:
                    out.errors[f"pair{p}-{stage}"] = traceback.format_exc()
                continue
            params = {
                "sl": {},
                "ml": {},
                "lk": {"k": 3},
                "fuzzy": {},
                "iso": {"delta": delta, "disconnected": "cap"},
                "vlk": {"k": 2},
            }
            for stage in self.stages:
                op = f"pair{p}-{stage}"
                a, b = (x_small, y_small) if stage == "vlk" else (x, y)
                try:
                    with tr.span(f"functors.{stage}"):
                        ha = cluster_hierarchy(a, stage, **params[stage])
                        hb = cluster_hierarchy(b, stage, **params[stage])
                    with tr.span("covers.membership"):
                        targets = target_distances(membership_matrix(ha))
                        membership_matrix(hb)
                    with tr.span("stability.interleave"):
                        report = interleaving_distance(ha, hb)
                    path = out_dir / f"cover-{op}.json"
                    with tr.span("fileio.write"):
                        write_hierarchy_json(path, ha)
                    out.data[op] = (stage, a, b, ha, hb, targets, report, path)
                except Exception:
                    out.errors[op] = traceback.format_exc()
        return out

    def gate(self, inputs, out: PassOutput) -> GateResult:
        """SL targets are the bottleneck matrix, ML targets the distances, and the
        SL and ML interleaving distances stay within the input perturbation."""
        failures = []
        digest = hashlib.sha256()
        counters = {"covers.blocks": 0, "stability.candidates": 0, "fileio.bytes_written": 0}
        counters.update({f"functors.scales.{s}": 0 for s in self.stages})
        for op in out.ops:
            if op not in out.data:
                continue
            stage, a, b, ha, hb, targets, report, path = out.data[op]
            reference = {"sl": lambda: bottleneck_matrix(a.d), "ml": lambda: a.d}.get(stage)
            if reference is not None:
                if not np.allclose(targets, reference(), rtol=TARGET_RTOL, atol=0.0):
                    failures.append(f"{op}: targets differ from the closed form")
                eps = isometry_epsilon(a, b)
                if not report.epsilon_star <= eps + INTERLEAVE_SLACK:
                    failures.append(f"{op}: eps* {report.epsilon_star} > eps {eps}")
            data = path.read_bytes()
            digest.update(f"{op} eps*={report.epsilon_star!r}\n".encode() + data)
            counters[f"functors.scales.{stage}"] += len(ha.scales) + len(hb.scales)
            counters["covers.blocks"] += sum(len(c.blocks) for h in (ha, hb) for c in h.covers)
            counters["stability.candidates"] += len(report.candidates)
            counters["fileio.bytes_written"] += len(data)
        return _finish(out, failures, digest, [], [], counters)

    def verify(self, inputs, out: PassOutput, out_dir: Path) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (DnaRecomb(), EmbedRoll(), CoverStability())}


def hierarchy_sweep(seed: int) -> dict[str, float]:
    """Hierarchy construction time across sizes: SL at n=50,100, ML at n=30,40,50."""
    out = {}
    for stage, sizes in (("sl", (50, 100)), ("ml", (30, 40, 50))):
        for n in sizes:
            space = from_points_euclidean(clustered_pair(n, seed)[0])
            t0 = time.perf_counter()
            cluster_hierarchy(space, stage)
            out[f"sweep.{stage}.n{n}_s"] = time.perf_counter() - t0
    return out


def geometric_mean(values) -> float:
    """exp(mean(log v)); 1 for an empty list (no pipeline ran an optimizer)."""
    values = list(values)
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
