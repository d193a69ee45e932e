"""coverembed benchmark runner.

    python3 perfbench/run.py --workload dna-recomb --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory, never from an installed copy. The runner is a
single-process closed loop: each pass starts when the previous one returns.
It repeats the workload's pass on the inputs made from --seed until
--seconds have gone by (at least MIN_PASSES times), checks every pass, and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 alternates traced and untraced passes and reports the
per-layer metrics. Human-readable detail goes to the lines before it, and
outputs, spans and results go to .bench_out/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # each of traced and untraced, in a traced run
SETUP_PROBES = 3
RUN_BUDGET_S = 150.0  # start no pass that could push the run past this

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "loss_ratio": "ratio",
}

LAYER_SELF = ("metric", "algorithms", "functors", "covers", "optimize", "loss", "stability", "dna", "fileio")
STAGES = ("sl", "ml", "lk", "vlk", "iso", "fuzzy")
EXITS = ("max_iters", "converged", "step_underflow", "stationary")
# span name -> per-layer self-time metric
OP_SPANS = {
    "metric.hamming": "metric.hamming_s",
    "algorithms.targets": "algorithms.targets_s",
    "optimize.init": "optimize.init_s",
    "optimize.minimize": "optimize.minimize_s",
    "covers.membership": "covers.membership_s",
    "stability.interleave": "stability.interleave_s",
    "dna.generate": "dna.generate_s",
    "dna.accuracy": "dna.accuracy_s",
    "fileio.read": "fileio.read_s",
    "fileio.write": "fileio.write_s",
    **{f"functors.{s}": f"functors.{s}_s" for s in STAGES},
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    **{metric: "s" for metric in OP_SPANS.values()},
    "optimize.eigensolves": "count",
    "optimize.iters": "count",
    "optimize.iter_ms": "ms",
    **{f"optimize.exit.{e}": "count" for e in EXITS},
    "loss.loss_calls": "count",
    "loss.grad_calls": "count",
    "loss.loss_ms": "ms",
    "loss.grad_ms": "ms",
    "loss.ls_rejects": "count",
    "loss.accept_ratio": "ratio",
    "loss.pairs_per_s": "1/s",
    **{f"functors.scales.{s}": "count" for s in STAGES},
    **{f"functors.graphs.{s}": "count" for s in STAGES},
    "functors.graphs_built": "count",
    "functors.useful_scale_ratio": "ratio",
    "covers.blocks": "count",
    "stability.candidates": "count",
    "dna.sls_acc": "ratio",
    "dna.mmds_acc": "ratio",
    "fileio.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.plain_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.glue_s": "s",
    "trace.spans": "count",
    "sweep.sl.n50_s": "s",
    "sweep.sl.n100_s": "s",
    "sweep.ml.n30_s": "s",
    "sweep.ml.n40_s": "s",
    "sweep.ml.n50_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="coverembed benchmark")
    p.add_argument("--workload", required=True, choices=("dna-recomb", "embed-roll", "cover-stability"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas():
    """Fix the BLAS thread count before numpy loads; LAPACK output depends on it."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned environment value."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def source_digest() -> str:
    """Digest of the library sources and of the benchmark that makes its inputs."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "coverembed").rglob("*.py"))
    files += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_setup(args) -> list[float]:
    """Wall time of fresh interpreters that import the library and make the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


class GraphCounter:
    """Counts threshold graphs the functors build, while installed (traced passes
    only), per functor: under "functors.graphs.<stage>" of the open functors span."""

    def __init__(self, tracer):
        import coverembed.functors as functors

        self.module = functors
        self.original = getattr(functors, "threshold_neighbors", None)
        self.tracer = tracer

    def __enter__(self):
        if self.original is not None:
            original, tracer = self.original, self.tracer

            def counted(*args, **kwargs):
                stage = (tracer.current() or "").removeprefix("functors.")
                tracer.count(f"functors.graphs.{stage}")
                return original(*args, **kwargs)

            self.module.threshold_neighbors = counted
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            self.module.threshold_neighbors = self.original


def run_passes(wl, inputs, out_dir, traced_run: bool, seconds: float, t_start: float):
    """Closed loop of passes for `seconds` after the loop starts, and within
    RUN_BUDGET_S of `t_start`; in a traced run even passes are traced, odd ones plain.

    Each pass is gated as soon as it ends, and its outputs are dropped and the
    garbage collected before the next one starts, so every pass begins from
    the same heap. Returns the walls, traced flags, gate results, the first
    pass's output and the tracer.
    """
    from tracing import ROOT as ROOT_SPAN, NullTracer, Tracer

    tracer = Tracer() if traced_run else None
    plain = NullTracer()
    walls, flags, gates = [], [], []
    first = None
    t_loop = time.perf_counter()
    while True:
        gc.collect()
        traced = traced_run and len(walls) % 2 == 0
        if traced:
            tracer.pass_id = len(walls)
            with GraphCounter(tracer):
                t0 = time.perf_counter()
                with tracer.span(ROOT_SPAN):
                    out = wl.run_pass(inputs, tracer, out_dir)
                wall = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            out = wl.run_pass(inputs, plain, out_dir)
            wall = time.perf_counter() - t0
        walls.append(wall)
        flags.append(traced)
        gates.append(wl.gate(inputs, out))
        if first is None:
            first = out
        del out
        n_traced = sum(flags)
        enough = (
            min(n_traced, len(walls) - n_traced) >= MIN_TRACED_PASSES
            if traced_run
            else len(walls) >= MIN_PASSES
        )
        if enough and time.perf_counter() - t_loop >= seconds:
            break
        if time.perf_counter() - t_start + 3 * max(walls) > RUN_BUDGET_S:
            break
    return walls, flags, gates, first, tracer


def layer_metrics(tracer, walls, flags, gates) -> dict[str, float]:
    """Per-layer metrics averaged over the traced passes of a run."""
    from tracing import ROOT as ROOT_SPAN

    per_pass = []
    plain_walls = [w for w, t in zip(walls, flags) if not t]
    for idx, (wall, traced, gate) in enumerate(zip(walls, flags, gates)):
        if not traced:
            continue
        own = tracer.self_times(idx)
        total = tracer.total_times(idx)
        calls = tracer.span_counts(idx)
        counts = tracer.counts[idx]
        m = {name: 0.0 for name in PER_LAYER}
        for name, seconds in own.items():
            layer = name.split(".", 1)[0]
            if f"{layer}.self_s" in m:
                m[f"{layer}.self_s"] += seconds
            if name in OP_SPANS:
                m[OP_SPANS[name]] += seconds
        m["trace.glue_s"] = own.get(ROOT_SPAN, 0.0)
        m["trace.wall_s"] = wall
        m["trace.spans"] = sum(calls.values())
        m["optimize.eigensolves"] = counts.get("optimize.eigensolves", 0.0)
        iters = sum(p["iters"] for p in gate.pipelines)
        accepted = sum(p["accepted"] for p in gate.pipelines)
        m["optimize.iters"] = iters
        if iters:
            m["optimize.iter_ms"] = 1e3 * total.get("optimize.minimize", 0.0) / iters
        for p in gate.pipelines:
            if f"optimize.exit.{p['exit']}" in m:
                m[f"optimize.exit.{p['exit']}"] += 1
        loss_calls = calls.get("loss.loss", 0)
        grad_calls = calls.get("loss.grad", 0)
        m["loss.loss_calls"] = loss_calls
        m["loss.grad_calls"] = grad_calls
        if loss_calls:
            m["loss.loss_ms"] = 1e3 * total["loss.loss"] / loss_calls
            m["loss.ls_rejects"] = loss_calls - len(gate.pipelines) - accepted
            m["loss.accept_ratio"] = accepted / loss_calls
        if grad_calls:
            m["loss.grad_ms"] = 1e3 * total["loss.grad"] / grad_calls
        if m["loss.self_s"] > 0:
            m["loss.pairs_per_s"] = counts.get("loss.pairs", 0.0) / m["loss.self_s"]
        for key, value in gate.counters.items():
            m[key] = float(value)
        for s in STAGES:
            m[f"functors.graphs.{s}"] = counts.get(f"functors.graphs.{s}", 0.0)
        graphs = sum(m[f"functors.graphs.{s}"] for s in STAGES)
        scales = sum(m[f"functors.scales.{s}"] for s in STAGES)
        m["functors.graphs_built"] = graphs
        m["functors.useful_scale_ratio"] = scales / graphs if graphs else 1.0
        per_pass.append(m)
    out = {name: statistics.fmean(p[name] for p in per_pass) for name in PER_LAYER}
    out["trace.plain_wall_s"] = statistics.fmean(plain_walls) if plain_walls else 0.0
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.plain_wall_s"]
    return out


class Ledger:
    """Output digest and verification state per (workload, seed, source digest).

    Kept in the checkout across runs, so that runs of one source tree must
    agree with each other and the equivalence check runs once per seed.
    """

    def __init__(self, path: Path, workload: str, seed: int):
        self.path = path
        self.key = f"{workload} seed={seed} src={source_digest()}"
        self.entries = json.loads(path.read_text()) if path.exists() else {}
        self.entry = self.entries.setdefault(self.key, {})

    def check_digests(self, gates) -> list[str]:
        digests = sorted({g.digest for g in gates})
        if len(digests) != 1:
            return [f"passes disagree: {len(digests)} distinct output digests {digests}"]
        seen = self.entry.setdefault("digest", digests[0])
        if seen != digests[0]:
            return [f"output digest {digests[0]} differs from an earlier run's {seen}"]
        return []

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "coverembed" / "__init__.py").is_file():
        print(f"run.py: no coverembed sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.spatial.distance  # noqa: F401  (the loss imports it on first use)
    import coverembed
    from workloads import WORKLOADS, geometric_mean, hierarchy_sweep

    if not Path(coverembed.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"run.py: imported coverembed from {coverembed.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_root = ROOT / ".bench_out"
    out_dir = out_root / wl.name / ("probe" if args.setup_probe else f"seed{args.seed}-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = wl.setup(args.seed, out_dir)
    if args.setup_probe:
        return 0

    setup_samples = [] if args.trace else measure_setup(args)
    facts = machine_facts()
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    t_loop = time.perf_counter()
    walls, flags, gates, first, tracer = run_passes(
        wl, inputs, out_dir, bool(args.trace), args.seconds, t_start
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f for g in gates for f in g.failures]
    attempted = sum(g.attempted for g in gates)
    failed = sum(len({f.split(":", 1)[0] for f in g.failures}) for g in gates)
    ledger = Ledger(out_root / "ledger.json", wl.name, args.seed)
    checks = {"digest": ledger.check_digests(gates)}
    if not ledger.entry.get("verified"):
        checks["verify"] = wl.verify(inputs, first, out_dir)
        ledger.entry["verified"] = not checks["verify"]
    if not failures and not any(checks.values()):
        ledger.save()
    for name, found in checks.items():
        attempted += 1
        if found:
            failed += 1
            failures += [f"{name}: {f}" for f in found]
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)

    plain_walls = [w for w, t in zip(walls, flags) if not t]
    q1, q3 = quartiles(plain_walls)
    print(f"passes: {len(walls)} ({sum(flags)} traced) in {time.perf_counter() - t_loop:.1f} s; "
          f"untraced wall_s median {statistics.median(plain_walls):.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f} n={len(plain_walls)}")
    for p in gates[0].pipelines:
        print(f"pipeline {p['pipeline']}: exit={p['exit']} iters={p['iters']} "
              f"loss {p['init_loss']:.6g} -> {p['final_loss']:.6g}")
    print(f"digest: {gates[0].digest} failures: {failed}/{attempted}")

    if args.trace:
        values = layer_metrics(tracer, walls, flags, gates)
        values.update(hierarchy_sweep(args.seed))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        tracer.dump(out_dir / "spans.jsonl")
    else:
        values = {
            "wall_s": statistics.median(plain_walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
            "loss_ratio": statistics.median(geometric_mean(g.loss_ratios) for g in gates),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, machine=facts, workload=wl.name, seed=args.seed,
                  pass_walls=walls, traced_passes=flags, setup_samples=setup_samples,
                  pipelines=gates[0].pipelines, digest=gates[0].digest, failures=failures)
    (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
