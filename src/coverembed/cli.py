"""Command-line interface: embed, cluster, interleave, stability, bench-dna,
flatten-check, rerun.

Every run is one argv: `--config FILE` expands into options before parsing.
Each run writes a manifest next to its primary output recording that argv, the
resolved configuration, input digests, and seeds; `rerun` replays the argv and
reproduces the outputs byte for byte. All numeric text is printed with 17
significant digits. Every computation is sequential, so the BLAS thread count
never changes an output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import ALGO_TABLE, PipelineSpec, named_spec, run_pipeline
from .dna import BenchConfig, run_bench
from .errors import NumericalError, ValidationError
from .fileio import (
    check_embedding_labels,
    fmt,
    read_hierarchy_json,
    read_json,
    read_space,
    read_text,
    sha256_file,
    write_bench_csv,
    write_embedding_csv,
    write_hierarchy_json,
    write_json,
    write_trace_csv,
)
from .functors import CLUSTER_STAGES, cluster_hierarchy, connectivity_radius
from .loss import TARGET_POLICIES, FuzzyLossFamily, check_quadrature, flatten
from .metric import PseudometricSpace
from .optimize import Embedding, OptimizerConfig
from .stability import check_interleaving_bound, check_loss_transfer, interleaving_distance

def build_hash() -> str:
    digest = hashlib.sha256()
    pkg = Path(__file__).parent
    for src in sorted(pkg.glob("*.py")):
        digest.update(src.name.encode())
        digest.update(src.read_bytes())
    return digest.hexdigest()[:12]


class CliParser(argparse.ArgumentParser):
    """Takes options by exact name only, so `rerun` finds every output option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(message)


def _spec_from_args(args) -> PipelineSpec:
    fields = dict(
        delta=args.delta,
        optimizer=OptimizerConfig(max_iters=args.max_iters, seed=args.seed, init=args.init),
        policy=args.policy,
    )
    if args.pipeline:
        parts = dict(part.partition("=")[::2] for part in args.pipeline.split(","))
        cluster = parts.pop("cluster", "")
        loss = parts.pop("loss", "mds")
        if not cluster or parts:
            raise ValidationError("--pipeline wants 'cluster=STAGE,loss=STAGE'")
        return PipelineSpec(cluster, loss, args.m, k=args.k, **fields)
    if args.algo is None:
        raise ValidationError("need --algo or --pipeline")
    return named_spec(args.algo, args.m, args.k, **fields)


def _write_manifest(args, subcommand, inputs, outputs, extra=None):
    """Write the run's manifest, by default next to its first output."""
    entry = {
        "tool": "coverembed",
        "version": __version__,
        "build": build_hash(),
        "subcommand": subcommand,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "manifest", "argv", "config")
            and isinstance(v, (str, int, float, bool, type(None), list, tuple))
        },
        "argv": args.argv,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        **(extra or {}),
    }
    write_json(args.manifest or str(outputs[0]) + ".manifest.json", entry)


def cmd_embed(args):
    space = read_space(args.infile, args.input_kind)
    spec = _spec_from_args(args)
    check_embedding_labels(args.out, space.labels)  # before the run, not after it
    embedding, report = run_pipeline(spec, space)
    write_embedding_csv(args.out, embedding)
    outputs = [args.out]
    if args.trace_out:
        write_trace_csv(args.trace_out, report.trace)
        outputs.append(args.trace_out)
    _write_manifest(
        args,
        "embed",
        [args.infile],
        outputs,
        extra={
            "final_loss": report.final_loss,
            "exit_reason": report.exit_reason,
            "n_iters": report.n_iters,
            "target_summary": report.target_summary,
        },
    )
    print(
        f"embed: {args.algo or args.pipeline} n={space.n} m={spec.m} "
        f"loss={fmt(report.final_loss)} exit={report.exit_reason}"
    )
    return 0


def cmd_cluster(args):
    space = read_space(args.infile, args.input_kind)
    h = cluster_hierarchy(
        space, args.functor, k=args.k, delta=args.delta,
        disconnected="cap" if args.policy == "cap" else "error",
    )
    write_hierarchy_json(args.out, h)
    _write_manifest(args, "cluster", [args.infile], [args.out])
    print(f"cluster: {args.functor} n={space.n} scales={len(h.scales)}")
    return 0


def _finite_or_null(x: float) -> float | None:
    """JSON has no infinity: an infinite value is written as null."""
    return x if math.isfinite(x) else None


def cmd_interleave(args):
    h1 = read_hierarchy_json(args.a)
    h2 = read_hierarchy_json(args.b)
    report = interleaving_distance(h1, h2)
    print(fmt(report.epsilon_star))
    if args.out:
        write_json(
            args.out,
            {
                "epsilon_star": _finite_or_null(report.epsilon_star),
                "candidates": list(report.candidates),
                "witness": list(report.witness),
            },
        )
        _write_manifest(args, "interleave", [args.a, args.b], [args.out])
    return 0


def cmd_stability(args):
    x = read_space(args.x, args.input_kind)
    y = read_space(args.y, args.input_kind)
    spec = _spec_from_args(args)
    if spec.cluster == "iso" and spec.delta is None:
        # one delta for both spaces, at which both threshold graphs are connected
        spec = replace(spec, delta=max(connectivity_radius(x), connectivity_radius(y)))

    def stage(space):
        return cluster_hierarchy(space, spec.cluster, k=spec.k, delta=spec.delta,
                                 disconnected="cap")

    shift = check_interleaving_bound(stage, x, y)
    payload = {
        "epsilon": shift.epsilon,
        "interleaving": {
            "epsilon_star": _finite_or_null(shift.epsilon_star),
            "passed": shift.passed,
        },
    }
    if spec.loss == "mds":
        payload["loss_transfer"] = asdict(check_loss_transfer(spec, x, y))
    write_json(args.out, payload)
    _write_manifest(args, "stability", [args.x, args.y], [args.out])
    verdicts = [payload["interleaving"]["passed"]]
    if "loss_transfer" in payload:
        verdicts.append(payload["loss_transfer"]["passed"])
    print(f"stability: eps={fmt(shift.epsilon)} eps*={fmt(shift.epsilon_star)} "
          f"pass={all(verdicts)}")
    return 0


def cmd_bench_dna(args):
    try:
        dims = [int(v) for v in args.dim.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--dim wants comma-separated integers, got {args.dim!r}") from exc
    algos = [a.strip() for a in args.algos.split(",")]
    optimizer = OptimizerConfig(max_iters=args.max_iters)
    pipelines = []
    for m in dims:
        for algo in algos:
            if algo not in ALGO_TABLE:
                raise ValidationError(
                    f"--algos: unknown algorithm {algo!r}; choose from {', '.join(ALGO_TABLE)}"
                )
            if ALGO_TABLE[algo][2] is not None:
                raise ValidationError(f"benchmark does not take parametric algo {algo!r}")
            pipelines.append(named_spec(algo, m, optimizer=optimizer))
    cfg = BenchConfig(
        n_lists=args.n,
        list_len=args.m_steps,
        seq_len=args.length,
        subs_per_step=args.subs,
        pipelines=tuple(pipelines),
        repetitions=args.reps,
        seed=args.seed,
    )
    outputs = [args.out]
    labels = tuple(f"list{i // cfg.list_len}_step{i % cfg.list_len}"
                   for i in range(cfg.n_lists * cfg.list_len))

    def progress(rep, spec, acc, result):
        if args.verbose:
            print(f"  rep {rep}: {spec.cluster}/{spec.loss} m={spec.m} acc={acc:.3f}",
                  file=sys.stderr)
        if args.embeddings_out and rep == 0:
            path = f"{args.embeddings_out}_{spec.cluster}_{spec.loss}_m{spec.m}.csv"
            write_embedding_csv(path, Embedding(result.embedding.coords, labels))
            outputs.append(path)

    result = run_bench(cfg, progress=progress)
    write_bench_csv(args.out, result)
    _write_manifest(args, "bench-dna", [], outputs)
    for row in result.rows:
        print(
            f"{row.pipeline.cluster}/{row.pipeline.loss} m={row.pipeline.m}: "
            f"mean={row.mean:.3f} std={row.std:.3f}"
        )
    return 0


def cmd_flatten_check(args):
    space = read_space(args.infile, args.input_kind)
    report = flatten_check_report(space, args.pair[0], args.pair[1], a_min=args.a_min,
                                  rel_tol=args.rel_tol)
    if args.out:
        write_json(args.out, report)
        _write_manifest(args, "flatten-check", [args.infile], [args.out])
    target = report.get("target_distance")
    print(
        "flatten-check: pair=({}, {}) w={} target={} quad_argmin={} {}".format(
            args.pair[0],
            args.pair[1],
            fmt(report["membership"]) if report.get("membership") is not None else "-",
            fmt(target) if target is not None else "-",
            fmt(report["grid_argmin"]) if report.get("grid_argmin") is not None else "-",
            "(truncated)" if report.get("truncated") else "",
        ).rstrip()
    )
    return 0


def _flattens_finitely(w: float) -> bool:
    """True when the flattened stress loss of membership w is finite on the report grid.

    The grid is [0, max(2 * target, 1)] with target = -log w. False for w = 0
    and for w below about exp(-695), where the loss at the grid's end
    overflows; past about exp(-702.5) the flattened coefficients themselves
    are infinite, and in between the quadrature check can crash in QUADPACK.
    """
    if not 0.0 < w <= 1.0:
        return False
    flat = flatten(FuzzyLossFamily(2, [w]))
    x_end = max(-2.0 * math.log(w), 1.0)
    return math.isfinite(flat.c_a.item() * x_end * x_end + flat.e_b.item())


def flatten_check_report(space: PseudometricSpace, i: int, j: int,
                         a_min: float | None = None, rel_tol: float = 1e-8) -> dict:
    """Quadrature-vs-target report for one pair's flattened stress family.

    Uses the maximal-linkage membership (w = exp(-d)). The flattened pairwise
    loss is grid-minimized over the embedded distance; the argmin lands at 0
    rather than at the target -log w, and the report states the residual
    rather than hiding it. A membership whose flattened loss is not finite on
    the grid (w = 0, or a distance above about 695) is rejected unless a_min
    replaces it.
    """
    if space.n == 1:
        check_quadrature(FuzzyLossFamily(1, []), rel_tol)  # no pairs: checks rel_tol only
        return {
            "n": 1,
            "membership": None,
            "target_distance": None,
            "grid_argmin": None,
            "quadrature_converged": True,
            "truncated": False,
            "note": "one-point space: the zero loss object",
        }
    if not (0 <= i < space.n and 0 <= j < space.n and i != j):
        raise ValidationError(f"pair ({i}, {j}) out of range for n={space.n}")
    # maximal linkage joins a pair exactly at its distance
    wij = float(np.exp(-float(space.d[min(i, j), max(i, j)])))
    truncated = False
    if not _flattens_finitely(wij):
        if a_min is None:
            reason = "" if wij == 0.0 else (
                f"membership {fmt(wij)}, whose flattened loss is not finite on the "
                "grid, so it counts as "
            )
            raise ValidationError(
                f"pair ({i}, {j}) has {reason}membership 0; pass --a-min to truncate"
            )
        if not _flattens_finitely(a_min):
            raise ValidationError(f"--a-min {a_min!r} has no finite flattened loss")
        wij = a_min
        truncated = True
    family = FuzzyLossFamily(2, [wij])
    check_quadrature(family, rel_tol)
    flat = flatten(family)
    coeff, econst = flat.c_a.item(), flat.e_b.item()
    target = -math.log(wij)
    xs = np.linspace(0.0, max(2.0 * target, 1.0), 2001)
    values = coeff * xs * xs + econst
    arg = int(np.argmin(values))
    return {
        "n": space.n,
        "pair": [int(min(i, j)), int(max(i, j))],
        "membership": wij,
        "truncated": truncated,
        "target_distance": target,
        "grid_argmin": float(xs[arg]),
        "grid_min_value": float(values[arg]),
        "value_at_target": coeff * target * target + econst,
        "quadrature_converged": True,
        "argmin_matches_target": bool(abs(xs[arg] - target) <= xs[1] - xs[0]),
        "flattened_c": {"kind": "quad", "a": coeff},
        "flattened_e": {"kind": "const", "b": econst} if econst != 0.0 else {"kind": "zero"},
        "residual_curve": {
            "x": [float(v) for v in xs[:: len(xs) // 50]],
            "loss": [float(v) for v in values[:: len(xs) // 50]],
        },
        "note": (
            "flattening the strength-indexed stress family yields a positive "
            "quadratic in the embedded distance, so its pairwise argmin is 0, "
            "not the target -log w; surfaced by design"
        ),
    }


OUTPUT_OPTIONS = ("--out", "--embeddings-out", "--manifest", "--trace-out")


def cmd_rerun(args):
    manifest = read_json(args.manifest_path)
    if "argv" not in manifest:
        raise ValidationError(f"{args.manifest_path}: manifest has no 'argv' to replay")
    argv = list(manifest["argv"])
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, token in enumerate(argv):
            option, eq, path = token.partition("=")
            if option in OUTPUT_OPTIONS and eq:
                argv[idx] = f"{option}={out_dir / Path(path).name}"
            elif option in OUTPUT_OPTIONS and idx + 1 < len(argv):
                argv[idx + 1] = str(out_dir / Path(argv[idx + 1]).name)
    return dispatch(argv)


def _common_io(p, infile=True):
    if infile:
        p.add_argument("--in", dest="infile", required=True, help="input file")
        p.add_argument(
            "--input-kind", choices=("dist", "points", "seqs"), default="dist",
            help="how to read --in (distance CSV, point CSV, sequence lines)",
        )
    p.add_argument("--manifest", default=None, help="manifest path override")
    p.add_argument("--json-errors", action="store_true", dest="json_errors")
    p.add_argument("--config", default=None, help="key=value config file")


def _algo_flags(p):
    p.add_argument("--algo", default=None,
                   choices=tuple(ALGO_TABLE), help="named algorithm")
    p.add_argument("--pipeline", default=None,
                   help="explicit recombination, e.g. cluster=sl,loss=fce")
    p.add_argument("--m", type=int, default=2, help="embedding dimension")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--policy", choices=TARGET_POLICIES, default="cap")
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", choices=("classical", "random"), default="classical")


def make_parser() -> CliParser:
    parser = CliParser(prog="coverembed", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"coverembed {__version__} build {build_hash()}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("embed", help="embed a space with a named or recombined pipeline")
    _algo_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default=None)
    _common_io(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("cluster", help="write a hierarchical cover as JSON")
    p.add_argument("--functor", required=True, choices=CLUSTER_STAGES)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--policy", choices=("strict", "cap"), default="strict")
    p.add_argument("--out", required=True)
    _common_io(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("interleave", help="interleaving distance of two cover JSONs")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    _common_io(p, infile=False)
    p.set_defaults(func=cmd_interleave)

    p = sub.add_parser("stability", help="interleaving + loss-transfer bounds for two spaces")
    _algo_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--input-kind", choices=("dist", "points", "seqs"), default="dist")
    p.add_argument("--out", required=True)
    _common_io(p, infile=False)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("bench-dna", help="sequence recombination benchmark")
    p.add_argument("--n", type=int, default=100, help="number of mutation lists")
    p.add_argument("--m-steps", type=int, default=10, help="sequences per list")
    p.add_argument("--len", dest="length", type=int, default=1000)
    p.add_argument("--subs", type=int, default=None, help="substitutions per step")
    p.add_argument("--dim", default="2,5")
    p.add_argument("--algos", default="mmds,sls")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--out", required=True)
    p.add_argument("--embeddings-out", default=None,
                   help="prefix for per-sequence embedding CSVs (first repetition)")
    p.add_argument("--verbose", action="store_true")
    _common_io(p, infile=False)
    p.set_defaults(func=cmd_bench_dna)

    p = sub.add_parser("flatten-check", help="quadrature-vs-target report for one pair")
    p.add_argument("--pair", type=int, nargs=2, default=(0, 1))
    p.add_argument("--a-min", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    _common_io(p)
    p.set_defaults(func=cmd_flatten_check)

    p = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p.add_argument("manifest_path")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_rerun)

    parser.subcommands = sub.choices
    return parser


def _expand_config(argv: list[str], subcommands) -> list[str]:
    """argv with each `--config FILE` replaced by the options the file sets.

    A `key=value` line becomes `--key value` (`_` in the key read as `-`); a
    flag takes `true` (present) or `false` (absent). The file's options go
    right after the subcommand, so an option on the command line, parsed
    later, wins over the file.
    """
    at = next((i for i, token in enumerate(argv) if not token.startswith("-")), 0)
    parser = subcommands.get(argv[at]) if argv else None
    if parser is None or "--config" not in parser._option_string_actions:
        return argv
    options = parser._option_string_actions
    rest, files = [], []
    tokens = iter(argv[at + 1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if option == "--config":
            files.append(value if eq else next(tokens, ""))
        else:
            rest.append(token)
    expanded, unknown = [], []
    for path in files:
        for line in read_text(path).split("\n"):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValidationError(f"config line without '=': {line!r}")
            option = "--" + key.replace("_", "-")
            action = options.get(option)
            if action is None or action.dest == "config":
                unknown.append(key)
            elif action.nargs != 0:
                expanded += [option, *(value.split() if action.nargs else [value])]
            elif value in ("true", "false"):
                expanded += [option] if value == "true" else []
            else:
                raise ValidationError(f"config key {key!r} is a flag: want true or false")
    if unknown:
        raise ValidationError(
            f"config keys name no option of {argv[at]!r}: {', '.join(sorted(unknown))}"
        )
    return argv[: at + 1] + expanded + rest


def dispatch(argv) -> int:
    """Parse and execute; exit codes: 0 ok, 1 validation error, 2 numerical failure."""
    parser = make_parser()
    argv = list(argv)
    try:
        argv = _expand_config(argv, parser.subcommands)
        args = parser.parse_args(argv, argparse.Namespace(argv=argv))
        return args.func(args)
    except (ValidationError, OSError) as exc:
        _report_error("validation", exc, argv)
        return 1
    except NumericalError as exc:
        _report_error("numerical", exc, argv)
        return 2


def _report_error(kind, exc, argv):
    if "--json-errors" in argv:
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
    else:
        print(f"coverembed: {kind} error: {exc}", file=sys.stderr)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
