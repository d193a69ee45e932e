"""File formats: distance/point/embedding CSV, sequence lists, JSON reports.

All floating-point text output uses 17 significant digits so that reading a
file back reproduces the exact double, which makes re-runs byte-comparable.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np

from .covers import HierarchicalCover, hierarchy_from_json
from .errors import NumericalError, ValidationError
from .metric import PseudometricSpace, from_matrix, from_points_euclidean, from_sequences_hamming
from .optimize import Embedding


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def read_text(path) -> str:
    """A file's UTF-8 text; undecodable bytes are a ValidationError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def _read_table(path, label_row: bool) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """A CSV's labels and its numbers as a 2-d float array.

    Blank lines and lines starting with '#' are skipped. The first row
    (`label_row`) or else the first column holds labels when its cells do not
    all read as numbers. An empty file, rows of different lengths and
    non-numeric cells are ValidationErrors naming the path.
    """
    lines = (line.strip() for line in read_text(path).split("\n"))
    rows = [[c.strip() for c in line.split(",")] for line in lines if line and line[0] != "#"]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    head = rows[0] if label_row else [r[0] for r in rows]
    try:
        [float(c) for c in head]
        labels = None
    except ValueError:
        labels = tuple(head)
        rows = rows[1:] if label_row else [r[1:] for r in rows]
    widths = sorted({len(r) for r in rows})
    if len(widths) > 1:
        raise ValidationError(
            f"{path}: rows of different lengths ({widths[0]} to {widths[-1]} cells)"
        )
    try:
        return labels, np.array([[float(c) for c in r] for r in rows])
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric entry ({exc})") from exc


def _unreadable_labels(labels) -> str | None:
    """What in `labels`, as a CSV's first column, `_read_table` would not read back."""
    for label in labels:
        if label != label.strip() or label.startswith("#") or any(c in label for c in ",\n\r"):
            return f"label {label!r}"
    try:
        [float(label) for label in labels]
    except ValueError:
        return None
    shown = ", ".join(map(repr, labels[:3])) + (", ..." if len(labels) > 3 else "")
    return f"labels {shown} (all read as numbers)" if labels else None


def read_distance_csv(path) -> PseudometricSpace:
    """Square matrix CSV; an optional first row of labels is auto-detected."""
    labels, d = _read_table(path, label_row=True)
    return from_matrix(d, labels=labels)


def read_points_csv(path) -> PseudometricSpace:
    """One point per row; an optional leading label column is auto-detected."""
    labels, points = _read_table(path, label_row=False)
    return from_points_euclidean(points, labels=labels)


def read_sequences(path) -> PseudometricSpace:
    """One sequence per line, all of one length, in any alphabet; up to 64 take
    their own text as labels when those read back from an embedding CSV."""
    seqs = [line.strip() for line in read_text(path).split("\n") if line.strip()]
    keep = len(seqs) <= 64 and _unreadable_labels(seqs) is None
    try:
        return from_sequences_hamming(seqs, labels=seqs if keep else None)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def read_space(path, kind: str = "dist") -> PseudometricSpace:
    if kind == "dist":
        return read_distance_csv(path)
    if kind == "points":
        return read_points_csv(path)
    if kind == "seqs":
        return read_sequences(path)
    raise ValidationError(f"unknown input kind {kind!r}")


def check_embedding_labels(path, labels) -> None:
    """Refuse labels that would not read back from an embedding CSV at `path`."""
    problem = None if labels is None else _unreadable_labels(labels)
    if problem is not None:
        raise ValidationError(f"{path}: {problem} would not read back from the CSV")


def write_embedding_csv(path, embedding: Embedding):
    """One row per point: optional label column first, then m coordinates.
    Labels that would not read back are refused before anything is written."""
    check_embedding_labels(path, embedding.labels)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(embedding.n):
            cells = [] if embedding.labels is None else [embedding.labels[i]]
            cells += [fmt(x) for x in embedding.coords[i]]
            fh.write(",".join(cells) + "\n")


def read_embedding_csv(path) -> Embedding:
    """One point per row; an optional leading label column is auto-detected."""
    labels, coords = _read_table(path, label_row=False)
    return Embedding(coords, labels)


def write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,loss,step,grad_norm\n")
        for it, loss, step, gnorm in trace:
            fh.write(f"{it},{fmt(loss)},{fmt(step)},{fmt(gnorm)}\n")


def write_json(path, obj):
    """Strict JSON: a NaN or infinity raises NumericalError and writes nothing."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def write_hierarchy_json(path, h: HierarchicalCover):
    """The cover JSON of `h` (README, File formats) as `write_json` would write it,
    each distinct block's text rendered once; a non-finite scale raises
    NumericalError before anything is written."""
    try:  # with sorted keys, "n" and "scales" follow "covers" and end the file
        tail = json.dumps({"n": h.n, "scales": [float(s) for s in h.scales]},
                          indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{path}: {exc}") from exc

    @functools.cache
    def block_text(b):
        members = ",\n".join(f"          {v}" for v in b)
        return f"        [\n{members}\n        ]" if b else "        []"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "covers": [')
        for t, cover in enumerate(h.covers):
            blocks = ",\n".join(map(block_text, cover.blocks))
            blocks = f"[\n{blocks}\n      ]" if blocks else "[]"
            comma = "," if t else ""
            fh.write(f'{comma}\n    {{\n      "blocks": {blocks},\n      "n": {cover.n}\n    }}')
        fh.write(f"\n  ],{tail[1:]}\n")


def read_hierarchy_json(path) -> HierarchicalCover:
    return hierarchy_from_json(read_json(path))


def write_bench_csv(path, result):
    """Benchmark table: one row per pipeline with mean/std and raw accuracies."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cluster,loss,m,mean_accuracy,std_accuracy,repetitions,ties,raw\n")
        for row in result.rows:
            raw = ";".join(fmt(a) for a in row.accuracies)
            fh.write(
                f"{row.pipeline.cluster},{row.pipeline.loss},{row.pipeline.m},"
                f"{fmt(row.mean)},{fmt(row.std)},{len(row.accuracies)},{row.ties_seen},{raw}\n"
            )
