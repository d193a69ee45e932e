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


def _parse_csv_rows(path) -> list[list[str]]:
    lines = (line.strip() for line in read_text(path).split("\n"))
    rows = [[c.strip() for c in line.split(",")] for line in lines if line and line[0] != "#"]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    return rows


def _all_floats(cells) -> bool:
    try:
        [float(c) for c in cells]
        return True
    except ValueError:
        return False


def read_distance_csv(path) -> PseudometricSpace:
    """Square matrix CSV; an optional first row of labels is auto-detected."""
    rows = _parse_csv_rows(path)
    labels = None
    if not _all_floats(rows[0]):
        labels = rows[0]
        rows = rows[1:]
    try:
        matrix = [[float(c) for c in row] for row in rows]
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric distance entry ({exc})") from exc
    return from_matrix(matrix, labels=labels)


def read_points_csv(path) -> PseudometricSpace:
    """One point per row; an optional leading label column is auto-detected."""
    rows = _parse_csv_rows(path)
    labels = None
    if rows and not _all_floats([r[0] for r in rows]):
        labels = [r[0] for r in rows]
        rows = [r[1:] for r in rows]
    try:
        pts = [[float(c) for c in row] for row in rows]
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric point entry ({exc})") from exc
    return from_points_euclidean(pts, labels=labels)


def read_sequences(path) -> PseudometricSpace:
    """One sequence per line, uppercase alphabet."""
    seqs = [line.strip() for line in read_text(path).split("\n") if line.strip()]
    return from_sequences_hamming(seqs, labels=seqs if len(seqs) <= 64 else None)


def read_space(path, kind: str = "dist") -> PseudometricSpace:
    if kind == "dist":
        return read_distance_csv(path)
    if kind == "points":
        return read_points_csv(path)
    if kind == "seqs":
        return read_sequences(path)
    raise ValidationError(f"unknown input kind {kind!r}")


def write_embedding_csv(path, embedding: Embedding):
    """One row per point: optional label column first, then m coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(embedding.n):
            cells = [] if embedding.labels is None else [embedding.labels[i]]
            cells += [fmt(x) for x in embedding.coords[i]]
            fh.write(",".join(cells) + "\n")


def read_embedding_csv(path) -> Embedding:
    rows = _parse_csv_rows(path)
    labels = None
    if rows and not _all_floats([r[0] for r in rows]):
        labels = tuple(r[0] for r in rows)
        rows = [r[1:] for r in rows]
    coords = np.array([[float(c) for c in row] for row in rows])
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
