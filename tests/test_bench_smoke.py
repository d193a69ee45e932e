"""The benchmark's three workloads run end to end against the library.

Each workload's `setup`, one untraced `run_pass` and its `gate` run into a
temporary directory; cover-stability and embed-roll also run `verify`, which
compares the pass with `coverembed embed`. dna-recomb runs at 4 lists per
rank instead of 40 to stay fast. A library signature change that breaks the
benchmark then fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

SEED = 11


def _small_dna():
    wl = workloads.DnaRecomb()
    wl.n_lists = 4
    return wl


@pytest.mark.parametrize(
    "make, verify",
    [
        (_small_dna, False),
        (workloads.EmbedRoll, True),
        (workloads.CoverStability, True),
    ],
    ids=["dna-recomb", "embed-roll", "cover-stability"],
)
def test_workload_runs_and_passes_its_gate(make, verify, tmp_path):
    wl = make()
    inputs = wl.setup(SEED, tmp_path)
    out = wl.run_pass(inputs, NullTracer(), tmp_path)
    assert out.errors == {}
    gate = wl.gate(inputs, out)
    assert gate.failures == []
    assert gate.attempted == len(out.ops) > 0
    if verify:
        assert wl.verify(inputs, out, tmp_path) == []
