"""The README's library example runs, and its named algorithms are the table's."""

import re
from pathlib import Path

from coverembed import ALGO_TABLE

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_at_a_glance_runs():
    section = README.split("## Library at a glance\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["emb"].coords.shape == namespace["embedding"].coords.shape == (20, 2)


def test_named_algorithms_are_the_table_rows():
    listed = re.search(r"Named algorithms: (.*?)\.", README, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(ALGO_TABLE)
