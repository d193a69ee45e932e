"""The README's library example runs, its named algorithms are the table's, and
the names it cites exist."""

import importlib.util
import re
from pathlib import Path

import coverembed
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


def test_dotted_names_in_the_prose_resolve():
    """Every backticked `ce.name`, `coverembed.name` or `<module>.name`, where
    the module is one of the package's, names an attribute that exists."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    checked = []
    for prefix, name in re.findall(r"`(\w+)\.(\w+)", prose):
        if prefix in ("ce", "coverembed"):
            owner = coverembed
        elif importlib.util.find_spec(f"coverembed.{prefix}") is not None:
            owner = importlib.import_module(f"coverembed.{prefix}")
        else:  # another package's name, such as `math.log`
            continue
        assert hasattr(owner, name), f"README names `{prefix}.{name}`, which does not exist"
        checked.append(f"{prefix}.{name}")
    assert "algorithms.ALGO_TABLE" in checked and "ce.cluster_hierarchy" in checked
