"""README.md stays true to the code: its Python examples run, and every
backticked dotted name it gives under the package resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import prioritized_replay

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = {module.name for module in pkgutil.iter_modules(prioritized_replay.__path__)}
HEADS = set(prioritized_replay.__all__) | MODULES | {"prioritized_replay"}


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def references(text):
    """Backticked dotted names whose head the package exports or is one of its
    modules (or the package), with any call arguments dropped:
    `ProportionalSampler._draw(k, rng)` gives ProportionalSampler._draw."""
    found = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`", text)
    return sorted({name for name in found if name.split(".")[0] in HEADS})


def resolve(name):
    head, *attributes = name.split(".")
    if head == "prioritized_replay":
        head, *attributes = attributes
    if head in MODULES:
        target = importlib.import_module(f"prioritized_replay.{head}")
    else:
        target = getattr(prioritized_replay, head)
    for attribute in attributes:
        target = getattr(target, attribute)
    return target


def unresolved(names):
    missing = []
    for name in names:
        try:
            resolve(name)
        except AttributeError:
            missing.append(name)
    return missing


def test_every_python_block_runs():
    blocks = python_blocks(README)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_dotted_name_resolves():
    names = references(README)
    assert {"SumTree.nodes", "core._BULK_CHUNK", "PrioritizedMemory._rng_for"} <= set(names)
    assert unresolved(names) == []


def test_a_removed_name_is_reported():
    names = references("`ProportionalSampler.rebuild`, `RankSampler.set_alpha(a)` and `SumTree.nodes`")
    assert unresolved(names) == ["ProportionalSampler.rebuild", "RankSampler.set_alpha"]
