"""README's "Library use" section against the package: its example runs,
the names it says are exported are, and the names it says were removed
are gone."""

import importlib
import re
from pathlib import Path

import pulsegate

SECTION = (Path(__file__).resolve().parents[1] / "README.md").read_text() \
    .split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
# by import path: the attribute pulsegate.sweep is the function
MODULES = [pulsegate] + [importlib.import_module(f"pulsegate.{m}") for m in (
    "bloch", "cli", "errors", "output", "pulses", "signal", "sweep", "twophoton")]


def test_example_runs():
    code = re.search(r"```python\n(.*?)```", SECTION, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert abs(scope["sol"].decomposition.c12_sq - 2 / 3) < 1e-4


def test_exported_pieces_are_exported():
    sentence = SECTION.split("Lower-level pieces (", 1)[1].split(")", 1)[0]
    names = re.findall(r"`(\w+)`", sentence)
    assert names
    assert [n for n in names if n not in pulsegate.__dict__] == []


def test_removed_names_are_gone():
    # one "- `name(...)`: replacement" line each, a dotted name on its owner:
    # six helpers, then ten error classes
    removed = re.findall(r"^- `([\w.]+)", SECTION, re.M)
    assert len(removed) == 16
    for name in removed:
        *owner, attr = name.split(".")
        owners = [getattr(pulsegate, owner[0])] if owner else MODULES
        assert not any(hasattr(o, attr) for o in owners), name
