"""Every ppskit name that the benchmark's tracer wraps must resolve.

``perfbench/run.py --trace 1`` wraps each ``(module, attribute)`` of
``TRACED`` in ``perfbench/layers.py`` and a few more names that
``layers.install`` adds, looking each up with a bare ``getattr``.  A rename
in ``src/`` would break only the traced run; these cases break first.
``layers.py`` is read as text, so importing it cannot change anything.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_names():
    """The ``(module, attribute)`` pairs of ``TRACED`` in perfbench/layers.py."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{LAYERS} defines no TRACED")


# Wrapped by ``layers.install`` outside ``TRACED``.
INSTALLED = [
    ("ppskit.estimate", "ml_estimate"),
    ("ppskit.estimate", "eml_estimate"),
    ("ppskit.estimate", "SingleModeModel"),
    ("ppskit.metrics", "bootstrap_stats"),
    ("ppskit.jsd", "JsdGrid.__post_init__"),
]


@pytest.mark.parametrize(
    "module, attr", traced_names() + INSTALLED, ids=lambda name: name.replace("ppskit.", "")
)
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
