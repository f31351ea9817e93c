"""No handler in the package or its scripts may swallow every error.

A bare ``except:`` or one that names ``Exception`` or ``BaseException``
would also catch the typed ``PpskitError``s, so a failure could pass as a
result.  Each ``.py`` file under ``src/ppskit`` and ``scripts/`` is parsed
and its handlers are read; nothing is imported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "ppskit").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])
CATCH_ALL = {"Exception", "BaseException"}


def catch_all_handlers(tree):
    """Line numbers of the handlers in ``tree`` that catch every error."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(
            isinstance(name, ast.Name) and name.id in CATCH_ALL for name in caught
        ):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_handler_catches_every_error(path):
    lines = list(catch_all_handlers(ast.parse(path.read_text(), filename=str(path))))
    assert lines == [], f"{path.name} catches every error at lines {lines}"


@pytest.mark.parametrize("handler", [
    "except:",
    "except Exception:",
    "except BaseException as exc:",
    "except (ValueError, Exception):",
])
def test_catch_all_forms_are_found(handler):
    tree = ast.parse(f"try:\n    pass\n{handler}\n    pass\n")
    assert list(catch_all_handlers(tree)) == [3]


def test_typed_handlers_pass():
    tree = ast.parse("try:\n    pass\nexcept (ValueError, OSError):\n    pass\n")
    assert list(catch_all_handlers(tree)) == []
