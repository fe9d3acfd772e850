"""No gsee module reaches into the private names of a sibling module.

A private helper has one owner; a sibling that imports it bypasses the
owner's public API (the Pauli action lives behind ``gsee.pauli``).
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gsee"
MODULES = sorted(PACKAGE.glob("*.py"))


def _sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "gsee"


def private_uses(path: pathlib.Path) -> list[str]:
    """``module.name`` for every private sibling name the file imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, module_aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _sibling(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{alias.name}")
                elif node.module in (None, "gsee"):
                    # ``from . import simulator`` binds a sibling module
                    module_aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in module_aliases
            and node.attr.startswith("_")
        ):
            found.append(f"{module_aliases[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_sibling_imports(path):
    assert private_uses(path) == []


def test_detector_sees_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "from .simulator import StateVector, _col\n"
        "from gsee.pauli import _PHASES\n"
        "from . import pauli\n"
        "x = pauli._mask_arrays\n"
    )
    assert private_uses(sample) == [
        "simulator._col",
        "gsee.pauli._PHASES",
        "pauli._mask_arrays",
    ]
