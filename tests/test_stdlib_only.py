"""omld runs on the standard library alone: no module imports a third-party package."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted((ROOT / "src" / "omld").glob("*.py"))


def _imported(tree: ast.AST) -> set[str]:
    """The top-level names of the absolute imports anywhere in a module, functions included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_module_is_checked():
    assert {m.stem for m in MODULES} >= {"cli", "server", "rdf", "rewrite"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_a_module_imports_only_the_standard_library_and_omld(module):
    imported = _imported(ast.parse(module.read_text(encoding="utf-8")))
    assert imported - set(sys.stdlib_module_names) - {"omld"} == set()


def test_an_import_inside_a_function_is_seen():
    tree = ast.parse("def f():\n    import yaml\n    from requests.adapters import HTTPAdapter\n")
    assert _imported(tree) == {"yaml", "requests"}


def test_the_package_declares_no_dependencies():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies\s*=.*$", pyproject, re.M) == ["dependencies = []"]
