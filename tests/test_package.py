"""The package namespace."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import heislor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_exports_names_not_submodules():
    exported = {name: getattr(heislor, name) for name in heislor.__all__}
    assert not [name for name, value in exported.items() if isinstance(value, ModuleType)]
    assert {"classify", "codimension", "QSqrt3", "curvature_report"} <= set(exported)


def _attribute_chain(node: ast.Attribute) -> list[str] | None:
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


@pytest.mark.parametrize("script", ["sweep.py", "tables.py", "selftest.py"])
def test_benchmark_names_exist(script):
    """Every package name the benchmark imports or reads off a package alias resolves."""
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "heislor":
                    aliases[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heislor":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:  # a submodule not imported yet
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = value
    assert aliases
    missing = []
    for node in ast.walk(tree):
        chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            value = aliases[chain[0]]
            for name in chain[1:]:
                if not hasattr(value, name):
                    missing.append(".".join(chain))
                    break
                value = getattr(value, name)
    assert not missing
