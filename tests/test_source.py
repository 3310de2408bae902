"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eonprotect"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 5


def test_no_assert_statements():
    # ``python -O`` strips asserts; failures must be explicit exceptions.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_cached_property():
    # Before Python 3.12, functools.cached_property takes a lock on every
    # uncached read; the package supports 3.10 and 3.11, and lazy fields
    # sit on the per-arrival path (rsa.CandidatePath).
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.alias) and node.name == "cached_property")
    ]
    assert found == []


def test_rsa_imports_no_protection_module():
    # Each mode's protection is handed to rsa as an object, so rsa needs
    # neither module, not even inside a function body.
    tree = ast.parse((PACKAGE / "rsa.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        if any(part in ("dsbpss", "dcycles") for name in names for part in name.split(".")):
            found.append(node.lineno)
    assert found == []
