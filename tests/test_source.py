"""Checks on the package source itself."""

import ast
import inspect
from pathlib import Path

from eonprotect.dcycles import DCycleSet
from eonprotect.dsbpss import BackupRegistry
from eonprotect.rsa import NoProtection

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
    # uncached read, and the package supports 3.10 and 3.11.  The
    # per-arrival records (rsa.CandidatePath, its links and vertices views
    # among them) are slotted and hold no cache.
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


def test_protection_objects_follow_the_protocol():
    # Every mode's object has each public method of NoProtection, with the
    # same parameter names, so the engine can call any of them blindly.
    protocol = {
        name: list(inspect.signature(member).parameters)
        for name, member in vars(NoProtection).items()
        if not name.startswith("_") and inspect.isfunction(member)
    }
    assert set(protocol) >= {"protect", "release", "options"}
    for cls in (BackupRegistry, DCycleSet):
        for name, params in protocol.items():
            assert list(inspect.signature(getattr(cls, name)).parameters) == params, (cls, name)


def test_no_class_defines_recovery():
    # ``options`` is the one description of what protects a path.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "recovery"
    ]
    assert found == []


def test_only_spectrum_writes_link_bits():
    # spectrum.allocate and release check every write to the ledger; a
    # plain write to ``bits`` anywhere else would go round the checks.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "spectrum.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for sub in ast.walk(target)
        if isinstance(sub, ast.Attribute) and sub.attr == "bits"
    ]
    assert found == []


def test_bitmaps_are_read_for_their_bits_only():
    # Outside the modules that define and hold them, link spectrum is read
    # as the int ``link.bitmap.bits``, never as a ``SpectrumBitmap``.
    found = []
    for path in SOURCES:
        if path.name in ("spectrum.py", "topology.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for_bits = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bits"
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bitmap"
            and id(node) not in for_bits
        ]
    assert found == []
