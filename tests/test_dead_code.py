"""Nothing under ``src/repro`` is library code that no program runs.

An AST scan, not a coverage run: a module-level ``def`` or ``class``
counts as used when a *caller file* (under ``src``, ``benchmarks``,
``perfbench``, ``examples`` or ``tools``) names it outside the
definition's own body — as a ``Name``, an attribute, an import outside
a package ``__init__``, or an identifier inside a string (perfbench
wraps functions by ``"module:qualname"`` strings).  Docstrings and
``__all__`` lists do not count, and neither do tests: code that only a
test calls is deleted, or moved into the test as its oracle.

A package ``__init__`` re-exports a name only if some file, tests
included, imports the name from that package.
"""

from __future__ import annotations

import ast
import functools
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
_CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples", "tools")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Definitions allowed to have no caller yet, each with its reason.
ALLOWED_UNCALLED = {
    # Figure 4 and Table 3 are to print the per-fault confusion pairs
    # (ROADMAP item 1.1); the accuracy harness will call it.
    "confusion_matrix",
}


@functools.lru_cache(maxsize=1)
def _trees() -> dict[Path, ast.Module]:
    """Every Python file under the caller directories and ``tests``."""
    paths = sorted(
        path
        for top in _CALLER_DIRS + ("tests",)
        for path in (_ROOT / top).rglob("*.py")
    )
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _is_caller(path: Path) -> bool:
    return path.relative_to(_ROOT).parts[0] in _CALLER_DIRS


def _references(root: ast.AST, in_init: bool) -> Counter:
    """Every name ``root`` refers to, counted once per reference."""
    names: Counter = Counter()
    skipped: set[int] = set()  # docstrings and ``__all__`` strings
    for node in ast.walk(root):
        if isinstance(node, _DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr):
                skipped.add(id(first.value))
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not in_init:
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(sub) for sub in ast.walk(node.value))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            names.update(_IDENTIFIER.findall(node.value))
    return names


def uncalled_definitions() -> list[str]:
    total: Counter = Counter()
    definitions = []  # (path, node, the node's own references)
    for path, tree in _trees().items():
        if not _is_caller(path):
            continue
        in_src = path.is_relative_to(_SRC / "repro")
        # A module docstring is the first statement, not a reference.
        body = tree.body
        if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant
        ):
            body = body[1:]
        for node in body:
            own = _references(node, path.name == "__init__.py")
            total.update(own)
            if in_src and isinstance(node, _DEFINITIONS):
                definitions.append((path, node, own))
    return [
        f"{path.relative_to(_ROOT)}:{node.lineno} {node.name}"
        for path, node, own in definitions
        if total[node.name] - own[node.name] <= 0
    ]


def unimported_reexports() -> list[str]:
    imported: set[tuple[str, str]] = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.update((node.module, a.name) for a in node.names)
    unimported = []
    for path, tree in _trees().items():
        if path.name != "__init__.py" or not path.is_relative_to(_SRC):
            continue
        package = ".".join(path.parent.relative_to(_SRC).parts)
        # A name the ``__init__`` uses itself is not a bare re-export.
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in used and (package, name) not in imported:
                    unimported.append(f"{package}.{name}")
    return unimported


def test_every_definition_has_a_caller():
    uncalled = uncalled_definitions()
    names = {entry.rpartition(" ")[2] for entry in uncalled}
    assert ALLOWED_UNCALLED <= names, "an allowed definition has a caller now"
    assert [
        entry for entry in uncalled
        if entry.rpartition(" ")[2] not in ALLOWED_UNCALLED
    ] == []


def test_every_package_reexport_is_imported():
    assert unimported_reexports() == []


def test_every_module_imports_in_a_fresh_interpreter():
    modules = sorted(
        ".".join(path.relative_to(_SRC).with_suffix("").parts)
        .removesuffix(".__init__")
        for path in (_SRC / "repro").rglob("*.py")
        if path.stem != "__main__"
    )
    probe = (
        "import importlib\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(modules) > 100
