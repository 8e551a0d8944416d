"""Every third-party package ``src/repro`` imports is declared.

CI installs ``requirements-ci.txt`` and users install ``setup.py``'s
``install_requires``; an import missing from either works wherever the
package happens to be installed and fails on a clean machine.  The
imports are read with :mod:`ast`, so optional or lazily imported
modules count too.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(package: Path) -> dict[str, str]:
    """Absolute imports under ``package``: top-level name -> one file."""
    found: dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], str(path))
    return found


def _project_name(requirement: str) -> str:
    name = re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)
    return name.lower().replace("-", "_")


def _install_requires() -> set[str]:
    tree = ast.parse((_ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {_project_name(r) for r in ast.literal_eval(node.value)}
    raise AssertionError("setup.py has no install_requires")


def _ci_pins() -> dict[str, str]:
    pins = {}
    for line in (_ROOT / "requirements-ci.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            pins[_project_name(line)] = line
    return pins


def test_third_party_imports_are_in_install_requires():
    imports = _top_level_imports(_ROOT / "src" / "repro")
    third_party = {
        name: path
        for name, path in imports.items()
        if name not in sys.stdlib_module_names and name != "repro"
    }
    assert "numpy" in third_party  # the walk sees real imports
    missing = {
        name: path
        for name, path in third_party.items()
        if name not in _install_requires()
    }
    assert not missing, f"imported but not in install_requires: {missing}"


def test_install_requires_are_pinned_for_ci():
    pins = _ci_pins()
    for name in _install_requires():
        assert name in pins, f"{name} is not pinned in requirements-ci.txt"
        assert "==" in pins[name], pins[name]
