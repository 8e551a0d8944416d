"""Packaging for the self-healing multitier services reproduction.

Classic ``setup.py`` metadata (the offline environment has no
``wheel`` package, so PEP 517 builds are unavailable; ``pip install
-e .`` uses the legacy ``setup.py develop`` path).  Installs the
``repro`` console script so the CLI works without ``python -m repro``.
The version is ``repro.__version__``, read with :mod:`ast` so that
packaging never imports the package.
"""

import ast
from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__version__"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"{init} assigns no __version__")


setup(
    name="repro-selfhealing",
    version=_version(),
    description=(
        "Reproduction of 'Toward Self-Healing Multitier Services' "
        "(ICDE 2007): simulator, FixSym healing loop, fleet-scale "
        "campaigns with shared healing knowledge, workload scenario "
        "packs, and telemetry trace record/replay"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "orjson"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
