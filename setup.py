"""Packaging for the self-healing multitier services reproduction.

Classic ``setup.py`` metadata (the offline environment has no
``wheel`` package, so PEP 517 builds are unavailable; ``pip install
-e .`` uses the legacy ``setup.py develop`` path).  Installs the
``repro`` console script so the CLI works without ``python -m repro``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-selfhealing",
    version="0.3.0",
    description=(
        "Reproduction of 'Toward Self-Healing Multitier Services' "
        "(ICDE 2007): simulator, FixSym healing loop, fleet-scale "
        "campaigns with shared healing knowledge, workload scenario "
        "packs, and telemetry trace record/replay"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx", "scipy", "orjson"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
