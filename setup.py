"""Setuptools shim so editable installs work without network access.

The environment used for reproduction has no access to PyPI, so the build
backend cannot be bootstrapped in an isolated environment; providing a
classic ``setup.py`` lets ``pip install -e .`` fall back to the legacy
editable-install path with the locally available setuptools.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ned",
    version="0.9.0",
    description=(
        "Reproduction of NED (k-adjacent-tree / TED* graph node similarity) "
        "grown into a sharded, cached, batch-serving engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    # The engine's bound survey is numpy; SciPy (the batch TED* kernel and
    # the scipy matching backend) stays optional.
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            # experiment drivers (figures/tables + cache compaction)
            "ned-experiments=repro.experiments.cli:main",
            # AST-based invariant checker (see README "Static analysis")
            "ned-lint=repro.analysis.cli:main",
            # multi-process NED service (see README "Serving")
            "ned-serve=repro.serving.cli:main",
        ]
    },
)
