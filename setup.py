"""Setuptools configuration: all package metadata lives in this file.

There is no ``pyproject.toml``.  A classic ``setup.py`` keeps editable
installs (``pip install -e .``) working offline and without the
``wheel`` package: pip falls back to ``setup.py develop``, which needs
no PEP 660 build backend.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "PRIMA reproduction: a DBMS kernel implementing the "
        "Molecule-Atom Data model (VLDB 1987)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
