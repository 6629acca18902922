"""Legacy setuptools shim.

All metadata lives in ``pyproject.toml`` (PEP 621): package discovery under
``src/``, the numpy and scipy dependencies, the ``dev`` extra used by CI and
the ruff configuration.  This file only keeps ``python setup.py ...``
invocations and old tooling working; ``pip install -e .`` goes through the
pyproject build backend.
"""

from setuptools import setup

setup()
