"""Packaging metadata must match what the code imports.

An editable install brings only the distributions ``pyproject.toml``
declares, so every third-party module imported at module level anywhere in
``src/repro`` must be one of them; otherwise ``import repro.core`` fails on
a clean install.
"""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _top_level_imports(path: pathlib.Path) -> set[str]:
    """Top-level package names imported by the module body of ``path``."""
    names: set[str] = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def _declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        match = re.match(r"[A-Za-z0-9_.\-]+", requirement)
        assert match, requirement
        names.add(match.group(0).lower().replace("-", "_"))
    return names


def test_every_third_party_import_is_declared():
    declared = _declared_dependencies()
    missing = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for name in _top_level_imports(path):
            if name in sys.stdlib_module_names or name == "repro":
                continue
            if name.lower() not in declared:
                missing.setdefault(name, []).append(str(path.relative_to(ROOT)))
    assert not missing, f"imported but not in [project].dependencies: {missing}"


def test_scan_sees_the_numeric_stack():
    """Guard against a scan that silently finds nothing."""
    imported = set()
    for path in (ROOT / "src" / "repro" / "core").glob("*.py"):
        imported |= _top_level_imports(path)
    assert {"numpy", "scipy"} <= imported
