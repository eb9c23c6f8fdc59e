"""Checks on the package source itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import ttpmem

SOURCES = sorted(Path(ttpmem.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a soundness check written as
    # one would silently stop checking; raise SoundnessError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_package_imports_only_the_standard_library():
    # The artifact has no runtime dependencies: a test-only package such as
    # Hypothesis must never be imported from src/.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"ttpmem"}]
    assert SOURCES
    assert found == []
