"""Checks on the package source itself."""

from __future__ import annotations

import ast
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
