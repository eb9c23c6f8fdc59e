"""Checks on the package source itself."""

from __future__ import annotations

import ast
import importlib.util
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


def _mutant_runner():
    spec = importlib.util.spec_from_file_location(
        "mutants", Path(__file__).parent / "mutants.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_every_mutant_applies_once_and_compiles():
    runner = _mutant_runner()
    assert len(runner.mutated_files(range(1, len(runner.MUTANTS) + 1))) == len(runner.MUTANTS)


def test_the_mutant_runner_refuses_a_mutant_that_does_not_compile(monkeypatch, capsys):
    # Such a mutant fails every test at import, so it would count as killed
    # whatever the tests check: the runner names it and exits 2 before any run.
    runner = _mutant_runner()
    monkeypatch.setattr(runner, "MUTANTS", runner.MUTANTS + [
        ("ring.py", "def step(self) -> None:", "def step(self) -> None", "no colon")])
    assert runner.main([str(len(runner.MUTANTS))]) == 2
    assert capsys.readouterr().out.startswith(
        f"mutant {len(runner.MUTANTS)}: ring.py does not compile once mutated")
