"""The package stays pure stdlib: every import in src/gossim is relative,
of gossim itself, or of a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gossim").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_gossim(path):
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "gossim" and top not in sys.stdlib_module_names:
                foreign.append(f"line {node.lineno}: {name}")
    assert not foreign, f"{path.name} imports outside the stdlib: {foreign}"
