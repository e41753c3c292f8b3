"""Every name a module of the package imports is read somewhere in it."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "obar").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
