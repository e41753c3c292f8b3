"""Every name a module of the package or of the tests imports is read
somewhere in it, and every name a module of the package defines at top level
is read somewhere in the program."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "obar").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# The program: the package, its scripts and its benchmark; not the tests.
PROGRAM = SOURCES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py")
    if not any(part.startswith(".") for part in p.relative_to(ROOT).parts))


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


@pytest.mark.parametrize(
    "path", SOURCES + TESTS,
    ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS])
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _top_level_names(source: str) -> list[str]:
    """Functions, classes and assigned names a module defines at top level,
    dunder names excepted."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _read_names(source: str):
    """Every name a module reads: loaded names and attributes, imported names,
    and the parts of dotted identifier strings such as the tracer's targets.
    A name that only a docstring or a comment mentions is not read."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def test_every_top_level_name_is_read():
    """A name the program never reads is dead code, or code that only tests
    reach."""
    read = set()
    for path in PROGRAM:
        read.update(_read_names(path.read_text(encoding="utf-8")))
    unread = sorted(f"{path.stem}.{name}" for path in SOURCES
                    for name in _top_level_names(path.read_text(encoding="utf-8"))
                    if name not in read)
    assert unread == []


def test_every_traced_name_resolves(monkeypatch):
    """The benchmark's tracer wraps module attributes by name; one that a
    refactor renames or moves would drop its layer from a traced run."""
    monkeypatch.syspath_prepend(str(ROOT))
    tracer = importlib.import_module("perfbench.tracer")
    missing = [(module, attr) for _, module, attr in tracer.TARGETS
               if tracer._resolve(module, attr) is None]
    assert missing == []


# Only obar.demo and the tests may import scipy: the render path needs numpy
# alone.
DEMO_ONLY = "scipy"


def test_render_path_does_not_import_scipy_signal():
    """A fresh interpreter, since the test modules import scipy themselves:
    importing the engine and the CLI loads no scipy module at all, neither
    scipy.signal nor scipy.fft, scipy.io or what they pull in."""
    code = ("import sys, obar.engine, obar.cli; print(' '.join(sorted("
            f"m for m in sys.modules if m.startswith({DEMO_ONLY!r}))))")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def _imported_modules(source: str) -> list[str]:
    """Every module an import statement names, from X import Y as X.Y."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "demo.py"],
    ids=[p.name for p in SOURCES if p.name != "demo.py"])
def test_only_the_demo_imports_scipy_signal(path):
    """No other module imports scipy or any part of it, at the top or
    inside a function."""
    names = _imported_modules(path.read_text(encoding="utf-8"))
    assert [n for n in names if n == DEMO_ONLY
            or n.startswith(DEMO_ONLY + ".")] == []
