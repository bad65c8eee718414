"""Every name a ``teichmuller`` module imports is read somewhere in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "teichmuller"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in loaded)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.stem} imports names it never reads: {', '.join(unused)}"


def test_scan_flags_an_unused_import():
    source = "from typing import Optional, Sequence\n\ndef f(x: Sequence):\n    return x\n"
    assert unused_imports(source) == ["Optional (line 1)"]


def unread_private_definitions(sources: dict) -> list[str]:
    """Module-level functions and classes named with a leading underscore that
    no module of ``sources`` ({module name: source}) reads outside their own
    definition; importing one counts as reading it."""
    defined, reads = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = getattr(stmt, "name", None)
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and owner.startswith("_") and not owner.startswith("__")):
                defined.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, owner))
                elif isinstance(node, ast.ImportFrom):
                    reads.update((alias.name, None) for alias in node.names)
    read = {name for name, owner in reads if name != owner}
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_every_private_definition_is_read_in_the_package():
    unread = unread_private_definitions({p.stem: p.read_text() for p in SRC.glob("*.py")})
    assert not unread, f"private helpers no module of the package reads: {', '.join(unread)}"


def test_scan_flags_an_unread_private_definition():
    sources = {"a": "def _used():\n    return 1\n\n\ndef _recursive(n):\n    return _recursive(n - 1)\n",
               "b": "from .a import _used\n\n\nclass _Lone:\n    pass\n"}
    assert unread_private_definitions(sources) == ["a._recursive", "b._Lone"]


# the normalized bar model's symbols, faces and scaled action, private to gmod_cohomology
BAR_MODEL = {"_bar_terms", "_bar_symbols", "_tilde_matrix"}


def bar_model_reads(sources: dict) -> list[str]:
    """The names of ``BAR_MODEL`` that a module of ``sources`` ({module name:
    source}) other than gmod_cohomology imports, or reads as an attribute."""
    found = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                found.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                found.add((module, node.attr))
    return sorted(f"{module}.{name}" for module, name in found
                  if name in BAR_MODEL and module != "gmod_cohomology")


def test_only_gmod_cohomology_reads_the_bar_model():
    found = bar_model_reads({p.stem: p.read_text() for p in SRC.glob("*.py")})
    assert not found, f"modules reading the bar model outside gmod_cohomology: {', '.join(found)}"


def test_scan_flags_a_read_of_the_bar_model():
    sources = {"gmod_cohomology": "def _bar_terms(G, n):\n    return _tilde_matrix(G, n)\n",
               "a": "from .gmod_cohomology import _bar_positions, _bar_terms as terms\n",
               "b": "from . import gmod_cohomology\n\nx = gmod_cohomology._tilde_matrix\n"}
    assert bar_model_reads(sources) == ["a._bar_terms", "b._tilde_matrix"]
