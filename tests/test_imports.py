"""Every name a ``teichmuller`` module imports is read somewhere in that module;
the package reads its group and action tables as arrays only; and its paths
leave ``numpy.ma`` unimported."""

import ast
import os
import subprocess
import sys
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


def tuple_table_uses(sources: dict) -> list[str]:
    """Where a module of ``sources`` ({module name: source}) reads a tuple table:
    ``.mul`` or ``.inv`` other than as a method call (rings and algebras have
    ``mul`` and ``inv`` methods), ``.table`` of an action (an expression whose
    name ends in ``action``, or ``self`` in ``GroupAction``), or builds
    ``tuple(map(tuple, ...))`` outside ``_tuple_view``, the builder of the views."""
    found = []

    def name(node) -> str:
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", ""))

    def visit(module, node, cls, func):
        for child in ast.iter_child_nodes(node):
            called = child.func if isinstance(child, ast.Call) else None
            if isinstance(child, ast.Attribute) and child.attr in ("mul", "inv"):
                found.append(f"{module}:{child.lineno} .{child.attr}")
            elif isinstance(child, ast.Attribute) and child.attr == "table" and (
                    name(child.value).endswith("action")
                    or (cls == "GroupAction" and name(child.value) == "self")):
                found.append(f"{module}:{child.lineno} .table")
            elif (name(child) == "tuple" and isinstance(called, ast.Name) and child.args
                  and name(child.args[0]) == "map" and child.args[0].args
                  and name(child.args[0].args[0]) == "tuple" and func != "_tuple_view"):
                found.append(f"{module}:{child.lineno} tuple(map(tuple")
            if called is not None and isinstance(called, ast.Attribute) and called.attr in ("mul", "inv"):
                # a method call: skip the attribute, visit its receiver and arguments
                for part in [called.value, *child.args, *(k.value for k in child.keywords)]:
                    visit(module, ast.Expression(body=part), cls, func)
                continue
            visit(module, child, child.name if isinstance(child, ast.ClassDef) else cls,
                  child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    for module, source in sources.items():
        visit(module, ast.parse(source), None, None)
    return sorted(found)


def test_the_package_reads_group_and_action_tables_as_arrays():
    found = tuple_table_uses({p.stem: p.read_text() for p in SRC.glob("*.py")})
    assert not found, f"tuple tables read or built in the package: {', '.join(found)}"


def test_scan_flags_a_tuple_table():
    sources = {"a": ("def f(G, amb, R):\n"
                     "    x = G.mul[0][1] + G.inv[0]\n"
                     "    y = amb.action.table[0] + amb.n_action().table[0] + z.table[0]\n"
                     "    w = R.mul(G.inv, y) + R.inv(x)\n"
                     "    return tuple(map(tuple, x))\n\n\n"
                     "class GroupAction:\n"
                     "    def act(self, g, x):\n"
                     "        return self.table[g][x]\n\n\n"
                     "def _tuple_view(arr):\n"
                     "    return tuple(map(tuple, arr.tolist()))\n")}
    assert tuple_table_uses(sources) == [
        "a:10 .table", "a:2 .inv", "a:2 .mul", "a:3 .table", "a:3 .table", "a:4 .inv",
        "a:5 tuple(map(tuple"]


NUMPY_MA_PROBE = """
import sys
import numpy as np
from teichmuller.crossed_pairs import Ambient, xpext_enumerate
from teichmuller.groups import FiniteGroup, GroupExtension, GroupHom, cyclic, direct_product, trivial_action

G = FiniteGroup.from_table((np.arange(144)[:, None] + np.arange(144)) % 144)
assert G.order == 144
klein, N, Q, M = direct_product(cyclic(2), cyclic(2)), cyclic(2), cyclic(2), cyclic(2)
ext = GroupExtension(GroupHom.checked(N, klein, (0, 2)), GroupHom.checked(klein, Q, (0, 1, 0, 1)))
assert xpext_enumerate(Ambient(ext=ext, Mgrp=M, action=trivial_action(klein, M))).verdicts
print("numpy.ma" in sys.modules)
"""


def probe(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_the_package_leaves_numpy_ma_unimported():
    """``np.unique`` with no index, inverse or counts asked for imports
    ``numpy.ma`` on first use under numpy 2.4, which a timed operation then pays."""
    if probe("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("importing numpy alone loads numpy.ma")
    assert probe(NUMPY_MA_PROBE) == "False"
