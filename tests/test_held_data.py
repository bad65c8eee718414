"""Derived data is held one way: ``modlinalg.held``, the memo over an owner's
``_held`` dict, and ``modlinalg.hold_arrays``, the setter of read-only array
fields.  AST scans keep every other module off ``_held`` and off the
``writeable`` flag; ``GroupHom.positions`` is checked against the dict
inversions it replaced; the held N-action, fixed-ring diagonalization and
factor set are built once; and the answers equal those recorded before the
data moved (``held_answers.json``)."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from held_answers import SEEDS, digest, five_term_summary, teichmuller_classes, xpext_summary
from test_aut_ge_arrays import q_fixed_auts
from test_class_stacks import AMBIENTS
from test_crossed_pairs import all_crossed_pairs, battery_a
from test_normal_algebras import frobenius_rep_on_f4, swap_rep_on_f3xf3
from teichmuller import crossed_pairs, normal_algebras
from teichmuller.crossed_pairs import crossed_pair_algebra, crossed_pair_structures, delta
from teichmuller.crossed_pairs import five_term_report, xpext_enumerate
from teichmuller.groups import GroupError
from teichmuller.normal_algebras import teichmuller_cocycle

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "teichmuller"
ANSWERS = json.loads((HERE / "held_answers.json").read_text())


# ---------------------------------------------------------------------------
# one mechanism, kept single by AST scans

def held_accesses(source: str) -> list[int]:
    """Lines that read or write an attribute named ``_held``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "_held")


def read_only_markers(source: str) -> list[str]:
    """The function (``<module>`` at top level) of each place that marks an
    array read-only: a store to ``.flags.writeable`` or ``.flags[...]``, or a
    ``.setflags`` call."""
    found = []

    def marks(node) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "setflags":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "writeable":
            return isinstance(node.ctx, ast.Store)
        return (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Attribute) and node.value.attr == "flags")

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if marks(child):
                found.append(owner)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_modlinalg_reads_or_writes_held(path):
    if path.stem == "modlinalg":
        return
    lines = held_accesses(path.read_text())
    assert not lines, f"{path.stem} touches _held directly at lines {lines}; use modlinalg.held"


def test_scan_flags_a_held_access():
    source = ("def f(owner):\n    return owner._held.get('k')\n\n\n"
              "def g(owner):\n    owner._held['k'] = 1\n\n\nclass H:\n    _held: dict = {}\n")
    assert held_accesses(source) == [2, 6]


def test_only_the_setter_marks_arrays_read_only():
    markers = {(path.stem, owner) for path in SRC.glob("*.py")
               for owner in read_only_markers(path.read_text())}
    assert markers == {("modlinalg", "_read_only")}


def test_scan_flags_every_read_only_marker():
    source = ("def g(a):\n    a.flags.writeable = False\n\n\n"
              "b.setflags(write=False)\n\n\n"
              "class C:\n    def h(self, c):\n        c.flags['WRITEABLE'] = False\n"
              "        return c.flags.writeable\n")
    assert read_only_markers(source) == ["g", "<module>", "h"]


# ---------------------------------------------------------------------------
# the inverse index held by a homomorphism

def homs(amb) -> list:
    """Every homomorphism the ambient, its Aut_G(e) and their e_psi hold."""
    out = [amb.ext.kernel_hom, amb.ext.quotient_hom, amb.fixed_submodule_gmodule()[2]]
    for aut in q_fixed_auts(amb):
        out += [aut.beta, aut.to_G, aut.to_out, aut.out_to_Q, aut.crossed_module()[1]]
        for cp in crossed_pair_structures(aut):
            e_psi = delta(cp)[0]
            out += [e_psi.iota, e_psi.boundary, e_psi.pi]
    return out


@pytest.mark.parametrize("label", list(AMBIENTS))
def test_positions_invert_every_hom_and_are_read_only(label):
    for hom in homs(AMBIENTS[label]()):
        pos, images = hom.positions(), np.array(hom.images)
        assert pos is hom.positions() and pos.shape == (hom.target.order,)
        off = np.setdiff1d(np.arange(hom.target.order), images)
        assert (pos[off] == -1).all() and (images[pos[images]] == images).all()
        if hom.is_injective():
            inverse = {hom(x): x for x in range(hom.source.order)}
            assert {y: int(pos[y]) for y in inverse} == inverse
            assert hom.preimage(images).tolist() == list(range(hom.source.order))
        if off.size:
            with pytest.raises(GroupError, match="outside the image"):
                hom.preimage(off[0])
        with pytest.raises(ValueError, match="read-only"):
            pos[0] = 0


# ---------------------------------------------------------------------------
# data rebuilt per call before, built once now

def counting(monkeypatch, module, name, counted):
    """Replace module.name by a wrapper that records the arguments of each call."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        counted.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("label", ["klein_neg_ambient", "Klein_Z2xZ4", "C3xC2_Z4"])
def test_the_n_action_is_built_once_per_ambient(monkeypatch, label):
    amb, calls = AMBIENTS[label](), []
    counting(monkeypatch, crossed_pairs, "GroupAction", calls)
    xpext_enumerate(amb)
    five_term_report(amb)
    assert amb.n_action() is amb.n_action()
    assert [args[0] for args in calls].count(amb.N) == 1


def test_the_fixed_ring_embedding_is_diagonalized_once_per_galois_datum(monkeypatch):
    data, calls = battery_a(), []
    pairs = all_crossed_pairs(data)
    r_embed = data.n_base_action().fixed_ring()[1]
    counting(monkeypatch, normal_algebras, "diagonalize_mod", calls)
    for cp in pairs:
        crossed_pair_algebra(data, cp)
    assert len(pairs) > 1
    assert sum(np.array_equal(args[0], r_embed) for args in calls) == 1


@pytest.mark.parametrize("make_rep", [frobenius_rep_on_f4, swap_rep_on_f3xf3])
def test_validate_and_the_teichmuller_cocycle_share_one_factor_set_per_seed(monkeypatch, make_rep):
    rep, calls, inverses = make_rep(), [], []
    counting(monkeypatch, normal_algebras, "find_conjugator", calls)
    counting(monkeypatch, normal_algebras, "inverse_mod", inverses)
    Q = rep.Q
    nonid = np.flatnonzero(np.arange(Q.order) != Q.identity)
    pairs, products = len(nonid) ** 2, len(set(Q.table[np.ix_(nonid, nonid)].ravel()))
    rep.validate(seed=1)
    assert len(calls) == pairs
    w = teichmuller_cocycle(rep, seed=1)
    assert len(calls) == pairs and w.f is rep.factor_set(1)[0]
    teichmuller_cocycle(rep, seed=2)
    # one inverse per lift w_pq that a defect reads, for both seeds
    assert len(calls) == 2 * pairs and len(inverses) == products
    assert not w.f.flags.writeable


# ---------------------------------------------------------------------------
# the answers recorded before the data moved

@pytest.mark.parametrize("label", list(AMBIENTS))
def test_xpext_and_five_term_reports_equal_the_recorded_answers(label):
    amb = AMBIENTS[label]()   # one ambient for every seed: nothing it holds reads a seed
    for seed in SEEDS:
        assert digest(xpext_summary(amb, seed)) == ANSWERS["xpext"][f"{label}:{seed}"]
        assert digest(five_term_summary(amb, seed)) == ANSWERS["five_term"][f"{label}:{seed}"]


def test_teichmuller_classes_equal_the_recorded_answers():
    for seed in SEEDS:
        assert teichmuller_classes(seed) == ANSWERS["teichmuller"][str(seed)]
