"""Derived data is held one way: ``modlinalg.held``, the memo over an owner's
``_held`` dict, and ``modlinalg.hold_arrays``, the setter of read-only array
fields.  AST scans keep every other module off ``_held``, off the
``writeable`` flag and off ``functools.cached_property``; every owner of a
``_held`` dict is a ``modlinalg.Holder``, whose pickle leaves it out;
``GroupHom.positions`` is checked against the dict inversions it replaced;
the held N-action, fixed-ring diagonalization, factor set, seeded sections
and module of a crossed 2-fold extension are built once; groups with equal
tables over an ambient are one group (``Ambient.group``); and the answers
equal those recorded before the data moved (``held_answers.json``)."""

import ast
import dataclasses
import importlib
import inspect
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from held_answers import SEEDS, digest, five_term_summary, teichmuller_classes, xpext_summary
from test_aut_ge_arrays import q_fixed_auts
from test_class_stacks import AMBIENTS
from test_crossed_pairs import all_crossed_pairs, battery_a
from test_normal_algebras import frobenius_rep_on_f4, swap_rep_on_f3xf3
from teichmuller import crossed, crossed_pairs, modlinalg, normal_algebras
from teichmuller.crossed import cocycle_of_crossed2
from teichmuller.crossed_pairs import crossed_pair_algebra, crossed_pair_structures, delta
from teichmuller.crossed_pairs import five_term_report, metacyclic_crossed2, xpext_enumerate
from teichmuller.groups import FiniteGroup, GroupError, coordinate_array, cyclic
from teichmuller.modlinalg import BudgetExceeded, Holder
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


def cached_property_uses(source: str) -> list[int]:
    """Lines that name ``cached_property``: an import, a decorator or any other use."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id == "cached_property")
                  or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
                  or (isinstance(node, ast.alias) and node.name == "cached_property"))


def test_no_module_memoizes_with_cached_property():
    found = {path.stem: cached_property_uses(path.read_text()) for path in SRC.glob("*.py")}
    assert not {stem: lines for stem, lines in found.items() if lines}


def test_scan_flags_every_cached_property():
    source = ("from functools import cached_property\nimport functools\n\n\n"
              "class A:\n    @cached_property\n    def x(self):\n        return 1\n\n"
              "    @functools.cached_property\n    def y(self):\n        return 2\n")
    assert cached_property_uses(source) == [1, 6, 10]


def test_scan_flags_every_read_only_marker():
    source = ("def g(a):\n    a.flags.writeable = False\n\n\n"
              "b.setflags(write=False)\n\n\n"
              "class C:\n    def h(self, c):\n        c.flags['WRITEABLE'] = False\n"
              "        return c.flags.writeable\n")
    assert read_only_markers(source) == ["g", "<module>", "h"]


# ---------------------------------------------------------------------------
# held data stays out of pickles

def test_every_owner_of_held_data_is_a_holder():
    owners = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"teichmuller.{path.stem}")
        owners += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                   if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                   and "_held" in {f.name for f in dataclasses.fields(cls)}]
    assert len(owners) >= 11 and all(issubclass(cls, Holder) for cls in owners)


def test_pickles_leave_held_data_out_and_it_comes_back_read_only():
    G = cyclic(4)
    fresh = pickle.dumps(G)
    coords = coordinate_array(G)
    assert pickle.dumps(G) == fresh
    back = pickle.loads(fresh)
    assert np.array_equal(coordinate_array(back), coords)
    assert not coordinate_array(back).flags.writeable
    amb = AMBIENTS["Klein_Z2cubed"]()
    fresh = pickle.dumps(amb)
    report = xpext_enumerate(amb)
    hom = amb.ext.kernel_hom
    assert len(hom.positions()) and pickle.dumps(amb) == fresh
    back = pickle.loads(fresh)
    assert not back.ext.kernel_hom.positions().flags.writeable
    assert np.array_equal(back.ext.kernel_hom.positions(), hom.positions())
    assert xpext_enumerate(back).verdicts == report.verdicts


def test_a_module_and_an_action_come_back_from_a_pickle_with_read_only_arrays():
    amb = AMBIENTS["Klein_Z2cubed"]()
    for owner, names in ((amb.gmodule()[0], ("matrices", "factors")), (amb.action, ("perms",)),
                         (amb.inflation_map(), ("matrix",))):
        back = pickle.loads(pickle.dumps(owner))
        assert back == owner and hash(back) == hash(owner)
        for name in names:
            assert np.array_equal(getattr(back, name), getattr(owner, name))
            assert not getattr(back, name).flags.writeable


# ---------------------------------------------------------------------------
# one group per table over an ambient

def test_equal_tables_over_an_ambient_are_one_group(monkeypatch):
    amb, tables = AMBIENTS["Klein_Z2cubed"](), []
    real = FiniteGroup.from_table

    def from_table(mul, *args, **kwargs):
        tables.append(np.asarray(mul).tobytes())
        return real(mul, *args, **kwargs)
    monkeypatch.setattr(FiniteGroup, "from_table", staticmethod(from_table))
    xpext_enumerate(amb)
    # from_table runs its checks once per distinct table
    assert tables and len(set(tables)) == len(tables)
    auts = list(q_fixed_auts(amb))
    b_psi = [delta(cp)[0].Gamma for aut in auts for cp in crossed_pair_structures(aut)]
    for groups in (b_psi, [aut.out for aut in auts], [aut.group for aut in auts]):
        one = {}
        assert all(one.setdefault(G.table.tobytes(), G) is G for G in groups)
    assert len(b_psi) > len({G.table.tobytes() for G in b_psi})
    assert len(auts) > len({aut.out.table.tobytes() for aut in auts})


def test_a_held_group_is_refused_above_the_cap_and_its_hash_is_confirmed(monkeypatch):
    amb, fresh = AMBIENTS["Klein_Z2cubed"](), AMBIENTS["Klein_Z2cubed"]()
    B = next(q_fixed_auts(amb)).group
    assert amb.group(B.table) is B
    # the same bytes in the narrowest dtype, but not a group table
    with pytest.raises(GroupError, match="malformed"):
        amb.group(B.table + 256)
    # one cell past the budget: refused, and nothing is held
    monkeypatch.setattr(modlinalg, "CELL_BUDGET", B.order ** 2 - 1)
    with pytest.raises(BudgetExceeded, match=f"order {B.order}: {B.order ** 2} cells exceed"):
        fresh.group(B.table)
    assert not [key for key in fresh._held if key[0] == "group"]


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


def test_the_seeded_section_is_held_per_seed_as_a_tuple():
    amb = AMBIENTS["Klein_Z2cubed"]()
    e_psi = delta(crossed_pair_structures(next(q_fixed_auts(amb)))[0])[0]
    for hom in (amb.ext.quotient_hom, e_psi.pi):
        G, Q = hom.source, hom.target
        fibers = [[g for g in range(G.order) if hom(g) == q] for q in range(Q.order)]
        for seed in range(3):
            want = tuple(G.identity if q == Q.identity else fiber[(seed + 13 * q) % len(fiber)]
                         for q, fiber in enumerate(fibers))
            assert hom.section(seed) == want and hom.section(seed) is hom.section(seed)


def test_the_module_of_a_crossed_2_fold_extension_is_built_once(monkeypatch):
    e2, calls = metacyclic_crossed2(4, 2, 3, 2, 2), []
    counting(monkeypatch, crossed, "gmodule_of_action", calls)
    classes = {cocycle_of_crossed2(e2, seed).module for seed in range(3)}
    assert len(calls) == 1 and classes == {e2.gmodule()[0]}


def test_algebras_hold_their_flat_tensor_and_base_diagonalization():
    rep = frobenius_rep_on_f4()
    A = rep.A
    assert A.flat_tensor is A.flat_tensor and not A.flat_tensor.flags.writeable
    assert A.base_diag is A.base_diag


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
