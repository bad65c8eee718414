"""The table laws checked on a held generating set against full scans.

``FiniteGroup.from_table``, ``GroupHom.is_valid``, ``GroupAction.validate``,
``first_nonmultiplicative_pair`` and ``validate_crossed_module`` check their
laws on the groups' ``gens`` only (Light's test and its homomorphism form);
the oracles in ``group_oracles`` check every pair or triple.  Inputs are
groups on both sides of order 32, where ``gens`` switches from every element
to a greedy generating set, relabeled at random and then perturbed.
"""

import functools
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teichmuller.crossed import CrossedModule, validate_crossed_module
from teichmuller.finrings import frobenius_lift, gf, map_ring, ring_as_algebra, units_group
from teichmuller.groups import (
    ALL_GENERATORS_ORDER,
    FiniteGroup,
    _generating_set,
    GroupAction,
    GroupError,
    GroupExtension,
    GroupHom,
    cyclic,
    direct_product,
    metacyclic,
    quaternion_table,
    subgroup_of,
)
from teichmuller.modlinalg import first_nonmultiplicative_pair
from teichmuller.normal_algebras import BaseAction, CrossedProductSpec, NormalStructureError

from group_oracles import (
    action_validate_oracle,
    check_table_oracle,
    first_nonmultiplicative_pair_oracle,
    generating_set_oracle,
    is_valid_oracle,
    validate_crossed_module_oracle,
)


def _cyclic_onto(n: int, d: int):
    return cyclic(n), cyclic(d), [g % d for g in range(n)]


def _product_onto(A: FiniteGroup, B: FiniteGroup):
    return direct_product(A, B), B, [g % B.order for g in range(A.order * B.order)]


def _metacyclic_onto(r: int, s: int, t: int, f: int):
    G, ext = metacyclic(r, s, t, f)
    return G, ext.quotient_group, list(ext.quotient_hom.images)


# (G, Q, images of a surjection G -> Q with |Q| <= 8), orders 1 to 64
POOL = [
    lambda: _cyclic_onto(1, 1),
    lambda: _cyclic_onto(12, 4),
    lambda: _cyclic_onto(32, 8),
    lambda: _cyclic_onto(33, 3),
    lambda: _cyclic_onto(64, 4),
    lambda: _product_onto(cyclic(4), cyclic(2)),
    lambda: _product_onto(quaternion_table(), cyclic(3)),
    lambda: _product_onto(quaternion_table(), cyclic(5)),
    lambda: _product_onto(cyclic(12), cyclic(4)),
    lambda: _product_onto(metacyclic(3, 2, 2, 0)[0], metacyclic(3, 2, 2, 0)[0]),
    lambda: _product_onto(quaternion_table(), quaternion_table()),
    lambda: _metacyclic_onto(4, 2, 3, 2),
    lambda: _metacyclic_onto(16, 2, 15, 8),
    lambda: _metacyclic_onto(17, 2, 16, 0),
    lambda: _metacyclic_onto(8, 4, 3, 0),
    lambda: _metacyclic_onto(13, 4, 5, 0),
]


@functools.lru_cache(maxsize=None)
def pool_item(i: int):
    return POOL[i]()


def relabeled(G: FiniteGroup, perm) -> tuple[FiniteGroup, np.ndarray]:
    """G with element a renamed perm[a], and the renaming as an array."""
    p = np.asarray(perm, dtype=np.int64)
    t = np.empty_like(G.table)
    t[p[:, None], p[None, :]] = p[G.table]
    return FiniteGroup.from_table(t), p


@st.composite
def pooled(draw):
    """(G, maybe relabeled, Q, pi: G -> Q) for a drawn pool entry; unrelabeled,
    the identity of G is 0, the first element of ``gens`` up to order 32."""
    G, Q, images = pool_item(draw(st.integers(0, len(POOL) - 1)))
    perm = draw(st.permutations(range(G.order))) if draw(st.booleans()) else range(G.order)
    H, p = relabeled(G, perm)
    pi = np.empty(G.order, dtype=np.int64)
    pi[p] = images
    return H, Q, pi


def closure(t: np.ndarray, start) -> set:
    """Closure of ``start`` under products in the table t, by plain loops."""
    seen = set(int(a) for a in start)
    frontier = list(seen)
    while frontier:
        a = frontier.pop()
        for b in list(seen):
            for c in (int(t[a, b]), int(t[b, a])):
                if c not in seen:
                    seen.add(c)
                    frontier.append(c)
    return seen


@settings(max_examples=40, deadline=None)
@given(pooled())
def test_generating_set_closes_to_the_whole_group(item):
    G, _, _ = item
    gens = G.gens
    assert not gens.flags.writeable
    assert closure(G.table, [G.identity, *gens.tolist()]) == set(range(G.order))
    if G.order <= ALL_GENERATORS_ORDER:
        assert gens.tolist() == list(range(G.order))
    else:
        # each generator lies outside the subgroup the earlier ones generate,
        # so it at least doubles it
        assert 2 ** len(gens) <= G.order
        assert G.identity not in gens.tolist()


FACTORS = [cyclic(k) for k in range(2, 13)] + [quaternion_table(), metacyclic(3, 2, 2, 0)[0]]


@st.composite
def products_and_extensions(draw) -> np.ndarray:
    """The table of a direct product of two small groups, of a metacyclic
    extension G(r, s, t, f) of C_r by C_s, or of the non-associative
    ``twisted_product``, of order 33 to 200."""
    kind = draw(st.sampled_from(["product", "metacyclic", "twisted"]))
    if kind == "product":
        A = draw(st.sampled_from([A for A in FACTORS if A.order * 12 >= 33]))
        B = draw(st.sampled_from([B for B in FACTORS if 33 <= A.order * B.order <= 200]))
        return direct_product(A, B).table
    if kind == "twisted":
        m = draw(st.integers(3, 8))
        return np.array(twisted_product(draw(st.integers(-(-33 // m), 200 // m)), m))
    s = draw(st.integers(2, 8))
    r = draw(st.integers(-(-33 // s), 200 // s))
    t = draw(st.sampled_from([t for t in range(1, r) if pow(t, s, r) == 1]))
    f = draw(st.sampled_from([f for f in range(r) if (t * f - f) % r == 0]))
    return metacyclic(r, s, t, f)[0].table


@settings(max_examples=80, deadline=None)
@given(products_and_extensions(), st.data())
def test_generating_set_picks_what_the_whole_round_closure_picks(t, data):
    """On the table relabeled at random, whose identity is then p[0]: the
    same picks as the closure by whole rounds S <- S u SS."""
    p = np.asarray(data.draw(st.permutations(range(len(t)))))
    u = np.empty_like(t)
    u[p[:, None], p[None, :]] = p[t]
    want = generating_set_oracle(u, int(p[0]))
    assert _generating_set(u, int(p[0])).tolist() == want.tolist()
    if data.draw(st.booleans()):
        assert _generating_set(u.astype(np.uint8), int(p[0])).tolist() == want.tolist()


@pytest.mark.parametrize("make, digest", [
    (lambda: cyclic(3), "52948cc25d6ffe265fd62aa6485e37861a943c81a966a3cb3eae311a2fa41cb7"),
    (quaternion_table, "a3d726816eddc325e46e425ae660998a30ca73d8119ab59f6162c1fa968804cc"),
    (lambda: direct_product(quaternion_table(), cyclic(5)),
     "44f30675033f7daa1009076348161271d255bc7fcc82582bd53b8c14fe3b29f4"),
])
def test_pickles_leave_out_the_generating_set(make, digest):
    # the digests are of pickles made before groups held ``gens``
    G = make()
    assert "gens" not in G.__getstate__()
    data = pickle.dumps(G, protocol=4)
    assert hashlib.sha256(data).hexdigest() == digest
    H = pickle.loads(data)
    assert pickle.dumps(H, protocol=4) == data
    assert np.array_equal(H.gens, G.gens) and not H.gens.flags.writeable


def outcome(check, *args):
    """The message of the GroupError that check raises, or None."""
    try:
        check(*args)
    except GroupError as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(pooled(), st.data())
def test_from_table_matches_the_full_scan_on_perturbed_tables(item, data):
    G, _, _ = item
    n = G.order
    t = G.table.copy()
    kind = data.draw(st.sampled_from(["none", "swap", "entry"]))
    if kind == "swap" and n > 2:
        r = data.draw(st.integers(0, n - 1))
        c1, c2 = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        t[r, c1], t[r, c2] = t[r, c2], t[r, c1]
    elif kind == "entry":
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        t[r, c] = data.draw(st.integers(0, n - 1))
    want = outcome(check_table_oracle, t)
    assert outcome(FiniteGroup.from_table, t) == want
    if kind == "none":
        assert want is None


def twisted_product(k: int, m: int) -> list:
    """C_k x P, P = Z/m with two entries of its last row swapped, indexed
    x + k p: every element of C_k x {1}, the first generator among them,
    associates with everything, so each failing triple has its middle
    outside C_k x {1}."""
    P = [[(a + b) % m for b in range(m)] for a in range(m)]
    P[m - 1][1], P[m - 1][2] = P[m - 1][2], P[m - 1][1]
    return [[(x + y) % k + k * P[p][q] for q in range(m) for y in range(k)]
            for p in range(m) for x in range(k)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(3, 8), st.data())
def test_from_table_finds_failures_off_the_first_generator(k, m, data):
    t = np.array(twisted_product(k, m))
    p = np.asarray(data.draw(st.permutations(range(k * m))))
    t2 = np.empty_like(t)
    t2[p[:, None], p[None, :]] = p[t]
    for table in (t, t2):
        assert outcome(check_table_oracle, table) == "multiplication table is not associative"
        with pytest.raises(GroupError, match="not associative"):
            FiniteGroup.from_table(table)


@settings(max_examples=100, deadline=None)
@given(pooled(), st.data())
def test_is_valid_matches_the_pairwise_loop(item, data):
    G, Q, pi = item
    target = data.draw(st.sampled_from(["quotient", "self"]))
    T, images = (Q, pi.copy()) if target == "quotient" else (G, np.arange(G.order))
    if data.draw(st.booleans()):
        a = data.draw(st.integers(0, G.order - 1))
        images[a] = data.draw(st.integers(0, T.order - 1))
    hom = GroupHom(G, T, tuple(int(x) for x in images))
    assert hom.is_valid() == is_valid_oracle(hom)
    assert (hom.first_failing_pair() is None) == is_valid_oracle(hom)


def perturbed_rows(data, rows: np.ndarray) -> np.ndarray:
    """rows with, maybe, one row replaced by another or two entries of a row swapped."""
    rows = rows.copy()
    kind = data.draw(st.sampled_from(["none", "row", "swap"]))
    g = data.draw(st.integers(0, len(rows) - 1))
    if kind == "row":
        rows[g] = rows[data.draw(st.integers(0, len(rows) - 1))]
    elif kind == "swap" and rows.shape[1] > 1:
        c1, c2 = data.draw(st.lists(st.integers(0, rows.shape[1] - 1),
                                    min_size=2, max_size=2, unique=True))
        rows[g, [c1, c2]] = rows[g, [c2, c1]]
    return rows


@settings(max_examples=120, deadline=None)
@given(pooled(), st.data())
def test_action_validate_matches_the_full_scan(item, data):
    G, Q, pi = item
    carrier = data.draw(st.sampled_from(["conjugation", "twisted", "quotient", "translation", "set"]))
    conj = G.table[G.table, G.inverse[:, None]]
    if carrier == "conjugation":
        # G on itself, by automorphisms
        C, rows = G, conj
    elif carrier == "twisted":
        # conjugation moved along a bijection s of G that fixes 1: a homomorphism
        # whose permutations fix 1 but are, in general, no automorphisms
        s = np.array(data.draw(st.permutations(range(G.order))))
        i = int(np.flatnonzero(s == G.identity)[0])
        s[i], s[G.identity] = s[G.identity], s[i]
        C, rows = G, s[conj[:, np.argsort(s)]]
    elif carrier == "quotient":
        # G on Q by conjugation through pi, by automorphisms
        C, rows = Q, Q.table[Q.table[pi], Q.inverse[pi][:, None]]
    else:
        # G on Q by left translation through pi: a homomorphism, but by
        # automorphisms only for trivial Q; or on the set of Q's elements
        C, rows = Q if carrier == "translation" else Q.order, Q.table[pi]
    rows = perturbed_rows(data, rows)
    action = GroupAction(G, C, tuple(map(tuple, rows.tolist())))
    assert outcome(action.validate) == outcome(action_validate_oracle, action)


def test_action_validate_finds_permutations_that_fix_1_but_are_no_automorphisms():
    # conjugation moved along the transposition s of 1 and the next element of
    # another order: a homomorphism whose permutations fix 1, the identity, which
    # is 0 in every pool group and so first among ``gens`` up to order 32
    failing = 0
    for i in range(len(POOL)):
        G = pool_item(i)[0]
        if G.is_abelian():
            continue
        b = next(x for x in range(2, G.order) if G.element_order(x) != G.element_order(1))
        s = np.arange(G.order)
        s[[1, b]] = s[[b, 1]]
        action = GroupAction(G, G, tuple(map(tuple, s[G.table[G.table, G.inverse[:, None]][:, s]].tolist())))
        want = outcome(action_validate_oracle, action)
        assert outcome(action.validate) == want
        failing += want == "action is not by automorphisms"
    assert failing >= 5


@settings(max_examples=100, deadline=None)
@given(pooled(), st.sampled_from([2, 3, 4, 6]), st.data())
def test_first_nonmultiplicative_pair_matches_the_row_scan(item, m, data):
    G, Q, pi = item
    # the left regular representation of Q, P(a) e_b = e_ab, pulled back along pi
    P = np.eye(Q.order, dtype=np.int64)[:, Q.table].transpose(1, 0, 2)
    mats = P[pi] % m
    if data.draw(st.booleans()):
        g = data.draw(st.integers(0, G.order - 1))
        i, j = data.draw(st.integers(0, Q.order - 1)), data.draw(st.integers(0, Q.order - 1))
        mats[g, i, j] = (mats[g, i, j] + data.draw(st.integers(1, m - 1))) % m
    assert first_nonmultiplicative_pair(mats, G, m) == \
        first_nonmultiplicative_pair_oracle(mats, G.mul, m)


@settings(max_examples=100, deadline=None)
@given(pooled(), st.data())
def test_crossed_module_report_matches_the_full_scan(item, data):
    G, Q, pi = item
    # C = ker(pi) or G, into G by inclusion; G acts by conjugation through phi
    kernel = [g for g in range(G.order) if pi[g] == pi[G.identity]]
    C, inc = subgroup_of(G, kernel) if data.draw(st.booleans()) else \
        (G, GroupHom(G, G, tuple(range(G.order))))
    h = data.draw(st.integers(0, G.order - 1))
    phi = {"identity": np.arange(G.order),
           "trivial": np.full(G.order, G.identity),
           "twisted": G.table[G.table[h], G.inverse[h]]}[
        data.draw(st.sampled_from(["identity", "trivial", "twisted"]))]
    ci, into = np.array(inc.images), np.full(G.order, -1)
    into[ci] = np.arange(C.order)
    rows = into[G.table[G.table[phi][:, ci], G.inverse[phi][:, None]]]
    rows = perturbed_rows(data, rows)
    cm = CrossedModule(C, G, inc, GroupAction(G, C, tuple(map(tuple, rows.tolist()))))
    assert validate_crossed_module(cm) == validate_crossed_module_oracle(cm)


def test_crossed_product_spec_checks_that_i_keeps_the_unit():
    # i sends the trivial K to the idempotent (1, 0) of F_3 x F_3: i is
    # multiplicative, but i(1) is no unit, and every later check passes
    S = map_ring(2, gf(3, 1))
    A = ring_as_algebra(S)
    eye = np.eye(A.flat_rank, dtype=np.int64)
    K, Q = cyclic(1), cyclic(2)
    ext = GroupExtension(GroupHom.checked(K, Q, (0,)), GroupHom.checked(Q, Q, (0, 1)))
    spec = CrossedProductSpec(A=A, base_action=BaseAction(Q, S, (eye, eye)), ext=ext,
                              i_images=((1, 0),), theta=(eye, eye))
    with pytest.raises(NormalStructureError, match="i\\(K\\) contains a non-unit"):
        spec.validate()
    CrossedProductSpec(A=A, base_action=spec.base_action, ext=ext,
                       i_images=((1, 1),), theta=(eye, eye)).validate()


def test_crossed_product_spec_names_the_failing_equivariance_pair_above_order_32():
    # U(F_32) x C_5 (order 155) with theta through the Frobenius grade: the
    # direct product conjugates K trivially, so i(g y g^-1) = i(y) differs
    # from fr^q(i(y)) off the prime field
    S = gf(2, 5)
    fr = frobenius_lift(S)
    frs = [np.linalg.matrix_power(fr, q) % 2 for q in range(5)]
    A = ring_as_algebra(S)
    units = units_group(A)
    K, Q = units.group, cyclic(5)
    Gamma = direct_product(K, Q)
    assert len(Gamma.gens) < Gamma.order
    ext = GroupExtension(GroupHom.checked(K, Gamma, tuple(5 * y for y in range(K.order))),
                         GroupHom.checked(Gamma, Q, tuple(g % 5 for g in range(Gamma.order))))
    i_images = tuple(tuple(int(x) for x in units.elements[y]) for y in range(K.order))
    spec = CrossedProductSpec(A=A, base_action=BaseAction(Q, S, tuple(frs)), ext=ext,
                              i_images=i_images, theta=tuple(frs[g % 5] for g in range(Gamma.order)))
    into_k = spec.ext.kernel_hom.positions()
    want = next((g, y) for g in range(Gamma.order) for y in range(K.order)
                if not np.array_equal(spec.i_images[into_k[Gamma.conj(g, 5 * y)]] % 2,
                                      frs[g % 5] @ spec.i_images[y] % 2))
    with pytest.raises(NormalStructureError,
                       match=rf"i is not Gamma-equivariant at \({want[0]}, {want[1]}\)"):
        spec.validate()
