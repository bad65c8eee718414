import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teichmuller.groups import (
    FiniteGroup,
    GroupAction,
    GroupError,
    GroupHom,
    abelian_group_from_factors,
    abelian_structure,
    cyclic,
    direct_product,
    fiber_product,
    group_from_2cocycle,
    identity_hom,
    is_two_cocycle,
    metacyclic,
    quaternion_table,
    quotient_group,
    subgroup_of,
    trivial_action,
    two_cocycle_of_extension,
)

from teichmuller import groups, modlinalg
from teichmuller.modlinalg import BudgetExceeded

from group_oracles import (
    quotient_group_oracle,
    automorphism_group,
    extension_table_oracle,
    find_isomorphism,
    is_two_cocycle_int64_oracle,
    is_two_cocycle_oracle,
    is_valid_oracle,
)


def test_from_table_rejects_non_associative():
    with pytest.raises(GroupError):
        FiniteGroup.from_table([[0, 1], [1, 1]])


def test_cyclic_basics():
    C6 = cyclic(6)
    assert C6.identity == 0
    assert C6.element_order(1) == 6
    assert C6.inv[2] == 4
    assert C6.is_abelian()


def test_direct_product_orders():
    G = direct_product(cyclic(2), cyclic(3))
    assert G.order == 6
    assert G.is_abelian()
    assert sorted(G.order_profile().items()) == [(1, 1), (2, 1), (3, 2), (6, 2)]


def test_metacyclic_q8():
    G, ext = metacyclic(4, 2, 3, 2)
    assert G.order == 8
    ext.validate()
    # kernel cyclic of order 4 generated by y, quotient of order 2
    assert ext.kernel_group.order == 4
    assert ext.quotient_group.order == 2
    iso = find_isomorphism(G, quaternion_table())
    assert iso is not None and iso.is_injective()


def test_metacyclic_s3():
    G, _ = metacyclic(3, 2, 2, 0)
    # relations y^3 = 1, x^2 = 1, xyx^-1 = y^2: S_3
    assert G.order == 6
    assert not G.is_abelian()
    assert G.order_profile() == {1: 1, 2: 3, 3: 2}


def test_metacyclic_abelian_when_t_is_1():
    G, _ = metacyclic(4, 3, 1, 0)
    assert G.is_abelian()
    H = direct_product(cyclic(4), cyclic(3))
    assert find_isomorphism(G, H) is not None


def test_metacyclic_precondition_errors():
    with pytest.raises(GroupError):
        metacyclic(4, 2, 2, 0)   # 2^2 = 0 mod 4
    with pytest.raises(GroupError):
        metacyclic(4, 2, 3, 1)   # 3*1 != 1 mod 4


def test_metacyclic_indexing_convention():
    r, s, t, f = 4, 2, 3, 2
    G, _ = metacyclic(r, s, t, f)
    y, x = 1, r
    # x y x^-1 = y^t
    assert G.conj(x, y) == (t % r)
    # x^s = y^f
    assert G.power(x, s) == f % r


def test_group_from_2cocycle_split():
    Q, M = cyclic(2), cyclic(2)
    f = [[0, 0], [0, 0]]
    ext = group_from_2cocycle(Q, M, trivial_action(Q, M), f)
    ext.validate()
    assert find_isomorphism(ext.middle, direct_product(cyclic(2), cyclic(2))) is not None


def test_group_from_2cocycle_c4():
    Q, M = cyclic(2), cyclic(2)
    f = [[0, 0], [0, 1]]
    ext = group_from_2cocycle(Q, M, trivial_action(Q, M), f)
    assert find_isomorphism(ext.middle, cyclic(4)) is not None


def test_group_from_2cocycle_z8_census():
    # Q=C_2, M=Z/4, f(x,x)=2: the element (0,x) has order 4, group is Z/2 x Z/4
    Q, M = cyclic(2), cyclic(4)
    f = [[0, 0], [0, 2]]
    ext = group_from_2cocycle(Q, M, trivial_action(Q, M), f)
    E = ext.middle
    x_elt = 0 + 4 * 1
    assert E.element_order(x_elt) == 4
    assert find_isomorphism(E, direct_product(cyclic(2), cyclic(4))) is not None
    assert find_isomorphism(E, cyclic(8)) is None


def test_cocycle_extraction_roundtrip():
    rng = random.Random(9)
    Q, M = cyclic(2), cyclic(4)
    f = [[0, 0], [0, 1]]
    ext = group_from_2cocycle(Q, M, trivial_action(Q, M), f)
    for seed in range(4):
        g, action = two_cocycle_of_extension(ext, seed=seed)
        ext2 = group_from_2cocycle(Q, M, action, g)
        assert find_isomorphism(ext.middle, ext2.middle) is not None


def test_find_isomorphism_identity_and_negative():
    G = cyclic(4)
    iso = find_isomorphism(G, G)
    assert iso is not None
    assert find_isomorphism(cyclic(4), direct_product(cyclic(2), cyclic(2))) is None


def test_automorphism_group_c2():
    A, perms = automorphism_group(cyclic(2))
    assert A.order == 1


def test_automorphism_group_c8():
    A, perms = automorphism_group(cyclic(8))
    assert A.order == 4  # units of Z/8


def test_automorphism_group_q8():
    A, perms = automorphism_group(quaternion_table())
    assert A.order == 24
    # each permutation is an automorphism
    G = quaternion_table()
    for p in perms[:5]:
        for a in range(8):
            for b in range(8):
                assert p[G.mul[a][b]] == G.mul[p[a]][p[b]]


def test_subgroup_and_quotient():
    G = quaternion_table()
    # <i> = {1,-1,i,-i}
    H, incl = subgroup_of(G, G.closure([2]))
    assert H.order == 4
    Q, proj = quotient_group(G, incl.images)
    assert Q.order == 2
    assert proj.is_valid() and proj.is_surjective()
    assert sorted(proj.kernel()) == sorted(incl.images)


def test_fiber_product():
    C4, C2 = cyclic(4), cyclic(2)
    f = GroupHom.checked(C4, C2, (0, 1, 0, 1))
    g = identity_hom(C2)
    P, p1, p2 = fiber_product(f, g)
    assert P.order == 4
    assert p1.is_valid() and p2.is_valid()


def test_section_hits_identity():
    _, ext = metacyclic(4, 2, 3, 2)
    for seed in range(3):
        sec = ext.section(seed)
        assert sec[ext.quotient_group.identity] == ext.middle.identity
        for q in range(ext.quotient_group.order):
            assert ext.quotient_hom(sec[q]) == q


def test_group_holds_its_presentation():
    for make in (lambda: abelian_group_from_factors((2, 4)),
                 lambda: direct_product(cyclic(6), cyclic(4))):
        M = make()
        held = abelian_structure(M)
        assert abelian_structure(M) is held
        fresh = make()
        assert abelian_structure(fresh) == held and abelian_structure(fresh) is not held
        factors, elem_to_coords, coords_to_elem = held
        assert isinstance(elem_to_coords, tuple)
        assert all(coords_to_elem[c] == e for e, c in enumerate(elem_to_coords))
        # the held data takes no part in equality, hashing or the repr
        other = make()
        assert M._held and not other._held
        assert M == other and hash(M) == hash(other) and repr(M) == repr(other)


def cyclic_table(n: int) -> list:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def test_from_table_rejects_a_table_without_identity():
    with pytest.raises(GroupError, match="no identity"):
        FiniteGroup.from_table([[0, 0], [0, 0]])


def test_from_table_rejects_a_non_unit():
    # the monoid {1, 0} under multiplication: associative with identity 1,
    # but no element inverts 0
    with pytest.raises(GroupError, match="without unique inverse"):
        FiniteGroup.from_table([[0, 0], [0, 1]])


def perturbed(n: int) -> list:
    """Z/n with two entries of the last row swapped: identity 0 kept, not associative."""
    t = cyclic_table(n)
    t[n - 1][1], t[n - 1][2] = t[n - 1][2], t[n - 1][1]
    return t


@pytest.mark.parametrize("n", [130, 256, 257])
def test_from_table_chunked_and_at_the_dtype_boundary(n, monkeypatch):
    # orders above 32 check associativity on a greedy generating set, here
    # the one generator 1; 256 is the last order whose indices fit in uint8,
    # 257 the first to need uint16; the default budget admits all three
    G = FiniteGroup.from_table(cyclic_table(n))
    assert G.identity == 0 and G.inv[1] == n - 1 and G.mul[n - 1][2] == 1
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup.from_table(perturbed(n))
    monkeypatch.setattr(modlinalg, "CELL_BUDGET", n * n - 1)
    with pytest.raises(BudgetExceeded, match=f"a group table of order {n}: {n * n} cells exceed "
                                             f"CELL_BUDGET = {n * n - 1}"):
        FiniteGroup.from_table(cyclic_table(n))


def test_from_table_refuses_a_table_past_the_budget_before_reading_it():
    # 2049^2 = 4198401 cells, one row more than the default budget admits
    class Unread:
        def __len__(self):
            return 2049

        def __getitem__(self, i):
            raise AssertionError("a refused table was read")

    with pytest.raises(BudgetExceeded, match="order 2049: 4198401 cells exceed CELL_BUDGET = 4194304"):
        FiniteGroup.from_table(Unread())


def test_from_table_checks_every_chunk():
    # C32 x P with P = perturbed(8), indexed x + 32 p: every row a < 32 lies
    # in C32 x {1}, which associates with everything, so each failing triple
    # has a >= 32, past the first chunk of 32 rows at order 256
    P = perturbed(8)
    table = [[(x + y) % 32 + 32 * P[p][q] for q in range(8) for y in range(32)]
             for p in range(8) for x in range(32)]
    with pytest.raises(GroupError, match="not associative"):
        FiniteGroup.from_table(table)


def test_group_holds_read_only_arrays():
    G = quaternion_table()
    assert G.table.dtype == np.int64 and G.inverse.dtype == np.int64
    assert G.table.tolist() == [list(row) for row in G.mul]
    assert G.inverse.tolist() == list(G.inv)
    for arr in (G.table, G.inverse):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    # the arrays take no part in the pickled state and come back on loading
    assert "table" not in G.__getstate__() and "inverse" not in G.__getstate__()
    H = pickle.loads(pickle.dumps(G))
    assert H == G and np.array_equal(H.table, G.table) and not H.table.flags.writeable
    assert np.array_equal(H.inverse, G.inverse)


def test_checked_names_an_out_of_range_image():
    C2 = cyclic(2)
    with pytest.raises(GroupError, match="image 2 lies outside the target of order 2"):
        GroupHom.checked(C2, C2, (0, 2))
    assert not GroupHom(C2, C2, (0, 2)).is_valid()
    assert not GroupHom(C2, C2, (0, -1)).is_valid()


def test_checked_names_the_first_failing_pair():
    C4 = cyclic(4)
    with pytest.raises(GroupError, match=r"not a homomorphism at \(1, 1\)"):
        GroupHom.checked(C4, C4, (0, 2, 1, 3))
    assert GroupHom(C4, C4, (0, 2, 1, 3)).first_failing_pair() == (1, 1)
    assert GroupHom(C4, C4, (0, 3, 2, 1)).first_failing_pair() is None


def test_action_validate_checks_homomorphism_and_automorphisms():
    Q8, C2, C4 = quaternion_table(), cyclic(2), cyclic(4)
    # conjugation: each inner automorphism of Q8 appears twice
    GroupAction(Q8, Q8, tuple(tuple(Q8.conj(g, c) for c in range(8)) for g in range(8))).validate()
    with pytest.raises(GroupError, match="not a homomorphism"):
        GroupAction(C2, 3, ((0, 1, 2), (1, 2, 0))).validate()
    # C4 ->> C2 acting on Z/4 by translation by 2: a homomorphism into the
    # permutations, repeated twice, but not by automorphisms
    shift = tuple(tuple((x + 2 * (g % 2)) % 4 for x in range(4)) for g in range(4))
    GroupAction(C4, 4, shift).validate()
    with pytest.raises(GroupError, match="not by automorphisms"):
        GroupAction(C4, C4, shift).validate()


SMALL_GROUPS = [cyclic(1), cyclic(2), cyclic(3), cyclic(4), cyclic(6),
                direct_product(cyclic(2), cyclic(2)), metacyclic(3, 2, 2, 0)[0],
                quaternion_table()]


def first_failing_pair_oracle(hom):
    S, T, im = hom.source, hom.target, hom.images
    return next(((a, b) for a in range(S.order) for b in range(S.order)
                 if im[S.mul[a][b]] != T.mul[im[a]][im[b]]), None)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_valid_matches_the_loop(data):
    S = data.draw(st.sampled_from(SMALL_GROUPS))
    T = data.draw(st.sampled_from(SMALL_GROUPS))
    if data.draw(st.booleans()):
        # a homomorphism most of the time: the power map a -> a^k into S
        k = data.draw(st.integers(0, 12))
        T, images = S, tuple(S.power(a, k) for a in range(S.order))
    else:
        images = tuple(data.draw(st.lists(st.integers(0, T.order - 1),
                                          min_size=S.order, max_size=S.order)))
    hom = GroupHom(S, T, images)
    assert hom.is_valid() == is_valid_oracle(hom)
    assert hom.first_failing_pair() == first_failing_pair_oracle(hom)


def cocycle_cases():
    """(Q, M, action, base cocycle): trivial and nontrivial actions and classes."""
    C2, C3, C4, Z4, Z5 = cyclic(2), cyclic(3), cyclic(4), cyclic(4), cyclic(5)
    S3 = metacyclic(3, 2, 2, 0)[0]
    V = direct_product(cyclic(2), cyclic(2))

    def carry(Q, M, k):  # f(p, q) = k when p + q wraps around in Z/|Q|
        return [[k if p + q >= Q.order else 0 for q in range(Q.order)] for p in range(Q.order)]

    def zero(Q, M):
        return [[M.identity] * Q.order for _ in range(Q.order)]

    neg4 = GroupAction(C2, Z4, ((0, 1, 2, 3), (0, 3, 2, 1)))
    mul2 = GroupAction(C4, Z5, tuple(tuple(m * 2 ** g % 5 for m in range(5)) for g in range(4)))
    sign3 = GroupAction(S3, C3, tuple(((0, 1, 2) if g < 3 else (0, 2, 1)) for g in range(6)))
    neg_v = GroupAction(V, Z4, tuple(((0, 1, 2, 3) if g < 2 else (0, 3, 2, 1)) for g in range(4)))
    return [
        (C2, Z4, trivial_action(C2, Z4), carry(C2, Z4, 1)),
        (C4, C2, trivial_action(C4, C2), carry(C4, C2, 1)),
        (C3, C3, trivial_action(C3, C3), carry(C3, C3, 2)),
        (C2, Z4, neg4, carry(C2, Z4, 2)),
        (C4, Z5, mul2, zero(C4, Z5)),
        (S3, C3, sign3, zero(S3, C3)),
        (V, Z4, neg_v, zero(V, Z4)),
        (V, C2, trivial_action(V, C2), zero(V, C2)),
    ]


COCYCLE_CASES = cocycle_cases()


def twisted(Q, M, action, f, c):
    """f times the coboundary of the normalized 1-cochain c: a cohomologous cocycle."""
    return [[M.mul[M.mul[M.mul[f[p][q]][action.act(p, c[q])]][M.inv[c[Q.mul[p][q]]]]][c[p]]
             for q in range(Q.order)] for p in range(Q.order)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cocycle_check_and_extension_table_match_the_loops(data):
    Q, M, action, base = data.draw(st.sampled_from(COCYCLE_CASES))
    values = st.integers(0, M.order - 1)
    c = [M.identity if q == Q.identity else data.draw(values) for q in range(Q.order)]
    f = twisted(Q, M, action, base, c)
    assert is_two_cocycle(Q, M, action, f) is None
    assert is_two_cocycle_oracle(Q, M, action, f) is None
    E = group_from_2cocycle(Q, M, action, f).middle
    assert [list(row) for row in E.mul] == extension_table_oracle(Q, M, action, f)
    # a random normalized table: the same verdict and the same first witness
    g = [[M.identity if Q.identity in (p, q) else data.draw(values) for q in range(Q.order)]
         for p in range(Q.order)]
    assert is_two_cocycle(Q, M, action, g) == is_two_cocycle_oracle(Q, M, action, g)


def test_cocycle_check_of_a_stack_names_the_first_failing_table(monkeypatch):
    rng = random.Random(2)
    for Q, M, action, f in COCYCLE_CASES:
        g = [[M.identity if Q.identity in (p, q) else rng.randrange(M.order)
              for q in range(Q.order)] for p in range(Q.order)]
        want = is_two_cocycle_oracle(Q, M, action, g)
        # one table per batch, and the whole stack in one batch
        for cells in (1, groups.COCYCLE_CHECK_CELLS):
            monkeypatch.setattr(groups, "COCYCLE_CHECK_CELLS", cells)
            got = is_two_cocycle(Q, M, action, [f, f, g, g])
            assert got == (None if want is None else (2,) + want)


def test_action_holds_a_read_only_array():
    C2, Z4 = cyclic(2), cyclic(4)
    neg = GroupAction(C2, Z4, ((0, 1, 2, 3), (0, 3, 2, 1)))
    assert neg.perms.tolist() == [list(row) for row in neg.table]
    assert not neg.perms.flags.writeable
    assert neg == GroupAction(C2, Z4, ((0, 1, 2, 3), (0, 3, 2, 1)))
    assert "perms" not in repr(neg)
    with pytest.raises(GroupError, match="wrong shape"):
        GroupAction(C2, Z4, ((0, 1, 2, 3), (0, 3, 2))).validate()


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda G: f"order{G.order}")
def test_quotient_group_matches_the_loop(G):
    """Every subgroup generated by one or two elements: the same quotient table
    and coset numbering as the loop for a normal one, the same refusal otherwise."""
    subgroups = {tuple(G.closure(list(gens))) for k in (1, 2)
                 for gens in itertools.combinations(range(G.order), k)}
    for elems in sorted(subgroups):
        try:
            want = quotient_group_oracle(G, elems)
        except GroupError as exc:
            with pytest.raises(GroupError, match=str(exc)):
                quotient_group(G, elems)
            continue
        Q, proj = quotient_group(G, elems)
        assert (Q.mul, proj.images) == (want[0].mul, want[1].images)
    with pytest.raises(GroupError, match="must contain the identity"):
        quotient_group(G, [])


# M of order 300 needs uint16 gathers; Q acts on M through a sign character
# where it has one, by negation
_Z300 = FiniteGroup.from_table((np.arange(300)[:, None] + np.arange(300)) % 300)
NARROW_CASES = [(Q, M, GroupAction(Q, M, [np.arange(M.order) if sign else (-np.arange(M.order)) % M.order
                                          for sign in signs]))
                for Q, signs in ((cyclic(2), (1, 0)), (cyclic(4), (1, 0, 1, 0)), (cyclic(3), (1, 1, 1)))
                for M in (cyclic(2), cyclic(5), _Z300)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(NARROW_CASES), st.integers(1, 6), st.data())
def test_narrow_cocycle_check_matches_the_int64_check(case, k, data):
    """Stacks of coboundaries, each maybe with one entry changed, and of
    random tables: the same verdict and the same first witness."""
    Q, M, action = case
    stack = []
    for _ in range(k):
        c = np.array(data.draw(st.lists(st.integers(0, M.order - 1), min_size=Q.order,
                                        max_size=Q.order)))
        c[Q.identity] = M.identity
        # (dc)(p, q) = p.c(q) - c(pq) + c(p), a normalized 2-cocycle
        f = M.table[M.table[action.perms[:, c], M.inverse[c[Q.table]]], c[:, None]]
        kind = data.draw(st.sampled_from(["coboundary", "changed", "random"]))
        if kind == "changed":
            f[data.draw(st.integers(0, Q.order - 1)), data.draw(st.integers(0, Q.order - 1))] = \
                data.draw(st.integers(0, M.order - 1))
        elif kind == "random":
            f = np.array(data.draw(st.lists(st.integers(0, M.order - 1), min_size=Q.order ** 2,
                                            max_size=Q.order ** 2))).reshape(Q.order, Q.order)
        stack.append(f)
    assert is_two_cocycle(Q, M, action, stack) == is_two_cocycle_int64_oracle(Q, M, action, stack)
    assert is_two_cocycle(Q, M, action, stack[0]) == is_two_cocycle_int64_oracle(Q, M, action, stack[0])


def test_groups_are_equal_exactly_when_their_tables_and_fields_are():
    t = (np.arange(6)[:, None] + np.arange(6)) % 6
    G, H = FiniteGroup.from_table(t), FiniteGroup.from_table(t.tolist())
    assert G == H and hash(G) == hash(H) and G is not H
    assert G != 6 and G != "G"
    # a changed label, or another identity-fixing relabeling of the same group
    labels = [str(i) for i in range(6)]
    assert FiniteGroup.from_table(t, labels=labels) == FiniteGroup.from_table(t, labels=labels)
    assert FiniteGroup.from_table(t, labels=labels) != FiniteGroup.from_table(t, labels=labels[:5] + ["x"])
    swap = np.array([0, 5, 2, 3, 4, 1])
    moved = np.empty_like(t)
    moved[swap[:, None], swap] = swap[t]
    assert not np.array_equal(moved, t) and FiniteGroup.from_table(moved) != G
    assert FiniteGroup.from_table(t, generators=[1]) != G
    # actions compare by actor, carrier and permutations, however they were given
    rows = ((0, 1, 2, 3), (0, 3, 2, 1))
    C2, Z4 = cyclic(2), cyclic(4)
    neg = GroupAction(C2, Z4, np.array(rows))
    assert neg == GroupAction(C2, Z4, rows) and hash(neg) == hash(GroupAction(C2, Z4, rows))
    assert neg != GroupAction(C2, Z4, (rows[0], rows[0])) and neg != GroupAction(C2, 4, rows)
    # a ragged table, which ``validate`` rejects, is unequal to every valid one
    ragged = (rows[0], rows[1][:3])
    assert GroupAction(C2, Z4, ragged).perms is None and GroupAction(C2, Z4, ragged) == GroupAction(C2, Z4, ragged)
    assert GroupAction(C2, Z4, ragged) != neg and neg != GroupAction(C2, Z4, ragged)


def test_a_group_of_order_1088_holds_its_table_once():
    n, h = 1088, 544
    # the dihedral group: a + h s for the rotation a and the reflection bit s
    a, s = np.arange(n) % h, np.arange(n) // h
    t = (a[:, None] + np.where(s[:, None] == 0, a, -a)) % h + h * ((s[:, None] + s) % 2)
    tracemalloc.start()
    try:
        G = FiniteGroup.from_table(t)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the checked table is held as it is, not copied: peak 17.8 MB, 22.5 MB
    # when the held table was a copy
    assert G.order == n and held < 12e6 and peak < 20e6, (held, peak)
    assert G.table.nbytes == 8 * n * n and G.mul[3][5] == int(t[3, 5])
