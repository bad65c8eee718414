import itertools
import random

import pytest

from teichmuller.groups import (
    FiniteGroup,
    GroupError,
    GroupHom,
    abelian_group_from_factors,
    abelian_structure,
    automorphism_group,
    cyclic,
    direct_product,
    fiber_product,
    find_isomorphism,
    group_from_2cocycle,
    identity_hom,
    metacyclic,
    quaternion_table,
    quotient_group,
    subgroup_of,
    trivial_action,
    two_cocycle_of_extension,
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
