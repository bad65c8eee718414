import itertools
import random
from math import gcd

import numpy as np
import pytest

from teichmuller.groups import (
    FiniteGroup,
    GroupHom,
    abelian_group_from_factors,
    cyclic,
    direct_product,
    metacyclic,
    quaternion_table,
)
from teichmuller.gmod_cohomology import (
    BudgetExceeded,
    Cochain,
    CohomologyError,
    GModule,
    ModuleMap,
    NotACocycle,
    coboundary,
    coboundary_preimage,
    cohomology,
    cyclic_h3_class_order,
    cyclic_h3_equal,
    cyclic_h3_invariant,
    cyclic_reference_generator,
    cyclic_unit_module,
    inclusion_module_map,
    is_cocycle,
    map_on_cohomology,
    pullback_cochain,
    random_cochain,
    trivial_gmodule,
    zero_cochain,
)
from teichmuller import gmod_cohomology


def negation_module(G, ell):
    """Z/ell with the generator of C_2 = {0,1} acting by -1."""
    return GModule(G, (ell,), (((1,),), ((ell - 1,),)))


# ---------------------------------------------------------------------------
# brute-force oracle over unnormalized cochains (independent of the bar-matrix path)

def brute_h_orders(G, M, n):
    """(|Z^n|, |B^n|) by full enumeration of unnormalized cochain functions."""
    elems = list(range(G.order))
    tuples_n = list(itertools.product(elems, repeat=n))
    tuples_prev = list(itertools.product(elems, repeat=n - 1)) if n else []
    values = list(itertools.product(*[range(d) for d in M.invariant_factors]))

    def d_of(table, args):
        # coboundary of an unnormalized cochain, evaluated at args (length n+1)
        total = [0] * M.rank
        v = M.act(args[0], table[args[1:]])
        total = [a + b for a, b in zip(total, v)]
        for i in range(1, n + 1):
            merged = args[:i - 1] + (G.mul[args[i - 1]][args[i]],) + args[i + 1:]
            sign = 1 if i % 2 == 0 else -1
            total = [a + sign * b for a, b in zip(total, table[merged])]
        sign = 1 if (n + 1) % 2 == 0 else -1
        total = [a + sign * b for a, b in zip(total, table[args[:n]])]
        return M.reduce(total)

    zero = tuple([0] * M.rank)
    cocycles = set()
    for combo in itertools.product(values, repeat=len(tuples_n)):
        table = dict(zip(tuples_n, combo))
        ok = True
        for args in itertools.product(elems, repeat=n + 1):
            if d_of(table, args) != zero:
                ok = False
                break
        if ok:
            cocycles.add(combo)
    if n == 0:
        return len(cocycles), 1
    coboundaries = set()
    for combo in itertools.product(values, repeat=len(tuples_prev)):
        table = dict(zip(tuples_prev, combo))
        img = []
        for args in tuples_n:
            total = [0] * M.rank
            v = M.act(args[0], table[args[1:]])
            total = [a + b for a, b in zip(total, v)]
            for i in range(1, n):
                merged = args[:i - 1] + (G.mul[args[i - 1]][args[i]],) + args[i + 1:]
                sign = 1 if i % 2 == 0 else -1
                total = [a + sign * b for a, b in zip(total, table[merged])]
            sign = 1 if n % 2 == 0 else -1
            total = [a + sign * b for a, b in zip(total, table[args[:n - 1]] if n > 1 else table[()]) ]
            img.append(M.reduce(total))
        coboundaries.add(tuple(img))
    return len(cocycles), len(coboundaries)


def test_d_squared_zero():
    rng = random.Random(0)
    G = cyclic(3)
    M = trivial_gmodule(G, [4])
    for n in range(0, 3):
        for _ in range(5):
            c = random_cochain(M, n, rng)
            assert coboundary(coboundary(c)).is_zero()
    Q8 = quaternion_table()
    M2 = trivial_gmodule(Q8, [2, 4])
    for _ in range(3):
        c = random_cochain(M2, 1, rng)
        assert coboundary(coboundary(c)).is_zero()


def test_d_squared_zero_twisted():
    rng = random.Random(1)
    G = cyclic(2)
    M = negation_module(G, 4)
    M.validate()
    for n in range(0, 3):
        c = random_cochain(M, n, rng)
        assert coboundary(coboundary(c)).is_zero()


def test_h0_is_fixed_module():
    G = cyclic(2)
    M = negation_module(G, 4)
    H = cohomology(G, M, 0)
    # fixed points of negation on Z/4 are {0, 2}
    assert H.invariant_factors == (2,)
    M2 = trivial_gmodule(G, [3, 6])
    H2 = cohomology(G, M2, 0)
    assert H2.invariant_factors == (3, 6)


def test_coboundary_preimage_degree0_is_none():
    # there are no (-1)-cochains, so no 0-cochain is a coboundary of one
    C2 = cyclic(2)
    M = negation_module(C2, 4)
    H = cohomology(C2, M, 0)
    assert H.invariant_factors == (2,)
    for z in (zero_cochain(M, 0), H.generator(0)):
        assert coboundary_preimage(H, z) is None


def test_h3_c2_z2():
    G = cyclic(2)
    M = trivial_gmodule(G, [2])
    H = cohomology(G, M, 3)
    assert H.invariant_factors == (2,)


def test_h1_c2_z4_negation():
    G = cyclic(2)
    M = negation_module(G, 4)
    H = cohomology(G, M, 1)
    assert H.invariant_factors == (2,)


def test_class_of_zero_and_coboundary():
    rng = random.Random(2)
    G = cyclic(4)
    M = trivial_gmodule(G, [2, 4])
    H = cohomology(G, M, 3)
    assert H.class_of(zero_cochain(M, 3)) == tuple([0] * len(H.invariant_factors))
    for _ in range(5):
        c = random_cochain(M, 2, rng)
        assert H.class_of(coboundary(c)) == tuple([0] * len(H.invariant_factors))


def test_class_of_additive():
    rng = random.Random(3)
    G = cyclic(3)
    M = trivial_gmodule(G, [6])
    H = cohomology(G, M, 2)
    # build cocycles by lifting classes and adding coboundaries
    for _ in range(10):
        c1 = H.lift([rng.randrange(f) for f in H.invariant_factors])
        c2 = H.lift([rng.randrange(f) for f in H.invariant_factors])
        c1 = c1 + coboundary(random_cochain(M, 1, rng))
        c2 = c2 + coboundary(random_cochain(M, 1, rng))
        s = H.class_of(c1 + c2)
        expect = tuple((a + b) % f for a, b, f in
                       zip(H.class_of(c1), H.class_of(c2), H.invariant_factors))
        assert s == expect


def test_class_of_rejects_non_cocycle():
    G = cyclic(3)
    M = trivial_gmodule(G, [3])
    H1 = cohomology(G, M, 1)
    c = zero_cochain(M, 1)
    c.table[1, 0] = 1  # f(t) = 1, f(t^2) = 0 is not a homomorphism
    with pytest.raises(NotACocycle) as err:
        H1.class_of(c)
    assert err.value.witness == (1, 1)


def test_generators_have_stated_order():
    G = cyclic(4)
    M = trivial_gmodule(G, [8])
    for n in (2, 3):
        H = cohomology(G, M, n)
        assert H.invariant_factors == (4,)
        gen = H.generator(0)
        assert is_cocycle(gen) is None
        assert H.class_of(gen) == (1,)


def test_cyclic_pattern_small_sweep():
    """H^n(C_s, M) = M^G, M[s], M/sM, M[s], M/sM for n = 0..4 (trivial action)."""
    modules = [(2,), (4,), (2, 2), (3,), (6,), (2, 4)]
    for s in (2, 3, 4):
        G = cyclic(s)
        for factors in modules:
            M = trivial_gmodule(G, factors)
            expected = tuple(sorted(gcd(d, s) for d in factors if gcd(d, s) > 1))
            for n in (1, 2, 3, 4):
                H = cohomology(G, M, n)
                assert tuple(sorted(H.invariant_factors)) == expected, (s, factors, n)


def test_against_brute_force_enumeration():
    cases = [
        (cyclic(2), [2], 1), (cyclic(2), [2], 2), (cyclic(2), [2], 3),
        (cyclic(2), [4], 1), (cyclic(2), [4], 2),
        (cyclic(3), [3], 1), (cyclic(3), [3], 2),
        (cyclic(2), [2, 2], 1),
    ]
    for G, factors, n in cases:
        M = trivial_gmodule(G, factors)
        nz, nb = brute_h_orders(G, M, n)
        H = cohomology(G, M, n)
        assert nz % nb == 0
        assert H.order == nz // nb, (factors, n)


def test_brute_force_twisted():
    G = cyclic(2)
    M = negation_module(G, 4)
    nz, nb = brute_h_orders(G, M, 1)
    H = cohomology(G, M, 1)
    assert H.order == nz // nb == 2


def test_nonabelian_group_cohomology():
    Q8 = quaternion_table()
    M = trivial_gmodule(Q8, [2])
    # known mod-2 cohomology of Q8: dims 1, 2, 2, 1 in degrees 0..3
    assert cohomology(Q8, M, 0).invariant_factors == (2,)
    assert cohomology(Q8, M, 1).invariant_factors == (2, 2)
    assert cohomology(Q8, M, 2).invariant_factors == (2, 2)
    assert cohomology(Q8, M, 3).invariant_factors == (2,)


def test_budget_guard(monkeypatch):
    # H^3(C4 x C4, Z/2): 15^3 = 3,375 columns fit BAR_COLUMN_BUDGET, but the
    # 54,000 rows put the system over BAR_SIZE_BUDGET
    G = direct_product(cyclic(4), cyclic(4))
    M = trivial_gmodule(G, [2])

    def refuse(*args, **kwargs):
        raise AssertionError("elimination started on a refused system")

    monkeypatch.setattr(gmod_cohomology, "_compute_core", refuse)
    with pytest.raises(BudgetExceeded, match="3375 columns / 54000 rows exceeds .*BAR_SIZE_BUDGET"):
        cohomology(G, M, 3)


def test_map_on_cohomology_identity_and_trivial_restriction():
    G = cyclic(4)
    M = trivial_gmodule(G, [4])
    H3 = cohomology(G, M, 3)
    mm = inclusion_module_map(GroupHom(G, G, tuple(range(4))), M)
    for coords in H3.all_classes():
        assert map_on_cohomology(mm, H3, H3, coords) == coords
    T = cyclic(1)
    incl = GroupHom.checked(T, G, (0,))
    mm2 = inclusion_module_map(incl, M)
    Ht = cohomology(T, mm2.target, 3)
    for coords in H3.all_classes():
        assert map_on_cohomology(mm2, H3, Ht, coords) == ()


def test_restriction_c4_to_c2():
    G = cyclic(4)
    M = trivial_gmodule(G, [2])
    H = cohomology(G, M, 2)
    sub = GroupHom.checked(cyclic(2), G, (0, 2))
    mm = inclusion_module_map(sub, M)
    Hs = cohomology(cyclic(2), mm.target, 2)
    # restriction H^2(C_4, Z/2) -> H^2(C_2, Z/2) kills the generator:
    # the C_4 extension restricted to the subgroup of squares splits over C_2? No:
    # restriction of Z/2 -> Z/8 -> C_4 over C_2 = {0,2} is Z/2 -> Z/4 -> C_2, nonsplit.
    img = {map_on_cohomology(mm, H, Hs, c) for c in H.all_classes()}
    assert img == {(0,), (1,)}


def test_functoriality_of_pullback():
    rng = random.Random(5)
    G = cyclic(4)
    M = trivial_gmodule(G, [4])
    sub2 = GroupHom.checked(cyclic(2), G, (0, 2))
    mm = inclusion_module_map(sub2, M)
    triv = GroupHom.checked(cyclic(1), cyclic(2), (0,))
    mm2 = inclusion_module_map(triv, mm.target)
    comp_hom = GroupHom.checked(cyclic(1), G, (0,))
    mm_comp = inclusion_module_map(comp_hom, M)
    for _ in range(5):
        n = rng.randrange(1, 3)
        z = random_cochain(M, n, rng)
        two_step = pullback_cochain(mm2, pullback_cochain(mm, z))
        one_step = pullback_cochain(mm_comp, z)
        assert np.array_equal(two_step.table, one_step.table)


# ---------------------------------------------------------------------------
# cyclic reference generator and periodic invariant

def test_reference_generator_is_cocycle_and_normalized():
    for s in (2, 3, 4, 6):
        for ell in (2, 3, 4, 8):
            xi = cyclic_reference_generator(s, ell)
            assert xi.is_normalized()
            assert is_cocycle(xi) is None


def test_reference_generator_gcd_one_is_zero_class():
    xi = cyclic_reference_generator(2, 3)
    assert xi.is_zero()


def test_reference_generator_class_order():
    for s, ell in [(2, 2), (4, 4), (2, 4), (4, 2), (6, 4), (3, 6)]:
        xi = cyclic_reference_generator(s, ell)
        G = cyclic(s)
        M = cyclic_unit_module(s, ell)
        H = cohomology(G, M, 3)
        coords = H.class_of(xi)
        assert H.class_order(coords) == gcd(s, ell), (s, ell)
        # spec example: order via the periodic invariant as well
        assert cyclic_h3_class_order(xi) == gcd(s, ell)


def test_periodic_invariant_agrees_with_class_of():
    rng = random.Random(7)
    for s, ell in [(2, 2), (3, 3), (4, 2), (4, 4), (2, 8), (6, 2)]:
        G = cyclic(s)
        M = cyclic_unit_module(s, ell)
        H = cohomology(G, M, 3)
        xi = cyclic_reference_generator(s, ell)
        for _ in range(6):
            coords = [rng.randrange(f) for f in H.invariant_factors]
            z = H.lift(coords) + coboundary(random_cochain(M, 2, rng))
            w = H.lift([rng.randrange(f) for f in H.invariant_factors])
            same_full = H.class_of(z) == H.class_of(w)
            assert cyclic_h3_equal(z, w) == same_full


def test_periodic_invariant_twisted_agrees():
    rng = random.Random(8)
    # unit 3 mod 4 on C_4: twisted module; check invariant against full machinery
    s, ell, unit = 4, 4, 3
    M = cyclic_unit_module(s, ell, unit)
    M.validate()
    G = cyclic(s)
    H = cohomology(G, M, 3)
    assert H.order == 2  # ker(norm)/im(u-1) = (Z/4)/{0,2}
    xi = cyclic_reference_generator(s, ell, unit)
    assert is_cocycle(xi) is None
    assert H.class_of(xi) != tuple([0] * len(H.invariant_factors))
    for _ in range(8):
        z = H.lift([rng.randrange(f) for f in H.invariant_factors]) + \
            coboundary(random_cochain(M, 2, rng))
        w = H.lift([rng.randrange(f) for f in H.invariant_factors])
        assert cyclic_h3_equal(z, w) == (H.class_of(z) == H.class_of(w))


def test_diagonal_split_matches_unsplit():
    G = cyclic(4)
    M = trivial_gmodule(G, [2, 4])
    H = cohomology(G, M, 2)
    # force the unsplit path by a non-diagonal (but equivalent) action: identity
    # matrices are diagonal, so instead compare orders with the known answer
    assert sorted(H.invariant_factors) == [2, 4]
    gen0 = H.generator(0)
    gen1 = H.generator(1)
    assert H.class_of(gen0) == (1, 0)
    assert H.class_of(gen1) == (0, 1)


def _negate_second(G, d):
    """(Z/d)^2 over C_2 = {0,1}, the generator negating the second summand."""
    return GModule(G, (d, d), (((1, 0), (0, 1)), ((1, 0), (0, d - 1))))


@pytest.mark.parametrize("G, M, n, expected", [
    # order 2^36: gluing modulo the order would overflow int64
    (abelian_group_from_factors((2, 2, 2)), lambda G: trivial_gmodule(G, [2] * 6), 2, (2,) * 36),
    (cyclic(2), lambda G: trivial_gmodule(G, [1 << 16, 1 << 16]), 0, (1 << 16, 1 << 16)),
    # the summands give Z/4 then Z/2, out of divisibility order
    (cyclic(2), lambda G: _negate_second(G, 4), 0, (2, 4)),
], ids=["order_2_36", "order_2_32", "out_of_order"])
def test_split_module_glues_modulo_lcm(G, M, n, expected):
    rng = random.Random(11)
    M = M(G)
    H = cohomology(G, M, n)
    assert H.invariant_factors == expected
    for _ in range(4):
        coords = tuple(rng.randrange(f) for f in expected)
        z = H.lift(coords)
        if n:
            z = z + coboundary(random_cochain(M, n - 1, rng))
        assert H.class_of(z) == coords


def test_module_validate_names_the_failing_pair():
    # C_4 acting on Z/5 through 2, and on Z/2 + Z/4 trivially: both valid
    G = cyclic(4)
    GModule(G, (5,), tuple(((pow(2, g, 5),),) for g in range(4))).validate()
    trivial_gmodule(G, [2, 4]).validate()
    # the action of 2 replaced by that of 1: 2 * 2 = 4 differs from the entry at 1 + 1 = 2
    bad = GModule(G, (5,), (((1,),), ((2,),), ((2,),), ((3,),)))
    with pytest.raises(CohomologyError, match=r"action is not a homomorphism at \(1, 1\)"):
        bad.validate()
