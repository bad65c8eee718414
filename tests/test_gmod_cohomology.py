import hashlib
import itertools
import random
import re
import time
import tracemalloc
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teichmuller.crossed_pairs import Ambient
from teichmuller.groups import (
    FiniteGroup,
    GroupExtension,
    GroupHom,
    abelian_group_from_factors,
    cyclic,
    direct_product,
    metacyclic,
    quaternion_table,
    trivial_action,
)
from teichmuller.modlinalg import diagonalize_mod
from teichmuller.gmod_cohomology import (
    BudgetExceeded,
    _bar_positions,
    _bar_symbols,
    Cochain,
    CohomologyError,
    MAX_DEGREE,
    GModule,
    ModuleMap,
    NotACocycle,
    bar_coboundary_matrix,
    coboundary,
    coboundary_preimage,
    cohomology,
    cyclic_h3_equal,
    cyclic_h3_invariant,
    cyclic_h3_values,
    cyclic_reference_generator,
    cyclic_unit_module,
    free_resolution,
    inclusion_module_map,
    is_cocycle,
    map_on_cohomology,
    pullback_cochain,
    random_cochain,
    trivial_gmodule,
    zero_cochain,
)
from teichmuller import gmod_cohomology, modlinalg

from bar_oracle import bar_cohomology, coboundary_loop
from test_class_stacks import modules


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_coboundary_matches_the_loop(n, seed):
    # unnormalized cochains too: the held face indices serve any table
    rng = random.Random(seed)
    S3, _ = metacyclic(3, 2, 2, 0)
    sign = tuple(((1,),) if g < 3 else ((2,),) for g in range(S3.order))
    M = rng.choice([trivial_gmodule(quaternion_table(), [2, 4]), negation_module(cyclic(2), 4),
                    GModule(S3, (3,), sign), trivial_gmodule(cyclic(3), [])])
    if n == 3 and M.group.order > 6:
        n = 2
    shape = (M.group.order,) * n + (M.rank,)
    c = Cochain(M, n, np.array([rng.randrange(12) for _ in range(int(np.prod(shape)))],
                               dtype=np.int64).reshape(shape))
    assert np.array_equal(coboundary(c).table, coboundary_loop(c).table)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(modules().values())), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
def test_bar_coboundary_matrix_is_the_coboundary_on_the_scaled_model(M, n, seed):
    # coordinate i of a value scaled by m/d_i, at the symbols with no identity argument
    G, m = M.group, M.exponent
    scale = m // np.array(M.invariant_factors, dtype=np.int64)

    def scaled(c):
        return (c.table.reshape(G.order ** c.degree, M.rank)[_bar_positions(G, c.degree)]
                * scale % m).reshape(-1)

    c = random_cochain(M, n, random.Random(seed))
    d = bar_coboundary_matrix(M, n) @ scaled(c) % m
    assert np.array_equal(d, scaled(coboundary(c)))
    assert np.array_equal(d, scaled(coboundary_loop(c)))


@pytest.mark.parametrize("G", [cyclic(1), cyclic(3), quaternion_table(), metacyclic(3, 2, 2, 0)[0]],
                         ids=["C1", "C3", "Q8", "S3"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bar_symbols_invert_bar_positions(G, n):
    E, symbols, pos = G.order - 1, _bar_symbols(G, n), _bar_positions(G, n)
    assert np.array_equal(symbols[pos], np.arange(E ** n))
    degenerate = np.array([G.identity in args for args in np.ndindex(*(G.order,) * n)])
    assert np.array_equal(np.flatnonzero(~degenerate), pos)
    assert (symbols[degenerate] == E ** n).all()


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


def test_resolution_budget_refuses_before_any_elimination(monkeypatch):
    # H^3 of a group of order 64: the comparison map Psi_3 alone has at least
    # 63^3 x 64 cells, so nothing is eliminated
    G = direct_product(direct_product(cyclic(4), cyclic(4)), cyclic(4))
    M = trivial_gmodule(G, [2])

    def refuse(*args, **kwargs):
        raise AssertionError("elimination started on a refused system")

    monkeypatch.setattr(gmod_cohomology, "diagonalize_mod", refuse)
    with pytest.raises(BudgetExceeded, match=r"Psi_3: a 250047 x 64 matrix over Z/2: 16003008 "
                                             r"cells exceed CELL_BUDGET = 4194304"):
        cohomology(G, M, 3)


def test_resolution_budget_is_checked_before_each_elimination(monkeypatch):
    """With the budget set to each size in turn, every matrix gmod_cohomology
    eliminates fits it, and each refusal names its matrix, shape and m.  For
    H^2(Q8, Z/2) the comparison map Psi_2 (49 x 8) is checked first, the
    generator search for F_2 (16 x 27) later, and Psi_2 at its full size
    (49 x 16) last."""

    def checked(A, m, *args, **kwargs):
        assert np.size(A) <= modlinalg.CELL_BUDGET, np.shape(A)
        return diagonalize_mod(A, m, *args, **kwargs)

    monkeypatch.setattr(gmod_cohomology, "diagonalize_mod", checked)
    refused = []
    # a fresh Q8 per budget, built before any budget is lowered
    for budget, Q8 in zip((60, 400, 500, 1000), [quaternion_table() for _ in range(4)]):
        monkeypatch.setattr(modlinalg, "CELL_BUDGET", budget)
        try:
            H = cohomology(Q8, trivial_gmodule(Q8, [2]), 2)
        except BudgetExceeded as exc:
            found = re.fullmatch(rf"(.+): a (\d+) x (\d+) matrix over Z/2: \d+ cells exceed "
                                 rf"CELL_BUDGET = {budget}", str(exc))
            assert found and int(found[2]) * int(found[3]) > budget, str(exc)
            refused.append(found.groups())
        else:
            assert budget == 1000 and H.invariant_factors == (2, 2)
    assert refused == [("Psi_2", "49", "8"), ("generators of F_2", "16", "27"),
                       ("Psi_2", "49", "16")]


def test_cohomology_is_held_per_degree_and_module_content(monkeypatch):
    # Z/4 under the trivial C_2 = N of Klein >-> C_2, from three builders:
    # equal content, so one H^2 and one _compute_core
    klein, C2 = direct_product(cyclic(2), cyclic(2)), cyclic(2)
    ext = GroupExtension(GroupHom.checked(C2, klein, (0, 2)),
                         GroupHom.checked(klein, C2, (0, 1, 0, 1)))
    amb = Ambient(ext=ext, Mgrp=cyclic(4), action=trivial_action(klein, cyclic(4)))
    G, cores, real = C2, [], gmod_cohomology._compute_core
    monkeypatch.setattr(gmod_cohomology, "_compute_core",
                        lambda *args: cores.append(args) or real(*args))
    M = trivial_gmodule(G, [4])
    H = cohomology(G, M, 2)
    for twin in (trivial_gmodule(G, [4]), GModule(G, (4,), (((1,),), ((1,),))),
                 amb.restricted_gmodule(amb.ext.kernel_hom)[0]):
        assert twin is not M and twin == M and hash(twin) == hash(M)
        assert cohomology(G, twin, 2) is H
    assert len(cores) == 1
    assert cohomology(G, M, 3) is not H
    assert cohomology(G, negation_module(G, 4), 2) is not H
    # a refused build holds nothing, and a later admitted one is held
    Q8 = quaternion_table()
    budget = modlinalg.CELL_BUDGET
    monkeypatch.setattr(modlinalg, "CELL_BUDGET", 60)
    with pytest.raises(BudgetExceeded):
        cohomology(Q8, trivial_gmodule(Q8, [2]), 2)
    assert not [key for key in Q8._held if key[0] == "cohomology"]
    monkeypatch.setattr(modlinalg, "CELL_BUDGET", budget)
    H = cohomology(Q8, trivial_gmodule(Q8, [2]), 2)
    assert H.invariant_factors == (2, 2) and cohomology(Q8, trivial_gmodule(Q8, [2]), 2) is H


def test_coboundary_preimage_budget_refuses_before_any_elimination(monkeypatch):
    # H^4(C16, Z/2) is admitted, but the preimage would hold the chain
    # homotopy s_3 on the bar resolution, 15^3 x 15^4 cells
    G = cyclic(16)
    H = cohomology(G, trivial_gmodule(G, [2]), 4)
    assert H.invariant_factors == (2,)
    z = H.generator(0)

    def refuse(*args, **kwargs):
        raise AssertionError("elimination started on a refused system")

    monkeypatch.setattr(gmod_cohomology, "diagonalize_mod", refuse)
    with pytest.raises(BudgetExceeded, match=r"homotopy s_3: a 3375 x 50625 "
                                             r"matrix over Z/2: 170859375 cells exceed CELL_BUDGET"):
        coboundary_preimage(H, z)


def test_h3_c4xc4_z2_is_four_copies_of_z2():
    # Kunneth: H^3(C4 x C4, Z/2) = (Z/2)^4; the bar complex had 3,375 columns
    G = direct_product(cyclic(4), cyclic(4))
    start = time.perf_counter()
    H = cohomology(G, trivial_gmodule(G, [2]), 3)
    assert H.invariant_factors == (2, 2, 2, 2)
    assert_round_trips(H, random.Random(21), 3)
    assert time.perf_counter() - start < 5


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


def cyclic_h3_class_order(z: Cochain) -> int:
    """Order of [z] in H^3(C_s, Z/ell), read off the periodic invariant."""
    ell = z.module.invariant_factors[0] if z.module.rank else 1
    if ell == 1:
        return 1
    w = is_cocycle(z)
    if w is not None:
        raise NotACocycle(w)
    _, g1 = cyclic_h3_values(z.module)
    inv = cyclic_h3_invariant(z) % g1
    return g1 // gcd(inv, g1) if inv else 1


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
    # a diagonal module of mixed moduli, solved as one system over Z/4
    assert sorted(H.invariant_factors) == [2, 4]
    gen0 = H.generator(0)
    gen1 = H.generator(1)
    assert H.class_of(gen0) == (1, 0)
    assert H.class_of(gen1) == (0, 1)


def _negate_second(G, d):
    """(Z/d)^2 over C_2 = {0,1}, the generator negating the second summand."""
    return GModule(G, (d, d), (((1, 0), (0, 1)), ((1, 0), (0, d - 1))))


@pytest.mark.parametrize("G, M, n, expected", [
    # order 2^36: the product of the factors would overflow int64
    (abelian_group_from_factors((2, 2, 2)), lambda G: trivial_gmodule(G, [2] * 6), 2, (2,) * 36),
    (cyclic(2), lambda G: trivial_gmodule(G, [1 << 16, 1 << 16]), 0, (1 << 16, 1 << 16)),
    # the coordinates give Z/4 then Z/2, out of divisibility order
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


def test_a_wrong_shaped_table_is_refused_with_both_shapes():
    G = cyclic(2)
    with pytest.raises(CohomologyError, match=r"action must have shape \(2, 1, 1\), not \(2, 1, 2\)"):
        GModule(G, (4,), (((1, 0),), ((3, 0),)))
    with pytest.raises(CohomologyError, match=r"action must have shape \(2, 1, 1\), not a ragged"):
        GModule(G, (4,), (((1,),), ((3, 0),)))
    with pytest.raises(CohomologyError, match="need one action matrix per group element"):
        GModule(G, (4,), (((1,),),))
    M = trivial_gmodule(G, [4])
    with pytest.raises(CohomologyError, match=r"matrix has wrong shape \(1, 2\), not \(1, 1\)"):
        ModuleMap(GroupHom(G, G, (0, 1)), M, M, ((1, 0),)).validate()
    with pytest.raises(CohomologyError, match=r"matrix must have shape \(1, 1\), not a ragged"):
        ModuleMap(GroupHom(G, G, (0, 1)), M, M, ((1,), (2, 3)))


def test_a_singular_action_is_refused_as_not_a_homomorphism():
    # C_2 acting on Z/4 through 2, which is not invertible: 2 * 2 = 0 differs
    # from the entry 1 at 1 + 1 = 0, so no check of invertibility is needed
    bad = GModule(cyclic(2), (4,), (((1,),), ((2,),)))
    with pytest.raises(CohomologyError, match=r"action is not a homomorphism at \(1, 1\)"):
        bad.validate()


# ---------------------------------------------------------------------------
# the held free resolution against the bar complex

def assert_round_trips(H, rng, trials):
    """class_of(lift(c) + a coboundary) == c for random classes c."""
    M, n = H.module, H.degree
    for _ in range(trials):
        coords = tuple(rng.randrange(f) for f in H.invariant_factors)
        z = H.lift(coords)
        assert is_cocycle(z) is None
        if n:
            z = z + coboundary(random_cochain(M, n - 1, rng))
        assert H.class_of(z) == coords


def module_from_generators(G, factors, images):
    """The G-module on prod Z/factors where each generator g acts by images[g]."""
    k = len(factors)
    acts = {G.identity: np.eye(k, dtype=np.int64)}
    frontier = [G.identity]
    while frontier:
        a = frontier.pop()
        for g, mat in images.items():
            b = G.mul[g][a]
            if b not in acts:
                acts[b] = (np.array(mat, dtype=np.int64) @ acts[a]) % max(factors)
                frontier.append(b)
    M = GModule(G, tuple(factors), tuple(tuple(map(tuple, acts[g].tolist()))
                                         for g in range(G.order)))
    M.validate()
    return M


def oracle_cases():
    """(label, module) over C2-C6, Klein, S3, Q8 and D8: trivial, sign and
    non-diagonal modules."""
    C2, C3, C4, C5, C6 = (cyclic(s) for s in (2, 3, 4, 5, 6))
    V = direct_product(cyclic(2), cyclic(2))
    S3, D8, Q8 = metacyclic(3, 2, 2, 0)[0], metacyclic(4, 2, 3, 0)[0], quaternion_table()
    neg, unip, rot = ((-1,),), ((1, 1), (0, 1)), ((0, 1), (1, 1))
    one, eye = ((1,),), ((1, 0), (0, 1))
    # generators and a character onto C_2: (group, {generator: parity})
    signed = {"C2": (C2, {1: 1}), "C4": (C4, {1: 1}), "C6": (C6, {1: 1}),
              "V": (V, {1: 0, 2: 1}), "S3": (S3, {1: 0, 3: 1}), "D8": (D8, {1: 0, 4: 1}),
              "Q8": (Q8, {2: 0, 4: 1})}
    cases = [("C3_triv3", trivial_gmodule(C3, [3])), ("C3_rot22", module_from_generators(C3, (2, 2), {1: rot})),
             ("C5_triv5", trivial_gmodule(C5, [5])), ("C6_triv6", trivial_gmodule(C6, [6])),
             ("C4_triv24", trivial_gmodule(C4, [2, 4])), ("V_triv22", trivial_gmodule(V, [2, 2])),
             ("S3_nat22", module_from_generators(S3, (2, 2), {1: rot, 3: ((0, 1), (1, 0))}))]
    for name, (G, parity) in signed.items():
        cases.append((f"{name}_triv2", trivial_gmodule(G, [2])))
        cases.append((f"{name}_sign4", module_from_generators(
            G, (4,), {g: neg if p else one for g, p in parity.items()})))
        cases.append((f"{name}_unip22", module_from_generators(
            G, (2, 2), {g: unip if p else eye for g, p in parity.items()})))
    cases.append(("S3_sign3", module_from_generators(S3, (3,), {1: one, 3: neg})))
    # (Z/4)^2 with an element of order 4 acting by a rotation, and D8 by the
    # rotation and a reflection: actions by matrices that do not commute
    rot4, flip4 = ((0, 3), (1, 0)), ((1, 0), (0, 3))
    cases.append(("C4_rot44", module_from_generators(C4, (4, 4), {1: rot4})))
    cases.append(("D8_dihedral44", module_from_generators(D8, (4, 4), {1: rot4, 4: flip4})))
    # Z/2 + Z/4 with the second coordinate feeding the first: mixed moduli, not diagonal
    for name in ("C2", "V", "D8"):
        G, parity = signed[name]
        cases.append((f"{name}_mixed24", module_from_generators(
            G, (2, 4), {g: unip if p else eye for g, p in parity.items()})))
    return cases


ORACLE_CASES = oracle_cases()
_ORACLE = {}


def oracle(label, M, n):
    key = (label, n)
    if key not in _ORACLE:
        _ORACLE[key] = bar_cohomology(M, n)
    return _ORACLE[key]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ORACLE_CASES), st.integers(0, 3), st.integers(0, 1 << 32))
def test_resolution_matches_the_bar_oracle(case, n, seed):
    label, M = case
    G = M.group
    if (G.order - 1) ** n * M.rank > 400:
        n -= 1                           # keep the bar oracle small
    H, B = cohomology(G, M, n), oracle(label, M, n)
    assert H.invariant_factors == B.invariant_factors, label
    rng = random.Random(seed)

    def bound():
        return coboundary(random_cochain(M, n - 1, rng)) if n else zero_cochain(M, 0)

    # the same partition of cocycles into classes: on every oracle class, two
    # cohomologous representatives get one class, and distinct classes differ
    classes = list(B.all_classes()) if B.order <= 64 else [
        tuple(rng.randrange(f) for f in B.invariant_factors) for _ in range(16)]
    images = {}
    for c in classes:
        z = B.lift(c)
        image = H.class_of(z + bound())
        assert H.class_of(z + bound()) == image
        images[c] = image
    assert len(set(images.values())) == len(images)
    # and each class of the resolution lifts to a cocycle the oracle reads back
    assert_round_trips(H, rng, 4)
    for _ in range(4):
        coords = tuple(rng.randrange(f) for f in H.invariant_factors)
        back = B.class_of(H.lift(coords) + bound())
        assert H.class_of(B.lift(back)) == coords


S3 = metacyclic(3, 2, 2, 0)[0]
C3xC2 = direct_product(cyclic(3), cyclic(2))
S3xC2 = direct_product(S3, cyclic(2))
D10 = metacyclic(5, 2, 4, 0)[0]
RESOLUTION_CASES = [(cyclic(1), 2), (cyclic(2), 4), (cyclic(6), 6), (cyclic(5), 3),
                    (direct_product(cyclic(2), cyclic(2)), 2), (S3, 2), (S3, 3),
                    (quaternion_table(), 2), (quaternion_table(), 4),
                    (metacyclic(4, 2, 3, 0)[0], 2)]
RESOLUTION_IDS = [f"order{G.order}_Z{m}" for G, m in RESOLUTION_CASES]
# groups that are not p-groups, whose generators are folded together
RESOLUTION_CASES += [(C3xC2, 3), (C3xC2, 4), (S3xC2, 3), (D10, 5)]
RESOLUTION_IDS += ["C3xC2_Z3", "C3xC2_Z4", "S3xC2_Z3", "D10_Z5"]


@pytest.mark.parametrize("G, m", RESOLUTION_CASES, ids=RESOLUTION_IDS)
def test_resolution_is_an_exact_complex(G, m):
    F = free_resolution(G, m)
    F.extend(4)
    N = G.order
    mats = [np.ones((1, N), dtype=np.int64)] + [F.matrix(F.diffs[n]) for n in range(1, 5)]
    for n in range(4):
        # d o d = 0 (with the augmentation first), and ker d_n = im d_(n+1)
        assert not ((mats[n] @ mats[n + 1]) % m).any(), n
        kernel = m ** (F.ranks[n] * N) // diagonalize_mod(mats[n], m).image_size()
        assert diagonalize_mod(mats[n + 1], m).image_size() == kernel, n
    assert F.ranks[0] == 1 and (G.order > 1 or F.ranks[1:] == [0] * 4)


@pytest.mark.parametrize("G, p", [(cyclic(2), 2), (cyclic(4), 2), (cyclic(9), 3),
                                  (direct_product(cyclic(2), cyclic(2)), 2),
                                  (quaternion_table(), 2), (metacyclic(4, 2, 3, 0)[0], 2),
                                  (direct_product(cyclic(4), cyclic(4)), 2)],
                         ids=["C2", "C4", "C9", "V", "Q8", "D8", "C4xC4"])
def test_resolution_of_a_p_group_is_minimal(G, p):
    """Generators taken outside (g - 1)K + pK first: r_n = dim H^n(G, F_p)."""
    F = free_resolution(G, p)
    dims = [len(cohomology(G, trivial_gmodule(G, [p]), n).invariant_factors) for n in range(4)]
    assert F.ranks[:4] == dims


@pytest.mark.parametrize("G, m, ranks", [(C3xC2, 3, [1] * 6), (C3xC2, 4, [1] * 6),
                                         (S3, 3, [1, 2, 2, 1, 1, 2]), (S3xC2, 3, [1, 2, 2, 1, 1]),
                                         (D10, 5, [1, 2, 2, 1, 1])],
                         ids=["C3xC2_Z3", "C3xC2_Z4", "S3_Z3", "S3xC2_Z3", "D10_Z5"])
def test_folded_generators_keep_the_ranks_small(G, m, ranks):
    """A kernel column outside the span is folded into a generator before one
    is added, which keeps these ranks from growing with the degree."""
    F = free_resolution(G, m)
    F.extend(len(ranks) - 1)
    assert F.ranks == ranks


@pytest.mark.parametrize("G, digest", [
    (quaternion_table(), "8265b8966de5f5c1809ea2ccf01701d26f03d99a7f322cbae688bc38093f4a90"),
    (metacyclic(4, 2, 3, 0)[0], "cf8af9b8ba23e476122ff64b5c40a7bf44e397985d023c8232e37b273577f8b8")],
    ids=["Q8", "D8"])
def test_p_group_resolutions_are_the_radical_ones(G, digest):
    """For a p-group the radical step spans K and nothing is folded: d_1..d_4
    over Z/2 hash to the stored digest of the radical-first resolution."""
    assert differentials_digest(G, 2) == digest


@pytest.mark.parametrize("G, m, digest", [
    (C3xC2, 3, "2922d6391828b2b26b78f00e95118f3429011b26deb215196703cd9d4dcc48f0"),
    (C3xC2, 4, "3016324eb8f4ee7ec219293099a229d7412b4f6c14890cacb50d1b44d49cb093"),
    (S3xC2, 3, "d1c0df49c8a531137605ae9621ae0ddf9a37399d210632b69c7fdd3233ec7d0f"),
    (D10, 5, "03ada63c37ade821dec6ad2366a4ac9e0c89305a87a9498f4834f28557d3f8bb"),
    (S3, 6, "207df7af77762fb0e08541aabf23f842b443eb21c4052607dec294cab59e7d8f"),
    (D10, 10, "9dbda7a1deae0b2cd5ab57fe423c2ee7bbfb427a65dc9e18181d74a08eff47a1"),
    (C3xC2, 12, "25eff41842764e281feb103dfb539a87dd94d1c5f44de16e658dee7bf833a061"),
    (quaternion_table(), 6, "9cab9eae81e49894e4100c2d99bc8a8de9cb9cd685f143a3b384778981b1a81c")],
    ids=RESOLUTION_IDS[-4:] + ["S3_Z6", "D10_Z10", "C3xC2_Z12", "Q8_Z6"])
def test_folded_resolutions_hash_to_the_stored_digest(G, m, digest):
    """For the groups that are not p-groups, d_1..d_4 with their generator
    folds hash to the stored digest.  Over Z/6, Z/10 and Z/12 the radical
    step picks generators for a second prime."""
    assert differentials_digest(G, m) == digest


def differentials_digest(G, m):
    """sha256 of d_1..d_4 of the resolution G holds over Z/m."""
    F = free_resolution(G, m)
    F.extend(4)
    h = hashlib.sha256()
    for D in F.diffs[1:5]:
        h.update(np.ascontiguousarray(D, dtype=np.int64).tobytes())
    return h.hexdigest()


def regular_module(G, m):
    """Z/m[G], on which Hom_G(-, Z/m[G]) is faithful."""
    N = G.order
    return GModule(G, (m,) * N, tuple(tuple(tuple(int(G.mul[g][b] == a) for b in range(N))
                                            for a in range(N)) for g in range(N)))


@pytest.mark.parametrize("G, m", RESOLUTION_CASES[1:], ids=RESOLUTION_IDS[1:])
def test_comparison_maps_are_chain_maps(G, m):
    """Phi and Psi commute with the differentials, checked with coefficients in
    the regular module Z/m[G], on which Hom_G(-, Z/m[G]) is faithful."""
    N, M = G.order, regular_module(G, m)
    F, acts = free_resolution(G, m), M.matrices
    F.extend(3)
    rng = random.Random(N * m)

    def psi_star(n, w):       # w in M^(r_n) -> bar values on the symbols
        moved = np.einsum("gab,jb->jga", acts, w)
        return np.einsum("tjg,jga->ta", F.psi(n), moved) % m

    def delta_f(n, w):        # M^(r_(n-1)) -> M^(r_n)
        return np.einsum("jig,gab,ib->ja", F.diffs[n], acts, w) % m

    for n in range(1, 4):
        z = random_cochain(M, n - 1, rng)
        dz = coboundary(z).table.reshape(-1, N)[_bar_positions(G, n)]
        lhs = F.phi(n) @ dz % m
        rhs = delta_f(n, F.phi(n - 1) @ z.table.reshape(-1, N)[_bar_positions(G, n - 1)] % m)
        assert np.array_equal(lhs, rhs), n
        w = np.array([[rng.randrange(m) for _ in range(N)] for _ in range(F.ranks[n - 1])],
                     dtype=np.int64).reshape(F.ranks[n - 1], N)
        table = np.zeros((N ** (n - 1), N), dtype=np.int64)
        table[_bar_positions(G, n - 1)] = psi_star(n - 1, w)
        pushed = coboundary(Cochain(M, n - 1, table.reshape((N,) * (n - 1) + (N,))))
        assert np.array_equal(pushed.table.reshape(-1, N)[_bar_positions(G, n)],
                              psi_star(n, delta_f(n, w))), n


@pytest.mark.parametrize("G, m", RESOLUTION_CASES[1:], ids=RESOLUTION_IDS[1:])
def test_homotopy_joins_phi_psi_to_the_identity(G, m):
    """Phi Psi - 1 = ds + sd on the bar resolution, read on cochains with
    coefficients in the regular module Z/m[G]: for every n-cochain z,
    z(Phi Psi) - z = (dz)(s_n) + d(z(s_(n-1)))."""
    N, M = G.order, regular_module(G, m)
    F, acts = free_resolution(G, m), M.matrices
    F.extend(3)
    rng = random.Random(N + m)

    def values(c):
        return c.table.reshape(-1, N)[_bar_positions(G, c.degree)]

    def cochain(vals, n):
        table = np.zeros((N ** n, N), dtype=np.int64)
        table[_bar_positions(G, n)] = vals
        return Cochain(M, n, table.reshape((N,) * n + (N,)))

    assert not F.homotopy(0).any()
    # up to degree 3, as far as s_n (E^n x E^(n+1), E = |G| - 1) fits the budget
    budget = modlinalg.CELL_BUDGET
    top = max(n for n in (1, 2, 3) if (N - 1) ** (2 * n + 1) <= budget)
    for n in range(1, top + 1):
        z = random_cochain(M, n, rng)
        moved = np.einsum("gab,jb->jga", acts, F.phi(n) @ values(z) % m)
        lhs = np.einsum("tjg,jga->ta", F.psi(n), moved) - values(z)
        rhs = F.homotopy(n) @ values(coboundary(z)) + \
            values(coboundary(cochain(F.homotopy(n - 1) @ values(z), n - 1)))
        assert not ((lhs - rhs) % m).any(), n


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[label for label, _ in ORACLE_CASES])
def test_coboundary_preimage_on_the_oracle_cases(case):
    """In degrees 1-3: a preimage of every coboundary, and None on every
    nonzero class, with or without a coboundary added."""
    label, M = case
    rng = random.Random(label)
    for n in (1, 2, 3):
        H = cohomology(M.group, M, n)
        for _ in range(3):
            z = coboundary(random_cochain(M, n - 1, rng))
            c = coboundary_preimage(H, z)
            assert c is not None and coboundary(c).table.tolist() == z.table.tolist(), (label, n)
        classes = list(H.all_classes()) if H.order <= 16 else [
            tuple(rng.randrange(f) for f in H.invariant_factors) for _ in range(16)]
        for coords in classes:
            if any(coords):
                z = H.lift(coords)
                assert coboundary_preimage(H, z) is None, (label, n, coords)
                assert coboundary_preimage(H, z + coboundary(random_cochain(M, n - 1, rng))) is None


def test_coboundary_preimage_of_a_rank_6_quaternion_module():
    """Q8 on (Z/2)^6, the elements outside <i> swapping coordinate pairs: the
    bar solve of H^3 needed a 2058 x 2058 row transform, over the budget."""
    Q8 = quaternion_table()
    swap = np.kron(np.eye(3, dtype=np.int64), [[0, 1], [1, 0]])
    M = module_from_generators(Q8, (2,) * 6, {2: np.eye(6, dtype=np.int64), 4: swap})
    H = cohomology(Q8, M, 3)
    assert H.invariant_factors == (2, 2, 2)      # Shapiro: H^3(C4, (Z/2)^3)
    rng = random.Random(6)
    z = coboundary(random_cochain(M, 2, rng))
    c = coboundary_preimage(H, z)
    assert c is not None and np.array_equal(coboundary(c).table, z.table)
    for coords in H.all_classes():
        if any(coords):
            assert coboundary_preimage(H, H.lift(coords) + z) is None


def test_trivial_group():
    T = cyclic(1)
    M = trivial_gmodule(T, [2, 4])
    assert cohomology(T, M, 0).invariant_factors == (2, 4)
    for n in (1, 2, 3, 4):
        H = cohomology(T, M, n)
        assert H.invariant_factors == ()
        assert H.class_of(zero_cochain(M, n)) == ()
        assert H.lift(()).is_zero()
    assert free_resolution(T, 4).ranks == [1, 0, 0, 0, 0, 0]
    assert_round_trips(cohomology(T, M, 0), random.Random(3), 4)


KNOWN_VALUES = [
    # (group, module factors, degree, invariant factors, seconds)
    (quaternion_table(), 2, 4, (2,), 2),
    (cyclic(12), 2, 3, (2,), 1),
    # Q16 = metacyclic(8, 2, 7, 4): H_3(Q16) = Z/16
    (metacyclic(8, 2, 7, 4)[0], 2, 3, (2,), 5),
    (metacyclic(8, 2, 7, 4)[0], 4, 3, (4,), 5),
    # D16 = metacyclic(8, 2, 7, 0): Poincare series 1/(1-t)^2 over F_2
    (metacyclic(8, 2, 7, 0)[0], 2, 3, (2, 2, 2, 2), 5),
    # over F_3, S3 x C2 has the cohomology of S3, of period 4, and C3 x S3
    # the Poincare series (1 + t^3)/((1 - t)(1 - t^4))
    (S3xC2, 3, 4, (3,), 1),
    (direct_product(cyclic(3), S3), 3, 3, (3, 3), 1),
]


@pytest.mark.parametrize("G, d, n, factors, seconds", KNOWN_VALUES,
                         ids=["H4_Q8_Z2", "H3_C12_Z2", "H3_Q16_Z2", "H3_Q16_Z4", "H3_D16_Z2",
                              "H4_S3xC2_Z3", "H3_C3xS3_Z3"])
def test_known_values(G, d, n, factors, seconds):
    M = trivial_gmodule(G, [d])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        H = cohomology(G, M, n)
        assert_round_trips(H, random.Random(n * d), 2)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert H.invariant_factors == factors
    assert elapsed < seconds and peak < 200 << 20, (elapsed, peak)


def largest_gmodule_modulus(k):
    """The largest m with k (m - 1)^2 + (MAX_DEGREE + 1)(m - 1) < 2^63."""
    c = int((2 ** 63 / k) ** 0.5)
    while k * c * c + (MAX_DEGREE + 1) * c >= 2 ** 63:
        c -= 1
    while k * (c + 1) ** 2 + (MAX_DEGREE + 1) * (c + 1) < 2 ** 63:
        c += 1
    return c + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.data())
def test_gmodule_arithmetic_is_exact_below_the_int64_bound_and_refused_above(k, above, data):
    """The action on a vector and the bar coboundary of a 1-cochain over C_2
    agree with Python integers just below the bound; just above, the module
    is refused on construction."""
    m = largest_gmodule_modulus(k) + above
    residues = st.one_of(st.just(m - 1), st.integers(0, m - 1))
    mat = data.draw(st.lists(st.lists(residues, min_size=k, max_size=k), min_size=k, max_size=k))
    eye = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    if above:
        with pytest.raises(CohomologyError, match=f"m={m} at rank {k} overflows int64"):
            GModule(cyclic(2), (m,) * k, (eye, tuple(map(tuple, mat))))
        return
    M = GModule(cyclic(2), (m,) * k, (eye, tuple(map(tuple, mat))))
    v = data.draw(st.lists(residues, min_size=k, max_size=k))
    moved = [sum(mat[i][j] * v[j] for j in range(k)) % m for i in range(k)]
    assert list(M.act(1, v)) == moved
    # (dc)(t, t) = t.c(t) - c(1) + c(t), with c(1) = 0
    d = coboundary(Cochain(M, 1, [[0] * k, v]))
    assert d.table[1, 1].tolist() == [(x + y) % m for x, y in zip(moved, v)]


def largest_cohomology_modulus():
    """The largest m with CELL_BUDGET (m - 1)^2 < 2^63."""
    budget = modlinalg.CELL_BUDGET
    c = isqrt(((1 << 63) - 1) // budget)
    while budget * (c + 1) ** 2 < 1 << 63:
        c += 1
    return c + 1


@pytest.mark.parametrize("n", [0, 1, 3])
def test_cohomology_refuses_an_overflowing_modulus_before_any_elimination(n, monkeypatch):
    """At the largest modulus GModule admits, and just above the cohomology
    bound, H^n refuses with the module's m and rank before diagonalize_mod
    runs; just below, it answers."""
    G = cyclic(3)
    eliminated = []
    real = gmod_cohomology.diagonalize_mod
    monkeypatch.setattr(gmod_cohomology, "diagonalize_mod",
                        lambda *args, **kwargs: eliminated.append(args) or real(*args, **kwargs))
    top = largest_cohomology_modulus()
    for m, k in ((3037000498, 1), (top + 1, 1), (top + 1, 2)):
        with pytest.raises(CohomologyError, match=f"H\\^{n}: modulus m={m} at rank {k} overflows"):
            cohomology(G, trivial_gmodule(G, [m] * k), n)
    assert not eliminated
    H = cohomology(G, trivial_gmodule(G, [top]), n)
    # H^n(C_3, Z/m) with m prime to 3: Z/m in degree 0, else 0
    assert top % 3 and H.invariant_factors == ((top,) if n == 0 else ())
    z = H.lift([1] if n == 0 else [])
    assert H.class_of(z) == ((1,) if n == 0 else ())
