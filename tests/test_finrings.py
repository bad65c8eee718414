import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teichmuller.groups import cyclic
from teichmuller import finrings, modlinalg
from teichmuller.finrings import (
    Algebra,
    FinCommRing,
    FixedRingMismatch,
    GaloisData,
    RingError,
    commutative_ring_as_algebra_over,
    conjugation_matrix,
    find_conjugator,
    fixed_subring,
    frobenius_lift,
    galois_check,
    galois_from_free_action,
    galois_ring,
    gf,
    is_algebra_morphism,
    is_azumaya,
    is_ring_morphism_matrix,
    map_ring,
    matrix_algebra,
    opposite_algebra,
    product_ring,
    ring_as_algebra,
    subring_from_module,
    tensor_algebra,
    units_group,
    upper_triangular_algebra,
    zmod,
)

from group_oracles import find_isomorphism


def test_zmod_gf_galois_ring_build():
    assert zmod(8).size == 8
    F4 = gf(2, 2)
    F4.validate()
    assert F4.size == 4
    GR = galois_ring(2, 3, 2)
    GR.validate()
    assert GR.size == 64
    assert GR.modulus == 8


# the defining polynomial (constant term first) of every field and Galois ring
# that the tests and the benchmark build, as the divisor search first chose it
PINNED_IRREDUCIBLES = {
    (2, 2): [1, 1, 1], (2, 3): [1, 0, 1, 1], (2, 4): [1, 0, 0, 1, 1], (2, 5): [1, 0, 0, 1, 0, 1],
    (3, 2): [1, 0, 1], (3, 3): [1, 0, 2, 1], (5, 2): [1, 1, 1], (7, 2): [1, 0, 1],
}


def divisor_search_irreducibles(p, k):
    """Every monic irreducible of degree k over Z/p in lexicographic order (last
    coefficient fastest), by trial division by every monic polynomial of degree
    at most k // 2: the search that Rabin's test replaced (its oracle)."""
    def divides(d, f):
        f = list(f)
        while len(f) >= len(d):
            c = f.pop()
            for i, x in enumerate(d[:-1]):
                f[len(f) - len(d) + 1 + i] = (f[len(f) - len(d) + 1 + i] - c * x) % p
        return not any(f)

    lower = [list(t) + [1] for j in range(1, k // 2 + 1) for t in itertools.product(range(p), repeat=j)]
    return [list(t) + [1] for t in itertools.product(range(p), repeat=k)
            if not any(divides(d, list(t) + [1]) for d in lower)]


@pytest.mark.parametrize("p, k", sorted(PINNED_IRREDUCIBLES))
def test_defining_polynomials_are_pinned(p, k):
    f = PINNED_IRREDUCIBLES[p, k]
    assert gf(p, k).meta == (("poly", tuple(f)), ("char_p", p))
    assert galois_ring(p, 2, k).meta == (("poly", tuple(f)), ("char_p", p))


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2),
                                  (5, 3), (7, 2)])
def test_rabin_test_matches_the_divisor_search(p, k):
    """Rabin's test accepts exactly the irreducibles with a nonzero constant
    term, so the search keeps the divisor search's first f."""
    want = divisor_search_irreducibles(p, k)
    monic = [list(t) + [1] for t in itertools.product(range(p), repeat=k)]
    assert [f for f in monic if f[0] and finrings._is_irreducible(f, p)] == want
    assert finrings._find_irreducible(p, k) == want[0]


def test_large_prime_fields_fail_fast_at_the_int64_bound():
    # the divisor search listed p^(k//2) candidates first and ran out of memory
    start = time.perf_counter()
    with pytest.raises(RingError, match=f"m={2 ** 31 - 1} at rank 2 overflows int64"):
        gf(2 ** 31 - 1, 2)
    assert time.perf_counter() - start < 1
    F = gf(10007, 2)
    assert F.meta == (("poly", (1, 0, 1)), ("char_p", 10007))     # 10007 = 3 mod 4
    F.validate()


def test_field_multiplication_f4():
    F4 = gf(2, 2)
    x = np.array([0, 1])
    # x^2 + x + 1 = 0 so x^2 = x + 1
    assert np.array_equal(F4.mul(x, x), np.array([1, 1]))
    assert np.array_equal(F4.power(x, 3), F4.one())


def test_units_groups():
    u8 = units_group(zmod(8))
    assert u8.group.order == 4
    assert u8.group.order_profile() == {1: 1, 2: 3}  # C_2 x C_2
    f9 = units_group(gf(3, 2))
    assert f9.group.order == 8
    assert find_isomorphism(f9.group, cyclic(8)) is not None
    m2f2 = units_group(matrix_algebra(gf(2, 1), 2))
    assert m2f2.group.order == 6
    assert not m2f2.group.is_abelian()  # GL_2(F_2) = S_3


def test_units_table_matches_the_product_pair_by_pair():
    # the table is built in one batch; the pair-by-pair products it replaced
    for A in (matrix_algebra(gf(2, 1), 2), matrix_algebra(gf(3, 1), 2),
              ring_as_algebra(galois_ring(2, 3, 2)), ring_as_algebra(zmod(9))):
        U = units_group(A)
        n = U.group.order
        assert n == sum(1 for x in A.elements() if A.is_unit(x))
        assert U.elements.tolist() == sorted(U.elements.tolist())
        for a in range(n):
            for b in range(n):
                assert U.group.mul[a][b] == U.index_of(A.mul(U.elements[a], U.elements[b]))


def test_units_gr82():
    gr = galois_ring(2, 3, 2)
    u = units_group(gr)
    assert u.group.order == 48


def test_matrix_algebra_validates():
    for S in (gf(2, 1), gf(2, 2), zmod(8)):
        A = matrix_algebra(S, 2)
        A.validate()
        assert A.flat_rank == 4 * S.rank


def test_frobenius_f4_and_gr82():
    F4 = gf(2, 2)
    fr = frobenius_lift(F4)
    assert is_ring_morphism_matrix(F4, fr)
    x = np.array([0, 1])
    assert np.array_equal((fr @ x) % 2, F4.mul(x, x))  # frobenius is squaring
    assert np.array_equal((fr @ fr) % 2, np.eye(2, dtype=np.int64))
    GR = galois_ring(2, 3, 2)
    frg = frobenius_lift(GR)
    assert is_ring_morphism_matrix(GR, frg)
    assert np.array_equal((frg @ frg) % 8, np.eye(2, dtype=np.int64))
    assert not np.array_equal(frg % 8, np.eye(2, dtype=np.int64))


def test_fixed_subring_of_frobenius():
    GR = galois_ring(2, 3, 2)
    S, embed = fixed_subring(GR, [frobenius_lift(GR)])
    assert S.size == 8  # Z/8
    assert S.rank == 1
    # (r1 - r2)^2 = 5 mod 8 for the two roots of the defining polynomial
    frg = frobenius_lift(GR)
    x = np.zeros(2, dtype=np.int64)
    x[1] = 1
    diff = (x - frg @ x) % 8
    sq = GR.mul(diff, diff)
    assert np.array_equal(sq, (5 * GR.one()) % 8)


def test_find_conjugator_identity_and_inner():
    A = matrix_algebra(gf(2, 1), 2)
    ident = np.eye(A.flat_rank, dtype=np.int64)
    u = find_conjugator(A, ident)
    assert u is not None
    # conjugation by a known unit is recovered up to central units
    units = units_group(A)
    u0 = units.elements[3]
    alpha = conjugation_matrix(A, u0)
    u1 = find_conjugator(A, alpha)
    assert u1 is not None
    assert np.array_equal(conjugation_matrix(A, u1), alpha)
    # the solutions of u a = a u form the center, of size 2 here
    with pytest.raises(RingError, match="solution space of size 2 exceeds scan cap"):
        find_conjugator(A, ident, scan_cap=1)


def test_find_conjugator_frobenius_none():
    # F_4 over F_2: the Frobenius is not inner (commutative algebra)
    F2, F4 = gf(2, 1), gf(2, 2)
    A, basis = commutative_ring_as_algebra_over(F4, F2, np.eye(2, dtype=np.int64)[:, :1])
    fr = frobenius_lift(F4)
    # express frobenius in the algebra's flat coordinates (basis change)
    # basis columns are elements of F4; flat coords of A are over F2
    P = basis  # T-coords of A-basis
    Pinv = np.linalg.inv(P).astype(np.int64) % 2 if P.shape[0] == P.shape[1] else None
    alpha = (Pinv @ fr @ P) % 2
    assert find_conjugator(A, alpha) is None


def test_is_azumaya_battery():
    F2 = gf(2, 1)
    ok, diag = is_azumaya(matrix_algebra(F2, 2))
    assert ok and diag["eta_bijective"] and diag["center_is_base"]
    ok, _ = is_azumaya(ring_as_algebra(zmod(8)))
    assert ok
    ok, _ = is_azumaya(matrix_algebra(gf(2, 2), 2))
    assert ok
    ok, _ = is_azumaya(matrix_algebra(zmod(8), 2))
    assert ok
    ok, diag = is_azumaya(upper_triangular_algebra(F2))
    assert not ok
    assert diag["center_is_base"] and not diag["eta_bijective"]
    assert diag["eta_size"] == 9


def test_azumaya_tensor_and_m3():
    F2 = gf(2, 1)
    m2 = matrix_algebra(F2, 2)
    m3 = matrix_algebra(F2, 3)
    ok, _ = is_azumaya(m3)
    assert ok
    ok, _ = is_azumaya(tensor_algebra(m2, m2))
    assert ok
    ok, _ = is_azumaya(tensor_algebra(m2, m3))
    assert ok


def test_opposite_is_involution():
    A = matrix_algebra(gf(2, 2), 2)
    B = opposite_algebra(opposite_algebra(A))
    assert np.array_equal(A.structure, B.structure)


def test_galois_f4_over_f2():
    F4 = gf(2, 2)
    fr = frobenius_lift(F4)
    S, embed = fixed_subring(F4, [fr])
    N = cyclic(2)
    data = GaloisData(T=F4, S=S, embed=embed, N=N,
                      action=(np.eye(2, dtype=np.int64), fr))
    report = galois_check(data)
    assert report["criterion_i"] and report["criterion_iii"] and report["criterion_iv"]
    assert report["criterion_ii_spot"]
    assert report["all_equivalent_criteria_agree"]


def test_galois_gr82_over_z8():
    GR = galois_ring(2, 3, 2)
    fr = frobenius_lift(GR)
    S, embed = fixed_subring(GR, [fr])
    data = GaloisData(T=GR, S=S, embed=embed, N=cyclic(2),
                      action=(np.eye(2, dtype=np.int64), fr))
    report = galois_check(data)
    assert report["criterion_i"] and report["criterion_iii"] and report["criterion_iv"]
    assert report["criterion_ii_spot"]


def test_galois_trivial_extension_map_ring():
    data = galois_from_free_action(2, [[0, 1], [1, 0]], cyclic(2), gf(3, 1))
    report = galois_check(data)
    assert report["criterion_i"] and report["criterion_iii"] and report["criterion_iv"]


def test_galois_four_points_free_c2():
    data = galois_from_free_action(4, [[0, 1, 2, 3], [1, 0, 3, 2]], cyclic(2), gf(2, 1))
    assert data.S.size == 4
    report = galois_check(data)
    assert report["criterion_i"] and report["criterion_iii"] and report["criterion_iv"]


def test_galois_fixed_point_action_rejected():
    with pytest.raises(RingError):
        galois_from_free_action(3, [[0, 1, 2], [0, 2, 1]], cyclic(2), gf(2, 1))


def test_galois_negative_non_free():
    # F_2^3 with the swap of the first two coordinates: fixed ring (a,a,b)
    F2 = gf(2, 1)
    T = map_ring(3, F2)
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
    S, embed = fixed_subring(T, [swap])
    assert S.size == 4
    data = GaloisData(T=T, S=S, embed=embed, N=cyclic(2),
                      action=(np.eye(3, dtype=np.int64), swap))
    report = galois_check(data)
    assert not report["criterion_i"]
    assert not report["criterion_iii"]
    assert not report["criterion_iv"]
    assert report["all_equivalent_criteria_agree"]
    # the spec's witness: criterion (iii) fails at the third-projection ideal
    assert any(e == (0, 0, 1) for e, n in report["criterion_iii_failures"])


def test_galois_negative_free_but_ramified():
    # F_3[b]/((b - 1)^2) with b = 1 + eps and sigma(eps) = -eps, so sigma(b) = 2 - b:
    # free of rank |N| over the fixed F_3, yet eps - sigma(eps) is nilpotent
    T = FinCommRing(modulus=3, rank=2, structure=(((1, 0), (0, 1)), ((0, 1), (2, 2))),
                    unit=(1, 0))
    T.validate()
    sigma = np.array([[1, 2], [0, 2]], dtype=np.int64)
    S, embed = fixed_subring(T, [sigma])
    report = galois_check(GaloisData(T=T, S=S, embed=embed, N=cyclic(2),
                                     action=(np.eye(2, dtype=np.int64), sigma)))
    assert report["free_over_S"]
    assert not (report["criterion_i"] or report["criterion_iii"] or report["criterion_iv"])


def test_galois_fixed_ring_mismatch():
    F2 = gf(2, 1)
    T = map_ring(3, F2)
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
    # claim S = diagonal F_2, which is smaller than the true fixed ring
    diag = np.array([[1], [1], [1]], dtype=np.int64)
    S, embed = subring_from_module(T, diag)
    data = GaloisData(T=T, S=S, embed=embed, N=cyclic(2),
                      action=(np.eye(3, dtype=np.int64), swap))
    with pytest.raises(FixedRingMismatch):
        galois_check(data)


def test_galois_f16_over_f4():
    F16 = gf(2, 4)
    fr = frobenius_lift(F16)
    fr2 = (fr @ fr) % 2
    S, embed = fixed_subring(F16, [fr2])
    assert S.size == 4
    data = GaloisData(T=F16, S=S, embed=embed, N=cyclic(2),
                      action=(np.eye(4, dtype=np.int64), fr2))
    report = galois_check(data)
    assert report["criterion_i"] and report["criterion_iii"] and report["criterion_iv"]


def test_galois_action_names_the_failing_pair():
    # C_3 acting on F_8 by powers of Frobenius, then fr^2 replaced by fr:
    # fr fr = fr^2 differs from the table's entry at 1 * 1 = 2
    T = gf(2, 3)
    fr = frobenius_lift(T)
    S, embed = fixed_subring(T, [fr])
    eye = np.eye(T.rank, dtype=np.int64)
    good = GaloisData(T=T, S=S, embed=embed, N=cyclic(3), action=(eye, fr, fr @ fr % 2))
    good.validate_action()
    bad = GaloisData(T=T, S=S, embed=embed, N=cyclic(3), action=(eye, fr, fr))
    with pytest.raises(RingError, match=r"action is not a group homomorphism at \(1, 1\)"):
        bad.validate_action()


def test_a_ring_holds_its_units_group():
    R = gf(3, 2)
    U = units_group(R)
    assert units_group(R) is U and U.group.order == 8
    # an equal ring built anew enumerates its own, equal group
    assert units_group(gf(3, 2)).group.mul == U.group.mul
    with pytest.raises(RingError, match="capped at 4"):
        units_group(R, cap=4)


def morphism_one_einsum(source_tensor, source_unit, target_tensor, target_unit, mat, m):
    """``finrings._is_morphism`` with its one three-operand einsum, O(N^5)."""
    mat = np.asarray(mat, dtype=np.int64)
    if not np.array_equal((mat @ source_unit) % m, target_unit):
        return False
    lhs = np.einsum("abc,dc->abd", source_tensor, mat) % m
    return np.array_equal(lhs, np.einsum("ua,vb,uvw->abw", mat, mat, target_tensor) % m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 9, 25, 65521]), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_two_step_morphism_check_equals_the_one_einsum(m, n, seed, identity):
    """Random tensors, units and maps of rank n <= 8 over Z/m, a fifth of the
    entries m - 1, within the N^2 (m - 1)^3 < 2^63 bound of the einsums; the
    map is the identity when ``identity`` is set."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = rng.integers(0, m, size=shape)
        a[rng.random(shape) < 0.2] = m - 1
        return a

    T, U, unit = draw(n, n, n), draw(n, n, n), draw(n)
    mat = np.eye(n, dtype=np.int64) if identity else draw(n, n)
    for args in ((T, unit, T, unit, mat, m), (T, unit, U, mat @ unit % m, mat, m)):
        assert finrings._is_morphism(*args) == morphism_one_einsum(*args)


def test_identity_morphism_check_at_flat_rank_64_is_fast():
    A = matrix_algebra(gf(5, 1), 8)
    eye = np.eye(A.flat_rank, dtype=np.int64)
    A.flat_tensor
    start = time.perf_counter()
    assert is_algebra_morphism(A, A, eye)
    assert time.perf_counter() - start < 0.5


def test_a_ring_factors_its_modulus_once(monkeypatch):
    """2097143 is the largest prime a ring of rank 1 admits ((m - 1)^3 < 2^63);
    trial division of it takes about 1,450 steps, which ``is_unit`` once paid per call."""
    R = zmod(2097143)
    A, real, factored = ring_as_algebra(R), modlinalg.prime_factors, []

    def counting(m):
        factored.append(m)
        return real(m)

    monkeypatch.setattr(modlinalg, "prime_factors", counting)
    monkeypatch.setattr(finrings, "prime_factors", counting)
    verdicts = [R.is_unit(np.array([x])) for x in range(20)]
    assert verdicts == [False] + [True] * 19 and factored == [2097143]
    assert [A.is_unit(np.array([x])) for x in (0, 1, 5)] == [False, True, True]
    assert factored == [2097143]
