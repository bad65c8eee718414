import itertools
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from teichmuller import modlinalg
from teichmuller.gmod_cohomology import bar_coboundary_matrix, trivial_gmodule
from teichmuller.groups import cyclic, quaternion_table
from teichmuller.modlinalg import (
    SMALL_CELLS,
    ModDiagonalization,
    as_mod_array,
    cokernel_mod,
    diagonalize_mod,
    enumerate_colspan,
    first_nonmultiplicative_pair,
    inverse_mod,
    invertible_mod,
    kernel_mod,
    pivot_columns_mod_p,
    solve_matrix_mod,
    submodule_size,
    unit_multiplier,
)


def random_matrix(rng, r, c, m):
    return np.array([[rng.randrange(m) for _ in range(c)] for _ in range(r)], dtype=np.int64)


def dense_diagonalize_mod(A, m: int, want_inverses: bool = False,
                          want_U: bool = True) -> ModDiagonalization:
    """Reference: the dense elimination that rescans and rewrites the whole
    active block at every pivot, with an O(m) gcd lookup table.  Only for
    small m.  ``diagonalize_mod`` must reproduce it bit for bit.

    Diagonalize A over Z/m by invertible row/column operations.

    Pivots are chosen by smallest gcd with m (then position), every diagonal
    entry is normalized to a divisor of m, and the divisibility chain
    gcd(d_i, m) | gcd(d_{i+1}, m) is enforced, so the diagonal is canonical.
    U tracking can be disabled to halve the work on large one-sided problems
    (kernels need only V); ``want_inverses`` also tracks U^-1.
    """
    A = as_mod_array(A, m)
    rows, cols = A.shape
    U = np.eye(rows, dtype=np.int64) if want_U else None
    V = np.eye(cols, dtype=np.int64)
    Ui = np.eye(rows, dtype=np.int64) if want_inverses and want_U else None
    gcd_table = np.gcd(np.arange(m if m > 1 else 2, dtype=np.int64), m)
    t = 0
    limit = min(rows, cols)
    gcds = gcd_table[A]
    while t < limit:
        sub = gcds[t:, t:]
        if not A[t:, t:].any():
            break
        # pivot: minimal gcd(entry, m) among nonzero entries, then position
        masked = np.where(A[t:, t:] != 0, sub, m + 1)
        flat = int(np.argmin(masked))
        pi, pj = divmod(flat, cols - t)
        pi += t
        pj += t
        if pi != t:
            A[[t, pi]] = A[[pi, t]]
            gcds[[t, pi]] = gcds[[pi, t]]
            if want_U:
                U[[t, pi]] = U[[pi, t]]
            if Ui is not None:
                Ui[:, [t, pi]] = Ui[:, [pi, t]]
        if pj != t:
            A[:, [t, pj]] = A[:, [pj, t]]
            gcds[:, [t, pj]] = gcds[:, [pj, t]]
            V[:, [t, pj]] = V[:, [pj, t]]
        # normalize pivot to gcd(pivot, m)
        u = unit_multiplier(int(A[t, t]), m)
        if u != 1:
            A[t] = (A[t] * u) % m
            if want_U:
                U[t] = (U[t] * u) % m
            if Ui is not None:
                Ui[:, t] = (Ui[:, t] * pow(u, -1, m)) % m
        g = int(A[t, t])
        # clear column t below, row t to the right
        q = A[t + 1:, t] // g
        if q.any():
            A[t + 1:] = (A[t + 1:] - np.outer(q, A[t])) % m
            if want_U:
                U[t + 1:] = (U[t + 1:] - np.outer(q, U[t])) % m
            if Ui is not None:
                Ui[:, t] = (Ui[:, t] + Ui[:, t + 1:] @ q) % m
        q = A[t, t + 1:] // g
        if q.any():
            A[:, t + 1:] = (A[:, t + 1:] - np.outer(A[:, t], q)) % m
            V[:, t + 1:] = (V[:, t + 1:] - np.outer(V[:, t], q)) % m
        gcds[t:, t:] = gcd_table[A[t:, t:]]
        if A[t + 1:, t].any() or A[t, t + 1:].any():
            continue  # residues left a smaller pivot candidate
        # divisibility of the remaining block by the pivot gcd
        if t + 1 < limit:
            rem = gcds[t + 1:, t + 1:] % g
            if rem.any():
                bad = int(np.argmax(rem.any(axis=1)))
                A[t] = (A[t] + A[t + 1 + bad]) % m
                gcds[t] = gcd_table[A[t]]
                if want_U:
                    U[t] = (U[t] + U[t + 1 + bad]) % m
                if Ui is not None:
                    Ui[:, t + 1 + bad] = (Ui[:, t + 1 + bad] - Ui[:, t]) % m
                continue
        t += 1
    d = np.array([gcd(int(A[i, i]), m) for i in range(limit)], dtype=np.int64)
    return ModDiagonalization(m=m, rows=rows, cols=cols, d=d,
                              U=U % m if want_U else None, V=V % m,
                              U_inv=Ui % m if Ui is not None else None)


def assert_same_diagonalization(got: ModDiagonalization, want: ModDiagonalization):
    for name in ("d", "U", "V", "U_inv"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert g.dtype == w.dtype and np.array_equal(g, w), name


ORACLE_MODULI = (1, 2, 3, 4, 6, 8, 9, 12, 25, 27, 30, 36)
# the Python-int loop takes blocks up to this side, the numpy loop larger ones
SMALL_SIDE = int(SMALL_CELLS ** 0.5)


@st.composite
def oracle_cases(draw):
    m = draw(st.sampled_from(ORACLE_MODULI))
    shape = (draw(st.integers(0, SMALL_SIDE + 4)), draw(st.integers(0, SMALL_SIDE + 4)))
    if draw(st.booleans()):
        entries = st.integers(0, m - 1)
    else:  # sparse: about four entries in five are zero
        entries = st.integers(0, 5 * m - 1).map(lambda x: x if x < m else 0)
    A = draw(arrays(np.int64, shape, elements=entries))
    flags = draw(st.tuples(st.booleans(), st.booleans()))
    return A, m, flags


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
@example((np.zeros((3, 2), dtype=np.int64), 1, (True, True)))
@example((np.array([[5, 7], [2, 3]]), 1, (False, True)))
@example((np.zeros((0, 4), dtype=np.int64), 6, (True, True)))
@example((np.zeros((5, 0), dtype=np.int64), 6, (True, True)))
@example((np.zeros((0, 0), dtype=np.int64), 2, (False, False)))
def test_diagonalize_matches_dense_oracle(case):
    """Both elimination loops, and the dispatch between them, reproduce the
    dense oracle bit for bit, whatever side of SMALL_CELLS the shape is on."""
    A, m, flags = case
    want = dense_diagonalize_mod(A.copy(), m, *flags)
    assert_same_diagonalization(diagonalize_mod(A.copy(), m, *flags), want)
    for loop in (modlinalg._diagonalize_lists, modlinalg._diagonalize_arrays):
        assert_same_diagonalization(loop(as_mod_array(A, m), m, *flags), want)


@pytest.mark.parametrize("shape", [(12, 9), (9, 6), (15, 12), (4, 3), (0, 4), (20, 20), (21, 1)])
def test_zero_blocks_keep_the_identity_transforms_of_both_loops(shape):
    """The Python-int loop returns a zero block without eliminating; d, U, V
    and U^-1 stay those of the numpy loop and the dense oracle."""
    for m, flags in itertools.product((1, 2, 6, 9), itertools.product((False, True), repeat=2)):
        A = np.zeros(shape, dtype=np.int64)
        want = dense_diagonalize_mod(A.copy(), m, *flags)
        for loop in (modlinalg._diagonalize_lists, modlinalg._diagonalize_arrays):
            assert_same_diagonalization(loop(A.copy(), m, *flags), want)


@pytest.mark.parametrize("shape, loop", [
    ((SMALL_SIDE, SMALL_SIDE), "_diagonalize_lists"), ((1, SMALL_SIDE), "_diagonalize_lists"),
    ((SMALL_SIDE + 1, 1), "_diagonalize_arrays"), ((2, SMALL_SIDE + 1), "_diagonalize_arrays")])
def test_diagonalize_dispatches_on_the_largest_held_matrix(shape, loop, monkeypatch):
    """The Python-int loop takes A exactly when A, U and V each have at most
    SMALL_CELLS cells: a tall A with few cells still has a large U."""
    calls = []
    original = getattr(modlinalg, loop)
    monkeypatch.setattr(modlinalg, loop, lambda *args: calls.append(loop) or original(*args))
    diagonalize_mod(np.ones(shape, dtype=np.int64), 4)
    assert calls == [loop]


def test_h2_q8_system_matches_oracle_with_and_without_zero_rows():
    # the stacked H^2(Q8, Z/2) system: the 343x49 bar differential over 49
    # zero rows (d_i = m), which cohomology no longer stacks
    dmat = bar_coboundary_matrix(trivial_gmodule(quaternion_table(), (2,)), 2)
    stacked = np.vstack([dmat, np.zeros((49, 49), dtype=np.int64)])
    assert stacked.shape == (392, 49)
    kernels = []
    for A in (stacked, dmat):
        for flags in itertools.product((False, True), repeat=2):
            assert_same_diagonalization(diagonalize_mod(A, 2, *flags),
                                        dense_diagonalize_mod(A, 2, *flags))
        kernels.append(diagonalize_mod(A, 2, want_U=False).kernel())
    assert np.array_equal(kernels[0], kernels[1])


def test_inverse_mod_large_modulus_exact():
    # 6 * (3^19 - 1)^2 < 2^63: every product must still be exact
    m = 3 ** 19
    rng = random.Random(7)
    for _ in range(20):
        A = random_matrix(rng, 6, 6, m)
        inv = inverse_mod(A, m)
        if inv is not None:
            break
    assert inv is not None
    rows = [[int(x) for x in row] for row in A]
    cols = [[int(inv[i, j]) for i in range(6)] for j in range(6)]
    prod = [[sum(a * b for a, b in zip(row, col)) % m for col in cols] for row in rows]
    assert prod == [[int(i == j) for j in range(6)] for i in range(6)]


@pytest.mark.parametrize("m", [2 ** 32, 2 ** 40, 2 ** 62])
def test_diagonalize_refuses_int64_overflow(m):
    with pytest.raises(ValueError, match=f"m={m}.*shape \\(2, 2\\)"):
        diagonalize_mod(np.eye(2, dtype=np.int64), m)
    with pytest.raises(ValueError, match=f"m={m}"):
        inverse_mod(np.eye(2, dtype=np.int64), m)


def test_unit_multiplier():
    from math import gcd
    for m in (2, 4, 6, 8, 12, 16, 30):
        for a in range(m):
            u = unit_multiplier(a, m)
            assert gcd(u, m) == 1
            assert (u * a) % m == gcd(a, m) % m


def test_diagonalize_reconstructs():
    rng = random.Random(0)
    for _ in range(80):
        m = rng.choice([2, 3, 4, 6, 8, 12])
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        A = random_matrix(rng, r, c, m)
        dg = diagonalize_mod(A, m, want_inverses=True)
        D = np.zeros((r, c), dtype=np.int64)
        for i, x in enumerate(dg.d):
            D[i, i] = x % m
        assert np.array_equal((dg.U @ A @ dg.V) % m, D)
        assert np.array_equal((dg.U @ dg.U_inv) % m, np.eye(r, dtype=np.int64))
        # divisibility chain of gcds
        for a, b in zip(dg.d, dg.d[1:]):
            assert int(b) % int(a) == 0


def test_kernel_matches_enumeration():
    rng = random.Random(1)
    for _ in range(60):
        m = rng.choice([2, 4, 6, 8])
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        A = random_matrix(rng, r, c, m)
        K = kernel_mod(A, m)
        assert not ((A @ K) % m).any()
        expected = set()
        for x in np.ndindex(*(m,) * c):
            v = np.array(x, dtype=np.int64)
            if not ((A @ v) % m).any():
                expected.add(tuple(v))
        spanned = set(tuple(v) for v in enumerate_colspan(K, m)) if K.size else {tuple([0] * c)}
        assert spanned == expected
        assert diagonalize_mod(A, m, want_U=False).kernel_size() == len(expected)


def test_solve_matrix():
    rng = random.Random(2)
    for _ in range(40):
        m = rng.choice([2, 4, 6, 9])
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        A = random_matrix(rng, r, c, m)
        X = random_matrix(rng, c, 2, m)
        B = (A @ X) % m
        dg = diagonalize_mod(A, m)
        Y = solve_matrix_mod(dg, B)
        assert Y is not None
        assert np.array_equal((A @ Y) % m, B)


def test_inverse_mod():
    rng = random.Random(3)
    cases = [(rng.choice([2, 4, 5, 8, 9, 12]), rng.randrange(1, 4)) for _ in range(200)]
    # 6 and 30 have two and three prime factors; F_2 rows of 63 to 70 columns
    # pack into eight or nine bytes
    cases += [(m, rng.randrange(1, 4)) for m in (6, 30) for _ in range(40)]
    cases += [(2, n) for n in range(63, 71) for _ in range(4)]
    found, seen = 0, set()
    for m, n in cases:
        A = random_matrix(rng, n, n, m)
        inv = inverse_mod(A, m)
        assert invertible_mod(A, m) == (inv is not None)
        if inv is not None:
            found += 1
            assert np.array_equal((A @ inv) % m, np.eye(n, dtype=np.int64))
            assert np.array_equal((inv @ A) % m, np.eye(n, dtype=np.int64))
        seen.add(("F_2 wide" if n > 60 else m if m in (6, 30) else "small", inv is not None))
    assert found > 20
    # every kind of input met both verdicts
    assert seen == {(kind, v) for kind in ("small", 6, 30, "F_2 wide") for v in (False, True)}


def det_mod(A, m: int) -> int:
    """det A mod m by the Leibniz formula on Python ints."""
    n = len(A)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i, j in enumerate(perm):
            term *= int(A[i][j])
        total += term
    return total % m


def test_invertible_mod_is_exact_up_to_the_int64_bound():
    """p = 3037000493 is the largest prime with (p - 1)^2 < 2^63: there the
    verdicts agree with a Python-int determinant.  The next prime, 3037000507,
    is refused before any work."""
    p = 3037000493
    rng = random.Random(17)
    verdicts = set()
    for _ in range(150):
        n = rng.randrange(1, 6)
        A = random_matrix(rng, n, n, p)
        if n > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(p)
            A[i] = [(c * int(x)) % p for x in A[j]]        # a dependent row
        want = det_mod(A, p) != 0
        assert invertible_mod(A, p) == want
        verdicts.add(want)
    assert verdicts == {False, True}
    for q in (3037000507, 4294967291):
        with pytest.raises(ValueError, match=f"p={q}"):
            invertible_mod(np.eye(2, dtype=np.int64), q)
        with pytest.raises(ValueError, match=f"p={q}"):
            pivot_columns_mod_p(np.eye(2, dtype=np.int64), q)


def test_cokernel_structure_and_coords():
    # (Z/4)^2 / <(2,0)> = Z/2 + Z/4
    R = np.array([[2], [0]], dtype=np.int64)
    cok = cokernel_mod(R, 4)
    assert sorted(cok.factors) == [2, 4]
    assert cok.order == 8
    # coords kill the relation and are additive
    assert cok.coords([2, 0]) == tuple([0] * len(cok.factors))
    rng = random.Random(4)
    for _ in range(30):
        v = np.array([rng.randrange(4), rng.randrange(4)])
        w = np.array([rng.randrange(4), rng.randrange(4)])
        cv, cw, cs = cok.coords(v), cok.coords(w), cok.coords((v + w) % 4)
        assert cs == tuple((a + b) % f for a, b, f in zip(cv, cw, cok.factors))
        assert cok.coords(cok.lift(cv)) == cv


def test_cokernel_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        m = rng.choice([2, 4, 6, 8])
        n = rng.randrange(1, 4)
        k = rng.randrange(0, 3)
        R = random_matrix(rng, n, k, m) if k else np.zeros((n, 0), dtype=np.int64)
        cok = cokernel_mod(R, m, n)
        span = set(tuple(v) for v in enumerate_colspan(R, m)) if R.size else {tuple([0] * n)}
        assert cok.order == m ** n // len(span)
        # distinct cosets get distinct coords
        seen = {}
        for x in np.ndindex(*(m,) * n):
            c = cok.coords(np.array(x, dtype=np.int64))
            rep = tuple(np.mod(np.array(x) - np.array(next(iter(span))), m))
            coset = frozenset(tuple((np.array(x) + np.array(s)) % m) for s in span)
            if c in seen:
                assert seen[c] == coset
            else:
                seen[c] = coset
        assert len(seen) == cok.order


def test_submodule_size():
    A = np.array([[2, 0], [0, 1]], dtype=np.int64)
    assert submodule_size(A, 4) == 8


# Smith form over Z/m and solving mod m: the properties once checked on the
# integer Smith normal form, on the diagonalization that replaced it.

def test_snf_identity():
    dg = diagonalize_mod(np.eye(3, dtype=np.int64), 7)
    assert dg.d.tolist() == [1, 1, 1]


def test_snf_zero():
    dg = diagonalize_mod(np.zeros((2, 2), dtype=np.int64), 6)
    assert [x % 6 for x in dg.d.tolist()] == [0, 0]


def test_snf_hand_example():
    A = np.array([[2, 4], [6, 8]], dtype=np.int64)
    dg = diagonalize_mod(A, 16)
    assert dg.d.tolist() == [2, 4]
    assert np.array_equal((dg.U @ A @ dg.V) % 16, np.diag([2, 4]))


def test_snf_transforms_are_inverse_pairs():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.choice([4, 6, 9, 12, 16])
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        A = np.array([[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)],
                     dtype=np.int64)
        dg = diagonalize_mod(A, m, want_inverses=True)
        D = np.zeros((r, c), dtype=np.int64)
        D[np.arange(len(dg.d)), np.arange(len(dg.d))] = dg.d % m
        assert np.array_equal((dg.U @ dg.U_inv) % m, np.eye(r, dtype=np.int64))
        assert invertible_mod(dg.V, m)
        assert np.array_equal((dg.U @ A @ dg.V) % m, D)
        # recomposition through U's inverse reproduces A V
        assert np.array_equal((dg.U_inv @ D) % m, (A @ dg.V) % m)
        for a, b in zip(dg.d.tolist(), dg.d.tolist()[1:]):
            assert m % a == 0 and b % a == 0


def test_snf_deterministic():
    A = np.array([[3, 1, 2], [0, 5, 7], [2, 2, 2]], dtype=np.int64)
    d1, d2 = diagonalize_mod(A, 12), diagonalize_mod(A, 12)
    assert np.array_equal(d1.U, d2.U) and np.array_equal(d1.V, d2.V)


def brute_solutions(A, b, m):
    """All x in (Z/m)^cols with A x = b mod m, by enumeration."""
    return {x for x in itertools.product(range(m), repeat=A.shape[1])
            if not ((A @ np.array(x, dtype=np.int64) - b) % m).any()}


def test_solve_mod_identity_system():
    dg = diagonalize_mod(np.array([[1]]), 7)
    assert dg.solve(np.array([5])).tolist() == [5]
    assert dg.kernel().shape == (1, 0)


def test_solve_mod_derived_example():
    # A=[2], b=[4], m=8: solutions {2, 6} = 2 + <4>
    dg = diagonalize_mod(np.array([[2]]), 8)
    x = int(dg.solve(np.array([4]))[0])
    assert (2 * x) % 8 == 4
    assert dg.kernel().tolist() == [[4]]
    assert {(x + k * 4) % 8 for k in range(2)} == {2, 6}


def test_solve_mod_inconsistent():
    assert diagonalize_mod(np.array([[2]]), 4).solve(np.array([1])) is None


def test_solve_mod_matches_enumeration():
    rng = random.Random(3)
    for _ in range(60):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        m = rng.choice([2, 3, 4, 5, 6, 8])
        A = np.array([[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)],
                     dtype=np.int64)
        b = np.array([rng.randrange(m) for _ in range(r)], dtype=np.int64)
        expected = brute_solutions(A, b, m)
        dg = diagonalize_mod(A, m)
        x = dg.solve(b)
        if not expected:
            assert x is None
            continue
        assert x is not None
        x = tuple(int(v) for v in x)
        assert x in expected
        # the kernel translates x onto every solution
        K = dg.kernel()
        kernel = set(enumerate_colspan(K, m)) if K.size else {tuple([0] * c)}
        assert {tuple((a + k) % m for a, k in zip(x, kv)) for kv in kernel} == expected


def test_cokernel_coords_of_columns():
    rng = random.Random(6)
    for _ in range(20):
        m = rng.choice([4, 6, 8, 12])
        n, k = rng.randrange(1, 4), rng.randrange(0, 3)
        cok = cokernel_mod(random_matrix(rng, n, k, m), m, n)
        V = random_matrix(rng, n, 5, m)
        C = cok.coords(V)
        assert C.shape == (len(cok.factors), 5)
        assert [tuple(col) for col in C.T.tolist()] == [cok.coords(V[:, j]) for j in range(5)]


def pairwise_first_failure(mats, mul, m):
    """The pair-by-pair loop that first_nonmultiplicative_pair replaces (its oracle)."""
    for g in range(len(mats)):
        for h in range(len(mats)):
            if not np.array_equal((mats[g] @ mats[h]) % m, mats[mul[g][h]] % m):
                return g, h
    return None


def test_first_nonmultiplicative_pair_matches_the_pairwise_loop():
    # C_4 acting on (Z/5)^2 by powers of a rotation of order 4, then each
    # matrix in turn replaced by another one of the table
    m, G = 5, cyclic(4)
    rot = np.array([[0, 4], [1, 0]], dtype=np.int64)
    mats = [np.linalg.matrix_power(rot, g) % m for g in range(4)]
    assert first_nonmultiplicative_pair(mats, G, m) is None
    for g, other in itertools.permutations(range(4), 2):
        bad = list(mats)
        bad[g] = mats[other]
        want = pairwise_first_failure(bad, G.mul, m)
        assert want is not None
        assert first_nonmultiplicative_pair(bad, G, m) == want


def test_solve_columns_and_in_image_match_one_column_at_a_time():
    rng = random.Random(12)
    for _ in range(60):
        m = rng.choice([2, 4, 6, 8, 9, 12])
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        A = random_matrix(rng, r, c, m)
        # half the right-hand sides in the image, half random
        B = np.hstack([(A @ random_matrix(rng, c, 3, m)) % m, random_matrix(rng, r, 3, m)])
        dg = diagonalize_mod(A, m)
        singles = [dg.solve(B[:, j]) for j in range(B.shape[1])]
        assert dg.in_image(B).tolist() == [x is not None for x in singles]
        inside = [j for j, x in enumerate(singles) if x is not None]
        X = dg.solve(B[:, inside])
        assert np.array_equal(X, np.stack([singles[j] for j in inside], axis=1).reshape(c, -1))
        assert np.array_equal((A @ X) % m, B[:, inside])
        assert (dg.solve(B) is None) == (len(inside) < B.shape[1])


@pytest.mark.parametrize("m, n", [(2, 40), (9, 64), (1 << 20, 40), (1 << 26, 40)])
def test_solve_is_exact_for_large_moduli(m, n):
    # the int64 products in solve reach n * (m - 1)^2, about 2^57 for the last
    rng = random.Random(m)
    A = random_matrix(rng, n, n, m)
    X = random_matrix(rng, n, 3, m)
    B = np.array([[sum(int(a) * int(x) for a, x in zip(row, col)) % m for col in X.T]
                  for row in A], dtype=np.int64)
    Y = solve_matrix_mod(diagonalize_mod(A, m), B)
    assert Y is not None
    assert all(sum(int(a) * int(y) for a, y in zip(row, col)) % m == b
               for row, brow in zip(A, B) for col, b in zip(Y.T, brow))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 12), st.sampled_from([1, 5, 8, 9, 40, 64, 65, 70]),
       st.sampled_from([0.05, 0.3, 1.0]), st.integers(0, 1 << 30))
def test_pivot_columns_mod_p_matches_greedy_rank(p, rows, width, density, seed):
    """The pivot columns are, in order, the columns that raise the size of the
    span of the columns before them; sizes come from diagonalize_mod.  Widths
    past 8 and 64 columns fill more than one byte and one word of packed F_2
    bits, and sparse draws put pivots there."""
    rng = random.Random(seed)
    A = np.array([[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(width)]
                  for _ in range(rows)], dtype=np.int64).reshape(rows, width)
    if width > 2:
        k = rng.randrange(2, width)
        i, j = rng.sample(range(k), 2)
        A[:, k] = (A[:, i] + 2 * A[:, j]) % p          # a planted dependent column
    want: list[int] = []
    for j in range(width):
        if submodule_size(A[:, want + [j]], p) > submodule_size(A[:, want], p):
            want.append(j)
    assert pivot_columns_mod_p(A, p) == want
