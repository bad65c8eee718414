"""The array-held structure constants against the entry-by-entry builders of
``algebra_oracles``: every constructor, the flat coordinates, crossed
products (C, a_to_c, v_units), crossed-pair lift tables and the End side."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from algebra_oracles import (
    base_embedding_oracle,
    commutative_ring_as_algebra_over_oracle,
    crossed_pair_lifts_oracle,
    crossed_product_oracle,
    end_algebra_oracle,
    flat_tensor_oracle,
    flat_unit_oracle,
    matrix_algebra_oracle,
    matrix_algebra_over_oracle,
    opposite_oracle,
    ring_as_algebra_oracle,
    scalar_mul_oracle,
    tensor_oracle,
    upper_triangular_oracle,
)
from xpext_oracle import enumerated_pairs
from teichmuller.crossed_pairs import CrossedPair, crossed_pair_algebra, qnormal_galois_product
from teichmuller.finrings import (
    Algebra,
    FinCommRing,
    GaloisData,
    RingError,
    commutative_ring_as_algebra_over,
    fixed_subring,
    frobenius_lift,
    galois_from_free_action,
    galois_ring,
    gf,
    is_ring_morphism_matrix,
    map_ring,
    matrix_algebra,
    matrix_algebra_over,
    opposite_algebra,
    ring_as_algebra,
    tensor_algebra,
    upper_triangular_algebra,
    zmod,
)
from teichmuller.gmod_cohomology import coboundary_preimage, cohomology
from teichmuller.groups import cyclic
from teichmuller.normal_algebras import (
    BaseAction,
    CrossedProductSpec,
    crossed_product,
    deuring_embedding_from_splitting,
    end_algebra_of_crossed_product,
    equivariant_rep,
    semidirect_splitting,
    splitting_from_coboundary,
    teichmuller_cocycle,
    trivial_base_action,
)

BASES = [zmod(8), zmod(9), gf(2, 2), gf(3, 2), galois_ring(2, 2, 2), map_ring(2, gf(3, 1))]


def assert_same_algebra(A, oracle):
    """Equal structure arrays and names, and flat coordinates equal to the
    entry-by-entry ones."""
    assert (A.base.modulus, A.base.name, A.rank, A.name) == (
        oracle.base.modulus, oracle.base.name, oracle.rank, oracle.name)
    assert np.array_equal(A.base.structure, oracle.base.structure)
    assert np.array_equal(A.base.unit, oracle.base.unit)
    assert np.array_equal(A.structure, oracle.structure)
    assert np.array_equal(A.unit, oracle.unit)
    assert np.array_equal(A.flat_tensor, flat_tensor_oracle(A))
    assert np.array_equal(A.flat_unit(), flat_unit_oracle(A))
    assert np.array_equal(A.base_embedding(), base_embedding_oracle(A))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BASES), st.integers(1, 3))
def test_constructors_match_the_entrywise_builders(S, k):
    UT, MK = upper_triangular_algebra(S), matrix_algebra(S, k)
    assert_same_algebra(ring_as_algebra(S), ring_as_algebra_oracle(S))
    assert_same_algebra(MK, matrix_algebra_oracle(S, k))
    assert_same_algebra(UT, upper_triangular_oracle(S))
    assert_same_algebra(opposite_algebra(UT), opposite_oracle(UT))
    assert_same_algebra(matrix_algebra_over(UT, k), matrix_algebra_over_oracle(UT, k))
    assert_same_algebra(tensor_algebra(MK, UT), tensor_oracle(MK, UT))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BASES), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2 ** 31),
       st.integers(1, 3))
def test_arbitrary_structure_constants_match_the_entrywise_builders(S, rank, rank2, seed, k):
    """The builders only move and multiply constants, so they must agree on
    constants that define no algebra at all, given unreduced."""
    rng, m, s = np.random.default_rng(seed), S.modulus, S.rank
    raw = rng.integers(-3 * m, 3 * m, size=(rank, rank, rank, s))
    A = Algebra(base=S, rank=rank, structure=raw, unit=rng.integers(0, m, size=(rank, s)),
                name="A")
    B = Algebra(base=S, rank=rank2, structure=rng.integers(0, m, size=(rank2, rank2, rank2, s)),
                unit=rng.integers(0, m, size=(rank2, s)), name="B")
    assert np.array_equal(A.structure, raw % m)
    assert_same_algebra(A, A)
    assert_same_algebra(opposite_algebra(A), opposite_oracle(A))
    assert_same_algebra(tensor_algebra(A, B), tensor_oracle(A, B))
    assert_same_algebra(matrix_algebra_over(A, k), matrix_algebra_over_oracle(A, k))
    s_elt, x = rng.integers(0, m, size=s), rng.integers(0, m, size=A.flat_rank)
    assert np.array_equal(A.scalar_mul(s_elt, x), scalar_mul_oracle(A, s_elt, x))


def test_structure_arrays_are_read_only_copies():
    raw = np.array(matrix_algebra_oracle(gf(2, 2), 2).structure)
    A = Algebra(base=gf(2, 2), rank=4, structure=raw, unit=np.zeros((4, 2), dtype=np.int64))
    raw[0, 0, 0, 0] += 1
    assert A.structure[0, 0, 0, 0] == 1
    for B in (A, matrix_algebra(zmod(8), 2), opposite_algebra(upper_triangular_algebra(gf(3, 2))),
              tensor_algebra(ring_as_algebra(zmod(9)), matrix_algebra(zmod(9), 2))):
        for arr in (B.structure, B.unit):
            assert arr.dtype == np.int64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1


def frobenius_galois(T) -> GaloisData:
    fr = frobenius_lift(T)
    S, embed = fixed_subring(T, [fr])
    return GaloisData(T=T, S=S, embed=embed, N=cyclic(2),
                      action=(np.eye(T.rank, dtype=np.int64), fr))


@pytest.mark.parametrize("T, mats", [
    (gf(3, 2), "frobenius"), (gf(2, 2), "frobenius"), (galois_ring(2, 2, 2), "frobenius"),
    (galois_ring(3, 2, 2), "frobenius"), (map_ring(2, gf(3, 1)), [np.array([[0, 1], [1, 0]])]),
    (zmod(8), []),
], ids=["F9", "F4", "GR4_2", "GR9_2", "F3xF3", "Z8"])
def test_ring_over_a_subring_matches_the_entrywise_builder(T, mats):
    S, embed = fixed_subring(T, [frobenius_lift(T)] if mats == "frobenius" else mats)
    alg, B = commutative_ring_as_algebra_over(T, S, embed)
    oracle, B_oracle = commutative_ring_as_algebra_over_oracle(T, S, embed)
    assert np.array_equal(B, B_oracle)
    assert_same_algebra(alg, oracle)


def assert_same_crossed_product(res, seed):
    oracle = crossed_product_oracle(res.spec, seed)
    assert_same_algebra(res.C, oracle["C"])
    for key in ("a_to_c", "r_embed", "s_basis"):
        assert np.array_equal(getattr(res, key), oracle[key]), key
    assert np.array_equal(np.stack(res.v_units), np.stack(oracle["v_units"]))
    assert_same_algebra(end_algebra_of_crossed_product(res).E, end_algebra_oracle(res))


PAIR_GALOIS = {
    "batteryA": lambda: galois_from_free_action(2, [[0, 1], [1, 0]], cyclic(2), gf(3, 1)),
    "GR4_2": lambda: frobenius_galois(galois_ring(2, 2, 2)),
    "GR8_2": lambda: frobenius_galois(galois_ring(2, 3, 2)),
    "F9": lambda: frobenius_galois(gf(3, 2)),
    "F25": lambda: frobenius_galois(gf(5, 2)),
    "GR9_2": lambda: frobenius_galois(galois_ring(3, 2, 2)),
}


@pytest.mark.parametrize("label", list(PAIR_GALOIS))
def test_crossed_pair_algebras_match_the_entrywise_builders(label):
    data = qnormal_galois_product(PAIR_GALOIS[label](), cyclic(2))
    amb = data.ambient
    pairs = enumerated_pairs(amb, cap=max(112, amb.Mgrp.order * amb.N.order))
    assert pairs
    # the last lift over each psi(q) as well, whose x has a nontrivial N-part
    alts = [CrossedPair(cp.autdata, cp.psi, tuple(
        max(i for i in range(cp.autdata.group.order) if cp.autdata.to_out(i) == o)
        for o in cp.psi)) for cp in pairs]
    assert any(cp.autdata.pairs[i][1] // amb.Q.order != amb.N.identity
               for cp in alts for i in cp.lifts)
    for i, cp in enumerate(pairs + alts):
        seed = i % 3
        rep, res, _ = crossed_pair_algebra(data, cp, seed=seed)
        assert_same_crossed_product(res, seed)
        lifts, kq_mats = crossed_pair_lifts_oracle(data, cp, res, seed)
        assert np.array_equal(np.stack(rep.lifts), np.stack(lifts))
        assert np.array_equal(np.stack(rep.base_action.matrices), np.stack(kq_mats))
    # one fixed ring per Galois datum, shared by all its crossed products
    assert rep.base_action.S is data.n_base_action().fixed_ring()[0]


def test_deuring_crossed_products_match_the_entrywise_builders():
    # F_4 with Frobenius, the workloads' Deuring rep
    S, fr = gf(2, 2), frobenius_lift(gf(2, 2))
    eye = np.eye(2, dtype=np.int64)
    rep = equivariant_rep(BaseAction(cyclic(2), S, (eye, fr)), ring_as_algebra(S), [eye, fr])
    witness, _ = deuring_embedding_from_splitting(rep, *semidirect_splitting(rep))
    assert_same_crossed_product(witness.product, 0)
    # UT_2(F_4) with Frobenius entrywise: rank_A = 3 and sigma = 2
    UT = upper_triangular_algebra(S)
    rep = equivariant_rep(rep.base_action, UT, [np.eye(6, dtype=np.int64), np.kron(np.eye(3), fr)])
    res = crossed_product(semidirect_spec(rep), seed=1)
    assert_same_crossed_product(res, 1)
    # M_2(F_2), trivial action, split through a coboundary: i(phi) is not 1
    A = matrix_algebra(gf(2, 1), 2)
    rep = equivariant_rep(trivial_base_action(cyclic(2), gf(2, 1)), A,
                          [np.eye(4, dtype=np.int64)] * 2)
    w = teichmuller_cocycle(rep)
    c = coboundary_preimage(cohomology(rep.Q, w.unit_mod.module, 3), w.cocycle)
    witness, _ = deuring_embedding_from_splitting(rep, *splitting_from_coboundary(w, c), seed=2)
    assert_same_crossed_product(witness.product, 2)


def semidirect_spec(rep):
    ext, i_images, theta = semidirect_splitting(rep)
    return CrossedProductSpec(A=rep.A, base_action=rep.base_action, ext=ext,
                              i_images=i_images, theta=theta)


def largest_int64_modulus(rank):
    """The largest m with rank^2 (m - 1)^3 < 2^63."""
    c = round((2 ** 63 / rank ** 2) ** (1 / 3))
    while rank * rank * c ** 3 >= 2 ** 63:
        c -= 1
    while rank * rank * (c + 1) ** 3 < 2 ** 63:
        c += 1
    return c + 1


def residues(m):
    """Residues mod m, often m - 1, so that the sums reach the bound."""
    return st.one_of(st.just(m - 1), st.integers(0, m - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.data())
def test_ring_mul_is_exact_below_the_int64_bound_and_refused_above(rank, above, data):
    m = largest_int64_modulus(rank) + above
    structure = data.draw(st.lists(residues(m), min_size=rank ** 3, max_size=rank ** 3))
    unit = [1] + [0] * (rank - 1)
    if above:
        with pytest.raises(RingError, match=f"m={m} at rank {rank} overflows int64"):
            FinCommRing(modulus=m, rank=rank, structure=structure, unit=unit)
        return
    R = FinCommRing(modulus=m, rank=rank, structure=structure, unit=unit)
    a, b = (data.draw(st.lists(residues(m), min_size=rank, max_size=rank)) for _ in range(2))
    t = np.array(structure, dtype=object).reshape(rank, rank, rank)
    expect = [sum(a[i] * b[j] * t[i, j, k] for i in range(rank) for j in range(rank)) % m
              for k in range(rank)]
    assert R.mul(a, b).tolist() == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.booleans(), st.data())
def test_algebra_mul_is_exact_below_the_int64_bound_and_refused_above(rank, s, above, data):
    N = rank * s
    m = largest_int64_modulus(N) + above

    def draw(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(residues(m), min_size=size, max_size=size)),
                        dtype=object).reshape(shape)

    def build():
        base = FinCommRing(modulus=m, rank=s, structure=draw(s, s, s).astype(np.int64),
                           unit=[1] + [0] * (s - 1))
        return Algebra(base=base, rank=rank, structure=st_.astype(np.int64),
                       unit=np.eye(rank, s, dtype=np.int64))

    st_ = draw(rank, rank, rank, s)
    if above:
        # rank 1 leaves the base ring at the algebra's flat rank: it refuses first
        with pytest.raises(RingError, match=f"m={m} at rank {N} overflows int64"):
            build()
        return
    A = build()
    bt = np.array(A.base.structure.tolist(), dtype=object)
    x, y = draw(rank, s), draw(rank, s)
    # (x y)[c, w] = sum x[i, u] y[j, v] (s_u s_v)_a structure[i, j, c]_k (s_a s_k)_w
    expect = np.zeros((rank, s), dtype=object)
    for i, u, j, v, a, c, k, w in itertools.product(range(rank), range(s), range(rank), range(s),
                                                    range(s), range(rank), range(s), range(s)):
        expect[c, w] += x[i, u] * y[j, v] * bt[u, v, a] * st_[i, j, c, k] * bt[a, k, w]
    got = A.mul(x.reshape(-1).astype(np.int64), y.reshape(-1).astype(np.int64))
    assert got.tolist() == (expect % m).reshape(-1).tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.data())
def test_flat_tensor_is_exact_just_below_the_int64_bound(rank, s, data):
    """Above the bound the algebra is refused on construction (the test above)."""
    N = rank * s
    m = largest_int64_modulus(N)

    def draw(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(residues(m), min_size=size, max_size=size)),
                        dtype=object).reshape(shape)

    bt, st_ = draw(s, s, s), draw(rank, rank, rank, s)
    base = FinCommRing(modulus=m, rank=s, structure=bt.astype(np.int64), unit=[1] + [0] * (s - 1))
    A = Algebra(base=base, rank=rank, structure=st_.astype(np.int64),
                unit=np.eye(rank, s, dtype=np.int64))
    # (e_i s_u)(e_j s_v) = sum_(c, w) (s_u s_v structure[i, j, c])_w e_c s_w
    expect = np.einsum("uva,ijck,akw->iujvcw", bt, st_, bt) % m
    assert A.flat_tensor.tolist() == expect.reshape(N, N, N).tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.data())
def test_is_ring_morphism_matrix_is_exact_just_below_the_int64_bound(rank, square_zero, data):
    """On random structure constants, or on Z/m + V with V^2 = 0, where every
    matrix fixing 1 and mapping V into V is a morphism."""
    m = largest_int64_modulus(rank)

    def draw(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(residues(m), min_size=size, max_size=size)),
                        dtype=object).reshape(shape)

    T, mat = draw(rank, rank, rank), draw(rank, rank)
    if square_zero:
        T = np.zeros((rank, rank, rank), dtype=object)
        T[0] = T[:, 0] = np.eye(rank, dtype=object)
        mat[:, 0] = mat[0] = 0
        mat[0, 0] = 1
    R = FinCommRing(modulus=m, rank=rank, structure=T.astype(np.int64), unit=[1] + [0] * (rank - 1))
    unit = np.array([1] + [0] * (rank - 1), dtype=object)
    lhs = np.einsum("abc,dc->abd", T, mat) % m
    rhs = np.einsum("ua,vb,uvw->abw", mat, mat, T) % m
    expect = (mat.dot(unit) % m).tolist() == unit.tolist() and lhs.tolist() == rhs.tolist()
    assert is_ring_morphism_matrix(R, mat.astype(np.int64)) == expect
    assert expect or not square_zero
