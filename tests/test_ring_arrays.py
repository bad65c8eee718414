"""The held ring arrays against the loop code of ``ring_oracles``: the ring
constructors, the ring-morphism check, the free-action Galois data, and the
systems of Galois criteria (ii) and (iv) on Galois and non-Galois data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ring_oracles import (
    criterion_iv_oracle,
    descent_modules_oracle,
    descent_oracle,
    free_action_oracle,
    is_ring_morphism_oracle,
    product_ring_oracle,
    quotient_poly_ring_oracle,
    subring_from_module_oracle,
)
from teichmuller.finrings import (
    FinCommRing,
    GaloisData,
    RingError,
    _criterion_iv_system,
    _descent_modules,
    _descent_on_module,
    _fixed_module,
    _quotient_poly_ring,
    fixed_subring,
    frobenius_lift,
    galois_check,
    galois_from_free_action,
    galois_ring,
    gf,
    is_algebra_morphism,
    is_ring_morphism_matrix,
    map_ring,
    product_ring,
    ring_as_algebra,
    subring_from_module,
    zmod,
)
from teichmuller.groups import cyclic

RINGS = {
    "Z8": lambda: zmod(8), "Z9": lambda: zmod(9), "F4": lambda: gf(2, 2), "F8": lambda: gf(2, 3),
    "F9": lambda: gf(3, 2), "F25": lambda: gf(5, 2), "F27": lambda: gf(3, 3),
    "F49": lambda: gf(7, 2), "GR4_2": lambda: galois_ring(2, 2, 2),
    "GR8_2": lambda: galois_ring(2, 3, 2), "GR9_2": lambda: galois_ring(3, 2, 2),
    "GR4_3": lambda: galois_ring(2, 2, 3), "GR27_2": lambda: galois_ring(3, 3, 2),
    "Map2F3": lambda: map_ring(2, gf(3, 1)), "Map3F2": lambda: map_ring(3, gf(2, 1)),
    "F4xF4": lambda: product_ring([gf(2, 2), gf(2, 2)]),
    "Map2GR4_2": lambda: map_ring(2, galois_ring(2, 2, 2)),
}


def automorphisms(R) -> list:
    """The powers of Frobenius, or the point swaps of a product of two or
    three equal factors (block permutations)."""
    if "poly" in dict(R.meta):
        # Frobenius has order k on GR(p^n, k)
        fr = frobenius_lift(R)
        return [np.linalg.matrix_power(fr, i) % R.modulus for i in range(1, R.rank + 1)]
    r = R.rank
    for pts in (3, 2):
        if r % pts == 0 and np.array_equal(R.structure, map_ring(pts, _factor(R, pts)).structure):
            k = r // pts
            return [np.kron(np.eye(pts, dtype=np.int64)[list(perm)], np.eye(k, dtype=np.int64))
                    for perm in ([1, 0] + list(range(2, pts)), list(range(1, pts)) + [0])]
    return []


def _factor(R, pts):
    k = R.rank // pts
    return FinCommRing(modulus=R.modulus, rank=k, structure=R.structure[:k, :k, :k],
                       unit=R.unit[:k])


def assert_same_ring(R, structure, unit):
    assert np.array_equal(R.structure, np.reshape(structure, R.structure.shape))
    assert np.array_equal(R.unit, np.array(unit, dtype=np.int64))


# ---------------------------------------------------------------------------
# constructors

@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 8, 9, 25, 27]), st.integers(2, 4), st.data())
def test_quotient_rings_match_the_polynomial_loop(m, k, data):
    """Any monic f, irreducible or not, over any modulus."""
    f = data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k)) + [1]
    assert_same_ring(_quotient_poly_ring(m, m, f, "R"), *quotient_poly_ring_oracle(m, f))


@pytest.mark.parametrize("label", [lab for lab in RINGS if lab[0] in "FG" and lab != "F4xF4"])
def test_galois_fields_and_rings_match_the_polynomial_loop(label):
    R = RINGS[label]()
    assert_same_ring(R, *quotient_poly_ring_oracle(R.modulus, dict(R.meta)["poly"]))


def unreduced_ring(m, rank, seed) -> FinCommRing:
    """Constants that define no ring at all, given unreduced."""
    rng = np.random.default_rng(seed)
    return FinCommRing(modulus=m, rank=rank, unit=rng.integers(-m, 2 * m, size=rank),
                       structure=rng.integers(-3 * m, 3 * m, size=(rank,) * 3))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8, 9]), st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(0, 2 ** 31))
def test_products_match_the_loop(m, ranks, seed):
    rings = {4: [zmod(4), galois_ring(2, 2, 2)], 8: [zmod(8), galois_ring(2, 3, 2)],
             9: [zmod(9), galois_ring(3, 2, 2)]}[m]
    factors = [unreduced_ring(m, r, seed + i) if r == 3 else rings[r - 1]
               for i, r in enumerate(ranks)]
    P = product_ring(factors)
    assert_same_ring(P, *product_ring_oracle(factors))
    assert P.name == " x ".join(r.name or "?" for r in factors)


@pytest.mark.parametrize("label", list(RINGS))
@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_subrings_match_the_loop(label, seed):
    """Fixed modules of automorphisms, and random generators, which may span
    no free module, miss 1 or not be closed."""
    T, rng = RINGS[label](), np.random.default_rng(seed)
    autos = automorphisms(T)
    gens = [_fixed_module(T, [a]) for a in autos] + [_fixed_module(T, autos), _fixed_module(T, [])]
    gens.append(rng.integers(0, T.modulus, size=(T.rank, int(rng.integers(1, T.rank + 1)))))
    gens.append(np.hstack([gens[-1], T.unit[:, None]]))
    for g in gens:
        try:
            S, B = subring_from_module(T, g, name="S")
        except RingError as exc:
            with pytest.raises(RingError, match=str(exc)):
                subring_from_module_oracle(T, g)
            continue
        assert np.array_equal(B, subring_from_module_oracle(T, g)[2])
        assert_same_ring(S, *subring_from_module_oracle(T, g)[:2])


@pytest.mark.parametrize("label", list(RINGS))
@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_morphism_verdicts_match_the_loop(label, seed):
    R, rng = RINGS[label](), np.random.default_rng(seed)
    m, eye, autos = R.modulus, np.eye(R.rank, dtype=np.int64), automorphisms(R)
    mats = autos + [eye, 0 * eye, eye[:, rng.permutation(R.rank)],
                    rng.integers(-m, 2 * m, size=(R.rank, R.rank))]
    for a in autos:
        bad = a.copy()
        bad[tuple(rng.integers(0, R.rank, size=2))] += int(rng.integers(1, m))
        mats.append(bad)
    A = ring_as_algebra(R)
    verdicts = [is_ring_morphism_oracle(R, a) for a in mats]
    assert [is_ring_morphism_matrix(R, a) for a in mats] == verdicts
    assert [is_algebra_morphism(A, A, a) for a in mats] == verdicts
    assert all(verdicts[:len(autos) + 1])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2 ** 31), st.sampled_from([2, 3]))
def test_morphism_verdicts_on_arbitrary_constants(rank, seed, m):
    R, rng = unreduced_ring(m, rank, seed), np.random.default_rng(seed)
    for a in (np.eye(rank, dtype=np.int64), rng.integers(0, m, size=(rank, rank)),
              np.diag(rng.integers(0, m, size=rank))):
        assert is_ring_morphism_matrix(R, a) == is_ring_morphism_oracle(R, a)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([gf(2, 1), gf(3, 1), zmod(4), gf(2, 2)]), st.integers(0, 2 ** 31))
def test_free_action_data_match_the_loop(c, orbits, k, seed):
    """C_c acting regularly on each of the orbits, points relabelled at random."""
    points, rng = c * orbits, np.random.default_rng(seed)
    label = rng.permutation(points)
    perms = [[0] * points for _ in range(c)]
    for n in range(c):
        for b in range(orbits):
            for i in range(c):
                perms[n][label[b * c + i]] = int(label[b * c + (i + n) % c])
    data = galois_from_free_action(points, perms, cyclic(c), k)
    mats, gens = free_action_oracle(points, perms, cyclic(c), k)
    assert np.array_equal(np.stack(data.action), np.stack(mats))
    struct, unit, B = subring_from_module_oracle(data.T, gens)
    assert np.array_equal(data.embed, B)
    assert_same_ring(data.S, struct, unit)


def test_ring_arrays_are_read_only_copies():
    raw = np.array([[[1, 0], [0, 1]], [[0, 1], [2, 2]]])
    T = FinCommRing(modulus=3, rank=2, structure=raw, unit=[1, 0])
    raw[0, 0, 0] = 2
    assert T.structure[0, 0, 0] == 1
    one = T.one()
    one[0] = 2
    assert T.unit[0] == 1
    S, _ = fixed_subring(gf(3, 2), [frobenius_lift(gf(3, 2))])
    for R in (T, zmod(8), gf(2, 2), galois_ring(2, 2, 2), product_ring([gf(2, 2), zmod(2)]),
              map_ring(2, gf(3, 1)), S):
        for arr in (R.structure, R.unit):
            assert arr.dtype == np.int64 and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1


# ---------------------------------------------------------------------------
# Galois criteria (ii) and (iv)

def frobenius_data(T, power=1) -> GaloisData:
    """T over its fixed ring under the group generated by a power of
    Frobenius, which has order k on GR(p^n, k)."""
    fr = frobenius_lift(T)
    acts = [np.linalg.matrix_power(fr, power * i) % T.modulus for i in range(T.rank // power)]
    S, embed = fixed_subring(T, acts[1:])
    return GaloisData(T=T, S=S, embed=embed, N=cyclic(len(acts)), action=tuple(acts))


def swap_data(T, swap) -> GaloisData:
    S, embed = fixed_subring(T, [swap])
    return GaloisData(T=T, S=S, embed=embed, N=cyclic(2),
                      action=(np.eye(T.rank, dtype=np.int64), swap))


SWAP3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
HALF = np.kron(np.diag([1, 0]), np.eye(2, dtype=np.int64)) + np.kron(
    np.diag([0, 1]), frobenius_lift(gf(2, 2)))
GALOIS = {
    **{lab: (lambda lab=lab: frobenius_data(RINGS[lab]()))
       for lab in ("F4", "F8", "F9", "F25", "F27", "F49", "GR4_2", "GR8_2", "GR9_2", "GR4_3",
                   "GR27_2")},
    "F16/F4": lambda: frobenius_data(gf(2, 4), power=2),
    "Map2F3_swap": lambda: galois_from_free_action(2, [[0, 1], [1, 0]], cyclic(2), gf(3, 1)),
    "Map6F2_C3": lambda: galois_from_free_action(
        6, [[0, 1, 2, 3, 4, 5], [1, 2, 0, 4, 5, 3], [2, 0, 1, 5, 3, 4]], cyclic(3), gf(2, 1)),
    # not Galois: ramified, a swap with a fixed point, trivial actions, half a Frobenius
    "ramified": lambda: swap_data(FinCommRing(modulus=3, rank=2, structure=(
        ((1, 0), (0, 1)), ((0, 1), (2, 2))), unit=(1, 0)), np.array([[1, 2], [0, 2]])),
    "swap3F2": lambda: swap_data(map_ring(3, gf(2, 1)), SWAP3),
    "swap3F3": lambda: swap_data(map_ring(3, gf(3, 1)), SWAP3),
    "F4_trivial": lambda: swap_data(gf(2, 2), np.eye(2, dtype=np.int64)),
    "GR4_2_trivial": lambda: swap_data(galois_ring(2, 2, 2), np.eye(2, dtype=np.int64)),
    "Map2F3_trivial": lambda: swap_data(map_ring(2, gf(3, 1)), np.eye(2, dtype=np.int64)),
    "Map2F4_half": lambda: swap_data(map_ring(2, gf(2, 2)), HALF),
}
NOT_GALOIS = ("ramified", "swap3F2", "swap3F3", "F4_trivial", "GR4_2_trivial",
              "Map2F3_trivial", "Map2F4_half")


def assert_same_galois_systems(data):
    m = data.T.modulus
    H, rel = _criterion_iv_system(data)
    H_oracle, rel_oracle, verdict_iv = criterion_iv_oracle(data)
    assert np.array_equal(H, H_oracle) and np.array_equal(rel, rel_oracle)
    verdicts_ii = []
    for (t_mats, n_mats), (dim, t_act, n_act) in zip(_descent_modules(data),
                                                       descent_modules_oracle(data)):
        eye = np.eye(dim, dtype=np.int64)
        for a in range(data.T.rank):
            e_a = eye[a, :data.T.rank]
            assert np.array_equal(t_mats[a], np.stack([t_act(e_a, v) for v in eye], axis=1))
        for n in range(data.N.order):
            assert np.array_equal(n_mats[n] % m, np.stack([n_act(n, v) for v in eye], axis=1))
        W_oracle, rel_oracle, verdict = descent_oracle(data, dim, t_act, n_act)
        system = _descent_on_module(data, t_mats, n_mats)
        assert (system is None) == (W_oracle is None)
        if system is not None:
            assert np.array_equal(system[0], W_oracle) and np.array_equal(system[1], rel_oracle)
        verdicts_ii.append(verdict)
    report = galois_check(data)
    assert report["criterion_iv"] == verdict_iv
    assert report["criterion_ii_spot"] == all(verdicts_ii)
    return report


@pytest.mark.parametrize("label", list(GALOIS))
def test_galois_systems_match_the_loop(label):
    report = assert_same_galois_systems(GALOIS[label]())
    galois = label not in NOT_GALOIS
    assert report["criterion_i"] == report["criterion_iii"] == report["criterion_iv"] == galois


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.sampled_from([gf(2, 1), gf(3, 1), zmod(4)]), st.integers(0, 2 ** 31))
def test_galois_systems_of_random_point_actions_match_the_loop(points, k, seed):
    """A cyclic group generated by a random permutation of the points,
    free or not, acting on Map(P, k)."""
    sigma = np.random.default_rng(seed).permutation(points)
    powers = [np.arange(points)]
    while len(powers) == 1 or not np.array_equal(powers[-1], powers[0]):
        powers.append(sigma[powers[-1]])
    perms = powers[:-1]
    T, eye_k = map_ring(points, k), np.eye(k.rank, dtype=np.int64)
    acts = [np.kron(np.eye(points, dtype=np.int64)[np.argsort(p)], eye_k) for p in perms]
    S, embed = fixed_subring(T, acts)
    if len(acts) == 1:
        acts = acts * 2
    data = GaloisData(T=T, S=S, embed=embed, N=cyclic(len(acts)), action=tuple(acts))
    report = assert_same_galois_systems(data)
    free = len(perms) > 1 and all((p != np.arange(points)).all() for p in perms[1:])
    assert report["criterion_iv"] == free
