"""Actions, lift tables, crossed-product data and units held as stacked
read-only arrays, against the one-element-at-a-time builders of
``algebra_oracles``: units and their lookup, the Galois unit rows,
transports, twisted unit extensions, the End side and Deuring's checks; and
every held array stays read-only, through pickling too."""

import dataclasses
import pickle

import numpy as np
import pytest

from algebra_oracles import (
    chi_checks_oracle,
    end_basis_matrices_oracle,
    end_fixed_check_oracle,
    end_tau_oracle,
    matrix_lifts_oracle,
    qnormal_rows_oracle,
    tensor_lifts_oracle,
    twisted_unit_extension_oracle,
    units_oracle,
)
from test_algebra_arrays import PAIR_GALOIS
from teichmuller import finrings, modlinalg
from teichmuller.crossed_pairs import qnormal_galois_product
from teichmuller.finrings import (
    FinCommRing,
    RingError,
    conjugation_matrix,
    frobenius_lift,
    galois_ring,
    gf,
    map_ring,
    matrix_algebra,
    ring_as_algebra,
    units_group,
    upper_triangular_algebra,
    zmod,
)
from teichmuller.gmod_cohomology import (
    CohomologyError,
    coboundary_preimage,
    cohomology,
    trivial_gmodule,
)
from teichmuller.groups import GroupError, GroupExtension, GroupHom, cyclic, same_group
from teichmuller.modlinalg import BudgetExceeded, invertible_mod
from teichmuller.normal_algebras import (
    BaseAction,
    OutRep,
    chi_checks,
    deuring_embedding_from_splitting,
    end_algebra_of_crossed_product,
    end_equivariant_structure,
    end_fixed_subalgebra_check,
    equivariant_rep,
    matrix_rep,
    opposite_rep,
    semidirect_splitting,
    splitting_from_coboundary,
    teichmuller_cocycle,
    tensor_rep,
    trivial_base_action,
    unit_module,
)


def frobenius_rep(S, name: str = ""):
    """C_k acting on S = GF(p^k) by the powers of Frobenius, on A = S."""
    fr = frobenius_lift(S)
    powers = [np.linalg.matrix_power(fr, j) % S.modulus for j in range(S.rank)]
    return equivariant_rep(BaseAction(cyclic(S.rank), S, powers), ring_as_algebra(S), powers,
                           name=name)


def frobenius_rep_on_f4():
    return frobenius_rep(gf(2, 2), "F4_frobenius")


def inner_rotation_rep():
    """M_2(F_2) with C_2 acting trivially on F_2 and w = Inn(g), g of order 3:
    w^2 = Inn(g^2) is inner but not 1, so f(1, 1) = g^2 is not central."""
    A = matrix_algebra(gf(2, 1), 2)
    w = conjugation_matrix(A, [1, 1, 1, 0])
    return OutRep(trivial_base_action(cyclic(2), gf(2, 1)), A, [np.eye(4, dtype=np.int64), w],
                  name="M2(F2)_inner_rotation")


def swap_rep_on_f3xf3():
    S, eye = map_ring(2, gf(3, 1)), np.eye(2, dtype=np.int64)
    swap = eye[::-1]
    return equivariant_rep(BaseAction(cyclic(2), S, (eye, swap)), ring_as_algebra(S),
                           [eye, swap], name="F3xF3_swap")


def trivial_rep_on_matrices(S, k: int):
    A = matrix_algebra(S, k)
    eye = np.eye(A.flat_rank, dtype=np.int64)
    return equivariant_rep(trivial_base_action(cyclic(2), S), A, [eye, eye],
                           name=f"M{k}({S.name})_trivial")


def ut2_f4_rep():
    rep = frobenius_rep_on_f4()
    fr = rep.lifts[1]
    return equivariant_rep(rep.base_action, upper_triangular_algebra(gf(2, 2)),
                           [np.eye(6, dtype=np.int64), np.kron(np.eye(3, dtype=np.int64), fr)])


BENCH_REPS = {
    "F4_frobenius": frobenius_rep_on_f4,
    "F3xF3_swap": swap_rep_on_f3xf3,
    "M2(Z8)_trivial": lambda: trivial_rep_on_matrices(zmod(8), 2),
    "M2(F2)_trivial": lambda: trivial_rep_on_matrices(gf(2, 1), 2),
}


def coboundary_splitting(rep, seed):
    w = teichmuller_cocycle(rep, seed=seed)
    c = coboundary_preimage(cohomology(rep.Q, w.unit_mod.module, 3), w.cocycle)
    return w, splitting_from_coboundary(w, c)


# ---------------------------------------------------------------------------
# units

@pytest.mark.parametrize("A", [zmod(8), gf(2, 2), galois_ring(2, 2, 2), map_ring(2, gf(3, 1)),
                               matrix_algebra(gf(2, 1), 2), upper_triangular_algebra(gf(3, 1))],
                         ids=["Z8", "F4", "GR4_2", "F3xF3", "M2F2", "UT2F3"])
def test_units_and_their_lookup_match_a_search(A):
    U = units_group(A)
    want = np.array(units_oracle(ring_as_algebra(A) if isinstance(A, FinCommRing) else A))
    assert np.array_equal(U.elements, want)
    assert U.index_of(want[-1]) == len(want) - 1
    assert np.array_equal(U.index_of(want), np.arange(len(want)))
    assert np.array_equal(U.index_of(want.reshape(1, len(want), -1)), [np.arange(len(want))])
    codes = np.flatnonzero(U.lookup >= 0)
    assert np.array_equal(U.lookup[codes], np.arange(len(want)))
    zero = np.zeros(want.shape[1], dtype=np.int64)
    with pytest.raises(RingError, match="not a recorded unit"):
        U.index_of(zero)
    with pytest.raises(RingError, match="not a recorded unit"):
        U.index_of(np.stack([want[0], zero]))


@pytest.mark.parametrize("label", list(PAIR_GALOIS))
def test_galois_unit_rows_match_the_loop(label):
    gal = PAIR_GALOIS[label]()
    data = qnormal_galois_product(gal, cyclic(2))
    assert list(data.ambient.action.table) == qnormal_rows_oracle(gal, cyclic(2))
    assert np.array_equal(data.kappa_G, gal.action[np.arange(4) // 2])
    data.validate()


# ---------------------------------------------------------------------------
# transports and twisted unit extensions

@pytest.mark.parametrize("label", list(BENCH_REPS))
def test_transports_match_the_entrywise_builders(label):
    rep = BENCH_REPS[label]()
    for k in (1, 2):
        assert np.array_equal(matrix_rep(rep, k).lifts, matrix_lifts_oracle(rep, k))
    assert np.array_equal(opposite_rep(rep).lifts, rep.lifts)
    for other in (rep, opposite_rep(rep)):
        out, AB = tensor_rep(rep, other)
        assert out.A is AB
        assert np.array_equal(out.lifts, tensor_lifts_oracle(rep, other))


def test_tensor_lifts_match_on_a_semilinear_pair():
    rep = ut2_f4_rep()
    out, _ = tensor_rep(rep, frobenius_rep_on_f4())
    assert np.array_equal(out.lifts, tensor_lifts_oracle(rep, frobenius_rep_on_f4()))
    out.validate()


def assert_same_extension(got, rep, phi_units=None):
    ext, i_images, theta = got
    table, units, thetas = twisted_unit_extension_oracle(rep, phi_units)
    assert np.array_equal(ext.middle.table, table)
    assert np.array_equal(i_images, units)
    assert np.array_equal(theta, thetas)


@pytest.mark.parametrize("label", ["F4_frobenius", "F3xF3_swap", "M2(F2)_trivial"])
def test_semidirect_splittings_match_the_entrywise_builder(label):
    rep = BENCH_REPS[label]()
    assert_same_extension(semidirect_splitting(rep), rep)


def test_the_unit_extension_cap_holds(monkeypatch):
    # |M_2(F_2)| |Q| = 32 bounds the table of U(M_2(F_2)) x| Q by 1024 cells
    rep = BENCH_REPS["M2(F2)_trivial"]()
    monkeypatch.setattr(modlinalg, "CELL_BUDGET", 1023)
    with pytest.raises(BudgetExceeded, match="a unit extension of 16 x 2 elements: 1024 cells "
                                             "exceed CELL_BUDGET = 1023"):
        semidirect_splitting(rep)
    monkeypatch.setattr(modlinalg, "CELL_BUDGET", 1024)
    assert semidirect_splitting(rep)[0].middle.order == 12


def test_an_oversized_unit_extension_is_refused_before_the_units_are_enumerated(monkeypatch):
    # (|M_2(Z/8)| |Q|)^2 = (4096 * 2)^2 cells exceed the default budget, so
    # no element of M_2(Z/8) is tested for a unit
    rep = BENCH_REPS["M2(Z8)_trivial"]()
    verdicts = []

    def counting(*args):
        verdicts.append(invertible_mod(*args))
        return verdicts[-1]

    monkeypatch.setattr(finrings, "invertible_mod", counting)
    with pytest.raises(BudgetExceeded, match="4096 x 2 elements: 67108864 cells exceed CELL_BUDGET"):
        semidirect_splitting(rep)
    assert verdicts == []


@pytest.mark.parametrize("make, seed", [(BENCH_REPS["M2(F2)_trivial"], 0),
                                        (BENCH_REPS["M2(F2)_trivial"], 2),
                                        (inner_rotation_rep, 0), (inner_rotation_rep, 1)])
def test_splittings_from_coboundaries_match_the_entrywise_builder(make, seed):
    rep = make()
    w, got = coboundary_splitting(rep, seed)
    # phi(p, q) = f(p, q) gamma(p, q): here U(S) = 1, so gamma = 1
    assert_same_extension(got, rep, w.f)


# ---------------------------------------------------------------------------
# the End side and Deuring's checks

def semidirect(rep):
    return rep, semidirect_splitting(rep)


def through_a_coboundary(rep, seed):
    return rep, coboundary_splitting(rep, seed)[1]


DEURING_INPUTS = {  # label -> ((rep, splitting), seed)
    "F4_frobenius": (lambda: semidirect(frobenius_rep_on_f4()), 0),
    "UT2(F4)": (lambda: semidirect(ut2_f4_rep()), 1),
    "M2(F2)": (lambda: through_a_coboundary(BENCH_REPS["M2(F2)_trivial"](), 2), 2),
    "M2(F2)_inner_rotation": (lambda: through_a_coboundary(inner_rotation_rep(), 0), 0),
    "F9_frobenius": (lambda: semidirect(frobenius_rep(gf(3, 2))), 1),
    "F8_C3": (lambda: semidirect(frobenius_rep(gf(2, 3))), 1),
}


@pytest.mark.parametrize("label", list(DEURING_INPUTS))
def test_end_side_and_deuring_checks_match_the_loops(label):
    make, seed = DEURING_INPUTS[label]
    rep, split = make()
    witness, tau = deuring_embedding_from_splitting(rep, *split, seed=seed)
    res = witness.product
    assert witness.chi_units is res.v_units
    side = end_algebra_of_crossed_product(res)
    basis = end_basis_matrices_oracle(res)
    assert np.array_equal(side.basis_matrices, basis)
    assert np.array_equal(end_equivariant_structure(side).lifts, end_tau_oracle(res, basis))
    assert np.array_equal(tau.lifts, end_tau_oracle(res, basis))
    assert end_fixed_subalgebra_check(side, tau) == end_fixed_check_oracle(
        res, side.E, basis, tau.lifts)
    assert chi_checks(rep, res) == chi_checks_oracle(rep, res)
    assert all(witness.checks[key] for key in chi_checks_oracle(rep, res))
    # to_matrix sums the basis matrices; from_matrix inverts it
    e = np.arange(side.E.flat_rank) % side.E.modulus
    mat = sum(int(c) * b for c, b in zip(e, basis)) % side.E.modulus
    assert np.array_equal(side.to_matrix(e), mat)
    assert np.array_equal(side.from_matrix(mat), e)


@pytest.mark.parametrize("make, step", [(frobenius_rep_on_f4, 1),
                                        (BENCH_REPS["M2(F2)_trivial"], 1),
                                        (lambda: frobenius_rep(gf(2, 3)), 8)],
                         ids=["F4_frobenius", "M2(F2)_trivial", "F8_C3"])
def test_deuring_checks_fail_as_the_loops_do_on_wrong_units(make, step):
    """v_1 replaced by every step-th unit of C: the batched checks give the
    same verdicts as the loops, every failing one included."""
    rep = make()
    witness, _ = deuring_embedding_from_splitting(rep, *semidirect_splitting(rep))
    res = witness.product
    verdicts = set()
    for v1 in units_group(res.C).elements[::step]:
        bad = dataclasses.replace(res, v_units=np.vstack([res.v_units[0], v1, res.v_units[2:]]))
        got = chi_checks(rep, bad)
        assert got == chi_checks_oracle(rep, bad)
        verdicts.add(tuple(got.values()))
    assert (True, True, True) in verdicts and len(verdicts) > 1


def test_a_fixed_subalgebra_check_fails_as_the_loop_does():
    """An action tau that fixes more than C^op: the image is no longer the
    fixed part, and the batched check says so as the loop does."""
    rep = frobenius_rep_on_f4()
    witness, tau = deuring_embedding_from_splitting(rep, *semidirect_splitting(rep))
    side = end_algebra_of_crossed_product(witness.product)
    eye = np.eye(side.E.flat_rank, dtype=np.int64)
    loose = dataclasses.replace(tau, lifts=[eye, eye])
    got = end_fixed_subalgebra_check(side, loose)
    assert got == end_fixed_check_oracle(witness.product, side.E, side.basis_matrices,
                                          loose.lifts)
    assert got["image_is_fixed_subalgebra"] is False


# ---------------------------------------------------------------------------
# read-only arrays and pickling

def holders():
    """(holder, names of its held arrays) for every array holder."""
    rep = frobenius_rep_on_f4()
    ext, i_images, theta = semidirect_splitting(rep)
    witness, tau = deuring_embedding_from_splitting(rep, ext, i_images, theta)
    res = witness.product
    gal = PAIR_GALOIS["F9"]()
    data = qnormal_galois_product(gal, cyclic(2))
    um = unit_module(rep.base_action)
    yield gf(2, 2), ("structure", "unit")
    yield matrix_algebra(gf(2, 2), 2), ("structure", "unit")
    yield units_group(gf(3, 2)), ("elements", "lookup")
    yield gal, ("action", "embed")
    yield rep.base_action, ("matrices",)
    yield rep, ("lifts",)
    yield tau, ("lifts",)
    yield res.spec, ("i_images", "theta")
    yield res, ("v_units",)
    yield end_algebra_of_crossed_product(res), ("basis_matrices",)
    yield data, ("kappa_G",)
    yield um.module, ("matrices",)
    yield data.ambient.action, ("perms",)
    zero = [[data.ambient.Mgrp.identity] * 2] * 2
    yield data.ambient.aut_data(zero), ("alphas", "xs", "corrections")


def test_held_arrays_stay_read_only_through_pickling():
    for holder, names in holders():
        back = pickle.loads(pickle.dumps(holder))
        for name in names:
            label = f"{type(holder).__name__}.{name}"
            for arr in (getattr(holder, name), getattr(back, name)):
                assert arr.dtype == np.int64 and not arr.flags.writeable, label
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1
            assert np.array_equal(getattr(back, name), getattr(holder, name)), label


def test_stacks_are_reduced_copies_of_any_array_like():
    S, fr = gf(2, 2), frobenius_lift(gf(2, 2))
    raw = [np.eye(2, dtype=np.int64) + 2, fr + 4]
    base = BaseAction(cyclic(2), S, raw)
    raw[0][0, 0] += 1
    assert np.array_equal(base.matrices, [np.eye(2, dtype=np.int64), fr])
    rep = equivariant_rep(base, ring_as_algebra(S), (np.eye(2, dtype=np.int64), fr - 2))
    assert rep.lifts.shape == (2, 2, 2) and np.array_equal(rep.lifts[1], fr)
    assert trivial_gmodule(cyclic(3), (2, 4)).matrices.shape == (3, 2, 2)
    units = units_group(S)
    assert units.elements.shape == (3, 2) and units.lookup.shape == (4,)


def test_a_spec_refuses_a_wrong_number_of_images():
    rep = frobenius_rep_on_f4()
    ext, i_images, theta = semidirect_splitting(rep)
    with pytest.raises(ValueError):
        deuring_embedding_from_splitting(rep, ext, i_images[:-1], theta)


# ---------------------------------------------------------------------------
# groups compared by their tables

def test_groups_compare_by_their_tables():
    C2, other = cyclic(2), cyclic(2)
    assert C2 is not other and same_group(C2, other) and not same_group(C2, cyclic(3))
    # a module over an equal but distinct group is accepted, one over another group refused
    assert cohomology(other, trivial_gmodule(C2, (2,)), 1).invariant_factors == (2,)
    with pytest.raises(CohomologyError, match="module is not over the given group"):
        cohomology(cyclic(3), trivial_gmodule(C2, (2,)), 1)
    H = cohomology(C2, trivial_gmodule(C2, (2,)), 2)
    z = H.lift((1,))
    with pytest.raises(CohomologyError, match="group mismatch"):
        cohomology(cyclic(4), trivial_gmodule(cyclic(4), (2,)), 2).class_of(z)
    ext = semidirect_splitting(frobenius_rep_on_f4())[0]
    with pytest.raises(GroupError, match="do not share the middle group"):
        GroupExtension(ext.kernel_hom, GroupHom(cyclic(5), ext.quotient_group, (0,) * 5))
