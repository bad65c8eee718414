"""Classes read in stacks, checked against the one-at-a-time reads they replace.

``CohomologyGroup.classes_of`` against ``class_of`` per cochain, with the same
``NotACocycle`` witness; ``map_on_classes`` against ``map_on_cohomology``
class by class; the Q-fixed classes read from ``Ambient.twist_matrices``
against twisting every lifted table; and the array ``obstruction_cocycle``
behind ``delta``, ``cocycle_of_crossed2`` and ``teichmuller_cocycle`` against
the triple loop of ``obstruction_oracle``.
"""

import random

import numpy as np
import pytest

from obstruction_oracle import (
    cocycle_of_crossed2_loop,
    delta_loop,
    teichmuller_loop,
)
from teichmuller.crossed import cocycle_of_crossed2, trivial_crossed2
from teichmuller.crossed_pairs import (
    _q_fixed,
    crossed_pair_algebra,
    delta,
    metacyclic_crossed2,
    metacyclic_legal,
    xpext_enumerate,
)
from teichmuller.gmod_cohomology import (
    GModule,
    NotACocycle,
    coboundary,
    cohomology,
    cyclic_unit_module,
    is_cocycle,
    map_on_classes,
    map_on_cohomology,
    random_cochain,
    trivial_gmodule,
)
from teichmuller.groups import cyclic, metacyclic, quaternion_table
from teichmuller.normal_algebras import (
    matrix_rep,
    opposite_rep,
    teichmuller_cocycle,
    tensor_rep,
)
from test_crossed_pairs import TEST_AMBIENTS, all_crossed_pairs, battery_a
from test_normal_algebras import frobenius_rep_on_f4, swap_rep_on_f3xf3, trivial_rep_on_z8_m2
from xpext_oracle import bench_ambients


def modules():
    S3, _ = metacyclic(3, 2, 2, 0)
    sign = tuple(((1,),) if g < 3 else ((2,),) for g in range(S3.order))
    C2 = cyclic(2)
    return {
        "Q8_Z2": trivial_gmodule(quaternion_table(), [2]),
        "C2_Z4neg": GModule(C2, (4,), (((1,),), ((3,),))),
        "C4_Z2xZ4": trivial_gmodule(cyclic(4), [2, 4]),
        "S3_Z3sign": GModule(S3, (3,), sign),
        "C4_Z4u3": cyclic_unit_module(4, 4, 3),
        "C3_rank0": GModule(cyclic(3), (), tuple(() for _ in range(3))),
    }


def cocycles(module, n, count, rng):
    """count random n-cocycles: lifted random classes plus random coboundaries."""
    H = cohomology(module.group, module, n)
    out = []
    for _ in range(count):
        z = H.lift([rng.randrange(f) for f in H.invariant_factors])
        out.append(z + coboundary(random_cochain(module, n - 1, rng)) if n else z)
    return H, out


@pytest.mark.parametrize("label", list(modules()))
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_classes_of_equals_class_of_on_random_stacks(label, n):
    module = modules()[label]
    if n == 3 and module.group.order > 6:
        n = 2
    rng = random.Random(f"{label}:{n}")
    for count in (0, 1, 5):
        H, zs = cocycles(module, n, count, rng)
        stack = np.reshape([z.table for z in zs],
                           (count,) + (module.group.order,) * n + (module.rank,))
        assert H.classes_of(stack) == [H.class_of(z) for z in zs]
        # unreduced entries read as their residues
        assert H.classes_of(stack + 3 * np.array(module.invariant_factors)) == \
            H.classes_of(stack)


def doctored(z, rng):
    """z with one entry moved so that it is no longer a cocycle."""
    G, n = z.module.group, z.degree
    cells = [idx for idx in np.ndindex(*z.table.shape[:-1]) if G.identity not in idx]
    rng.shuffle(cells)
    for idx in cells:
        table = z.table.copy()
        table[idx] += 1
        w = type(z)(z.module, n, table)
        if is_cocycle(w) is not None:
            return w
    raise AssertionError("every one-entry change is a cocycle")


@pytest.mark.parametrize("label,n", [("Q8_Z2", 2), ("C2_Z4neg", 2), ("S3_Z3sign", 2),
                                     ("S3_Z3sign", 3), ("C4_Z4u3", 2), ("C4_Z4u3", 3)])
def test_classes_of_names_the_first_failing_cochain_like_is_cocycle(label, n):
    module = modules()[label]
    rng = random.Random(label)
    H, zs = cocycles(module, n, 4, rng)
    bad = []
    for i in (1, 3):
        zs[i] = doctored(zs[i], rng)
        bad.append(zs[i])
    with pytest.raises(NotACocycle) as raised:
        H.classes_of(np.array([z.table for z in zs]))
    assert raised.value.witness == is_cocycle(bad[0])
    with pytest.raises(NotACocycle) as one:
        H.class_of(bad[0])
    assert one.value.witness == raised.value.witness


AMBIENTS = {f.__name__: f for f in TEST_AMBIENTS} | {
    label: (lambda label=label: bench_ambients()[label]) for label in bench_ambients()}


@pytest.mark.parametrize("label", list(AMBIENTS))
def test_inflation_read_on_unit_classes_equals_map_on_cohomology(label):
    amb = AMBIENTS[label]()
    moduleG, _, _ = amb.gmodule()
    moduleQ, _, _, _ = amb.fixed_submodule_gmodule()
    infl = amb.inflation_map()
    for n in (1, 2, 3):
        hq, hg = cohomology(amb.Q, moduleQ, n), cohomology(amb.G, moduleG, n)
        assert map_on_classes(infl, hq, hg) == \
            {c: map_on_cohomology(infl, hq, hg, list(c)) for c in hq.all_classes()}


@pytest.mark.parametrize("label", list(AMBIENTS))
def test_q_fixed_classes_equal_twisting_every_lifted_table(label):
    amb = AMBIENTS[label]()
    module = amb.restricted_gmodule(amb.ext.kernel_hom)[0]
    for n in (1, 2):
        H = cohomology(amb.N, module, n)
        classes = list(H.all_classes())
        loop = []
        for c in classes:
            table = amb.table(H.lift(list(c)))
            base = H.class_of(amb.cochain(table, module))
            loop.append(all(H.class_of(amb.cochain(amb.twist(table, x), module)) == base
                            for x in amb.ext.section() if x != amb.G.identity))
        assert _q_fixed(amb, H, classes).tolist() == loop


@pytest.mark.parametrize("label", list(AMBIENTS))
def test_delta_equals_the_triple_loop(label):
    amb = AMBIENTS[label]()
    for bucket in xpext_enumerate(amb).buckets:
        for cp in bucket:
            for seed in range(3):
                assert np.array_equal(delta(cp, section_seed=seed)[1].table,
                                      delta_loop(cp, section_seed=seed).table)


def crossed2_cases():
    cases = [metacyclic_crossed2(*args) for args in
             [(4, 2, 3, 2, 2), (4, 4, 3, 2, 4), (6, 2, 5, 3, 2), (8, 2, 7, 4, 2), (3, 2, 2, 0, 3)]
             if metacyclic_legal(*args)]
    return cases + [trivial_crossed2(cyclic(2), GModule(cyclic(2), (4,), (((1,),), ((3,),))))]


def test_cocycle_of_crossed2_equals_the_triple_loop():
    for e2 in crossed2_cases():
        for seed in range(3):
            assert np.array_equal(cocycle_of_crossed2(e2, section_seed=seed).table,
                                  cocycle_of_crossed2_loop(e2, section_seed=seed).table)


def teichmuller_reps():
    f4, swap, z8 = frobenius_rep_on_f4(), swap_rep_on_f3xf3(), trivial_rep_on_z8_m2()
    reps = [f4, swap, z8, opposite_rep(f4), matrix_rep(f4, 2), tensor_rep(f4, f4)[0]]
    data = battery_a()
    return reps + [crossed_pair_algebra(data, cp)[0] for cp in all_crossed_pairs(data)[:4]]


def test_teichmuller_cocycle_equals_the_triple_loop():
    for rep in teichmuller_reps():
        for seed in range(3):
            assert np.array_equal(teichmuller_cocycle(rep, seed=seed).cocycle.table,
                                  teichmuller_loop(rep, seed=seed).table)
