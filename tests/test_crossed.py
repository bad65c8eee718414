import random

import numpy as np
import pytest

from teichmuller.groups import (
    GroupAction,
    GroupHom,
    abelian_group_from_factors,
    cyclic,
    metacyclic,
    mixed_radix_decode,
    mixed_radix_encode,
    quaternion_table,
    trivial_action,
)
from teichmuller.crossed import (
    Crossed2Extension,
    CrossedModule,
    baer_sum,
    cocycle_of_crossed2,
    obstruction_cocycle,
    trivial_crossed2,
    validate_crossed_module,
)
from teichmuller.gmod_cohomology import (
    GModule,
    coboundary,
    cohomology,
    is_cocycle,
    random_cochain,
    trivial_gmodule,
)


def metacyclic_crossed2(r, s, t, f, ell):
    """The crossed 2-fold extension C_ell >-> C_{ell r} -> G(r,s,t,f) ->> C_s."""
    G, ext = metacyclic(r, s, t, f)
    L = ell * r
    C = cyclic(L)
    M = cyclic(ell)
    iota = GroupHom.checked(M, C, tuple((m * r) % L for m in range(ell)))
    boundary = GroupHom.checked(C, G, tuple(i % r for i in range(L)))
    rows = [tuple((c * pow(t, g // r, L)) % L for c in range(L)) for g in range(G.order)]
    action = GroupAction(G, C, tuple(rows))
    return Crossed2Extension(M=M, C=C, Gamma=G, G=cyclic(s), iota=iota,
                             boundary=boundary, pi=ext.quotient_hom, action=action)


def test_validate_names_each_non_central_element():
    # M = C3 onto the rotations of C = S3: 1 and 2 are not central, 0 is
    S3, M, C2 = metacyclic(3, 2, 2, 0)[0], cyclic(3), cyclic(2)
    ext = Crossed2Extension(
        M=M, C=S3, Gamma=C2, G=cyclic(1), iota=GroupHom(M, S3, (0, 1, 2)),
        boundary=GroupHom(S3, C2, tuple(g // 3 for g in range(6))),
        pi=GroupHom(C2, cyclic(1), (0, 0)), action=trivial_action(C2, S3))
    central = [line for line in ext.validate() if "not central" in line]
    assert central == [f"M is not central in C (element {M.label(m)})" for m in (1, 2)]


def test_conjugation_crossed_module():
    G = quaternion_table()
    conj = GroupAction(G, G, tuple(tuple(G.conj(g, c) for c in range(G.order))
                                   for g in range(G.order)))
    cm = CrossedModule(G, G, GroupHom(G, G, tuple(range(G.order))), conj)
    assert validate_crossed_module(cm) == []


def test_abelian_kernel_trivial_map_crossed_module():
    M = cyclic(4)
    G = cyclic(2)
    cm = CrossedModule(M, G, GroupHom(M, G, tuple(0 for _ in range(4))),
                       GroupAction(G, M, ((0, 1, 2, 3), (0, 3, 2, 1))))
    assert validate_crossed_module(cm) == []


def test_metacyclic_crossed_module_valid():
    e2 = metacyclic_crossed2(4, 2, 3, 2, 2)
    assert e2.validate() == []


def test_broken_peiffer_is_reported():
    # the conjugation action replaced by the trivial one breaks Peiffer on Q8
    G = quaternion_table()
    cm = CrossedModule(G, G, GroupHom(G, G, tuple(range(G.order))),
                       trivial_action(G, G))
    report = validate_crossed_module(cm)
    assert any("Peiffer" in line or "equivariance" in line for line in report)


def test_trivial_crossed2_and_zero_class():
    Q = cyclic(2)
    M = trivial_gmodule(Q, [2])
    e0 = trivial_crossed2(Q, M)
    assert e0.validate() == []
    xi = cocycle_of_crossed2(e0)
    assert xi.is_zero()


def test_flagship_class_nonzero_and_seed_independent():
    e2 = metacyclic_crossed2(4, 2, 3, 2, 2)
    xi = cocycle_of_crossed2(e2)
    assert is_cocycle(xi) is None
    H = cohomology(cyclic(2), xi.module, 3)
    cls = H.class_of(xi)
    assert cls == (1,)
    for seed in range(1, 6):
        xi2 = cocycle_of_crossed2(e2, section_seed=seed)
        assert H.class_of(xi2) == cls


def test_cocycle_identity_exhaustive_small():
    for args in [(4, 2, 3, 2, 2), (3, 6, 2, 0, 3), (4, 4, 3, 2, 4), (6, 2, 5, 3, 2)]:
        e2 = metacyclic_crossed2(*args)
        assert e2.validate() == []
        assert is_cocycle(cocycle_of_crossed2(e2)) is None


def test_baer_sum_with_trivial_is_neutral():
    e2 = metacyclic_crossed2(4, 2, 3, 2, 2)
    module, _, _ = e2.gmodule()
    e0 = trivial_crossed2(e2.G, module)
    s = baer_sum(e2, e0)
    assert s.validate() == []
    H = cohomology(e2.G, module, 3)
    assert H.class_of(cocycle_of_crossed2(s)) == H.class_of(cocycle_of_crossed2(e2))


def test_baer_sum_self_is_two_torsion_zero():
    e2 = metacyclic_crossed2(4, 2, 3, 2, 2)
    s = baer_sum(e2, e2)
    assert s.validate() == []
    module, _, _ = e2.gmodule()
    H = cohomology(e2.G, module, 3)
    assert H.class_of(cocycle_of_crossed2(s)) == (0,)


def test_baer_sum_additive_on_classes():
    # summands may have different middle terms as long as (G, M) agree
    pairs = [((8, 2, 7, 4, 2), (4, 2, 3, 2, 2)),
             ((4, 4, 3, 2, 4), (4, 4, 3, 0, 4)),
             ((4, 2, 3, 2, 2), (4, 2, 3, 0, 2))]
    for a_args, b_args in pairs:
        a = metacyclic_crossed2(*a_args)
        b = metacyclic_crossed2(*b_args)
        module, _, _ = a.gmodule()
        H = cohomology(a.G, module, 3)
        s = baer_sum(a, b)
        assert s.validate() == []
        ca, cb, cs = (H.class_of(cocycle_of_crossed2(x)) for x in (a, b, s))
        assert cs == tuple((x + y) % f for x, y, f in zip(ca, cb, H.invariant_factors))
        # the first pair adds two nonzero classes to zero
        if a_args == (8, 2, 7, 4, 2):
            assert ca != (0,) and cb != (0,) and cs == (0,)


def test_e0_baer_sum_with_itself():
    Q = cyclic(2)
    M = trivial_gmodule(Q, [4])
    e0 = trivial_crossed2(Q, M)
    s = baer_sum(e0, e0)
    assert s.validate() == []
    assert cocycle_of_crossed2(s).is_zero() or \
        cohomology(Q, M, 3).class_of(cocycle_of_crossed2(s)) == \
        tuple([0] * len(cohomology(Q, M, 3).invariant_factors))


def abelian_obstruction_cases():
    S3, _ = metacyclic(3, 2, 2, 0)
    sign = tuple(((1,),) if g < 3 else ((2,),) for g in range(S3.order))
    C2 = cyclic(2)
    return [
        ("C2_Z4neg", GModule(C2, (4,), (((1,),), ((3,),)))),
        ("S3_Z3sign", GModule(S3, (3,), sign)),
        ("C4_Z2xZ4", trivial_gmodule(cyclic(4), [2, 4])),
    ]


@pytest.mark.parametrize("label,module", abelian_obstruction_cases(),
                         ids=[c[0] for c in abelian_obstruction_cases()])
def test_obstruction_of_abelian_values_is_minus_coboundary(label, module):
    """With values in the module itself, xi = h(x,y) + h(xy,z) - x.h(y,z) - h(x,yz) = -dh."""
    rng = random.Random(label)
    G, factors = module.group, module.invariant_factors
    V = abelian_group_from_factors(factors)
    coords = np.array([mixed_radix_decode(v, factors) for v in range(V.order)])
    act = np.array([[mixed_radix_encode(module.act(x, c), factors) for c in coords]
                    for x in range(G.order)])
    for _ in range(5):
        c = random_cochain(module, 2, rng)
        h = np.array([[mixed_radix_encode(c.value(x, y), factors) for y in range(G.order)]
                      for x in range(G.order)])
        xi = obstruction_cocycle(module, V, h, V.inverse[h], act, np.arange(V.order), coords)
        assert np.array_equal(xi.table, (coboundary(c) * -1).table)
