"""Aut_G(e) held as (x, c)-indexed arrays, its crossed module checked once,
and Delta assembled from them, against the row-keyed builders of
``xpext_oracle``: element order, group, beta, Out, lookups and the Delta
cocycle tables, byte for byte."""

import dataclasses
import functools
import random

import numpy as np
import pytest

from test_crossed_pairs import TEST_AMBIENTS
from teichmuller import crossed_pairs
from teichmuller.crossed import cocycle_of_crossed2
from teichmuller.crossed_pairs import (
    Ambient,
    CrossedPair,
    CrossedPairError,
    class_is_q_fixed,
    congruence_key,
    crossed_pair_structures,
    delta,
    metacyclic_crossed2,
)
from teichmuller.gmod_cohomology import coboundary, cohomology, random_cochain
from teichmuller.groups import cyclic, metacyclic, trivial_action
from xpext_oracle import (
    aut_g_of_e_rows,
    bench_ambient,
    bench_ambients,
    cocycle_rows,
    congruence_key_loop,
    crossed_pair_sections_backtrack,
    delta_rows,
    same_partition,
)



def c3_ambient(f):
    """C_3 >-> G(3, 3, 1, f) ->> C_3 with Z/3 trivial: Q of order 3, and for
    f = 1 (G = C_9) nonzero Delta classes."""
    G, ext = metacyclic(3, 3, 1, f)
    return Ambient(ext=ext, Mgrp=cyclic(3), action=trivial_action(G, cyclic(3)))


AMBIENTS = (TEST_AMBIENTS + [functools.partial(bench_ambient, label) for label in bench_ambients()]
            + [functools.partial(c3_ambient, f) for f in (0, 1)])
AMBIENT_IDS = [f.__name__ for f in TEST_AMBIENTS] + list(bench_ambients()) + ["C3xC3_Z3", "C9_Z3"]


def q_fixed_auts(amb):
    """Aut_G(e) on the lift of each Q-fixed class of H^2(N, M), as
    ``xpext_enumerate`` walks them, and on that lift plus a coboundary."""
    module = amb.restricted_gmodule(amb.ext.kernel_hom)[0]
    h2n = cohomology(amb.N, module, 2)
    rng = random.Random(7)
    for coords in h2n.all_classes():
        z = h2n.lift(list(coords))
        if class_is_q_fixed(amb, amb.table(z), h2n):
            yield amb.aut_data(amb.table(z))
            yield amb.aut_data(amb.table(z + coboundary(random_cochain(module, 1, rng))))


def off_key_rows(aut) -> np.ndarray:
    """Each alpha row with its first two entries off the lifts (0, n) swapped:
    the same key (x, c), so only the comparison of whole rows refuses it."""
    nm = aut.ae.ambient.Mgrp.order
    off = np.arange(aut.ae.Gamma.order) % nm != aut.ae.ambient.Mgrp.identity
    y1, y2 = np.flatnonzero(off)[:2]
    rows = aut.alphas.copy()
    rows[:, [y1, y2]] = rows[:, [y2, y1]]
    return rows


@pytest.mark.parametrize("make_ambient", AMBIENTS, ids=AMBIENT_IDS)
def test_aut_ge_matches_the_row_keyed_search(make_ambient):
    amb = make_ambient()
    G = amb.G
    for aut in q_fixed_auts(amb):
        rows = aut_g_of_e_rows(aut.ae)
        assert aut.pairs == rows.pairs
        assert aut.group.mul == rows.group.mul
        assert aut.beta.images == rows.beta.images
        assert aut.out.mul == rows.out.mul and aut.to_out.images == rows.to_out.images
        k = len(rows.pairs)
        assert np.array_equal(aut.lookup(aut.alphas, aut.xs), np.arange(k))
        moved_x = G.table[aut.xs, (G.identity + 1) % G.order]
        for alphas, xs in ((aut.alphas, moved_x), (off_key_rows(aut), aut.xs),
                           (aut.alphas, G.order)):
            assert np.array_equal(aut.lookup(alphas, xs), rows.lookup(alphas, xs))
        assert (aut.lookup(off_key_rows(aut), aut.xs) == -1).all()
        assert (aut.lookup(aut.alphas, G.order) == -1).all()
        assert [int(aut.lookup(a, x)) for a, x in rows.pairs[:3]] == [0, 1, 2][:k]
        pairs = crossed_pair_structures(aut)
        assert [(cp.psi, cp.lifts) for cp in pairs] == crossed_pair_sections_backtrack(aut)
        # lifts moved as (x, c) along phi_c, against moved row by row, split alike
        assert same_partition([congruence_key(cp) for cp in pairs],
                              [congruence_key_loop(cp) for cp in pairs])


@pytest.mark.parametrize("make_ambient", AMBIENTS, ids=AMBIENT_IDS)
def test_delta_matches_the_pair_by_pair_build(make_ambient):
    amb = make_ambient()
    moduleQ = amb.fixed_submodule_gmodule()[0]
    for aut in q_fixed_auts(amb):
        rows = aut_g_of_e_rows(aut.ae)
        for cp in crossed_pair_structures(aut):
            for seed in range(3):
                e_psi, z = delta(cp, section_seed=seed)
                e_rows, z_rows = delta_rows(rows, cp.psi, section_seed=seed)
                assert z.module is moduleQ
                assert z.table.dtype == z_rows.table.dtype and z.table.shape == z_rows.table.shape
                assert z.table.tobytes() == z_rows.table.tobytes()
                assert e_psi.validate() == []
                assert e_psi.Gamma.mul == e_rows.Gamma.mul
                assert e_psi.boundary.images == e_rows.boundary.images
                assert e_psi.pi.images == e_rows.pi.images
                assert e_psi.action.table == e_rows.action.table
                assert e_psi.iota.images == e_rows.iota.images


@pytest.mark.parametrize("args", [(4, 2, 3, 2, 2), (4, 4, 3, 2, 4), (6, 2, 5, 3, 2),
                                  (8, 2, 7, 4, 2), (3, 3, 1, 1, 3)])
def test_cocycle_of_crossed2_matches_the_elementwise_choices(args):
    e2 = metacyclic_crossed2(*args)
    for seed in range(3):
        assert np.array_equal(cocycle_of_crossed2(e2, seed).table, cocycle_rows(e2, seed).table)


def test_the_crossed_module_is_checked_once_per_aut(monkeypatch):
    amb = bench_ambient("Klein_Z2xZ4")
    aut = next(q_fixed_auts(amb))
    checks = []
    real = crossed_pairs.validate_crossed_module
    monkeypatch.setattr(crossed_pairs, "validate_crossed_module",
                        lambda cm: checks.append(cm) or real(cm))
    pairs = crossed_pair_structures(aut)
    assert len(pairs) > 1
    for cp in pairs:
        for seed in range(3):
            delta(cp, section_seed=seed)
    assert len(checks) == 1 and aut.crossed_module()[0] is checks[0]


def test_e_psi_and_the_canonical_twist_are_built_once_per_aut_and_psi(monkeypatch):
    amb = bench_ambient("Klein_Z2xZ4")
    aut = next(q_fixed_auts(amb))
    built = []
    for name in ("_e_psi", "_canonical"):
        real = getattr(crossed_pairs, name)
        monkeypatch.setattr(crossed_pairs, name, functools.partial(
            lambda real, name, *args: built.append((name, args[1:])) or real(*args), real, name))
    pairs = crossed_pair_structures(aut)
    assert len(pairs) > 1
    for cp in pairs:
        e_psis = {id(delta(cp, section_seed=seed)[0]) for seed in range(3)}
        keys = {congruence_key(cp) for _ in range(2)}
        assert len(e_psis) == 1 and len(keys) == 1
    assert sorted(built) == sorted([("_e_psi", (cp.psi,)) for cp in pairs] + [("_canonical", ())])


def test_a_tampered_alpha_row_fails_the_held_crossed_module_check():
    amb = bench_ambient("C4_Z4")
    aut = next(q_fixed_auts(amb))
    cp = crossed_pair_structures(aut)[0]
    delta(cp)
    # the last element keeps its key (x, c), so the group and Out rebuild the
    # same, but it no longer acts on Gamma as its (x, c) does
    alphas = aut.alphas.copy()
    alphas[-1] = off_key_rows(aut)[-1]
    bad = dataclasses.replace(aut, alphas=alphas)
    assert bad.group.mul == aut.group.mul and bad.to_out.images == aut.to_out.images
    with pytest.raises(CrossedPairError, match="fails the crossed-module checks"):
        delta(CrossedPair(autdata=bad, psi=cp.psi, lifts=cp.lifts))


def test_a_doctored_crossed_pair_is_refused_by_delta():
    aut = next(q_fixed_auts(bench_ambient("Klein_Z2xZ4")))
    cp = crossed_pair_structures(aut)[0]
    h1 = next(o for o in aut.h1_out_indices if o != aut.out.identity)
    other_lift = next(a for a in range(aut.group.order) if aut.to_out(a) != cp.psi[1])
    not_hom = (h1, cp.psi[1])
    for psi, lifts, text in (
            ((cp.psi[1], cp.psi[0]), cp.lifts, "not a section"),
            (cp.psi, (cp.lifts[0], other_lift), "does not cover psi"),
            (not_hom, tuple(map(aut.to_out.images.index, not_hom)), "not a homomorphism")):
        with pytest.raises(CrossedPairError, match=text):
            delta(CrossedPair(aut, psi, lifts))
