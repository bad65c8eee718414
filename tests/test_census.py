"""A census of the eight-term sequence over small ambients.

Every normal subgroup 1 < N < G of the small cyclic, direct-product and
metacyclic groups G below, with M trivial Z/2, Z/3 or Z/4 up to |G| = 8 and
M = Z/2 x Z/4 up to |G| = 6, gives all exactness verdicts true, with no
refusal and no error.  Up to |G| = 12 the same census has 784 cases, all true;
this subset keeps the run to a few seconds.
"""

import pytest

from teichmuller.crossed_pairs import Ambient, xpext_enumerate
from teichmuller.groups import (
    GroupExtension,
    cyclic,
    direct_product,
    metacyclic,
    quotient_group,
    subgroup_of,
    trivial_action,
)


def normal_subgroups(G) -> list[tuple]:
    """Every normal subgroup of G as a sorted element tuple, by order: the
    joins of normal closures of elements, grown from the trivial subgroup."""
    def normal_closure(elements):
        found = set(G.closure(list(elements)))
        while not (conj := {G.conj(g, n) for g in range(G.order) for n in found}) <= found:
            found = set(G.closure(list(found | conj)))
        return tuple(sorted(found))

    seen, todo = set(), [(G.identity,)]
    while todo:
        H = todo.pop()
        if H not in seen:
            seen.add(H)
            todo += [normal_closure(H + (g,)) for g in range(G.order) if g not in H]
    return sorted(seen, key=lambda H: (len(H), H))


def census_groups(max_order: int) -> dict:
    groups = {f"C{n}": cyclic(n) for n in range(2, max_order + 1)}
    groups.update({f"C{a}xC{b}": direct_product(cyclic(a), cyclic(b))
                   for a in range(2, max_order) for b in range(a, max_order // a + 1)})
    groups.update({f"G({r},{s},{t},{f})": metacyclic(r, s, t, f)[0]
                   for r in range(2, max_order // 2 + 1) for s in range(2, max_order // r + 1)
                   for t in range(1, r) for f in range(r)
                   if pow(t, s, r) == 1 % r and (t * f - f) % r == 0})
    return groups


GROUPS = census_groups(8)
MODULES = {"Z2": cyclic(2), "Z3": cyclic(3), "Z4": cyclic(4),
           "Z2xZ4": direct_product(cyclic(2), cyclic(4))}
CASES = [(label, m) for label, G in GROUPS.items() for m in MODULES
         if m != "Z2xZ4" or G.order <= 6]


def test_normal_subgroups_of_small_groups():
    # C6: 1, C2, C3, C6; Klein: 1, three C2, V; S3: 1, A3, S3; Q8: 1, Z, three C4, Q8
    counts = {label: len(normal_subgroups(G)) for label, G in GROUPS.items()}
    assert (counts["C6"], counts["C2xC2"], counts["G(3,2,2,0)"], counts["G(4,2,3,2)"]) == \
        (4, 5, 3, 6)
    # D8 = G(4, 2, 3, 0): 1, Z, two Klein, C4, D8
    assert counts["G(4,2,3,0)"] == 6


@pytest.mark.parametrize("label, m", CASES)
def test_every_normal_subgroup_gives_exact_verdicts(label, m):
    G, M = GROUPS[label], MODULES[m]
    for H in normal_subgroups(G)[1:-1]:
        _, incl = subgroup_of(G, H)
        _, proj = quotient_group(G, H)
        ext = GroupExtension(incl, proj)
        ext.validate()
        report = xpext_enumerate(Ambient(ext=ext, Mgrp=M, action=trivial_action(G, M)))
        assert report.verdicts["all"] and report.witnesses == {}, (label, m, H)
