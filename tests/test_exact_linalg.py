import itertools
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teichmuller.exact_linalg import abelian_quotient
from teichmuller.groups import abelian_group_from_factors, abelian_structure


def det(rows) -> int:
    """Integer determinant by cofactor expansion (small matrices only)."""
    if not rows:
        return 1
    return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def quotient_order(R) -> int:
    """|Z^n / colspan(R)|: the gcd of the n x n minors, 0 when infinite."""
    n, k = len(R), len(R[0])
    g = 0
    for cols in itertools.combinations(range(k), n):
        g = gcd(g, det([[R[i][j] for j in cols] for i in range(n)]))
    return g


def all_coords(pres):
    return itertools.product(*[range(f) for f in pres.factors])


def test_abelian_quotient_diag():
    pres = abelian_quotient(np.diag([2, 4]), 8)
    assert pres.factors == (2, 4)


def test_abelian_quotient_unit_factor_dropped():
    pres = abelian_quotient(np.array([[2, 0], [0, 1]]), 2)
    assert pres.factors == (2,)


def test_abelian_quotient_via_snf_example():
    pres = abelian_quotient(np.array([[2, 4], [6, 8]]), 8)
    assert pres.factors == (2, 4)


def test_abelian_quotient_wrong_order_raises():
    # Z/2 + Z/4 has 8 elements: modulo 4 or modulo 16 the relations still
    # present a group of order 8
    for order in (4, 16):
        with pytest.raises(ValueError, match=f"order 8 modulo {order}.*order {order}"):
            abelian_quotient(np.diag([2, 4]), order)


def test_abelian_quotient_roundtrip_and_count():
    rng = random.Random(11)
    checked = 0
    while checked < 30:
        n = rng.randrange(1, 4)
        k = rng.randrange(n, n + 2)
        R = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(n)]
        order = quotient_order(R)
        if not 0 < order <= 4096:
            continue
        checked += 1
        pres = abelian_quotient(np.array(R, dtype=np.int64), order)
        # round trip through coords
        for coords in all_coords(pres):
            assert pres.coords(pres.lift(coords)) == coords
        # order equals the brute-force coset count of (Z/order)^n / span(R)
        if order ** n <= 4096:
            span = {tuple([0] * n)}
            frontier = list(span)
            gens = [tuple(R[i][j] for i in range(n)) for j in range(k)]
            while frontier:
                cur = frontier.pop()
                for g in gens:
                    nxt = tuple((a + b) % order for a, b in zip(cur, g))
                    if nxt not in span:
                        span.add(nxt)
                        frontier.append(nxt)
            assert order ** n // len(span) == pres.order == order


def test_coords_additive():
    pres = abelian_quotient(np.array([[2, 4], [6, 8]]), 8)
    rng = random.Random(5)
    for _ in range(20):
        v = [rng.randrange(-10, 10) for _ in range(2)]
        w = [rng.randrange(-10, 10) for _ in range(2)]
        s = [a + b for a, b in zip(v, w)]
        cs = pres.coords(s)
        cv, cw = pres.coords(v), pres.coords(w)
        assert cs == tuple((a + b) % d for a, b, d in zip(cv, cw, pres.factors))


def canonical_factors(factors) -> tuple[int, ...]:
    """Invariant factors of Z/f_1 + ... + Z/f_k from its prime-power parts."""
    powers: dict[int, list[int]] = {}
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    out = []
    for i in range(max((len(v) for v in powers.values()), default=0)):
        d = 1
        for v in powers.values():
            v = sorted(v, reverse=True)
            d *= v[i] if i < len(v) else 1
        out.append(d)
    return tuple(sorted(out))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=4).filter(
    lambda fs: np.prod(fs, dtype=np.int64) <= 256))
def test_abelian_structure_is_canonical_and_additive(factors):
    M = abelian_group_from_factors(factors)
    inv, e2c, c2e = abelian_structure(M)
    assert inv == canonical_factors(factors)
    assert len(set(e2c)) == M.order and len(c2e) == M.order
    assert all(c2e[c] == e for e, c in enumerate(e2c))
    for a in range(M.order):
        for b in range(M.order):
            assert e2c[M.mul[a][b]] == tuple(
                (x + y) % f for x, y, f in zip(e2c[a], e2c[b], inv))
