"""Finite groups as explicit multiplication tables.

Elements are integer indices 0..order-1.  ``FiniteGroup.from_table`` is the
one constructor: it checks identity, associativity and inverses.  A group's
only tables are read-only int64 arrays (``table``, ``inverse``), an action's
its permutations (``perms``); the tuple views ``mul``, ``inv`` and an action's
``table`` are for readers outside the package.  The table checks, products,
subgroups, quotients and extensions by a 2-cocycle are gathers on the arrays.
Gathers whose results are only compared run in the narrowest unsigned dtype
that holds an index; indices that are added to stay int64, since narrow
integers wrap.  Homomorphisms, extensions, actions, subgroup/quotient
plumbing and the metacyclic family also live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import prod
from typing import Optional, Sequence

import numpy as np

from .exact_linalg import abelian_quotient
from .modlinalg import Holder, _read_only, check_cells, held, hold_arrays

ALL_GENERATORS_ORDER = 32  # up to this order every element is a generator


class GroupError(ValueError):
    pass


def _generating_set(u: np.ndarray, ident: int) -> np.ndarray:
    """Elements whose closure under products with the identity is all of the table u,
    associative or not: all up to ``ALL_GENERATORS_ORDER``, where one gather costs less
    than a search, else the least element outside, in turn.  Each closure grows only by
    the products new x S and S x new of the elements that the last round added."""
    if len(u) <= ALL_GENERATORS_ORDER:
        return np.arange(len(u))
    gens, inside = [], np.zeros(len(u), dtype=bool)
    inside[ident] = True
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        new = np.array(gens[-1:])
        inside[new] = True
        while new.size:
            before, s = inside.copy(), np.flatnonzero(inside)
            inside[u[new[:, None], s]] = True
            inside[u[s[:, None], new]] = True
            new = np.flatnonzero(inside & ~before)
    return np.array(gens)


def _tuple_view(arr: np.ndarray) -> tuple:
    """arr as tuples of ints nested one level per axis: a view for readers outside the package."""
    if arr.ndim > 2:
        return tuple(map(_tuple_view, arr))
    return tuple(map(tuple, arr.tolist())) if arr.ndim > 1 else tuple(arr.tolist())


class _ByEntries:
    """Equality and hashing on the dataclass fields that compare, arrays by their entries."""

    def _entries(self) -> list:
        return [getattr(self, f.name) for f in fields(self) if f.compare]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or all(np.array_equal(a, b) if np.ndarray in (type(a), type(b)) else a == b
                                    for a, b in zip(self._entries(), other._entries()))

    def __hash__(self):
        return hash(tuple(a.tobytes() if isinstance(a, np.ndarray) else a for a in self._entries()))


@dataclass(frozen=True, eq=False)
class FiniteGroup(_ByEntries, Holder):
    """A group on 0..order-1 by its table.

    The read-only int64 arrays ``table`` and ``inverse`` are its only tables,
    ``gens`` the generators that the table checks run on; ``_held`` keeps derived
    data (``modlinalg.held``): the tuple views ``mul`` and ``inv``, for readers
    outside the package, the ``abelian_presentation`` of an abelian group and its
    views (``abelian_structure``), and per modulus and degree the free resolution, the
    bar-coboundary index grids and H^n of each module content
    (``gmod_cohomology``).  Equality and hashing read ``table``; the pickle, the views.
    """

    order: int
    identity: int
    labels: Optional[tuple[str, ...]] = None
    generators: Optional[tuple[int, ...]] = None
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    table: np.ndarray = field(init=False, repr=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    gens: np.ndarray = field(init=False, repr=False, compare=False)

    @staticmethod
    def from_table(mul: Sequence[Sequence[int]], labels=None, generators=None) -> "FiniteGroup":
        """Checks the n^2 cells against ``CELL_BUDGET`` first, then identity, inverses and
        associativity, the last by Light's test on ``gens``: the a with (xa)y = x(ay) for all
        x, y are closed under products (Clifford-Preston, *The Algebraic Theory of Semigroups*
        I, section 1.2), so they are all once they hold 1 and ``gens``; likewise the a with
        f(xa) = f(x) f(a) for all x, for homomorphisms.  The checked table is held as is."""
        n = len(mul)
        if n == 0:
            raise GroupError("empty table")
        check_cells(f"a group table of order {n}", n * n)
        t = np.array(mul, dtype=np.int64)
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise GroupError("malformed multiplication table")
        ar = np.arange(n)
        units = np.flatnonzero((t == ar).all(axis=1) & (t.T == ar).all(axis=1))
        if not units.size:
            raise GroupError("no identity element")
        ident = int(units[0])
        # associativity: t[t[x,a],y] == t[x,t[a,y]] for each a in gens, in the
        # narrowest index dtype, chunked over gens to bound memory
        u = t.astype(np.min_scalar_type(n - 1))
        gens = _generating_set(u, ident)
        step = max(1, (1 << 21) // (n * n))
        for lo in range(0, len(gens), step):
            g = gens[lo:lo + step] if len(gens) < n else slice(lo, lo + step)
            if not np.array_equal(u[u[:, g]], u[:, u[g]]):
                raise GroupError("multiplication table is not associative")
        hits = t == ident
        if (hits.sum(axis=1) != 1).any():
            raise GroupError("element without unique inverse")
        G = FiniteGroup(order=n, identity=ident, labels=tuple(labels) if labels else None,
                        generators=tuple(generators) if generators else None)
        hold_arrays(G, table=_read_only(t), inverse=hits.argmax(axis=1), gens=gens)
        return G

    @property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        return held(self, "mul", lambda: _tuple_view(self.table))

    @property
    def inv(self) -> tuple[int, ...]:
        return held(self, "inv", lambda: _tuple_view(self.inverse))

    def __getstate__(self):  # the keys, in their order, of a group that held tuple tables
        return dict(order=self.order, mul=_tuple_view(self.table), identity=self.identity,
                    inv=_tuple_view(self.inverse), labels=self.labels, generators=self.generators, _held={})

    def __setstate__(self, state):
        tables = {"table": state.pop("mul"), "inverse": state.pop("inv")}
        self.__dict__.update(state)
        hold_arrays(self, **tables, gens=_generating_set(np.array(tables["table"]), self.identity))

    @property
    def gens_index(self):
        """``gens`` as an index: a slice, which numpy takes without a copy, when it is all."""
        return self.gens if len(self.gens) < self.order else slice(None)

    def op(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def conj(self, a: int, b: int) -> int:
        """a b a^-1."""
        return int(self.table[self.table[a, b], self.inverse[a]])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(int(self.inverse[a]), -k)
        r = self.identity
        while k:
            if k & 1:
                r = int(self.table[r, a])
            a = int(self.table[a, a])
            k >>= 1
        return r

    def element_order(self, a: int) -> int:
        k, x, times_a = 1, a, self.table[:, a].tolist()
        while x != self.identity:
            x = times_a[x]
            k += 1
        return k

    def order_profile(self) -> dict[int, int]:
        prof: dict[int, int] = {}
        for a in range(self.order):
            o = self.element_order(a)
            prof[o] = prof.get(o, 0) + 1
        return prof

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def closure(self, gens: Sequence[int]) -> list[int]:
        # row i of each: x g_i and g_i x for every x
        steps = self.table[:, list(gens)].T.tolist() + self.table[list(gens)].tolist()
        seen, frontier = {self.identity}, [self.identity]
        while frontier:
            x = frontier.pop()
            for row in steps:
                if row[x] not in seen:
                    seen.add(row[x])
                    frontier.append(row[x])
        return sorted(seen)

    def minimal_generators(self) -> list[int]:
        gens: list[int] = []
        span = [self.identity]
        for a in sorted(range(self.order), key=lambda x: (-self.element_order(x), x)):
            if a not in span:
                gens.append(a)
                span = self.closure(gens)
                if len(span) == self.order:
                    break
        return gens

    def center(self) -> list[int]:
        return np.flatnonzero((self.table == self.table.T).all(axis=1)).tolist()

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)


def same_group(G: FiniteGroup, H: FiniteGroup) -> bool:
    """The same group on the same elements: G is H, or their tables are equal."""
    return G is H or np.array_equal(G.table, H.table)


@dataclass(frozen=True)
class GroupHom(Holder):
    """A homomorphism by its table of images.  ``_held`` keeps its inverse
    index (``positions``) and its seeded sections (``section``); it takes no
    part in construction, equality, hashing, the repr or the pickle."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.images) != self.source.order:
            raise GroupError("image table has wrong length")

    @staticmethod
    def checked(source, target, images) -> "GroupHom":
        hom = GroupHom(source, target, tuple(int(x) for x in images))
        outside = [x for x in hom.images if not 0 <= x < target.order]
        if outside:
            raise GroupError(f"image {outside[0]} lies outside the target of order {target.order}")
        if not hom.is_valid():
            raise GroupError(f"not a homomorphism at {hom.first_failing_pair()}")
        return hom

    def _defects(self, rows=slice(None)) -> np.ndarray:
        """defects[j, b]: f(ab) != f(a) f(b) at a = rows[j], all a by default; images in range."""
        im = np.array(self.images)
        return im[self.source.table[rows]] != self.target.table[im[rows][:, None], im]

    def is_valid(self) -> bool:
        im, T = self.images, self.target
        if min(im) < 0 or max(im) >= T.order or im[self.source.identity] != T.identity:
            return False
        return not self._defects(self.source.gens_index).any()

    def first_failing_pair(self) -> Optional[tuple[int, int]]:
        """The first (a, b), in row-major order, with f(ab) != f(a) f(b); None
        for a homomorphism.  The images must lie in the target."""
        bad = np.argwhere(self._defects())
        return (int(bad[0, 0]), int(bad[0, 1])) if len(bad) else None

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order

    def positions(self) -> np.ndarray:
        """The source element over each target element, -1 off the image: for an
        injective hom, its inverse as a read-only (|target|,) array, held."""
        def build():
            pos = np.full(self.target.order, -1)
            pos[list(self.images)] = np.arange(self.source.order)
            return pos
        return held(self, "positions", build)

    def preimage(self, y):
        """``positions`` at y, a target element or an array of them; GroupError
        when one lies off the image."""
        x = self.positions()[y]
        if (x < 0).any():
            raise GroupError(f"element {np.extract(x < 0, y)[0]} lies outside the image")
        return x

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.order

    def kernel(self) -> list[int]:
        return [a for a in range(self.source.order) if self.images[a] == self.target.identity]

    def image(self) -> list[int]:
        return sorted(set(self.images))

    def section(self, seed: int = 0) -> tuple[int, ...]:
        """A set section s of a surjective hom: s(1) = 1 and self(s(q)) = q.

        Each fiber is indexed by ``seed``; the result is a tuple over the
        target, held per seed.
        """
        def build():
            fibers: dict[int, list[int]] = {}
            for g, q in enumerate(self.images):
                fibers.setdefault(q, []).append(g)
            sec = [0] * self.target.order
            for q, fiber in fibers.items():
                sec[q] = fiber[(seed + 13 * q) % len(fiber)]
            sec[self.target.identity] = self.source.identity
            return tuple(sec)
        return held(self, ("section", seed), build)

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if not same_group(other.target, self.source):
            raise GroupError("composition mismatch")
        return GroupHom(other.source, self.target, tuple(self.images[x] for x in other.images))


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, tuple(range(G.order)))


@dataclass(frozen=True)
class GroupExtension:
    """N >--> G -->> Q encoded by the two homomorphisms."""

    kernel_hom: GroupHom
    quotient_hom: GroupHom

    def __post_init__(self):
        if not same_group(self.kernel_hom.target, self.quotient_hom.source):
            raise GroupError("extension maps do not share the middle group")

    @property
    def kernel_group(self) -> FiniteGroup:
        return self.kernel_hom.source

    @property
    def middle(self) -> FiniteGroup:
        return self.quotient_hom.source

    @property
    def quotient_group(self) -> FiniteGroup:
        return self.quotient_hom.target

    def validate(self) -> None:
        if not self.kernel_hom.is_valid() or not self.quotient_hom.is_valid():
            raise GroupError("extension maps are not homomorphisms")
        if not self.kernel_hom.is_injective():
            raise GroupError("kernel map not injective")
        if not self.quotient_hom.is_surjective():
            raise GroupError("quotient map not surjective")
        if sorted(self.kernel_hom.images) != sorted(self.quotient_hom.kernel()):
            raise GroupError("image of kernel differs from kernel of quotient")

    def section(self, seed: int = 0) -> tuple[int, ...]:
        """A set section of the quotient map with s(1) = 1, seed-dependent."""
        return self.quotient_hom.section(seed)


@dataclass(frozen=True, eq=False)
class GroupAction(_ByEntries, Holder):
    """Action of ``actor`` on a carrier, stored as one permutation per element.

    When the carrier is a FiniteGroup the permutations must be automorphisms.
    ``perms``, given as an array or a nested sequence, is its only table, a
    read-only int64 array (None for a ragged table, which ``validate`` rejects);
    ``_held`` keeps ``table``, a tuple view of it for readers outside the package.
    """

    actor: FiniteGroup
    carrier: FiniteGroup | int
    perms: Optional[np.ndarray] = field(repr=False)
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            hold_arrays(self, perms=self.perms)
        except ValueError:  # a ragged table
            object.__setattr__(self, "perms", None)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return held(self, "table", lambda: _tuple_view(self.perms))

    @property
    def carrier_size(self) -> int:
        return self.carrier.order if isinstance(self.carrier, FiniteGroup) else self.carrier

    def act(self, g: int, x: int) -> int:
        return int(self.perms[g, x])

    def validate(self) -> None:
        n = self.carrier_size
        G = self.actor
        arr = self.perms
        if arr is None or arr.shape != (G.order, n):
            raise GroupError("action table has wrong shape")
        if not np.array_equal(np.sort(arr, axis=1), np.tile(np.arange(n), (G.order, 1))):
            raise GroupError("action entry is not a permutation")
        if not np.array_equal(arr[G.identity], np.arange(n)):
            raise GroupError("identity does not act trivially")
        arr = arr.astype(np.min_scalar_type(n - 1))
        # perms[g][perms[h][x]] must equal perms[gh][x], for each generator g
        if not np.array_equal(arr[G.gens_index][:, arr], arr[G.table[G.gens_index]]):
            raise GroupError("action is not a homomorphism")
        if isinstance(self.carrier, FiniteGroup):
            # generators' distinct permutations, on the carrier's generators c: perm[cx] == perm[c] perm[x]
            perms = np.array(list(dict.fromkeys(map(tuple, arr[G.gens].tolist()))), dtype=arr.dtype)
            cmul, cg = self.carrier.table.astype(arr.dtype), self.carrier.gens_index
            if not np.array_equal(perms[:, cmul[cg]], cmul[perms[:, cg, None], perms[:, None, :]]):
                raise GroupError("action is not by automorphisms")


def trivial_action(G: FiniteGroup, carrier: FiniteGroup | int) -> GroupAction:
    n = carrier.order if isinstance(carrier, FiniteGroup) else carrier
    return GroupAction(G, carrier, np.broadcast_to(np.arange(n), (G.order, n)))


# ---------------------------------------------------------------------------
# standard constructions

def cyclic(n: int) -> FiniteGroup:
    mul = (np.arange(n)[:, None] + np.arange(n)) % n
    labels = [f"t^{i}" if i else "1" for i in range(n)]
    return FiniteGroup.from_table(mul, labels=labels, generators=[1 % n])


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    n, m = G.order, H.order
    # axes (a, b, c, d): row a m + b times column c m + d
    mul = (G.table[:, None, :, None] * m + H.table[None, :, None, :]).reshape(n * m, n * m)
    labels = None
    if G.labels and H.labels:
        labels = [f"({G.labels[a]},{H.labels[b]})" for a in range(n) for b in range(m)]
    return FiniteGroup.from_table(mul, labels=labels)


def subgroup_of(G: FiniteGroup, elements: Sequence[int]) -> tuple[FiniteGroup, GroupHom]:
    """The subgroup on the given (closed) element set, with its inclusion."""
    elems = np.array(sorted(set(elements)), dtype=np.int64)
    index = np.full(G.order, -1)
    index[elems] = np.arange(len(elems))
    mul = index[G.table[np.ix_(elems, elems)]]
    if (mul < 0).any():
        raise GroupError("element set is not closed under multiplication")
    labels = [G.label(g) for g in elems] if G.labels else None
    H = FiniteGroup.from_table(mul, labels=labels)
    return H, GroupHom(H, G, tuple(elems.tolist()))


def quotient_group(G: FiniteGroup, normal_elements: Sequence[int],
                   build=None) -> tuple[FiniteGroup, GroupHom]:
    """G / N for a normal subgroup given by its element set, with projection.

    Cosets are numbered by their least element, the order in which a scan of
    G meets them.  ``build`` makes the group of a table (``Ambient.group``, say),
    ``FiniteGroup.from_table`` when None.
    """
    nel = np.array(sorted(set(normal_elements)), dtype=np.int64)
    member = np.zeros(G.order, dtype=bool)
    member[nel] = True
    if not member[G.identity]:
        raise GroupError("normal subgroup must contain the identity")
    # g n g^-1 for every (g, n)
    if not member[G.table[G.table[:, nel], G.inverse[:, None]]].all():
        raise GroupError("subgroup is not normal")
    reps, coset_of = np.unique(G.table[:, nel].min(axis=1), return_inverse=True)
    Q = (build or FiniteGroup.from_table)(coset_of[G.table[np.ix_(reps, reps)]])
    return Q, GroupHom(G, Q, tuple(coset_of.tolist()))


def fiber_product(f: GroupHom, g: GroupHom) -> tuple[FiniteGroup, GroupHom, GroupHom]:
    """{(a, b) : f(a) = g(b)} with its two projections."""
    if not same_group(f.target, g.target):
        raise GroupError("fiber product needs a common target")
    A, B = f.source, g.source
    # the pairs (a, b) in row-major order, and the index of each
    a, b = np.nonzero(np.array(f.images)[:, None] == np.array(g.images))
    index = np.full((A.order, B.order), -1)
    index[a, b] = np.arange(len(a))
    mul = index[A.table[np.ix_(a, a)], B.table[np.ix_(b, b)]]
    P = FiniteGroup.from_table(mul)
    return P, GroupHom(P, A, tuple(a.tolist())), GroupHom(P, B, tuple(b.tolist()))


def mixed_radix_decode(i, factors) -> np.ndarray:
    """Digits in prod Z/factors of the index i, or of each index of an array i,
    on a last axis, the last digit varying fastest."""
    d = np.array(factors, dtype=np.int64)
    return np.asarray(i, dtype=np.int64)[..., None] // (np.prod(d) // np.cumprod(d)) % d


def mixed_radix_encode(v, factors):
    """Index of the digit vector v (reduced mod factors), or of each on the last
    axis of an array v; inverse of the decode."""
    d = np.array(factors, dtype=np.int64)
    return np.asarray(v, dtype=np.int64) % d @ (np.prod(d) // np.cumprod(d))


def abelian_group_from_factors(factors: Sequence[int]) -> FiniteGroup:
    """The group Z/d_1 + ... + Z/d_k with mixed-radix element indexing."""
    factors = [int(d) for d in factors]
    n = prod(factors)
    check_cells(f"a group table of order {n}", n * n)
    digits = mixed_radix_decode(np.arange(n), factors)
    mul = np.zeros((n, n), dtype=np.int64)
    for a, d in zip(digits.T, factors):  # Horner's rule, one digit at a time
        mul = mul * d + (a[:, None] + a) % d
    labels = ["+".join(map(str, v)) for v in digits.tolist()] if factors else ["0"]
    return FiniteGroup.from_table(mul, labels=labels)


def abelian_presentation(M: FiniteGroup) -> tuple:
    """Invariant-factor presentation of an abelian table group, computed once
    and held by M: (invariant_factors, coords, lookup, strides).  The read-only
    int64 arrays are the primary form: row e of coords, of shape (|M|, k),
    holds the coordinates in prod Z/d_i of element e, additive for the group
    law, and lookup the element at each mixed-radix index coords @ strides."""
    return held(M, "presentation", lambda: _present(M))


def coordinate_array(M: FiniteGroup) -> np.ndarray:
    """The primary form of M's coordinates: the read-only (|M|, k) array of
    ``abelian_presentation(M)``, one row per element."""
    return abelian_presentation(M)[1]


def coordinate_elements(M: FiniteGroup, coords) -> np.ndarray:
    """The elements of M at reduced coordinate vectors, on the last axis of
    coords: the inverse of ``coordinate_array``."""
    _, _, lookup, strides = abelian_presentation(M)
    return lookup[np.asarray(coords, dtype=np.int64) @ strides]


def abelian_structure(M: FiniteGroup):
    """``abelian_presentation(M)`` as views for readers outside the package,
    held by M: (invariant_factors, elem_to_coords, coords_to_elem), with
    elem_to_coords a tuple over M of coordinate tuples and coords_to_elem a
    dict.  None may write into them."""
    def build():
        elem_to_coords = _tuple_view(coordinate_array(M))
        return abelian_presentation(M)[0], elem_to_coords, {c: e for e, c in enumerate(elem_to_coords)}
    return held(M, "abelian_structure", build)


def _present(M: FiniteGroup):
    if not M.is_abelian():
        raise GroupError("abelian_presentation needs an abelian group")
    gens = M.minimal_generators()
    g = len(gens)
    # the span of the first j generators, each element's exponent vector in
    # them, and a mask of the span
    span, expo, relations = np.array([M.identity]), np.zeros((1, g), dtype=np.int64), []
    inside = np.zeros(M.order, dtype=bool)
    for j, gen in enumerate(gens):
        inside[span] = True
        powers = [M.identity]  # gen^e for e < k, k least with gen^k in the span
        while not inside[x := M.table[powers[-1], gen]]:
            powers.append(x)
        relations.append(-expo[np.flatnonzero(span == x)[0]])
        relations[-1][j] = len(powers)
        span = M.table[span[:, None], powers].ravel()
        expo = np.repeat(expo, len(powers), axis=0)
        expo[:, j] = np.arange(len(expo)) % len(powers)
    if len(span) != M.order:
        raise GroupError("generator closure failed (group not abelian?)")
    exponents = np.empty_like(expo)
    exponents[span] = expo
    # one relator per column, and one exponent vector per column
    pres = abelian_quotient(np.array(relations, dtype=np.int64).reshape(g, g).T, M.order)
    coords = pres.coords(exponents.T).T
    strides = mixed_radix_encode(np.eye(len(pres.factors), dtype=np.int64), pres.factors)
    lookup = np.full(prod(pres.factors), -1)
    lookup[coords @ strides] = np.arange(M.order)
    if len(lookup) != M.order or (lookup < 0).any():
        raise GroupError("presentation does not separate elements")
    return pres.factors, coords, lookup, strides


# ---------------------------------------------------------------------------
# metacyclic groups G(r, s, t, f)

def metacyclic(r: int, s: int, t: int, f: int) -> tuple[FiniteGroup, GroupExtension]:
    """The group <x, y | y^r = 1, x^s = y^f, x y x^-1 = y^t> of order r*s.

    Elements are indexed as y^i x^j  ->  i + r*j.  Returns the group together
    with its defining extension C_r >--> G -->> C_s.
    """
    if r <= 1 or s <= 1:
        raise GroupError("need r > 1 and s > 1")
    if pow(t, s, r) != 1 % r:
        raise GroupError("t^s = 1 (mod r) violated")
    if (t * f - f) % r:
        raise GroupError("t*f = f (mod r) violated")
    n = r * s
    i, j = np.arange(n) % r, np.arange(n) // r
    # (y^i x^j)(y^k x^l) = y^(i + k t^j) x^(j+l), with x^s = y^f
    jl = j[:, None] + j
    tpow = np.array([pow(t, e, r) for e in range(s)])
    mul = (i[:, None] + i * tpow[j][:, None] + f * (jl >= s)) % r + r * (jl % s)
    labels = [None] * n
    for i in range(r):
        for j in range(s):
            yi = f"y^{i}" if i else ""
            xj = f"x^{j}" if j else ""
            labels[i + r * j] = (yi + xj) or "1"
    G = FiniteGroup.from_table(mul, labels=labels, generators=[1, r])
    Cr = cyclic(r)
    Cs = cyclic(s)
    kernel_hom = GroupHom.checked(Cr, G, tuple(i for i in range(r)))
    quotient_hom = GroupHom.checked(G, Cs, tuple(g // r for g in range(n)))
    ext = GroupExtension(kernel_hom, quotient_hom)
    ext.validate()
    return G, ext


def quaternion_table() -> FiniteGroup:
    """Q8 written directly on {1,-1,i,-i,j,-j,k,-k}; independent of metacyclic."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {s: n for n, s in enumerate(names)}

    def neg(s):
        return s[1:] if s.startswith("-") else "-" + s

    base = {("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1"}

    def mul_sym(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = base[(a, b)]
        if sign == -1:
            out = neg(out) if not out.startswith("-") else out[1:]
        return out

    mul = [[idx[mul_sym(a, b)] for b in names] for a in names]
    return FiniteGroup.from_table(mul, labels=names)


# ---------------------------------------------------------------------------
# extensions from 2-cocycles

COCYCLE_CHECK_CELLS = 1 << 20  # entries of one batch of the stacked cocycle check


def is_two_cocycle(Q: FiniteGroup, M: FiniteGroup, action: GroupAction, f) -> Optional[tuple]:
    """None when f satisfies the (multiplicative) 2-cocycle identity, else the
    lexicographically first failing (p, q, r).

    f may also be a stack of tables on a first axis; the witness then starts
    with the index of the first failing table.  A stack is checked a batch of
    tables at a time, so no temporary exceeds ``COCYCLE_CHECK_CELLS`` cells,
    in the narrowest dtype that holds an element of M unless f leaves M.
    """
    F = np.array(f, dtype=np.int64)
    narrow = F.size and 0 <= F.min() and F.max() < M.order
    dt = np.min_scalar_type(M.order - 1) if narrow else np.int64
    stack, A, Mt = (x.astype(dt, copy=False) for x in (F.reshape((-1,) + F.shape[-2:]), action.perms, M.table))
    step = max(1, COCYCLE_CHECK_CELLS // Q.order ** 3)
    for lo in range(0, len(stack), step):
        B = stack[lo:lo + step]
        # [t, p, q, r]: p.f(q, r) + f(p, qr)  against  f(p, q) + f(pq, r)
        lhs = Mt[A[np.arange(Q.order)[:, None, None], B[:, None]], B[:, :, Q.table]]
        bad = np.argwhere(lhs != Mt[B[..., None], B[:, Q.table]])
        if len(bad):
            bad[0, 0] += lo
            return tuple(int(i) for i in bad[0, 3 - F.ndim:])
    return None


def check_normalized_two_cocycle(Q: FiniteGroup, M: FiniteGroup, action: GroupAction, f) -> None:
    """Raise GroupError unless f, a table or a stack of tables as
    ``is_two_cocycle`` takes them, is a normalized 2-cocycle with values in
    abelian M."""
    if not M.is_abelian():
        raise GroupError("cocycle extension needs an abelian kernel")
    F = np.asarray(f, dtype=np.int64)
    if (F[..., Q.identity, :] != M.identity).any() or (F[..., Q.identity] != M.identity).any():
        raise GroupError("cocycle is not normalized")
    witness = is_two_cocycle(Q, M, action, F)
    if witness is not None:
        raise GroupError(f"2-cocycle identity fails at {witness}")


def group_from_2cocycle(Q: FiniteGroup, M: FiniteGroup, action: GroupAction, f,
                        build=None) -> GroupExtension:
    """The extension M >--> E -->> Q twisted by the normalized 2-cocycle f.

    f is an order x order table of M-element indices; the set E is M x Q with
    (m, p)(n, q) = (m + p.n + f(p, q), pq) and index(m, q) = m + |M|*q.
    ``build`` makes E from its table as ``quotient_group``'s does.
    """
    check_normalized_two_cocycle(Q, M, action, f)
    nm, nq = M.order, Q.order
    F, A = np.array(f, dtype=np.int64), action.perms
    # axes (p, m, q, n): row m + nm*p times column n + nm*q
    val = M.table[M.table[np.arange(nm)[:, None, None], A[:, None, None, :]], F[:, None, :, None]]
    E = (build or FiniteGroup.from_table)(
        (val + nm * Q.table[:, None, :, None]).reshape(nm * nq, nm * nq))
    kernel_hom = GroupHom.checked(M, E, tuple(m + nm * Q.identity for m in range(nm)))
    quotient_hom = GroupHom.checked(E, Q, tuple(g // nm for g in range(nm * nq)))
    ext = GroupExtension(kernel_hom, quotient_hom)
    ext.validate()
    return ext


def two_cocycle_of_extension(ext: GroupExtension, seed: int = 0):
    """Read a normalized 2-cocycle off an extension with abelian kernel.

    Returns (f, action) where f[p][q] is a kernel-group element index and the
    action is the conjugation action of the quotient on the kernel.
    """
    M, G, Q = ext.kernel_group, ext.middle, ext.quotient_group
    if not M.is_abelian():
        raise GroupError("kernel must be abelian")
    kh, sec = ext.kernel_hom, np.array(ext.section(seed))
    # row q: s(q) m s(q)^-1 for every m; f(p, q) = s(p) s(q) s(pq)^-1
    acted = kh.preimage(G.table[G.table[sec[:, None], list(kh.images)], G.inverse[sec][:, None]])
    action = GroupAction(Q, M, acted)
    f = kh.preimage(G.table[G.table[sec[:, None], sec], G.inverse[sec[Q.table]]])
    return f.tolist(), action
