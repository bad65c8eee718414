"""Group cohomology H^n(G, M) of a finite group with coefficients in a finite
abelian G-module, computed on the normalized bar complex.

A GModule stores the coefficient group in invariant-factor coordinates
(M = Z/d_1 + ... + Z/d_k, d_1 | d_2 | ...) together with one integer action
matrix per group element.  Normalized cochains are dense integer tables
indexed by full tuples of group elements, zero whenever an argument is the
identity.

The kernel/image linear algebra runs over Z/m with m = d_k: the mixed-modulus
cochain groups embed into free (Z/m)-modules by scaling coordinate i with
m/d_i, which turns the coboundary into an integer matrix over Z/m and makes
kernels, coboundary spans and quotient presentations available through
modlinalg.  When every action matrix is diagonal the module splits into rank
one summands that are computed independently and reglued; that keeps large
trivial-action computations (the cyclic sweeps) cheap.

For cyclic groups there is also a direct degree-3 class invariant obtained by
pushing cocycles through the comparison maps between the bar resolution and
the period-2 resolution; it identifies classes in H^3(C_s, Z/l) in O(s) time
and is what makes the big metacyclic instances feasible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Optional, Sequence

import numpy as np

from .groups import FiniteGroup, GroupHom, abelian_structure, cyclic
from .modlinalg import (
    ModCokernel,
    ModDiagonalization,
    cokernel_mod,
    diagonalize_mod,
    first_nonmultiplicative_pair,
    solve_matrix_mod,
)


class CohomologyError(ValueError):
    pass


class BudgetExceeded(CohomologyError):
    pass


class NotACocycle(CohomologyError):
    def __init__(self, witness):
        super().__init__(f"cocycle identity fails at {witness}")
        self.witness = witness


@dataclass(frozen=True)
class GModule:
    """Finite abelian group in invariant-factor coordinates with a G-action.

    action[g] is a k x k integer matrix acting on coordinate vectors; row i is
    taken mod invariant_factors[i].
    """

    group: FiniteGroup
    invariant_factors: tuple[int, ...]
    action: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise CohomologyError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise CohomologyError("invariant factors must be >= 2")
        if len(self.action) != self.group.order:
            raise CohomologyError("need one action matrix per group element")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def action_matrices(self) -> np.ndarray:
        k = self.rank
        return np.array(self.action, dtype=np.int64).reshape(self.group.order, k, k)

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(int(x) % d for x, d in zip(vec, self.invariant_factors))

    def act(self, g: int, vec) -> tuple[int, ...]:
        mat = self.action[g]
        return tuple(
            sum(mat[i][j] * int(vec[j]) for j in range(self.rank)) % self.invariant_factors[i]
            for i in range(self.rank)
        )

    def validate(self) -> None:
        k = self.rank
        d = self.invariant_factors
        G = self.group
        acts, rows = self.action_matrices(), np.array(d, dtype=np.int64)[:, None]
        if ((acts * rows.T) % rows).any():
            raise CohomologyError("action matrix not well defined on the module")
        if ((acts[G.identity] - np.eye(k, dtype=np.int64)) % rows).any():
            raise CohomologyError("identity must act as the identity matrix")
        # homomorphism, row i taken mod d_i, and invertibility of each action map
        if k:
            pair = first_nonmultiplicative_pair(acts, G.table, rows)
            if pair is not None:
                raise CohomologyError(f"action is not a homomorphism at {pair}")
            m = self.exponent
            for g in range(G.order):
                tl = _tilde_matrix(np.array(self.action[g], dtype=np.int64), d, d, m)
                stacked = np.vstack([tl, np.diag(np.array(d, dtype=np.int64))])
                ker = diagonalize_mod(stacked % m, m, want_U=False).kernel()
                if ker.size and any(self.reduce(_unembed(kcol, d, m)) != (0,) * k
                                    for kcol in ker.T):
                    raise CohomologyError("action matrix is not invertible on the module")

    def is_diagonal_action(self) -> bool:
        k = self.rank
        return all(
            self.action[g][i][j] % self.invariant_factors[i] == 0
            for g in range(self.group.order)
            for i in range(k)
            for j in range(k)
            if i != j
        )

    def summand(self, i: int) -> "GModule":
        """Rank-1 submodule at coordinate i (valid when the action is diagonal)."""
        d = self.invariant_factors[i]
        act = tuple(((self.action[g][i][i] % d,),) for g in range(self.group.order))
        return GModule(self.group, (d,), act)


def trivial_gmodule(G: FiniteGroup, factors: Sequence[int]) -> GModule:
    factors = tuple(int(d) for d in factors)
    k = len(factors)
    ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    return GModule(G, factors, tuple(ident for _ in range(G.order)))


def gmodule_of_action(G: FiniteGroup, M: FiniteGroup, act):
    """The abelian table group M as a G-module, with act(g, m) an M element.

    Returns (GModule, elem_to_coords, coords_to_elem) in the invariant-factor
    coordinates of ``abelian_structure(M)``; column i of each action matrix is
    the image of the i-th unit-coordinate basis element.
    """
    factors, e2c, c2e = abelian_structure(M)
    k = len(factors)
    basis = [c2e[tuple(int(j == i) for j in range(k))] for i in range(k)]
    mats = []
    for g in range(G.order):
        cols = [e2c[act(g, b)] for b in basis]
        mats.append(tuple(tuple(cols[j][i] for j in range(k)) for i in range(k)))
    return GModule(G, factors, tuple(mats)), e2c, c2e


def _unembed(vec, factors, m):
    return tuple(int(x) // (m // factors[i % len(factors)]) for i, x in enumerate(vec))


def _tilde_matrix(mat: np.ndarray, row_factors, col_factors, m) -> np.ndarray:
    """Rescale an integer module-map matrix to act on the free (Z/m) model."""
    out = np.zeros_like(mat)
    for i, di in enumerate(row_factors):
        for j, dj in enumerate(col_factors):
            num = int(mat[i, j]) * dj
            if num % di:
                raise CohomologyError("module map is not well defined")
            out[i, j] = (num // di) % m
    return out


@dataclass
class Cochain:
    """Normalized n-cochain: dense table of shape (|G|,)*n + (k,)."""

    module: GModule
    degree: int
    table: np.ndarray

    def __post_init__(self):
        G = self.module.group
        k = self.module.rank
        want = (G.order,) * self.degree + (k,)
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.shape != want:
            raise CohomologyError(f"cochain table must have shape {want}")
        self._reduce_inplace()

    def _reduce_inplace(self):
        d = np.array(self.module.invariant_factors, dtype=np.int64)
        if d.size:
            self.table = np.mod(self.table, d)

    def copy(self) -> "Cochain":
        return Cochain(self.module, self.degree, self.table.copy())

    def is_normalized(self) -> bool:
        G = self.module.group
        for axis in range(self.degree):
            sl = [slice(None)] * self.degree
            sl[axis] = G.identity
            if self.table[tuple(sl)].any():
                return False
        return True

    def value(self, *args) -> tuple[int, ...]:
        return tuple(int(x) for x in self.table[tuple(args)])

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.module, self.degree, self.table + other.table)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.module, self.degree, self.table - other.table)

    def __mul__(self, k: int) -> "Cochain":
        return Cochain(self.module, self.degree, self.table * int(k))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.table.any()


def zero_cochain(M: GModule, degree: int) -> Cochain:
    G = M.group
    return Cochain(M, degree, np.zeros((G.order,) * degree + (M.rank,), dtype=np.int64))


def random_cochain(M: GModule, degree: int, rng) -> Cochain:
    G = M.group
    shape = (G.order,) * degree + (M.rank,)
    table = np.zeros(shape, dtype=np.int64)
    d = M.invariant_factors
    for idx in np.ndindex(*shape[:-1]):
        if G.identity in idx:
            continue
        table[idx] = [rng.randrange(di) for di in d]
    return Cochain(M, degree, table)


def coboundary(c: Cochain) -> Cochain:
    """Normalized bar-complex differential.

    (dc)(g_1..g_{n+1}) = g_1 . c(g_2..g_{n+1})
                         + sum_i (-1)^i c(.., g_i g_{i+1}, ..)
                         + (-1)^{n+1} c(g_1..g_n).
    """
    M = c.module
    G = M.group
    n = c.degree
    k = M.rank
    order = G.order
    if k == 0:
        return zero_cochain(M, n + 1)
    mul = G.table
    out = np.zeros((order,) * (n + 1) + (k,), dtype=np.int64)
    if n == 0:
        acts = M.action_matrices()
        v = c.table.reshape(k)
        out += np.einsum("gij,j->gi", acts, v) - v[None, :]
        out[G.identity] = 0
        res = Cochain(M, 1, out)
        return res
    grids = np.indices((order,) * (n + 1))
    # term 0: g_1 . c(g_2 ... g_{n+1})
    acts = M.action_matrices()
    first = c.table[tuple(grids[1:])]
    out += np.einsum("gij,g...j->g...i", acts, first.reshape(order, -1, k)).reshape(out.shape)
    # middle terms
    for i in range(1, n + 1):
        idx = [grids[j] for j in range(n + 1)]
        merged = mul[grids[i - 1], grids[i]]
        idx = idx[: i - 1] + [merged] + idx[i + 1:]
        term = c.table[tuple(idx)]
        out += term if i % 2 == 0 else -term
    # last term: (-1)^{n+1} c(g_1 ... g_n)
    last = c.table[tuple(grids[:n])]
    out += last if (n + 1) % 2 == 0 else -last
    res = Cochain(M, n + 1, out)
    # normalization is automatic except on identity slots of the new argument
    for axis in range(n + 1):
        sl = [slice(None)] * (n + 1)
        sl[axis] = G.identity
        res.table[tuple(sl)] = 0
    return res


def is_cocycle(c: Cochain) -> Optional[tuple]:
    """None when dc = 0; otherwise the first violated argument tuple."""
    d = coboundary(c)
    if d.is_zero():
        return None
    flat = np.argwhere(d.table)
    first = tuple(int(x) for x in flat[0][:-1])
    return first


# ---------------------------------------------------------------------------
# reduced coordinates (nontrivial tuples only)

class _Indexer:
    def __init__(self, G: FiniteGroup, n: int, k: int):
        self.G = G
        self.n = n
        self.k = k
        self.elems = [g for g in range(G.order) if g != G.identity]
        self.pos = {g: i for i, g in enumerate(self.elems)}
        self.E = len(self.elems)
        self.count = (self.E ** n) * k

    def tuple_index(self, tup) -> int:
        idx = 0
        for g in tup:
            idx = idx * self.E + self.pos[g]
        return idx

    def tuples(self):
        yield from itertools.product(self.elems, repeat=self.n)


def _reduced_from_cochain(c: Cochain, indexer: _Indexer, m: int) -> np.ndarray:
    """Embed a normalized cochain into the free (Z/m) model (scaled coords)."""
    M = c.module
    d = M.invariant_factors
    v = np.zeros(indexer.count, dtype=np.int64)
    k = M.rank
    for t_idx, tup in enumerate(indexer.tuples()):
        vals = c.table[tup]
        for i in range(k):
            v[t_idx * k + i] = (int(vals[i]) * (m // d[i])) % m
    return v


def _cochain_from_reduced(v: np.ndarray, module: GModule, indexer: _Indexer, m: int) -> Cochain:
    d = module.invariant_factors
    k = module.rank
    G = module.group
    table = np.zeros((G.order,) * indexer.n + (k,), dtype=np.int64)
    for t_idx, tup in enumerate(indexer.tuples()):
        for i in range(k):
            x = int(v[t_idx * k + i]) % m
            scale = m // d[i]
            if x % scale:
                raise CohomologyError("vector does not lie in the embedded cochain group")
            table[tup + (i,)] = x // scale
    return Cochain(module, indexer.n, table)


def _coboundary_matrix(module: GModule, n: int, m: int) -> np.ndarray:
    """D-tilde: the degree-n differential on the scaled free (Z/m) model."""
    G = module.group
    k = module.rank
    d = module.invariant_factors
    src = _Indexer(G, n, k)
    dst = _Indexer(G, n + 1, k)
    out = np.zeros((dst.count, src.count), dtype=np.int64)
    acts = [np.array(module.action[g], dtype=np.int64) for g in range(G.order)]
    tilde_acts = {g: _tilde_matrix(acts[g], d, d, m) for g in set(range(G.order)) - {G.identity}}
    ident = G.identity
    eye = np.eye(k, dtype=np.int64)
    for t_idx, tup in enumerate(dst.tuples()):
        r0 = t_idx * k
        # term 0
        rest = tup[1:]
        if ident not in rest:
            c0 = src.tuple_index(rest) * k
            out[r0:r0 + k, c0:c0 + k] += tilde_acts[tup[0]]
        # middle terms
        for i in range(1, n + 1):
            merged = G.mul[tup[i - 1]][tup[i]]
            newt = tup[:i - 1] + (merged,) + tup[i + 1:]
            if ident in newt:
                continue
            c0 = src.tuple_index(newt) * k
            sign = 1 if i % 2 == 0 else -1
            out[r0:r0 + k, c0:c0 + k] += sign * eye
        # last term
        head = tup[:n]
        if ident not in head:
            c0 = src.tuple_index(head) * k
            sign = 1 if (n + 1) % 2 == 0 else -1
            out[r0:r0 + k, c0:c0 + k] += sign * eye
    return np.mod(out, m)


@dataclass
class _CoreCohomology:
    module: GModule
    degree: int
    m: int
    indexer: _Indexer
    cocycle_gens: np.ndarray           # columns span the embedded cocycle module
    gens_diag: ModDiagonalization
    cok: ModCokernel

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.cok.factors

    def class_vector(self, c: Cochain) -> tuple[int, ...]:
        v = _reduced_from_cochain(c, self.indexer, self.m)
        coeff = self.gens_diag.solve(v)
        if coeff is None:
            raise CohomologyError("cocycle does not lie in the computed kernel")
        return self.cok.coords(coeff)

    def generator(self, coords) -> Cochain:
        coeff = self.cok.lift(coords)
        v = (self.cocycle_gens @ coeff) % self.m
        return _cochain_from_reduced(v, self.module, self.indexer, self.m)


def _compute_core(module: GModule, n: int) -> _CoreCohomology:
    G = module.group
    k = module.rank
    d = np.array(module.invariant_factors, dtype=np.int64)
    m = module.exponent
    indexer = _Indexer(G, n, k)
    dmat = _coboundary_matrix(module, n, m)
    moduli = np.tile(d, indexer.count // k) % m if k else np.zeros(0, dtype=np.int64)
    # the rows with d_i = m are zero; they would never pivot or change
    stacked = np.vstack([dmat, np.diag(moduli)[moduli != 0]])
    kernel = diagonalize_mod(stacked, m, want_U=False).kernel()
    if kernel.size == 0:
        kernel = np.zeros((indexer.count, 0), dtype=np.int64)
    if n == 0:
        bmat = np.zeros((indexer.count, 0), dtype=np.int64)
    else:
        prev = _Indexer(G, n - 1, k)
        dprev = _coboundary_matrix(module, n - 1, m)
        scales = np.array([m // d[i % k] for i in range(prev.count)], dtype=np.int64)
        bmat = (dprev * scales[None, :]) % m
    gens_diag = diagonalize_mod(kernel, m, want_inverses=False)
    X = solve_matrix_mod(gens_diag, bmat)
    if X is None:
        raise CohomologyError("coboundaries escaped the cocycle module (internal error)")
    R = gens_diag.kernel()
    rel = np.hstack([R, X]) if R.size else X
    if rel.size == 0:
        rel = np.zeros((kernel.shape[1], 0), dtype=np.int64)
    cok = cokernel_mod(rel, m, n=kernel.shape[1])
    return _CoreCohomology(module=module, degree=n, m=m, indexer=indexer,
                           cocycle_gens=kernel, gens_diag=gens_diag, cok=cok)


@dataclass
class CohomologyGroup:
    """H^n(G, M) with a class-coordinate procedure.

    ``class_of`` reduces a cocycle to canonical coordinates in
    prod Z/invariant_factors[i]; two cocycles get equal coordinates exactly
    when they differ by a coboundary.  ``generator``/``lift`` produce cocycle
    representatives.
    """

    group: FiniteGroup
    module: GModule
    degree: int
    invariant_factors: tuple[int, ...]
    _cores: list = field(repr=False, default_factory=list)
    _summand_indices: Optional[list] = field(repr=False, default=None)
    # invariant-factor form of the direct sum of the summands' groups
    _glue: Optional[ModCokernel] = field(repr=False, default=None)

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def _check(self, z: Cochain):
        if z.degree != self.degree:
            raise CohomologyError("degree mismatch")
        if z.module.group.mul != self.group.mul:
            raise CohomologyError("group mismatch")
        witness = is_cocycle(z)
        if witness is not None:
            raise NotACocycle(witness)

    def class_of(self, z: Cochain) -> tuple[int, ...]:
        self._check(z)
        if self.module.rank == 0:
            return ()
        if self._summand_indices is None:
            return self._cores[0].class_vector(z)
        parts = []
        for core, i in zip(self._cores, self._summand_indices):
            sub = Cochain(core.module, self.degree, z.table[..., i:i + 1])
            parts.extend(core.class_vector(sub))
        return self._glue.coords(parts)

    def generator(self, index: int) -> Cochain:
        coords = [0] * len(self.invariant_factors)
        coords[index] = 1
        return self.lift(coords)

    def lift(self, coords) -> Cochain:
        if self.module.rank == 0:
            return zero_cochain(self.module, self.degree)
        if self._summand_indices is None:
            return self._cores[0].generator(coords)
        flat = self._glue.lift(coords)
        out = zero_cochain(self.module, self.degree)
        offset = 0
        for core, i in zip(self._cores, self._summand_indices):
            width = len(core.invariant_factors)
            part = flat[offset:offset + width] % np.array(core.invariant_factors, dtype=np.int64)
            sub = core.generator(part)
            out.table[..., i] = sub.table[..., 0]
            offset += width
        out._reduce_inplace()
        return out

    def all_classes(self):
        """All coordinate tuples, lexicographic."""
        ranges = [range(f) for f in self.invariant_factors]
        yield from itertools.product(*ranges)

    def class_order(self, coords) -> int:
        k = 1
        while any((c * k) % f for c, f in zip(coords, self.invariant_factors)):
            k += 1
        return k


# bar systems of (|G|-1)^n columns per coordinate; larger ones are refused
BAR_COLUMN_BUDGET = 4096
BAR_SIZE_BUDGET = 40000         # rows plus columns
MAX_DEGREE = 4


def cohomology(G: FiniteGroup, M: GModule, n: int) -> CohomologyGroup:
    """H^n(G, M) by Smith-style reduction of the normalized bar complex.

    Nothing is held between calls.  Holding each H^n on its module was tried:
    on the xpext_search benchmark it raised peak memory by about 4% and did
    not lower the wall time.
    """
    if M.group.mul != G.mul:
        raise CohomologyError("module is not over the given group")
    if n < 0:
        raise CohomologyError("degree must be nonnegative")
    if n > MAX_DEGREE:
        raise BudgetExceeded(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    k = M.rank
    if k == 0:
        return CohomologyGroup(G, M, n, ())
    E = G.order - 1
    split = k > 1 and M.is_diagonal_action()
    unit_cols = (E ** n)
    unit_rows = (E ** (n + 1)) + unit_cols
    per = 1 if split else k
    if unit_cols * per > BAR_COLUMN_BUDGET or (unit_rows + unit_cols) * per > BAR_SIZE_BUDGET:
        raise BudgetExceeded(
            f"bar complex size {unit_cols * per} columns / {unit_rows * per} rows exceeds "
            f"BAR_COLUMN_BUDGET = {BAR_COLUMN_BUDGET} or BAR_SIZE_BUDGET = {BAR_SIZE_BUDGET}")
    if not split:
        core = _compute_core(M, n)
        return CohomologyGroup(G, M, n, core.invariant_factors, _cores=[core])
    cores = []
    indices = []
    for i in range(k):
        cores.append(_compute_core(M.summand(i), n))
        indices.append(i)
    src_factors = [f for core in cores for f in core.invariant_factors]
    # lcm kills every summand, so Z/lcm is exact and stays small where the
    # product of the factors would overflow int64
    glue = cokernel_mod(np.diag(np.array(src_factors, dtype=np.int64)), lcm(*src_factors))
    return CohomologyGroup(G, M, n, glue.factors, _cores=cores,
                           _summand_indices=indices, _glue=glue)


# ---------------------------------------------------------------------------
# functoriality

@dataclass(frozen=True)
class ModuleMap:
    """mu: M -> M' over a group map phi: G' -> G, with
    mu(phi(g') . m) = g' . mu(m)."""

    group_map: GroupHom
    source: GModule
    target: GModule
    matrix: tuple[tuple[int, ...], ...]

    def validate(self) -> None:
        phi = self.group_map
        if self.source.group.mul != phi.target.mul:
            raise CohomologyError("source module must live over the map's target group")
        if self.target.group.mul != phi.source.mul:
            raise CohomologyError("target module must live over the map's source group")
        kd, ks = self.target.rank, self.source.rank
        mat = self.matrix
        if len(mat) != kd or any(len(r) != ks for r in mat):
            raise CohomologyError("module map matrix has wrong shape")
        dt = self.target.invariant_factors
        ds = self.source.invariant_factors
        for i in range(kd):
            for j in range(ks):
                if (mat[i][j] * ds[j]) % dt[i]:
                    raise CohomologyError("module map not well defined")
        if kd == 0 or ks == 0:
            return
        mu = np.array(mat, dtype=np.int64)
        for gp in range(phi.source.order):
            left = mu @ np.array(self.source.action[phi(gp)], dtype=np.int64)
            right = np.array(self.target.action[gp], dtype=np.int64) @ mu
            for i in range(kd):
                for j in range(ks):
                    if (int(left[i, j]) - int(right[i, j])) % dt[i]:
                        raise CohomologyError("module map is not equivariant")


def pullback_cochain(mm: ModuleMap, z: Cochain) -> Cochain:
    """z'(g'_1..g'_n) = mu(z(phi g'_1, ..., phi g'_n))."""
    phi = mm.group_map
    n = z.degree
    Gp = phi.source
    kd = mm.target.rank
    out = np.zeros((Gp.order,) * n + (kd,), dtype=np.int64)
    if kd and mm.source.rank:
        mu = np.array(mm.matrix, dtype=np.int64)
        images = np.array(phi.images, dtype=np.int64)
        idx = np.indices((Gp.order,) * n)
        src = z.table[tuple(images[ix] for ix in idx)]
        out = np.einsum("ij,...j->...i", mu, src)
    c = Cochain(mm.target, n, out)
    Gp_id = Gp.identity
    for axis in range(n):
        sl = [slice(None)] * n
        sl[axis] = Gp_id
        c.table[tuple(sl)] = 0
    return c


def map_on_cohomology(mm: ModuleMap, source_h: CohomologyGroup,
                      target_h: CohomologyGroup, coords) -> tuple[int, ...]:
    """Induced map on classes (inflation, restriction, coefficient maps)."""
    mm.validate()
    z = source_h.lift(coords)
    return target_h.class_of(pullback_cochain(mm, z))


def inclusion_module_map(phi: GroupHom, M: GModule) -> ModuleMap:
    """Restrict the module along phi with mu = identity (restriction maps)."""
    k = M.rank
    restricted = GModule(phi.source, M.invariant_factors,
                         tuple(M.action[phi(g)] for g in range(phi.source.order)))
    eye = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    return ModuleMap(group_map=phi, source=M, target=restricted, matrix=eye)


# ---------------------------------------------------------------------------
# cyclic reference generator and the degree-3 periodic invariant

def cyclic_unit_module(s: int, ell: int, unit: int = 1) -> GModule:
    """Z/ell as a C_s-module where the canonical generator acts by ``unit``."""
    G = cyclic(s)
    if ell == 1:
        return GModule(G, (), tuple(() for _ in range(s)))
    unit %= ell
    if pow(unit, s, ell) != 1 % ell:
        raise CohomologyError("unit^s must be 1 mod ell")
    acts = tuple(((pow(unit, a, ell),),) for a in range(s))
    return GModule(G, (ell,), acts)


def cyclic_reference_generator(s: int, ell: int, unit: int = 1) -> Cochain:
    """A normalized 3-cocycle on C_s with values in (Z/ell, action by unit).

    Built by pushing the canonical degree-3 generator of the period-2
    resolution through an explicit chain map to the bar resolution:
        xi(t^a, t^b, t^c) = [b+c >= s] * (1 + u + ... + u^(a-1)) * alpha,
    with alpha = ell / gcd(1 + u + ... + u^(s-1), ell) the canonical generator
    of the kernel of the norm.  For the trivial action the class has exact
    order gcd(ell, s).
    """
    M = cyclic_unit_module(s, ell, unit)
    if ell == 1:
        return zero_cochain(M, 3)
    u = unit % ell
    norm = sum(pow(u, i, ell) for i in range(s)) % ell
    alpha = ell // gcd(norm, ell)
    if alpha == ell:
        return zero_cochain(M, 3)
    table = np.zeros((s, s, s, 1), dtype=np.int64)
    geo = [0] * s  # geo[a] = 1 + u + ... + u^(a-1)
    for a in range(1, s):
        geo[a] = (geo[a - 1] + pow(u, a - 1, ell)) % ell
    for a in range(s):
        for b in range(s):
            for c in range(s):
                if b + c >= s:
                    table[a, b, c, 0] = (alpha * geo[a]) % ell
    return Cochain(M, 3, table)


def cyclic_h3_invariant(z: Cochain) -> int:
    """I(z) = sum_i z(t, t^i, t) in Z/ell: the period-map image of a 3-cocycle.

    For a cocycle z on C_s with coefficients (Z/ell, generator acting by u),
    I descends to an isomorphism H^3 = ker(norm)/im(u-1); two cocycles are
    cohomologous iff their invariants differ by a multiple of gcd(u-1, ell).
    """
    M = z.module
    if z.degree != 3:
        raise CohomologyError("invariant is for 3-cochains")
    if M.rank != 1:
        raise CohomologyError("invariant needs a rank-1 module")
    s = M.group.order
    ell = M.invariant_factors[0]
    t = 1 % s
    total = 0
    for i in range(s):
        total += int(z.table[t, i, t, 0])
    return total % ell


def cyclic_h3_values(module: GModule) -> tuple[int, int]:
    """(ker-generator alpha, im-generator g1) for H^3 = ker(norm)/im(u-1)."""
    s = module.group.order
    ell = module.invariant_factors[0] if module.rank else 1
    if ell == 1:
        return 0, 1
    u = int(module.action[1 % s][0][0]) % ell if s > 1 else 1
    norm = sum(pow(u, i, ell) for i in range(s)) % ell
    alpha = ell // gcd(norm, ell)
    g1 = gcd(u - 1, ell)
    return alpha % ell, g1 if g1 else ell


def cyclic_h3_equal(z1: Cochain, z2: Cochain) -> bool:
    """Class equality in H^3(C_s, Z/ell) via the periodic invariant."""
    if z1.module.invariant_factors != z2.module.invariant_factors:
        raise CohomologyError("modules differ")
    ell = z1.module.invariant_factors[0] if z1.module.rank else 1
    if ell == 1:
        return True
    for z in (z1, z2):
        w = is_cocycle(z)
        if w is not None:
            raise NotACocycle(w)
    _, g1 = cyclic_h3_values(z1.module)
    diff = (cyclic_h3_invariant(z1) - cyclic_h3_invariant(z2)) % ell
    return diff % g1 == 0


def cyclic_h3_class_order(z: Cochain) -> int:
    """Order of [z] in H^3(C_s, Z/ell)."""
    ell = z.module.invariant_factors[0] if z.module.rank else 1
    if ell == 1:
        return 1
    w = is_cocycle(z)
    if w is not None:
        raise NotACocycle(w)
    _, g1 = cyclic_h3_values(z.module)
    inv = cyclic_h3_invariant(z) % g1
    return g1 // gcd(inv, g1) if inv else 1


def coboundary_preimage(H: CohomologyGroup, z: Cochain) -> Optional[Cochain]:
    """A cochain c with dc = z, or None when [z] != 0.

    Solves the coboundary linear system over Z/m in the same scaled free model
    used by ``cohomology``.  In degree 0 it always returns None: there are no
    (-1)-cochains.
    """
    H._check(z)
    M = H.module
    n = H.degree
    if n == 0:
        return None
    if M.rank == 0:
        return zero_cochain(M, n - 1)
    if H._summand_indices is not None:
        out = zero_cochain(M, n - 1)
        for core, i in zip(H._cores, H._summand_indices):
            sub = Cochain(core.module, n, z.table[..., i:i + 1].copy())
            subH = CohomologyGroup(H.group, core.module, n,
                                   core.invariant_factors, _cores=[core])
            pre = coboundary_preimage(subH, sub)
            if pre is None:
                return None
            out.table[..., i] = pre.table[..., 0]
        out._reduce_inplace()
        return out
    core = H._cores[0]
    m = core.m
    G = M.group
    k = M.rank
    d = np.array(M.invariant_factors, dtype=np.int64)
    prev = _Indexer(G, n - 1, k)
    dprev = _coboundary_matrix(M, n - 1, m)
    scales = np.array([m // d[i % k] for i in range(prev.count)], dtype=np.int64)
    bmat = (dprev * scales[None, :]) % m
    target = _reduced_from_cochain(z, core.indexer, m)
    sol = diagonalize_mod(bmat, m).solve(target)
    if sol is None:
        return None
    c = _cochain_from_reduced((sol * scales) % m, M, prev, m)
    assert np.array_equal(coboundary(c).table, z.table)
    return c
