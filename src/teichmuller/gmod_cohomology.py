"""Group cohomology H^n(G, M) of a finite group with coefficients in a finite
abelian G-module, computed on a free resolution held by the group.

A GModule stores the coefficient group in invariant-factor coordinates
(M = Z/d_1 + ... + Z/d_k, d_1 | d_2 | ...) and its action as one table, the
read-only int64 array ``matrices`` of shape (|G|, k, k); a ModuleMap holds its
matrix as one read-only array too.  Both compare and hash by their entries.
``gmodule_of_action`` builds the module of a permutation action on an abelian
table group with one gather.  Callers see normalized bar cochains: dense
integer tables indexed by full tuples of group elements, zero whenever an
argument is the identity.

Underneath, H^n is the cohomology of Hom_G(F, M) = M^{r_n}, where F is a free
Z/m[G]-resolution of Z/m (m = d_k) that G builds one degree at a time and
holds per modulus (``free_resolution``).  F_{n+1} is generated by the kernel
of d_n, taking generators outside the radical (g - 1)K + pK first, which gives
the minimal resolution of a p-group, and folding any kernel element still
missing into an existing generator before adding one.  Two chain maps per
degree compare F with the normalized bar resolution B: Phi: F -> B through the
bar complex's contracting homotopy, and Psi: B -> F through one
multi-right-hand-side solve against d_n; a chain homotopy s with
Phi Psi - 1 = ds + sd is built from the same contracting homotopy (Ellis,
"Computing group resolutions", 2004).  ``class_of`` pulls a bar cocycle back along Phi,
``lift`` pushes a class along Psi, and ``coboundary_preimage`` solves the
coboundary system of F and corrects the pushed solution by s, so nothing ever
eliminates the bar complex itself, with its (|G| - 1)^n columns.

The normalized bar complex is described here once: ``_bar_positions`` lists
the symbols [g_1|...|g_n], every g_i != 1, by flat table positions,
``_bar_symbols`` reads a position back as a symbol, and ``_bar_terms`` lists
the faces of d, which ``coboundary``, the cocycle checks, ``FreeResolution.psi``
and ``bar_coboundary_matrix`` read.  The last is d on the free (Z/m)-module
that the cochains embed in by scaling coordinate i with m/d_i, as the kernel
and image linear algebra runs over Z/m (modlinalg); ``crossed_pairs``
eliminates it in degree 1, and no other module reads the private helpers.

For cyclic groups there is also a direct degree-3 class invariant obtained by
pushing cocycles through the comparison maps between the bar resolution and
the period-2 resolution; it identifies classes in H^3(C_s, Z/l) in O(s) time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm, prod
from typing import Optional, Sequence

import numpy as np

from .groups import (FiniteGroup, GroupHom, _ByEntries, _tuple_view, abelian_presentation,
                     coordinate_elements, cyclic, same_group)
from .modlinalg import (
    CELL_BUDGET,
    BudgetExceeded,
    Holder,
    ModCokernel,
    ModDiagonalization,
    check_cells,
    cokernel_mod,
    diagonalize_mod,
    first_nonmultiplicative_pair,
    held,
    hold_arrays,
    pivot_columns_mod_p,
    prime_factors,
    solve_matrix_mod,
)


class CohomologyError(ValueError):
    pass


class NotACocycle(CohomologyError):
    def __init__(self, witness):
        super().__init__(f"cocycle identity fails at {witness}")
        self.witness = witness


@dataclass(frozen=True, eq=False)
class GModule(_ByEntries, Holder):
    """Finite abelian group in invariant-factor coordinates with a G-action.

    ``matrices``, given as an array or a nested sequence, is the action's one
    table, a read-only int64 array of shape (|G|, k, k): matrices[g] acts on
    coordinate vectors, row i taken mod invariant_factors[i].  ``factors``
    holds the invariant factors as an array of shape (k,), outside equality,
    hashing and the repr; ``_held`` keeps ``action``, a nested-tuple view of
    ``matrices`` for readers outside the package, and its ``_tilde_matrix``.
    """

    group: FiniteGroup
    invariant_factors: tuple[int, ...]
    matrices: np.ndarray = field(repr=False)
    factors: np.ndarray = field(init=False, repr=False, compare=False)
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a:
                raise CohomologyError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.invariant_factors):
            raise CohomologyError("invariant factors must be >= 2")
        if len(self.matrices) != self.group.order:
            raise CohomologyError("need one action matrix per group element")
        # an action matrix on a vector, and each entry of a bar coboundary,
        # sum up to k (m - 1)^2 + (MAX_DEGREE + 1)(m - 1) in absolute value
        m, k = self.exponent, self.rank
        if k * (m - 1) ** 2 + (MAX_DEGREE + 1) * (m - 1) >= 1 << 63:
            raise CohomologyError(f"modulus m={m} at rank {k} overflows int64 arithmetic")
        want = (self.group.order, k, k)
        acts = _as_table(self.matrices, want, "the action")
        if acts.shape != want:
            raise CohomologyError(f"the action must have shape {want}, not {acts.shape}")
        hold_arrays(self, matrices=acts, factors=self.invariant_factors)

    @property
    def action(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return held(self, "action", lambda: _tuple_view(self.matrices))

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def reduce(self, vec) -> tuple[int, ...]:
        return tuple(int(x) % d for x, d in zip(vec, self.invariant_factors))

    def act(self, g: int, vec) -> tuple[int, ...]:
        return self.reduce(self.matrices[g] @ np.asarray(vec, dtype=np.int64))

    def validate(self) -> None:
        k = self.rank
        G = self.group
        acts, rows = self.matrices, self.factors[:, None]
        if ((acts * rows.T) % rows).any():
            raise CohomologyError("action matrix not well defined on the module")
        if ((acts[G.identity] - np.eye(k, dtype=np.int64)) % rows).any():
            raise CohomologyError("identity must act as the identity matrix")
        # homomorphism, row i taken mod d_i.  No action map needs its own
        # invertibility check: action(g^-1) action(g) = action(1) = 1 on M.
        if k:
            pair = first_nonmultiplicative_pair(acts, G, rows)
            if pair is not None:
                raise CohomologyError(f"action is not a homomorphism at {pair}")


def _as_table(value, want: tuple, what: str) -> np.ndarray:
    """value as an int64 array, shaped ``want`` when both are empty; CohomologyError if ragged."""
    try:
        arr = np.asarray(value, dtype=np.int64)
    except ValueError:
        raise CohomologyError(f"{what} must have shape {want}, not a ragged table") from None
    return arr.reshape(want) if arr.size == 0 == prod(want) else arr


def trivial_gmodule(G: FiniteGroup, factors: Sequence[int]) -> GModule:
    factors = tuple(int(d) for d in factors)
    eye = np.eye(len(factors), dtype=np.int64)
    return GModule(G, factors, np.broadcast_to(eye, (G.order,) + eye.shape))


def gmodule_of_action(G: FiniteGroup, M: FiniteGroup, perms) -> GModule:
    """The abelian table group M as a G-module, with g sending m to perms[g, m]
    (a (|G|, |M|) array), in the coordinates of ``abelian_presentation(M)``:
    column i of matrices[g] holds the coordinates of g applied to the i-th
    unit-coordinate element, all read with one gather."""
    factors, coords, _, _ = abelian_presentation(M)
    basis = coordinate_elements(M, np.eye(len(factors), dtype=np.int64))
    return GModule(G, factors, coords[np.asarray(perms)[:, basis]].transpose(0, 2, 1))


def _tilde_matrix(module: GModule) -> np.ndarray:
    """The action matrices rescaled to act on the free (Z/m) model, m the
    exponent, held by the module."""
    def build():
        num, rows = module.matrices * module.factors, module.factors[:, None]
        if (num % rows).any():
            raise CohomologyError("action matrix not well defined on the module")
        return (num // rows) % module.exponent
    return held(module, "tilde", build)


@dataclass
class Cochain:
    """Normalized n-cochain: dense table of shape (|G|,)*n + (k,)."""

    module: GModule
    degree: int
    table: np.ndarray

    def __post_init__(self):
        want = (self.module.group.order,) * self.degree + (self.module.rank,)
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.shape != want:
            raise CohomologyError(f"cochain table must have shape {want}")
        self.table = np.mod(self.table, self.module.factors)

    def copy(self) -> "Cochain":
        return Cochain(self.module, self.degree, self.table.copy())

    def is_normalized(self) -> bool:
        return not any(np.moveaxis(self.table, axis, 0)[self.module.group.identity].any()
                       for axis in range(self.degree))

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
    pos = _bar_positions(G, degree)
    table = np.zeros((G.order ** degree, M.rank), dtype=np.int64)
    table[pos] = np.reshape([[rng.randrange(di) for di in M.invariant_factors] for _ in pos],
                            (len(pos), M.rank))
    return Cochain(M, degree, table.reshape((G.order,) * degree + (M.rank,)))


def coboundary(c: Cochain) -> Cochain:
    """Normalized bar-complex differential.

    (dc)(g_1..g_{n+1}) = g_1 . c(g_2..g_{n+1})
                         + sum_i (-1)^i c(.., g_i g_{i+1}, ..)
                         + (-1)^{n+1} c(g_1..g_n).
    """
    M, n, G = c.module, c.degree, c.module.group
    table = np.zeros((G.order ** (n + 1), M.rank), dtype=np.int64)
    if M.rank:
        table[_bar_terms(G, n)[0]] = _coboundaries(M, n, c.table[None])[0]
    return Cochain(M, n + 1, table.reshape((G.order,) * (n + 1) + (M.rank,)))


def _coboundaries(M: GModule, n: int, tables: np.ndarray) -> np.ndarray:
    """d of each n-cochain of a (count, |G|, .., |G|, k) stack, unreduced, at
    the (n+1)-tuples with no identity argument, where alone a normalized
    coboundary can be nonzero (``_bar_terms``)."""
    _, g1, faces, signs = _bar_terms(M.group, n)
    values = tables.reshape(len(tables), -1, M.rank)[:, faces]
    out = np.einsum("pij,cpj->cpi", M.matrices[g1], values[:, 0])
    out += np.einsum("f,cfpk->cpk", signs, values[:, 1:])
    return out


def _bar_terms(G: FiniteGroup, n: int):
    """For the (n+1)-tuples (g_1..g_{n+1}) with every g_i != 1, at their flat
    positions ``pos`` in a (|G|,)*(n+1) table, in order: g_1, and the flat
    index in (|G|,)*n of each face of d, (g_2..g_{n+1}) first, then
    (.., g_i g_{i+1}, ..) for i = 1..n, then (g_1..g_n).  Held by G per
    degree."""
    def build():
        pos = _bar_positions(G, n + 1)
        grids = np.array(np.unravel_index(pos, (G.order,) * (n + 1)))
        faces = [pos % G.order ** n]
        faces += [np.ravel_multi_index((*grids[:i - 1], G.table[grids[i - 1], grids[i]],
                                        *grids[i + 1:]), (G.order,) * n) for i in range(1, n + 1)]
        faces.append(pos // G.order)
        return pos, grids[0], np.array(faces).reshape(n + 2, len(pos)), (-1) ** np.arange(1, n + 2)
    return held(G, ("bar_terms", n), build)


def is_cocycle(c: Cochain) -> Optional[tuple]:
    """None when dc = 0; otherwise the first violated argument tuple."""
    failed = _first_failure(c.module, c.degree, c.table[None])
    return None if failed is None else failed[1]


def _first_failure(M: GModule, n: int, tables: np.ndarray) -> Optional[tuple[int, tuple]]:
    """(i, the first violated argument tuple of cochain i) for the first
    cochain i of a (count, |G|, .., |G|, k) stack that is not a cocycle, or
    None when all are."""
    if M.rank == 0 or not len(tables):
        return None
    d = _coboundaries(M, n, tables)
    d %= M.factors
    if not d.any():
        return None
    i, at = np.argwhere(d.any(axis=2))[0]
    pos = _bar_terms(M.group, n)[0][at]
    return int(i), tuple(int(g) for g in np.unravel_index(pos, (M.group.order,) * (n + 1)))


# ---------------------------------------------------------------------------
# normalized bar symbols

def _bar_positions(G: FiniteGroup, n: int) -> np.ndarray:
    """Flat positions in a (|G|,)*n table of the symbols [t_1|...|t_n] with
    every t_i != 1, in lexicographic order, held by G per degree."""
    def build():
        nonid = np.flatnonzero(np.arange(G.order) != G.identity)
        pos = np.zeros(1, dtype=np.int64)
        for _ in range(n):
            pos = (pos[:, None] * G.order + nonid).ravel()
        return pos
    return held(G, ("bar_positions", n), build)


def _bar_symbols(G: FiniteGroup, n: int) -> np.ndarray:
    """The symbol index, in the order of ``_bar_positions``, of each flat
    position in a (|G|,)*n table, and E^n (E = |G| - 1) at the positions with
    an identity argument, held by G per degree."""
    def build():
        index = np.full(G.order ** n, (G.order - 1) ** n, dtype=np.int64)
        index[_bar_positions(G, n)] = np.arange((G.order - 1) ** n)
        return index
    return held(G, ("bar_symbols", n), build)


def bar_coboundary_matrix(module: GModule, n: int) -> np.ndarray:
    """d^n on the scaled free (Z/m) model, m the exponent: the k x k block at
    row (s, i) and column (t, j) for each (n+1)-symbol s and n-symbol t, in the
    order of ``_bar_positions``, sums the faces of s equal to t (``_bar_terms``)."""
    G, k, m = module.group, module.rank, module.exponent
    E = G.order - 1
    _, g1, faces, signs = _bar_terms(G, n)
    cols, rows = _bar_symbols(G, n)[faces], np.arange(E ** (n + 1))
    # column E^n takes the degenerate faces
    out = np.zeros((E ** (n + 1), k, E ** n + 1, k), dtype=np.int64)
    out[rows, :, cols[0], :] = _tilde_matrix(module)[g1]
    for sign, col in zip(signs, cols[1:]):
        out[rows, :, col, :] += sign * np.eye(k, dtype=np.int64)
    return out[:, :, :E ** n].reshape(E ** (n + 1) * k, E ** n * k) % m


# ---------------------------------------------------------------------------
# the free Z/m[G]-resolution of Z/m held by each group

def _check_budget(what: str, rows: int, cols: int, m: int) -> None:
    check_cells(f"{what}: a {rows} x {cols} matrix over Z/{m}", rows * cols)


class FreeResolution:
    """A free resolution ... -> F_1 -> F_0 -> Z/m of Z/m over R = Z/m[G].

    F_n = R^{r_n}.  An element of F_n is an (r_n, |G|) array whose entry
    [j, g] is the coefficient of g e_j.  For n >= 1, ``diffs[n][j]`` is
    d(e_j) in F_{n-1}; ``diags[n]`` diagonalizes d_n as a Z/m-matrix from
    F_n to F_{n-1}.  ``phis[n]`` (r_n x E^n, E = |G| - 1) gives Phi(e_j) as a
    Z/m-combination of the normalized bar symbols [t_1|...|t_n], t_i != 1, in
    the order of ``_bar_positions``; ``psis[n]`` (E^n x r_n x |G|) gives
    Psi([t]) in F_n, from the faces of d[t] that ``_bar_terms`` lists for the
    group, which the resolution keeps; ``homotopies[n]`` (E^n x E^(n+1))
    gives s([t]) with Phi Psi - 1 = ds + sd on the bar resolution.  Each list
    grows one degree at a time, as far as a caller asks.

    d_(n+1) maps the generators of F_(n+1) onto K = ker d_n (the augmentation
    ideal for n = 0).  They start as the kernel columns that ``_radical_first``
    picks with ``pivot_columns_mod_p``, which for a p-group are all of K,
    minimally.  Otherwise each kernel column k still outside their R-span is
    folded into the first generator g_i for which g_i <- g_i + k spans
    strictly more (by ``image_size``), and is appended as a new generator
    only when no fold does.  Either step enlarges the span strictly, and the
    span lies in the finite K, so the search ends, exactly when every kernel
    column lies in the image.  Folding keeps the ranks near those of the
    projective covers: S3 over Z/3 gets 1, 2, 2, 1, 1, 2 where one generator
    per missing column gave 1, 2, ..., 6.
    """

    def __init__(self, G: FiniteGroup, m: int):
        N = G.order
        self.m = m
        self.order = N
        self.group = G
        # (h.x)[..., g] = x[..., shift[h, g]], since h^-1 g is where g came from
        self.shift = G.table[G.inverse]
        self.nonid = np.flatnonzero(np.arange(N) != G.identity)
        self.gens = G.minimal_generators()
        self.ranks = [1]
        self.diffs = [None]
        self.diags = [None]
        self.phis = [np.ones((1, 1), dtype=np.int64)]
        psi0 = np.zeros((1, 1, N), dtype=np.int64)
        psi0[0, 0, G.identity] = 1
        self.psis = [psi0]
        self.homotopies = [np.zeros((1, N - 1), dtype=np.int64)]

    def matrix(self, D: np.ndarray) -> np.ndarray:
        """The Z/m-matrix of the R-map e_j -> D[j] from R^{len(D)} to R^{r}:
        column (j, h) holds h.D[j]."""
        r_new, r_old, N = D.shape
        return D[:, :, self.shift].transpose(1, 3, 0, 2).reshape(r_old * N, r_new * N)

    def extend(self, top: int) -> None:
        """Build d_n for every n <= top."""
        while len(self.ranks) <= top:
            self._next_degree()

    def _next_degree(self) -> None:
        n, m, N = len(self.ranks) - 1, self.m, self.order
        r = self.ranks[n]
        if n:
            kernel = self.diags[n].kernel()      # columns generate K = ker d_n over Z/m
        else:
            # the augmentation ideal, with basis g - 1 for g != 1
            kernel = np.zeros((N, N - 1), dtype=np.int64)
            kernel[self.nonid, np.arange(N - 1)] = 1
            kernel[self.group.identity] = m - 1
        gens = kernel[:, self._radical_first(kernel, r, n)]
        diag = self._diagonalize(gens, r, n)
        # fold the first kernel column k outside the R-span into the first
        # generator g_i for which g_i <- g_i + k spans more, or append it when
        # none does: the span grows strictly at every step, so the loop ends,
        # and it ends exactly when the span is all of K
        while (outside := np.flatnonzero(~diag.in_image(kernel))).size:
            k = kernel[:, outside[0]]
            size = diag.image_size()
            for i in range(gens.shape[1]):
                folded = gens.copy()
                folded[:, i] = (folded[:, i] + k) % m
                folded_diag = self._diagonalize(folded, r, n)
                if folded_diag.image_size() > size:
                    gens, diag = folded, folded_diag
                    break
            else:
                gens = np.column_stack([gens, k])
                diag = self._diagonalize(gens, r, n)
        self.ranks.append(gens.shape[1])
        self.diffs.append(gens.T.reshape(gens.shape[1], r, N))
        self.diags.append(diag)

    def _diagonalize(self, gens: np.ndarray, r: int, n: int) -> ModDiagonalization:
        """The diagonalized Z/m-matrix of d_(n+1): e_j -> column j of gens in F_n."""
        M = self.matrix(gens.T.reshape(gens.shape[1], r, self.order))
        _check_budget(f"d_{n + 1}", *M.shape, self.m)
        return diagonalize_mod(M, self.m)

    def _radical_first(self, kernel: np.ndarray, r: int, n: int) -> list[int]:
        """Kernel columns whose classes span K/((g - 1)K + pK) over F_p, for
        each prime p | m in turn.

        K is a direct summand of F_n over Z/m, so K meets pF_n in pK, and the
        classes can be read mod p.  The columns taken for p are the pivot
        columns, over F_p, that follow the radical's columns (g - 1)K and the
        columns taken before, in one matrix of the budget's size.  For a
        p-group they generate K, minimally, and ``_next_degree`` folds nothing
        into them.  For any other group they are where the folding starts.
        """
        N, c = self.order, kernel.shape[1]
        _check_budget(f"generators of F_{n + 1}", r * N, c * (len(self.gens) + 1), self.m)
        K = kernel.reshape(r, N, c)
        radical = [(K[:, self.shift[g], :] - K).reshape(r * N, c) for g in self.gens]
        taken: list[int] = []
        for p in prime_factors(self.m):
            rest = [j for j in range(c) if j not in taken]
            base = len(radical) * c + len(taken)
            pivots = pivot_columns_mod_p(np.hstack(radical + [kernel[:, taken + rest]]), p)
            taken += [rest[i - base] for i in pivots if i >= base]
        return taken

    def phi(self, n: int) -> np.ndarray:
        """Phi(e_j) = s(Phi(d e_j)), with s(g[t]) = [g|t] the bar's contracting
        homotopy; Phi_{n-1} lives on the identity coefficients, so
        Phi_n[j, (g, t)] = sum_i d(e_j)[i, g] Phi_{n-1}[i, t] for g != 1."""
        E = len(self.nonid)
        while len(self.phis) <= n:
            k = len(self.phis)
            D = self.diffs[k][:, :, self.nonid]
            _check_budget(f"Phi_{k}", D.shape[0], E ** k, self.m)
            P = np.einsum("jig,it->jgt", D, self.phis[-1]).reshape(D.shape[0], E ** k)
            self.phis.append(P % self.m)
        return self.phis[n]

    def psi(self, n: int) -> np.ndarray:
        """Psi([t]) solves d_n y = Psi(d[t]), all symbols t in one solve."""
        E, N, m = len(self.nonid), self.order, self.m
        while len(self.psis) <= n:
            k = len(self.psis)
            prev = self.psis[-1]
            r = prev.shape[1]
            _check_budget(f"Psi_{k}", E ** k, max(r, self.ranks[k]) * N, m)
            # one zero row more stands for the degenerate symbols
            X = np.concatenate([prev, np.zeros((1, r, N), dtype=np.int64)])
            _, t1, faces, signs = _bar_terms(self.group, k - 1)
            faces = _bar_symbols(self.group, k - 1)[faces]
            rhs = X[faces[0][:, None, None], np.arange(r)[None, :, None],
                    self.shift[t1][:, None, :]]
            for sign, face in zip(signs, faces[1:]):
                rhs += sign * X[face]
            Y = solve_matrix_mod(self.diags[k], rhs.reshape(E ** k, r * N).T)
            if Y is None:
                raise CohomologyError("a bar cycle has no preimage in F (internal error)")
            self.psis.append(Y.T.reshape(E ** k, self.ranks[k], N))
        return self.psis[n]

    def homotopy(self, n: int) -> np.ndarray:
        """s([t]) = h(Phi Psi [t] - [t] - s(d[t])), with h(g[u]) = [g|u] the
        bar's contracting homotopy, which kills identity coefficients.  So
        s_0 = 0 and s_k = h(Phi_k Psi_k) - kron(I_E, s_(k-1)): h keeps only
        the first term t_1 [t_2|...|t_k] of d[t], and s is G-linear.  Every
        s_k has identity coefficients only; the largest, s_n, is checked
        against the budget first."""
        E = len(self.nonid)
        _check_budget(f"homotopy s_{n}", E ** n, E ** (n + 1), self.m)
        while len(self.homotopies) <= n:
            k = len(self.homotopies)
            h_phi_psi = np.einsum("tjg,ju->tgu", self.psi(k)[:, :, self.nonid], self.phi(k))
            S = h_phi_psi.reshape(E ** k, E ** (k + 1)) - np.kron(np.eye(E, dtype=np.int64),
                                                                  self.homotopies[-1])
            self.homotopies.append(S % self.m)
        return self.homotopies[n]


def free_resolution(G: FiniteGroup, m: int) -> FreeResolution:
    """The free Z/m[G]-resolution of Z/m that G holds, made on first use."""
    return held(G, ("free_resolution", m), lambda: FreeResolution(G, m))


@dataclass
class _CoreCohomology(Holder):
    """H^n of Hom_G(F, M) = M^{r_n} on the scaled free (Z/m) model, read and
    written through bar cochains."""

    module: GModule
    degree: int
    m: int
    resolution: FreeResolution
    cocycle_gens: np.ndarray           # columns span the embedded cocycle module
    gens_diag: ModDiagonalization
    cok: ModCokernel
    # the degree-n coboundary M^(r_(n-1)) -> M^(r_n): unscaled in, scaled out
    bmat: np.ndarray = field(repr=False)
    # built on first use: the bar cocycles lifted from the unit classes
    # (``generator``) and bmat diagonalized (``preimage``)
    _held: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.cok.factors

    def _pulled_back(self, tables: np.ndarray) -> np.ndarray:
        """z(Phi e_j) for every generator e_j of F_n, scaled, one column per
        cochain z of a (count, |G|, .., |G|, k) stack."""
        m, d, G = self.m, self.module.invariant_factors, self.module.group
        w = (self.resolution.phis[self.degree]
             @ tables.reshape(len(tables), -1, len(d))[:, _bar_positions(G, self.degree)]) % m
        return ((w * (m // np.array(d, dtype=np.int64))) % m).reshape(len(tables), -1).T

    def _along_psi(self, w: np.ndarray, deg: int) -> np.ndarray:
        """Bar tables (count, |G|^deg, k) of w_s(Psi[t]) = sum_(j, g)
        Psi[t][j, g] g.w_s(e_j), one per slice s of w (r_deg x k x count,
        unscaled) along its last axis."""
        M = self.module
        G, k = M.group, M.rank
        d = M.factors
        moved = np.einsum("gab,jbs->jgas", M.matrices, w) % d[:, None]
        values = np.einsum("ujg,jgas->sua", self.resolution.psis[deg], moved) % d
        tables = np.zeros((w.shape[2], G.order ** deg, k), dtype=np.int64)
        tables[:, _bar_positions(G, deg)] = values
        return tables

    def class_vectors(self, tables: np.ndarray) -> list[tuple[int, ...]]:
        """The class coordinates of each cocycle of a stack, in one solve."""
        coeff = self.gens_diag.solve(self._pulled_back(tables))
        if coeff is None:
            raise CohomologyError("cocycle does not lie in the computed kernel")
        return list(map(tuple, self.cok.coords(coeff).T.tolist()))

    def generator(self, coords) -> Cochain:
        coords = np.asarray(coords, dtype=np.int64)
        return Cochain(self.module, self.degree,
                       np.tensordot(coords, held(self, "lifts", self._bar_lifts), axes=1))

    def _bar_lifts(self) -> np.ndarray:
        """The cocycle w_s lifted from each unit class coordinate s, unscaled,
        pushed along Psi."""
        M, m, n, k = self.module, self.m, self.degree, self.module.rank
        d = M.factors
        t = len(self.cok.factors)
        coeffs = np.array([self.cok.lift(u) for u in np.eye(t, dtype=np.int64)],
                          dtype=np.int64).reshape(t, self.cocycle_gens.shape[1])
        w = ((self.cocycle_gens @ coeffs.T) % m).reshape(len(self.cocycle_gens) // k, k, t)
        w //= (m // d)[:, None]
        return self._along_psi(w, n).reshape((t,) + (M.group.order,) * n + (k,))

    def preimage(self, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For a stack of reduced cocycle tables z of degree n >= 1: which have
        [z] = 0, and a stack of unreduced tables b with db = z of those.

        z(Phi) = beta(d) for some beta on F_(n-1) exactly when [z] = 0; then
        b = beta(Psi) - z(s) has db = z(Phi Psi) - z(sd) = z, since
        Phi Psi - 1 = ds + sd and z(d) = 0."""
        M, n, k = self.module, self.degree, self.module.rank
        F = self.resolution
        s = F.homotopy(n - 1)
        bdiag = held(self, "bmat_diag", lambda: diagonalize_mod(self.bmat, self.m))
        pulled = self._pulled_back(tables)
        zero = bdiag.in_image(pulled)
        beta = bdiag.solve(pulled[:, zero])
        out = self._along_psi(beta.reshape(F.ranks[n - 1], k, -1), n - 1)
        values = tables[zero].reshape(len(out), M.group.order ** n, k)[:, _bar_positions(M.group, n)]
        out[:, _bar_positions(M.group, n - 1)] -= s @ values
        return zero, out.reshape((len(out),) + (M.group.order,) * (n - 1) + (k,))


def _compute_core(module: GModule, n: int) -> _CoreCohomology:
    G, k, m = module.group, module.rank, module.exponent
    d = module.factors
    F = free_resolution(G, m)
    F.extend(n + 1)
    tilde = _tilde_matrix(module)

    def coboundary_matrix(deg):
        # (delta w)(e_j) = w(d e_j) = sum_(i, g) d(e_j)[i, g] g.w(e_i)
        D = F.diffs[deg]
        return np.einsum("jig,gab->jaib", D, tilde).reshape(len(D) * k, D.shape[1] * k) % m

    r = F.ranks[n]
    count = r * k
    dmat = coboundary_matrix(n + 1)
    _check_budget(f"degree-{n} cocycles", len(dmat) + count, count, m)
    moduli = np.tile(d, r) % m
    # the rows with d_i = m are zero; they would never pivot or change
    stacked = np.vstack([dmat, np.diag(moduli)[moduli != 0]])
    kernel = diagonalize_mod(stacked, m, want_U=False).kernel()
    if kernel.size == 0:
        kernel = np.zeros((count, 0), dtype=np.int64)
    if n == 0:
        bmat = np.zeros((count, 0), dtype=np.int64)
    else:
        bmat = (coboundary_matrix(n) * np.tile(m // d, F.ranks[n - 1])[None, :]) % m
    gens_diag = diagonalize_mod(kernel, m, want_inverses=False)
    X = solve_matrix_mod(gens_diag, bmat)
    if X is None:
        raise CohomologyError("coboundaries escaped the cocycle module (internal error)")
    R = gens_diag.kernel()
    rel = np.hstack([R, X]) if R.size else X
    if rel.size == 0:
        rel = np.zeros((kernel.shape[1], 0), dtype=np.int64)
    cok = cokernel_mod(rel, m, n=kernel.shape[1])
    # the comparison maps of degree n, built (and checked against the budget)
    # now rather than at the first class_of or lift
    F.psi(n)
    F.phi(n)
    return _CoreCohomology(module=module, degree=n, m=m, resolution=F, cocycle_gens=kernel,
                           gens_diag=gens_diag, cok=cok, bmat=bmat)


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
    # the _CoreCohomology that reads and writes classes; None for rank 0
    _core: Optional[_CoreCohomology] = field(repr=False, default=None)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def class_of(self, z: Cochain) -> tuple[int, ...]:
        if z.degree != self.degree:
            raise CohomologyError("degree mismatch")
        if not same_group(z.module.group, self.group):
            raise CohomologyError("group mismatch")
        return self._classes(z.table[None])[0]

    def classes_of(self, tables) -> list[tuple[int, ...]]:
        """The class of each cocycle of a (count, |G|, .., |G|, k) stack of
        tables, with one coboundary check, one pull-back along Phi and one
        solve for the whole stack.  Raises NotACocycle, with the witness
        ``is_cocycle`` gives, at the first table that is not a cocycle."""
        shape = (self.group.order,) * self.degree + (self.module.rank,)
        tables = np.asarray(tables, dtype=np.int64)
        if tables.shape[1:] != shape:
            raise CohomologyError(f"cochain tables must have shape {shape}")
        return self._classes(np.mod(tables, self.module.factors))

    def _classes(self, tables: np.ndarray) -> list[tuple[int, ...]]:
        """``classes_of`` on a stack of reduced tables."""
        failed = _first_failure(self.module, self.degree, tables)
        if failed is not None:
            raise NotACocycle(failed[1])
        if self.module.rank == 0 or not len(tables):
            return [()] * len(tables)
        return self._core.class_vectors(tables)

    def generator(self, index: int) -> Cochain:
        return self.lift(np.eye(len(self.invariant_factors), dtype=np.int64)[index])

    def lift(self, coords) -> Cochain:
        if self.module.rank == 0:
            return zero_cochain(self.module, self.degree)
        return self._core.generator(coords)

    def lifts(self, classes) -> np.ndarray:
        """The tables of ``lift`` of each of a list of classes, as one stack."""
        t = len(self.invariant_factors)
        units = np.array([self.lift(u).table for u in np.eye(t, dtype=np.int64)], dtype=np.int64)
        units = units.reshape((t,) + (self.group.order,) * self.degree + (self.module.rank,))
        classes = np.array(classes, dtype=np.int64).reshape(len(classes), t)
        return np.tensordot(classes, units, axes=1) % self.module.factors

    def all_classes(self):
        """All coordinate tuples, lexicographic."""
        yield from itertools.product(*map(range, self.invariant_factors))

    def class_order(self, coords) -> int:
        return lcm(*(f // gcd(c, f) for c, f in zip(coords, self.invariant_factors)))


MAX_DEGREE = 4


def cohomology(G: FiniteGroup, M: GModule, n: int) -> CohomologyGroup:
    """H^n(G, M) on the free Z/m[G]-resolution of Z/m held by the module's group.

    The resolution, its differentials and its comparison maps with the bar
    complex are built once per group and modulus m, as far as the degree asks,
    and held (``free_resolution``).  H^n itself is built on the first call for
    a degree and module content (invariant factors and action) and held by the
    module's group too, so equal modules share one CohomologyGroup.  Every
    matrix is checked against ``modlinalg.CELL_BUDGET`` before it is built or
    eliminated, the smallest comparison map (E^n x |G|) before any work; a
    refused build holds nothing.  So no matrix has more than that many rows,
    and ``diagonalize_mod`` keeps rows (m - 1)^2 below 2^63: a modulus with
    CELL_BUDGET (m - 1)^2 >= 2^63 is refused before any elimination.
    """
    if not same_group(M.group, G):
        raise CohomologyError("module is not over the given group")
    if n < 0:
        raise CohomologyError("degree must be nonnegative")
    if n > MAX_DEGREE:
        raise BudgetExceeded(f"degree {n} exceeds the supported maximum {MAX_DEGREE}")
    def build():
        if M.rank == 0:
            return CohomologyGroup(G, M, n, ())
        m = M.exponent
        if CELL_BUDGET * (m - 1) ** 2 >= 1 << 63:
            raise CohomologyError(f"H^{n}: modulus m={m} at rank {M.rank} overflows int64 "
                                  f"elimination: CELL_BUDGET (m - 1)^2 >= 2^63")
        _check_budget(f"Psi_{n}", (G.order - 1) ** n, G.order, m)
        core = _compute_core(M, n)
        return CohomologyGroup(G, M, n, core.invariant_factors, _core=core)
    return held(M.group, ("cohomology", n, M.invariant_factors, M.matrices.tobytes()), build)


# ---------------------------------------------------------------------------
# functoriality

@dataclass(frozen=True, eq=False)
class ModuleMap(_ByEntries, Holder):
    """mu: M -> M' over a group map phi: G' -> G, with
    mu(phi(g') . m) = g' . mu(m).  ``matrix``, given as an array or a nested
    sequence, is held as one read-only int64 array, of shape (k', k) when valid."""

    group_map: GroupHom
    source: GModule
    target: GModule
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        hold_arrays(self, matrix=_as_table(self.matrix, (self.target.rank, self.source.rank),
                                           "module map matrix"))

    def validate(self) -> None:
        phi = self.group_map
        if not same_group(self.source.group, phi.target):
            raise CohomologyError("source module must live over the map's target group")
        if not same_group(self.target.group, phi.source):
            raise CohomologyError("target module must live over the map's source group")
        mu, rows = self.matrix, self.target.factors[:, None]
        if mu.shape != (self.target.rank, self.source.rank):
            raise CohomologyError(f"module map matrix has wrong shape {mu.shape}, "
                                  f"not {(self.target.rank, self.source.rank)}")
        if ((mu * self.source.factors) % rows).any():
            raise CohomologyError("module map not well defined")
        # mu(phi(g') . m) = g' . mu(m), row i taken mod the target's d_i
        if ((mu @ self.source.matrices[list(phi.images)] - self.target.matrices @ mu) % rows).any():
            raise CohomologyError("module map is not equivariant")


def pullback_cochain(mm: ModuleMap, z: Cochain) -> Cochain:
    """z'(g'_1..g'_n) = mu(z(phi g'_1, ..., phi g'_n))."""
    phi, n = mm.group_map, z.degree
    c = Cochain(mm.target, n, z.table[np.ix_(*[np.array(phi.images)] * n)] @ mm.matrix.T)
    for axis in range(n):
        np.moveaxis(c.table, axis, 0)[phi.source.identity] = 0
    return c


def map_on_cohomology(mm: ModuleMap, source_h: CohomologyGroup,
                      target_h: CohomologyGroup, coords) -> tuple[int, ...]:
    """Induced map on classes (inflation, restriction, coefficient maps)."""
    mm.validate()
    z = source_h.lift(coords)
    return target_h.class_of(pullback_cochain(mm, z))


def map_on_classes(mm: ModuleMap, source_h: CohomologyGroup,
                   target_h: CohomologyGroup) -> dict:
    """The induced map on every class of source_h, as {coords: image}.

    The map is a homomorphism, so it is read once, on the unit classes (one
    ``classes_of`` of their pulled-back lifts), and extended linearly; this
    equals ``map_on_cohomology`` class by class."""
    mm.validate()
    t, shape = len(source_h.invariant_factors), (mm.target.group.order,) * source_h.degree
    units = np.reshape([pullback_cochain(mm, source_h.generator(i)).table for i in range(t)],
                       (t,) + shape + (mm.target.rank,))
    rows = np.array(target_h.classes_of(units), dtype=np.int64).reshape(
        t, len(target_h.invariant_factors))
    classes = list(source_h.all_classes())
    images = np.array(classes, dtype=np.int64).reshape(len(classes), t) @ rows
    images %= np.array(target_h.invariant_factors, dtype=np.int64)
    return dict(zip(classes, map(tuple, images.tolist())))


def inclusion_module_map(phi: GroupHom, M: GModule) -> ModuleMap:
    """Restrict the module along phi with mu = identity (restriction maps)."""
    restricted = GModule(phi.source, M.invariant_factors, M.matrices[list(phi.images)])
    return ModuleMap(group_map=phi, source=M, target=restricted,
                     matrix=np.eye(M.rank, dtype=np.int64))


# ---------------------------------------------------------------------------
# cyclic reference generator and the degree-3 periodic invariant

def cyclic_unit_module(s: int, ell: int, unit: int = 1) -> GModule:
    """Z/ell as a C_s-module where the canonical generator acts by ``unit``."""
    G = cyclic(s)
    if ell == 1:
        return GModule(G, (), np.zeros((s, 0, 0), dtype=np.int64))
    unit %= ell
    if pow(unit, s, ell) != 1 % ell:
        raise CohomologyError("unit^s must be 1 mod ell")
    return GModule(G, (ell,), np.reshape([pow(unit, a, ell) for a in range(s)], (s, 1, 1)))


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
    alpha = cyclic_h3_values(M)[0]
    if not alpha:
        return zero_cochain(M, 3)
    # geo[a] = 1 + u + ... + u^(a-1)
    geo = np.cumsum([0] + [pow(unit % ell, a, ell) for a in range(s - 1)]) % ell
    carry = np.add.outer(np.arange(s), np.arange(s)) >= s    # [b, c]: b + c >= s
    table = (alpha * geo)[:, None, None, None] * carry[None, :, :, None] % ell
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
    t = 1 % M.group.order
    return int(z.table[t, :, t, 0].sum()) % M.invariant_factors[0]


def cyclic_h3_values(module: GModule) -> tuple[int, int]:
    """(ker-generator alpha, im-generator g1) for H^3 = ker(norm)/im(u-1)."""
    s = module.group.order
    ell = module.invariant_factors[0] if module.rank else 1
    if ell == 1:
        return 0, 1
    u = int(module.matrices[1 % s, 0, 0]) % ell
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


def coboundary_preimage(H: CohomologyGroup, z: Cochain) -> Optional[Cochain]:
    """A cochain c with dc = z, or None when [z] != 0.

    Solves the coboundary system of the held resolution one degree down,
    pushes the solution along Psi and corrects it by the chain homotopy s
    (``_CoreCohomology.preimage`` of one table).  In degree 0 it always
    returns None: there are no (-1)-cochains.  Raises BudgetExceeded before
    any elimination when s_(n-1), (|G| - 1)^(n-1) x (|G| - 1)^n cells,
    exceeds ``modlinalg.CELL_BUDGET``.
    """
    H.class_of(z)  # the degree, group and cocycle checks
    if H.degree == 0:
        return None
    if H.module.rank == 0:
        return zero_cochain(H.module, H.degree - 1)
    zero, tables = H._core.preimage(z.table[None])
    if not zero[0]:
        return None
    c = Cochain(H.module, H.degree - 1, tables[0])
    assert np.array_equal(coboundary(c).table, z.table)
    return c
