"""The normalized bar complex: H^n(G, M) on it, kept as a test oracle, and
the bar-model helpers it needs.

The package computes cohomology on a free resolution held by the group; this
is the elimination it replaced: the degree-n bar differential, with its
(|G| - 1)^n columns per module coordinate, taken apart over Z/m.  Bar cochains
enter and leave it through the scaled free (Z/m) model, coordinate i scaled by
m/d_i (``_reduced_from_cochain``, ``_cochain_from_reduced``), and the
differential is the package's one dense matrix on that model
(``bar_coboundary_matrix``).  Use it for |G| <= 8 and degrees <= 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from teichmuller.gmod_cohomology import (
    Cochain,
    CohomologyError,
    CohomologyGroup,
    GModule,
    _bar_positions,
    bar_coboundary_matrix,
)
from teichmuller.modlinalg import (
    ModCokernel,
    ModDiagonalization,
    cokernel_mod,
    diagonalize_mod,
    solve_matrix_mod,
)


def _reduced_from_cochain(c: Cochain, m: int) -> np.ndarray:
    """Embed a normalized cochain into the free (Z/m) model (scaled coords)."""
    scale = m // np.array(c.module.invariant_factors, dtype=np.int64)
    values = c.table.reshape(-1, c.module.rank)[_bar_positions(c.module.group, c.degree)]
    return (values * scale % m).reshape(-1)


def _cochain_from_reduced(v: np.ndarray, module: GModule, n: int, m: int) -> Cochain:
    scale = m // np.array(module.invariant_factors, dtype=np.int64)
    x = (np.asarray(v, dtype=np.int64) % m).reshape(-1, module.rank)
    if (x % scale).any():
        raise CohomologyError("vector does not lie in the embedded cochain group")
    table = np.zeros((module.group.order ** n, module.rank), dtype=np.int64)
    table[_bar_positions(module.group, n)] = x // scale
    return Cochain(module, n, table.reshape((module.group.order,) * n + (module.rank,)))


@dataclass
class BarCore:
    module: GModule
    degree: int
    m: int
    cocycle_gens: np.ndarray           # columns span the embedded cocycle module
    gens_diag: ModDiagonalization
    cok: ModCokernel

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.cok.factors

    def class_vectors(self, tables) -> list[tuple[int, ...]]:
        out = []
        for table in tables:
            v = _reduced_from_cochain(Cochain(self.module, self.degree, table), self.m)
            coeff = self.gens_diag.solve(v)
            if coeff is None:
                raise CohomologyError("cocycle does not lie in the computed kernel")
            out.append(self.cok.coords(coeff))
        return out

    def generator(self, coords) -> Cochain:
        coeff = self.cok.lift(coords)
        v = (self.cocycle_gens @ coeff) % self.m
        return _cochain_from_reduced(v, self.module, self.degree, self.m)


def bar_core(module: GModule, n: int) -> BarCore:
    G = module.group
    k = module.rank
    d = np.array(module.invariant_factors, dtype=np.int64)
    m = module.exponent
    count = (G.order - 1) ** n * k
    dmat = bar_coboundary_matrix(module, n)
    moduli = np.tile(d, count // k) % m
    stacked = np.vstack([dmat, np.diag(moduli)[moduli != 0]])
    kernel = diagonalize_mod(stacked, m, want_U=False).kernel()
    if kernel.size == 0:
        kernel = np.zeros((count, 0), dtype=np.int64)
    if n == 0:
        bmat = np.zeros((count, 0), dtype=np.int64)
    else:
        scales = np.tile(m // d, (G.order - 1) ** (n - 1))
        bmat = (bar_coboundary_matrix(module, n - 1) * scales[None, :]) % m
    gens_diag = diagonalize_mod(kernel, m, want_inverses=False)
    X = solve_matrix_mod(gens_diag, bmat)
    assert X is not None, "coboundaries escaped the cocycle module"
    R = gens_diag.kernel()
    rel = np.hstack([R, X]) if R.size else X
    if rel.size == 0:
        rel = np.zeros((kernel.shape[1], 0), dtype=np.int64)
    cok = cokernel_mod(rel, m, n=kernel.shape[1])
    return BarCore(module=module, degree=n, m=m, cocycle_gens=kernel, gens_diag=gens_diag, cok=cok)


def coboundary_loop(c: Cochain) -> Cochain:
    """The normalized bar differential of c, one argument tuple at a time:
    g_1.c(g_2..) + sum_i (-1)^i c(.., g_i g_{i+1}, ..) + (-1)^(n+1) c(..g_n),
    zero on tuples with an identity argument."""
    M, n = c.module, c.degree
    G = M.group
    acts = M.matrices
    out = np.zeros((G.order,) * (n + 1) + (M.rank,), dtype=np.int64)
    for args in itertools.product(range(G.order), repeat=n + 1):
        if G.identity in args:
            continue
        total = acts[args[0]] @ c.table[args[1:]]
        for i in range(1, n + 1):
            merged = args[:i - 1] + (G.mul[args[i - 1]][args[i]],) + args[i + 1:]
            total = total + (-1) ** i * c.table[merged]
        out[args] = total + (-1) ** (n + 1) * c.table[args[:n]]
    return Cochain(M, n + 1, out)


def bar_cohomology(module: GModule, n: int) -> CohomologyGroup:
    """H^n(G, M) with ``class_of`` and ``lift`` on the bar complex."""
    core = bar_core(module, n)
    return CohomologyGroup(module.group, module, n, core.invariant_factors, _core=core)
