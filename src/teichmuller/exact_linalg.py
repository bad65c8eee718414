"""Finite abelian groups presented by integer relations, in invariant-factor form.

A finite abelian group of known order is a quotient of Z^n by a relation
lattice that contains order * Z^n, so it equals (Z/order)^n modulo the same
relations; ``modlinalg.cokernel_mod`` gives its invariant factors, coordinates
and lifts.  ``groups.abelian_presentation`` presents table groups through
``abelian_quotient``.
"""

from __future__ import annotations

from .modlinalg import ModCokernel, cokernel_mod


def abelian_quotient(relations, order: int) -> ModCokernel:
    """Present Z^n / (column span of ``relations``), a group of ``order`` elements.

    ``relations`` is an integer array with n rows and one column per relator.
    Raises ValueError, naming both orders, when the relations do not present
    a group of ``order`` elements modulo ``order``.
    """
    cok = cokernel_mod(relations, order)
    if cok.order != order:
        raise ValueError(f"relations present a group of order {cok.order} modulo {order}, "
                         f"not one of order {order}")
    return cok
