"""Exact linear algebra over the rationals.

Thin frontend over the integer row-reduction kernels in
``hada._elim``.

Rows may contain ints or Fractions; they are cleared to primitive
integer rows before reduction (row scaling does not change rank,
kernel or echelon form).
"""

from fractions import Fraction
from math import gcd

from . import _elim


def backend_name():
    """Name of the elimination core, kept in every CLI report."""
    return "python"


def clear_row(row):
    """Scale a row of ints/Fractions to a primitive integer row."""
    fracs = [x if isinstance(x, Fraction) else Fraction(x) for x in row]
    lcm = 1
    for f in fracs:
        d = f.denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for x in ints:
        if x:
            g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return ints


def _int_rows(rows):
    out = []
    for row in rows:
        if all(isinstance(x, int) for x in row):
            out.append(list(row))
        else:
            out.append(clear_row(row))
    return out


def rank_of(rows, ncols):
    if not rows:
        return 0
    return _elim.rank(_int_rows(rows), ncols)


def echelon_of(rows, ncols):
    """Forward echelon form ``(rank, pivots, rows)``; see ``_elim.echelon``."""
    return _elim.echelon(_int_rows(rows), ncols)


def rref_of(rows, ncols):
    return _elim.rref(_int_rows(rows), ncols)


def kernel_basis(rows, ncols):
    """Primitive integer kernel basis, deterministically ordered."""
    return _elim.nullspace(_int_rows(rows), ncols)


def det_of(rows):
    if not rows:
        return 1
    if any(not isinstance(x, int) for row in rows for x in row):
        # Clearing rows scales the determinant; only its vanishing is
        # preserved, which is all callers of the Fraction path need.
        raise TypeError("det_of requires integer rows; scale first")
    return _elim.det([list(r) for r in rows])
