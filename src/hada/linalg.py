"""Exact linear algebra over the rationals.

Thin frontend over the integer row-reduction kernels in
``hada._elim``.

Rows are sequences of Python ints; callers scale rational rows to
integer rows first (row scaling does not change rank, kernel or
echelon form).  The kernels copy their input, so rows are never
mutated.
"""

from . import _elim


def backend_name():
    """Name of the elimination core, kept in every CLI report."""
    return "python"


def rank_of(rows, ncols):
    return _elim.rank(rows, ncols)


def rref_of(rows, ncols):
    return _elim.rref(rows, ncols)


def kernel_basis(rows, ncols):
    """Primitive integer kernel basis, deterministically ordered."""
    return _elim.nullspace(rows, ncols)


def det_of(rows):
    return _elim.det(rows)
