"""Integer row-reduction kernels: the single elimination core.

Every matrix here is a dense list of rows of Python ints; arbitrary
precision comes for free.  Two elimination strategies are combined:

* the primary path eliminates fraction-free and divides every updated
  row by its content.  On the structured matrices this package
  produces (monomial evaluations, coordinatewise products) the content
  is enormous and entries stay small, but on adversarial dense input
  the growth can be exponential, so the path aborts once an entry
  outgrows a bound derived from the Bareiss minor estimate.  A row
  with entry q under a pivot p becomes row_i*(p/g) - (q/g)*row_r with
  g = gcd(p, q), not row_i*p - q*row_r: since g > 0 that is the
  full-multiplier row divided by g, so after the content division the
  row is the same, sign included, and so are every later step, the
  guard's decisions and the output.  Only the factors multiplied are
  smaller (Bareiss, Math. Comp. 22, 1968, for the fraction-free
  background);
* the fallback is one-step fraction-free (Bareiss) elimination, whose
  entries are minors of the input and hence polynomially sized.

There is one forward pass.  ``echelon`` runs the primary path and, if
the guard trips, the fallback on the same input; rank and pivots do not
depend on the path taken, the echelon rows do.  ``rank`` falls back on
its first component, and the per-degree ladder in ``hada.ideals`` reads
all three.  ``rref`` is ``echelon`` followed by a back substitution that
clears above every pivot, last pivot first.  It needs no second guard:
each row it builds is, up to its content, a vector of minors of the
echelon rows, which the guard or Bareiss already keep polynomially
sized (``_back_substitute`` gives the argument; Nakos, Turner &
Williams, SIGSAM Bull. 31, 1997, for the fraction-free background).
Its result is the unique primitive-integer RREF with positive pivots,
whichever path ``echelon`` took, and ``nullspace`` reads its kernel
basis off that form.

``rank`` first tries a modular certificate.  Reducing the entries mod
the prime p = 2**61 - 1 is a ring map, so the rank mod p is at most the
rank over Q, which is at most min(nrows, ncols).  When the rank mod p
reaches min(nrows, ncols) it is therefore the exact rank; otherwise
``rank`` runs ``echelon`` unchanged (growth guard and Bareiss fallback
included).  The certificate is tried only when some entry is at least
p in absolute value: below that, reduction shrinks no entry, and on a
rank-deficient matrix both passes would be paid for.  Full-rank
matrices with wide entries are common here: the evaluation matrix
that confirms HF(tau + 1) = |X| and the span matrices of the generator
count in ``hada.ideals`` (Moeller & Buchberger, 1982, use the same
lower bound by reduction).

``det`` is Bareiss elimination on a square matrix.  ``hada.linalg`` is
the frontend every other module calls.
"""

from math import gcd

# the modulus of the rank certificate in ``rank``, a Mersenne prime
_PRIME = (1 << 61) - 1


def _primitive(row):
    """The row divided by the gcd of its entries, as a new list."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def _primitive_rows(rows):
    return [_primitive(row) for row in rows]


def _reduce_row(row):
    """Divide the row by the gcd of its entries, in place."""
    g = gcd(*row)
    if g > 1:
        row[:] = [x // g for x in row]


def _growth_limit(m, ncols):
    """Bit size beyond which the content-division path gives up.

    Bareiss intermediates are minors, so their Hadamard bound (with
    slack) separates harmless growth from the exponential regime.
    """
    maxbits = 1
    for row in m:
        for x in row:
            if x:
                b = x.bit_length()
                if b > maxbits:
                    maxbits = b
    steps = min(len(m), ncols)
    return 2 * steps * (maxbits + ncols.bit_length() + 2) + 64


def _row_within(row, bound):
    """True when every entry is below ``bound`` = 2**limit in absolute
    value, i.e. has at most ``limit`` bits."""
    return -bound < min(row) and max(row) < bound


def _echelon_gcd(m, ncols, limit):
    nrows = len(m)
    bound = 1 << limit
    pivots = []
    r = 0
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        p = row_r[c]
        tail_r = row_r[c:]
        for i in range(r + 1, nrows):
            row_i = m[i]
            q = row_i[c]
            if q:
                g = gcd(p, q)
                a, b = p // g, q // g
                row_i[c:] = [x * a - b * y for x, y in zip(row_i[c:], tail_r)]
                _reduce_row(row_i)
                if not _row_within(row_i, bound):
                    return None
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def _echelon_bareiss(m, ncols):
    nrows = len(m)
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        p = row_r[c]
        for i in range(r + 1, nrows):
            row_i = m[i]
            q = row_i[c]
            if q:
                for j in range(c, ncols):
                    row_i[j] = (row_i[j] * p - q * row_r[j]) // prev
            elif p != prev:
                # zero-multiplier rows still need the generation
                # scaling or later divisions stop being exact
                for j in range(c, ncols):
                    row_i[j] = row_i[j] * p // prev
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def echelon(rows, ncols):
    """Forward (row) echelon form of an integer matrix.

    Returns ``(rank, pivots, rows)`` where ``rows`` holds the ``rank``
    nonzero rows, each zero left of its pivot column ``pivots[i]``.
    Rank and pivots do not depend on the path taken; the rows span the
    row space but, unlike ``rref``, are not a canonical form.
    """
    m = _primitive_rows(rows)
    attempt = _echelon_gcd([list(r) for r in m], ncols, _growth_limit(m, ncols))
    if attempt is None:
        attempt = _echelon_bareiss(m, ncols)
    r, pivots, work = attempt
    return r, pivots, work[:r]


def _has_wide_entry(rows):
    """True when some entry is at least ``_PRIME`` in absolute value."""
    return any(max(row) >= _PRIME or min(row) <= -_PRIME for row in rows if row)


def _full_rank_mod_prime(rows, ncols):
    """True when the matrix has rank min(nrows, ncols) modulo ``_PRIME``.

    Forward elimination over GF(p); it gives up as soon as more columns
    lack a pivot than that rank leaves room for.
    """
    p = _PRIME
    m = [[x % p for x in row] for row in rows]
    nrows = len(m)
    target = min(nrows, ncols)
    slack = ncols - target
    r = 0
    for c in range(ncols):
        if r == target:
            break
        piv = -1
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv < 0:
            slack -= 1
            if slack < 0:
                return False
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        inv = pow(row_r[c], -1, p)
        tail_r = [x * inv % p for x in row_r[c + 1 :]]
        for i in range(r + 1, nrows):
            row_i = m[i]
            q = row_i[c]
            if q:
                row_i[c + 1 :] = [(x - q * y) % p for x, y in zip(row_i[c + 1 :], tail_r)]
        r += 1
    return r == target


def rank(rows, ncols):
    """Exact rank of an integer matrix.

    Certified modulo ``_PRIME`` when some entry is that wide and the
    matrix has full rank; otherwise by fraction-free elimination.
    """
    if _has_wide_entry(rows) and _full_rank_mod_prime(rows, ncols):
        return min(len(rows), ncols)
    return echelon(rows, ncols)[0]


def _back_substitute(rows, pivots):
    """Primitive reduced rows, as tuples, from echelon rows.

    The rows are made primitive, then cleared above every pivot from
    the last to the first; each pivot entry is made positive first.
    A row update divides its multipliers by gcd(p, q) and the row by
    its content, as in ``_echelon_gcd``.

    No growth guard is needed.  When row k is used it is already
    reduced, so after the update each row i above it is, up to scale,
    the unique vector of span(row_i, rows k..r-1) that vanishes at
    pivots k..r-1.  By Cramer's rule its entries are minors of the
    echelon rows, and after the content division they are at most
    those minors.  The echelon rows are bounded by the growth guard
    or are themselves minors of the input (Bareiss), so the entries
    stay polynomially sized.
    """
    m = _primitive_rows(rows)
    for k in range(len(pivots) - 1, -1, -1):
        row_k = m[k]
        c = pivots[k]
        if row_k[c] < 0:
            row_k[:] = [-x for x in row_k]
        p = row_k[c]
        for i in range(k):
            row_i = m[i]
            q = row_i[c]
            if q:
                g = gcd(p, q)
                a, b = p // g, q // g
                row_i[:] = [x * a - b * y for x, y in zip(row_i, row_k)]
                _reduce_row(row_i)
    return [tuple(row) for row in m]


def rref(rows, ncols):
    """Primitive-integer reduced row echelon form.

    Returns ``(rank, pivots, reduced)`` where ``reduced`` holds the
    nonzero rows as tuples: primitive, positive pivot entry, zeros
    above and below every pivot.  This form is unique, so it does not
    depend on the path ``echelon`` took.
    """
    r, pivots, rows = echelon(rows, ncols)
    return r, pivots, _back_substitute(rows, pivots)


def nullspace(rows, ncols):
    """Primitive integer basis of the right kernel.

    One basis vector per free column, ordered by free column index;
    the free-column entry of each vector is positive.  An empty matrix
    yields the standard basis.
    """
    rk, pivots, red = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    lcm_piv = 1
    for i in range(rk):
        p = red[i][pivots[i]]
        lcm_piv = lcm_piv * p // gcd(lcm_piv, p)
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = lcm_piv
        for i in range(rk):
            entry = red[i][f]
            if entry:
                v[pivots[i]] = -entry * (lcm_piv // red[i][pivots[i]])
        basis.append(tuple(_primitive(v)))
    return basis


def det(rows):
    """Determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = -1
            for i in range(k + 1, n):
                if m[i][k]:
                    piv = i
                    break
            if piv < 0:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pk = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - mik * m[k][j]) // prev
            row_i[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]
