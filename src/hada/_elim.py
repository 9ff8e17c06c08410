"""Integer row-reduction kernels: the single elimination core.

Every matrix here is a dense list of rows of Python ints; arbitrary
precision comes for free.  Two elimination strategies are combined:

* the primary path eliminates fraction-free and divides rows by their
  content.  On the structured matrices this package produces
  (monomial evaluations, coordinatewise products) the content is
  enormous and entries stay small, but on adversarial dense input the
  growth can be exponential, so the path aborts once an entry
  outgrows a bound derived from the Bareiss minor estimate.  A row
  with entry q under a pivot p becomes row_i*(p/g) - (q/g)*row_r with
  g = gcd(p, q), not row_i*p - q*row_r.  A row is divided by its
  content when it becomes the pivot row, when an update has more than
  doubled its largest bit size since its last division (grown it by
  half, if that division removed more than a quarter of its bits), and
  before the guard gives up on it; other updates leave the content in.
  Each row kept this way is a positive integer multiple of the
  primitive row that dividing after every full-multiplier update would
  keep: g > 0, and positive multiples of the pivot row and of the row
  itself give a positive multiple of the result.  So every pivot row,
  once divided, is that primitive row, sign included, and so are the
  returned rows.  The guard gives up only on a divided row, which is
  that primitive row, and a multiple within the bound has its
  primitive row within it, so its decisions are the same too.  Only
  the factors multiplied and the number of content gcds are smaller.
  The growth rule is needed on dense input, where the content one
  update adds is about the previous pivot (the Bareiss identity), so
  rows divided only at pivot time carry it compounded; a row with
  that much content is divided sooner (Bareiss, Math. Comp. 22, 1968,
  for the fraction-free background);
* the fallback is one-step fraction-free (Bareiss) elimination, whose
  entries are minors of the input and hence polynomially sized.

There is one forward pass.  ``echelon`` runs the primary path and, if
the guard trips, the fallback on the same input; rank and pivots do not
depend on the path taken, the echelon rows do.  ``rank`` falls back on
its first component, and the degree ladder in ``hada.ideals`` reads all
three.  ``rref`` is ``echelon`` followed by a back substitution that
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
rank-deficient matrix both passes would be paid for.  It walks the
vectors along the longer side (rows of a tall matrix, columns of a
wide one) into a ``ModBasis``, the one GF(p) routine here: an echelon
basis that reduces each vector mod p only when it is added, so the
walk stops at min(nrows, ncols) independent vectors without touching
the rest.  Full-rank matrices with wide entries are common here: the
evaluation matrix that confirms HF(tau + 1) = |X| in ``hada.ideals``,
and there a generator count's span (Moeller & Buchberger, 1982, use
the same lower bound by reduction).
The degree ladder there also adds evaluation columns to a ``ModBasis``
to choose the one degree it eliminates exactly; the choice decides no
answer, since every value it reports comes from that exact
elimination.  Its generator counts add remainders of shifted kernel
vectors to a ``ModBasis``: each independent one raises a lower bound
on the rank of a span, the same inequality again.

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


def _bits(row):
    """Largest bit size of an entry of the row (0 for a zero row)."""
    return max(max(row).bit_length(), min(row).bit_length())


def _growth_limit(m, ncols):
    """Bit size beyond which the content-division path gives up.

    Bareiss intermediates are minors, so their Hadamard bound (with
    slack) separates harmless growth from the exponential regime.
    """
    maxbits = max([1] + [_bits(row) for row in m if row])
    steps = min(len(m), ncols)
    return 2 * steps * (maxbits + ncols.bit_length() + 2) + 64


def _echelon_gcd(m, ncols, limit):
    nrows = len(m)
    # the bit size at which each row is next divided by its content; the
    # input rows are primitive
    due = [2 * _bits(row) if row else 0 for row in m]
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
            due[r], due[piv] = due[piv], due[r]
        row_r = m[r]
        _reduce_row(row_r)
        p = row_r[c]
        tail_r = row_r[c:]
        for i in range(r + 1, nrows):
            row_i = m[i]
            q = row_i[c]
            if q:
                g = gcd(p, q)
                a, b = p // g, q // g
                tail = [x * a - b * y for x, y in zip(row_i[c:], tail_r)]
                row_i[c:] = tail
                bits = _bits(tail)
                if bits > limit or bits > due[i]:
                    g = gcd(*tail)
                    left = bits
                    if g > 1:
                        tail = row_i[c:] = [x // g for x in tail]
                        left = _bits(tail)
                    if left > limit:
                        return None
                    # a row whose content was more than a quarter of its
                    # bits is divided again when it has grown by half
                    due[i] = 2 * left if 4 * (bits - left) <= bits else 3 * left // 2
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


class ModBasis:
    """Echelon basis of a growing subspace of GF(p)^k, p = ``_PRIME``.

    Vectors are added one at a time and reduced modulo p only when
    added.  A kept vector is stored from its pivot, its first nonzero
    entry, on, scaled to 1 there; it is zero at the pivots of the vectors
    kept before it, so one pass over the basis in order reduces a new
    vector.  The pass reduces only each multiplier mod p and takes the
    entries mod p once at the end: an entry starts below p, and each of
    the k stored rows subtracts less than p**2, so it stays below
    (k + 1) * p**2 in absolute value.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []

    def __len__(self):
        return len(self.rows)

    def add(self, vector) -> bool:
        """Keep the vector if it is independent of the basis mod p;
        return whether it was kept."""
        p = _PRIME
        v = [x % p for x in vector]
        for j, tail in self.rows:
            c = v[j] % p
            if c:
                v[j:] = [x - c * y for x, y in zip(v[j:], tail)]
        v = [x % p for x in v]
        j = next((j for j, x in enumerate(v) if x), -1)
        if j < 0:
            return False
        inv = pow(v[j], -1, p)
        self.rows.append((j, [x * inv % p for x in v[j:]]))
        return True


def _full_rank_mod_prime(rows, ncols):
    """True when the matrix has rank min(nrows, ncols) modulo ``_PRIME``.

    Walks the vectors along the longer side (the rows of a tall matrix,
    the columns of a wide one) into a ``ModBasis``; it stops at
    min(nrows, ncols) independent vectors, or as soon as the vectors
    left cannot reach that many.
    """
    nrows = len(rows)
    target = min(nrows, ncols)
    vectors = rows if nrows >= ncols else zip(*rows)
    slack = max(nrows, ncols) - target
    basis = ModBasis()
    for v in vectors:
        if len(basis) == target:
            break
        if not basis.add(v):
            slack -= 1
            if slack < 0:
                return False
    return len(basis) == target


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
    its content after every update.

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
