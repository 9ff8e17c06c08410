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
its first component, and the degree ladder in ``hada.ideals`` reads the
pivots.  ``rref`` is ``echelon`` followed by a back substitution that
clears above every pivot, last pivot first.  It needs no second guard:
each row it builds is, up to its content, a vector of minors of the
echelon rows, which the guard or Bareiss already keep polynomially
sized (``_back_substitute`` gives the argument; Nakos, Turner &
Williams, SIGSAM Bull. 31, 1997, for the fraction-free background).
Its result is the unique primitive-integer RREF with positive pivots,
whichever path ``echelon`` took.  ``nullspace`` needs only one column of
it per free column: it back-substitutes that column alone through the
echelon rows, and the vector it builds stays primitive, so it is the
primitive RREF kernel vector itself and its entries are bounded as
``rref``'s are.

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
the rest.  It packs each vector into one integer of fixed-width slots,
so that a reduction step is a shift, a mask and one multiply-add of
integers instead of a loop over the entries, and takes every slot mod p
at once by folding; its docstring bounds the slots (Dumas, Fousse &
Salvy, J. Symbolic Comput. 46, 2011, pack GF(p) entries the same way).
Unlike exact rows of 300-bit entries, these entries stay below 2**62,
so packing removes the per-entry interpreter work.  Full-rank matrices
with wide entries are common here: the evaluation matrix that confirms
HF(tau + 1) = |X| in ``hada.ideals`` (Moeller & Buchberger, 1982, use
the same lower bound by reduction).
The degree ladder there adds evaluation columns to a ``ModBasis`` to
find HF mod p, a lower bound, and the multiples of its exact forms to
others, to bound HF from above and to count generators by the same
inequality, exact when a rank reaches the rows or the columns; no
answer rests on the prime alone.  ``ModBasis.solve`` writes a vector
of its span as a combination of the vectors it kept, which gives the
kernel mod p of the columns the ladder's pass rejected or never added,
in the ladder's column order.  ``ModBasis.pivots`` lists the entry at
which each kept vector has its pivot; for the ladder's columns these are
points, and ``hada.ideals`` shows that the rows of E_t at the pivots of
its first HF(t) kept columns are independent.

``det`` is Bareiss elimination on a square matrix.  ``hada.linalg`` is
the frontend every other module calls.
"""

from bisect import bisect_left
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
    added.  A kept vector is stored reduced, zero before its pivot (its
    first nonzero entry) and scaled to 1 there; it is zero at the pivots
    of the vectors kept before it, so one pass over the basis in order
    reduces a new vector.  ``pivots`` lists the pivot of each kept
    vector, in the order kept.

    Each vector is held as one integer of k slots of W bits, entry i in
    bits i*W .. (i + 1)*W - 1, with W = 64 * ceil((2s + 1 + b) / 64), s
    the bit size of p and b that of k.  A row is stored negated, each
    entry in [0, p), so a reduction step is one shift and mask for the
    multiplier c (the slot at the row's pivot, taken mod p) and one
    multiply-add of c times the stored row: no slot is ever negative.
    An entry starts below p and gains less than p**2 per step, and at
    most k rows are stored, so it stays below p + k * p**2 < 2**W and no
    slot carries into the next.  The entries are taken mod p once at the
    end, all slots at once, by folding: with p = 2**s - c,
    hi * 2**s + lo = hi * c + lo mod p, which lowers every slot that has
    a bit at s or above and carries into none, until all are below
    2**s; one comparison with p, made by adding c, finishes.  For the
    Mersenne prime c = 1 and at most three folds are made; the loop
    needs no special form of p, so a smaller prime patched in by the
    tests is reduced the same way, with more folds.

    Each kept vector also keeps the multipliers of its reduction and the
    inverse of its pivot, so ``solve`` can write a vector of the span as
    a combination of the kept vectors, in the order they were kept.
    """

    __slots__ = ("pivots", "_rows", "_steps", "_layout")

    def __init__(self):
        self.pivots = []
        self._rows = []
        self._steps = []
        self._layout = None

    def __len__(self):
        return len(self._rows)

    def _packing(self, k):
        """The prime and the packed layout for vectors of k entries: the
        slot width, a one in each slot, and the low s bits and the rest of
        each slot as masks."""
        p = _PRIME
        s = p.bit_length()
        width = -(-(2 * s + 1 + k.bit_length()) // 64) * 64
        ones = int.from_bytes((b"\x01" + bytes(width // 8 - 1)) * k, "little")
        low = ones * ((1 << s) - 1)
        high = ones * ((1 << (width - s)) - 1)
        self._layout = p, s, (1 << s) - p, width, ones, low, high
        return self._layout

    def _fold(self, v):
        """The packed vector with every slot reduced mod p."""
        p, s, c, _, ones, low, high = self._layout
        while True:
            hi = (v >> s) & high
            if not hi:
                break
            v = (v & low) + hi * c
        # a slot below 2**s is at least p exactly when adding c carries it
        # into bit s
        return v - (((v + ones * c) >> s) & ones) * p

    def _reduce(self, vector):
        """The vector, packed and reduced by the basis, with slots not yet
        taken mod p, and the multiplier of each stored row."""
        p, _, _, width, *_ = self._layout or self._packing(len(vector))
        size = width // 8
        v = int.from_bytes(b"".join([(x % p).to_bytes(size, "little") for x in vector]), "little")
        mask = (1 << width) - 1
        multipliers = []
        for shift, row in self._rows:
            c = ((v >> shift) & mask) % p
            multipliers.append(c)
            if c:
                v += c * row
        return v, multipliers

    def add(self, vector) -> bool:
        """Keep the vector if it is independent of the basis mod p;
        return whether it was kept."""
        v, multipliers = self._reduce(vector)
        v = self._fold(v)
        if not v:
            return False
        p, _, _, width, *_ = self._layout
        j = ((v & -v).bit_length() - 1) // width
        inv = pow((v >> (j * width)) & ((1 << width) - 1), -1, p)
        self.pivots.append(j)
        self._rows.append((j * width, self._fold(v * (p - inv))))
        self._steps.append((inv, multipliers))
        return True

    def solve(self, vector):
        """Coefficients a_i, one per kept vector w_i in the order kept,
        with vector = sum of a_i * w_i mod p; the vector must lie in the
        span.

        It reduces to sum of c_i * row_i, and row i was kept as
        inv_i * (w_i - sum over h < i of m_ih * row_h), with m_ih the
        multipliers of its own reduction.  So the last row's coefficient
        gives a_i = c_i * inv_i, and a_i * m_ih moves onto each earlier
        row.  Its kernel vector, with -a_i at w_i and 1 at the vector, is
        the one relation among the kept vectors and it.
        """
        coeffs = self._reduce(vector)[1]
        p = self._layout[0]
        for i in range(len(coeffs) - 1, -1, -1):
            inv, multipliers = self._steps[i]
            a = coeffs[i] = coeffs[i] * inv % p
            if a:
                coeffs[:i] = [(x - a * m) % p for x, m in zip(coeffs, multipliers)]
        return coeffs


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

    One basis vector per free column f, ordered by f: the kernel vector
    that is zero at every other free column and positive at f, made
    primitive.  The pivot columns are independent, so it is unique: it
    is the RREF kernel vector, whichever path ``echelon`` took.  It is
    read off the echelon rows by back substitution alone, from the last
    pivot left of f to the first, with no ``rref`` of the whole matrix.
    Row i, with pivot entry p, fixes the entry at its pivot from the sum
    s of its other terms: when p does not divide s the vector is scaled
    by p / g, g = gcd(s, p), and the entry is -s / g.  The vector stays
    primitive: the part right of the pivot is a multiple of the last
    (primitive) vector, p / g is the least factor that keeps the entry
    an integer, and gcd(s / g, p / g) = 1.  An empty matrix yields the
    standard basis.
    """
    _, pivots, rows = echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = 1
        for i in range(bisect_left(pivots, f) - 1, -1, -1):
            row, c = rows[i], pivots[i]
            s = sum(x * y for x, y in zip(row[c + 1 : f + 1], v[c + 1 : f + 1]))
            if s:
                p = row[c]
                g = gcd(s, p)
                if p != g:
                    v[c + 1 : f + 1] = [x * (p // g) for x in v[c + 1 : f + 1]]
                v[c] = -s // g
        basis.append(tuple(-x for x in v) if v[f] < 0 else tuple(v))
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
