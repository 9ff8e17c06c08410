"""Integer row-reduction kernels: the single elimination core.

Every matrix here is a dense list of rows of Python ints; arbitrary
precision comes for free.

``echelon`` eliminates fraction-free and divides rows by their
content.  On the structured matrices this package produces (monomial
evaluations, coordinatewise products) the content is enormous and
entries stay small.  A row with entry q under a pivot p becomes
row_i*(p/g) - (q/g)*row_r with g = gcd(p, q), not row_i*p - q*row_r.
A row is divided by its content when it becomes the pivot row and
when an update has more than doubled its largest bit size since its
last division (grown it by half, if that division removed more than a
quarter of its bits); other updates leave the content in.  Each row
kept this way is a positive integer multiple of the primitive row that
dividing after every full-multiplier update would keep: g > 0, and
positive multiples of the pivot row and of the row itself give a
positive multiple of the result.  So every pivot row, once divided, is
that primitive row, sign included, and so are the returned rows.  Only
the factors multiplied and the number of content gcds are smaller.
The growth rule is needed on dense input, where the content one update
adds is about the previous pivot (the Bareiss identity), so rows
divided only at pivot time carry it compounded; a row with that much
content is divided sooner.

No growth guard is needed, even on adversarial dense input:

1. Take row i after its updates by the first k pivots.  It is a
   nonzero rational multiple of the row that one-step fraction-free
   (Bareiss) elimination of the primitive input holds at the same
   step: both choose the same pivots and apply the same updates up to
   scale.  The Bareiss row's entries are s x s minors of the primitive
   input, with s = k + 1 <= min(nrows, ncols) (Bareiss, Math. Comp. 22,
   1968); this is the Cramer argument ``_back_substitute`` gives.
2. A row divided by its content is primitive, so its entries are at
   most those minors.  With maxbits the largest entry bit size of the
   primitive input, Hadamard's bound gives a divided row a bit size of
   at most s*(maxbits + log2(s)/2) + 1.  Every returned row k is such a
   row, with s = k + 1.
3. A row is divided once it holds more than twice the bits it held at
   its last division (or as input), or sooner, so between divisions it
   holds at most that plus one update, and growth stays polynomial.

There is one forward pass.  ``rank`` falls back on the first component
of ``echelon``, and ``hada.ideals`` reads the rank and pivots of the
coordinate matrix of a point set, to find its linear span.
``rref`` is ``echelon`` followed by a back substitution that clears
above every pivot, last pivot first.  It needs no guard either: each
row it builds is, up to its content, a vector of minors of the echelon
rows, which the bound above keeps polynomially sized
(``_back_substitute`` gives the argument; Nakos, Turner & Williams,
SIGSAM Bull. 31, 1997, for the fraction-free background).  Its result
is the unique primitive-integer RREF with positive pivots.
``nullspace`` needs only one column of it per free column: it
back-substitutes that column alone through the echelon rows, and the
vector it builds stays primitive, so it is the primitive RREF kernel
vector itself and its entries are bounded as ``rref``'s are.

``rank`` first tries a modular certificate.  Reducing the entries mod
the prime p = 2**61 - 1 is a ring map, so the rank mod p is at most the
rank over Q, which is at most min(nrows, ncols).  When the rank mod p
reaches min(nrows, ncols) it is therefore the exact rank; otherwise
``rank`` runs ``echelon`` unchanged.  The certificate is tried only
when some entry is at least p in absolute value: below that, reduction
shrinks no entry, and on a rank-deficient matrix both passes would be
paid for.  It walks the
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
answer rests on the prime alone.  ``ModBasis.solve`` gives the
relation of a vector of its span to the vectors it kept, which gives
the kernel mod p of the columns the ladder's pass rejected or never
added, in the ladder's column order.  ``ModBasis.pivots`` lists the
entry at which each kept vector has its pivot; for the ladder's columns
these are points, and ``hada.ideals`` shows that the rows of E_t at the
pivots of its first HF(t) kept columns are independent.  When the prime
cannot decide, the ladder runs the same pass on an ``ExactBasis``, with
the same ``add``, ``pivots``, ``solve`` and ``len`` over Q: fraction-free
in integers, with ``echelon``'s growth rule, each kept vector carrying
the coefficients that make it a combination of the vectors given, so
that ``solve`` returns an exact relation.  Its ``scale`` multiplies the
rows by a diagonal matrix, as the ladder's columns over Z need when the
degree grows.

``det`` is Bareiss elimination on a square matrix.  ``hada.linalg`` is
the frontend for ranks, kernels, RREFs and determinants, which
``plane``, ``space``, ``sampling`` and ``ideals`` call.  ``hada.ideals``
also calls ``nullspace``, ``ModBasis``, ``ExactBasis``, ``_primitive``
and the span certificate ``_full_rank_mod_prime`` here directly, for
its degree ladder.
"""

from bisect import bisect_left
from math import gcd
from operator import mul

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


def _echelon_gcd(m, ncols):
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
                if bits > due[i]:
                    g = gcd(*tail)
                    left = bits
                    if g > 1:
                        tail = row_i[c:] = [x // g for x in tail]
                        left = _bits(tail)
                    # a row whose content was more than a quarter of its
                    # bits is divided again when it has grown by half
                    due[i] = 2 * left if 4 * (bits - left) <= bits else 3 * left // 2
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


def echelon(rows, ncols):
    """Forward (row) echelon form of an integer matrix.

    Returns ``(rank, pivots, rows)`` where ``rows`` holds the ``rank``
    nonzero rows, each primitive and zero left of its pivot column
    ``pivots[i]``.  The rows span the row space but, unlike ``rref``,
    are not a canonical form.
    """
    r, pivots, m = _echelon_gcd(_primitive_rows(rows), ncols)
    return r, pivots, m[:r]


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
        """The relation of a vector of the span to the kept vectors w_i:
        one entry r_i per w_i in the order kept, then 1 for the vector,
        with sum of r_i * w_i + vector = 0 mod p.

        The vector reduces to sum of c_i * row_i, and row i was kept as
        inv_i * (w_i - sum over h < i of m_ih * row_h), with m_ih the
        multipliers of its own reduction.  So the vector is sum of
        a_i * w_i: the last row's coefficient gives a_i = c_i * inv_i, and
        a_i * m_ih moves onto each earlier row; r_i = -a_i.
        """
        coeffs = self._reduce(vector)[1]
        p = self._layout[0]
        for i in range(len(coeffs) - 1, -1, -1):
            inv, multipliers = self._steps[i]
            a = coeffs[i] = coeffs[i] * inv % p
            if a:
                coeffs[:i] = [(x - a * m) % p for x, m in zip(coeffs, multipliers)]
        return [-a % p for a in coeffs] + [1]


class ExactBasis:
    """Echelon basis over Q of a growing set of integer vectors, in
    integers: ``ModBasis`` without the prime, with the same ``add``,
    ``pivots``, ``solve`` and ``len``.

    Each kept vector w_i of k entries is stored as one list: a row of k
    entries, zero at the pivots of the rows kept before it, its pivot its
    first nonzero entry, followed by integers c_i0 .. c_ii with row =
    sum of c_ij * w_j.  A vector v, with the coefficient 1 at itself, is
    reduced by the rows in order, fraction-free: where v has the entry b
    at the pivot of a row whose pivot entry is a, v and its coefficients
    become (a/g) times themselves minus (b/g) times the row's,
    g = gcd(a, b).  One pass over row i's list updates v and its
    coefficients at w_0 .. w_i; those at w_(i+1) and beyond are still 0,
    so only the coefficient at v itself is multiplied apart.  As in
    ``echelon``, v and its coefficients are divided by their content
    once an update has doubled their largest bit size since the last
    division, and a kept row and a relation are divided when made.
    What is left of v is zero exactly when v lies in the span, and its
    coefficients are then the relation ``solve`` returns.

    ``scale`` multiplies the k entries of every stored row by
    D = diag(``factors``): each row is then the same combination of its
    vectors multiplied by D, and a vector given afterwards must be too.
    """

    __slots__ = ("pivots", "_rows")

    def __init__(self):
        self.pivots = []
        self._rows = []

    def __len__(self):
        return len(self._rows)

    def _reduce(self, vector):
        """The vector reduced by the rows, followed by its coefficients at
        the kept vectors, and its coefficient at itself."""
        v, own = list(vector) + [0] * len(self._rows), 1
        due = 2 * _bits(v)
        for j, row in zip(self.pivots, self._rows):
            if v[j]:
                g = gcd(row[j], v[j])
                a, b = row[j] // g, v[j] // g
                v[: len(row)] = [a * x - b * y for x, y in zip(v, row)]
                own *= a
                if _bits(v) > due:
                    g = gcd(own, *v)
                    v, own = [x // g for x in v], own // g
                    due = 2 * _bits(v)
        return v, own

    def add(self, vector) -> bool:
        """Keep the vector if it is independent of the basis; return
        whether it was kept."""
        v, own = self._reduce(vector)
        j = next((j for j, x in zip(range(len(vector)), v) if x), None)
        if j is None:
            return False
        self.pivots.append(j)
        self._rows.append(_primitive(v + [own]))
        return True

    def solve(self, vector):
        """The relation of a vector of the span to the kept vectors w_i:
        one integer r_i per w_i in the order kept, then r > 0 for the
        vector, primitive, with sum of r_i * w_i + r * vector = 0."""
        v, own = self._reduce(vector)
        relation = _primitive(v[len(vector) :] + [own])
        return relation if own > 0 else [-x for x in relation]

    def scale(self, factors):
        """Multiply the leading entries of every stored row by
        D = diag(``factors``)."""
        k = len(factors)
        self._rows = [list(map(mul, row, factors)) + row[k:] for row in self._rows]


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
    """Primitive reduced rows, as tuples, from primitive echelon rows.

    The rows are copied, then cleared above every pivot from the last
    to the first; each pivot entry is made positive first.  A row
    update divides its multipliers by gcd(p, q) and the row by its
    content after every update.

    No growth guard is needed.  When row k is used it is already
    reduced, so after the update each row i above it is, up to scale,
    the unique vector of span(row_i, rows k..r-1) that vanishes at
    pivots k..r-1.  By Cramer's rule its entries are minors of the
    echelon rows, and after the content division they are at most
    those minors.  The echelon rows are bounded by minors of the input
    (the module docstring gives the bound), so the entries stay
    polynomially sized.
    """
    m = [list(row) for row in rows]
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
    above and below every pivot.  This form is unique.
    """
    r, pivots, rows = echelon(rows, ncols)
    return r, pivots, _back_substitute(rows, pivots)


def nullspace(rows, ncols):
    """Primitive integer basis of the right kernel.

    One basis vector per free column f, ordered by f: the kernel vector
    that is zero at every other free column and positive at f, made
    primitive.  The pivot columns are independent, so it is unique: it
    is the RREF kernel vector.  It is read off the echelon rows by back
    substitution alone, from the last pivot left of f to the first, with
    no ``rref`` of the whole matrix.
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
