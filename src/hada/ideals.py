"""Hilbert functions and ideal invariants of finite point sets.

Everything reduces to exact linear algebra on evaluation matrices E_t,
the degree-t monomials evaluated at the points: HF(t) is the rank of
E_t and the degree-t part I_t of the vanishing ideal is its kernel.  No
Groebner machinery is involved; for finite point sets the evaluation
matrix is the definition.

Questions about a whole profile (``hilbert_profile``,
``generator_profile``, ``ci_verdict``, ``hf_product_check``) share one
per-set degree ladder, built in the linear span of the set.  A set X of
P^n whose coordinate matrix has rank r spans a linear space V of
dimension r - 1, cut out by n + 1 - r independent linear forms L.  The
r pivot columns of an echelon form of that matrix hold a triangular
block of full rank, so keeping only those coordinates maps V
isomorphically onto P^(r-1) and X onto a set X' that spans it.  Then
R/(L) is a polynomial ring in r variables, this isomorphism identifies
it with the coordinate ring of P^(r-1), and I_X = (L) + I' with I' the
ideal of X' lifted.  So R/I_X and the ring of X' in P^(r-1) are the
same graded ring (the coordinate ring of X does not depend on the
linear space it is embedded in; Eisenbud, *The Geometry of Syzygies*,
2005, ch. 4): HF, tau and every Z_t below are those of X'.  Its
minimal generators are the n + 1 - r linear forms L and lifts of the
minimal generators of I', which has no linear form because X' spans
P^(r-1); so the counts of X are those of X' plus n + 1 - r in degree 1.
Most sets span P^n, and a GF(p) certificate says so without an exact
elimination: rank mod p = n + 1 of the |X| x (n + 1) coordinate matrix
is at most the rank over Q.  Only when it fails is that small matrix
eliminated exactly, and a set that spans after all keeps every
coordinate.

The exact ladder is read off a single forward elimination (n, from
here on, is the dimension of the span):

* choose l = x0 + c*x1 + ... + c^n*xn with the least c >= 0 for which
  l vanishes at no point.  Each point rules out at most n values of c.
  Such an l is a nonzerodivisor on R/I, so R/I and its Artinian
  reduction R/(I, l) have the same graded Betti numbers (Eisenbud,
  *The Geometry of Syzygies*, 2005, ch. 4);
* change coordinates by the unimodular map x0 -> l, so that l is the
  first variable.  Monomials are in descending lex order, so the
  degree-d monomials fall into blocks t = 0 .. d, the monomials
  l^(d-t) * s with s a degree-t monomial of S = R/(l), a ring with one
  variable fewer.  With D = diag(l(p)) and S_t the degree-t monomials
  of S evaluated at (p1, ..., pn),
  E_d = [D^d * S_0 | D^(d-1) * S_1 | ... | S_d], and its leading
  C(t+n, n) columns are D^(d-t) * E_t, an invertible row scaling of
  E_t;
* so one forward echelon of E_d with d >= tau answers every degree up
  to d.  Pivots do not depend on later columns, and a row scaling keeps
  column dependencies, so HF(t) is the number of pivots left of column
  C(t+n, n), and tau is the least t where that number is |X|;
* the echelon rows whose pivot lies in block t, restricted to block
  t's columns, form a matrix Z_t whose kernel J_t is the image of I_t
  in S_t.  Its row space is the block-t part of the row vectors of E_d
  that vanish on blocks 0 .. t-1, which the scaling by D^(d-t) does not
  change, so the canonical kernel basis of J_t, the free columns of
  Z_t and every count below do not depend on d;
* minimal generators of I in degree t are then minimal generators of
  J = (I + l)/l, counted as dim J_t minus the rank of S_1 * J_(t-1).
  Beyond the regularity index tau, J_(tau+1) = S_(tau+1) (every column
  is free) and no generator is new in any higher degree.

The generator counts are read off the ladder's staircase, and a span is
eliminated exactly only in a degree that nothing cheaper decides:

* the bound.  The RREF kernel vector v_f of Z_t for a free column f has
  its other entries at pivot columns left of f, so it leads at f in the
  order in which a later column leads (within a degree, the reverse of
  descending lex, which multiplying by a variable keeps).  So the free
  columns F_t of Z_t are the degree-t part of the initial ideal in(J)
  (Eisenbud, *Commutative Algebra*, 1995, ch. 15), and x * in(v) =
  in(x * v) puts S_1 * F_(t-1) among the leads of S_1 * J_(t-1).  The
  count in degree t is therefore at most b(t) = |F_t| - |S_1 * F_(t-1)|,
  the count of in(J), and a degree with b(t) = 0 needs nothing more;
* the Krull stop.  J is primary to the maximal ideal of S, a ring in n
  variables, so it needs at least n generators (Krull's height
  theorem).  Once the upper bounds sum to n, every one is exact.  This
  settles every degree of a collinear set, and of any set whose in(J)
  is a complete intersection, with no elimination;
* the modular rank.  Z_(t-1) is in echelon form, so its RREF over Q is
  U^(-1) * Z_(t-1), U the triangular block at its pivot columns.  When
  no pivot entry vanishes modulo p = ``_elim._PRIME``, that RREF mod p,
  and with it the kernel basis scaled to 1 at each free column, is the
  reduction of the one over Q: a basis of J_(t-1) over the integers
  localised at p.  The rank mod p of a matrix over that ring is at most
  its rank over Q, and a rank that reaches the number of rows or of
  columns is the rank over Q (Arnold's modular pattern, cited below).
  So the shifts x_i * v_f of that basis go into one ``_elim.ModBasis``,
  which stops once it holds |F_t| vectors: |F_t| minus its rank caps the
  count (the bound stays the cap when a pivot vanishes mod p), and a
  rank of min(n * |F_(t-1)|, |F_t|) settles the degree.  This settles
  the full row rank at tau + 1 of a not-CI set whose span there has
  fewer rows than columns;
* the exact count.  A degree still open takes the exact kernel of
  Z_(t-1) and the rank of its shifts.  Either span lies in J_t =
  ker Z_t, and Z_t is in echelon form, so its projection onto the free
  columns of Z_t is injective: both ranks are taken on those dim J_t
  columns alone, from the same shift rows, the exact one by
  ``linalg.rank_of``.  Modulo 2^61 - 1 the tested sets reach it only
  where the rank over Q itself is short of both rows and columns.

The degree d is found modulo the prime p = ``_elim._PRIME``.  Scaling
the row of p by 1/l(p)^d turns E_d into the affine monomials of degree
at most d in y = (p1, ..., pn)/l(p), so E_t grows from E_(t-1) by
appending columns, and a pass over GF(p) adds them one degree at a time
to an ``_elim.ModBasis``.  The independent columns, taken in term
order, are the standard monomials of the reduced points (Moeller &
Buchberger, 1982) and form an order ideal, so a monomial with a
dependent divisor is dependent and is skipped.  The pass stops at the
first degree of rank |X| mod p; rank mod p is at most rank over Q, so
HF is |X| there and d >= tau.  It cannot decide when some l(p) vanishes
mod p, or when a degree adds no column, which happens when two points
agree mod p (none is added afterwards).  Then d starts at the least t
with C(t+n, n) >= |X| and rises by one until the exact pivots reach |X|.

Before that echelon, the ladder is certified from the pass when it can
be: from the monomials the pass kept in each block (its pivot columns
mod p; the rest of block t is F^p_t) and at most one exact kernel.  The
modular Groebner pattern with exact verification (Arnold, *Modular
algorithms for computing Groebner bases*, J. Symbolic Comput. 35,
2003) applies because the prefix ranks of E_d are squeezed from both
sides:

* rank mod p of every column prefix of E_d is at most its rank over Q
  (the row scaling by l(p)^d is invertible mod p), so each prefix has
  at most as many free columns over Q as mod p;
* case (a): no block t <= d has a free column mod p.  Then HF(t) =
  C(t+n, n), the ceiling, in every degree t <= d, so it is exact, tau =
  d, every F_t is empty and J_tau = 0.  The counts are 0 through tau and
  |S_(tau+1)| at tau + 1, with no elimination.  Collinear sets and the
  2 x 2 skew grids take this path;
* case (b): the staircase is generated in its initial degree alpha, the
  first block with a free column, with no collisions.  For
  alpha < t <= d + 1 the products u * m (u in S_(t-alpha), m in
  F^p_alpha) must be pairwise distinct, and for t <= d equal F^p_t as a
  set; this is set arithmetic on monomials, checked before any exact
  work.  Then one exact ``kernel_basis`` of E_alpha in l-coordinates is
  taken, and its free columns (the last nonzero entry of each RREF
  kernel vector) must be exactly F^p_alpha, with none in an earlier
  block;
* why (b) is exact.  For f in that kernel, l^k * u * f is a kernel
  vector of E_t, and its last nonzero column is u * lead(f), because the
  column order is descending lex and lex is a monomial order.  These
  leads cover every free column mod p of every prefix, one vector each,
  so each prefix rank over Q is at most its rank mod p.  The ranks are
  equal, the pivots over Q are those mod p, and HF, tau = d and
  F_t = F^p_t are exact;
* the bound is exact in (a) and (b).  In (a) J_tau = 0, so b(t) = 0
  through tau and b(tau + 1) = |S_(tau+1)| are the counts.  In (b)
  J_(alpha-1) = 0, so b(alpha) = |F_alpha| is exact; for
  alpha < t <= tau, F_t = S_1 * F_(t-1) gives b(t) = 0.  The u * f with
  u in S_(tau-alpha), f mod l, have distinct leads covering F_tau, so
  they are a basis of J_tau, and S_1 * J_tau is spanned by the w * f
  with w in S_(tau+1-alpha).  Their leads are distinct, so they are
  independent and rank(S_1 * J_tau) = |S_(tau+1-alpha)| * |F_alpha| =
  |S_1 * F_tau|: b(tau + 1) is exact too.  So a certified ladder keeps
  no Z_t, and its counts are the bound, with no elimination.  Square
  skew grids of at least 3 x 3 points take this path (alpha = 2, their
  quadric);
* fallbacks.  When the pass cannot decide, when the set arithmetic
  fails (planar-25 and the P^2 grids fail it at alpha + 1, random
  points of P^2 with several free columns at alpha = tau fail it at
  tau + 1) or when the kernel leads elsewhere, the exact echelon above
  runs unchanged, from the pass's d.  Either way every answer is exact:
  the prime chooses the path and the matrix, not an answer.

The ladder of a set is built on the first profile question asked of
it and stored on the ``PointSet``; later questions, bounded ones
included, read the stored ladder.  The first generator question counts
the generators through tau + 1 and stores them on the ladder, so a
``ci_verdict`` after a ``generator_profile`` computes no kernel and no
span rank again.
Storing both is safe: a ``PointSet`` is never mutated, and the Hilbert
function and the generator counts do not depend on the order of the
points.

The ladder needs no consistency checks.  HF rises strictly until it
reaches |X|: its first differences are the h-vector of the Artinian
reduction R/(I, l), a standard graded algebra, which has no internal
zeros (once it is zero in degree t it is zero above, as it is generated
in degree 1).  So tau <= |X| - 1.  The ladder still stores
HF(tau + 1) from one rank of the full E_(tau+1) of the set in its span
(certified modulo a prime when its entries are that wide), although
that rank is |X|: the l-divisible columns of E_(tau+1) are D * E_tau
with D invertible.  The benchmark's tracer test
(``perfbench/tests/test_perfbench.py``) asserts the shape of that
rank, so dropping it waits for a change to the benchmark.

Single-degree questions (``hilbert_function``, ``ideal_dimension``,
``degree_bounded_ideal``) eliminate E_t of the given points directly,
with one exception: ``degree_bounded_ideal`` in degree alpha reads the
kernel of E_alpha that a certified ladder took, when c = 0 and the set
spans its P^n.  Then the l-coordinates are the set's own coordinates,
E_alpha is the set's evaluation matrix, and the stored kernel is, bit
for bit, the one a direct elimination gives.  So the quadric of a skew
grid costs no elimination after a profile question.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Optional

from . import _elim, linalg
from .errors import HadaError
from .forms import HomogeneousForm, monomials
from .projective import PointSet


@lru_cache(maxsize=None)
def _exponent_columns(nvars: int, degree: int):
    """The exponents of each variable across ``monomials(nvars, degree)``."""
    return tuple(zip(*monomials(nvars, degree)))


def _evaluation_matrix(coords, nvars: int, degree: int):
    """E_t: the degree-t monomials, in ``monomials`` order, evaluated at
    each point, as products of per-coordinate power tables."""
    first, *rest = _exponent_columns(nvars, degree)
    matrix = []
    for p in coords:
        powers = [[x**e for e in range(degree + 1)] for x in p]
        row = [powers[0][e] for e in first]
        for table, column in zip(powers[1:], rest):
            row = [v * table[e] for v, e in zip(row, column)]
        matrix.append(row)
    return matrix


def evaluation_rows(points: PointSet, degree: int):
    return _evaluation_matrix(
        [p.coords for p in points], points.ambient_dim + 1, degree
    )


def hilbert_function(points: PointSet, t: int) -> int:
    """Rank of the degree-t evaluation matrix."""
    if t < 0:
        raise HadaError("degree must be nonnegative")
    n = points.ambient_dim
    return linalg.rank_of(evaluation_rows(points, t), comb(t + n, n))


@dataclass(frozen=True)
class HilbertProfile:
    """Hilbert function values through stabilization.

    ``values[t]`` holds HF(t) for t = 0 .. tau + 1, ``tau`` is the
    least degree where the value reaches the cardinality, and
    ``h_vector`` is the sequence of first differences up to tau (its
    entries sum to the cardinality).
    """

    values: tuple[int, ...]
    tau: int
    h_vector: tuple[int, ...]
    cardinality: int


def _divisible_count(n: int, t: int) -> int:
    """Number of degree-t monomials in x0..xn divisible by x0; they lead
    the descending lex order."""
    return comb(t - 1 + n, n) if t else 0


def _linear_form_value(c: int, coords) -> int:
    """Value of l_c = x0 + c*x1 + ... + c^n*xn at the given coordinates."""
    return sum(c**i * x for i, x in enumerate(coords))


def _linear_form_parameter(coords) -> int:
    """Least c >= 0 such that l_c vanishes at none of the points, given
    by their coordinates.

    l_c(p) is a nonzero polynomial of degree at most n in c, so each
    point rules out at most n values and the search stops by n*|X|.
    """
    c = 0
    while any(_linear_form_value(c, p) == 0 for p in coords):
        c += 1
    return c


@dataclass
class _Ladder:
    """The degree ladder of a point set, read off one elimination.

    The ladder lives in the span of the set: ``dim`` is its projective
    dimension r - 1, and ``linear`` = n + 1 - r counts the independent
    linear forms that vanish on the set in its ambient P^n.  The rows
    and columns below are those of the set in P^(r-1).
    ``values[t]`` is HF(t) for t = 0 .. tau + 1, where ``tau`` is the
    least degree whose value reaches the cardinality, and ``free[t]``
    the columns of Z_t that hold no pivot, for t <= tau.  An exact
    ladder keeps in ``reduced[t]`` the rows of Z_t, whose kernel is J_t,
    each primitive (a slice of an echelon row keeps the common factors
    of the whole row, which would only be carried and divided out
    again).  A certified ladder eliminated no Z_t: ``reduced`` is None.
    ``generators[t]`` is the number of new minimal generators in degree
    t for t = 0 .. tau + 1, set by ``_generator_counts`` on the first
    generator question and None until then.  ``lowest`` is (alpha,
    canonical kernel basis of E_alpha) when a certified ladder eliminated
    that kernel in the set's own coordinates, and None otherwise.
    """

    cardinality: int
    dim: int
    linear: int
    values: tuple[int, ...]
    tau: int
    reduced: Optional[tuple[list, ...]]
    free: tuple[tuple[int, ...], ...]
    generators: Optional[tuple[int, ...]] = None
    lowest: Optional[tuple[int, list]] = None

    def value(self, t: int) -> int:
        """HF(t) in any degree t >= 0."""
        return self.values[t] if t < len(self.values) else self.cardinality


def _modular_degree(lvalues, tails) -> Optional[tuple[int, list[set]]]:
    """Least t with rank E_t = |X| modulo ``_elim._PRIME``, with the
    monomials of S kept in each block 0 .. t, or None when the prime
    cannot decide.

    Row p of E_t scaled by 1/l(p)^t holds the affine monomials of degree
    at most t in y = (p1, ..., pn)/l(p), so each degree appends columns.
    A monomial with a dependent divisor y^a / y_i is dependent and is
    skipped.  The kept monomials of block s are its pivot columns mod p,
    and the rest of the block, the free columns mod p, is F^p_s.  None
    means some l(p) vanishes mod p, or a degree added no column, after
    which none ever does (two points agree mod p).
    """
    p = _elim._PRIME
    card, n = len(lvalues), len(tails[0])
    if any(lp % p == 0 for lp in lvalues):
        return None
    inverses = [pow(lp, -1, p) for lp in lvalues]
    ys = [[x * inv % p for x, inv in zip(column, inverses)] for column in zip(*tails)]
    basis = _elim.ModBasis()
    basis.add([1] * card)
    kept = {(0,) * n: [1] * card}
    standard = [set(kept)]
    t = 0
    while len(basis) < card:
        t += 1
        added = {}
        for e in monomials(n, t):
            divisors = [(i, e[:i] + (a - 1,) + e[i + 1 :]) for i, a in enumerate(e) if a]
            if any(d not in kept for _, d in divisors):
                continue
            i, d = divisors[0]
            column = [x * y % p for x, y in zip(kept[d], ys[i])]
            if basis.add(column):
                added[e] = column
                if len(basis) == card:
                    break
        if not added:
            return None
        kept = added
        standard.append(set(added))
    return t, standard


def _span_coordinates(points: PointSet):
    """The coordinates of the points in their linear span, and its
    projective dimension r - 1.

    A set of at least n + 1 points whose coordinate matrix has rank
    n + 1 modulo ``_elim._PRIME`` spans P^n and keeps its coordinates.
    Otherwise the exact echelon of that matrix gives its rank r and
    pivot columns, and each point keeps its pivot coordinates: the
    echelon rows are triangular there, so this projection is injective
    on the span.  For a set that spans after all, every column is a
    pivot and nothing changes.
    """
    n = points.ambient_dim
    coords = [p.coords for p in points]
    if len(coords) > n and _elim._full_rank_mod_prime(coords, n + 1):
        return coords, n
    rank, pivots, _ = _elim.echelon(coords, n + 1)
    return [tuple(p[j] for j in pivots) for p in coords], rank - 1


def _certified_ladder(lcoords, n: int, d: int, standard):
    """HF(0 .. d) and the free columns F_0 .. F_d of the set in its span,
    read off the staircase of the modular pass, with the exact basis
    (alpha, kernel of E_alpha) it took (None in case (a)), or None when a
    check fails.

    ``standard[s]`` holds the monomials of block s that ``_modular_degree``
    kept, d its degree.  Case (a): no block has a free column mod p, so
    nothing is eliminated.  Case (b): alpha is the first block with a
    free column; the products of S_(t-alpha) with F^p_alpha must be
    pairwise distinct for alpha < t <= d + 1 and equal F^p_t for t <= d,
    and then the one exact kernel of E_alpha in l-coordinates must lead
    at F^p_alpha and nowhere else; the products are checked up to
    d + 1, where they make the staircase bound of ``_generator_counts``
    exact.  The module docstring shows why every value returned is then
    exact, and why the bound gives the counts.
    """
    free = [
        tuple(j for j, e in enumerate(_s_monomials(n, t)) if e[1:] not in standard[t])
        for t in range(d + 1)
    ]
    values = list(accumulate(len(block) for block in standard))
    alpha = next((t for t in range(d + 1) if free[t]), None)
    if alpha is None:
        return values, free, None
    block = monomials(n, alpha)
    base = [block[j] for j in free[alpha]]
    for t in range(alpha + 1, d + 2):
        products = [
            tuple(a + b for a, b in zip(u, m)) for u in monomials(n, t - alpha) for m in base
        ]
        if len(set(products)) < len(products):
            return None
        if t <= d and set(products) != {monomials(n, t)[j] for j in free[t]}:
            return None
    kernel = linalg.kernel_basis(
        _evaluation_matrix(lcoords, n + 1, alpha), comb(alpha + n, n)
    )
    offset = comb(alpha - 1 + n, n)
    leads = [max(j for j, x in enumerate(v) if x) for v in kernel]
    if leads != [offset + j for j in free[alpha]]:
        return None
    return values, free, (alpha, kernel)


def _exact_ladder(lcoords, n: int, d: int):
    """HF(0 .. tau), Z_0 .. Z_tau and the free columns of each Z_t, read
    off one forward echelon of E_d in l-coordinates, with d rising from
    the given degree until the rank is |X|.

    Each row of Z_t is stored primitive; dividing a row by a constant
    keeps the row space, so J_t does not change.
    """
    card = len(lcoords)
    while True:
        rank, pivots, rows = linalg.echelon_of(
            _evaluation_matrix(lcoords, n + 1, d), comb(d + n, n)
        )
        if rank == card:
            break
        d += 1
    # HF(t) is the number of pivots left of column C(t + n, n); the rows
    # with pivots in block t, cut to block t and made primitive, form Z_t
    values: list[int] = []
    reduced = []
    free = []
    lo = start = 0
    for t in range(d + 1):
        end = comb(t + n, n)
        hi = bisect_left(pivots, end)
        values.append(hi)
        reduced.append([_elim._primitive(row[start:end]) for row in rows[lo:hi]])
        z_pivots = {col - start for col in pivots[lo:hi]}
        free.append(tuple(j for j in range(end - start) if j not in z_pivots))
        if hi == card:
            break
        lo, start = hi, end
    return values, tuple(reduced), free


def _ladder(points: PointSet) -> _Ladder:
    """The degree ladder of the set, built on first use and then read
    from the set.

    The ladder is built in the span of the set (``_span_coordinates``),
    P^(r-1), which the module docstring shows changes no answer.
    ``_modular_degree`` finds d and the staircase mod p, and
    ``_certified_ladder`` tries to certify HF, tau and the free columns
    from them with at most one exact kernel, that of E_alpha.  The
    ladder holds no generator counts; ``_generator_counts`` sets them.
    When it cannot decide or a check fails, one forward echelon
    of E_d in l-coordinates gives HF(t), Z_t and the free columns of Z_t
    for every t <= tau (``_exact_ladder``); d is the pass's degree or,
    when the pass cannot decide, the least degree with at least |X|
    monomials.  Either way HF(tau + 1) is then read off a rank of the
    full E_(tau+1); the module docstring says why that is |X| and why
    the rank stays for now.  A certified kernel of E_alpha is kept for
    ``degree_bounded_ideal`` when l-coordinates are the set's own (c = 0
    and the set spans its P^n).
    """
    if points._ladder is not None:
        return points._ladder
    coords, n = _span_coordinates(points)
    card = len(coords)
    c = _linear_form_parameter(coords)
    # x0 -> l is unimodular (triangular, unit diagonal): ranks are kept and
    # l becomes the first variable
    lvalues = [_linear_form_value(c, p) for p in coords]
    tails = [p[1:] for p in coords]
    lcoords = [(lp,) + tail for lp, tail in zip(lvalues, tails)]
    linear = points.ambient_dim - n
    found = _modular_degree(lvalues, tails)
    certified = found and _certified_ladder(lcoords, n, *found)
    if certified:
        values, free, lowest = certified
        reduced = None
        if c or linear:
            lowest = None
    else:
        d = found[0] if found else next(t for t in range(card) if comb(t + n, n) >= card)
        values, reduced, free = _exact_ladder(lcoords, n, d)
        lowest = None
    tau = len(values) - 1
    values.append(
        linalg.rank_of(_evaluation_matrix(coords, n + 1, tau + 1), comb(tau + 1 + n, n))
    )
    points._ladder = _Ladder(
        cardinality=card,
        dim=n,
        linear=linear,
        values=tuple(values),
        tau=tau,
        reduced=reduced,
        free=tuple(free),
        lowest=lowest,
    )
    return points._ladder


def hilbert_profile(points: PointSet) -> HilbertProfile:
    ladder = _ladder(points)
    values, tau = ladder.values, ladder.tau
    h_vector = [values[0]] + [values[i] - values[i - 1] for i in range(1, tau + 1)]
    return HilbertProfile(
        values=values,
        tau=tau,
        h_vector=tuple(h_vector),
        cardinality=ladder.cardinality,
    )


@dataclass(frozen=True)
class HFProductRow:
    degree: int
    product_value: int
    left_value: int
    right_value: int

    @property
    def ok(self) -> bool:
        return self.product_value == self.left_value * self.right_value


@dataclass(frozen=True)
class HFProductReport:
    """Degree-by-degree comparison of HF(product set) with the product
    of the factor Hilbert functions, plus the regularity check.

    An a x b grid on the quadric P^1 x P^1 (projectively normal) has
    HF(t) = min(a, t+1) * min(b, t+1), so the expected regularity index
    is max(a, b) - 1 for any sizes."""

    rows: tuple[HFProductRow, ...]
    tau_product: int
    tau_expected: int

    @property
    def product_holds(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def tau_matches(self) -> bool:
        return self.tau_product == self.tau_expected

    @property
    def ok(self) -> bool:
        return self.product_holds and self.tau_matches


def hf_product_check(
    xs: PointSet, xs2: PointSet, product_set: PointSet
) -> HFProductReport:
    profile = hilbert_profile(product_set)
    top = profile.tau + 1
    left, right = _ladder(xs), _ladder(xs2)
    rows = [
        HFProductRow(
            degree=t,
            product_value=profile.values[t],
            left_value=left.value(t),
            right_value=right.value(t),
        )
        for t in range(top + 1)
    ]
    tau_expected = max(len(xs), len(xs2)) - 1
    return HFProductReport(
        rows=tuple(rows), tau_product=profile.tau, tau_expected=tau_expected
    )


def ideal_dimension(points: PointSet, t: int) -> int:
    """Dimension of the degree-t part of the vanishing ideal."""
    n = points.ambient_dim
    return comb(t + n, n) - hilbert_function(points, t)


def degree_bounded_ideal(points: PointSet, t: int):
    """Canonical basis of the degree-t forms vanishing on the set.

    The kernel of E_t of the points, or, when the set's stored ladder was
    certified with the kernel of E_t in the set's own coordinates
    (``_Ladder.lowest``), that same kernel read from it.
    """
    if t < 0:
        raise HadaError("degree must be nonnegative")
    nvars = points.ambient_dim + 1
    ladder = points._ladder
    if ladder is not None and ladder.lowest is not None and ladder.lowest[0] == t:
        kernel = ladder.lowest[1]
    else:
        kernel = linalg.kernel_basis(evaluation_rows(points, t), len(monomials(nvars, t)))
    return [HomogeneousForm.from_vector(nvars, t, v) for v in kernel]


@dataclass(frozen=True)
class GeneratorDegree:
    degree: int
    ideal_dim: int
    new_generators: int


@dataclass(frozen=True)
class GeneratorProfile:
    """Minimal generator counts of the vanishing ideal, degree by
    degree, through ``max_degree``."""

    entries: tuple[GeneratorDegree, ...]
    max_degree: int

    @property
    def total(self) -> int:
        return sum(e.new_generators for e in self.entries)

    def witness_degrees(self) -> tuple[int, ...]:
        out = []
        for e in self.entries:
            out.extend([e.degree] * e.new_generators)
        return tuple(out)

    def new_in_degree(self, t: int) -> int:
        for e in self.entries:
            if e.degree == t:
                return e.new_generators
        return 0


@lru_cache(maxsize=None)
def _s_monomials(n: int, t: int):
    """The degree-t monomials of S = R/(l): those of ``monomials(n + 1, t)``
    not divisible by x0, which close the block."""
    return monomials(n + 1, t)[_divisible_count(n, t) :]


@lru_cache(maxsize=None)
def _shift_columns(n: int, t: int):
    """One table per variable x_i of S (i = 1 .. n): entry j is the
    column in S_t of x_i times monomial j of S_(t-1)."""
    index_of = {e: j for j, e in enumerate(_s_monomials(n, t))}
    tables = []
    for var in range(1, n + 1):
        table = []
        for e in _s_monomials(n, t - 1):
            e = list(e)
            e[var] += 1
            table.append(index_of[tuple(e)])
        tables.append(tuple(table))
    return tuple(tables)


def _modular_kernel(rows, free, ncols):
    """The RREF kernel of Z modulo ``_elim._PRIME``, or None when some
    pivot entry of Z vanishes mod p.

    Z is in echelon form, so its RREF over Q is U^(-1) * Z with U the
    triangular block at the pivot columns, whose denominators divide the
    product of the pivot entries.  When none of them vanishes mod p the
    RREF mod p is the reduction of the RREF over Q, and so is the kernel
    vector v_f of each free column f, scaled to 1 at f.  The vectors are
    returned dense, one per free column, in the order of ``free``.
    """
    p = _elim._PRIME
    free_set = set(free)
    pivots = [j for j in range(ncols) if j not in free_set]
    red = []
    for row, c in zip(rows, pivots):
        lead = row[c] % p
        if not lead:
            return None
        inv = pow(lead, -1, p)
        red.append([x * inv % p for x in row])
    for k in range(len(red) - 1, 0, -1):
        row_k, c = red[k], pivots[k]
        for row_i in red[:k]:
            q = row_i[c]
            if q:
                row_i[c:] = [(x - q * y) % p for x, y in zip(row_i[c:], row_k[c:])]
    kernel = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[f] % p
        kernel.append(v)
    return kernel


def _shift_rows(basis, n: int, t: int, free_t):
    """The rows x_i * v of S_1 * span(basis), for each vector v of a basis
    of J_(t-1) and each variable x_i of S, on the columns ``free_t`` of
    Z_t, where the projection from J_t is injective."""
    position = [-1] * len(_s_monomials(n, t))
    for k, j in enumerate(free_t):
        position[j] = k
    tables = _shift_columns(n, t)
    for v in basis:
        for table in tables:
            row = [0] * len(free_t)
            for j, coeff in enumerate(v):
                if coeff and position[table[j]] >= 0:
                    row[position[table[j]]] = coeff
            yield row


def _modular_rank(ladder: _Ladder, n: int, t: int, free_t) -> int:
    """Rank of S_1 * J_(t-1) modulo ``_elim._PRIME``, at most its rank
    over Q; 0 when some pivot entry of Z_(t-1) vanishes mod p.  The shift
    rows go into one ``ModBasis`` until it holds |F_t| vectors."""
    kernel = _modular_kernel(
        ladder.reduced[t - 1], ladder.free[t - 1], len(_s_monomials(n, t - 1))
    )
    if kernel is None:
        return 0
    basis = _elim.ModBasis()
    for row in _shift_rows(kernel, n, t, free_t):
        if basis.add(row) and len(basis) == len(free_t):
            break
    return len(basis)


def _span_rank(ladder: _Ladder, n: int, t: int, free_t) -> int:
    """Exact rank of S_1 * J_(t-1), from the exact kernel of Z_(t-1)."""
    kernel = linalg.kernel_basis(ladder.reduced[t - 1], len(_s_monomials(n, t - 1)))
    return linalg.rank_of(list(_shift_rows(kernel, n, t, free_t)), len(free_t))


def _generator_counts(ladder: _Ladder) -> tuple[int, ...]:
    """New minimal generators in degrees 0 .. tau + 1, counted once per
    ladder and stored on it.

    The counts are those of the set in its span, P^n with n =
    ``ladder.dim``, plus the ``ladder.linear`` linear forms that cut out
    the span, in degree 1.  In the span, the count in degree t is |F_t|
    minus the rank of S_1 * J_(t-1), with F_t the free columns of Z_t
    (all of S_(tau+1) at t = tau + 1).  Each step below runs only in the
    degrees the ones before leave open; the module docstring gives the
    arguments:

    * the bound b(t) = |F_t| - |S_1 * F_(t-1)| caps each count with no
      elimination, since F_t is the degree-t part of in(J).  A degree
      with b(t) = 0 or F_(t-1) empty (no span) is settled, and so is
      every degree of a certified ladder (``reduced`` is None), where the
      bound is exact;
    * J needs at least n generators (Krull), so once the upper bounds
      sum to n every one is exact;
    * ``_modular_rank`` lowers the bound to |F_t| minus the rank mod p,
      which is at most the rank over Q.  A rank mod p equal to
      min(n * |F_(t-1)|, |F_t|), the most the span's rows and columns
      allow, is the rank over Q and settles the degree;
    * a degree still open, while the bounds exceed n, takes the exact
      span rank (``_span_rank``).
    """
    if ladder.generators is not None:
        return ladder.generators
    n = ladder.dim
    top = ladder.tau + 1
    free = ladder.free + (tuple(range(len(_s_monomials(n, top)))),)
    counts = [len(free[0])]
    for t in range(1, top + 1):
        leads = {table[f] for table in _shift_columns(n, t) for f in free[t - 1]}
        counts.append(len(free[t]) - len(leads))
    unsettled = [
        t
        for t in range(1, top + 1)
        if ladder.reduced is not None and counts[t] and free[t - 1]
    ]
    exact = []
    for t in unsettled:
        if sum(counts) == n:
            break
        rank = _modular_rank(ladder, n, t, free[t])
        counts[t] = min(counts[t], len(free[t]) - rank)
        if rank < min(n * len(free[t - 1]), len(free[t])):
            exact.append(t)
    for t in exact:
        if sum(counts) == n:
            break
        counts[t] = len(free[t]) - _span_rank(ladder, n, t, free[t])
    counts[1] += ladder.linear
    ladder.generators = tuple(counts)
    return ladder.generators


def generator_profile(points: PointSet, max_degree: Optional[int] = None):
    """Count minimal generators per degree.

    The count is taken in the Artinian reduction S = R/(l) of the
    module docstring and stored with the degree ladder, so a later
    question of the same set, bounded or not, eliminates nothing.
    Because l is a nonzerodivisor on R/I, these are the minimal
    generator counts of I itself (Eisenbud, *The Geometry of
    Syzygies*, 2005, ch. 4).  Ideals of finite point sets are generated
    in degrees up to tau + 1, the default bound; above it the count is
    zero.
    """
    n = points.ambient_dim
    ladder = _ladder(points)
    if max_degree is None:
        max_degree = ladder.tau + 1
    counts = _generator_counts(ladder)
    entries = tuple(
        GeneratorDegree(
            degree=t,
            ideal_dim=comb(t + n, n) - ladder.value(t),
            new_generators=counts[t] if t < len(counts) else 0,
        )
        for t in range(max_degree + 1)
    )
    return GeneratorProfile(entries=entries, max_degree=max_degree)


@dataclass(frozen=True)
class CIVerdict:
    """Complete-intersection verdict for a finite point set."""

    kind: str  # "CI" | "NotCI" | "Unknown"
    codimension: int
    total_generators: Optional[int] = None
    witness_degrees: Optional[tuple[int, ...]] = None
    reason: Optional[str] = None


def ci_verdict(points: PointSet, max_degree: Optional[int] = None) -> CIVerdict:
    """A set of points is a complete intersection exactly when its
    ideal needs only codimension-many generators."""
    n = points.ambient_dim
    bound = _ladder(points).tau + 1
    if max_degree is not None and max_degree < bound:
        return CIVerdict(
            kind="Unknown",
            codimension=n,
            reason=(
                f"degree bound {max_degree} is below {bound}; generator "
                "count incomplete"
            ),
        )
    gens = generator_profile(points)
    total = gens.total
    if total == n:
        return CIVerdict(
            kind="CI",
            codimension=n,
            total_generators=total,
            witness_degrees=gens.witness_degrees(),
        )
    h_vector = hilbert_profile(points).h_vector
    symmetric = h_vector == h_vector[::-1]
    reason = f"{total} minimal generators exceed the codimension {n}"
    if not symmetric:
        reason += "; h-vector is not symmetric"
    return CIVerdict(
        kind="NotCI",
        codimension=n,
        total_generators=total,
        witness_degrees=gens.witness_degrees(),
        reason=reason,
    )
