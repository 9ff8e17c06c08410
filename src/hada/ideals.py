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
dimension r - 1, cut out by n + 1 - r independent linear forms L: the
canonical kernel basis of that matrix, one form per free column, which
is its last nonzero entry, and zero at every other free column.  The
forms fix the free coordinates of a point of V from the other r, the
pivot coordinates, so keeping only those maps V isomorphically onto
P^(r-1) and X onto a set X' that spans it.  Then R/(L) is a polynomial
ring in r variables, this isomorphism identifies it with the coordinate
ring of P^(r-1), and I_X = (L) + I' with I' the ideal of X' lifted.  So R/I_X and the ring of X' in P^(r-1) are the
same graded ring (the coordinate ring of X does not depend on the
linear space it is embedded in; Eisenbud, *The Geometry of Syzygies*,
2005, ch. 4): HF, tau and every J_t below are those of X'.  Its
minimal generators are the n + 1 - r linear forms L and lifts of the
minimal generators of I', which has no linear form because X' spans
P^(r-1); so the counts of X are those of X' plus n + 1 - r in degree 1.
Most sets span P^n, and a GF(p) certificate says so without an exact
elimination: rank mod p = n + 1 of the |X| x (n + 1) coordinate matrix
is at most the rank over Q.  Only when it fails is the kernel of that
small matrix taken exactly, and a set that spans after all has no
linear form and keeps every coordinate.

The ladder works in an Artinian reduction (n, from here on, is the
dimension of the span):

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
* the block-t parts of the kernel vectors of E_t span J_t, the image of
  I_t in S_t, and HF(t) - HF(t - 1) = |S_t| - dim J_t.  J = (I + l)/l
  is an ideal of S, and the minimal generators of I in degree t are
  those of J, counted as dim J_t minus the rank of S_1 * J_(t-1).
  Beyond the regularity index tau, J_(tau+1) = S_(tau+1) and no
  generator is new in any higher degree.

HF is first found by the column pass (``_column_pass``) modulo the
prime p = ``_elim._PRIME``.  Scaling the row of p by 1/l(p)^d turns E_d
into the affine monomials of degree at most d in y = (p1, ..., pn)/l(p),
so E_t grows from E_(t-1) by appending columns, and the pass adds them
one degree at a time to an ``_elim.ModBasis``.  The independent columns,
taken in term order, are the standard monomials of the reduced points
(Moeller & Buchberger, 1982) and form an order ideal, so a monomial with
a dependent divisor is dependent and is skipped.  The pass stops at the
first degree d of rank |X| mod p.  Rank mod p of every column prefix is
at most its rank over Q (the row scaling is invertible mod p), so the
pass gives lower bounds L(t) <= HF(t), HF(d) = |X| and d >= tau.  It
cannot decide when some l(p) vanishes mod p, or when a degree adds no
column, which happens when two points agree mod p (none is added
afterwards).

The ladder squeezes HF between the pass and an upper bound from exact
forms: Arnold's modular pattern with exact verification (*Modular
algorithms for computing Groebner bases*, J. Symbolic Comput. 35,
2003):

* the bound.  Multiples u * g of forms g of J of degree s, with u a
  monomial of S_(t-s), lie in J_t.  Let M_t hold every such multiple of
  the exact (integer) forms found in degrees below t.  Its rank mod p
  is at most its rank over Q, at most dim J_t, so HF(t) <= min(|X|, sum
  over s <= t of |S_s| - rank_p M_s), and with no forms that sum is the
  ceiling C(t+n, n).  Degree by degree: when HF(t - 1) is exact, the
  pass gives dim J_t <= D(t) = |S_t| - L(t) + L(t - 1), so a rank
  rank_p M_t = D(t) makes HF(t) = L(t) exact and M_t a spanning set of
  J_t over Q;
* the covers.  A set made by ``pairwise_products`` or
  ``grid_product_p3`` keeps its two factors.  When c = 0, each factor G
  that lies in a hyperplane H (the first vector of the canonical kernel
  basis of G's coordinate matrix, a |G| x (n + 1) elimination), paired
  with a factor F none of whose points has a zero coordinate, gives the
  exact form prod over a in F of a * H, with (a * H)(x) = sum of
  H_i x_i / a_i.  It has degree |F| and vanishes on the set, as
  (a * H)(a * b) = H(b) = 0: for a P^2 grid these are the paper's row
  and column lines.  Any hyperplane through G serves, and each a may
  take its own: when the set spans P^3 and G lies on a line, whose
  kernel has two vectors H1 and H2, the per-point choices H1 for the
  first k points of F and H2 for the rest give |F| + 1 forms,
  k = 0 .. |F|.  When both factors lie on lines, two points p, q of F
  and r, s of G give the matrix A with columns p * r, p * s, q * r and
  q * s, invertible when the set spans P^3, and every product point is
  A w with w0 w3 = w1 w2; so Q = z0 z3 - z1 z2, z = adj(A) x, is a
  quadric through the set, built from integer cofactors, and it is a
  cover of degree 2.  The image in S of a cover is its restriction to
  the span of the set and then to x0 = 0, an exact form of J.  For a
  set that does not span its P^n, each a * H is restricted to the span
  by eliminating, in integers, the free coordinate of each linear form
  L that cuts the span out (``_restricted``).  An a * H that contains
  the span vanishes on it, and its cover is left out; otherwise no
  factor is zero, as x0 vanishes at no point when c = 0.  The covers
  are built once per ladder, in degrees up to |X|, and the closure is
  the one step that uses them;
* the closure.  Whenever the set has covers, they are tried alone
  first, with no pass.  Let M_t hold the multiples of the covers kept in
  degrees below t, and u(t) = |S_t| minus the rank mod p of M_t and the
  covers of degree t; the covers of degree t independent of M_t mod p
  are kept.  All of them lie in J_t, so each term of the h-vector of
  R/(I, l) is h(t) = |S_t| - dim J_t <= u(t), and the h-vector sums to
  |X|.  Suppose that the first T with u(T) = 0 has u(0) + ... +
  u(T - 1) = |X|.  Then h(T) = 0, so h is zero from T on (it has no
  internal zeros, below), and the h(t) <= u(t) with t < T have the same
  sum: every one is an equality.  So HF(t) = u(0) + ... + u(t) exactly,
  tau = T - 1, and in each degree t <= T the rank mod p of M_t and the
  covers is dim J_t, so they span J_t over Q and M_t spans
  S_1 * J_(t-1).  The counts then follow by the rules below.  The sum
  cannot stay below |X| at such a T, as the h(t) <= u(t) with t < T
  already sum to |X|; so the covers fail to close only when the sum
  passes |X| before some u(T) = 0, and then the pass and the loop run
  instead, with no covers: they fill J from exact kernels, as for a set
  with no factors.  A sum other than |X| there can only come from a
  form that is not in I, and it is refused the same way.  A P^2 grid made as a
  product closes: by the paper's grid lemma it is the complete
  intersection of its row and column lines, which its two covers are.
  So does planar-25 made as the product of its factors, a complete
  intersection of type (1, 5, 5) whose two quintics are its covers in
  its plane.  So does every a x b product of points on two lines of
  P^3 that spans P^3 that has been tried (2 <= a, b <= 6): on Q, a
  P^1 x P^1, it is the intersection of a lines of one ruling and b of
  the other (Giuffrida, Maggioni & Ragusa, *Pacific J. Math.* 155,
  1992), and Q and the per-point covers of both factors, with their
  multiples, span J in every degree;
* the loop.  In each degree t < d where rank_p M_t falls short of D(t),
  one exact ``kernel_basis`` of E_t in l-coordinates gives J_t, and the
  block-t parts of its vectors that are independent of M_t mod p join
  the forms (each made primitive).  The first degree that falls short
  is alpha, the first block with a free column mod p, and the lowest
  degree of J.  Where the rank still falls short, the pass was wrong
  mod p and the fallback below runs instead.  Degree d itself needs
  no kernel, as the ceiling |X| meets the pass there: HF(d) = |X|.  So
  when the loop ends, HF, tau = d and every J_t below tau are exact, and
  J_(t-1) is spanned by M_(t-1) and the forms of degree t - 1, which
  makes S_1 * J_(t-1) the span of M_t.  Planar-25 and the points of a
  P^2 grid given alone take a kernel in the degree of each of their two
  forms, square skew grids of at least 4 x 4 points given alone one of
  E_2, and sets with a maximal Hilbert function none;
* the rows.  Each such kernel is first taken on L(t) rows of E_t alone:
  those of the points at which the pass's first L(t) kept columns have
  their ``ModBasis`` pivots.  These rows are independent over Q.  The
  vectors the basis stores come from those columns by invertible
  operations mod p, and at their pivots, in pivot order, they form a
  unit triangular matrix; so the L(t) x L(t) minor of E_t at those rows
  and columns is nonzero mod p (its rows are scaled by the units
  1/l(p)^t), hence nonzero.  Their kernel holds the kernel of E_t, and
  it is that kernel exactly when every other row of E_t annihilates
  each of its vectors, which is checked: then the rows span the row
  space of E_t, and the canonical kernel basis is the same, bit for
  bit.  When the check fails (L(t) < HF(t): the pass was wrong mod p),
  the kernel of the whole E_t is taken instead;
* the counts.  In a degree t <= tau the count is dim J_t minus the rank
  of M_t, which is 0 in every degree below tau where no form joined.  A
  rank mod p equal to the rows of M_t or to dim J_t is its rank over Q;
  otherwise ``linalg.rank_of`` takes it on the same integer rows, on
  the |S_t| columns.  One count loop (``_counts``) serves the closure,
  the squeeze and the fallback;
* tau + 1.  After the closure, and when M_tau spans J_tau mod p,
  S_1 * J_tau is the span of M_(tau+1), settled the same way.
  Otherwise J_tau has forms the multiples miss, and J_tau mod p comes
  from the pass: rank_p E_tau = |X| = rank E_tau, so the kernel of
  E_tau mod p, one relation (``_relations``) for each column the pass
  did not keep, is the reduction of the saturated lattice of integer
  kernel vectors (its reduction is injective and the dimensions
  agree).  The shifts of its block-tau part have a rank mod p at most
  the rank over Q, and settle the count at full rows or columns;
  otherwise the exact kernel of E_tau gives the rows of one
  ``linalg.rank_of``;
* the Krull stop.  J is primary to the maximal ideal of S, a ring in n
  variables, so it needs at least n generators (Krull's height
  theorem).  Each count above is at most dim J_t minus the rank mod p,
  and once those bounds sum to n every one is exact, so no exact rank
  is taken.

When the pass cannot decide, or the bound cannot meet it, the same pass
runs over Z, on an ``_elim.ExactBasis`` (Abbott, Bigatti, Kreuzer &
Robbiano, *Computing ideals of points*, J. Symbolic Comput. 30, 2000),
and its values are HF.  Modulo 2**61 - 1 only sets built to defeat the
prime take it.  The same loop then counts on those values, with each
J_t from the pass's relations in place of a kernel of E_t; where they
fall short of dim J_t mod p the prime failed, and all of them join the
forms, whose span over Q is J_t either way.  Every answer is exact
whichever way: the prime chooses the path and the matrices, not an
answer.

The ladder of a set, with its generator counts through tau + 1, is
built on the first profile question asked of it and stored on the
``PointSet``; later questions, bounded ones included, read the stored
ladder, so a ``ci_verdict`` after a ``hilbert_profile`` computes no
kernel and no span rank again.  Storing it is safe: a ``PointSet`` is
never mutated, and the Hilbert function and the generator counts do
not depend on the order of the points.

The ladder needs no consistency checks.  HF rises strictly until it
reaches |X|: its first differences are the h-vector of the Artinian
reduction R/(I, l), a standard graded algebra, which has no internal
zeros (once it is zero in degree t it is zero above, as it is generated
in degree 1).  So tau <= |X| - 1, and over Z each degree of the pass
adds a column until it holds |X|.
The ladder still stores HF(tau + 1) from the same rank of the full
E_(tau+1) in l-coordinates, which are the set's own coordinates in its
span when c = 0 (certified modulo a prime when its entries are that
wide), on every path, the closure's included, although that rank is
|X|: the l-divisible columns of E_(tau+1) are D * E_tau with D
invertible.  The benchmark's tracer test
(``perfbench/tests/test_perfbench.py``) asserts the shape of that
rank, so dropping it waits for a change to the benchmark.  Meanwhile
the rank is taken with the columns of E_(tau+1) in ascending monomial
order, the l-free monomials of S first; a column permutation keeps the
rank.  Its certificate (``_elim._full_rank_mod_prime``) walks the
columns of this wide matrix until |X| of them are independent mod p, and
in that order it meets fewer dependent ones.  On planar-25 and the
P^2 grids of the ci-verdicts benchmark, made as products, it meets none:
it adds exactly |X| columns, where the descending order added about
half as many again.

Single-degree questions have one route each.  HF(t)
(``hilbert_function``) is read off the ladder, which holds it in every
degree; dim I_t is C(t + n, n) - HF(t), the ``ideal_dim`` of the
generator profile's entry t.  ``degree_bounded_ideal`` eliminates E_t
of the given points directly, with one exception: in a degree t whose
kernel of E_t the ladder took it reads that kernel, when c = 0 and the
set spans its P^n.  Then the l-coordinates are the set's own
coordinates, E_t is the set's evaluation matrix, and each stored kernel
is, bit for bit, the one a direct elimination gives: a kernel the loop
took on HF(t) rows passed the row check, so it is the kernel of E_t.  A
product of P^3 with the quadric Q of its covers and HF(2) = 9 whose
ladder did not eliminate E_2 (every closed ladder) stores Q as its
kernel of E_2: then I_2 is spanned by Q, and Q primitive with its last
nonzero entry positive is the one vector of the canonical kernel basis
of E_2.  So the quadric of a skew grid of at least 3 x 3 points, given
as a product or alone with at least 4 x 4 points, costs no elimination
after a profile question, and neither does any degree a ladder
eliminated.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import comb
from operator import mul
from typing import Optional

from . import _elim, linalg
from .errors import HadaError
from .forms import HomogeneousForm, monomials
from .projective import PointSet, point_hyperplane_coefficients


def _evaluation_columns(variables, degree: int):
    """The columns of E_t, for points given by one coordinate column per
    variable: each degree-t monomial, in ``monomials`` order, evaluated at
    every point, as the product of the power columns of its variables."""
    powers = []
    for column in variables:
        table = [None, column]
        for _ in range(degree - 1):
            table.append(list(map(mul, table[-1], column)))
        powers.append(table)
    ones = [[1] * len(variables[0])]
    columns = []
    for e in monomials(len(variables), degree):
        first, *rest = [table[a] for table, a in zip(powers, e) if a] or ones
        for factor in rest:
            first = list(map(mul, first, factor))
        columns.append(first)
    return columns


def _evaluation_matrix(coords, nvars: int, degree: int):
    """E_t: the degree-t monomials, in ``monomials`` order, evaluated at
    each point, one row per point, built a column at a time
    (``_evaluation_columns``)."""
    variables = [[p[i] for p in coords] for i in range(nvars)]
    return [list(row) for row in zip(*_evaluation_columns(variables, degree))]


def evaluation_rows(points: PointSet, degree: int):
    return _evaluation_matrix(
        [p.coords for p in points], points.ambient_dim + 1, degree
    )


def hilbert_function(points: PointSet, t: int) -> int:
    """HF(t), the rank of the degree-t evaluation matrix, read off the
    set's degree ladder (built on the first profile question and then
    stored), so a set whose ladder is built eliminates nothing."""
    if t < 0:
        raise HadaError("degree must be nonnegative")
    return _ladder(points).value(t)


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
    """The degree ladder of a point set, built on its first profile
    question.

    The ladder lives in the span of the set: ``dim`` is its projective
    dimension r - 1, and ``linear`` = n + 1 - r counts the independent
    linear forms that vanish on the set in its ambient P^n.
    ``values[t]`` is HF(t) for t = 0 .. tau + 1, where ``tau`` is the
    least degree whose value reaches the cardinality, and
    ``generators[t]`` the number of new minimal generators in degree t
    for t = 0 .. tau + 1, the linear forms of the span included.
    ``kernels[t]`` is the canonical kernel basis of E_t for every degree
    t the ladder eliminated, when it did so in the set's own coordinates,
    and [Q] in degree 2 for a product of P^3 whose covers give the
    quadric Q, whose HF(2) is 9 and whose ladder did not eliminate E_2;
    it is empty when the ladder's coordinates are not the set's own.
    """

    cardinality: int
    dim: int
    linear: int
    values: tuple[int, ...]
    tau: int
    generators: tuple[int, ...]
    kernels: dict[int, list]

    def value(self, t: int) -> int:
        """HF(t) in any degree t >= 0."""
        return self.values[t] if t < len(self.values) else self.cardinality


@lru_cache(maxsize=None)
def _s_monomials(n: int, t: int):
    """The degree-t monomials of S = R/(l): those of ``monomials(n + 1, t)``
    not divisible by x0, which close the block."""
    return monomials(n + 1, t)[_divisible_count(n, t) :]


@lru_cache(maxsize=None)
def _product_columns(n: int, s: int, t: int):
    """One table per monomial u of S_(t-s), in ``_s_monomials`` order:
    entry j is the column in S_t of u times monomial j of S_s."""
    index_of = {e: j for j, e in enumerate(_s_monomials(n, t))}
    return tuple(
        tuple(index_of[tuple(a + b for a, b in zip(u, e))] for e in _s_monomials(n, s))
        for u in _s_monomials(n, t - s)
    )


def _multiples(forms, n: int, t: int):
    """The rows u * g on S_t of each form g of S_s, for (s, gs) in
    ``forms`` with s < t and g in gs, and each monomial u of S_(t-s)."""
    size = len(_s_monomials(n, t))
    rows = []
    for s, vectors in forms:
        if s < t:
            for columns in _product_columns(n, s, t):
                for g in vectors:
                    row = [0] * size
                    for j, x in zip(columns, g):
                        row[j] = x
                    rows.append(row)
    return rows


_Pass = namedtuple("_Pass", "values standard basis ys scale")


def _column_pass(lvalues, tails, basis):
    """The ladder's one column pass over the field of ``basis``: the rank
    there of E_t for t = 0 .. d, the least degree where it reaches |X|,
    with the monomials of S kept in each block 0 .. d in the order kept,
    the basis of the kept columns, the columns of y in that field and the
    row scale (None mod p); or None when the prime cannot decide.

    Row p of E_t scaled by 1/l(p)^t holds the affine monomials of degree
    at most t in y = (p1, ..., pn)/l(p), so each degree appends columns.
    A ``ModBasis`` takes them mod p.  An ``_elim.ExactBasis`` takes E_t
    itself, with no fraction: the column of y^e is then p^e, and the
    basis multiplies its rows by D = diag(l(p)) each time the degree
    grows, as the leading columns of E_t are D * E_(t-1).  A monomial
    with a dependent divisor y^a / y_i is dependent and is skipped.  The
    kept monomials of block s are its pivot columns, the rest its free
    columns.  None means some l(p) vanishes mod p, or a degree added no
    column mod p, after which none ever does (two points agree mod p);
    over Q each degree adds one until |X|.
    """
    card, n = len(lvalues), len(tails[0])
    ys, scale, p = [list(column) for column in zip(*tails)], lvalues, None
    if isinstance(basis, _elim.ModBasis):
        p = _elim._PRIME
        if any(lp % p == 0 for lp in lvalues):
            return None
        inverses = [pow(lp, -1, p) for lp in lvalues]
        ys = [[x * inv % p for x, inv in zip(column, inverses)] for column in ys]
        scale = None
    basis.add([1] * card)
    kept = {(0,) * n: [1] * card}
    standard, values = [list(kept)], [1]
    while len(basis) < card:
        if scale:
            basis.scale(scale)
        added = {}
        for e in monomials(n, len(values)):
            divisors = [(i, e[:i] + (a - 1,) + e[i + 1 :]) for i, a in enumerate(e) if a]
            if any(d not in kept for _, d in divisors):
                continue
            i, d = divisors[0]
            pairs = zip(kept[d], ys[i])
            column = [x * y % p for x, y in pairs] if p else [x * y for x, y in pairs]
            if basis.add(column):
                added[e] = column
                if len(basis) == card:
                    break
        if not added:
            return None
        kept = added
        standard.append(list(added))
        values.append(len(basis))
    return _Pass(values, standard, basis, ys, scale)


def _free_column(form) -> int:
    """The free column of a kernel vector of ``_elim.nullspace``: its last
    nonzero entry."""
    return max(j for j, x in enumerate(form) if x)


def _span_coordinates(points: PointSet):
    """The coordinates of the points in their linear span, its projective
    dimension r - 1, and the n + 1 - r linear forms of P^n that cut the
    span out, none when the set spans P^n.

    A set of at least n + 1 points whose coordinate matrix has rank
    n + 1 modulo ``_elim._PRIME`` spans P^n and keeps its coordinates.
    Otherwise the forms are the canonical kernel basis of that matrix
    (``_elim.nullspace``): one form per free column, which is its last
    nonzero entry, zero at every other free column.  Each point keeps its
    pivot coordinates, the columns no form is free in: the forms fix the
    free coordinates of a point of the span from its pivot ones, so this
    projection is injective on the span.  For a set that spans after all
    there is no form and nothing changes.  The forms carry a linear form
    of P^n to the span (``_restricted``).
    """
    n = points.ambient_dim
    coords = [p.coords for p in points]
    if len(coords) > n and _elim._full_rank_mod_prime(coords, n + 1):
        return coords, n, []
    forms = _elim.nullspace(coords, n + 1)
    free = {_free_column(f) for f in forms}
    pivots = [j for j in range(n + 1) if j not in free]
    return [tuple(p[j] for j in pivots) for p in coords], n - len(forms), forms


def _restricted(linear, forms):
    """The linear form of P^n with coefficients ``linear``, restricted to
    the span cut out by ``forms`` (``_span_coordinates``): an integer
    form in the pivot coordinates, a positive multiple of the restriction.
    It is zero when the form vanishes on the span, and ``linear`` itself
    when there are no forms.

    Each form f, with free column j, is zero at the other free columns,
    so w <- f_j * w - w_j * f clears column j of w and no other free
    column, and keeps the values of w on the span, up to the factor
    f_j > 0.  Once every free column is clear, w is a form in the pivot
    coordinates alone."""
    w, free = list(linear), set()
    for f in forms:
        j = _free_column(f)
        free.add(j)
        if w[j]:
            a, b = f[j], w[j]
            w = [a * x - b * y for x, y in zip(w, f)]
    return [x for j, x in enumerate(w) if j not in free]


def _squeeze_ladder(lcoords, n: int, found, kernels):
    """The new minimal generators of J in degrees 0 .. d + 1 of the set in
    its span, for HF(0 .. d) the values of the column pass ``found``; or
    None when values claimed by a pass mod p cannot be squeezed.

    The values of a pass mod p are lower bounds; those of the pass over Z
    (scale given) are exact.  In each degree t < d, the forms found so
    far give the multiples M_t: each form of degree s < t times each
    monomial of S_(t-s).  Where their rank mod p is below dim J_t =
    |S_t| - HF(t) + HF(t - 1), a basis of J_t is taken: mod p the exact
    kernel of E_t (``_exact_forms``, which keeps it in ``kernels``, on the
    rows of the pass's first HF(t) pivots when the other rows agree),
    over Z the pass's relations (``_relations``).  Its vectors that are
    independent of M_t mod p join the forms.  Where the rank still falls
    short, a pass mod p was wrong and None is returned; with exact
    values, the prime failed instead, and every vector joins.  The module
    docstring shows why the values are then exact; ``_counts`` settles
    the count in each degree, dim J_t minus the rank of M_t (at d + 1
    that of S_1 * J_d).
    """
    values, exact = found.values, found.scale is not None
    d = len(values) - 1
    forms, spans = [], []
    for t in range(d + 1):
        rows = _multiples(forms, n, t)
        span = _mod_span(rows)
        dim = len(_s_monomials(n, t)) - values[t] + (values[t - 1] if t else 0)
        spans.append((rows, len(span), dim))
        if t < d and len(span) < dim:
            basis = (
                _relations(t, found) if exact
                else _exact_forms(lcoords, n, t, kernels, found.basis.pivots[: values[t]])
            )
            new = [v for v in basis if span.add(v)]
            if len(span) < dim:
                if not exact:
                    return None
                new = basis
            forms.append((t, new))
    rank, dim = spans[-1][1:]
    top = forms if rank == dim else [(d, _relations(d, found))]
    rows = _multiples(top, n, d + 1)
    spans.append((rows, len(_mod_span(rows)), len(_s_monomials(n, d + 1))))
    if top is forms or exact:
        return _counts(spans, n)
    return _counts(
        spans, n, lambda: _multiples([(d, _exact_forms(lcoords, n, d, kernels))], n, d + 1)
    )


def _counts(spans, n: int, exact_top=None):
    """The new minimal generators of J in degrees 0 .. tau + 1, from
    ``spans``: for each degree t, the rows of M_t (at tau + 1 rows that
    span S_1 * J_tau), their rank mod p and dim J_t.

    The count is dim J_t minus the rank of the rows, taken mod p where
    that rank is exact, at full rows or at dim J_t, and after the Krull
    stop; otherwise ``linalg.rank_of`` takes it.  ``exact_top``, given
    when the rows at tau + 1 hold only mod p, makes integer rows for that
    rank."""
    counts = [dim - rank for _, rank, dim in spans]
    for t, (rows, rank, dim) in enumerate(spans):
        if sum(counts) == n:
            break
        if rank < min(len(rows), dim):
            if exact_top and t == len(spans) - 1:
                rows = exact_top()
            counts[t] = dim - linalg.rank_of(rows, len(rows[0]))
    return counts


def _close(n: int, card: int, covers):
    """HF(0 .. tau) and the generator counts of the set in its span, from
    the covers alone; or None when they do not close.

    In each degree t the covers found so far give the multiples M_t, and
    the covers of degree t that are independent of them mod p join; u(t)
    is |S_t| minus the rank mod p of both.  The module docstring shows
    why, when the first T with u(T) = 0 has u(0) + ... + u(T - 1) = |X|,
    HF(t) = u(0) + ... + u(t), tau = T - 1 and the spans of each degree
    are those ``_counts`` needs; when the sum passes |X| first, None is
    returned.  It never falls short of |X| there: h(t) <= u(t) for every
    t, h(t) = 0 from T on, and the h(t) sum to |X|."""
    forms, spans, values = [], [], []
    for t in count():
        rows = _multiples(forms, n, t)
        span = _mod_span(rows)
        rank = len(span)
        new = [v for v in covers.get(t, ()) if span.add(v)]
        if new:
            forms.append((t, new))
        spans.append((rows, rank, len(span)))
        free = len(_s_monomials(n, t)) - len(span)
        if not free:
            # a sum other than |X| means a cover that is not in I
            return (values, _counts(spans, n)) if values[-1] == card else None
        values.append(free + (values[-1] if t else 0))
        if values[-1] > card:
            return None


def _mod_span(rows):
    """A ``ModBasis`` of the rows."""
    span = _elim.ModBasis()
    for row in rows:
        span.add(row)
    return span


def _exact_forms(lcoords, n: int, t: int, kernels, rows=None):
    """A basis of J_t: the nonzero block-t parts of the canonical kernel
    basis of E_t in l-coordinates, each made primitive (a part keeps the
    common factors of its vector).  The kernel is kept in ``kernels``
    under t and not eliminated again.

    ``rows``, when given, are the points at which the pass's first
    HF(t) kept columns have their ``ModBasis`` pivots.  Those rows of E_t
    are independent, and the kernel is first taken on them alone.  It
    holds the kernel of E_t, and it is that kernel, with the same
    canonical basis, exactly when every other row of E_t annihilates each
    of its vectors; otherwise the kernel of the whole E_t is taken."""
    if t not in kernels:
        matrix = _evaluation_matrix(lcoords, n + 1, t)
        ncols = comb(t + n, n)
        kernel = None
        if rows is not None:
            chosen = set(rows)
            kernel = linalg.kernel_basis([matrix[i] for i in sorted(chosen)], ncols)
            others = [row for i, row in enumerate(matrix) if i not in chosen]
            if any(sum(map(mul, row, v)) for v in kernel for row in others):
                kernel = None
        kernels[t] = linalg.kernel_basis(matrix, ncols) if kernel is None else kernel
    start = _divisible_count(n, t)
    return [_elim._primitive(v[start:]) for v in kernels[t] if any(v[start:])]


def _times(g, s: int, h, r: int, n: int):
    """The product on S_(s+r) of the form g of S_s and the form h of S_r."""
    out = [0] * len(_s_monomials(n, s + r))
    for x, columns in zip(h, _product_columns(n, s, s + r)):
        for j, y in zip(columns, g):
            out[j] += x * y
    return out


def _det3(rows):
    """The determinant of a 3 x 3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _covers(factors, span, n: int, card: int):
    """The cover forms of a product set in degrees up to |X| = ``card``, as
    {t: forms of S_t}, with its Segre quadric, a vector on the monomials
    of R_2, or None; from its two factors (``PointSet._factors``; ({}, None)
    when None), in its span, cut out by the linear forms ``span``
    (``_span_coordinates``).  Only the closure (``_close``) tries them.

    Each factor G that lies in a hyperplane, paired with a factor F none
    of whose points has a zero coordinate, gives forms of degree |F|: the
    products over a in F of a * H_a, for hyperplanes H_a through G, with
    (a * H)(x) = sum of H_i x_i / a_i, in the integer coefficients of
    ``point_hyperplane_coefficients``.  Each vanishes on F * G, as
    (a * H_a)(a * b) = H_a(b) = 0, so it lies in I.  The H_a come from
    the canonical kernel basis of G's coordinate matrix.  In general H_a
    is its first vector for every a, which gives one form.  When the set
    spans P^3 (n = 3 and ``span`` holds no linear form) and G lies on a
    line, the kernel has two vectors H1 and H2, and the per-point choices
    a_i * H1 for i < k and a_i * H2 for i >= k give |F| + 1 forms,
    k = |F| .. 0, each the product of a shared prefix and suffix.  The image in S of a
    form is the product of its a * H_a restricted to the span
    (``_restricted``) and then to x0 = 0, each made primitive, hence
    primitive (Gauss's lemma).  A hyperplane that contains the span makes
    its form vanish there, and the factor's forms are left out.
    Otherwise, with c = 0, x0 vanishes at no product point, so no
    restricted a * H is {x0 = 0} and no form is zero.  No degree above
    |X| is needed, as tau + 1 <= |X|.

    When the set spans P^3 and both factors lie on lines, the first two
    points p, q of F and r, s of G give the integer matrix A with columns
    p * r, p * s, q * r and q * s.  Each point of F * G is
    (lam p + mu q) * (nu r + rho s) = A w, w = (lam nu, lam rho, mu nu,
    mu rho), and w0 w3 = w1 w2.  When det A != 0, z = adj(A) x is det A
    times w there, so the quadric Q = z0 z3 - z1 z2 vanishes on the set.
    It is kept primitive with its last nonzero entry positive, and the
    terms of Q free of x0 join the covers of degree 2.  As the columns
    of A span every point of the set, det A != 0 whenever it spans P^3.
    Q is the non-degenerate quadric of the paper's P^3 theorem (Bocci,
    Carlini & Kileel, *Hadamard products of linear spaces*, J. Algebra
    448, 2016).  On Q, a P^1 x P^1, each a * H_a cuts the line a * G of
    one ruling and a line of the other, so the per-point forms of F
    restrict to forms f * g, g in H^0(O(0, |F|)), with f the union of the
    lines a * G, a in F; that is what lets Q and the forms of both
    factors close the bound (``_close``).
    """
    covers, quadric = {}, None
    if factors is None:
        return covers, quadric
    kernels = [_elim.nullspace([b.coords for b in g], g.ambient_dim + 1) for g in factors]
    spans_p3 = n == 3 and not span
    for f, kernel in zip(factors, kernels[::-1]):
        if not kernel or len(f) > card or any(0 in a.coords for a in f):
            continue
        planes = kernel if spans_p3 and len(kernel) == 2 else kernel[:1]
        linears = [
            [_restricted(point_hyperplane_coefficients(a.coords, h), span) for a in f]
            for h in planes
        ]
        if not all(map(any, linears[0])):
            continue
        lines = [[_elim._primitive(w[1:]) for w in ws] for ws in linears]
        top = len(f)
        prefixes = [[1]]
        for s, w in enumerate(lines[0]):
            prefixes.append(_times(prefixes[-1], s, w, 1, n))
        forms = covers.setdefault(top, [])
        forms.append(prefixes[top])
        suffix = [1]
        for k in range(top - 1, -1, -1) if len(lines) == 2 else ():
            suffix = _times(suffix, top - 1 - k, lines[1][k], 1, n)
            forms.append(_times(prefixes[k], k, suffix, top - k, n))
    if spans_p3 and all(len(kernel) == 2 for kernel in kernels):
        (p, q), (r, s) = (g.points[:2] for g in factors)
        columns = [[x * y for x, y in zip(a.coords, b.coords)] for a in (p, q) for b in (r, s)]
        # row i of adj(A) holds the cofactors of column i of A
        adj = [
            [(-1) ** (i + j) * _det3([c[:j] + c[j + 1 :] for c in columns[:i] + columns[i + 1 :]])
             for j in range(4)]
            for i in range(4)
        ]
        # det A, expanded along its first column
        if sum(map(mul, adj[0], columns[0])):
            a, b, c, d = adj
            # the coefficient of x_j x_k, j <= k, in monomial order
            quadric = _elim._primitive([
                a[j] * d[k] - b[j] * c[k] + (a[k] * d[j] - b[k] * c[j] if j < k else 0)
                for j in range(4) for k in range(j, 4)
            ])
            if next(x for x in reversed(quadric) if x) < 0:
                quadric = [-x for x in quadric]
            quadric = tuple(quadric)
            covers.setdefault(2, []).append(_elim._primitive(quadric[_divisible_count(3, 2) :]))
    return covers, quadric


def _relations(t: int, found):
    """A basis of J_t from the pass ``found``, over its field: for each
    monomial f of block t that the pass did not keep, the block-t part of
    the relation ``solve`` gives for the column of f, a kernel vector of
    E_t that is zero at the other free columns, made primitive (mod p it
    is 1 at f).  Its entries at the kept monomials of block t are the
    relation's at the vectors the pass kept in block t.  Over Z the
    column of f is multiplied by D^(d-t), the scale of the basis in the
    pass's last degree d."""
    kept = found.standard[t]
    start = found.values[t] - len(kept)
    block = monomials(len(found.ys), t)
    factors = found.scale and [x ** (len(found.values) - 1 - t) for x in found.scale]
    vectors = []
    for f, column in zip(block, _evaluation_columns(found.ys, t)):
        if f not in kept:
            relation = found.basis.solve(list(map(mul, column, factors)) if factors else column)
            coeffs = dict(zip(kept, relation[start:]))
            entries = [relation[-1] if e == f else coeffs.get(e, 0) for e in block]
            vectors.append(_elim._primitive(entries))
    return vectors


def _ladder(points: PointSet) -> _Ladder:
    """The degree ladder of the set, built on first use and then read
    from the set.

    The ladder is built in the span of the set (``_span_coordinates``),
    P^(r-1), which the module docstring shows changes no answer.  When
    c = 0, the covers of a product set (``_covers``) are built once, in
    that span, and tried alone: when they close the bound (``_close``),
    HF, tau and the counts follow with no pass and no kernel.  Otherwise
    the covers are dropped, ``_column_pass`` finds d and HF mod p, and
    ``_squeeze_ladder`` squeezes HF between them and the multiples of
    the forms of exact kernels, and counts the generators.  When the pass
    cannot decide, or the squeeze fails, the same pass over Z gives HF,
    and the same loop, on those values and the pass's relations, only
    counts.  Every path counts in ``_counts``, and on every path
    HF(tau + 1) is then read off the rank of the full E_(tau+1), its
    columns in ascending monomial order so that its certificate walks
    the l-free columns first; the module docstring says why that is |X|
    and why the rank stays for now.  Every exact kernel the squeeze took
    is kept, by degree, for ``degree_bounded_ideal`` when l-coordinates
    are the set's own (c = 0 and the set spans its P^n); when E_2 was
    not eliminated, the quadric Q of the covers stands in for its kernel
    when it spans I_2.
    """
    if points._ladder is not None:
        return points._ladder
    coords, n, span = _span_coordinates(points)
    card = len(coords)
    c = _linear_form_parameter(coords)
    # x0 -> l is unimodular (triangular, unit diagonal): ranks are kept and
    # l becomes the first variable
    lvalues = [_linear_form_value(c, p) for p in coords]
    tails = [p[1:] for p in coords]
    lcoords = [(lp,) + tail for lp, tail in zip(lvalues, tails)]
    linear = len(span)
    covers, quadric = ({}, None) if c else _covers(points._factors, span, n, card)
    kernels = {}
    closed = covers and _close(n, card, covers)
    if closed:
        values, counts = closed
    else:
        found = _column_pass(lvalues, tails, _elim.ModBasis())
        counts = found and _squeeze_ladder(lcoords, n, found, kernels)
        if not counts:
            found = _column_pass(lvalues, tails, _elim.ExactBasis())
            counts = _squeeze_ladder(lcoords, n, found, kernels)
        values = found.values
    counts[1] += linear
    tau = len(values) - 1
    # the columns in ascending monomial order, the l-free ones first: the
    # rank is the same, and its certificate walks them in that order
    top = [row[::-1] for row in _evaluation_matrix(lcoords, n + 1, tau + 1)]
    values.append(linalg.rank_of(top, comb(tau + 1 + n, n)))
    if c or linear:
        kernels = {}
    elif quadric and values[2] == 9:
        # dim I_2 = 1, so I_2 is spanned by Q, the vector its kernel gives
        kernels.setdefault(2, [quadric])
    points._ladder = _Ladder(
        cardinality=card,
        dim=n,
        linear=linear,
        values=tuple(values),
        tau=tau,
        generators=tuple(counts),
        kernels=kernels,
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


def degree_bounded_ideal(points: PointSet, t: int):
    """Canonical basis of the degree-t forms vanishing on the set.

    The kernel of E_t of the points, or, when the set's stored ladder
    keeps a kernel of E_t (``_Ladder.kernels``), that same kernel read
    from it.
    """
    if t < 0:
        raise HadaError("degree must be nonnegative")
    nvars = points.ambient_dim + 1
    ladder = points._ladder
    kernel = ladder and ladder.kernels.get(t)
    if kernel is None:
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
    degree, through ``max_degree`` = tau + 1."""

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


def generator_profile(points: PointSet) -> GeneratorProfile:
    """Count minimal generators per degree, through tau + 1.

    The count is taken in the Artinian reduction S = R/(l) of the
    module docstring when the degree ladder is built, and stored with
    it, so a later question of the same set eliminates nothing.
    Because l is a nonzerodivisor on R/I, these are the minimal
    generator counts of I itself (Eisenbud, *The Geometry of
    Syzygies*, 2005, ch. 4).  Ideals of finite point sets are generated
    in degrees up to tau + 1; above it the count is zero.
    """
    n = points.ambient_dim
    ladder = _ladder(points)
    max_degree = ladder.tau + 1
    entries = tuple(
        GeneratorDegree(
            degree=t,
            ideal_dim=comb(t + n, n) - ladder.value(t),
            new_generators=ladder.generators[t],
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
