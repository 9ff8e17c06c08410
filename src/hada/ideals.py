"""Hilbert functions and ideal invariants of finite point sets.

Everything reduces to exact linear algebra on evaluation matrices E_t,
the degree-t monomials evaluated at the points: HF(t) is the rank of
E_t and the degree-t part I_t of the vanishing ideal is its kernel.  No
Groebner machinery is involved; for finite point sets the evaluation
matrix is the definition.

Questions about a whole profile (``hilbert_profile``,
``generator_profile``, ``ci_verdict``, ``hf_product_check``) share one
per-set degree ladder, read off a single forward elimination:

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
* the remainder certificate.  Z_(t-1) is in echelon form, so its RREF
  over Q is U^(-1) * Z_(t-1), U the triangular block at its pivot
  columns.  When no pivot entry vanishes modulo p = ``_elim._PRIME``,
  that RREF mod p, and with it the kernel basis scaled to 1 at each free
  column, is the reduction of the one over Q: a basis of J_(t-1) over
  the integers localised at p.  The rank mod p of a matrix over that
  ring is at most its rank over Q.  The shifts x_i * v_f lead at
  x_i * f with entry 1, so one shift per monomial of S_1 * F_(t-1) is a
  triangular set T of rank |S_1 * F_(t-1)|, and every combination of the
  other shifts whose remainder against T is independent mod p of the
  remainders before it adds one to that rank.  The certificate is not
  tried where |F_t| > n * |F_(t-1)|: there the span has fewer rows than
  columns, so the count is positive.  Remainders could lower its bound
  but not settle it, and on the not-CI grids, where this happens at
  tau + 1, they would only add cost;
* the exact count.  A degree still open takes the exact kernel of
  Z_(t-1) and the rank of its shifts.  That span lies in J_t = ker Z_t,
  and Z_t is in echelon form, so its projection onto the free columns of
  Z_t is injective: the rank is taken on those dim J_t columns alone,
  by ``linalg.rank_of``.

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
agree mod p (none is added afterwards).  Then d starts at the least t with C(t+n, n) >= |X| and
rises by one until the exact pivots reach |X|.  Every Hilbert value and
every Z_t comes from the exact elimination; the prime only chooses which
matrix it eliminates, so it cannot change an answer.

The ladder of a set is built on the first profile question asked of
it and stored on the ``PointSet``; later questions, bounded ones
included, read the stored ladder.  The generator counts through
tau + 1 are stored on the ladder by the first generator question, so a
``ci_verdict`` after a ``generator_profile`` computes no kernel and no
span rank again.  Storing both is safe: a ``PointSet`` is never
mutated, and the Hilbert function and the generator counts do not
depend on the order of the points.

The ladder needs no consistency checks.  HF rises strictly until it
reaches |X|: its first differences are the h-vector of the Artinian
reduction R/(I, l), a standard graded algebra, which has no internal
zeros (once it is zero in degree t it is zero above, as it is generated
in degree 1).  So tau <= |X| - 1.  The ladder still stores
HF(tau + 1) from one rank of the full E_(tau+1) (certified modulo a
prime when its entries are that wide), although that rank is |X|: the
l-divisible columns of E_(tau+1) are D * E_tau with D invertible.  The
benchmark's tracer test (``perfbench/tests/test_perfbench.py``)
asserts the shape of that rank, so dropping it waits for a change to
the benchmark.

Single-degree questions (``hilbert_function``, ``ideal_dimension``,
``degree_bounded_ideal``) eliminate E_t of the given points directly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
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


def _linear_form_parameter(points: PointSet) -> int:
    """Least c >= 0 such that l_c vanishes at no point of the set.

    l_c(p) is a nonzero polynomial of degree at most n in c, so each
    point rules out at most n values and the search stops by n*|X|.
    """
    c = 0
    while any(_linear_form_value(c, p.coords) == 0 for p in points):
        c += 1
    return c


@dataclass
class _Ladder:
    """The degree ladder of a point set, read off one elimination.

    ``values[t]`` is HF(t) for t = 0 .. tau + 1, where ``tau`` is the
    least degree whose value reaches the cardinality.  ``reduced[t]``
    holds the rows of Z_t, whose kernel is J_t, each primitive (a slice
    of an echelon row keeps the common factors of the whole row, which
    would only be carried and divided out again), and ``free[t]`` the
    columns of Z_t that hold no pivot, for t <= tau.  ``generators[t]``
    is the number of new minimal generators in degree t for
    t = 0 .. tau + 1; it is counted on the first generator question
    and None until then.
    """

    cardinality: int
    values: tuple[int, ...]
    tau: int
    reduced: tuple[list, ...]
    free: tuple[tuple[int, ...], ...]
    generators: Optional[tuple[int, ...]] = None

    def value(self, t: int) -> int:
        """HF(t) in any degree t >= 0."""
        return self.values[t] if t < len(self.values) else self.cardinality


def _modular_degree(lvalues, tails) -> Optional[int]:
    """Least t with rank E_t = |X| modulo ``_elim._PRIME``, or None when
    the prime cannot decide.

    Row p of E_t scaled by 1/l(p)^t holds the affine monomials of degree
    at most t in y = (p1, ..., pn)/l(p), so each degree appends columns.
    A monomial with a dependent divisor y^a / y_i is dependent and is
    skipped.  None means some l(p) vanishes mod p, or a degree added no
    column, after which none ever does (two points agree mod p).
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
    return t


def _ladder(points: PointSet) -> _Ladder:
    """The degree ladder of the set, eliminated on first use and then
    read from the set.

    One forward echelon of E_d in l-coordinates, d >= tau, gives HF(t),
    Z_t and the free columns of Z_t for every t <= tau, as the module
    docstring describes.  Each row of Z_t is stored primitive; dividing
    a row by a constant keeps the row space, so J_t does not change.
    ``_modular_degree`` picks d; when it cannot decide, d starts at the
    least degree with at least |X| monomials and rises until the exact
    rank is |X|.  HF(tau + 1) is then read off a rank of the full
    E_(tau+1); the module docstring says why that is |X| and why the
    rank stays for now.
    """
    if points._ladder is not None:
        return points._ladder
    n = points.ambient_dim
    card = len(points)
    c = _linear_form_parameter(points)
    # x0 -> l is unimodular (triangular, unit diagonal): ranks are kept and
    # l becomes the first variable
    lvalues = [_linear_form_value(c, p.coords) for p in points]
    tails = [p.coords[1:] for p in points]
    coords = [(lp,) + tail for lp, tail in zip(lvalues, tails)]
    d = _modular_degree(lvalues, tails)
    if d is None:
        d = next(t for t in range(card) if comb(t + n, n) >= card)
    while True:
        rank, pivots, rows = linalg.echelon_of(
            _evaluation_matrix(coords, n + 1, d), comb(d + n, n)
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
    values.append(hilbert_function(points, t + 1))
    points._ladder = _Ladder(
        cardinality=card,
        values=tuple(values),
        tau=t,
        reduced=tuple(reduced),
        free=tuple(free),
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
    """Canonical basis of the degree-t forms vanishing on the set."""
    if t < 0:
        raise HadaError("degree must be nonnegative")
    nvars = points.ambient_dim + 1
    monos = monomials(nvars, t)
    kernel = linalg.kernel_basis(evaluation_rows(points, t), len(monos))
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


def _positions(free, ncols):
    """Index of each column in ``free``, -1 for the columns not in it."""
    position = [-1] * ncols
    for k, j in enumerate(free):
        position[j] = k
    return position


def _modular_kernel(rows, free, ncols):
    """The RREF kernel of Z modulo ``_elim._PRIME``, or None when some
    pivot entry of Z vanishes mod p.

    Z is in echelon form, so its RREF over Q is U^(-1) * Z with U the
    triangular block at the pivot columns, whose denominators divide the
    product of the pivot entries.  When none of them vanishes mod p the
    RREF mod p is the reduction of the RREF over Q, and so is the kernel
    vector v_f of each free column f, scaled to 1 at f.  Vector f is
    returned as its (pivot column, entry) pairs with a nonzero entry.
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
    return [[(c, -row[f] % p) for row, c in zip(red, pivots) if row[f]] for f in free]


def _independent_remainders(ladder: _Ladder, n: int, t: int, free_t, need: int) -> int:
    """A lower bound, at most ``need``, on rank(S_1 * J_(t-1)) minus
    |S_1 * F_(t-1)|, found modulo ``_elim._PRIME``; 0 when some pivot
    entry of Z_(t-1) vanishes mod p.

    The shifts x_i * v_f of the kernel vectors of Z_(t-1) mod p are
    taken on the columns ``free_t`` of Z_t.  x_i * v_f leads at x_i * f,
    with entry 1, so one shift per monomial of S_1 * F_(t-1) gives a
    triangular set T of independent vectors.  Deterministic combinations
    of the other shifts are reduced against T, one at a time, and their
    remainders, which vanish at the leads of T, are added to a
    ``ModBasis``; the count stops at the first dependent remainder or at
    ``need``.  Each one found raises the rank mod p, which is at most
    the rank over Q.
    """
    p = _elim._PRIME
    prev = ladder.free[t - 1]
    kernel = _modular_kernel(ladder.reduced[t - 1], prev, len(_s_monomials(n, t - 1)))
    if kernel is None:
        return 0
    position = _positions(free_t, len(_s_monomials(n, t)))
    triangular = {}
    others = []
    for f, tail in zip(prev, kernel):
        for table in _shift_columns(n, t):
            lead = position[table[f]]
            rest = [(position[table[c]], v) for c, v in tail if position[table[c]] >= 0]
            if lead in triangular:
                others.append([(lead, 1)] + rest)
            else:
                triangular[lead] = rest
    leads = sorted(triangular, reverse=True)
    outside = [k for k in range(len(free_t)) if k not in triangular]
    basis = _elim.ModBasis()
    for g in range(2, 2 + need):
        w = [0] * len(free_t)
        c = 1
        for shift in others:
            c = c * g % p
            for k, v in shift:
                w[k] += c * v
        # the leads of T, last column first: a subtraction touches only
        # columns left of its lead
        for lead in leads:
            x = w[lead] % p
            if x:
                for k, v in triangular[lead]:
                    w[k] -= x * v
        if not basis.add([w[k] for k in outside]) or len(basis) == need:
            break
    return len(basis)


def _span_rank(ladder: _Ladder, n: int, t: int, free_t) -> int:
    """Exact rank of S_1 * J_(t-1), taken on the columns ``free_t`` of
    Z_t, where the projection from J_t is injective."""
    position = _positions(free_t, len(_s_monomials(n, t)))
    tables = _shift_columns(n, t)
    rows = []
    for v in linalg.kernel_basis(ladder.reduced[t - 1], len(_s_monomials(n, t - 1))):
        for table in tables:
            row = [0] * len(free_t)
            for j, coeff in enumerate(v):
                if coeff and position[table[j]] >= 0:
                    row[position[table[j]]] += coeff
            rows.append(row)
    return linalg.rank_of(rows, len(free_t))


def _generator_counts(ladder: _Ladder, n: int) -> tuple[int, ...]:
    """New minimal generators in degrees 0 .. tau + 1, counted once per
    ladder and stored on it.

    The count in degree t is |F_t| minus the rank of S_1 * J_(t-1),
    with F_t the free columns of Z_t (all of S_(tau+1) at t = tau + 1).
    Each step below runs only in the degrees the ones before leave open;
    the module docstring gives the arguments:

    * the bound b(t) = |F_t| - |S_1 * F_(t-1)| caps each count with no
      elimination, since F_t is the degree-t part of in(J).  A degree
      with b(t) = 0 or F_(t-1) empty (no span) is settled;
    * J needs at least n generators (Krull), so once the upper bounds
      sum to n every one is exact;
    * where |F_t| <= n * |F_(t-1)|, ``_independent_remainders`` raises
      the rank mod p by the remainders it finds independent, which
      lowers the bound by as much: the kernel of Z_(t-1) mod p reduces a
      basis of J_(t-1) when no pivot entry of Z_(t-1) vanishes mod p,
      and rank mod p is at most rank over Q;
    * a degree still open, while the bounds exceed n, takes the exact
      span rank (``_span_rank``).
    """
    if ladder.generators is not None:
        return ladder.generators
    top = ladder.tau + 1
    free = ladder.free + (tuple(range(len(_s_monomials(n, top)))),)
    counts = [len(free[0])]
    for t in range(1, top + 1):
        leads = {table[f] for table in _shift_columns(n, t) for f in free[t - 1]}
        counts.append(len(free[t]) - len(leads))
    unsettled = [t for t in range(1, top + 1) if counts[t] and free[t - 1]]
    for t in unsettled:
        if sum(counts) == n:
            break
        if len(free[t]) <= n * len(free[t - 1]):
            counts[t] -= _independent_remainders(ladder, n, t, free[t], counts[t])
    for t in unsettled:
        if sum(counts) == n:
            break
        if counts[t]:
            counts[t] = len(free[t]) - _span_rank(ladder, n, t, free[t])
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
    counts = _generator_counts(ladder, n)
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
