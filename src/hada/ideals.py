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
  That span lies in J_t = ker Z_t, and Z_t is in echelon form, so its
  projection onto the free (non-pivot) columns of Z_t is injective:
  the rank is taken on those dim J_t columns alone.  In a degree with
  no new generator the projected matrix has full column rank, which
  ``hada._elim.rank`` certifies modulo a prime.  Beyond the regularity
  index tau, J_(tau+1) = S_(tau+1) (every column is free) and no
  generator is new in any higher degree.

The degree d is found modulo the prime p = ``_elim._PRIME``.  Scaling
the row of p by 1/l(p)^d turns E_d into the affine monomials of degree
at most d in y = (p1, ..., pn)/l(p), so E_t grows from E_(t-1) by
appending columns, and a pass over GF(p) adds them one degree at a time
to an ``_elim.ModBasis``.  The independent columns, taken in term
order, are the standard monomials of the reduced points (Moeller &
Buchberger, 1982) and form an order ideal, so a monomial with a
dependent divisor is dependent and is skipped.  The pass stops at the first degree of rank |X| mod p; rank
mod p is at most rank over Q, so HF is |X| there and d >= tau.  It
cannot decide when some l(p) vanishes mod p, or when a degree adds no
column, which happens when two points agree mod p (none is added
afterwards).  Then d starts at the least t with C(t+n, n) >= |X| and
rises by one until the exact pivots reach |X|.  Every value, kernel and
count comes from the exact elimination; the prime only chooses which
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


def _shift_vector(vector, monos_from, index_of, var):
    """The vector times the variable ``var``, on the monomials in
    ``index_of``; coefficients of other monomials are dropped."""
    out = [0] * len(index_of)
    for coeff, expo in zip(vector, monos_from):
        if coeff:
            e = list(expo)
            e[var] += 1
            i = index_of.get(tuple(e))
            if i is not None:
                out[i] += coeff
    return out


def _generator_counts(ladder: _Ladder, n: int) -> tuple[int, ...]:
    """New minimal generators in degrees 0 .. tau + 1, counted once per
    ladder and stored on it.

    New generators in degree t are dim J_t minus the rank of the span
    of (variable of S times J_(t-1)).  The span lies in J_t, so its rank
    is taken on the dim J_t free columns of Z_t, where the projection is
    injective.  J_(tau+1) = S_(tau+1): every column is free.
    """
    if ladder.generators is not None:
        return ladder.generators
    nvars = n + 1
    counts = []
    prev_basis: list = []
    prev_monos = ()
    for t in range(ladder.tau + 2):
        s_monos = monomials(nvars, t)[_divisible_count(n, t) :]
        free = ladder.free[t] if t <= ladder.tau else range(len(s_monos))
        span_rank = 0
        if prev_basis:
            index_of = {s_monos[j]: i for i, j in enumerate(free)}
            span_rows = [
                _shift_vector(v, prev_monos, index_of, var)
                for v in prev_basis
                for var in range(1, nvars)
            ]
            span_rank = linalg.rank_of(span_rows, len(free))
        counts.append(len(free) - span_rank)
        if t <= ladder.tau:
            prev_basis = linalg.kernel_basis(ladder.reduced[t], len(s_monos))
            prev_monos = s_monos
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
