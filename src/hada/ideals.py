"""Hilbert functions and ideal invariants of finite point sets.

Everything reduces to exact linear algebra on evaluation matrices E_t,
the degree-t monomials evaluated at the points: HF(t) is the rank of
E_t and the degree-t part I_t of the vanishing ideal is its kernel.  No
Groebner machinery is involved; for finite point sets the evaluation
matrix is the definition.

Questions about a whole profile (``hilbert_profile``,
``generator_profile``, ``ci_verdict``, ``hf_product_check``) share one
per-set degree ladder that eliminates each E_t once, forward only:

* choose l = x0 + c*x1 + ... + c^n*xn with the least c >= 0 for which
  l vanishes at no point.  Each point rules out at most n values of c.
  Such an l is a nonzerodivisor on R/I, so R/I and its Artinian
  reduction R/(I, l) have the same graded Betti numbers (Eisenbud,
  *The Geometry of Syzygies*, 2005, ch. 4);
* change coordinates by the unimodular map x0 -> l, so that l is the
  first variable.  Monomials are in descending lex order, so the
  l-divisible columns of E_t come first and the last columns are the
  monomials of S = R/(l), a ring with one variable fewer;
* the l-divisible columns of E_t, in order, are l times the degree-(t-1)
  monomials, so they equal D * E_(t-1) with D = diag(l(p)).  D is an
  invertible row scaling, so only the pivot columns of E_(t-1) can
  carry rank: the ladder eliminates E'_t = [D * E'_(t-1)[:, pivots] |
  degree-t monomials of S], with E'_0 = E_0.  E'_t has the column space
  of E_t (by induction), hence its rank, the pivots among the S columns
  and the S-parts of the row vectors that vanish on the first block;
  it has HF(t-1) + C(t+n-1, n-1) columns instead of C(t+n, n).  The row
  of a point p in degree t is l(p) times its pivot entries in degree
  t-1, followed by the degree-t monomials of S evaluated at
  (p1, ..., pn); only those last columns are evaluated afresh;
* the echelon rows of E'_t whose pivot lies among the S columns,
  restricted to those columns, form a matrix Z_t whose kernel J_t is
  the image of I_t in S_t.  It has the row space of the Z_t that the
  full E_t would give, so the canonical kernel basis of J_t does not
  depend on the narrowing;
* minimal generators of I in degree t are then minimal generators of
  J = (I + l)/l, counted as dim J_t minus the rank of S_1 * J_(t-1).
  That span lies in J_t = ker Z_t, and Z_t is in echelon form, so its
  projection onto the free (non-pivot) columns of Z_t is injective:
  the rank is taken on those dim J_t columns alone.  In a degree with
  no new generator the projected matrix has full column rank, which
  ``hada._elim.rank`` certifies modulo a prime.  Beyond the regularity
  index tau, J_(tau+1) = S_(tau+1) (every column is free) and no
  generator is new in any higher degree.

The ladder of a set is built on the first profile question asked of
it, always up to tau (at most |X| - 1), and stored on the
``PointSet``; later questions, bounded ones included, read the stored
ladder.  The generator counts through tau + 1 are stored on the ladder
by the first generator question, so a ``ci_verdict`` after a
``generator_profile`` computes no kernel and no span rank again.
Storing both is safe: a ``PointSet`` is never mutated, and the
Hilbert function and the generator counts do not depend on the order
of the points.  The ladder still confirms HF(tau + 1) = |X| with one
rank of the full E_(tau+1) (certified modulo a prime when its entries
are that wide), although that cannot fail: the l-divisible columns of
E_(tau+1) are D * E_tau with D = diag(l(p)) invertible, so the rank
stays |X|.  The benchmark's tracer test
(``perfbench/tests/test_perfbench.py``) asserts the shape of that
rank, so dropping it waits for a change to the benchmark.

Single-degree questions (``hilbert_function``, ``ideal_dimension``,
``degree_bounded_ideal``) eliminate E_t of the given points directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional

from . import linalg
from .errors import HadaError
from .forms import HomogeneousForm, evaluate_monomial, monomials
from .projective import PointSet


def _evaluation_matrix(coords, nvars: int, degree: int):
    monos = monomials(nvars, degree)
    return [[evaluate_monomial(e, p) for e in monos] for p in coords]


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
    """One forward elimination per degree of a point set.

    ``values[t]`` is HF(t) for t = 0 .. tau + 1, where ``tau`` is the
    least degree whose value reaches the cardinality.  ``reduced[t]``
    holds the rows of Z_t, whose kernel is J_t, and ``free[t]`` the
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


def _ladder(points: PointSet) -> _Ladder:
    """The degree ladder of the set, eliminated on first use and then
    read from the set.

    E'_t is built from the pivot columns of E'_(t-1) as the module
    docstring describes and eliminated once for t = 0 .. tau.
    HF(tau + 1) = |X| is then confirmed by a rank of the full E_(tau+1);
    the module docstring says why that cannot fail and why it stays for
    now.
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
    values: list[int] = []
    reduced = []
    free = []
    matrix = [[1] for _ in points]
    pivots: list[int] = []
    t = 0
    while True:
        split = len(pivots)
        if t:
            # E'_t = [diag(l(p)) * E'_(t-1)[:, pivots] | degree-t monomials of S]
            s_monos = monomials(n, t)
            matrix = [
                [lp * row[j] for j in pivots]
                + [evaluate_monomial(e, tail) for e in s_monos]
                for lp, tail, row in zip(lvalues, tails, matrix)
            ]
        width = len(matrix[0])
        rank, pivots, rows = linalg.echelon_of(matrix, width)
        values.append(rank)
        reduced.append([row[split:] for row, col in zip(rows, pivots) if col >= split])
        z_pivots = {col - split for col in pivots if col >= split}
        free.append(tuple(j for j in range(width - split) if j not in z_pivots))
        if rank == card:
            break
        if t > 0 and rank <= values[t - 1]:
            raise HadaError("Hilbert function failed to increase strictly")
        t += 1
    values.append(hilbert_function(points, t + 1))
    if values[-1] != card:
        raise HadaError("Hilbert function failed to stay at the cardinality")
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
    hf = [comb(e.degree + n, n) - e.ideal_dim for e in gens.entries[:bound]]
    h_vector = [hf[0]] + [b - a for a, b in zip(hf, hf[1:])]
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
