"""Lines, grids and quadrics in projective 3-space.

A line is stored as an ordered pair of planes, because every
hypothesis in this part of the theory is phrased through the dual
points of those planes, together with its dual Plücker vector: the six
2x2 minors q_ij = a_i*b_j - a_j*b_i of the plane pair (a; b), in the
canonical form points have (``hada.projective.primitive_vector``).
That vector names the line whatever pair is given, and
every line-line question is a closed form in it (Hodge & Pedoe,
*Methods of Algebraic Geometry* I, 1947, ch. VII; Pottmann & Wallner,
*Computational Line Geometry*, 2001, ch. 2): two lines are equal when
their vectors are, and they meet when the pairing of the vectors,
which is det[a; b; a'; b'], vanishes.

Products of a point with a line intersect the two transformed planes;
products of two finite collinear sets form a grid exactly when a 4x4
rank condition holds for every cross pair, and the grid then lies on a
quadric carrying the two rulings of product lines.  The quadric
itself, and any degree-bounded part of the ideal of a product of two
lines, is recovered exactly from the products of a (d+1) x (d+1) grid
of points on the two lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import linalg, sampling
from .errors import (
    DimensionMismatch,
    GridConditionError,
    HadaError,
    MembershipError,
    SamplingError,
    StratumError,
)
from .forms import HomogeneousForm
from .ideals import degree_bounded_ideal
from .projective import (
    UNDEFINED,
    Hyperplane,
    PointSet,
    ProjPoint,
    hadamard_points,
    pairwise_products,
    point_hyperplane_product,
    primitive_vector,
)

# Highest degree variety_product_interpolate accepts; the evaluation
# matrix has (d+1)^2 rows and C(d+3, 3) columns.
MAX_IMPLICIT_DEGREE = 6


# Index pairs (i, j) of the Plücker coordinates q_ij, in the order of Line3.q.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_POSITION = {pair: n for n, pair in enumerate(_PAIRS)}


def _minor(q, i: int, j: int) -> int:
    """q_ij for any i != j, with q_ji = -q_ij."""
    return q[_POSITION[i, j]] if i < j else -q[_POSITION[j, i]]


def _pairing(q, r) -> int:
    """The Plücker pairing sum of +-q_ij * r_kl over complementary pairs
    {i, j}, {k, l}: up to the scale of q and r, det[a; b; a'; b']."""
    return (
        q[0] * r[5] - q[1] * r[4] + q[2] * r[3]
        + q[3] * r[2] - q[4] * r[1] + q[5] * r[0]
    )


def _proportional(u, v) -> bool:
    """True when the nonzero vector ``v`` is a multiple of the nonzero
    vector ``u``."""
    i = next(i for i, x in enumerate(u) if x)
    return all(x * v[i] == y * u[i] for x, y in zip(u, v))


def _product_plucker(q, p: ProjPoint) -> list:
    """q o (p_i p_j): the Plücker vector, up to scale, of the product of
    the point p with the line of dual Plücker vector q."""
    c = p.coords
    return [x * c[i] * c[j] for x, (i, j) in zip(q, _PAIRS)]


class Line3:
    """A line in P^3 as an ordered pair of distinct planes.

    ``q`` is the dual Plücker vector of the pair (a; b) of plane duals:
    q_ij = a_i*b_j - a_j*b_i over the pairs 01, 02, 03, 12, 13, 23, in the
    canonical form of ``hada.projective.primitive_vector``: primitive,
    with its first nonzero entry positive.  It is zero exactly
    when the planes coincide, and any other pair of planes through the
    line scales it by a nonzero constant, so it identifies the line.
    """

    __slots__ = ("h", "k", "q", "_basis")

    def __init__(self, h: Hyperplane, k: Hyperplane):
        if h.ambient_dim != 3 or k.ambient_dim != 3:
            raise DimensionMismatch("plane pair must live in P^3")
        a, b = h.dual.coords, k.dual.coords
        q = [a[i] * b[j] - a[j] * b[i] for i, j in _PAIRS]
        if not any(q):
            raise HadaError("planes coincide; they do not cut out a line")
        self.h = h
        self.k = k
        self.q = primitive_vector(q)
        self._basis = None

    @property
    def duals(self) -> tuple[ProjPoint, ProjPoint]:
        return self.h.dual, self.k.dual

    def contains(self, p: ProjPoint) -> bool:
        return self.h.contains(p) and self.k.contains(p)

    def _cramer_vectors(self) -> list[list[int]]:
        """Two independent integer vectors of the line, by Cramer's rule on
        the dual matrix [a; b], before canonical form.

        The reduced echelon form of [a; b] has its pivots in the first
        nonzero column c1 and the first column c2 > c1 with q_(c1 c2)
        nonzero.  The kernel vector of a free column f has x_f = q_(c1 c2),
        x_c1 = -q_(f c2), x_c2 = -q_(c1 f) and zeros elsewhere; the
        free columns come in increasing order.
        """
        a, b = self.h.dual.coords, self.k.dual.coords
        q = self.q
        c1 = next(i for i in range(4) if a[i] or b[i])
        c2 = next(j for j in range(c1 + 1, 4) if _minor(q, c1, j))
        vectors = []
        for f in range(4):
            if f in (c1, c2):
                continue
            x = [0] * 4
            x[f] = _minor(q, c1, c2)
            x[c1] = -_minor(q, f, c2)
            x[c2] = -_minor(q, c1, f)
            vectors.append(x)
        return vectors

    def basis_points(self) -> tuple[ProjPoint, ProjPoint]:
        """The kernel basis of the dual matrix [a; b] that
        ``sampling.solution_basis`` returns: the canonical forms of
        ``_cramer_vectors``."""
        if self._basis is None:
            x, y = self._cramer_vectors()
            self._basis = (ProjPoint(x), ProjPoint(y))
        return self._basis

    def meets_coordinate_points(self) -> bool:
        a, b = self.h.dual.coords, self.k.dual.coords
        return any(a[i] == 0 and b[i] == 0 for i in range(4))

    def avoids_two_zero_locus(self) -> bool:
        """True when no point of the line has two zero coordinates,
        i.e. all six 2x2 minors of the dual matrix are nonzero."""
        return all(self.q)

    def __eq__(self, other):
        if not isinstance(other, Line3):
            return NotImplemented
        return self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return f"Line3({self.h!r}, {self.k!r})"


def _meet(l1: Line3, l2: Line3) -> bool:
    """True when the lines share a point (equal lines included)."""
    return _pairing(l1.q, l2.q) == 0


def line_intersection(l1: Line3, l2: Line3):
    """Common point of two lines: a point, None when disjoint, or the
    whole line when they coincide.

    Distinct meeting lines meet where the line through the basis points
    x, y of ``l1`` crosses a plane h of ``l2`` that does not contain
    ``l1``: at x*h(y) - y*h(x).
    """
    if l1.q == l2.q:
        return l1
    if not _meet(l1, l2):
        return None
    x, y = l1.basis_points()
    hx, hy = l2.h.evaluate(x), l2.h.evaluate(y)
    if not (hx or hy):
        # l1 lies in the first plane of l2, so not in the second
        hx, hy = l2.k.evaluate(x), l2.k.evaluate(y)
    return ProjPoint([u * hy - v * hx for u, v in zip(x.coords, y.coords)])


def point_line_product_p3(p: ProjPoint, line: Line3) -> Line3:
    """Product of a point with a line: intersection of the two
    transformed planes.  Needs every coordinate of the point and every
    coefficient of both planes nonzero."""
    if p.ambient_dim != 3:
        raise DimensionMismatch("point must live in P^3")
    if p.delta_level < 3:
        raise StratumError(f"point {p} has a zero coordinate")
    return Line3(
        point_hyperplane_product(p, line.h),
        point_hyperplane_product(p, line.k),
    )


@dataclass(frozen=True)
class RankCertificate:
    """The stacked coordinatewise products (A*P, B*P, A'*P', B'*P') and
    their exact rank."""

    rows: tuple[tuple[int, ...], ...]
    rank: int


def rank_condition(
    line: Line3, line2: Line3, p: ProjPoint, p2: ProjPoint
) -> RankCertificate:
    """Exact rank of the 4x4 matrix deciding whether the two product
    lines through P and P' are distinct (rank 3) or equal (rank 2).

    The rank is read off Plücker coordinates.  The 2x2 minors of
    [a*P; b*P] are q_ij * p_i * p_j, so the two row pairs span the same
    subspace of Q^4 exactly when q o (p_i p_j) and q' o (p'_i p'_j) are
    proportional: then the rank is 2, otherwise 3.  It is never 4:
    a.P = b.P = 0 says that every row annihilates (1, 1, 1, 1).
    """
    for nm, l, q in (("first", line, p), ("second", line2, p2)):
        for d in l.duals:
            if d.delta_level < 3:
                raise StratumError(f"{nm} line: plane dual {d} has a zero coordinate")
        if not l.contains(q):
            raise MembershipError(f"{nm} line does not contain {q}")
        if q.delta_level < 3:
            raise StratumError(f"point {q} has a zero coordinate")
    a, b = line.duals
    a2, b2 = line2.duals
    rows = []
    for dual, pt in ((a, p), (b, p), (a2, p2), (b2, p2)):
        rows.append(tuple(x * y for x, y in zip(dual.coords, pt.coords)))
    u, v = _product_plucker(line.q, p), _product_plucker(line2.q, p2)
    return RankCertificate(rows=tuple(rows), rank=2 if _proportional(u, v) else 3)


@dataclass(frozen=True)
class GridResult3:
    """Grid of products in P^3 with its two families of product lines.
    ``point_grid[i][j]`` is the product of the i-th point of the first
    set with the j-th point of the second."""

    points: PointSet
    row_lines: tuple[Line3, ...]
    col_lines: tuple[Line3, ...]
    point_grid: tuple[tuple[ProjPoint, ...], ...]


def grid_product_p3(
    xs: PointSet, xs2: PointSet, line: Line3, line2: Line3
) -> GridResult3:
    """Product of two collinear sets in P^3 as a full grid.

    All hypotheses are checked exactly; a failure raises
    GridConditionError naming the witness and carrying the brute-force
    product set so relaxed instances can still be inspected.  Each pair
    is multiplied once: the product set is the grid's defined products,
    sorted and deduplicated as ``pairwise_products`` does, and it keeps
    the two factors, from which the degree ladder reads its covers.

    The row line P*L' of P and the column line P'*L of P' coincide
    exactly when the rank condition fails at (P, P').  Once it holds,
    the argument of ``hada.plane.grid_product_p2`` shows that the
    |X| |X'| products are distinct, the row lines are distinct, the
    column lines are distinct, and each row line meets each column line
    in its product point alone.
    """
    point_grid = tuple(tuple(hadamard_points(p, p2) for p2 in xs2) for p in xs)
    defined = [pt for row in point_grid for pt in row if pt is not UNDEFINED]
    if not defined:
        raise HadaError("every pairwise product is undefined")
    products = PointSet.dedupe(sorted(defined, key=lambda p: p.coords))
    products._factors = (xs, xs2)
    expected = len(xs) * len(xs2)

    def fail(msg, witness=None):
        raise GridConditionError(
            msg, witness=witness, products=products, expected=expected
        )

    for nm, l, pts in (("first", line, xs), ("second", line2, xs2)):
        for d in l.duals:
            if d.delta_level < 3:
                fail(f"{nm} line: plane dual {d} has a zero coordinate", witness=d)
        for p in pts:
            if not l.contains(p):
                fail(f"{nm} set: point {p} is off its line", witness=p)
            if p.delta_level < 3:
                fail(f"{nm} set: point {p} has a zero coordinate", witness=p)
    for p in xs:
        if p in xs2:
            fail(f"point {p} belongs to both sets", witness=p)
    # the hypotheses rank_condition checks hold by now: test the rank directly
    seconds = [_product_plucker(line2.q, p2) for p2 in xs2]
    for p in xs:
        u = _product_plucker(line.q, p)
        for p2, v in zip(xs2, seconds):
            if _proportional(u, v):
                fail(f"rank condition fails at {p}, {p2} (rank 2)", witness=(p, p2))

    return GridResult3(
        points=products,
        row_lines=tuple(point_line_product_p3(p, line2) for p in xs),
        col_lines=tuple(point_line_product_p3(p2, line) for p2 in xs2),
        point_grid=point_grid,
    )


class Quadric3:
    """A quadric surface in P^3, given by its form."""

    __slots__ = ("form",)

    def __init__(self, form: HomogeneousForm):
        if form.nvars != 4 or form.degree != 2:
            raise HadaError("not a quadric in four variables")
        self.form = form

    def determinant(self) -> Fraction:
        # twice the symmetric matrix has the integer entries 2*c on the
        # diagonal and c off it; det scales by 2^4
        rows = [[0] * 4 for _ in range(4)]
        for expo, c in self.form.coeffs.items():
            i, j = [k for k, e in enumerate(expo) for _ in range(e)]
            rows[i][j] += c
            rows[j][i] += c
        return Fraction(linalg.det_of(rows), 16)

    def is_nondegenerate(self) -> bool:
        return self.determinant() != 0

    def contains_line(self, line: Line3) -> bool:
        # a degree-2 form vanishing at three points of a line vanishes
        # on the whole line; the two vectors are independent, so their
        # sum is a third point
        x, y = line._cramer_vectors()
        vectors = (x, y, [u + v for u, v in zip(x, y)])
        return all(self.form.evaluate(v) == 0 for v in vectors)

    def __eq__(self, other):
        if not isinstance(other, Quadric3):
            return NotImplemented
        return self.form == other.form

    def __repr__(self):
        return f"Quadric3({self.form!r})"


def quadric_through(points: PointSet) -> Union[Quadric3, str]:
    """The quadric through a point set when it is unique: the one form
    of ``degree_bounded_ideal(points, 2)``.

    Returns "none" when no quadric contains the set and "non-unique"
    when the space of such quadrics has dimension at least two.
    """
    if points.ambient_dim != 3:
        raise DimensionMismatch("quadrics live in P^3")
    forms = degree_bounded_ideal(points, 2)
    if not forms:
        return "none"
    if len(forms) > 1:
        return "non-unique"
    return Quadric3(forms[0])


@dataclass(frozen=True)
class RulingReport:
    """Outcome of the quadric/ruling verification; empty violation list
    means every check passed."""

    violations: tuple[str, ...]
    determinant: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations


def ruling_check(quadric: Quadric3, rows, cols) -> RulingReport:
    """Verify a grid's line families against a quadric.

    Checks: every line lies on the quadric; same-family lines are
    pairwise disjoint; cross-family pairs meet in exactly one point;
    the quadric is non-degenerate.
    """
    violations = []
    for fam, lines in (("row", rows), ("column", cols)):
        for i, l in enumerate(lines):
            if not quadric.contains_line(l):
                violations.append(f"{fam} line {i} does not lie on the quadric")
    for fam, lines in (("row", rows), ("column", cols)):
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                if _meet(lines[i], lines[j]):
                    violations.append(f"{fam} lines {i} and {j} are not disjoint")
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            if not _meet(r, c):
                violations.append(f"row {i} and column {j} do not meet")
            elif r.q == c.q:
                violations.append(f"row {i} and column {j} coincide")
    determinant = quadric.determinant()
    if determinant == 0:
        violations.append("quadric is degenerate (zero determinant)")
    return RulingReport(violations=tuple(violations), determinant=determinant)


def generic_plane_pair(line: Line3) -> Line3:
    """Replace the plane pair of a line by one whose duals have full
    support, searching the pencil through the line.

    Each coordinate rules out at most one ratio, so the twelve distinct
    ratios of a fixed list of small weights always give at least eight
    suitable planes, pairwise independent, as long as no coordinate
    point lies on the line.
    """
    if line.meets_coordinate_points():
        raise StratumError(
            "a coordinate point lies on the line; every plane through it "
            "has a zero coefficient"
        )
    a, b = line.duals
    pencil = (
        [lam * x + mu * y for x, y in zip(a.coords, b.coords)]
        for lam, mu in sampling.FIXED_WEIGHTS
    )
    planes = (Hyperplane(coords) for coords in pencil if all(coords))
    return Line3(next(planes), next(planes))


def variety_product_interpolate(
    line: Line3, line2: Line3, degree: int, seed: Optional[int] = None
):
    """Degree-bounded implicitization of the product of two lines.

    Each coordinate of (lam*a + mu*b) o (sig*a' + tau*b') is bilinear,
    so a degree-d form pulled back along the product map is
    bihomogeneous of bidegree (d, d).  Such a form vanishes identically
    iff it vanishes on a (d+1) x (d+1) grid of distinct parameter
    ratios (Alon, Combinatorial Nullstellensatz, 1999).  So the forms
    vanishing at the products (i*a + b) o (j*a' + b'), 0 <= i, j <= d,
    are exactly the degree-d part of the ideal of the product; their
    canonical basis is returned (possibly empty).  Products that are undefined add no
    condition; when all of them are, the whole product is empty and
    HadaError is raised.

    ``seed`` is accepted and ignored: the construction is exact and
    draws nothing, and the parameter stays only for callers that
    still pass it.
    """
    if not 1 <= degree <= MAX_IMPLICIT_DEGREE:
        raise HadaError(
            f"degree must be between 1 and {MAX_IMPLICIT_DEGREE}, got {degree}"
        )
    sides = [
        PointSet(
            sampling.combine(l.basis_points(), (i, 1)) for i in range(degree + 1)
        )
        for l in (line, line2)
    ]
    products, _ = pairwise_products(*sides)
    return degree_bounded_ideal(products, degree)


def generic_skew_sample(n: int, m: int, seed: int):
    """Seeded generic instance: two lines avoiding the two-zero locus
    with full-support plane duals, and point sets satisfying every grid
    hypothesis (membership, no zero coordinates, disjointness, rank
    condition on all cross pairs).

    Returns ``(line, line2, xs, xs2)``.  Deterministic for fixed seed.
    """
    rng = random.Random(seed)

    def random_line():
        for _ in range(500):
            h = Hyperplane([sampling.nonzero_int(rng, 20) for _ in range(4)])
            k = Hyperplane([sampling.nonzero_int(rng, 20) for _ in range(4)])
            if h == k:
                continue
            l = Line3(h, k)
            if l.avoids_two_zero_locus():
                return l
        raise SamplingError("no generic line found")

    for _ in range(100):
        line = random_line()
        line2 = random_line()
        if line == line2:
            continue
        basis = line.basis_points()
        basis2 = line2.basis_points()
        try:
            first: list[ProjPoint] = []
            while len(first) < n:
                p = sampling.sample_point(
                    rng,
                    basis,
                    lambda p: p.delta_level == 3 and all(p != q for q in first),
                )
                first.append(p)

            second: list[ProjPoint] = []
            # every hypothesis of rank_condition holds by construction, so
            # its rank is tested directly against each first point
            firsts = [_product_plucker(line.q, p) for p in first]

            def ok(p2):
                if p2.delta_level < 3:
                    return False
                if any(p2 == q for q in second) or any(p2 == q for q in first):
                    return False
                v = _product_plucker(line2.q, p2)
                return not any(_proportional(u, v) for u in firsts)

            while len(second) < m:
                second.append(sampling.sample_point(rng, basis2, ok))
            return line, line2, PointSet(first), PointSet(second)
        except SamplingError:
            continue
    raise SamplingError("no generic instance found")
