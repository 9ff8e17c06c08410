"""The complete case analysis for products in the projective plane.

The central object is the product of a point Q with a line L (dual
point A).  Exactly one of five cases applies, decided by the degeneracy
levels of Q, A and Q*A:

1. Q has no zero coordinate: the product is the line with coefficients
   a_i / q_i.
2. Q has exactly one zero coordinate (at j) and Q*A has strictly lower
   level than A: the product is the coordinate line x_j = 0.
3. Q has exactly one zero coordinate (at j) and Q*A keeps the level of
   A (the support of A is contained in the support of Q): the product
   is the single point x_j = 0, x_k = -a_l q_k, x_l = a_k q_l.
4. Q is a coordinate point different from A: the product is Q itself.
5. Q is a coordinate point equal to A: the product is undefined.

Everything else in this module (pairwise incidence, set-times-line
arrangements, grids of collinear sets, genericity sampling) reduces to
this classification plus exact rank computations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from . import linalg, sampling
from .errors import (
    ArrangementError,
    DimensionMismatch,
    GridConditionError,
    HadaError,
    MembershipError,
    StratumError,
)
from .projective import (
    UNDEFINED,
    Hyperplane,
    PointSet,
    ProjPoint,
    coordinate_hyperplane,
    hadamard_points,
    hyperplane_product,
    pairwise_products,
    point_hyperplane_coefficients,
)


def _levels(q: ProjPoint, line: Hyperplane):
    a = line.dual
    qa = hadamard_points(q, a)
    lqa = -1 if qa is UNDEFINED else qa.delta_level
    return a, q.delta_level, a.delta_level, lqa


def _require_plane(*objs):
    for o in objs:
        if o.ambient_dim != 2:
            raise DimensionMismatch("operation is specific to the plane")


@dataclass(frozen=True)
class PointLineOutcome:
    """Tagged outcome of a point-times-line product in the plane."""

    case: int
    line: Optional[Hyperplane] = None
    point: Optional[ProjPoint] = None

    @property
    def kind(self) -> str:
        if self.line is not None:
            return "line"
        if self.point is not None:
            return "point"
        return "undefined"


def case_hypotheses(q: ProjPoint, line: Hyperplane) -> dict[int, bool]:
    """Truth value of each case hypothesis; exactly one must hold."""
    a, lq, la, lqa = _levels(q, line)
    return {
        1: lq == 2,
        2: lq == 1 and lqa < la,
        3: lq == 1 and lqa == la,
        4: lq == 0 and q != a,
        5: lq == 0 and q == a,
    }


def point_line_product_p2(q: ProjPoint, line: Hyperplane) -> PointLineOutcome:
    """Classify and compute the product of a point and a line in P^2."""
    _require_plane(q, line)
    a, lq, la, lqa = _levels(q, line)
    if lq == 2:
        dual = point_hyperplane_coefficients(q.coords, a.coords)
        return PointLineOutcome(case=1, line=Hyperplane(dual))
    if lq == 1:
        j = q.coords.index(0)
        if lqa < la:
            return PointLineOutcome(case=2, line=coordinate_hyperplane(j, 2))
        k, l = (i for i in range(3) if i != j)
        coords = [0, 0, 0]
        coords[k] = -a.coords[l] * q.coords[k]
        coords[l] = a.coords[k] * q.coords[l]
        return PointLineOutcome(case=3, point=ProjPoint(coords))
    if q != a:
        return PointLineOutcome(case=4, point=q)
    return PointLineOutcome(case=5)


def line_through(p: ProjPoint, q: ProjPoint) -> Hyperplane:
    """The unique line through two distinct points of the plane."""
    if p == q:
        raise HadaError("points coincide")
    (dual,) = linalg.kernel_basis([p.coords, q.coords], 3)
    return Hyperplane(dual)


@dataclass(frozen=True)
class IncidenceReport:
    """Joint classification of Q*L and Q'*L for distinct points Q, Q'.

    ``relation`` is the prediction of the case analysis and
    ``direct_relation`` the verdict of exact geometric comparison of
    the two outcomes; they must agree.
    """

    case: str
    swapped: bool
    first: PointLineOutcome
    second: PointLineOutcome
    relation: str
    direct_relation: str

    @property
    def consistent(self) -> bool:
        return self.relation == self.direct_relation


def _direct_relation(o1: PointLineOutcome, o2: PointLineOutcome) -> str:
    if o1.kind == "line" and o2.kind == "line":
        return "equal-lines" if o1.line == o2.line else "distinct-lines"
    if o1.kind == "point" and o2.kind == "point":
        return "equal-points" if o1.point == o2.point else "distinct-points"
    point = o1.point if o1.kind == "point" else o2.point
    line = o1.line if o1.kind == "line" else o2.line
    return "point-on-line" if line.contains(point) else "point-off-line"


def two_point_line_incidence(
    q: ProjPoint, q2: ProjPoint, line: Hyperplane
) -> IncidenceReport:
    """Classify the mutual position of Q*L and Q'*L.

    Requires Q, Q' and the dual of L off the coordinate points; other
    inputs are outside the classification and rejected.
    """
    _require_plane(q, q2, line)
    a = line.dual
    for name, p in (("dual point", a), ("first point", q), ("second point", q2)):
        if p.delta_level == 0:
            raise StratumError(f"{name} is a coordinate point: outside classification")
    if q == q2:
        raise StratumError("points coincide: outside classification")

    o1 = point_line_product_p2(q, line)
    o2 = point_line_product_p2(q2, line)
    la = a.delta_level
    l1, l2 = q.delta_level, q2.delta_level
    qa = hadamard_points(q, a)
    q2a = hadamard_points(q2, a)
    lqa = -1 if qa is UNDEFINED else qa.delta_level
    lq2a = -1 if q2a is UNDEFINED else q2a.delta_level
    qq2 = hadamard_points(q, q2)
    lqq2 = -1 if qq2 is UNDEFINED else qq2.delta_level

    def minor():
        i = a.coords.index(0)
        j, k = (t for t in range(3) if t != i)
        return q.coords[j] * q2.coords[k] - q.coords[k] * q2.coords[j]

    swapped = False
    if la == 2:
        if l1 == 2 or l2 == 2:
            case, relation = "1a", "distinct-lines"
        else:
            case = "1b"
            relation = "distinct-lines" if lqq2 == 0 else "equal-lines"
    elif l1 == 2 and l2 == 2:
        case = "1c"
        relation = "distinct-lines" if minor() != 0 else "equal-lines"
    elif l1 != l2:
        # one point off the strata, the other on a coordinate line
        swapped = l1 == 2
        on_level = lq2a if swapped else lqa
        if on_level == 0:
            case, relation = "1d", "distinct-lines"
        else:
            case = "2a"
            relation = "point-on-line" if minor() == 0 else "point-off-line"
    else:
        if lqa == 0 and lq2a == 0:
            case = "1e"
            relation = "distinct-lines" if lqq2 == 0 else "equal-lines"
        elif lqa > 0 and lq2a > 0:
            case, relation = "3", "distinct-points"
        else:
            swapped = lqa == 0
            case, relation = "2b", "point-off-line"

    return IncidenceReport(
        case=case,
        swapped=swapped,
        first=o1,
        second=o2,
        relation=relation,
        direct_relation=_direct_relation(o1, o2),
    )


@dataclass(frozen=True)
class LineArrangement:
    """Product of a collinear set with a line: distinct lines, possibly
    one isolated point off all of them, or a collapse onto the line
    itself."""

    lines: tuple[Hyperplane, ...] = ()
    isolated_point: Optional[ProjPoint] = None
    collapsed: Optional[Hyperplane] = None


def collinear_set_line_product(
    xset: PointSet, line: Hyperplane, on_line: Hyperplane
) -> LineArrangement:
    """Product of a set of collinear points with a line.

    ``xset`` must lie on ``on_line``, whose dual has full support: none
    of its points is a coordinate point, and for each j exactly one has
    its only zero at j.  The cases of ``point_line_product_p2`` then fix
    the shape.  When the dual A of ``line`` has at least two nonzero
    coefficients, a point without zeros gives the line a_i / q_i
    (case 1), which is no coordinate line, and the point with its zero
    at j gives x_j = 0 (case 2) or, when a_j = 0 too, a point whose only
    zero is at j (case 3); cases 4 and 5 need a coordinate point.  Two
    case-1 lines coincide, and a case-1 line holds the case-3 point,
    only for two points proportional on the support of A, which the
    carrier makes equal.  So the product is pairwise distinct lines,
    one per point, but for at most one isolated point off all of them.
    When A is a coordinate point, each point gives ``line`` itself or,
    for the two points with their zero where A is zero, a coordinate
    point on it: a set of three or more collapses onto ``line``, and a
    set of only those two or one of them raises ArrangementError.
    """
    _require_plane(line, on_line)
    if on_line.dual.delta_level < 2:
        raise StratumError("carrier line contains a coordinate point")
    for p in xset:
        if not on_line.contains(p):
            raise MembershipError(f"point {p} does not lie on the carrier line")

    outcomes = [point_line_product_p2(p, line) for p in xset]
    lines = [o.line for o in outcomes if o.kind == "line"]
    points = [o.point for o in outcomes if o.kind == "point"]
    if line.dual.delta_level == 0:
        if line in lines:
            return LineArrangement(collapsed=line)
        raise ArrangementError(
            "set-times-line product is a set of isolated points; "
            "not expressible as a line arrangement "
            "(needs at least three points to collapse)"
        )
    return LineArrangement(
        lines=tuple(sorted(lines, key=lambda l: l.dual.coords)),
        isolated_point=points[0] if points else None,
    )


def _check_grid_pre(xs, xs2, line, line2):
    _require_plane(line, line2)
    for nm, l in (("first line", line), ("second line", line2)):
        if l.dual.delta_level < 2:
            raise StratumError(f"dual point of the {nm} has a zero coordinate")
    for nm, pts, l in (("first", xs, line), ("second", xs2, line2)):
        for p in pts:
            if not l.contains(p):
                raise MembershipError(f"{nm} set: point {p} is off its line")
            if p.delta_level < 2:
                raise StratumError(f"{nm} set: point {p} has a zero coordinate")
    for p in xs:
        if p in xs2:
            raise HadaError(f"point {p} belongs to both sets")


def _grid_collision(xs, xs2, line, line2):
    a, a2 = line.dual, line2.dual
    left = [(p, hadamard_points(p, a)) for p in xs]
    right = [(p2, hadamard_points(p2, a2)) for p2 in xs2]
    for p, pa in left:
        for p2, p2a in right:
            if pa == p2a:
                return p, p2
    return None


@dataclass(frozen=True)
class GridResult:
    """A grid of |X| |X'| points with its two rulings of lines and the
    degrees (|X|, |X'|) of the two forms, the products of the row and of
    the column linear forms, that exhibit the grid as a complete
    intersection."""

    points: PointSet
    row_lines: tuple[Hyperplane, ...]
    col_lines: tuple[Hyperplane, ...]
    witness_degrees: tuple[int, int]


def grid_product_p2(
    xs: PointSet, xs2: PointSet, line: Hyperplane, line2: Hyperplane
) -> GridResult:
    """Product of two collinear sets as a grid of lines and points.

    The row line of P in X is P*L' and the column line of P' in X' is
    P'*L; both pass through P*P'.  The row line of P equals the column
    line of P' exactly when P*A = P'*A', which the grid condition rules
    out.  It then also makes the |X| |X'| products pairwise distinct,
    each on one row line and one column line only: if P*P' = Q*Q' or
    P*P' lies on the row line of some Q != P in X, the point
    Q' = (P*P')/Q of L' differs from P', so the row line of Q and the
    column line of P' share the two points P*P' and Q*P' and coincide
    (and symmetrically for the columns).
    """
    _check_grid_pre(xs, xs2, line, line2)
    collision = _grid_collision(xs, xs2, line, line2)
    products, _ = pairwise_products(xs, xs2)
    if collision is not None:
        p, p2 = collision
        raise GridConditionError(
            f"grid condition fails: {p} and {p2} produce the same product "
            "with the dual points",
            witness=collision,
            products=products,
            expected=len(xs) * len(xs2),
        )
    row_lines = tuple(point_line_product_p2(p, line2).line for p in xs)
    col_lines = tuple(point_line_product_p2(p2, line).line for p2 in xs2)
    return GridResult(
        points=products,
        row_lines=row_lines,
        col_lines=col_lines,
        witness_degrees=(len(xs), len(xs2)),
    )


def generic_collinear_sample(
    line: Hyperplane, line2: Hyperplane, n: int, m: int, seed: int
) -> tuple[PointSet, PointSet]:
    """Seeded generic choice of n points on one line and m on the other
    so that the grid condition holds.

    Every rejection locus is finite (coordinate strata, duplicate
    points, cross-pair collisions), so sampling terminates quickly for
    valid lines; duals with zero coordinates are rejected up front.
    """
    _require_plane(line, line2)
    for nm, l in (("first", line), ("second", line2)):
        if l.dual.delta_level < 2:
            raise StratumError(f"dual point of the {nm} line has a zero coordinate")
    rng = random.Random(seed)
    a, a2 = line.dual, line2.dual
    basis = sampling.solution_basis([line.dual.coords], 3)
    basis2 = sampling.solution_basis([line2.dual.coords], 3)

    first: list[ProjPoint] = []
    while len(first) < n:
        p = sampling.sample_point(
            rng,
            basis,
            lambda p: p.delta_level == 2 and all(p != q for q in first),
        )
        first.append(p)
    shadows = {hadamard_points(p, a).coords for p in first}
    second: list[ProjPoint] = []

    def ok(p2):
        return (
            p2.delta_level == 2
            and all(p2 != q for q in second)
            and all(p2 != q for q in first)
            and hadamard_points(p2, a2).coords not in shadows
        )

    while len(second) < m:
        second.append(sampling.sample_point(rng, basis2, ok))
    return PointSet(first), PointSet(second)


@dataclass(frozen=True)
class CollinearityReport:
    """Exact-rank collinearity verdict for a product of two subsets of
    one line, with the predicate cross-check when its hypotheses hold."""

    collinear: bool
    containing_line: Optional[Hyperplane]
    products: Optional[PointSet]
    undefined_pairs: int
    predicate_applies: bool
    predicate_agrees: Optional[bool]


def product_collinearity_check(
    xs: PointSet, ys: PointSet, line: Hyperplane
) -> CollinearityReport:
    """Decide by exact rank whether X*Y is collinear.

    The rank verdict is always computed from the product set itself.
    When both sets have at least three points and their union at least
    four, the verdict is cross-checked against the predicate "collinear
    exactly when the line passes through a coordinate point".
    """
    _require_plane(line)
    for p in list(xs) + list(ys):
        if not line.contains(p):
            raise MembershipError(f"point {p} is not on the line")

    undefined = 0
    prods = []
    for p in xs:
        for q in ys:
            r = hadamard_points(p, q)
            if r is UNDEFINED:
                undefined += 1
            else:
                prods.append(r)
    products = (
        PointSet.dedupe(sorted(prods, key=lambda p: p.coords)) if prods else None
    )

    if products is None:
        collinear = True
    else:
        rank = linalg.rank_of([p.coords for p in products], 3)
        collinear = rank <= 2

    meets_delta0 = line.meets_coordinate_points()
    containing = None
    if collinear:
        if meets_delta0:
            # a_i x_i + a_j x_j = 0 on both factors gives
            # a_i^2 x_i - a_j^2 x_j = 0 on their product (and x_i = 0
            # on both gives x_i = 0), so this line holds every product
            containing = hyperplane_product(line, line)
        elif products is not None and len(products) >= 2:
            containing = line_through(products.points[0], products.points[1])

    union = {p.coords for p in xs} | {p.coords for p in ys}
    applies = len(xs) >= 3 and len(ys) >= 3 and len(union) >= 4
    agrees = (collinear == meets_delta0) if applies else None
    return CollinearityReport(
        collinear=collinear,
        containing_line=containing,
        products=products,
        undefined_pairs=undefined,
        predicate_applies=applies,
        predicate_agrees=agrees,
    )
