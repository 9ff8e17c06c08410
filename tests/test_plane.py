"""Case analysis, arrangements and grids in the plane."""

import random

import pytest

from hada.errors import (
    ArrangementError,
    DimensionMismatch,
    GridConditionError,
    HadaError,
    MembershipError,
    StratumError,
)
from hada.plane import (
    case_hypotheses,
    collinear_set_line_product,
    generic_collinear_sample,
    grid_condition,
    grid_product_p2,
    line_delta1_points,
    line_through,
    point_line_product_p2,
    product_collinearity_check,
    two_point_line_incidence,
)
from hada.projective import (
    UNDEFINED,
    Hyperplane,
    PointSet,
    ProjPoint,
    hadamard_points,
    hyperplane_product,
)
from support import (
    brute_products,
    check_point_line_outcome,
    line_samples,
    plane_grid_meet,
    random_fuzz_line,
    random_point_with_level,
)


class TestPointLineProduct:
    def test_identity_point_returns_the_line(self):
        line = Hyperplane([5, -3, 7])
        out = point_line_product_p2(ProjPoint([1, 1, 1]), line)
        assert out.case == 1 and out.line == line

    def test_one_zero_coordinate_gives_coordinate_line(self):
        out = point_line_product_p2(ProjPoint([0, 1, 1]), Hyperplane([2, 3, 5]))
        assert out.case == 2
        assert out.line == Hyperplane([1, 0, 0])

    def test_single_point_case(self):
        q = ProjPoint([0, 2, 3])
        out = point_line_product_p2(q, Hyperplane([0, 5, 7]))
        assert out.case == 3
        assert out.point == ProjPoint([0, -7 * 2, 5 * 3])

    def test_coordinate_point_cases(self):
        q = ProjPoint([0, 0, 1])
        out = point_line_product_p2(q, Hyperplane([1, 2, 3]))
        assert out.case == 4 and out.point == q
        out = point_line_product_p2(q, Hyperplane([0, 0, 5]))
        assert out.case == 5 and out.kind == "undefined"

    def test_exactly_one_hypothesis_fires(self):
        rng = random.Random(61)
        for _ in range(800):
            q = random_point_with_level(rng, rng.randint(0, 2))
            line = random_fuzz_line(rng)
            hyps = case_hypotheses(q, line)
            assert sum(hyps.values()) == 1
            out = point_line_product_p2(q, line)
            assert hyps[out.case]

    def test_outcomes_match_sampling_oracle(self):
        rng = random.Random(67)
        for _ in range(300):
            q = random_point_with_level(rng, rng.randint(0, 2))
            line = random_fuzz_line(rng)
            check_point_line_outcome(q, line, point_line_product_p2(q, line))

    def test_only_plane_operands(self):
        with pytest.raises(DimensionMismatch, match="specific to the plane"):
            point_line_product_p2(ProjPoint([1, 1, 1, 1]), Hyperplane([1, 2, 3]))


def test_line_through_needs_two_points():
    p, q = ProjPoint([1, 1, 1]), ProjPoint([3, 1, 2])
    assert line_through(p, q) == Hyperplane([1, 1, -2])
    with pytest.raises(HadaError, match="points coincide"):
        line_through(p, p)


class TestLineStrata:
    def test_three_marked_points(self):
        rng = random.Random(71)
        for _ in range(50):
            line = Hyperplane(random_point_with_level(rng, 2, 2))
            pts = line_delta1_points(line)
            assert len({p.coords for p in pts}) == 3
            for i, p in enumerate(pts):
                assert line.contains(p)
                assert p.coords[i] == 0 and p.delta_level == 1
            for i in range(3):
                for j in range(i + 1, 3):
                    prod = hadamard_points(pts[i], pts[j])
                    assert prod is not UNDEFINED and prod.delta_level == 0

    def test_minors_of_two_points_all_nonzero(self):
        rng = random.Random(73)
        for _ in range(50):
            line = Hyperplane(random_point_with_level(rng, 2, 2))
            basis = line_delta1_points(line)[:2]
            p = ProjPoint([a + b for a, b in zip(basis[0].coords, basis[1].coords)])
            q = ProjPoint(
                [2 * a - 3 * b for a, b in zip(basis[0].coords, basis[1].coords)]
            )
            if p == q:
                continue
            for i in range(3):
                for j in range(i + 1, 3):
                    minor = p.coords[i] * q.coords[j] - p.coords[j] * q.coords[i]
                    assert minor != 0

    def test_only_for_lines_off_the_coordinate_points(self):
        with pytest.raises(StratumError, match="contains a coordinate point"):
            line_delta1_points(Hyperplane([0, 1, 1]))


class TestIncidence:
    def test_full_support_dual_distinct_lines(self):
        rep = two_point_line_incidence(
            ProjPoint([1, 1, 1]), ProjPoint([1, 2, 3]), Hyperplane([2, 3, 5])
        )
        assert rep.case == "1a"
        assert rep.relation == "distinct-lines" == rep.direct_relation

    def test_two_coordinate_lines(self):
        rep = two_point_line_incidence(
            ProjPoint([0, 1, 1]), ProjPoint([1, 0, 1]), Hyperplane([2, 3, 5])
        )
        assert rep.case == "1b"
        assert rep.relation == "distinct-lines" == rep.direct_relation

    def test_degenerate_dual_equal_lines(self):
        rep = two_point_line_incidence(
            ProjPoint([1, 1, 1]), ProjPoint([1, 2, 2]), Hyperplane([0, 1, 1])
        )
        assert rep.case == "1c"
        assert rep.relation == "equal-lines" == rep.direct_relation

    def test_point_cases(self):
        line = Hyperplane([0, 5, 7])
        rep = two_point_line_incidence(
            ProjPoint([0, 2, 3]), ProjPoint([1, 1, 1]), line
        )
        assert rep.case == "2a" and rep.consistent
        rep = two_point_line_incidence(
            ProjPoint([0, 2, 3]), ProjPoint([0, 3, 5]), line
        )
        assert rep.case == "3"
        assert rep.relation == "distinct-points" == rep.direct_relation

    def test_outside_classification(self):
        with pytest.raises(StratumError):
            two_point_line_incidence(
                ProjPoint([0, 0, 1]), ProjPoint([1, 1, 1]), Hyperplane([1, 1, 1])
            )
        with pytest.raises(StratumError):
            two_point_line_incidence(
                ProjPoint([1, 1, 1]), ProjPoint([1, 1, 1]), Hyperplane([1, 1, 1])
            )

    def test_consistency_fuzz(self):
        rng = random.Random(79)
        done = 0
        while done < 500:
            a = random_point_with_level(rng, rng.randint(1, 2))
            q = random_point_with_level(rng, rng.randint(1, 2))
            q2 = random_point_with_level(rng, rng.randint(1, 2))
            if q == q2:
                continue
            rep = two_point_line_incidence(q, q2, Hyperplane(a))
            assert rep.consistent, (q, q2, a, rep)
            done += 1


FIVE_POINT_LINES = [
    (16, -3, -528),
    (220, -45, -7986),
    (260, -35, -6006),
    (284, -45, -7810),
    (2380, -405, -70686),
]


class TestArrangement:
    def test_five_listed_points(self):
        xs = PointSet.from_coords(
            [[27, 238, 5], [12, 96, 2], [15, 142, 3], [21, 234, 5], [33, 242, 5]]
        )
        arr = collinear_set_line_product(
            xs, Hyperplane([2, -3, -11]), Hyperplane([2, -3, 132])
        )
        assert [l.dual.coords for l in arr.lines] == FIVE_POINT_LINES
        assert arr.isolated_point is None and arr.collapsed is None

    def test_coordinate_line_collapse(self):
        # three points clear of the strata on a carrier line, times x0
        carrier = Hyperplane([1, 1, -2])
        xs = PointSet.from_coords([[1, 1, 1], [3, 1, 2], [5, 1, 3]])
        arr = collinear_set_line_product(xs, Hyperplane([1, 0, 0]), carrier)
        assert arr.collapsed == Hyperplane([1, 0, 0])
        assert not arr.lines

    def test_two_generic_points_give_two_lines(self):
        carrier = Hyperplane([1, 1, -2])
        xs = PointSet.from_coords([[1, 1, 1], [3, 1, 2]])
        arr = collinear_set_line_product(xs, Hyperplane([2, 3, 5]), carrier)
        assert len(arr.lines) == 2 and arr.isolated_point is None

    def test_isolated_point_branch(self):
        # dual of the multiplier line has one zero: the carrier point on
        # the matching coordinate line maps to a point off all lines
        carrier = Hyperplane([1, 1, -2])
        line = Hyperplane([0, 5, 7])
        xs = PointSet.from_coords([[0, 2, 1], [1, 1, 1], [3, 1, 2]])
        arr = collinear_set_line_product(xs, line, carrier)
        assert len(arr.lines) == 2
        assert arr.isolated_point is not None
        assert all(not l.contains(arr.isolated_point) for l in arr.lines)

    def test_membership_enforced(self):
        with pytest.raises(MembershipError):
            collinear_set_line_product(
                PointSet.from_coords([[1, 1, 1], [1, 2, 3]]),
                Hyperplane([1, 1, 1]),
                Hyperplane([1, 1, -2]),
            )

    def test_two_isolated_points_not_representable(self):
        # both products are coordinate points: no arrangement exists
        carrier = Hyperplane([1, -1, -1])
        xs = PointSet.from_coords([[1, 0, 1], [1, 1, 0]])
        with pytest.raises(ArrangementError):
            collinear_set_line_product(xs, Hyperplane([1, 0, 0]), carrier)

    def test_carrier_must_avoid_the_coordinate_points(self):
        xs = PointSet.from_coords([[1, 1, 1]])
        with pytest.raises(StratumError, match="carrier line contains"):
            collinear_set_line_product(xs, Hyperplane([2, 3, 5]), Hyperplane([0, 1, -1]))

    def test_shape_facts_of_the_classification(self):
        # the shape facts the arrangement relies on without checking: on
        # a carrier whose dual has full support, subsets that include its
        # three points with a zero coordinate, times lines of every level,
        # never give an undefined product; and unless the line is a
        # coordinate line the product lines are pairwise distinct, at most
        # one point is isolated, and it lies on none of the lines
        rng = random.Random(151)
        for _ in range(200):
            carrier = Hyperplane(random_point_with_level(rng, 2))
            marked = list(line_delta1_points(carrier))
            others = [p for p in line_samples(carrier, 6) if p.delta_level == 2]
            xs = PointSet(rng.sample(marked + others, rng.randint(1, 3 + len(others))))
            line = random_fuzz_line(rng)
            outcomes = [point_line_product_p2(p, line) for p in xs]
            assert all(o.kind != "undefined" for o in outcomes)
            if line.dual.delta_level == 0:
                continue
            lines = [o.line for o in outcomes if o.kind == "line"]
            points = [o.point for o in outcomes if o.kind == "point"]
            assert len(set(lines)) == len(lines)
            assert len(points) <= 1
            assert not any(l.contains(pt) for l in lines for pt in points)
            arr = collinear_set_line_product(xs, line, carrier)
            assert set(arr.lines) == set(lines) and len(arr.lines) == len(lines)
            assert arr.isolated_point == (points[0] if points else None)


GRID_L = Hyperplane([3, 1, -30])
GRID_LP = Hyperplane([67, -6, -110])
GRID_X = PointSet.from_coords([[6, 12, 1], [22, 54, 4], [29, 63, 5]])
GRID_XP = PointSet.from_coords(
    [[22, 154, 5], [28, 221, 5], [34, 288, 5], [18, 146, 3]]
)


class TestGridCondition:
    def test_paper_style_instance_passes(self):
        assert grid_condition(GRID_X, GRID_XP, GRID_L, GRID_LP)

    def test_disjoint_subsets_of_one_line(self):
        # disjoint stratum-free subsets of a single line always grid
        line = Hyperplane([1, 1, -2])
        xs = PointSet.from_coords([[1, 1, 1], [3, 1, 2]])
        ys = PointSet.from_coords([[5, 1, 3], [7, 1, 4], [9, 1, 5]])
        assert grid_condition(xs, ys, line, line)
        g = grid_product_p2(xs, ys, line, line)
        assert len(g.points) == 6

    def test_constructed_collision(self):
        # P' is built coordinatewise from P so that P*A = P'*A'
        line = Hyperplane([1, 1, -2])
        line2 = Hyperplane([1, -3, 2])
        p = ProjPoint([1, 1, 1])
        a, a2 = line.dual, line2.dual
        from fractions import Fraction

        p2 = ProjPoint(
            [Fraction(p.coords[i] * a.coords[i], a2.coords[i]) for i in range(3)]
        )
        assert line2.contains(p2)
        assert not grid_condition(
            PointSet([p]), PointSet([p2]), line, line2
        )

    def test_precondition_reports_offender(self):
        bad = PointSet.from_coords([[6, 12, 1], [0, 30, 1]])
        with pytest.raises(StratumError, match=r"\[0:30:1\]"):
            grid_condition(bad, GRID_XP, GRID_L, GRID_LP)
        off = PointSet.from_coords([[1, 1, 1]])
        with pytest.raises(MembershipError, match=r"\[1:1:1\]"):
            grid_condition(off, GRID_XP, GRID_L, GRID_LP)
        # [1:1:1] lies on both lines
        shared = PointSet.from_coords([[1, 1, 1]])
        line, line2 = Hyperplane([1, 1, -2]), Hyperplane([1, -3, 2])
        with pytest.raises(HadaError, match=r"point \[1:1:1\] belongs to both sets"):
            grid_condition(shared, shared, line, line2)


class TestGridProduct:
    def test_paper_style_grid(self):
        g = grid_product_p2(GRID_X, GRID_XP, GRID_L, GRID_LP)
        assert len(g.points) == 12
        assert g.ci_witness[0].degree == 3 and g.ci_witness[1].degree == 4
        for p in g.points:
            assert g.ci_witness[0].vanishes_at(p)
            assert g.ci_witness[1].vanishes_at(p)
        # intersections of the two rulings are exactly the grid points
        for i, p in enumerate(GRID_X):
            for j, p2 in enumerate(GRID_XP):
                assert plane_grid_meet(g, i, j) == hadamard_points(p, p2)

    def test_single_pair(self):
        xs = PointSet.from_coords([[6, 12, 1]])
        ys = PointSet.from_coords([[22, 154, 5]])
        g = grid_product_p2(xs, ys, GRID_L, GRID_LP)
        assert len(g.points) == 1
        assert [f.degree for f in g.ci_witness] == [1, 1]

    def test_matches_brute_force(self):
        rng = random.Random(83)
        for seed in range(20):
            line = Hyperplane(random_point_with_level(rng, 2))
            line2 = Hyperplane(random_point_with_level(rng, 2))
            if line == line2:
                continue
            xs, ys = generic_collinear_sample(line, line2, 2, 3, seed)
            g = grid_product_p2(xs, ys, line, line2)
            assert g.points == brute_products(xs, ys)
            # the grid facts grid_product_p2 relies on without checking
            assert len(g.points) == 6
            for p in g.points:
                assert sum(l.contains(p) for l in g.row_lines) == 1
                assert sum(l.contains(p) for l in g.col_lines) == 1

    def test_collision_raises_with_witness(self):
        line = Hyperplane([1, 1, -2])
        line2 = Hyperplane([1, -3, 2])
        xs = PointSet.from_coords([[1, 1, 1], [3, 1, 2]])
        p1_2 = ProjPoint([-9, 1, 6])
        p2_2 = ProjPoint([-3, 1, 3])
        ys = PointSet([p1_2, p2_2])
        with pytest.raises(GridConditionError) as exc:
            grid_product_p2(xs, ys, line, line2)
        err = exc.value
        assert err.witness is not None
        p, p2 = err.witness
        assert hadamard_points(p, line.dual) == hadamard_points(p2, line2.dual)
        assert err.expected == 4 and len(err.products) < 4

    def test_lemma_style_cross_collision(self):
        # a collision of products forces a cross pair with equal shadows
        line = Hyperplane([1, 1, -2])
        line2 = Hyperplane([1, -3, 2])
        p1, p2 = ProjPoint([1, 1, 1]), ProjPoint([3, 1, 2])
        q1, q2 = ProjPoint([-9, 1, 6]), ProjPoint([-3, 1, 3])
        assert hadamard_points(p1, q1) == hadamard_points(p2, q2)
        a, a2 = line.dual, line2.dual
        cross = [
            hadamard_points(p1, a) == hadamard_points(q2, a2),
            hadamard_points(p2, a) == hadamard_points(q1, a2),
        ]
        assert any(cross)


class TestGenericSample:
    def test_deterministic(self):
        line, line2 = Hyperplane([2, 3, 5]), Hyperplane([7, -1, 2])
        assert generic_collinear_sample(line, line2, 3, 4, 99) == (
            generic_collinear_sample(line, line2, 3, 4, 99)
        )

    def test_single_points(self):
        line, line2 = Hyperplane([2, 3, 5]), Hyperplane([7, -1, 2])
        xs, ys = generic_collinear_sample(line, line2, 1, 1, 3)
        assert len(xs) == len(ys) == 1
        assert grid_condition(xs, ys, line, line2)

    def test_three_by_four_on_grid_lines(self):
        xs, ys = generic_collinear_sample(GRID_L, GRID_LP, 3, 4, 5)
        assert grid_condition(xs, ys, GRID_L, GRID_LP)

    def test_bad_line_rejected(self):
        with pytest.raises(StratumError):
            generic_collinear_sample(
                Hyperplane([0, 1, 1]), Hyperplane([1, 1, 1]), 1, 1, 0
            )


class TestCollinearity:
    def test_coordinate_line_is_always_collinear(self):
        line = Hyperplane([1, 0, 0])
        xs = PointSet.from_coords([[0, 1, 1], [0, 1, 2], [0, 2, 1]])
        ys = PointSet.from_coords([[0, 3, 1], [0, 1, 3], [0, 5, 2]])
        rep = product_collinearity_check(xs, ys, line)
        assert rep.collinear
        assert rep.containing_line == Hyperplane([1, 0, 0])

    def test_points_must_lie_on_the_line(self):
        xs = PointSet.from_coords([[1, 1, 1]])
        with pytest.raises(MembershipError, match=r"point \[1:1:1\] is not on the line"):
            product_collinearity_check(xs, xs, Hyperplane([1, 2, 3]))

    def test_all_products_undefined(self):
        # [0:1:0] and [0:0:1] on x0 = 0 have no common support
        line = Hyperplane([1, 0, 0])
        rep = product_collinearity_check(
            PointSet.from_coords([[0, 1, 0]]), PointSet.from_coords([[0, 0, 1]]), line
        )
        assert rep.products is None and rep.undefined_pairs == 1
        assert rep.collinear and rep.containing_line == line

    def test_one_point_times_a_generic_line_is_collinear(self):
        # multiplication by a point without zeros maps the line onto
        # another line
        line = Hyperplane([1, 1, -2])
        xs = PointSet.from_coords([[7, 1, 4]])
        ys = PointSet.from_coords([[1, 1, 1], [3, 1, 2], [5, 1, 3]])
        rep = product_collinearity_check(xs, ys, line)
        assert rep.collinear and not rep.predicate_applies
        assert len(rep.products) == 3
        assert all(rep.containing_line.contains(p) for p in rep.products)
        assert rep.containing_line == point_line_product_p2(xs.points[0], line).line

    def test_self_product_holds_every_product(self):
        # what product_collinearity_check relies on without checking: a
        # line through a coordinate point squares to a line that contains
        # every product of two of its points
        rng = random.Random(157)
        for _ in range(40):
            line = Hyperplane(random_point_with_level(rng, rng.randint(0, 1)))
            square = hyperplane_product(line, line)
            pts = line_samples(line, 8)
            for p in pts:
                for q in pts:
                    r = hadamard_points(p, q)
                    if r is not UNDEFINED:
                        assert square.contains(r), (line, p, q)
            rep = product_collinearity_check(PointSet(pts[:3]), PointSet(pts[3:]), line)
            assert rep.collinear and rep.containing_line == square

    def test_generic_line_not_collinear(self):
        line = Hyperplane([1, 1, -2])
        xs = PointSet.from_coords([[1, 1, 1], [3, 1, 2], [5, 1, 3]])
        rep = product_collinearity_check(xs, xs, line)
        assert not rep.collinear
        assert not rep.predicate_applies  # union has only three points

    def test_degenerate_dual_collinear_in_self_product(self):
        line = Hyperplane([1, -1, 0])
        xs = PointSet.from_coords([[1, 1, 1], [1, 1, 2], [2, 2, 1]])
        ys = PointSet.from_coords([[1, 1, 3], [3, 3, 1], [1, 1, 5]])
        rep = product_collinearity_check(xs, ys, line)
        assert rep.collinear
        assert rep.containing_line == Hyperplane([1, -1, 0])

    def test_predicate_cross_check(self):
        rng = random.Random(89)
        done = 0
        while done < 25:
            level = rng.choice([1, 2])
            a = random_point_with_level(rng, level)
            line = Hyperplane(a)
            pts = line_samples(line)
            if len(pts) < 7:
                continue
            xs = PointSet(pts[:3])
            ys = PointSet(pts[3:7])
            rep = product_collinearity_check(xs, ys, line)
            assert rep.predicate_applies
            assert rep.predicate_agrees, (line, rep.collinear)
            done += 1
