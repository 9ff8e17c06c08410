"""Lines, rank certificates, grids, quadrics and interpolation in P^3."""

import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest

from hada.errors import (
    DimensionMismatch,
    GridConditionError,
    HadaError,
    MembershipError,
    SamplingError,
    StratumError,
)
from hada.forms import HomogeneousForm
from hada.ideals import degree_bounded_ideal
from hada.projective import Hyperplane, PointSet, ProjPoint, pairwise_products
from hada.space import (
    MAX_IMPLICIT_DEGREE,
    Line3,
    Quadric3,
    generic_plane_pair,
    generic_skew_sample,
    grid_product_p3,
    line_intersection,
    point_line_product_p3,
    quadric_through,
    rank_condition,
    ruling_check,
    variety_product_interpolate,
)
from hada import linalg, sampling
from support import (
    brute_products,
    kernel_basis_points,
    kernel_line_intersection,
    kernel_rank,
    ref_symmetric_matrix,
    rref_line_key,
)

L_A = Line3(Hyperplane([1, -1, 1, 2]), Hyperplane([1, 2, -1, 1]))
L_B = Line3(Hyperplane([1, 2, -2, 1]), Hyperplane([2, 2, 1, -4]))
X_A = PointSet.from_coords([[-2, 1, 1, 1], [-1, -1, -2, 1], [-3, 3, 4, 1]])
X_B = PointSet.from_coords([[-1, 2, 2, 1], [11, -8, -2, 1], [-7, 7, 4, 1]])

# lines meeting the two-zero locus but still satisfying the rank condition
L_C = Line3(Hyperplane([1, 2, 1, 1]), Hyperplane([1, 1, 1, -3]))
QUADRIC_B = (0, 10, 0, -120, -21, -30, 154, 0, -140, 1176)


class TestLine3:
    def test_rejects_proportional_planes(self):
        with pytest.raises(HadaError):
            Line3(Hyperplane([1, 2, 3, 4]), Hyperplane([2, 4, 6, 8]))

    def test_equality_is_geometric(self):
        l1 = Line3(Hyperplane([1, 0, 0, 0]), Hyperplane([0, 1, 0, 0]))
        l2 = Line3(
            Hyperplane([1, 1, 0, 0]), Hyperplane([1, -1, 0, 0])
        )  # same pencil, different pair
        assert l1 == l2

    def test_membership_and_basis(self):
        for p in X_A:
            assert L_A.contains(p)
        b1, b2 = L_A.basis_points()
        assert L_A.contains(b1) and L_A.contains(b2)

    def test_two_zero_locus_detection(self):
        assert not L_C.avoids_two_zero_locus()
        assert L_B.avoids_two_zero_locus()

    def test_planes_of_space_only(self):
        with pytest.raises(DimensionMismatch, match="plane pair must live in P\\^3"):
            Line3(Hyperplane([1, 2, 3]), Hyperplane([1, 1, 1]))

    def test_equality_with_other_types_is_not_implemented(self):
        assert L_A.__eq__(L_A.h) is NotImplemented
        assert L_A != L_A.h


class TestPointLineProduct3:
    def test_identity(self):
        assert point_line_product_p3(ProjPoint([1, 1, 1, 1]), L_A) == L_A

    def test_planewise_division(self):
        got = point_line_product_p3(ProjPoint([-2, 1, 1, 1]), L_B)
        assert got.h == Hyperplane(
            [Fraction(1, -2), Fraction(2), Fraction(-2), Fraction(1)]
        )
        assert got.k == Hyperplane(
            [Fraction(2, -2), Fraction(2), Fraction(1), Fraction(-4)]
        )

    def test_products_land_on_both_planes(self):
        rng = random.Random(97)
        basis = L_B.basis_points()
        p = ProjPoint([3, -2, 5, 7])
        got = point_line_product_p3(p, L_B)
        from hada.projective import UNDEFINED, hadamard_points

        prods = []
        for w in sampling.FIXED_WEIGHTS:
            s = sampling.combine(basis, w)
            r = hadamard_points(p, s)
            if r is not UNDEFINED:
                prods.append(r)
                assert got.contains(r)
        from hada import linalg

        assert linalg.rank_of([r.coords for r in prods], 4) == 2

    def test_stratum_check(self):
        with pytest.raises(StratumError):
            point_line_product_p3(ProjPoint([0, 1, 1, 1]), L_A)
        with pytest.raises(DimensionMismatch, match="point must live in P\\^3"):
            point_line_product_p3(ProjPoint([1, 1, 1]), L_A)


class TestRankCondition:
    def test_duplicated_rows_rank_two(self):
        p = ProjPoint([-2, 1, 1, 1])
        cert = rank_condition(L_A, L_A, p, p)
        assert cert.rank == 2

    def test_all_nine_pairs_rank_three(self):
        for p in X_A:
            for q in X_B:
                assert rank_condition(L_A, L_B, p, q).rank == 3

    def test_rank_never_four_on_valid_input(self):
        rng = random.Random(103)
        for seed in range(10):
            line, line2, xs, xs2 = generic_skew_sample(2, 2, seed)
            for p in xs:
                for q in xs2:
                    assert rank_condition(line, line2, p, q).rank in (2, 3)

    def test_membership_enforced(self):
        with pytest.raises(MembershipError):
            rank_condition(L_A, L_B, ProjPoint([1, 1, 1, 1]), X_B.points[0])

    def test_zero_coordinates_rejected(self):
        planar = Line3(Hyperplane([0, 1, 0, -1]), Hyperplane([14, 0, -27, 10]))
        with pytest.raises(StratumError, match=r"first line: plane dual \[0:1:0:-1\]"):
            rank_condition(planar, L_B, X_A.points[0], X_B.points[0])
        # a basis point of L_A has a zero where the other one does not
        zero = L_A.basis_points()[0]
        assert L_A.contains(zero) and zero.delta_level < 3
        with pytest.raises(StratumError, match=re.escape(f"point {zero} has a zero")):
            rank_condition(L_A, L_B, zero, X_B.points[0])


class TestGrid3:
    def test_three_by_three(self):
        g = grid_product_p3(X_A, X_B, L_A, L_B)
        assert len(g.points) == 9
        assert g.points == brute_products(X_A, X_B)
        for i in range(3):
            for j in range(3):
                meet = line_intersection(g.row_lines[i], g.col_lines[j])
                assert meet == g.point_grid[i][j]

    def test_product_set_keeps_its_factors(self):
        g = grid_product_p3(X_A, X_B, L_A, L_B)
        assert g.points._factors[0] is X_A and g.points._factors[1] is X_B

    def test_strata_meeting_lines_still_grid(self):
        x = PointSet.from_coords([[4, -4, 3, 1], [6, -4, 1, 1], [5, -4, 2, 1]])
        g = grid_product_p3(x, X_B, L_C, L_B)
        assert len(g.points) == 9

    def test_single_pair(self):
        xs = PointSet.from_coords([[-2, 1, 1, 1]])
        ys = PointSet.from_coords([[-1, 2, 2, 1]])
        g = grid_product_p3(xs, ys, L_A, L_B)
        assert len(g.points) == 1
        assert g.point_grid[0][0] == ProjPoint([2, 2, 2, 1])

    def test_bad_duals_fail_with_products_attached(self):
        # planar configuration: plane duals carry zero coordinates
        line = Line3(Hyperplane([0, 1, 0, -1]), Hyperplane([14, 0, -27, 10]))
        line2 = Line3(Hyperplane([0, 9, 5, -11]), Hyperplane([1, 0, -1, 0]))
        xs = PointSet.from_coords(
            [[1, 4, 2, 4], [8, 5, 6, 5], [37, 40, 34, 40], [9, 9, 8, 9], [65, 98, 70, 98]]
        )
        ys = PointSet.from_coords(
            [[2, 5, 2, 5], [3, 2, 3, 3], [24, 27, 24, 33], [13, 16, 13, 19], [130, 127, 130, 163]]
        )
        with pytest.raises(GridConditionError) as exc:
            grid_product_p3(xs, ys, line, line2)
        assert exc.value.products is not None
        assert len(exc.value.products) == 25  # the relaxed instance is still a
        assert exc.value.expected == 25  # full-size product set

    def test_point_hypotheses_name_the_witness(self):
        off = ProjPoint([1, 1, 1, 1])
        zero = L_A.basis_points()[0]
        # two lines through [1:1:1:1] whose plane duals have no zero
        meet = Line3(Hyperplane([1, 1, 1, -3]), Hyperplane([1, 2, -1, -2]))
        meet2 = Line3(Hyperplane([1, -1, 2, -2]), Hyperplane([2, 1, 1, -4]))
        cases = [
            (L_A, L_B, off, X_B.points[0], f"first set: point {off} is off its line"),
            (L_A, L_B, zero, X_B.points[0], f"first set: point {zero} has a zero coordinate"),
            (meet, meet2, off, off, f"point {off} belongs to both sets"),
        ]
        for line, line2, p, p2, message in cases:
            xs, xs2 = PointSet([p]), PointSet([p2])
            with pytest.raises(GridConditionError) as exc:
                grid_product_p3(xs, xs2, line, line2)
            assert str(exc.value) == message
            assert exc.value.witness == p
            assert exc.value.products == pairwise_products(xs, xs2)[0]

    def test_grid_facts_on_seeded_and_strata_meeting_grids(self):
        # what grid_product_p3 relies on without checking: |X| |X'| products,
        # pairwise distinct row lines and column lines, and each row line
        # meeting each column line in its product point alone
        grids = [generic_skew_sample(3, 4, 700 + k) for k in range(6)]
        x_c = PointSet.from_coords([[4, -4, 3, 1], [6, -4, 1, 1], [5, -4, 2, 1]])
        grids.append((L_C, L_B, x_c, X_B))
        for line, line2, xs, xs2 in grids:
            g = grid_product_p3(xs, xs2, line, line2)
            assert len(g.points) == len(xs) * len(xs2)
            assert len(set(g.row_lines)) == len(xs)
            assert len(set(g.col_lines)) == len(xs2)
            for i, r in enumerate(g.row_lines):
                for j, c in enumerate(g.col_lines):
                    assert line_intersection(r, c) == g.point_grid[i][j]

    def test_all_undefined_products_raise_the_pairwise_error(self):
        xs = PointSet.from_coords([[1, 0, 0, 0], [1, 1, 0, 0]])
        ys = PointSet.from_coords([[0, 0, 1, 0], [0, 0, 1, 1]])
        with pytest.raises(HadaError) as brute:
            pairwise_products(xs, ys)
        with pytest.raises(HadaError) as grid:
            grid_product_p3(xs, ys, L_A, L_B)
        assert type(grid.value) is type(brute.value) is HadaError
        assert str(grid.value) == str(brute.value) == "every pairwise product is undefined"

    def test_rank_condition_failure_names_the_first_pair(self):
        # r o L_A carries the products r o p of its points: the product line
        # of p with it equals that of r o p with L_A, so (p, r o p) has rank 2
        r = ProjPoint([2, 3, 5, 7])
        line2 = point_line_product_p3(r, L_A)
        scaled = [ProjPoint([x * y for x, y in zip(r.coords, p.coords)]) for p in X_A]
        ys = PointSet([scaled[1], scaled[0]])
        with pytest.raises(GridConditionError) as exc:
            grid_product_p3(X_A, ys, L_A, line2)
        p, p2 = X_A.points[0], scaled[0]
        assert rank_condition(L_A, line2, p, p2).rank == 2
        assert str(exc.value) == f"rank condition fails at {p}, {p2} (rank 2)"
        assert exc.value.witness == (p, p2)
        assert exc.value.products == pairwise_products(X_A, ys)[0]
        assert exc.value.expected == 6

    def test_each_pair_is_multiplied_once(self, monkeypatch):
        # and neither the sampler nor the grid re-checks rank_condition's
        # hypotheses through it
        from hada import space

        monkeypatch.setattr(space, "rank_condition", None)
        line, line2, xs, xs2 = generic_skew_sample(4, 3, 3131)
        pairs = []
        original = space.hadamard_points
        monkeypatch.setattr(
            space, "hadamard_points", lambda p, q: pairs.append((p, q)) or original(p, q)
        )
        g = grid_product_p3(xs, xs2, line, line2)
        assert pairs == [(p, q) for p in xs for q in xs2]
        assert list(g.points) == list(pairwise_products(xs, xs2)[0])


class TestQuadric:
    def test_unique_quadric_through_grid(self):
        g = grid_product_p3(
            PointSet.from_coords([[4, -4, 3, 1], [6, -4, 1, 1], [5, -4, 2, 1]]),
            X_B,
            L_C,
            L_B,
        )
        q = quadric_through(g.points)
        assert isinstance(q, Quadric3)
        assert q.form.coefficient_vector() == QUADRIC_B
        assert q.is_nondegenerate()
        from hada.forms import membership

        assert all(membership(p, q.form) for p in g.points)
        assert all(q.contains_point(p) for p in g.points)
        assert not q.contains_point(ProjPoint([0, 0, 0, 1]))  # x3^2 has 1176

    def test_three_points_non_unique(self):
        assert quadric_through(X_A) == "non-unique"

    def test_ten_generic_points_none(self):
        rng = random.Random(107)
        pts = PointSet.from_coords(
            [[rng.randint(1, 100), rng.randint(1, 100), rng.randint(1, 100), 1]
             for _ in range(10)]
        )
        assert quadric_through(pts) == "none"

    def test_symmetric_matrix_halves_cross_terms(self):
        # the Fraction oracle of ``determinant`` below
        q = Quadric3(HomogeneousForm(4, {(1, 1, 0, 0): 3, (0, 0, 2, 0): 4}))
        m = ref_symmetric_matrix(q.form)
        assert m[0][1] == Fraction(3, 2) == m[1][0]
        assert m[2][2] == 4

    def test_determinant_is_that_of_the_symmetric_matrix(self):
        # Leibniz's formula on the Fraction matrix
        rng = random.Random(61)
        expos = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
        for _ in range(50):
            form = HomogeneousForm(4, {e: rng.randint(-9, 9) for e in expos} | {expos[0]: 1})
            q = Quadric3(form)
            m = ref_symmetric_matrix(q.form)
            det = 0
            for perm in itertools.permutations(range(4)):
                inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
                term = Fraction((-1) ** inversions)
                for i, j in enumerate(perm):
                    term *= m[i][j]
                det += term
            assert q.determinant() == det

    def test_contains_line_agrees_with_three_of_its_points(self):
        # a quadric h * k with h a plane of the line contains it; one with
        # random coefficients mostly does not
        rng = random.Random(67)
        for _ in range(50):
            planes = [[sampling.nonzero_int(rng, 9) for _ in range(4)] for _ in range(3)]
            line = Line3(Hyperplane(planes[0]), Hyperplane(planes[1]))
            containing = {}
            for i, a in enumerate(line.h.dual.coords):
                for j, b in enumerate(planes[2]):
                    e = tuple(int(k == i) + int(k == j) for k in range(4))
                    containing[e] = containing.get(e, 0) + a * b
            expos = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
            other = {e: rng.randint(-3, 3) for e in expos} | {expos[-1]: 1}
            b1, b2 = line.basis_points()
            points = (b1, b2, sampling.combine([b1, b2], (2, 1)))
            for coeffs in (containing, other):
                q = Quadric3(HomogeneousForm(4, coeffs))
                assert q.contains_line(line) == all(q.contains_point(p) for p in points)
            assert Quadric3(HomogeneousForm(4, containing)).contains_line(line)

    def test_repr_names_the_form(self):
        q = Quadric3(HomogeneousForm(4, {(1, 1, 0, 0): 3, (0, 0, 2, 0): 4}))
        assert repr(q) == "Quadric3(3*x0*x1 + 4*x2^2)"

    def test_equality_compares_forms(self):
        form = HomogeneousForm(4, {(1, 1, 0, 0): 3, (0, 0, 2, 0): 4})
        assert Quadric3(form) == Quadric3(form)
        assert Quadric3(form).__eq__(form) is NotImplemented
        assert Quadric3(form) != form

    @pytest.mark.parametrize(
        "form",
        [
            HomogeneousForm(4, {(1, 0, 0, 0): 1}),
            HomogeneousForm(3, {(2, 0, 0): 1}),
            HomogeneousForm(4, {(3, 0, 0, 0): 1}),
        ],
    )
    def test_only_quadrics_in_four_variables(self, form):
        with pytest.raises(HadaError, match="not a quadric in four variables"):
            Quadric3(form)


class TestRulingCheck:
    def grid(self):
        return grid_product_p3(
            PointSet.from_coords([[4, -4, 3, 1], [6, -4, 1, 1], [5, -4, 2, 1]]),
            X_B,
            L_C,
            L_B,
        )

    def test_valid_configuration_passes(self):
        g = self.grid()
        q = quadric_through(g.points)
        rep = ruling_check(q, g.row_lines, g.col_lines)
        assert rep.ok
        assert rep.determinant != 0

    def test_duplicate_row_line_reported(self):
        g = self.grid()
        q = quadric_through(g.points)
        rep = ruling_check(q, (g.row_lines[0],) * 2, g.col_lines)
        assert any("not disjoint" in v or "coincide" in v for v in rep.violations)

    def test_every_violation_is_named(self):
        g = self.grid()
        q = quadric_through(g.points)
        assert not q.contains_line(L_A)
        assert ruling_check(q, (L_A,), ()).violations == (
            "row line 0 does not lie on the quadric",
        )
        r0, r1 = g.row_lines[:2]
        assert ruling_check(q, (r0,), (r1, r0)).violations == (
            "row 0 and column 0 do not meet",
            "row 0 and column 1 coincide",
        )

    def test_degenerate_quadric_reported(self):
        q = Quadric3(HomogeneousForm(4, {(2, 0, 0, 0): 1}))
        l1 = Line3(Hyperplane([1, 0, 0, 0]), Hyperplane([0, 1, 0, 0]))
        l2 = Line3(Hyperplane([1, 0, 0, 0]), Hyperplane([0, 0, 1, 0]))
        rep = ruling_check(q, (l1,), (l2,))
        assert any("degenerate" in v for v in rep.violations)


EXPECTED_D2_C = (0, 0, 0, 60, 0, 9, -105, 0, 84, -980)


AXIS = Line3(Hyperplane([0, 0, 1, 0]), Hyperplane([0, 0, 0, 1]))
# every point of AXIS o OTHER_AXIS is the zero vector
OTHER_AXIS = Line3(Hyperplane([1, 0, 0, 0]), Hyperplane([0, 1, 0, 0]))


def oracle_product_ideal(line, line2, degree):
    """Degree-``degree`` forms vanishing on the defined products of a
    (d+3) x (d+3) grid of points, with weights other than the
    certificate's; None when every one of those products is undefined."""
    sides = [
        PointSet(
            sampling.combine(l.basis_points(), (2 * i + 1, i + 5))
            for i in range(degree + 3)
        )
        for l in (line, line2)
    ]
    try:
        products, _ = pairwise_products(*sides)
    except HadaError:
        return None
    return degree_bounded_ideal(products, degree)


def oracle_line_pairs():
    """Fixed pairs, generic, meeting coordinate strata or with an empty
    product, plus seeded pairs whose small plane coefficients often
    vanish."""
    pairs = [
        (L_A, L_B),
        (L_C, L_B),
        (AXIS, AXIS),
        (AXIS, L_A),
        (L_C, L_C),
        (AXIS, OTHER_AXIS),
    ]
    rng = random.Random(4242)
    while len(pairs) < 30:
        coeffs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        try:
            planes = [Hyperplane(c) for c in coeffs]
            pairs.append((Line3(*planes[:2]), Line3(*planes[2:])))
        except HadaError:
            continue
    return pairs


class TestInterpolation:
    def test_strata_meeting_pair_recovers_quadric(self):
        forms = variety_product_interpolate(L_C, L_B, 2)
        assert len(forms) == 1
        assert forms[0].coefficient_vector() == QUADRIC_B

    def test_double_strata_pair(self):
        line2 = Line3(Hyperplane([1, 1, -2, 1]), Hyperplane([1, 1, 1, -4]))
        forms = variety_product_interpolate(L_C, line2, 2)
        assert len(forms) == 1
        assert forms[0].coefficient_vector() == EXPECTED_D2_C

    def test_coordinate_axis_line(self):
        forms = variety_product_interpolate(AXIS, AXIS, 1)
        vectors = sorted(f.coefficient_vector() for f in forms)
        assert vectors == [(0, 0, 0, 1), (0, 0, 1, 0)]

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_grid_certificate_matches_larger_grid(self, degree):
        for line, line2 in oracle_line_pairs():
            expected = oracle_product_ideal(line, line2, degree)
            if expected is None:
                with pytest.raises(HadaError):
                    variety_product_interpolate(line, line2, degree)
                continue
            got = variety_product_interpolate(line, line2, degree)
            assert [f.coefficient_vector() for f in got] == [
                f.coefficient_vector() for f in expected
            ], (line, line2)

    def test_generic_pair_has_the_quadric_dimension(self):
        # the product is a smooth quadric, isomorphic to P^1 x P^1
        # embedded by O(1, 1), so HF(d) = (d+1)^2
        d = MAX_IMPLICIT_DEGREE
        forms = variety_product_interpolate(L_A, L_B, d)
        assert len(forms) == comb(d + 3, 3) - (d + 1) ** 2

    def test_empty_product(self):
        with pytest.raises(HadaError, match="undefined"):
            variety_product_interpolate(AXIS, OTHER_AXIS, 2)

    def test_degree_bounds(self, monkeypatch):
        def no_elimination(*args):
            raise AssertionError("eliminated before the degree check")

        monkeypatch.setattr(linalg, "kernel_basis", no_elimination)
        monkeypatch.setattr(linalg, "rref_of", no_elimination)
        for degree in (-1, 0, MAX_IMPLICIT_DEGREE + 1, 10**6):
            with pytest.raises(HadaError, match="degree must be between"):
                variety_product_interpolate(L_A, L_B, degree)


class TestPlanePairChooser:
    def test_rebuilds_full_support_duals(self):
        line = Line3(Hyperplane([0, 1, 0, -1]), Hyperplane([14, 0, -27, 10]))
        fixed = generic_plane_pair(line)
        assert fixed == line
        for d in fixed.duals:
            assert d.delta_level == 3

    def test_many_random_lines(self):
        rng = random.Random(109)
        for _ in range(50):
            h = Hyperplane([rng.randint(-9, 9) or 1 for _ in range(4)])
            k = Hyperplane([rng.randint(-9, 9) or 1 for _ in range(4)])
            if h == k:
                continue
            line = Line3(h, k)
            if line.meets_coordinate_points():
                continue
            fixed = generic_plane_pair(line)
            assert fixed == line
            assert all(d.delta_level == 3 for d in fixed.duals)

    def test_impossible_when_coordinate_point_on_line(self):
        axis = Line3(Hyperplane([1, 0, 0, 0]), Hyperplane([0, 1, 0, 0]))
        with pytest.raises(StratumError):
            generic_plane_pair(axis)


class TestCoplanarContrapositive:
    def test_meeting_row_lines_force_coplanarity(self):
        # planar product instance: after replanning, the row lines meet
        # pairwise and every product lies in one plane
        line = generic_plane_pair(
            Line3(Hyperplane([0, 1, 0, -1]), Hyperplane([14, 0, -27, 10]))
        )
        line2 = generic_plane_pair(
            Line3(Hyperplane([0, 9, 5, -11]), Hyperplane([1, 0, -1, 0]))
        )
        xs = PointSet.from_coords(
            [[1, 4, 2, 4], [8, 5, 6, 5], [37, 40, 34, 40], [9, 9, 8, 9], [65, 98, 70, 98]]
        )
        ys = PointSet.from_coords(
            [[2, 5, 2, 5], [3, 2, 3, 3], [24, 27, 24, 33], [13, 16, 13, 19], [130, 127, 130, 163]]
        )
        rows = [point_line_product_p3(p, line2) for p in xs]
        meets = [
            line_intersection(rows[i], rows[j])
            for i in range(len(rows))
            for j in range(i + 1, len(rows))
        ]
        assert any(m is not None for m in meets)
        products, _ = pairwise_products(xs, ys)
        from hada import linalg

        assert linalg.rank_of([p.coords for p in products], 4) == 3


def small_plane(rng, full_support=False):
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(4)]
        if all(coeffs) if full_support else any(coeffs):
            return Hyperplane(coeffs)


def small_line(rng, full_support=False):
    while True:
        try:
            return Line3(small_plane(rng, full_support), small_plane(rng, full_support))
        except HadaError:
            continue


def meeting_kind(meet):
    if meet is None:
        return "disjoint"
    return "point" if isinstance(meet, ProjPoint) else "equal"


class TestPluckerMatchesElimination:
    """The Plücker closed forms against the elimination they replace,
    on seeded lines with coefficients in -3..3."""

    def line_pairs(self, rng):
        for i in range(200):
            l1, l2 = small_line(rng), small_line(rng)
            yield l1, l2
            if i % 5 == 0:
                # the same line through another pair of its planes
                a, b = l1.h.dual.coords, l1.k.dual.coords
                yield l1, Line3(
                    Hyperplane([x + y for x, y in zip(a, b)]),
                    Hyperplane([x + 2 * y for x, y in zip(a, b)]),
                )
            # lines sharing a plane meet, in a point or along the line;
            # the shared plane comes first or second in the other pair
            h = l1.h
            try:
                yield l1, Line3(h, small_plane(rng))
                yield Line3(small_plane(rng), h), l1
            except HadaError:
                pass
        yield L_A, Line3(L_A.k, L_A.h)
        yield AXIS, OTHER_AXIS
        yield AXIS, AXIS

    def test_line_questions(self):
        rng = random.Random(5151)
        kinds = {"disjoint": 0, "point": 0, "equal": 0}
        late_pivot = 0
        for l1, l2 in self.line_pairs(rng):
            got = line_intersection(l1, l2)
            want = kernel_line_intersection(l1, l2)
            assert meeting_kind(got) == meeting_kind(want), (l1, l2)
            if isinstance(want, ProjPoint):
                assert got.coords == want.coords, (l1, l2)
            else:
                assert got is want or got == want
            kinds[meeting_kind(got)] += 1
            assert (l1.q == l2.q) == (
                rref_line_key(l1) == rref_line_key(l2)
            )
            assert (l1 == l2) == (meeting_kind(got) == "equal")
            for line in (l1, l2):
                got_basis = tuple(p.coords for p in line.basis_points())
                assert got_basis == tuple(p.coords for p in kernel_basis_points(line))
                late_pivot += line.q[0] == 0
                a, b = line.h.dual.coords, line.k.dual.coords
                assert line.avoids_two_zero_locus() == all(
                    a[i] * b[j] - a[j] * b[i] for i in range(4) for j in range(i + 1, 4)
                )
        assert min(kinds.values()) >= 40, kinds
        assert late_pivot > 0

    def test_rank_condition(self):
        rng = random.Random(5252)
        ranks = {2: 0, 3: 0}

        def points_on(line):
            basis = line.basis_points()
            out = []
            for w in sampling.FIXED_WEIGHTS:
                p = sampling.combine(basis, w)
                if p.delta_level == 3:
                    out.append(p)
            return out[:3]

        for _ in range(40):
            line, line2 = small_line(rng, True), small_line(rng, True)
            r = ProjPoint([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4)])
            cases = [(line, line2, p, p2) for p in points_on(line) for p2 in points_on(line2)]
            cases += [(line, line, p, p) for p in points_on(line)]
            # the rows of (r o line, r o p) are those of (line, p) up to
            # scale: rank 2 from two distinct lines
            scaled = point_line_product_p3(r, line)
            if all(d.delta_level == 3 for d in scaled.duals):
                cases += [
                    (line, scaled, p, ProjPoint([x * y for x, y in zip(r.coords, p.coords)]))
                    for p in points_on(line)
                ]
            for case in cases:
                rank = rank_condition(*case).rank
                assert rank == kernel_rank(*case), case
                ranks[rank] += 1
        assert min(ranks.values()) >= 10, ranks


def test_grid_and_rulings_do_no_elimination(monkeypatch):
    line, line2, xs, xs2 = generic_skew_sample(5, 5, 6161)
    (form,) = variety_product_interpolate(line, line2, 2)
    quadric = Quadric3(form)

    def forbid(name):
        def spy(*args):
            raise AssertionError(f"{name} called for a line question")

        monkeypatch.setattr(linalg, name, spy)

    for name in ("kernel_basis", "rref_of", "rank_of"):
        forbid(name)
    dets = []
    original_det = linalg.det_of
    monkeypatch.setattr(linalg, "det_of", lambda rows: dets.append(rows) or original_det(rows))
    g = grid_product_p3(xs, xs2, line, line2)
    assert ruling_check(quadric, g.row_lines, g.col_lines).ok
    assert len(dets) == 1


class TestGenericSkewSample:
    def test_deterministic(self):
        a = generic_skew_sample(3, 3, 17)
        b = generic_skew_sample(3, 3, 17)
        assert a[0] == b[0] and a[1] == b[1]
        assert a[2] == b[2] and a[3] == b[3]

    def test_sampled_points_avoid_zeros_and_repeats(self, monkeypatch):
        # each acceptance test refuses the kernel basis points, which carry
        # a zero coordinate, and every point drawn before it
        real = sampling.sample_point
        drawn = []

        def spy(rng, basis, accept):
            assert not any(accept(p) for p in [*basis, *drawn])
            drawn.append(real(rng, basis, accept))
            return drawn[-1]

        monkeypatch.setattr(sampling, "sample_point", spy)
        line, line2, xs, xs2 = generic_skew_sample(2, 3, 29)
        assert drawn == [*xs, *xs2]

    def test_equal_planes_exhaust_the_line_search(self, monkeypatch):
        monkeypatch.setattr(sampling, "nonzero_int", lambda rng, bound: 1)
        with pytest.raises(SamplingError, match="no generic line found"):
            generic_skew_sample(1, 1, 0)

    def test_equal_lines_exhaust_the_instance_search(self, monkeypatch):
        # every line drawn is L_A, so the two lines never differ
        draws = itertools.cycle([*L_A.h.dual.coords, *L_A.k.dual.coords])
        monkeypatch.setattr(sampling, "nonzero_int", lambda rng, bound: next(draws))
        with pytest.raises(SamplingError, match="no generic instance found"):
            generic_skew_sample(1, 1, 0)

    def test_failed_point_sampling_exhausts_the_instance_search(self, monkeypatch):
        def give_up(rng, basis, accept):
            raise SamplingError("no acceptable point")

        monkeypatch.setattr(sampling, "sample_point", give_up)
        with pytest.raises(SamplingError, match="no generic instance found"):
            generic_skew_sample(1, 1, 0)

    def test_hypotheses_hold(self):
        line, line2, xs, xs2 = generic_skew_sample(3, 4, 23)
        assert line.avoids_two_zero_locus() and line2.avoids_two_zero_locus()
        for d in line.duals + line2.duals:
            assert d.delta_level == 3
        for p in xs:
            assert line.contains(p) and p.delta_level == 3
        for p in xs2:
            assert line2.contains(p) and p.delta_level == 3
        for p in xs:
            for q in xs2:
                assert rank_condition(line, line2, p, q).rank == 3
