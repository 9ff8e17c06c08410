"""Acceptance suite: ten exit criteria, one test each.

All arithmetic is exact, so every comparison is bit-exact equality of
canonical forms.  Each test prints a single PASS line on success (run
pytest with -s to see them); a failure surfaces as a normal assertion
error naming the criterion.
"""

import random
from functools import lru_cache

from hada.forms import monomials
from hada.ideals import (
    ci_verdict,
    degree_bounded_ideal,
    generator_profile,
    hilbert_function,
    hilbert_profile,
)
from hada.plane import (
    case_hypotheses,
    collinear_set_line_product,
    generic_collinear_sample,
    grid_product_p2,
    point_line_product_p2,
    two_point_line_incidence,
)
from hada.projective import (
    Hyperplane,
    PointSet,
    ProjPoint,
    hadamard_points,
    hyperplane_product,
    pairwise_products,
)
from hada.space import (
    Quadric3,
    generic_skew_sample,
    grid_product_p3,
    line_intersection,
    quadric_through,
)
from support import (
    brute_products,
    check_point_line_outcome,
    plane_grid_meet,
    random_fuzz_line,
    random_point_with_level,
)


def ok(num, text):
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_binomial_hyperplane_products():
    h = Hyperplane([0, 3, 0, -2])
    k = Hyperplane([0, -7, 0, 4])
    assert hyperplane_product(h, k) == Hyperplane([0, 21, 0, -8])
    assert hyperplane_product(h, h) == Hyperplane([0, 9, 0, -4])
    ok(1, "binomial plane products are exact")


def test_criterion_02_five_point_set_times_line():
    xs = PointSet.from_coords(
        [[27, 238, 5], [12, 96, 2], [15, 142, 3], [21, 234, 5], [33, 242, 5]]
    )
    arr = collinear_set_line_product(
        xs, Hyperplane([2, -3, -11]), Hyperplane([2, -3, 132])
    )
    expected = {
        (16, -3, -528),
        (284, -45, -7810),
        (2380, -405, -70686),
        (260, -35, -6006),
        (220, -45, -7986),
    }
    assert {l.dual.coords for l in arr.lines} == expected
    assert len(arr.lines) == 5
    assert arr.isolated_point is None and arr.collapsed is None
    ok(2, "set times line reproduces the five listed lines exactly")


def test_criterion_03_plane_grid():
    xs = PointSet.from_coords([[6, 12, 1], [22, 54, 4], [29, 63, 5]])
    ys = PointSet.from_coords(
        [[22, 154, 5], [28, 221, 5], [34, 288, 5], [18, 146, 3]]
    )
    line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
    g = grid_product_p2(xs, ys, line, line2)
    assert len(g.points) == 12
    prof = hilbert_profile(g.points)
    assert prof.values[:6] == (1, 3, 6, 9, 11, 12)
    for t in range(5, 9):
        assert hilbert_function(g.points, t) == 12
    verdict = ci_verdict(g.points)
    assert verdict.kind == "CI" and verdict.witness_degrees == (3, 4)
    ok(3, "3x4 plane grid: 12 points, HF (1,3,6,9,11,12), CI of type (3,4)")


QUADRIC_411 = (0, 10, 0, -120, -21, -30, 154, 0, -140, 1176)


def test_criterion_04_space_grids_and_quadric():
    from hada.space import Line3

    lb = Line3(Hyperplane([1, 2, -2, 1]), Hyperplane([2, 2, 1, -4]))
    xb = PointSet.from_coords([[-1, 2, 2, 1], [11, -8, -2, 1], [-7, 7, 4, 1]])
    cases = [
        (
            Line3(Hyperplane([1, -1, 1, 2]), Hyperplane([1, 2, -1, 1])),
            PointSet.from_coords([[-2, 1, 1, 1], [-1, -1, -2, 1], [-3, 3, 4, 1]]),
            None,
        ),
        (
            Line3(Hyperplane([1, 2, 1, 1]), Hyperplane([1, 1, 1, -3])),
            PointSet.from_coords([[4, -4, 3, 1], [6, -4, 1, 1], [5, -4, 2, 1]]),
            QUADRIC_411,
        ),
    ]
    for line, xs, expected_quadric in cases:
        g = grid_product_p3(xs, xb, line, lb)
        assert len(g.points) == 9
        prof = hilbert_profile(g.points)
        assert prof.values == (1, 4, 9, 9)
        q = quadric_through(g.points)
        assert isinstance(q, Quadric3)  # kernel dimension exactly one
        if expected_quadric is not None:
            assert q.form.coefficient_vector() == expected_quadric
    ok(4, "3x3 space grids: 9 points, HF (1,4,9,9), unique quadric matches")


@lru_cache(maxsize=None)
def skew_instance(m, seed):
    line, line2, xs, xs2 = generic_skew_sample(m, m, seed)
    return grid_product_p3(xs, xs2, line, line2), line, line2


SEEDS = range(20)
SIZES = (2, 3, 4, 5)


def test_criterion_05_hf_product_suite():
    for m in SIZES:
        for seed in SEEDS:
            g, xs, xs2 = skew_instance(m, seed)
            assert len(g.points) == m * m
            prof = hilbert_profile(g.points)
            assert prof.tau == m - 1
            for t in range(prof.tau + 2):
                assert prof.values[t] == min(t + 1, m) ** 2
    ok(5, "80 seeded generic instances satisfy the HF product law")


def test_criterion_06_generator_suite():
    for m in SIZES:
        for seed in SEEDS:
            g, _, _ = skew_instance(m, seed)
            prof = generator_profile(g.points)
            if m == 2:
                assert prof.total == 6
                assert prof.new_in_degree(2) == 6
            else:
                assert prof.total == 2 * m + 2
                assert prof.new_in_degree(2) == 1
                assert prof.new_in_degree(m) == 2 * m + 1
            assert ci_verdict(g.points).kind == "NotCI"
    ok(6, "80 seeded generic instances: generator counts 6 or 2m+2, never CI")


def test_criterion_07_ruling_suite():
    from hada.space import ruling_check, variety_product_interpolate

    for m in SIZES:
        for seed in SEEDS:
            g, line, line2 = skew_instance(m, seed)
            # the quadric is fitted from the lines themselves; from m = 3
            # points on, it is also the unique quadric through the grid
            fitted = variety_product_interpolate(line, line2, 2)
            assert len(fitted) == 1
            q = Quadric3(fitted[0])
            if m >= 3:
                assert quadric_through(g.points) == q
            assert q.is_nondegenerate()
            rep = ruling_check(q, g.row_lines, g.col_lines)
            assert rep.ok, rep.violations
            for i in range(len(g.row_lines)):
                for j in range(len(g.col_lines)):
                    meet = line_intersection(g.row_lines[i], g.col_lines[j])
                    assert meet == g.point_grid[i][j]
    ok(7, "80 seeded generic instances: nondegenerate quadric, clean rulings")


def test_criterion_08_classification_fuzz():
    rng = random.Random(2024)
    for _ in range(10_000):
        q = random_point_with_level(rng, rng.randint(0, 2))
        line = random_fuzz_line(rng)
        hyps = case_hypotheses(q, line)
        assert sum(hyps.values()) == 1
        outcome = point_line_product_p2(q, line)
        assert hyps[outcome.case]
        check_point_line_outcome(q, line, outcome)

    done = 0
    while done < 10_000:
        a = random_point_with_level(rng, rng.randint(1, 2))
        q = random_point_with_level(rng, rng.randint(1, 2))
        q2 = random_point_with_level(rng, rng.randint(1, 2))
        if q == q2:
            continue
        rep = two_point_line_incidence(q, q2, Hyperplane(a))
        assert rep.consistent, (q, q2, a)
        done += 1
    ok(8, "20000 fuzz classifications: one case each, zero oracle disagreements")


def test_criterion_09_grid_oracle_equivalence():
    rng = random.Random(99)
    built = 0
    while built < 100:
        line = Hyperplane(random_point_with_level(rng, 2))
        line2 = Hyperplane(random_point_with_level(rng, 2))
        if line == line2:
            continue
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        xs, ys = generic_collinear_sample(line, line2, n, m, rng.randrange(10**6))
        g = grid_product_p2(xs, ys, line, line2)
        assert g.points == brute_products(xs, ys)
        meets = [
            plane_grid_meet(g, i, j) for i in range(len(xs)) for j in range(len(ys))
        ]
        assert PointSet.dedupe(sorted(meets, key=lambda p: p.coords)) == g.points
        built += 1

    for seed in range(100):
        n, m = seed % 3 + 1, seed % 4 + 1
        line, line2, xs, ys = generic_skew_sample(n, m, seed)
        g = grid_product_p3(xs, ys, line, line2)
        assert g.points == brute_products(xs, ys)
        meets = [
            line_intersection(g.row_lines[i], g.col_lines[j])
            for i in range(len(xs))
            for j in range(len(ys))
        ]
        assert PointSet.dedupe(sorted(meets, key=lambda p: p.coords)) == g.points
    ok(9, "200 grids agree with brute force and with ruling intersections")


def test_criterion_10_planar_product_set():
    xs = PointSet.from_coords(
        [[1, 4, 2, 4], [8, 5, 6, 5], [37, 40, 34, 40], [9, 9, 8, 9], [65, 98, 70, 98]]
    )
    ys = PointSet.from_coords(
        [[2, 5, 2, 5], [3, 2, 3, 3], [24, 27, 24, 33], [13, 16, 13, 19],
         [130, 127, 130, 163]]
    )
    products, _ = pairwise_products(xs, ys)
    prof = hilbert_profile(products)
    assert prof.values == (1, 3, 6, 10, 15, 19, 22, 24, 25, 25)
    assert prof.h_vector == (1, 2, 3, 4, 5, 4, 3, 2, 1)
    forms = degree_bounded_ideal(products, 1)
    assert [f.coefficient_vector() for f in forms] == [(14, -18, -27, 22)]
    assert ci_verdict(products).kind == "CI"
    ok(10, "planar 25-point product: HF, linear form, h-vector and CI verdict")
