"""Hilbert functions, generator counts and CI verdicts."""

import functools
import json
import random
from collections import Counter
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from hada import _elim, ideals, linalg
from hada.errors import HadaError
from hada.fixtures import fixtures_dir
from hada.forms import monomials
from hada.ideals import (
    CIVerdict,
    HilbertProfile,
    _evaluation_matrix,
    _linear_form_parameter,
    _linear_form_value,
    ci_verdict,
    degree_bounded_ideal,
    evaluation_rows,
    generator_profile,
    hf_product_check,
    hilbert_function,
    hilbert_profile,
    ideal_dimension,
)
from hada.instances import parse_instance_dict
from hada.plane import generic_collinear_sample, grid_product_p2
from hada.projective import Hyperplane, PointSet, ProjPoint, pairwise_products
from hada.space import Line3, generic_skew_sample, quadric_through
from support import (
    exact_span_counts,
    frac_hilbert_values,
    frac_rank,
    frac_rref,
    ref_evaluation_matrix,
    span_rank_generators,
)


def collinear_points(m, dim=3):
    # on the line through (1,0,...,0) and (0,1,2,...,dim)
    pts = []
    for i in range(1, m + 1):
        coords = [1] + [i * j for j in range(1, dim + 1)]
        pts.append(coords)
    return PointSet.from_coords(pts)


GRID2 = grid_product_p2(
    PointSet.from_coords([[6, 12, 1], [22, 54, 4], [29, 63, 5]]),
    PointSet.from_coords([[22, 154, 5], [28, 221, 5], [34, 288, 5], [18, 146, 3]]),
    Hyperplane([3, 1, -30]),
    Hyperplane([67, -6, -110]),
).points

GRID3 = pairwise_products(
    PointSet.from_coords([[-2, 1, 1, 1], [-1, -1, -2, 1], [-3, 3, 4, 1]]),
    PointSet.from_coords([[-1, 2, 2, 1], [11, -8, -2, 1], [-7, 7, 4, 1]]),
)[0]

PLANAR_FACTORS = (
    PointSet.from_coords(
        [[1, 4, 2, 4], [8, 5, 6, 5], [37, 40, 34, 40], [9, 9, 8, 9], [65, 98, 70, 98]]
    ),
    PointSet.from_coords(
        [[2, 5, 2, 5], [3, 2, 3, 3], [24, 27, 24, 33], [13, 16, 13, 19],
         [130, 127, 130, 163]]
    ),
)
PLANAR25 = pairwise_products(*PLANAR_FACTORS)[0]


def skew_grid(a, seed, b=None):
    """The a x b (a x a by default) product of a seeded generic skew pair."""
    _, _, xs, xs2 = generic_skew_sample(a, b or a, seed)
    return pairwise_products(xs, xs2)[0]


def with_point(points, coords=(1, 2, 3, 5)):
    return PointSet(points.points + (ProjPoint(list(coords)),))


def collinear_defeating_prime(m):
    """m points of a line of P^3, two of which agree modulo 2**61 - 1
    (2**61 = 1 there), so the modular pass cannot decide."""
    coords = [[1, i, 2 * i, 3 * i] for i in range(1, m)]
    return PointSet.from_coords(coords + [[1, 2**61, 2**62, 3 * 2**61]])


def ladder_path(points):
    """The path the set's stored ladder took: "exact", or certified from
    the staircase mod p, as "ceiling" (no free column up to tau) or
    "staircase" (generated in the initial degree)."""
    ladder = ideals._ladder(points)
    if ladder.reduced is not None:
        return "exact"
    return "staircase" if any(ladder.free) else "ceiling"


class TestHilbertFunction:
    def test_negative_degree_is_refused(self):
        with pytest.raises(HadaError, match="degree must be nonnegative"):
            hilbert_function(GRID3, -1)

    def test_single_point(self):
        p = PointSet.from_coords([[3, 5, 7]])
        for t in range(4):
            assert hilbert_function(p, t) == 1

    def test_grid3_values(self):
        assert [hilbert_function(GRID3, t) for t in range(4)] == [1, 4, 9, 9]

    def test_grid2_values(self):
        assert [hilbert_function(GRID2, t) for t in range(7)] == [
            1, 3, 6, 9, 11, 12, 12,
        ]

    def test_rank_matches_independent_oracle(self):
        rng = random.Random(113)
        pts = PointSet.from_coords(
            [[rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)]
             for _ in range(6)]
        )
        for t in range(4):
            rows = evaluation_rows(pts, t)
            assert hilbert_function(pts, t) == frac_rank(rows, comb(t + 2, 2))

    def test_scaling_points_changes_nothing(self):
        base = [[2, -3, 5, 7], [1, 1, 1, 1], [4, 0, 3, -2]]
        scaled = [[4, -6, 10, 14], [-3, -3, -3, -3], [2, 0, "3/2", -1]]
        a, b = PointSet.from_coords(base), PointSet.from_coords(scaled)
        for t in range(3):
            assert hilbert_function(a, t) == hilbert_function(b, t)


class TestHilbertProfile:
    def test_planar25(self):
        prof = hilbert_profile(PLANAR25)
        assert prof.values == (1, 3, 6, 10, 15, 19, 22, 24, 25, 25)
        assert prof.h_vector == (1, 2, 3, 4, 5, 4, 3, 2, 1)
        assert prof.tau == 8

    def test_collinear_points(self):
        for m in (1, 2, 4, 6):
            prof = hilbert_profile(collinear_points(m))
            assert prof.values == tuple(
                min(t + 1, m) for t in range(prof.tau + 2)
            )
            assert prof.tau == m - 1

    def test_grid3_h_vector(self):
        prof = hilbert_profile(GRID3)
        assert prof.tau == 2 and prof.h_vector == (1, 3, 5)

    def test_h_vector_sums_to_cardinality(self):
        for points in (GRID2, GRID3, PLANAR25):
            prof = hilbert_profile(points)
            assert sum(prof.h_vector) == len(points)
            # strictly increasing, then constant
            for i in range(1, prof.tau + 1):
                assert prof.values[i] > prof.values[i - 1]
            assert prof.values[prof.tau + 1] == prof.values[prof.tau]


class TestHFProduct:
    def test_equal_sizes_product_law(self):
        xs = PointSet.from_coords([[-2, 1, 1, 1], [-1, -1, -2, 1], [-3, 3, 4, 1]])
        ys = PointSet.from_coords([[-1, 2, 2, 1], [11, -8, -2, 1], [-7, 7, 4, 1]])
        rep = hf_product_check(xs, ys, GRID3)
        assert rep.ok and rep.tau_matches
        assert [r.product_value for r in rep.rows] == [1, 4, 9, 9]

    def test_two_by_two_gives_four_skew_points(self):
        line, line2, xs, xs2 = generic_skew_sample(2, 2, 31)
        products, _ = pairwise_products(xs, xs2)
        rep = hf_product_check(xs, xs2, products)
        assert rep.ok
        assert hilbert_profile(products).values == (1, 4, 4)

    def test_unequal_sizes(self):
        xs = PointSet.from_coords([[4, 4, 3, 1], [7, 4, 2, 8], [11, 8, 5, 9]])
        ys = PointSet.from_coords(
            [[2, 3, 4, 5], [6, 4, 9, 6], [18, 17, 30, 27], [94, 76, 149, 118]]
        )
        products, _ = pairwise_products(xs, ys)
        rep = hf_product_check(xs, ys, products)
        assert rep.product_holds
        assert rep.tau_matches is True and rep.tau_product == 3
        assert hilbert_profile(products).values == (1, 4, 9, 12, 12)


class TestIdealDimension:
    def test_unique_quadric_through_grid3(self):
        assert ideal_dimension(GRID3, 2) == 1

    def test_constants_never_vanish(self):
        assert ideal_dimension(GRID3, 0) == 0

    def test_two_by_two_grid_has_six_quadrics(self):
        _, _, xs, xs2 = generic_skew_sample(2, 2, 37)
        products, _ = pairwise_products(xs, xs2)
        assert ideal_dimension(products, 2) == 6

    def test_complements_hilbert_function(self):
        for t in range(4):
            n = GRID3.ambient_dim
            assert ideal_dimension(GRID3, t) == comb(t + n, n) - hilbert_function(
                GRID3, t
            )


class TestDegreeBoundedIdeal:
    def test_planar_linear_form(self):
        forms = degree_bounded_ideal(PLANAR25, 1)
        assert [f.coefficient_vector() for f in forms] == [(14, -18, -27, 22)]

    def test_generic_four_points_no_linear_form(self):
        pts = PointSet.from_coords(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]]
        )
        assert degree_bounded_ideal(pts, 1) == []

    def test_every_form_vanishes_on_every_point(self):
        for t in (1, 2, 3):
            for f in degree_bounded_ideal(GRID3, t):
                assert all(f.vanishes_at(p) for p in GRID3)

    def test_dimension_matches_rank_nullity(self):
        for t in (1, 2, 3):
            nvars = 4
            count = len(monomials(nvars, t))
            forms = degree_bounded_ideal(GRID3, t)
            assert len(forms) == count - hilbert_function(GRID3, t)

    def test_negative_degree_is_refused(self):
        with pytest.raises(HadaError, match="degree must be nonnegative"):
            degree_bounded_ideal(GRID3, -1)

    def test_deterministic_order(self):
        a = degree_bounded_ideal(GRID3, 3)
        b = degree_bounded_ideal(GRID3, 3)
        assert [f.coefficient_vector() for f in a] == [
            f.coefficient_vector() for f in b
        ]


class TestGeneratorProfile:
    def test_grid3_one_quadric_seven_cubics(self):
        prof = generator_profile(GRID3)
        assert prof.new_in_degree(2) == 1
        assert prof.new_in_degree(3) == 7
        assert prof.total == 8

    def test_two_by_two_six_quadrics(self):
        _, _, xs, xs2 = generic_skew_sample(2, 2, 41)
        products, _ = pairwise_products(xs, xs2)
        prof = generator_profile(products)
        assert prof.new_in_degree(2) == 6 and prof.total == 6

    def test_single_point_in_plane(self):
        prof = generator_profile(PointSet.from_coords([[1, 2, 3]]))
        assert prof.new_in_degree(1) == 2 and prof.total == 2

    def test_no_generator_beyond_the_bound(self):
        prof = generator_profile(GRID3, max_degree=2)
        assert [e.degree for e in prof.entries] == [0, 1, 2]
        assert prof.new_in_degree(2) == 1
        assert prof.new_in_degree(3) == 0 and prof.new_in_degree(9) == 0

    def test_new_generators_nonnegative_and_dims_consistent(self):
        for points in (GRID2, GRID3):
            prof = generator_profile(points)
            n = points.ambient_dim
            for e in prof.entries:
                assert e.new_generators >= 0
                assert e.ideal_dim == comb(e.degree + n, n) - hilbert_function(
                    points, e.degree
                )


class TestCIVerdict:
    def test_grid2_is_ci(self):
        v = ci_verdict(GRID2)
        assert v.kind == "CI" and v.witness_degrees == (3, 4)

    def test_grid3_is_not_ci(self):
        v = ci_verdict(GRID3)
        assert v.kind == "NotCI"
        assert v.total_generators == 8
        assert "8" in v.reason

    def test_planar25_is_ci(self):
        v = ci_verdict(PLANAR25)
        assert v.kind == "CI" and v.witness_degrees == (1, 5, 5)

    def test_single_point(self):
        v = ci_verdict(PointSet.from_coords([[1, 2, 3]]))
        assert v.kind == "CI" and v.witness_degrees == (1, 1)

    def test_unknown_when_bound_too_low(self):
        v = ci_verdict(GRID2, max_degree=2)
        assert v.kind == "Unknown"


def seeded_point_sets(count, seed):
    """Point sets in P^1..P^3 with at most 9 points, cycling through
    generic coordinates, a point with x0 = 0, every coordinate vanishing
    at some point (so x0 is not a nonzerodivisor and l = x0 + c*x1 + ...
    needs c >= 1) and coordinates in {-1, 0, 1}."""
    rng = random.Random(seed)
    for i in range(count):
        n = 1 + i % 3
        kind = (i // 3) % 4
        size = rng.randint(n + 1 if kind == 2 else 1, 9)
        bound = 1 if kind == 3 else 6
        rows = []
        for k in range(4 * size):
            row = [rng.randint(-bound, bound) for _ in range(n + 1)]
            if kind == 1 and k == 0:
                row[0] = 0
            if kind == 2 and k <= n:
                row[k] = 0
            if any(row):
                rows.append(row)
        points = PointSet.dedupe(ProjPoint(r) for r in rows)
        yield PointSet(points.points[:size]), rng.randint(0, 4)


def generator_entries(profile):
    return [(e.degree, e.ideal_dim, e.new_generators) for e in profile.entries]


def full_ring_answers(points):
    """The Hilbert profile, the generator entries through tau + 1 and the
    CI verdict of the set, from Fraction ranks in the full ring: the
    oracle counts x_i * I_(t-1) in R, not in R/(l), and never leaves the
    ambient P^n."""
    n = points.ambient_dim
    entries = span_rank_generators(points)
    values = [comb(t + n, n) - dim for t, dim, _ in entries]
    tau = len(values) - 2
    h_vector = [values[0]] + [values[t] - values[t - 1] for t in range(1, tau + 1)]
    profile = HilbertProfile(tuple(values), tau, tuple(h_vector), len(points))
    total = sum(new for _, _, new in entries)
    witness = tuple(t for t, _, new in entries for _ in range(new))
    if total == n:
        verdict = CIVerdict("CI", n, total, witness)
    else:
        reason = f"{total} minimal generators exceed the codimension {n}"
        if h_vector != h_vector[::-1]:
            reason += "; h-vector is not symmetric"
        verdict = CIVerdict("NotCI", n, total, witness, reason)
    return profile, entries, verdict


def test_ladder_matches_full_ring_oracle():
    # the ladder counts generators in R/(l); the oracle counts x_i * I_(t-1)
    # in the full ring with Fraction ranks
    x0_vanishes = needs_c = 0
    for points, extra in seeded_point_sets(120, 8080):
        profile, entries, verdict = full_ring_answers(points)
        tau = profile.tau

        # an explicit bound below, at or above tau + 1, asked first of a
        # fresh copy so that a bounded call fills its stored ladder, which
        # the unbounded calls below then read
        points = PointSet(points.points)
        d = max(tau + 1 + extra - 2, 0)
        assert generator_entries(generator_profile(points, d)) == (
            span_rank_generators(points, d)
        )
        assert (ci_verdict(points, d).kind == "Unknown") == (d < tau + 1)

        assert hilbert_profile(points) == profile
        assert generator_entries(generator_profile(points)) == entries
        assert ci_verdict(points) == verdict

        x0_vanishes += any(p.coords[0] == 0 for p in points)
        needs_c += _linear_form_parameter(ideals._span_coordinates(points)[0]) >= 1
    assert x0_vanishes >= 30 and needs_c >= 30


def points_in_span(rng, n, r, size):
    """``size`` points of a random (r - 1)-dimensional linear space of
    P^n, none with a zero coordinate."""
    while True:
        basis = [[rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(r)]
        if frac_rank(basis, n + 1) == r:
            break
    rows = []
    while len(rows) < size:
        weights = [rng.randint(-6, 6) for _ in range(r)]
        row = [sum(w * b[j] for w, b in zip(weights, basis)) for j in range(n + 1)]
        if all(row) and all(frac_rank([row, other], n + 1) == 2 for other in rows):
            rows.append(row)
    return PointSet.from_coords(rows)


def degenerate_sets():
    """Sets that do not span their P^n, with the dimension of their span:
    collinear sets of P^2 and P^3, the 3 x 3 part of the planar CI of
    P^3, single points, and random points of random lines and planes."""
    for m in (2, 5):
        yield collinear_points(m, 2), 1
        yield collinear_points(m, 3), 1
    yield pairwise_products(*(PointSet(f.points[:3]) for f in PLANAR_FACTORS))[0], 2
    yield PointSet.from_coords([[2, 3, 5]]), 0
    yield PointSet.from_coords([[3, -5, 7, 11]]), 0
    rng = random.Random(2424)
    for n, r, size in ((2, 2, 4), (3, 2, 5), (3, 3, 4), (3, 3, 7)):
        yield points_in_span(rng, n, r, size), r - 1


def test_degenerate_sets_match_full_ring_oracle():
    # the ladder of a set in a line or plane is built in that span; the
    # oracle stays in the ambient P^n, linear forms included
    for points, span in degenerate_sets():
        profile, entries, verdict = full_ring_answers(points)
        points = PointSet(points.points)
        ladder = ideals._ladder(points)
        assert (ladder.dim, ladder.linear) == (span, points.ambient_dim - span)
        assert hilbert_profile(points) == profile
        assert generator_entries(generator_profile(points)) == entries
        assert entries[1][2] >= ladder.linear
        assert ci_verdict(points) == verdict


def test_small_prime_certificate_fails_on_a_spanning_set(monkeypatch):
    # modulo 2 every coordinate of these points is 1, so the span
    # certificate fails; the exact echelon of the 6 x 4 coordinate matrix
    # then finds rank 4, and the ladder stays in P^3 with the same answers
    points = PointSet.from_coords(
        [[1, 1, 1, 1], [1, 3, 1, 1], [1, 1, 3, 1], [1, 1, 1, 3], [3, 1, 1, 1], [1, 3, 5, 7]]
    )
    expected = full_ring_answers(points)
    shapes = []
    original = _elim.echelon

    def spy(rows, ncols):
        shapes.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(_elim, "echelon", spy)
    monkeypatch.setattr(_elim, "_PRIME", 2)
    fresh = PointSet(points.points)
    assert not _elim._full_rank_mod_prime([p.coords for p in fresh], 4)
    answers = (hilbert_profile(fresh), generator_entries(generator_profile(fresh)), ci_verdict(fresh))
    assert answers == expected
    assert shapes[0] == (6, 4)
    assert (fresh._ladder.dim, fresh._ladder.linear) == (3, 0)


def spy_linalg(monkeypatch):
    """Record (name, rows, columns) of every echelon, rank, kernel and
    rref call made through ``hada.linalg``."""
    calls = []

    def spy(name):
        original = getattr(linalg, name)

        def wrapped(rows, ncols):
            calls.append((name, len(rows), ncols))
            return original(rows, ncols)

        monkeypatch.setattr(linalg, name, wrapped)

    for name in ("echelon_of", "rank_of", "kernel_basis", "rref_of"):
        spy(name)
    return calls


def evaluation_shapes(points, top):
    n = points.ambient_dim
    return {(len(points), comb(t + n, n)) for t in range(top + 1)}


def spy_span_ranks(monkeypatch, name):
    """Record (t, rows, columns, rank) of every call of ``ideals.<name>``,
    ``_modular_rank`` or ``_span_rank``: the span S_1 * J_(t-1) has
    n * dim J_(t-1) rows and is taken on the dim J_t free columns of
    Z_t."""
    ranks = []
    original = getattr(ideals, name)

    def spy(ladder, n, t, free_t):
        rank = original(ladder, n, t, free_t)
        ranks.append((t, n * len(ladder.free[t - 1]), len(free_t), rank))
        return rank

    monkeypatch.setattr(ideals, name, spy)
    return ranks


def j_dims(n, values, top):
    """dim J_t for t = 0 .. top: the degree-t monomials of S minus the
    t-th entry of the h-vector (zero above tau)."""
    return [
        comb(t + n - 1, n - 1) - (values[t] - (values[t - 1] if t else 0))
        for t in range(top + 1)
    ]


def test_ci_verdict_eliminates_each_degree_once(monkeypatch):
    # a fresh copy: earlier tests may have stored the ladder of PLANAR25
    points = PointSet(PLANAR25.points)
    calls = spy_linalg(monkeypatch)
    assert ci_verdict(points).witness_degrees == (1, 5, 5)

    # the set spans a plane of P^3, so its ladder is built in P^2: one
    # echelon of the full E_tau there serves every degree and one rank
    # confirms HF(tau + 1).  The generator counts take no kernel and no
    # span rank: the staircase bound in the plane is
    # (0, 0, 0, 0, 0, 2, 1, 1, 1, 1), one remainder mod p in each of
    # degrees 6 .. tau + 1 lowers it to 0 there, the bounds then sum to
    # n = 2, and the plane's linear form adds one generator in degree 1
    tau, n = 8, 2
    assert calls == [
        ("echelon_of", 25, comb(tau + n, n)),
        ("rank_of", 25, comb(tau + 1 + n, n)),
    ] == [("echelon_of", 25, 45), ("rank_of", 25, 55)]


def test_one_ladder_serves_every_profile_question(monkeypatch):
    # both sets span P^3, so they keep their coordinates: the span
    # certificate is one pass mod p outside ``linalg``.  The 5 x 5 skew
    # grid is certified from the staircase mod p: one kernel of E_alpha
    # (alpha = 2, its quadric) and one rank of E_(tau+1) serve all three
    # questions.  With one point more it takes the exact path: one
    # echelon of E_tau and one rank of E_(tau+1) serve all three
    # questions, and the generator counts add one kernel of Z_tau and
    # one span rank at tau + 1
    grid = skew_grid(5, 4242)
    tau, n = 4, 3
    expected = {
        "staircase": [
            ("kernel_basis", 25, comb(2 + n, n)),
            ("rank_of", 25, comb(tau + 1 + n, n)),
        ],
        "exact": [
            ("echelon_of", 26, comb(tau + n, n)),
            ("rank_of", 26, comb(tau + 1 + n, n)),
            ("kernel_basis", 9, 15),
            ("rank_of", 18, 21),
        ],
    }
    for points, path in ((grid, "staircase"), (with_point(grid), "exact")):
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            prof = hilbert_profile(points)
            gens = generator_profile(points)
            verdict = ci_verdict(points)
        assert (prof.tau, gens.max_degree, verdict.kind) == (tau, 5, "NotCI")
        assert (points._ladder.dim, points._ladder.linear) == (n, 0)
        assert ladder_path(points) == path
        assert calls == expected[path]


def test_second_generator_question_eliminates_nothing(monkeypatch):
    # the counts through tau + 1 are stored with the ladder by the first
    # question; a CI verdict and bounded profiles then only read them
    _, _, xs, xs2 = generic_skew_sample(4, 4, 4747)
    points = pairwise_products(xs, xs2)[0]
    gens = generator_profile(points)
    calls = spy_linalg(monkeypatch)
    assert ci_verdict(points).witness_degrees == gens.witness_degrees()
    assert generator_profile(points) == gens
    for d in range(gens.max_degree + 3):
        bounded = generator_profile(points, d)
        assert bounded.entries[: gens.max_degree + 1] == gens.entries[: d + 1]
        assert all(e.new_generators == 0 for e in bounded.entries[gens.max_degree + 1 :])
    assert calls == []


def test_ladder_rows_equal_evaluation_in_l_coordinates(monkeypatch):
    # an exact ladder eliminates one matrix: the plain degree-tau
    # evaluation matrix of the points in l-coordinates (l(p), p1, ..., pn),
    # taken in their span: the pivot coordinates of the Fraction RREF of
    # the coordinate matrix, so n = 2 for the planar set.  Its leading
    # C(t + n, n) columns are diag(l(p))^(tau - t) * E_t, so the pivots
    # left of them count HF(t), which the Fraction oracle confirms.  The
    # last set has a zero in every coordinate, so l is not x0 there.  The
    # skew grid alone is certified: it eliminates no echelon, and its one
    # kernel is of E_2 in its own coordinates, which are its l-coordinates
    received = []
    kernels = []

    def spy(name, log):
        original = getattr(linalg, name)

        def wrapped(rows, ncols):
            log.append(([list(r) for r in rows], ncols))
            return original(rows, ncols)

        monkeypatch.setattr(linalg, name, wrapped)

    spy("echelon_of", received)
    spy("kernel_basis", kernels)
    grid = skew_grid(5, 4545)
    hilbert_profile(grid)
    assert received == [] and kernels == [(evaluation_rows(grid, 2), 10)]
    no_zero_free_coordinate = PointSet.from_coords(
        [[0, 1, 1, 1], [1, 0, 2, 1], [1, 3, 0, 1], [2, 1, 1, 0], [1, 2, 3, 4], [3, -1, 2, 5]]
    )
    sets = (with_point(grid), PointSet(PLANAR25.points), no_zero_free_coordinate)
    spans = []
    for points in sets:
        rank, span_pivots, _ = frac_rref([p.coords for p in points], points.ambient_dim + 1)
        n = rank - 1
        spans.append(n)
        span = [tuple(p.coords[j] for j in span_pivots) for p in points]
        c = _linear_form_parameter(span)
        assert (c > 0) == (points is no_zero_free_coordinate)
        coords = [(_linear_form_value(c, p),) + p[1:] for p in span]
        received.clear()
        prof = hilbert_profile(points)
        assert len(received) == 1
        rows, ncols = received[0]
        assert ncols == comb(prof.tau + n, n)
        assert rows == _evaluation_matrix(coords, n + 1, prof.tau)
        pivots = frac_rref(rows, ncols)[1]
        assert [sum(j < comb(t + n, n) for j in pivots) for t in range(prof.tau + 1)] == list(
            frac_hilbert_values(points)[: prof.tau + 1]
        )
    assert spans == [3, 2, 3]


def test_span_ranks_take_dim_j_columns(monkeypatch):
    # a span rank is taken only in a degree that the staircase bound and
    # the Krull stop leave open: first modulo p, on the dim J_t free
    # columns of Z_t, with one row per variable of S and basis vector of
    # J_(t-1).  A rank mod p that reaches the rows or the columns is exact
    # and settles the degree; planar-25 and GRID2 are settled so, and so is
    # tau + 1 of GRID3 minus a point, a not-CI set whose span there has
    # fewer rows than columns, at its full row rank.  Only the skew grid
    # with one point more keeps its degree tau + 1 open (rank 10 of 18
    # rows, also over Q) and eliminates it exactly: one kernel of Z_tau
    # and one rank on the same rows and columns.  The skew grids
    # themselves are certified, so their verdict makes no call at all
    ranks = spy_span_ranks(monkeypatch, "_modular_rank")
    skew = skew_grid(5, 4646)
    for points in (PointSet(skew.points), PointSet(GRID3.points)):
        hilbert_profile(points)
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            assert ci_verdict(points).kind == "NotCI"
        assert ladder_path(points) == "staircase"
        assert calls == ranks == []
    sets = (
        (PointSet(PLANAR25.points), False),
        (with_point(skew), True),
        (PointSet(GRID2.points), False),
        (PointSet(GRID3.points[:-1]), False),
        (PointSet.from_coords([[1, 2, 3]]), False),
    )
    made = []
    for points, open_at_top in sets:
        n = points.ambient_dim
        prof = hilbert_profile(points)
        assert ladder_path(points) == ("ceiling" if len(points) == 1 else "exact")
        tau = prof.tau
        dims = j_dims(n, prof.values, tau + 1)
        ranks.clear()
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            verdict = ci_verdict(points)
        m = ideals._ladder(points).dim  # PLANAR25 is counted in its plane
        span_dims = j_dims(m, prof.values, tau + 1) if m else []
        assert all(
            (rows, cols) == (m * span_dims[t - 1], span_dims[t]) for t, rows, cols, _ in ranks
        )
        settled = [rank == min(rows, cols) for _, rows, cols, rank in ranks]
        assert settled == [True] * (len(ranks) - open_at_top) + [False] * open_at_top
        expected = [
            ("kernel_basis", prof.h_vector[tau], comb(tau + n - 1, n - 1)),
            ("rank_of", n * dims[tau], dims[tau + 1]),
        ]
        assert calls == (expected if open_at_top else [])
        made.append(ranks[:])
    assert made[1] == [(5, 18, 21, 10)]
    assert made[3] == [(3, 6, 10, 6)] and made[4] == []


def test_collinear_points_eliminate_no_span(monkeypatch):
    # the ladder of a line's points is built in P^1.  There every block
    # holds one monomial and the pass keeps each one up to tau, so HF
    # meets the ceiling and the ladder is certified with no elimination
    # but the rank of E_(tau+1), and its staircase bound gives the counts
    # (0, ..., 0, 1).  When two points agree mod p the pass cannot decide,
    # and the exact ladder eliminates E_tau; there the staircase bound
    # (0, 0, ..., 0, 1) sums to n = 1, so the Krull stop settles every
    # count: no rank mod p, no kernel, no span rank.  Either way the two
    # linear forms that cut out the line are the degree-1 generators
    ranks = spy_span_ranks(monkeypatch, "_modular_rank")
    calls = spy_linalg(monkeypatch)
    tau, n = 19, 1
    expected = {
        "ceiling": [("rank_of", 20, comb(tau + 1 + n, n))],
        "exact": [
            ("echelon_of", 20, comb(tau + n, n)),
            ("rank_of", 20, comb(tau + 1 + n, n)),
        ],
    }
    for points, path in (
        (collinear_points(20), "ceiling"),
        (collinear_defeating_prime(20), "exact"),
    ):
        calls.clear()
        assert ci_verdict(points) == CIVerdict("CI", 3, 3, (1, 1, 20))
        assert ladder_path(points) == path
        assert calls == expected[path]
    assert expected["exact"] == [("echelon_of", 20, 20), ("rank_of", 20, 21)]
    assert ranks == []


def oracle_sets():
    """Every point set of the bundled fixtures and the products of each
    pair of them, the ladder oracle's sets, and random, collinear, grid and
    skew-grid sets in P^2 and P^3.  The 2 x 3 grid of the affine plane
    reduces to the monomial ideal (x1^2, x2^3), so its staircase bound is
    exact before any degree is tried."""
    for path in sorted(fixtures_dir().glob("*.json")):
        inst = parse_instance_dict(json.loads(path.read_text())["instance"])
        names = sorted(inst.point_sets)
        yield from (inst.point_set(name) for name in names)
        yield from (
            inst.point_set_of(product_of=[a, b]) for i, a in enumerate(names) for b in names[i + 1 :]
        )
    for points, _ in seeded_point_sets(120, 8080):
        yield points
    rng = random.Random(1616)
    for k in range(16):
        n = 2 + k % 2
        rows = [[rng.randint(-30, 30) for _ in range(n + 1)] for _ in range(40)]
        points = PointSet.dedupe(ProjPoint(r) for r in rows if any(r))
        yield PointSet(points.points[: rng.randint(n + 2, 30)])
    for m in (1, 2, 3, 7, 12):
        yield collinear_points(m, 2)
        yield collinear_points(m, 3)
    for a, b in ((2, 3), (3, 3), (4, 2), (4, 5), (5, 5)):
        _, _, xs, xs2 = generic_skew_sample(a, b, 1700 + 10 * a + b)
        yield pairwise_products(xs, xs2)[0]
        line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
        xs, xs2 = generic_collinear_sample(line, line2, a, b, 1800 + 10 * a + b)
        yield grid_product_p2(xs, xs2, line, line2).points
    yield PointSet.from_coords([[1, i, j] for i in range(2) for j in range(3)])
    yield from (GRID2, GRID3, PLANAR25)


@functools.cache
def oracle_counts():
    """The oracle sets with their ``exact_span_counts``."""
    return [(points, exact_span_counts(PointSet(points.points))) for points in oracle_sets()]


def test_generator_counts_equal_exact_span_counts(monkeypatch):
    # on certified and exact ladders alike; the collinear sets meet the
    # ceiling, the square skew grids of at least 3 x 3 points are
    # certified from their staircase, and planar-25 and the P^2 grids take
    # the exact path.  Modulo 2**61 - 1 the rank of every open span is its
    # rank over Q on these sets, so a span is eliminated exactly only
    # where that rank is below both its rows and its columns: in 5 of the
    # 179 sets, the unequal skew grids among them
    spans = spy_span_ranks(monkeypatch, "_span_rank")
    kinds = set()
    paths = Counter()
    reached = 0
    for points, expected in oracle_counts():
        points = PointSet(points.points)
        spans.clear()
        counts = ideals._generator_counts(ideals._ladder(points))
        assert counts == expected, points
        assert all(rank < min(rows, cols) for _, rows, cols, rank in spans), points
        reached += bool(spans)
        kinds.add(sum(counts) == points.ambient_dim)
        paths[ladder_path(points)] += 1
    assert kinds == {True, False}
    assert reached == 5
    assert min(paths[path] for path in ("ceiling", "staircase", "exact")) >= 20
    assert {ladder_path(collinear_points(m, dim)) for m in (1, 2, 3, 7, 12) for dim in (2, 3)} == {
        "ceiling"
    }
    assert [ladder_path(skew_grid(m, 1700 + 11 * m)) for m in (3, 5)] == ["staircase"] * 2
    assert {ladder_path(PointSet(s.points)) for s in (PLANAR25, GRID2)} == {"exact"}


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_small_prime_forces_the_exact_span_ranks(monkeypatch, prime):
    # modulo a small prime, pivot entries of Z_(t-1) vanish or the shift
    # ranks fall short, so the ranks mod p settle less and the exact span
    # ranks must give the same counts.
    # The pass decides less often too, or finds a staircase that fails a
    # check, so sets certified modulo 2**61 - 1 fall back to the exact
    # ladder, with the same values
    cases = oracle_counts()
    exact_degrees = []
    original = ideals._span_rank

    def spy(ladder, n, t, free_t):
        exact_degrees[-1].append(t)
        return original(ladder, n, t, free_t)

    ladders = [PointSet(points.points) for points, _ in cases]
    values = [ideals._ladder(points).values for points in ladders]
    certified = [ladder_path(points) != "exact" for points in ladders]
    fallbacks = 0
    monkeypatch.setattr(ideals, "_span_rank", spy)
    monkeypatch.setattr(_elim, "_PRIME", prime)
    for (points, counts), expected, was_certified in zip(cases, values, certified):
        exact_degrees.append([])
        fresh = PointSet(points.points)
        assert ideals._generator_counts(ideals._ladder(fresh)) == counts
        assert fresh._ladder.values == expected
        fallbacks += was_certified and ladder_path(fresh) == "exact"
    assert fallbacks >= 50
    if prime == 2:
        # GRID2, GRID3 and PLANAR25, the last sets, whose passes cannot
        # decide mod 2, so all three take the exact path: every degree that
        # the staircase, the Krull stop and the rank mod 2 leave open.
        # PLANAR25's ladder is built in its plane, where Z_4 has no free
        # column, so degree 5 has no span, and degree 6 has full rank mod 2
        assert exact_degrees[-3:] == [[4, 5, 6], [3], [7, 8, 9]]


def test_full_row_rank_mod_p_settles_the_top_span(monkeypatch):
    # at tau + 1 of a not-CI set the span S_1 * J_tau may have fewer rows
    # than columns.  Where its rank mod p is that row count, the count is
    # exact with no ``_span_rank``: in GRID3 minus a point and at least 19
    # oracle sets.  A skew grid with one point more has such a span
    # too (18 x 21), but its rank is 10 over Q, so it takes the exact rank,
    # which equals the rank mod p
    ranks = spy_span_ranks(monkeypatch, "_modular_rank")
    spans = spy_span_ranks(monkeypatch, "_span_rank")
    settled = []
    grid3_less = PointSet(GRID3.points[:-1])
    cases = oracle_counts() + [
        (points, exact_span_counts(PointSet(points.points)))
        for points in (grid3_less, with_point(skew_grid(5, 4747)))
    ]
    for points, expected in cases:
        fresh = PointSet(points.points)
        ranks.clear()
        spans.clear()
        assert ideals._generator_counts(ideals._ladder(fresh)) == expected
        top = fresh._ladder.tau + 1
        wide = [r for r in ranks if r[0] == top and r[1] < r[2]]
        if wide and wide[0][3] == wide[0][1]:
            assert sum(expected) > points.ambient_dim and spans == []
            settled.append(points)
    assert len(settled) >= 20 and settled[-1] is grid3_less
    # the last case is the skew grid with one point more
    assert wide == [(5, 18, 21, 10)] and spans == wide


def test_no_modular_kernel_falls_back_to_exact_span_ranks(monkeypatch):
    # with no kernel mod p the ranks mod p are 0, so every degree that the
    # staircase bound and the Krull stop leave open takes the exact span
    # rank, and the counts are the same
    spans = spy_span_ranks(monkeypatch, "_span_rank")
    monkeypatch.setattr(ideals, "_modular_kernel", lambda *args: None)
    reached = 0
    for points, expected in oracle_counts():
        spans.clear()
        fresh = PointSet(points.points)
        assert ideals._generator_counts(ideals._ladder(fresh)) == expected
        reached += bool(spans)
    assert reached >= 50
    spans.clear()
    points = PointSet(PLANAR25.points)
    assert ci_verdict(points) == CIVerdict("CI", 3, 3, (1, 5, 5))
    assert [t for t, *_ in spans] == [6, 7, 8, 9]


def test_certified_ladders_count_with_no_elimination(monkeypatch):
    # a certified ladder stores no Z_t and no counts: its staircase bound
    # is exact (the module docstring's cases (a) and (b)), so counting
    # takes no rank mod p and makes no ``linalg`` call
    ranks = spy_span_ranks(monkeypatch, "_modular_rank")
    certified = Counter()
    for points, expected in oracle_counts():
        fresh = PointSet(points.points)
        ladder = ideals._ladder(fresh)
        if ladder.reduced is not None:
            continue
        assert ladder.generators is None
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            assert ideals._generator_counts(ladder) == expected
        assert calls == ranks == []
        certified[sum(expected) == points.ambient_dim] += 1
    assert min(certified[True], certified[False]) >= 5


def test_hf_product_check_reads_stored_factor_ladders(monkeypatch):
    _, _, xs, xs2 = generic_skew_sample(3, 3, 4343)
    products = pairwise_products(xs, xs2)[0]
    hilbert_profile(xs)
    hilbert_profile(xs2)
    calls = spy_linalg(monkeypatch)
    assert hf_product_check(xs, xs2, products).ok
    factor_shapes = evaluation_shapes(xs, len(xs))
    assert calls and not [c for c in calls if c[1:] in factor_shapes]
    # ladder eliminations no longer have the evaluation shapes: every
    # one must be of the product set
    assert all(rows == len(products) for name, rows, _ in calls if name == "echelon_of")


def test_unknown_ci_verdict_counts_no_generators(monkeypatch):
    points = PointSet(GRID2.points)
    calls = spy_linalg(monkeypatch)
    assert ci_verdict(points, max_degree=2).kind == "Unknown"
    tau, n = 5, 2
    assert calls == [
        ("echelon_of", 12, comb(tau + n, n)),
        ("rank_of", 12, comb(tau + 1 + n, n)),
    ] == [("echelon_of", 12, 21), ("rank_of", 12, 28)]


def test_points_that_defeat_the_prime_fall_back_to_exact_degrees(monkeypatch):
    # the modular pass cannot decide either set: two points of the first
    # agree mod p (2**61 = 1), and l = x0 vanishes mod p at a point of the
    # second.  Each set is five points of a line and one point off it, so
    # it spans P^2 and its ladder stays there.  The ladder then eliminates
    # E_d exactly from the least d with |X| monomials (d = 2 for both) up
    # to tau = 4; answers must match the Fraction oracles
    p = _elim._PRIME
    agree_mod_p = PointSet.from_coords(
        [[1, 1, 0], [1, 2**61, 0], [1, 3, 0], [1, 5, 0], [1, 7, 0], [1, 1, 1]]
    )
    l_vanishes_mod_p = PointSet.from_coords(
        [[p, 1, 2], [1, 1, 2], [2, 1, 2], [3, 1, 2], [4, 1, 2], [1, 0, 1]]
    )
    passes = []
    original = ideals._modular_degree

    def spy_pass(*args):
        passes.append(original(*args))
        return passes[-1]

    monkeypatch.setattr(ideals, "_modular_degree", spy_pass)
    calls = spy_linalg(monkeypatch)
    for points in (agree_mod_p, l_vanishes_mod_p):
        n, card = points.ambient_dim, len(points)
        values = frac_hilbert_values(points)
        tau = len(values) - 2
        assert (n, card, tau) == (2, 6, 4)
        calls.clear()
        prof = hilbert_profile(points)
        assert prof.values == tuple(values) and prof.tau == tau
        assert [c for c in calls if c[0] == "echelon_of"] == [
            ("echelon_of", card, comb(d + n, n)) for d in range(2, tau + 1)
        ]
        expected = span_rank_generators(points, tau + 1)
        assert generator_entries(generator_profile(points)) == expected
        # the line's form times the two linear forms through the point off
        # it, and a quintic through all six points
        assert [new for _, _, new in expected] == [0, 0, 2, 0, 0, 1]
        assert ci_verdict(points) == CIVerdict(
            "NotCI", n, 3, (2, 2, 5),
            "3 minimal generators exceed the codimension 2; h-vector is not symmetric",
        )
    assert passes == [None, None]


def test_any_degree_at_least_tau_gives_the_same_ladder(monkeypatch):
    # on the exact path the prime only picks d; eliminating a larger E_d
    # must answer alike.  The ladder of the collinear set is built in P^1,
    # and its pass cannot decide, so d starts at the least degree with
    # |X| monomials.  The certified sets, a skew grid and collinear
    # points whose pass decides, eliminate no echelon at all
    sets = [
        GRID2, PointSet(GRID3.points[:-1]), collinear_defeating_prime(4), GRID3, collinear_points(4)
    ]
    spans = [2, 3, 1, 3, 1]
    answers = [
        (hilbert_profile(s), generator_profile(s), ci_verdict(s))
        for s in (PointSet(points.points) for points in sets)
    ]
    original = ideals._exact_ladder
    monkeypatch.setattr(ideals, "_exact_ladder", lambda lcoords, n, d: original(lcoords, n, d + 2))
    calls = spy_linalg(monkeypatch)
    for points, n, expected in zip(sets, spans, answers):
        fresh = PointSet(points.points)
        assert (hilbert_profile(fresh), generator_profile(fresh), ci_verdict(fresh)) == expected
        if ladder_path(fresh) == "exact":
            d = expected[0].tau + 2
            assert calls[0] == ("echelon_of", len(points), comb(d + n, n))
        else:
            assert "echelon_of" not in {name for name, _, _ in calls}
        calls.clear()
    paths = [ladder_path(PointSet(s.points)) for s in sets]
    assert paths == ["exact"] * 3 + ["staircase", "ceiling"]


def test_stored_ladder_rows_are_primitive():
    # a slice of an echelon row of E_d keeps the common factors of the
    # whole row; on this 5x5 skew grid with one point more they reach
    # hundreds of bits.  Certified ladders store no rows
    skew = skew_grid(5, 2000)
    exact = (with_point(skew), GRID2, PointSet(GRID3.points[:-1]), PLANAR25,
             collinear_defeating_prime(6))
    for points in exact:
        ladder = ideals._ladder(PointSet(points.points))
        rows = [row for block in ladder.reduced for row in block]
        assert rows and all(gcd(*row) == 1 for row in rows)
    for points in (skew, GRID3, collinear_points(6)):
        assert ideals._ladder(PointSet(points.points)).reduced is None


def test_skew_grid_questions_take_one_kernel_and_one_rank(monkeypatch):
    # a 5 x 5 skew grid is certified from its staircase mod p: the
    # profile, generator, CI and quadric questions take one kernel of E_2
    # (its quadric) and the rank of E_(tau+1), and the quadric, read from
    # the stored kernel, equals the one eliminated directly on a copy
    # with no ladder.  A second quadric question eliminates nothing.  The
    # P^2 grids of the CI benchmark keep the exact path: one echelon and
    # one rank each
    grid = skew_grid(5, 4848)
    direct = degree_bounded_ideal(PointSet(grid.points), 2)
    calls = spy_linalg(monkeypatch)
    hilbert_profile(grid)
    generator_profile(grid)
    ci_verdict(grid)
    quadric = quadric_through(grid)
    assert calls == [("kernel_basis", 25, 10), ("rank_of", 25, 56)]
    assert quadric.form == direct[0] and len(direct) == 1
    calls.clear()
    assert quadric_through(grid) == quadric
    assert calls == []
    line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
    for a, b, expected in ((5, 5, [(25, 45), (25, 55)]), (4, 5, [(20, 36), (20, 45)])):
        xs, xs2 = generic_collinear_sample(line, line2, a, b, 1900 + 10 * a + b)
        points = grid_product_p2(xs, xs2, line, line2).points
        calls.clear()
        assert ci_verdict(points).kind == "CI"
        assert calls == [("echelon_of", *expected[0]), ("rank_of", *expected[1])]


def certified_oracle_sets():
    """Square skew grids of 2 x 2 to 5 x 5 points, three seeds each, a
    4 x 4 grid with one point less, one point more and its 3 x 4
    sub-grid, and random points of P^2 and P^3, whose Hilbert functions
    are maximal, with the path each is expected to take."""
    for m in (2, 3, 4, 5):
        for seed in range(3):
            yield skew_grid(m, 3100 + 10 * m + seed), "ceiling" if m == 2 else "staircase"
    _, _, xs, xs2 = generic_skew_sample(4, 4, 3200)
    grid = pairwise_products(xs, xs2)[0]
    yield PointSet(grid.points[1:]), "exact"
    yield with_point(grid), "exact"
    yield pairwise_products(PointSet(xs.points[:3]), xs2)[0], "exact"
    rng = random.Random(3300)
    for n, size, path in ((2, 5, "staircase"), (2, 6, "ceiling"), (2, 7, "exact"),
                          (2, 9, "staircase"), (3, 6, "exact"), (3, 8, "exact"),
                          (3, 9, "staircase"), (3, 10, "ceiling"), (3, 11, "exact")):
        rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(size)]
        yield PointSet.from_coords(rows), path


def test_certified_ladders_match_full_ring_oracle():
    # every answer of a certified ladder, and of the sets near it that
    # take the exact path, equals the Fraction oracle in the full ring,
    # and ``degree_bounded_ideal`` in degrees 0 .. 3, which reads the
    # stored kernel of E_alpha after a profile question, equals direct
    # elimination on a copy with no ladder
    for points, path in certified_oracle_sets():
        assert len(PointSet.dedupe(points.points)) == len(points)
        profile, entries, verdict = full_ring_answers(points)
        direct = [degree_bounded_ideal(PointSet(points.points), t) for t in range(4)]
        fresh = PointSet(points.points)
        assert hilbert_profile(fresh) == profile
        assert generator_entries(generator_profile(fresh)) == entries
        assert ci_verdict(fresh) == verdict
        assert ladder_path(fresh) == path, points
        assert [degree_bounded_ideal(fresh, t) for t in range(4)] == direct
        c = _linear_form_parameter(ideals._span_coordinates(fresh)[0])
        assert (fresh._ladder.lowest is not None) == (path == "staircase" and c == 0)


def test_staircase_the_exact_kernel_contradicts_falls_back(monkeypatch):
    # the pass of GRID3 keeps all of block 2 but one monomial q, the
    # quadric's lead.  Told instead that a second monomial g of block 2,
    # prime to q, is free, the staircase passes the set arithmetic (the
    # products of S_1 with {q, g} are distinct), but the one exact kernel
    # of E_2 leads at q alone, so the exact ladder runs and every answer
    # is the oracle's; the false staircase would give HF(2) = 8
    points = PointSet(GRID3.points)
    expected = full_ring_answers(points)
    original = ideals._modular_degree

    def false_staircase(*args):
        d, standard = original(*args)
        (q,) = set(monomials(3, 2)) - standard[2]
        g = next(e for e in standard[2] if not any(a and b for a, b in zip(e, q)))
        return d, standard[:2] + [standard[2] - {g}]

    monkeypatch.setattr(ideals, "_modular_degree", false_staircase)
    calls = spy_linalg(monkeypatch)
    answers = (
        hilbert_profile(points), generator_entries(generator_profile(points)), ci_verdict(points)
    )
    assert answers == expected
    assert ladder_path(points) == "exact"
    assert [name for name, _, _ in calls[:2]] == ["kernel_basis", "echelon_of"]


def test_certified_sets_off_their_coordinates_eliminate_degree_bounded_ideal():
    # the stored kernel of E_alpha is in l-coordinates of the span, which
    # are the set's own only when c = 0 and the set spans its P^n.  Five
    # points of P^2, one with x0 = 0 (so c >= 1), and five points of a
    # plane of P^3 are both certified from their staircase (one conic,
    # alpha = 2), store no kernel, and ``degree_bounded_ideal`` eliminates
    # E_t of the given points
    rng = random.Random(3400)
    off_x0 = PointSet.from_coords([[0, 1, 2], [1, 3, -1], [2, -1, 4], [1, 5, 7], [3, 2, -5]])
    in_plane = points_in_span(rng, 3, 3, 5)
    for points, c, linear in ((off_x0, 2, 0), (in_plane, 0, 1)):
        direct = [degree_bounded_ideal(PointSet(points.points), t) for t in range(4)]
        fresh = PointSet(points.points)
        hilbert_profile(fresh)
        assert ladder_path(fresh) == "staircase"
        assert _linear_form_parameter(ideals._span_coordinates(fresh)[0]) == c
        assert (fresh._ladder.linear, fresh._ladder.lowest) == (linear, None)
        assert [degree_bounded_ideal(fresh, t) for t in range(4)] == direct
        assert generator_entries(generator_profile(fresh)) == span_rank_generators(points)


def test_evaluation_matrix_matches_monomial_by_monomial_reference():
    rng = random.Random(1313)
    for nvars in range(1, 5):
        for degree in range(10):
            coords = [tuple(rng.randint(-7, 7) for _ in range(nvars)) for _ in range(6)]
            coords += [(0,) * nvars, tuple(-1 for _ in range(nvars))]
            assert _evaluation_matrix(coords, nvars, degree) == ref_evaluation_matrix(
                coords, nvars, degree
            )
