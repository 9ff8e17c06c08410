"""Hilbert functions, generator counts and CI verdicts."""

import functools
import json
import random
from collections import Counter, namedtuple
from fractions import Fraction
from math import comb, gcd
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from hada import _elim, ideals, linalg
from hada.errors import HadaError
from hada.fixtures import fixtures_dir
from hada.forms import evaluate_monomial, monomials
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


Built = namedtuple("Built", "path kernels ranks covers")


def build_ladder(points):
    """Build the ladder of a set that has none yet, spying on the calls of
    ``ideals._squeeze_ladder``, ``ideals._counts`` and ``ideals._covers``,
    and say how it was built.

    ``path`` is "closed" (no squeeze: the covers of a product set alone
    close the bound, with no pass mod p), "exact" (the fallback: HF(t) is
    the rank of E_t), or, squeezed between the pass mod p and the bound,
    "ceiling" (the bound met the pass with no exact form: HF is
    min(C(t+n, n), |X|)) or "squeeze" (with the multiples of the forms of
    at least one exact kernel).  ``kernels`` lists the degrees of the
    exact kernels taken, in order, ``ranks`` the (rows, columns, rank) of
    every exact rank the counts took, and ``covers`` the degrees up to
    tau of the cover forms built, the ones the closure tries."""
    assert points._ladder is None
    calls, ranks, built = [], [], []
    squeeze, counts, covers = ideals._squeeze_ladder, ideals._counts, ideals._covers

    def spy_squeeze(lcoords, n, values, found, kernels):
        result = squeeze(lcoords, n, values, found, kernels)
        calls.append((found is None, tuple(kernels)))
        return result

    def spy_counts(*args):
        rank_of = linalg.rank_of

        def recorded(rows, ncols):
            ranks.append((len(rows), ncols, rank_of(rows, ncols)))
            return ranks[-1][2]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "rank_of", recorded)
            return counts(*args)

    def spy_covers(*args):
        built.append(covers(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ideals, "_squeeze_ladder", spy_squeeze)
        patch.setattr(ideals, "_counts", spy_counts)
        patch.setattr(ideals, "_covers", spy_covers)
        ideals._ladder(points)
    tau = points._ladder.tau
    degrees = tuple(sorted(t for forms, _ in built for t in forms if t <= tau))
    if not calls:
        return Built("closed", (), ranks, degrees)
    exact, kernels = calls[-1]
    path = "exact" if exact else "squeeze" if kernels else "ceiling"
    return Built(path, kernels, ranks, degrees)


def ladder_answers(points):
    """The stored ladder's HF values, tau and generator counts."""
    ladder = ideals._ladder(points)
    return ladder.values, ladder.tau, ladder.generators


def no_squeeze(patch):
    """Make the squeeze of every pass fail, as a pass whose bound cannot
    close would, so that every set takes the fallback: HF(t) from the
    rank of E_t for t = 0 .. tau, and the counts from the same loop on
    those values."""
    original = ideals._squeeze_ladder

    def squeeze(lcoords, n, values, found, kernels):
        return None if found else original(lcoords, n, values, found, kernels)

    patch.setattr(ideals, "_squeeze_ladder", squeeze)


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
    """Record (name, rows, columns) of every rank, kernel and rref call
    made through ``hada.linalg``."""
    calls = []

    def spy(name):
        original = getattr(linalg, name)

        def wrapped(rows, ncols):
            calls.append((name, len(rows), ncols))
            return original(rows, ncols)

        monkeypatch.setattr(linalg, name, wrapped)

    for name in ("rank_of", "kernel_basis", "rref_of"):
        spy(name)
    return calls


def evaluation_shapes(points, top):
    n = points.ambient_dim
    return {(len(points), comb(t + n, n)) for t in range(top + 1)}


def spy_mod_spans(monkeypatch):
    """Record (rows, columns, rank mod p) of every span whose rank mod p
    the ladder takes, in the order taken: the multiples M_t of the exact
    forms in t = 0 .. tau, and the span at tau + 1.  A span with no row
    is recorded with 0 columns."""
    spans = []
    original = ideals._mod_span

    def spy(rows):
        span = original(rows)
        spans.append((len(rows), len(rows[0]) if rows else 0, len(span)))
        return span

    monkeypatch.setattr(ideals, "_mod_span", spy)
    return spans


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
    assert build_ladder(points).kernels == (5,)
    assert ci_verdict(points).witness_degrees == (1, 5, 5)

    # the set spans a plane of P^3, so its ladder is built in P^2.  There
    # the pass first keeps fewer than C(t + n, n) columns in degree 5, so
    # one kernel of E_5, on the HF(5) = 19 rows of the pass's pivots, gives
    # the two quintics; their multiples meet the pass in degrees 6 .. tau
    # and settle every count mod p, at full rows (dim J_t columns at tau,
    # all of S_9 at tau + 1).  One rank confirms HF(tau + 1), and the
    # plane's linear form adds one generator in degree 1
    tau, n = 8, 2
    assert points._ladder.values[5] == comb(5 + n, n) - 2
    assert calls == [
        ("kernel_basis", comb(5 + n, n) - 2, comb(5 + n, n)),
        ("rank_of", 25, comb(tau + 1 + n, n)),
    ] == [("kernel_basis", 19, 21), ("rank_of", 25, 55)]


def test_one_ladder_serves_every_profile_question(monkeypatch):
    # both sets span P^3, so they keep their coordinates: the span
    # certificate is one pass mod p outside ``linalg``.  Both are squeezed
    # between the pass and the multiples of exact forms, and the first
    # question counts the generators too.  The 5 x 5 skew grid takes one
    # kernel of E_2 (its quadric), on the HF(2) = 9 rows of the pass's
    # pivots, and one rank of E_(tau+1) for all three questions.  With one
    # point more the first kernel is of E_3 (three cubics), on HF(3) = 17
    # rows, and S_2 times them at tau + 1, 18 rows on the 21 monomials of
    # S_5, have rank 10 mod p: short of both, so that count takes one
    # exact rank.  The grid as a product knows its factors: its covers
    # close the bound, and the rank of E_(tau+1) is its one elimination
    product = skew_grid(5, 4242)
    grid = PointSet(product.points)
    tau, n = 4, 3
    expected = {
        25: [("kernel_basis", 9, comb(2 + n, n)), ("rank_of", 25, comb(tau + 1 + n, n))],
        26: [
            ("kernel_basis", 17, comb(3 + n, n)),
            ("rank_of", 18, 21),
            ("rank_of", 26, comb(tau + 1 + n, n)),
        ],
    }
    for points in (grid, with_point(grid)):
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            path = build_ladder(points).path
            prof = hilbert_profile(points)
            gens = generator_profile(points)
            verdict = ci_verdict(points)
        assert (prof.tau, gens.max_degree, verdict.kind) == (tau, 5, "NotCI")
        assert (points._ladder.dim, points._ladder.linear) == (n, 0)
        assert path == "squeeze"
        assert calls == expected[len(points)]
    with monkeypatch.context() as patch:
        calls = spy_linalg(patch)
        path = build_ladder(product).path
        verdict = ci_verdict(product)
    assert (path, verdict.kind) == ("closed", "NotCI")
    assert calls == expected[25][1:]
    assert ladder_answers(product) == ladder_answers(grid)


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
    # every matrix the ladder eliminates exactly is a plain evaluation
    # matrix of the points in l-coordinates (l(p), p1, ..., pn), or rows of
    # one, taken in their span: the pivot coordinates of the Fraction RREF of the
    # coordinate matrix, so n = 2 for the planar set.  The squeeze takes
    # the kernel of E_t in each of its kernel degrees, on HF(t) of its
    # rows, in their order, which the Fraction oracle finds independent;
    # the skew grid's one kernel is of E_2 in its own coordinates, which
    # are its l-coordinates (the grid's points are given alone: as a
    # product, its covers would close).  Either way the last rank is of
    # the whole E_(tau+1), its columns reversed into ascending monomial
    # order, the l-free ones first.  The fallback (here the squeeze is made to
    # fail) first takes the rank of the whole E_t for t = 0 .. tau, the
    # Fraction oracle's HF(t).  The last set has a zero in every coordinate, so l
    # is not x0 there
    ranks = []
    kernels = []

    def spy(name, log):
        original = getattr(linalg, name)

        def wrapped(rows, ncols):
            result = original(rows, ncols)
            log.append(([list(r) for r in rows], ncols, result))
            return result

        monkeypatch.setattr(linalg, name, wrapped)

    def independent_rows_of(kernel, matrix, ncols, value):
        rows, cols, _ = kernel
        remaining = iter(matrix)
        assert all(any(row == full for full in remaining) for row in rows)
        assert cols == ncols and len(rows) == frac_rank(rows, ncols) == value

    def evaluations(coords, n, degrees):
        return [(_evaluation_matrix(coords, n + 1, t), comb(t + n, n)) for t in degrees]

    def ascending(matrix, ncols):
        return [row[::-1] for row in matrix], ncols

    spy("rank_of", ranks)
    spy("kernel_basis", kernels)
    grid = PointSet(skew_grid(5, 4545).points)
    tau = hilbert_profile(grid).tau
    assert len(kernels) == 1
    independent_rows_of(kernels[0], evaluation_rows(grid, 2), 10, frac_hilbert_values(grid)[2])
    assert [r[:2] for r in ranks] == [ascending(evaluation_rows(grid, tau + 1), comb(tau + 4, 3))]
    no_zero_free_coordinate = PointSet.from_coords(
        [[0, 1, 1, 1], [1, 0, 2, 1], [1, 3, 0, 1], [2, 1, 1, 0], [1, 2, 3, 4], [3, -1, 2, 5]]
    )
    sets = (with_point(grid), PointSet(PLANAR25.points), no_zero_free_coordinate)
    spans = []
    kernel_degrees = []
    for points in sets:
        rank, span_pivots, _ = frac_rref([p.coords for p in points], points.ambient_dim + 1)
        n = rank - 1
        spans.append(n)
        span = [tuple(p.coords[j] for j in span_pivots) for p in points]
        c = _linear_form_parameter(span)
        assert (c > 0) == (points is no_zero_free_coordinate)
        coords = [(_linear_form_value(c, p),) + p[1:] for p in span]
        values = frac_hilbert_values(points)
        tau = len(values) - 2
        kernels.clear()
        ranks.clear()
        degrees = build_ladder(PointSet(points.points)).kernels
        kernel_degrees.append(degrees)
        assert len(kernels) == len(degrees)
        for kernel, t in zip(kernels, degrees):
            matrix = _evaluation_matrix(coords, n + 1, t)
            independent_rows_of(kernel, matrix, comb(t + n, n), values[t])
        assert ranks[-1] == ascending(*evaluations(coords, n, [tau + 1])[0]) + (len(points),)
        ranks.clear()
        with monkeypatch.context() as patch:
            no_squeeze(patch)
            prof = hilbert_profile(PointSet(points.points))
        assert prof.values == tuple(values)
        assert [r[:2] for r in ranks[: tau + 1]] == evaluations(coords, n, range(tau + 1))
        assert [r[2] for r in ranks[: tau + 1]] == values[: tau + 1]
        assert ranks[-1][:2] == ascending(*evaluations(coords, n, [tau + 1])[0])
    assert spans == [3, 2, 3]
    # the last set meets the ceiling, but its count at tau + 1 is not
    # settled mod p, so the exact rank there takes the kernel of E_tau
    assert kernel_degrees == [(3,), (5,), (2,)]


def test_span_ranks_take_dim_j_columns(monkeypatch):
    # the count in degree t is dim J_t minus the rank of S_1 * J_(t-1),
    # which the multiples M_t of the exact forms span (at tau + 1 of a set
    # with new generators in degree tau, the shifts of a basis of J_tau
    # mod p): one row per form and monomial, on the |S_t| columns.  A rank
    # mod p that reaches the rows or dim J_t is exact and settles the
    # count, and so it does for every set here but the skew grid with one
    # point more: S_2 times its three cubics, 18 rows on the 21 columns of
    # S_5, have rank 10 mod p, also over Q, and that count takes one exact
    # rank on the same rows.  Every set counts with its first question,
    # so a verdict after a profile makes no call at all
    spans = spy_mod_spans(monkeypatch)
    skew = skew_grid(5, 4646)
    sets = (skew, with_point(skew), GRID3, PointSet(GRID3.points[:-1]), PLANAR25, GRID2,
            PointSet.from_coords([[1, 2, 3]]))
    made = []
    for points in (PointSet(s.points) for s in sets):
        spans.clear()
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            prof = hilbert_profile(points)
        m = points._ladder.dim  # PLANAR25 is counted in its plane
        dims = j_dims(m, prof.values, prof.tau + 1) if m else [0, 0]
        assert len(spans) == prof.tau + 2
        assert all(cols == comb(t + m - 1, m - 1) for t, (rows, cols, _) in enumerate(spans) if rows)
        open_spans = [
            (rows, cols) for (rows, cols, rank), dim in zip(spans, dims) if rank < min(rows, dim)
        ]
        assert [c[1:] for c in calls if c[0] == "rank_of"][:-1] == open_spans
        made.append(open_spans)
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            ci_verdict(points)
        assert calls == []
    assert made == [[], [(18, 21)], [], [], [], [], []]
    assert spans == [(0, 0, 0), (0, 0, 0)]


def test_collinear_points_eliminate_no_span(monkeypatch):
    # the ladder of a line's points is built in P^1.  There every block
    # holds one monomial and the pass keeps each one up to tau, so HF
    # meets the ceiling with no elimination but the rank of E_(tau+1).
    # When two points agree mod p the pass cannot decide, and the fallback
    # takes the rank of E_t for t = 0 .. tau + 1.  Either way J_t = 0
    # through tau, so no form is found and no span has a row: the counts
    # are (0, ..., 0, 1), with no kernel and no span rank, and the two
    # linear forms that cut out the line are the degree-1 generators
    spans = spy_mod_spans(monkeypatch)
    calls = spy_linalg(monkeypatch)
    tau, n = 19, 1
    expected = {
        "ceiling": [("rank_of", 20, comb(tau + 1 + n, n))],
        "exact": [("rank_of", 20, comb(t + n, n)) for t in range(tau + 2)],
    }
    for points, path in (
        (collinear_points(20), "ceiling"),
        (collinear_defeating_prime(20), "exact"),
    ):
        calls.clear()
        assert build_ladder(points).path == path
        assert ci_verdict(points) == CIVerdict("CI", 3, 3, (1, 1, 20))
        assert calls == expected[path]
    assert expected["exact"][-2:] == [("rank_of", 20, 20), ("rank_of", 20, 21)]
    assert {rows for rows, _, _ in spans} == {0}


def oracle_sets():
    """Every point set of the bundled fixtures and the products of each
    pair of them, the ladder oracle's sets, and random, collinear, grid and
    skew-grid sets in P^2 and P^3.  The 2 x 3 grid of the affine plane
    reduces to the monomial ideal (x1^2, x2^3), a complete intersection
    of forms of two degrees."""
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


def test_generator_counts_equal_exact_span_counts():
    # on squeezed and exact ladders alike.  Modulo 2**61 - 1 every pass of
    # the 179 sets decides and its bound meets it, so none takes the
    # fallback.  The collinear sets and the 3 x 3 skew grids meet the
    # ceiling; the larger square skew grids, planar-25 and the P^2 grids
    # take the multiples of their exact forms.  A count is eliminated
    # exactly only where its rank mod p is short of both its rows and
    # dim J_t and the Krull stop does not settle it: in 5 of the sets, the
    # unequal skew grids among them.  Modulo 2**61 - 1 the rank of every
    # such span is its rank over Q on these sets, so each exact rank is
    # short of both too.  Every set here is given by its points alone;
    # the skew grids as products close from their covers
    kinds = set()
    paths = Counter()
    reached = 0
    for points, expected in oracle_counts():
        points = PointSet(points.points)
        built = build_ladder(points)
        ladder = points._ladder
        assert ladder.generators == expected, points
        m = ladder.dim  # at least 2 where a rank is taken
        for rows, cols, rank in built.ranks:
            dims = j_dims(m, ladder.values, ladder.tau + 1)
            (t,) = [t for t in range(len(dims)) if comb(t + m - 1, m - 1) == cols]
            assert rank < min(rows, dims[t]), points
        reached += bool(built.ranks)
        kinds.add(sum(expected) == points.ambient_dim)
        paths[built.path] += 1
    assert kinds == {True, False}
    assert reached == 5
    assert paths["exact"] == 0 and min(paths["ceiling"], paths["squeeze"]) >= 15
    assert {
        build_ladder(collinear_points(m, dim)).path for m in (1, 2, 3, 7, 12) for dim in (2, 3)
    } == {"ceiling"}
    grids = [skew_grid(m, 1700 + 11 * m) for m in (3, 5)]
    assert [build_ladder(PointSet(grid.points)).path for grid in grids] == ["ceiling", "squeeze"]
    assert [build_ladder(grid).path for grid in grids] == ["closed", "closed"]
    assert {build_ladder(PointSet(s.points)).path for s in (PLANAR25, GRID2)} == {"squeeze"}


def test_squeezed_kernels_equal_the_full_kernel(monkeypatch):
    # the squeeze takes the kernel of E_t on the HF(t) rows of the pass's
    # pivots, and keeps it only when every other row annihilates it: then
    # it is the kernel of the whole E_t, with the same canonical basis.  So
    # every kernel a ladder keeps equals ``kernel_basis`` of the full E_t
    # in l-coordinates.  On the oracle sets every restricted kernel passes
    # that check: the ladders keep 22 kernels, and the 18 below tau are
    # taken on fewer rows than points (the 4 of E_tau take all of them)
    original = ideals._squeeze_ladder
    taken = []

    def spy(lcoords, n, values, found, kernels):
        counts = original(lcoords, n, values, found, kernels)
        taken.append((lcoords, n, list(values), dict(kernels)))
        return counts

    monkeypatch.setattr(ideals, "_squeeze_ladder", spy)
    shapes = spy_linalg(monkeypatch)
    checked = kept = 0
    for points in oracle_sets():
        taken.clear()
        shapes.clear()
        ideals._ladder(PointSet(points.points))
        lcoords, n, values, kernels = taken[-1]
        rows = [rows for name, rows, _ in shapes if name == "kernel_basis"]
        assert len(rows) == len(kernels)
        for (t, kernel), count in zip(kernels.items(), rows):
            full = _evaluation_matrix(lcoords, n + 1, t)
            assert kernel == linalg.kernel_basis(full, comb(t + n, n))
            assert count == values[t] and (count < len(points)) == (t < len(values) - 1)
            checked += count < len(points)
        kept += len(kernels)
    assert (kept, checked) == (22, 18)


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_small_prime_forces_the_exact_span_ranks(monkeypatch, prime):
    # modulo a small prime the pass decides less often, or claims values
    # that the squeeze cannot meet, so sets squeezed modulo 2**61 - 1 fall
    # back to the exact ranks of E_t, with the same values; and the ranks
    # mod p of the spans fall short more often, so the exact ranks must
    # give the same counts
    cases = oracle_counts()
    ladders = [PointSet(points.points) for points, _ in cases]
    squeezed = [build_ladder(points).path != "exact" for points in ladders]
    monkeypatch.setattr(_elim, "_PRIME", prime)
    fallbacks = exact_ranks = 0
    shapes = []
    for (points, counts), ladder, was_squeezed in zip(cases, ladders, squeezed):
        fresh = PointSet(points.points)
        built = build_ladder(fresh)
        assert fresh._ladder.generators == counts
        assert fresh._ladder.values == ladder._ladder.values
        fallbacks += was_squeezed and built.path == "exact"
        exact_ranks += bool(built.ranks)
        shapes.append(built.ranks)
    assert fallbacks >= 50 and exact_ranks >= 20
    if prime == 2:
        # GRID2, GRID3 and PLANAR25, the last sets, whose passes cannot
        # decide mod 2, take the exact path.  Mod 2 the multiples of their
        # exact forms still settle some counts: GRID3's shifts of J_2 have
        # full row rank, GRID2 takes one exact rank, at tau + 1 = 6, and
        # PLANAR25, in its plane, two, in degrees 7 and tau + 1 = 9.  Each
        # is (rows, columns, rank); the ranks mod 2 were short
        assert shapes[-3:] == [[(7, 7, 7)], [], [(6, 8, 6), (13, 10, 10)]]


def test_full_row_rank_mod_p_settles_the_top_span(monkeypatch):
    # at tau + 1 of a not-CI set the span S_1 * J_tau may have fewer rows
    # than columns.  Where its rank mod p is that row count, the count is
    # exact with no exact rank: in GRID3 minus a point and at least 19
    # oracle sets.  A skew grid with one point more has such a span too
    # (18 x 21), but its rank is 10 over Q, so it takes the exact rank,
    # which equals the rank mod p
    spans = spy_mod_spans(monkeypatch)
    settled = []
    grid3_less = PointSet(GRID3.points[:-1])
    cases = oracle_counts() + [
        (points, exact_span_counts(PointSet(points.points)))
        for points in (grid3_less, with_point(skew_grid(5, 4747)))
    ]
    for points, expected in cases:
        fresh = PointSet(points.points)
        spans.clear()
        ranks = build_ladder(fresh).ranks
        assert fresh._ladder.generators == expected
        rows, cols, rank = top = spans[-1]
        if rows < cols and rank == rows:
            assert sum(expected) > points.ambient_dim and ranks == []
            settled.append(points)
    assert len(settled) >= 20 and settled[-1] is grid3_less
    # the last case is the skew grid with one point more
    assert top == (18, 21, 10) and ranks == [(18, 21, 10)]


def test_no_modular_kernel_falls_back_to_exact_span_ranks(monkeypatch):
    # with every rank mod p of a span patched to 0, the multiples settle
    # nothing: every degree below tau with J_t nonzero takes the exact
    # kernel of E_t, and every count that the Krull stop leaves open takes
    # the exact rank of its span, and the counts are the same
    monkeypatch.setattr(ideals, "_mod_span", lambda rows: _elim.ModBasis())
    reached = 0
    for points, expected in oracle_counts():
        fresh = PointSet(points.points)
        reached += bool(build_ladder(fresh).ranks)
        assert fresh._ladder.generators == expected
    assert reached >= 50
    points = PointSet(PLANAR25.points)
    ranks = build_ladder(points).ranks
    assert ci_verdict(points) == CIVerdict("CI", 3, 3, (1, 5, 5))
    # in its plane: the multiples of the two quintics in degree 6, then
    # of every form of J_6 and J_7 too (none is kept out mod p), and at
    # tau + 1 the shifts of J_8, as (rows, columns, rank)
    assert ranks == [(4, 7, 4), (14, 8, 6), (32, 9, 8), (16, 10, 10)]


def test_certified_ladders_count_with_no_elimination(monkeypatch):
    # a squeezed ladder stores no echelon rows, and it counts its
    # generators when it is built, from the multiples of its exact forms
    # (the module docstring's squeeze): a generator question then reads
    # them, with no rank mod p and no ``linalg`` call
    spans = spy_mod_spans(monkeypatch)
    certified = Counter()
    for points, expected in oracle_counts():
        fresh = PointSet(points.points)
        assert build_ladder(fresh).path != "exact"
        assert fresh._ladder.generators == expected
        spans.clear()
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            generator_profile(fresh)
            ci_verdict(fresh)
        assert calls == spans == []
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
    # the product set, a 3 x 3 grid, meets the ceiling with tau = 2, so its
    # one elimination is the rank of its E_3
    assert calls == [("rank_of", len(products), comb(3 + 3, 3))]


def test_unknown_ci_verdict_counts_no_generators(monkeypatch):
    points = PointSet(GRID2.points)
    calls = spy_linalg(monkeypatch)
    assert ci_verdict(points, max_degree=2).kind == "Unknown"
    tau, n = 5, 2
    # the squeeze takes the kernels of E_3 and E_4 (the cubic and the
    # quartic of the 3 x 4 grid), each on the HF(t) rows of the pass's
    # pivots, and settles its counts mod p
    values = points._ladder.values
    assert values[3:5] == (comb(3 + n, n) - 1, comb(4 + n, n) - 4)
    assert calls == [
        ("kernel_basis", values[3], comb(3 + n, n)),
        ("kernel_basis", values[4], comb(4 + n, n)),
        ("rank_of", 12, comb(tau + 1 + n, n)),
    ] == [("kernel_basis", 9, 10), ("kernel_basis", 11, 15), ("rank_of", 12, 28)]


def test_points_that_defeat_the_prime_fall_back_to_exact_degrees(monkeypatch):
    # the modular pass cannot decide either set: two points of the first
    # agree mod p (2**61 = 1), and l = x0 vanishes mod p at a point of the
    # second.  Each set is five points of a line and one point off it, so
    # it spans P^2 and its ladder stays there.  The fallback then takes
    # the rank of E_t for t = 0 .. tau = 4 and, after the counts, tau + 1;
    # the counts take the kernel of E_2, whose two forms are new, and one
    # span rank, at tau + 1 (S_3 times the two forms, on S_5).  Answers
    # must match the Fraction oracles
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
        ranks = [("rank_of", card, comb(t + n, n)) for t in range(tau + 2)]
        counts = [("kernel_basis", card, comb(2 + n, n)), ("rank_of", 8, 6)]
        assert calls == ranks[:-1] + counts + ranks[-1:]
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


def test_fallback_without_the_squeeze_gives_the_squeezed_answers(monkeypatch):
    # with the squeeze made to fail, every set takes the fallback: the rank
    # of E_t for t = 0 .. tau, the counts from the same loop on those
    # values, and the rank of E_(tau+1).  Its answers are those of the
    # ladder built unpatched: squeezed for GRID2, at the ceiling for GRID3,
    # GRID3 minus a point and collinear points whose pass decides.
    # The ladder of the collinear set is built in P^1, and its pass cannot
    # decide, so it takes the fallback either way.  With no pass, the
    # counts take each kernel of E_t on all of its rows
    sets = [
        GRID2, PointSet(GRID3.points[:-1]), collinear_defeating_prime(4), GRID3, collinear_points(4)
    ]
    spans = [2, 3, 1, 3, 1]
    unpatched = [PointSet(points.points) for points in sets]
    assert [build_ladder(s).path for s in unpatched] == [
        "squeeze", "ceiling", "exact", "ceiling", "ceiling"
    ]
    answers = [(hilbert_profile(s), generator_profile(s), ci_verdict(s)) for s in unpatched]
    calls = spy_linalg(monkeypatch)
    no_squeeze(monkeypatch)
    kernels = []
    for points, n, expected in zip(sets, spans, answers):
        fresh = PointSet(points.points)
        assert build_ladder(fresh).path == "exact"
        assert (hilbert_profile(fresh), generator_profile(fresh), ci_verdict(fresh)) == expected
        card, tau = len(points), expected[0].tau
        ranks = [("rank_of", card, comb(t + n, n)) for t in range(tau + 2)]
        assert calls[: tau + 1] == ranks[:-1] and calls[-1] == ranks[-1]
        kernels.append(calls[tau + 1 : -1])
        calls.clear()
    assert kernels == [
        [("kernel_basis", 12, 10), ("kernel_basis", 12, 15)], [("kernel_basis", 8, 10)], [],
        [("kernel_basis", 9, 10)], [],
    ]


def test_stored_ladder_rows_are_primitive(monkeypatch):
    # a ladder stores no echelon rows: the fallback keeps HF alone and
    # counts from exact kernels, as the squeeze does.  The rows its counts
    # multiply are the exact forms, the block-t parts of kernel vectors,
    # which keep common factors of the whole vector (up to 29 bits on
    # these sets) and are made primitive.  This 5x5 skew grid with one
    # point more and the other sets are squeezed, and the fallback
    # (the squeeze made to fail, or a pass that cannot decide) takes
    # kernels too: every form either takes is primitive
    forms = []
    original = ideals._exact_forms

    def spy(*args):
        basis = original(*args)
        forms.extend(basis)
        return basis

    monkeypatch.setattr(ideals, "_exact_forms", spy)
    skew = skew_grid(5, 2000)
    sets = (with_point(skew), GRID2, PointSet(GRID3.points[:-1]), PLANAR25, skew)
    for points in sets:
        assert build_ladder(PointSet(points.points)).path != "exact"
    squeezed = len(forms)
    no_squeeze(monkeypatch)
    for points in sets[:-1] + (collinear_defeating_prime(6),):
        assert build_ladder(PointSet(points.points)).path == "exact"
    assert 0 < squeezed < len(forms)
    assert all(gcd(*v) == 1 for v in forms)


def test_skew_grid_questions_take_one_kernel_and_one_rank(monkeypatch):
    # the points of a 5 x 5 skew grid, given alone, are squeezed with one
    # exact kernel: the profile, generator, CI and quadric questions take
    # that kernel of E_2 (its quadric) on its HF(2) = 9 independent rows,
    # and the rank of E_(tau+1), and the quadric, read from the stored
    # kernel, equals the one eliminated directly on a copy with no ladder.
    # A second quadric question eliminates nothing.  The grid as a
    # product closes from its covers and takes the rank alone.  The P^2
    # grids of the CI benchmark are squeezed too.  Their points alone take
    # a kernel in the degree of each of their two forms (one, for a square
    # grid), each on HF(t) rows, and one rank.  The grids' product sets
    # know their factors, whose cover forms are those two forms: they take
    # the one rank alone, and their ladders are the same
    product = skew_grid(5, 4848)
    direct = degree_bounded_ideal(PointSet(product.points), 2)
    calls = spy_linalg(monkeypatch)
    for grid, expected in (
        (PointSet(product.points), [("kernel_basis", 9, 10), ("rank_of", 25, 56)]),
        (product, [("rank_of", 25, 56)]),
    ):
        calls.clear()
        hilbert_profile(grid)
        generator_profile(grid)
        ci_verdict(grid)
        quadric = quadric_through(grid)
        assert calls == expected
        assert quadric.form == direct[0] and len(direct) == 1
        calls.clear()
        assert quadric_through(grid) == quadric
        assert calls == []
    line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
    for a, b, degrees, top in ((5, 5, [5], 8), (4, 5, [4, 5], 7)):
        xs, xs2 = generic_collinear_sample(line, line2, a, b, 1900 + 10 * a + b)
        product = grid_product_p2(xs, xs2, line, line2).points
        points = PointSet(product.points)
        calls.clear()
        assert ci_verdict(points).kind == "CI"
        values = points._ladder.values
        assert calls == [("kernel_basis", values[t], comb(t + 2, 2)) for t in degrees] + [
            ("rank_of", a * b, comb(top + 3, 2))
        ]
        calls.clear()
        assert ci_verdict(product).kind == "CI"
        assert calls == [("rank_of", a * b, comb(top + 3, 2))]
        assert ladder_answers(product) == ladder_answers(points)
        # HF(t) of a complete intersection of forms of degrees a and b, in
        # the degrees below a + b: the monomials of degree t less the
        # multiples of each form
        assert [values[t] for t in degrees] == [
            comb(t + 2, 2) - sum(comb(t - e + 2, 2) for e in (a, b) if e <= t) for t in degrees
        ]


def random_points(size, n, seed, bound):
    """``size`` distinct points of P^n with coordinates drawn from
    [-bound, bound] by ``random.Random(seed)``."""
    rng = random.Random(seed)
    rows = [[rng.randint(-bound, bound) for _ in range(n + 1)] for _ in range(2 * size)]
    return PointSet(PointSet.dedupe(ProjPoint(r) for r in rows if any(r)).points[:size])


def certified_oracle_sets():
    """Square skew grids of 2 x 2 to 5 x 5 points, three seeds each, a
    4 x 4 grid with one point less, one point more and its 3 x 4
    sub-grid, and random points of P^2 and P^3, whose Hilbert functions
    are maximal, with the path each is expected to take: the 2 x 2 and
    3 x 3 grids and the random sets meet the ceiling, the others are
    squeezed with one or two kernels."""
    for m in (2, 3, 4, 5):
        for seed in range(3):
            yield skew_grid(m, 3100 + 10 * m + seed), "ceiling" if m <= 3 else "squeeze"
    _, _, xs, xs2 = generic_skew_sample(4, 4, 3200)
    grid = pairwise_products(xs, xs2)[0]
    yield PointSet(grid.points[1:]), "squeeze"
    yield with_point(grid), "squeeze"
    yield pairwise_products(PointSet(xs.points[:3]), xs2)[0], "squeeze"
    rng = random.Random(3300)
    for n, size in ((2, 5), (2, 6), (2, 7), (2, 9), (3, 6), (3, 8), (3, 9), (3, 10), (3, 11)):
        rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(size)]
        yield PointSet.from_coords(rows), "ceiling"


def test_certified_ladders_match_full_ring_oracle():
    # every answer of a squeezed ladder equals the Fraction oracle in the
    # full ring, and ``degree_bounded_ideal`` in degrees 0 .. 3 and in
    # every degree whose kernel the ladder keeps, which it reads after a
    # profile question, equals direct elimination on a copy with no ladder
    for points, path in certified_oracle_sets():
        assert len(PointSet.dedupe(points.points)) == len(points)
        profile, entries, verdict = full_ring_answers(points)
        direct = [degree_bounded_ideal(PointSet(points.points), t) for t in range(4)]
        fresh = PointSet(points.points)
        assert build_ladder(fresh).path == path, points
        assert hilbert_profile(fresh) == profile
        assert generator_entries(generator_profile(fresh)) == entries
        assert ci_verdict(fresh) == verdict
        assert [degree_bounded_ideal(fresh, t) for t in range(4)] == direct
        c = _linear_form_parameter(ideals._span_coordinates(fresh)[0])
        kept = fresh._ladder.kernels
        assert bool(kept) == (path == "squeeze" and c == 0)
        for t in kept:
            assert degree_bounded_ideal(fresh, t) == degree_bounded_ideal(
                PointSet(points.points), t
            )


@pytest.mark.parametrize("prime", [_elim._PRIME, 7, 13])
def test_random_sets_match_full_ring_oracle(monkeypatch, prime):
    # random points of P^2 and P^3 have maximal Hilbert functions, so the
    # pass meets the ceiling min(C(t + n, n), |X|) and the squeeze takes
    # no kernel.  J_tau is then the first nonzero J_t, and its count at
    # tau + 1 takes the shifts of its basis mod p, read off the pass's
    # kernel of E_tau mod p.  A small prime leaves more passes undecided
    # (the fallback) and some of those counts short of both rows and
    # columns: those take the exact kernel of E_tau and one exact rank
    # (the seeds give each small prime at least one such set).  Every
    # answer equals the Fraction oracle in the full ring
    monkeypatch.setattr(_elim, "_PRIME", prime)
    paths = Counter()
    for k in range(30):
        points = random_points(4 + k % 13, 2 + k % 2, 3620 + k, 9)
        expected = full_ring_answers(points)
        fresh = PointSet(points.points)
        built = build_ladder(fresh)
        answers = (
            hilbert_profile(fresh), generator_entries(generator_profile(fresh)), ci_verdict(fresh)
        )
        assert answers == expected, points
        paths[built.path, built.kernels == (fresh._ladder.tau,) and built.ranks != []] += 1
    if prime > 13:
        assert paths == {("ceiling", False): 30}
    else:
        assert paths["ceiling", False] >= 5 and paths["squeeze", True] >= 1


def test_random_points_of_the_plane_take_no_exact_elimination(monkeypatch):
    # 60 random points of P^2 meet the ceiling up to tau = 10, so HF and
    # tau are exact with no exact elimination.  J_t = 0 below tau, so the
    # six forms of J_10 are new generators, and the 12 shifts of J_10 mod
    # p, the reduction of the saturated integer kernel, have full rank
    # mod p on the 12 monomials of S_11: no generator is new there.  The
    # one linear algebra call left is the rank that confirms HF(tau + 1)
    points = random_points(60, 2, 1, 50)
    calls = spy_linalg(monkeypatch)
    verdict = ci_verdict(points)
    assert calls == [("rank_of", 60, comb(11 + 2, 2))]
    assert points._ladder.tau == 10 and verdict.witness_degrees == (10,) * 6


def test_ten_by_ten_plane_grid_takes_one_kernel(monkeypatch):
    # a 10 x 10 grid of P^2 is a complete intersection of two forms of
    # degree 10.  For its points alone, the pass first keeps fewer columns
    # than the ceiling in degree 10; the kernel of E_10 there, taken on the
    # HF(10) = 64 rows of the pass's pivots, has dimension 2, and the
    # multiples of the two forms meet the pass in every degree up to
    # tau = 18, so nothing else is eliminated but the rank of E_19.  The
    # grid's product set knows its factors, and their two cover forms of
    # degree 10 fill J_10 mod p: it takes no kernel, only the rank of E_19,
    # and its ladder is the same
    line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
    xs, xs2 = generic_collinear_sample(line, line2, 10, 10, 2010)
    grid = grid_product_p2(xs, xs2, line, line2).points
    points = PointSet(grid.points)
    kernels = []
    original = linalg.kernel_basis

    def spy(rows, ncols):
        kernel = original(rows, ncols)
        kernels.append((len(rows), ncols, len(kernel)))
        return kernel

    monkeypatch.setattr(linalg, "kernel_basis", spy)
    calls = spy_linalg(monkeypatch)
    assert ci_verdict(points) == CIVerdict("CI", 2, 2, (10, 10))
    assert kernels == [(comb(10 + 2, 2) - 2, comb(10 + 2, 2), 2)]
    assert [name for name, *_ in calls] == ["kernel_basis", "rank_of"]
    assert points._ladder.tau == 18
    calls.clear()
    assert ci_verdict(grid) == CIVerdict("CI", 2, 2, (10, 10))
    assert calls == [("rank_of", 100, comb(19 + 2, 2))] and len(kernels) == 1
    assert ladder_answers(grid) == ladder_answers(points)


def cover_cases():
    """Product sets with the degrees of the cover forms expected of them:
    P^2 grids, the product X * X of a collinear set with itself (the grid
    condition fails), a collinear set with a point that has a zero
    coordinate times a grid factor (no cover from that side), a collinear
    set times three points that span P^2 (no cover from that side either),
    and products of sets on skew lines of P^3, with |F| + 1 per-point
    covers of degree |F| from each side and their quadric.  Then products
    that span a
    plane of P^3: planar-25 and its 3 x 3 part, and two products in the
    plane x1 = x2.  In the first of those, F spans that plane and G lies
    on a line of it, so a * H_G is not x1 = x2 but each b * H_F is: the
    cover of degree |G| vanishes on the span and is left out.  In the
    second, both factors span x1 = x2, and so neither has a cover."""
    line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
    for a, b in ((3, 4), (5, 5)):
        xs, xs2 = generic_collinear_sample(line, line2, a, b, 2400 + 10 * a + b)
        yield pairwise_products(xs, xs2)[0], [a, b]
    yield pairwise_products(xs, xs)[0], [5, 5]
    zero = PointSet(xs.points[:3] + (ProjPoint([10, 0, 1]),))
    assert all(line.contains(p) for p in zero)
    yield pairwise_products(zero, xs2)[0], [5]
    spanning = PointSet.from_coords([[1, 2, 3], [2, -1, 5], [3, 1, -4]])
    yield pairwise_products(spanning, xs2)[0], [3]
    for a, b in ((2, 5), (4, 4)):
        _, _, ys, ys2 = generic_skew_sample(a, b, 2500 + 10 * a + b)
        yield pairwise_products(ys, ys2)[0], [a] * (a + 1) + [b] * (b + 1) + [2]
    yield pairwise_products(*PLANAR_FACTORS)[0], [5, 5]
    yield pairwise_products(*(PointSet(f.points[:3]) for f in PLANAR_FACTORS))[0], [3, 3]
    plane = PointSet.from_coords([[1, 2, 2, 3], [2, 1, 1, 5], [3, 4, 4, 1], [5, 3, 3, 2]])
    line = PointSet.from_coords([[1, 1, 1, 2], [1, 1, 1, 3], [2, 2, 2, 1]])
    yield pairwise_products(plane, line)[0], [4]
    other = PointSet.from_coords([[1, 3, 3, 2], [4, 1, 1, 3], [2, 5, 5, 7]])
    yield pairwise_products(plane, other)[0], []


def product_form(linears):
    """The product of the linear forms ``linears`` (Fraction coefficients
    on their variables), on the monomials of its degree."""
    n = len(linears[0])
    poly = {(0,) * n: Fraction(1)}
    for w in linears:
        out = {}
        for e, x in poly.items():
            for i in range(n):
                key = e[:i] + (e[i] + 1,) + e[i + 1 :]
                out[key] = out.get(key, 0) + x * w[i]
        poly = out
    return [poly.get(e, 0) for e in monomials(n, len(linears))]


def restricted_cover(linears):
    """The product of the linear forms ``linears`` (Fraction coefficients
    on x0 .. xn) restricted to x0 = 0, on the monomials of x1 .. xn."""
    return product_form([w[1:] for w in linears])


def segre_quadric(factors):
    """z0 z3 - z1 z2 with z = A^-1 x, in Fractions, for A with columns
    p * r, p * s, q * r and q * s, p and q the first two points of the
    first factor and r and s those of the second; None when A is
    singular."""
    (p, q), (r, s) = (f.points[:2] for f in factors)
    columns = [[x * y for x, y in zip(a.coords, b.coords)] for a in (p, q) for b in (r, s)]
    augmented = [[col[i] for col in columns] + [int(i == j) for j in range(4)] for i in range(4)]
    rank, _, solved = frac_rref(augmented, 4)
    if rank < 4:
        return None
    z = [row[4:] for row in solved]
    return [a - b for a, b in zip(product_form([z[0], z[3]]), product_form([z[1], z[2]]))]


def reference_covers(product):
    """The cover forms ``_covers`` should give, by degree, from Fraction
    arithmetic, and the Segre quadric, or None.  Each factor G in a
    hyperplane (the canonical kernel vectors of its coordinate matrix),
    with a factor F that has no zero coordinate, gives a product over a in
    F of (a * H_a), which vanishes at every product point a * b.  H_a is
    the first kernel vector, or, when the set spans P^3 and G lies on a
    line, the first one for the first k points of F and the second for
    the rest, k = |F| .. 0.  In the pivot coordinates y of the span of
    the set, each a * H is the linear form w with w(y(p)) = (a * H)(p) at
    every point p, which the points fix, as they span it: for a set that
    spans its P^n, w is a * H itself.  Evaluated at the span coordinates,
    the product of the w vanishes at every point, and its restriction to
    y0 = 0 is the cover; an a * H that contains the span has w = 0, and
    its covers are left out.  When the set spans P^3 and both factors
    lie on lines, the terms of the quadric free of x0 join degree 2."""
    n = product.ambient_dim
    coords, m, _ = ideals._span_coordinates(product)
    expected, quadric = {}, None
    kernels = [linalg.kernel_basis([b.coords for b in g], n + 1) for g in product._factors]
    for f, kernel in zip(product._factors, kernels[::-1]):
        if not kernel or any(0 in a.coords for a in f):
            continue
        planes = kernel if m == n == 3 and len(kernel) == 2 else kernel[:1]
        restricted = []
        for h in planes:
            restricted.append([])
            for a in f:
                values = [sum(Fraction(x * y, z) for x, y, z in zip(h, p.coords, a.coords))
                          for p in product]
                _, pivots, solved = frac_rref([list(y) + [v] for y, v in zip(coords, values)], m + 2)
                assert pivots == list(range(m + 1))
                restricted[-1].append([row[-1] for row in solved])
        if not all(any(w) for w in restricted[0]):
            continue
        for k in range(len(f), -1, -1) if len(planes) == 2 else [len(f)]:
            ws = [restricted[i >= k][i] for i in range(len(f))]
            for y in coords:
                assert 0 in [sum(map(mul, w, y)) for w in ws]
            expected.setdefault(len(f), []).append(restricted_cover(ws))
    if m == n == 3 and all(len(kernel) == 2 for kernel in kernels):
        quadric = segre_quadric(product._factors)
        for p in product:
            assert sum(x * evaluate_monomial(e, p.coords)
                       for x, e in zip(quadric, monomials(4, 2))) == 0
        free_of_x0 = [x for x, e in zip(quadric, monomials(4, 2)) if not e[0]]
        expected.setdefault(2, []).append(free_of_x0)
    return expected, quadric


def assert_proportional(form, reference):
    """``form`` is a nonzero primitive integer vector, a nonzero multiple
    of ``reference``."""
    assert gcd(*form) == 1 and any(form)
    i = next(i for i, x in enumerate(form) if x)
    ratio = reference[i] / form[i]
    assert ratio and list(reference) == [ratio * x for x in form]


def test_cover_forms_vanish_on_their_products():
    # the covers ``_covers`` gives are those of ``reference_covers``, up to
    # nonzero factors, made primitive, and each product's ladder equals
    # that of its points alone
    for product, degrees in cover_cases():
        n = product.ambient_dim
        _, m, span = ideals._span_coordinates(product)
        assert len(span) == n - m
        covers, quadric = ideals._covers(product._factors, span, m, len(product))
        assert sorted(t for t, forms in covers.items() for _ in forms) == sorted(degrees)
        expected, reference = reference_covers(product)
        assert sorted(expected) == sorted(covers)
        for t, forms in covers.items():
            assert len(forms) == len(expected[t])
            for form, cover in zip(forms, expected[t]):
                assert_proportional(form, cover)
        assert (quadric is None) == (reference is None)
        assert ladder_answers(fresh_product(product)) == ladder_answers(PointSet(product.points))


def fresh_product(points):
    """A copy of the set with no ladder that keeps its factors."""
    fresh = PointSet(points.points)
    fresh._factors = points._factors
    return fresh


@pytest.mark.parametrize("prime", [_elim._PRIME, 2, 3, 7])
def test_product_ladders_equal_the_ladders_of_their_points(monkeypatch, prime):
    # the cover forms of a product set close the bound alone or are not
    # used, and change no answer: on every product set of the oracle
    # families the ladder (HF, tau and the counts) equals that of the same
    # points with no factors, and the oracle's counts.  All 19 have covers
    # up to tau at every prime (the products that span P^3 have their
    # per-point covers and quadric: a failed span certificate leaves them
    # no linear form, so they still span P^3).  Modulo 2**61 - 1 all 19
    # close; a small prime closes fewer (none mod 2, 4 mod 3 and 6 mod 7)
    # and the rest take the pass or the fallback, which fill J_t from
    # exact kernels alone, so none of them is left without a kernel
    monkeypatch.setattr(_elim, "_PRIME", prime)
    products = [(p, counts) for p, counts in oracle_counts() if p._factors is not None]
    assert len(products) == 19
    covered = Counter()
    for points, counts in products:
        product, bare = fresh_product(points), PointSet(points.points)
        built = build_ladder(product)
        assert ladder_answers(product) == ladder_answers(bare)
        assert product._ladder.generators == counts
        for t in {t for ladder in (product._ladder, bare._ladder) for t in ladder.kernels}:
            assert degree_bounded_ideal(product, t) == degree_bounded_ideal(bare, t)
        if built.covers:
            covered[built.path, points.ambient_dim, built.kernels] += 1
    assert sum(covered.values()) == 19
    if prime > 7:
        assert covered == {("closed", 2, ()): 7, ("closed", 3, ()): 12}
    else:
        closed = sum(k for (path, _, _), k in covered.items() if path == "closed")
        no_kernel = sum(k for (path, _, ks), k in covered.items() if path == "exact" and not ks)
        assert (closed, no_kernel) == {2: (0, 0), 3: (4, 0), 7: (6, 0)}[prime]


@pytest.mark.parametrize("prime", [_elim._PRIME, 2])
def test_cover_forms_reach_the_closure_alone(monkeypatch, prime):
    # the forms ``_covers`` builds are tried by ``_close`` and by nothing
    # else: none of them joins a ``ModBasis`` or a multiple outside the
    # closure, and the squeeze, its fallback and the counts never see
    # them.  Modulo 2**61 - 1 every oracle product closes; modulo 2 none
    # does, and each takes the exact path with kernels of its own
    monkeypatch.setattr(_elim, "_PRIME", prime)
    covers_of, close, multiples = ideals._covers, ideals._close, ideals._multiples
    add = _elim.ModBasis.add
    forms, closures, inside, strays = {}, [], [], []

    def spy_covers(*args):
        covers, quadric = covers_of(*args)
        forms.update((id(g), g) for gs in covers.values() for g in gs)
        return covers, quadric

    def spy_close(n, card, covers):
        assert all(id(g) in forms for gs in covers.values() for g in gs)
        inside.append(True)
        try:
            closed = close(n, card, covers)
        finally:
            inside.pop()
        closures.append(closed is not None)
        return closed

    def stray(vectors):
        if not inside:
            strays.extend(v for v in vectors if forms.get(id(v)) is v)

    def spy_multiples(by_degree, n, t):
        stray([g for _, gs in by_degree for g in gs])
        return multiples(by_degree, n, t)

    def spy_add(self, vector):
        stray([vector])
        return add(self, vector)

    monkeypatch.setattr(ideals, "_covers", spy_covers)
    monkeypatch.setattr(ideals, "_close", spy_close)
    monkeypatch.setattr(ideals, "_multiples", spy_multiples)
    monkeypatch.setattr(_elim.ModBasis, "add", spy_add)
    products = [p for p, _ in oracle_counts() if p._factors is not None]
    assert len(products) == 19
    for points in products:
        product = fresh_product(points)
        built = build_ladder(product)
        assert built.path == ("closed" if prime > 2 else "exact") and built.covers
        assert ladder_answers(product) == ladder_answers(PointSet(points.points))
    assert forms and strays == []
    assert closures == [prime > 2] * 19


def test_covered_products_take_no_pass_and_no_kernel(monkeypatch):
    # planar-25 as the product of its two factors, a complete intersection
    # of type (1, 5, 5) in a plane of P^3, and a 5 x 5 P^2 grid, the
    # complete intersection of its 5 row lines and 5 column lines: the
    # covers of each, restricted to its span for planar-25, close the bound
    # alone.  ``ci_verdict`` makes no pass mod p and takes no kernel; its one
    # exact elimination is the rank of E_(tau+1), on the 25 points and the
    # C(tau + 3, 2) monomials of degree tau + 1 = 9 of the plane.  The
    # profile and the verdict are those of the points with no factors and
    # of the full-ring oracle
    line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
    xs, xs2 = generic_collinear_sample(line, line2, 5, 5, 2555)
    passes = []
    original = ideals._modular_degree

    def spy_pass(*args):
        passes.append(args)
        return original(*args)

    monkeypatch.setattr(ideals, "_modular_degree", spy_pass)
    for factors in (PLANAR_FACTORS, (xs, xs2)):
        passes.clear()
        product = pairwise_products(*factors)[0]
        expected = full_ring_answers(product)
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            verdict = ci_verdict(product)
        assert passes == [] and calls == [("rank_of", 25, comb(9 + 2, 2))]
        assert verdict == expected[2] and verdict.witness_degrees[-2:] == (5, 5)
        assert product._ladder.tau == 8 and product._ladder.values[-1] == 25
        bare = PointSet(product.points)
        for points in (product, bare):
            answers = (
                hilbert_profile(points), generator_entries(generator_profile(points)),
                ci_verdict(points),
            )
            assert answers == expected
        assert len(passes) == 1


def test_confirmation_certificate_walks_no_dependent_column(monkeypatch):
    # the ci-verdicts shapes: planar-25 and the 3 x 3, 4 x 5 and 5 x 5 P^2
    # grids, each made as a product, close from their covers, so the one
    # exact rank of the ladder is the HF(tau+1) confirmation, |X| x
    # C(tau + 1 + n, n) in the plane of the set.  Its columns come in
    # ascending monomial order, the l-free ones first, and the certificate
    # mod p walks the columns of that wide matrix into a ModBasis: it adds
    # exactly |X| of them, and keeps every one.  In descending order the
    # l-divisible columns D * E_tau come first, and some of them are
    # dependent
    line, line2 = Hyperplane([3, 1, -30]), Hyperplane([67, -6, -110])
    products = [pairwise_products(*PLANAR_FACTORS)[0]] + [
        pairwise_products(*generic_collinear_sample(line, line2, a, b, 2600 + 10 * a + b))[0]
        for a, b in ((3, 3), (4, 5), (5, 5))
    ]
    walks, inside = [], []
    full_rank, add = _elim._full_rank_mod_prime, _elim.ModBasis.add

    def spy_full_rank(rows, ncols):
        walks.append(((len(rows), ncols), []))
        inside.append(True)
        try:
            return full_rank(rows, ncols)
        finally:
            inside.pop()

    def spy_add(self, vector):
        kept = add(self, vector)
        if inside:
            walks[-1][1].append(kept)
        return kept

    monkeypatch.setattr(_elim, "_full_rank_mod_prime", spy_full_rank)
    monkeypatch.setattr(_elim.ModBasis, "add", spy_add)
    for product in products:
        walks.clear()
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            ci_verdict(product)
        ladder, card = product._ladder, len(product)
        assert ladder.dim == 2 and ladder.values[-1] == card
        shape = (card, comb(ladder.tau + 3, 2))
        assert calls == [("rank_of", *shape)]
        assert [kept for size, kept in walks if size == shape] == [[True] * card]


def zero_coordinate_product():
    """A 4 x 3 product of points on two skew lines of P^3, one point of
    the first factor with a zero coordinate."""
    return pairwise_products(
        PointSet.from_coords([[1, 0, 2, 3], [2, 1, 1, 1], [3, 1, 3, 4], [1, 1, -1, -2]]),
        PointSet.from_coords([[1, 2, 3, 4], [2, 3, 1, 5], [3, 5, 4, 9]]),
    )[0]


@pytest.mark.parametrize("prime", [_elim._PRIME, 2, 5])
def test_covers_that_do_not_close_take_the_pass(monkeypatch, prime):
    # the 8-point product of P^3 in the oracle families, a 2 x 4 grid of
    # skew lines, closes modulo 2**61 - 1 from its covers of degree 2 (the
    # per-point ones and its quadric) and 4; its points alone take the
    # pass, and the kernel of E_2 on the HF(2) = 6 rows of its pivots.
    # Modulo the patched primes 2 and 5 at most one product closes.  A
    # product with a zero coordinate in one factor has no covers of that
    # factor's degree, and the rest do not close whatever the prime.
    # Either way every answer is unchanged
    monkeypatch.setattr(_elim, "_PRIME", prime)
    closes = []
    original = ideals._close

    def spy_close(n, card, covers):
        closed = original(n, card, covers)
        closes.append(closed is not None)
        return closed

    monkeypatch.setattr(ideals, "_close", spy_close)
    products = [(p, counts) for p, counts in oracle_counts() if p._factors is not None]
    for points, counts in products:
        product = fresh_product(points)
        with monkeypatch.context() as patch:
            calls = spy_linalg(patch)
            built = build_ladder(product)
        assert ladder_answers(product) == ladder_answers(PointSet(points.points))
        assert product._ladder.generators == counts
        if points.ambient_dim == 3 and len(points) == 8 and prime > 5:
            assert (built.path, built.covers, built.kernels) == ("closed", (2,), ())
            assert closes[-1] is True
            bare = PointSet(points.points)
            with monkeypatch.context() as patch:
                calls = spy_linalg(patch)
                built = build_ladder(bare)
            assert (built.path, built.covers, built.kernels) == ("squeeze", (), (2,))
            assert calls[0] == ("kernel_basis", 6, 10)
    assert len(closes) == 19 and sum(closes) == {2: 0, 5: 1}.get(prime, 19)
    product = zero_coordinate_product()
    build_ladder(product)
    assert closes[-1] is False
    assert ladder_answers(product) == ladder_answers(PointSet(product.points))


def test_covers_that_fall_short_still_take_the_kernel():
    # a grid of skew lines of P^3 with a factor F of two points lies on the
    # products of two planes a * H_a (a in F) for each per-point choice of
    # the H_a through the other factor's line, and on the grid's quadric:
    # these covers of degree 2 fill J_2 mod p and close the bound with
    # those of degree |G|, while its points alone take the kernel of E_2.
    # A factor F with a zero coordinate gives no cover of degree |F|: the
    # 4 x 3 product's cubic covers and the multiples of its quadric do not
    # fill J_3 mod p, so its covers do not close, and the squeeze takes the
    # kernels of E_2 and E_3, those its points alone take.  Every answer is
    # the oracle's
    cases = []
    for a, b in ((2, 5), (4, 2)):
        _, _, xs, xs2 = generic_skew_sample(a, b, 2600 + 10 * a + b)
        product = pairwise_products(xs, xs2)[0]
        cases.append((product, ("closed", (2,), ())))
        cases.append((PointSet(product.points), ("squeeze", (), (2,))))
    product = zero_coordinate_product()
    cases.append((product, ("squeeze", (2, 3), (2, 3))))
    cases.append((PointSet(product.points), ("squeeze", (), (2, 3))))
    for points, path in cases:
        expected = full_ring_answers(points)
        built = build_ladder(points)
        assert (built.path, built.covers, built.kernels) == path
        answers = (
            hilbert_profile(points), generator_entries(generator_profile(points)), ci_verdict(points)
        )
        assert answers == expected


@pytest.mark.parametrize("a, b", [(2, 5), (4, 2), (3, 4), (4, 5), (5, 5)])
def test_segre_quadric_and_per_point_covers_vanish_on_skew_products(a, b):
    # the quadric ``_covers`` builds from integer cofactors is primitive,
    # its last nonzero entry positive, and a multiple of z0 z3 - z1 z2 with
    # z = A^-1 x in Fractions, which vanishes at every product point; each
    # per-point cover is that of ``reference_covers``, whose products of
    # planes vanish there.  The covers close the bound, and the ladder is
    # that of the points alone, HF(t) = min(t + 1, a) * min(t + 1, b)
    _, _, xs, xs2 = generic_skew_sample(a, b, 2700 + 10 * a + b)
    product = pairwise_products(xs, xs2)[0]
    covers, quadric = ideals._covers(product._factors, [], 3, len(product))
    expected, reference = reference_covers(product)
    counts = Counter({a: a + 1}) + Counter({b: b + 1}) + Counter({2: 1})
    assert {t: len(forms) for t, forms in covers.items()} == counts
    assert {t: len(forms) for t, forms in expected.items()} == counts
    for t, forms in covers.items():
        for form, cover in zip(forms, expected[t]):
            assert_proportional(form, cover)
    assert_proportional(quadric, reference)
    assert next(x for x in reversed(quadric) if x) > 0
    assert build_ladder(product).path == "closed"
    values = product._ladder.values
    assert values == tuple(min(t + 1, a) * min(t + 1, b) for t in range(len(values)))
    assert ladder_answers(product) == ladder_answers(PointSet(product.points))


def test_a_singular_segre_matrix_gives_no_quadric():
    # X * X for two points p, q of a line: p * q is both columns p * s and
    # q * r of A, which is singular, so no quadric is built even when
    # ``_covers`` is told the set spans P^3 (it spans a plane)
    xs = PointSet.from_coords([[1, 1, 1, 1], [1, 2, 3, 4]])
    product = pairwise_products(xs, xs)[0]
    assert segre_quadric(product._factors) is None
    covers, quadric = ideals._covers(product._factors, [], 3, len(product))
    assert quadric is None and sorted(covers) == [2]
    assert ladder_answers(fresh_product(product)) == ladder_answers(PointSet(product.points))


def test_a_factor_with_a_zero_coordinate_has_no_covers_of_its_degree():
    # F has a point with a zero coordinate, so a * H is not defined for it
    # and F gives no cover of degree |F| = 4; G gives its |G| + 1 = 4
    # per-point covers of degree 3, and both lines give the quadric
    product = zero_coordinate_product()
    covers, quadric = ideals._covers(product._factors, [], 3, len(product))
    assert {t: len(forms) for t, forms in covers.items()} == {3: 4, 2: 1}
    expected, reference = reference_covers(product)
    for t, forms in covers.items():
        for form, cover in zip(forms, expected[t]):
            assert_proportional(form, cover)
    assert_proportional(quadric, reference)


def test_a_product_that_spans_p3_has_per_point_covers_when_the_certificate_fails(
    monkeypatch,
):
    # a 3 x 4 product of points on two skew lines spans P^3, but x0 and x1
    # are odd at every point, so modulo 2 its coordinate matrix has rank 3
    # and the span certificate fails.  The exact kernel of that matrix is
    # empty: the set has no linear form and spans P^3 after all, so
    # ``_covers`` gives each factor's |F| + 1 per-point covers and the
    # quadric, which a failed certificate used to withhold (one cover per
    # factor and no quadric).  Every answer is the oracle's
    xs = PointSet.from_coords([[1, 1, 1, 2], [3, 1, 2, 3], [5, 1, 3, 4]])
    xs2 = PointSet.from_coords([[1, 1, 2, 1], [3, 3, 3, 4], [5, 5, 4, 7], [7, 7, 5, 10]])
    product = pairwise_products(xs, xs2)[0]
    expected = full_ring_answers(product)
    expected_covers, reference = reference_covers(product)
    monkeypatch.setattr(_elim, "_PRIME", 2)
    coords = [p.coords for p in product]
    assert not _elim._full_rank_mod_prime(coords, 4)
    _, m, span = ideals._span_coordinates(product)
    assert (m, span) == (3, [])
    covers, quadric = ideals._covers(product._factors, span, m, len(product))
    assert {t: len(forms) for t, forms in covers.items()} == {3: 4, 4: 5, 2: 1}
    for t, forms in covers.items():
        for form, cover in zip(forms, expected_covers[t]):
            assert_proportional(form, cover)
    assert_proportional(quadric, reference)
    points = fresh_product(product)
    answers = (
        hilbert_profile(points), generator_entries(generator_profile(points)), ci_verdict(points)
    )
    assert answers == expected


def test_closed_products_read_their_quadric_off_the_closure(monkeypatch):
    # a product of P^3 with HF(2) = 9 stores its quadric as the kernel of
    # E_2, bit for bit the canonical kernel of its points: after a profile
    # question ``quadric_through`` makes no ``linalg`` call and gives the
    # quadric of the points alone
    for m in (3, 5):
        product = skew_grid(m, 2800 + m)
        bare = PointSet(product.points)
        kernel = linalg.kernel_basis(evaluation_rows(bare, 2), 10)
        hilbert_profile(product)
        assert product._ladder.kernels == {2: kernel}
        calls = spy_linalg(monkeypatch)
        quadric = quadric_through(product)
        assert calls == []
        monkeypatch.undo()
        assert quadric == quadric_through(bare)


def test_a_ladder_that_took_a_kernel_keeps_it(monkeypatch):
    # the 4 x 3 product with a zero coordinate has its quadric and HF(2) =
    # 9, but its covers do not close, and its ladder takes the kernels of
    # E_2 and E_3.  After one ``ci_verdict`` both are kept, so the quadric
    # and the cubics cost no elimination, and each is the kernel a direct
    # elimination of its points gives
    product = zero_coordinate_product()
    ci_verdict(product)
    assert product._ladder.value(2) == 9 and sorted(product._ladder.kernels) == [2, 3]
    calls = spy_linalg(monkeypatch)
    forms = [degree_bounded_ideal(product, t) for t in (2, 3)]
    assert calls == []
    monkeypatch.undo()
    bare = PointSet(product.points)
    assert forms == [degree_bounded_ideal(bare, t) for t in (2, 3)]


def test_closure_refuses_covers_that_do_not_sum_to_the_set(monkeypatch):
    # x1^4 passed as a cover of a 5 x 5 product does not vanish on it and
    # is not in J_4: u(4) falls one below h(4), and the u(t) sum to 24, not
    # 25, at the first T with u(T) = 0.  The closure refuses them, the set
    # takes the pass, and its answers are those of its points alone
    product = skew_grid(5, 2900)
    expected = ladder_answers(PointSet(product.points))
    covers_of, close = ideals._covers, ideals._close
    closes = []

    def wrong_covers(*args):
        covers, quadric = covers_of(*args)
        covers.setdefault(4, []).append([1] + [0] * 14)
        return covers, quadric

    def spy_close(n, card, covers):
        closes.append(close(n, card, covers))
        return closes[-1]

    monkeypatch.setattr(ideals, "_covers", wrong_covers)
    monkeypatch.setattr(ideals, "_close", spy_close)
    assert ladder_answers(product) == expected
    assert closes == [None]


def test_staircase_the_exact_kernel_contradicts_falls_back(monkeypatch):
    # the pass of GRID3 keeps all of block 2 but one monomial q, the
    # quadric's lead, and reaches |X| = 9 there.  Told instead that a
    # second monomial g of block 2 is free and that one monomial of block
    # 3 reaches |X|, the pass says HF(2) = 8, so dim J_2 = 2 and the
    # squeeze takes the exact kernel of E_2, first on the 8 rows of the
    # pass's first 8 pivots.  That kernel has dimension 2, and the ninth
    # row does not annihilate it, so the kernel of the whole E_2 is taken.
    # It holds the quadric alone, so the bound HF(2) <= 10 - 1 = 9 cannot
    # meet the pass: the fallback takes the rank of E_t for t = 0 .. tau = 2,
    # and every answer is the oracle's.  Its count loop reuses that kernel
    # of E_2, so no degree is eliminated twice: the rank of E_(tau+1) follows,
    # and nothing else
    points = PointSet(GRID3.points)
    expected = full_ring_answers(points)
    original = ideals._modular_degree

    def false_staircase(*args):
        d, standard, basis, ys = original(*args)
        (q,) = set(monomials(3, 2)) - set(standard[2])
        g = next(e for e in standard[2] if not any(a and b for a, b in zip(e, q)))
        false = [[e for e in standard[2] if e != g], [monomials(3, 3)[0]]]
        return d + 1, standard[:2] + false, basis, ys

    monkeypatch.setattr(ideals, "_modular_degree", false_staircase)
    calls = spy_linalg(monkeypatch)
    assert build_ladder(points).path == "exact"
    answers = (
        hilbert_profile(points), generator_entries(generator_profile(points)), ci_verdict(points)
    )
    assert answers == expected
    assert calls == [("kernel_basis", 8, 10), ("kernel_basis", 9, 10)] + [
        ("rank_of", 9, comb(t + 3, 3)) for t in range(4)
    ]


def test_certified_sets_off_their_coordinates_eliminate_degree_bounded_ideal():
    # the stored kernel of E_alpha is in l-coordinates of the span, which
    # are the set's own only when c = 0 and the set spans its P^n.  Six
    # points of the conic x0 * x2 = x1^2 of P^2, one with x0 = 0 (so
    # c >= 1), and six points of a conic in a plane of P^3 are both
    # squeezed with one kernel, of E_2 (their conic, alpha = 2 < tau = 3),
    # store no kernel, and ``degree_bounded_ideal`` eliminates E_t of the
    # given points
    ts = (1, 2, -1, 3, -2)
    off_x0 = PointSet.from_coords([[1, t, t * t] for t in ts[:4]] + [[0, 0, 1], [4, 2, 1]])
    in_plane = PointSet.from_coords([[1, t, t * t, 1 + 2 * t - t * t] for t in ts + (4,)])
    for points, c, linear in ((off_x0, 1, 0), (in_plane, 0, 1)):
        direct = [degree_bounded_ideal(PointSet(points.points), t) for t in range(4)]
        fresh = PointSet(points.points)
        assert build_ladder(fresh)[:2] == ("squeeze", (2,))
        assert _linear_form_parameter(ideals._span_coordinates(fresh)[0]) == c
        assert (fresh._ladder.linear, fresh._ladder.kernels) == (linear, {})
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
