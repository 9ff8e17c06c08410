"""Canonical coordinates and the elementary product formulas."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hada import sampling
from hada.errors import DimensionMismatch, HadaError, StratumError, UnsupportedShapeError
from hada.forms import HomogeneousForm, membership
from hada.projective import (
    UNDEFINED,
    Hyperplane,
    LinearSubspace,
    PointSet,
    ProjPoint,
    coordinate_hyperplane,
    delta_level,
    hadamard_points,
    hyperplane_product,
    pairwise_products,
    point_hyperplane_coefficients,
    point_hyperplane_product,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=30
)


def coord_lists(length):
    return st.lists(rationals, min_size=length, max_size=length).filter(
        lambda c: any(x != 0 for x in c)
    )


class TestCanonicalForm:
    def test_examples(self):
        assert ProjPoint([2, 4, 6]).coords == (1, 2, 3)
        assert ProjPoint(["-1/2", "1/3", 0]).coords == (3, -2, 0)
        assert ProjPoint([0, 0, -5]).coords == (0, 0, 1)

    def test_all_zero_rejected(self):
        with pytest.raises(HadaError):
            ProjPoint([0, 0, 0])

    @pytest.mark.parametrize(
        "coords", [[True, 0, 1], [1.0, 2, 3]], ids=["bool", "float"]
    )
    def test_bad_coordinate_types_rejected(self, coords):
        # bool is a subclass of int, so an int-only fast path must still
        # send it to parse_rational
        with pytest.raises(HadaError):
            ProjPoint(coords)

    @given(coord_lists(3))
    def test_idempotent(self, coords):
        p = ProjPoint(coords)
        assert ProjPoint(p.coords) == p

    @given(coord_lists(4), rationals.filter(lambda r: r != 0))
    def test_scaling_invariance(self, coords, scale):
        assert ProjPoint(coords) == ProjPoint([scale * c for c in coords])

    def test_first_nonzero_positive_and_primitive(self):
        from math import gcd

        rng = random.Random(7)
        for _ in range(200):
            coords = [rng.randint(-50, 50) for _ in range(4)]
            if not any(coords):
                continue
            p = ProjPoint(coords)
            nz = [x for x in p.coords if x]
            assert nz[0] > 0
            g = 0
            for x in p.coords:
                g = gcd(g, x)
            assert g == 1


class TestDeltaLevel:
    def test_full_support(self):
        assert delta_level(ProjPoint([1, 1, 1])) == 2

    def test_one_zero(self):
        assert delta_level(ProjPoint([0, 3, 5])) == 1

    def test_coordinate_point(self):
        assert delta_level(ProjPoint([0, 0, 1])) == 0


class TestHadamardPoints:
    def test_identity_point(self):
        p = ProjPoint([2, 3, 5])
        assert hadamard_points(p, ProjPoint([1, 1, 1])) == p

    def test_forced_zeroes(self):
        r = hadamard_points(ProjPoint([0, 1, 2]), ProjPoint([1, 0, 3]))
        assert r == ProjPoint([0, 0, 1])

    def test_undefined(self):
        assert hadamard_points(ProjPoint([0, 1, 0]), ProjPoint([1, 0, 1])) is UNDEFINED
        assert repr(UNDEFINED) == "Undefined"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hadamard_points(ProjPoint([1, 2]), ProjPoint([1, 2, 3]))

    @given(coord_lists(3), coord_lists(3))
    def test_zero_coordinate_propagates(self, a, b):
        # a zero coordinate of either factor kills that product coordinate
        p, q = ProjPoint(a), ProjPoint(b)
        r = hadamard_points(p, q)
        for i in range(3):
            if p.coords[i] == 0 and r is not UNDEFINED:
                assert r.coords[i] == 0

    def test_cancellation_with_full_support_factor(self):
        rng = random.Random(11)
        for dim in (2, 3):
            for _ in range(100):
                a = ProjPoint([sampling.nonzero_int(rng, 20) for _ in range(dim + 1)])
                p = ProjPoint([rng.randint(-9, 9) or 1 for _ in range(dim + 1)])
                q = ProjPoint([rng.randint(-9, 9) or 1 for _ in range(dim + 1)])
                assert (hadamard_points(p, a) == hadamard_points(q, a)) == (p == q)


class TestPointHyperplaneProduct:
    def test_identity(self):
        h = Hyperplane([1, 1, 1])
        assert point_hyperplane_product(ProjPoint([1, 1, 1]), h) == h

    def test_coefficient_division(self):
        got = point_hyperplane_product(ProjPoint([1, 2, 3]), Hyperplane([6, 6, 6]))
        assert got == Hyperplane([6, 3, 2])
        assert got.coefficients == got.dual.coords == (6, 3, 2)

    def test_injectivity(self):
        rng = random.Random(23)
        h = Hyperplane([3, -5, 7, 11])
        for _ in range(100):
            p = ProjPoint([sampling.nonzero_int(rng, 15) for _ in range(4)])
            q = ProjPoint([sampling.nonzero_int(rng, 15) for _ in range(4)])
            lhs = point_hyperplane_product(p, h)
            rhs = point_hyperplane_product(q, h)
            assert (lhs == rhs) == (p == q)

    def test_integer_coefficients_match_the_quotients(self):
        # a_i * prod over j != i of p_j is a_i / p_i times prod p, so the
        # canonical hyperplane is that of the Fraction quotients, signs
        # included
        rng = random.Random(41)
        for dim in (2, 3):
            for _ in range(100):
                p = ProjPoint([sampling.nonzero_int(rng, 20) for _ in range(dim + 1)])
                h = Hyperplane([sampling.nonzero_int(rng, 20) for _ in range(dim + 1)])
                quotients = [Fraction(a, x) for a, x in zip(h.dual.coords, p.coords)]
                assert point_hyperplane_product(p, h) == Hyperplane(quotients)
                scale = math.prod(p.coords)
                coefficients = point_hyperplane_coefficients(p.coords, h.dual.coords)
                assert coefficients == [q * scale for q in quotients]

    def test_stratum_errors(self):
        with pytest.raises(StratumError):
            point_hyperplane_product(ProjPoint([0, 1, 1]), Hyperplane([1, 1, 1]))
        with pytest.raises(StratumError):
            point_hyperplane_product(ProjPoint([1, 1, 1]), Hyperplane([0, 1, 1]))

    def test_duality_consistency(self):
        # products of points on H land on the product hyperplane
        rng = random.Random(37)
        for dim in (2, 3):
            done = 0
            while done < 100:
                h = Hyperplane([sampling.nonzero_int(rng, 12) for _ in range(dim + 1)])
                p = ProjPoint([sampling.nonzero_int(rng, 12) for _ in range(dim + 1)])
                basis = sampling.solution_basis([h.dual.coords], dim + 1)
                weights = [rng.randint(-9, 9) for _ in basis]
                if not any(weights):
                    continue
                q = sampling.combine(basis, weights)
                prod = hadamard_points(p, q)
                if prod is UNDEFINED:
                    continue
                assert point_hyperplane_product(p, h).contains(prod)
                done += 1


class TestDimensionMismatch:
    def test_evaluate_and_contains(self):
        h = Hyperplane([1, 2, 3])
        for call in (h.evaluate, h.contains):
            with pytest.raises(DimensionMismatch, match="point and hyperplane"):
                call(ProjPoint([1, 1, 1, 1]))

    def test_point_hyperplane_product(self):
        with pytest.raises(DimensionMismatch, match="point and hyperplane"):
            point_hyperplane_product(ProjPoint([1, 2, 3, 4]), Hyperplane([1, 1, 1]))

    def test_hyperplane_product(self):
        with pytest.raises(DimensionMismatch, match="hyperplane dimensions differ"):
            hyperplane_product(Hyperplane([1, 2, 3]), Hyperplane([1, 2, 3, 4]))


class TestHyperplaneProduct:
    def test_binomial_pair(self):
        h = Hyperplane([0, 3, 0, -2])
        k = Hyperplane([0, -7, 0, 4])
        assert hyperplane_product(h, k) == Hyperplane([0, 21, 0, -8])

    def test_binomial_square(self):
        h = Hyperplane([0, 3, 0, -2])
        assert hyperplane_product(h, h) == Hyperplane([0, 9, 0, -4])

    def test_coordinate_same(self):
        h1 = coordinate_hyperplane(1, 3)
        assert hyperplane_product(h1, Hyperplane([0, 5, 0, 0])) == h1

    def test_coordinate_distinct(self):
        got = hyperplane_product(coordinate_hyperplane(1, 3), coordinate_hyperplane(2, 3))
        assert isinstance(got, LinearSubspace)
        assert got.codim == 2
        assert [p.dual.coords for p in got.planes] == [(0, 1, 0, 0), (0, 0, 1, 0)]

    def test_mixed_coordinate_and_binomial(self):
        # one side may be a coordinate hyperplane when the other has
        # both coefficients nonzero
        got = hyperplane_product(Hyperplane([1, 0, 0, 0]), Hyperplane([2, -3, 0, 0]))
        assert got == Hyperplane([1, 0, 0, 0])

    def test_unsupported_shapes(self):
        with pytest.raises(UnsupportedShapeError):
            hyperplane_product(Hyperplane([1, 1, 1]), Hyperplane([1, 1, 1]))
        with pytest.raises(UnsupportedShapeError):
            hyperplane_product(Hyperplane([1, 1, 0, 0]), Hyperplane([0, 0, 1, 1]))

    def test_every_small_support_pair_in_p3(self):
        # every pair of supports of size <= 2 either has a closed form or
        # is refused with the one "no closed form for these supports" error
        supports = [s for size in (1, 2) for s in combinations(range(4), size)]
        answered = refused = 0
        for sup_h in supports:
            for sup_k in supports:
                a, b = [0] * 4, [0] * 4
                for pos, i in enumerate(sup_h):
                    a[i] = (2, -3)[pos]
                for pos, i in enumerate(sup_k):
                    b[i] = (5, 7)[pos]
                try:
                    got = hyperplane_product(Hyperplane(a), Hyperplane(b))
                except UnsupportedShapeError as exc:
                    assert str(exc).startswith("no closed form for these supports")
                    assert len(set(sup_h) | set(sup_k)) > 2
                    refused += 1
                else:
                    assert isinstance(got, (Hyperplane, LinearSubspace))
                    answered += 1
        # 16 coordinate pairs, 24 coordinate-binomial, 6 binomial on one pair
        assert (answered, refused) == (46, 54)

    def test_soundness_on_sampled_points(self):
        # products of points of H and K satisfy the returned equation
        rng = random.Random(41)
        for _ in range(50):
            i, j = sorted(rng.sample(range(4), 2))
            a = [0] * 4
            b = [0] * 4
            a[i], a[j] = sampling.nonzero_int(rng, 9), sampling.nonzero_int(rng, 9)
            b[i], b[j] = sampling.nonzero_int(rng, 9), rng.randint(-9, 9)
            h, k = Hyperplane(a), Hyperplane(b)
            prod = hyperplane_product(h, k)
            bh = sampling.solution_basis([h.dual.coords], 4)
            bk = sampling.solution_basis([k.dual.coords], 4)
            for _ in range(10):
                wh = [rng.randint(-5, 5) for _ in bh]
                wk = [rng.randint(-5, 5) for _ in bk]
                if not any(wh) or not any(wk):
                    continue
                p, q = sampling.combine(bh, wh), sampling.combine(bk, wk)
                r = hadamard_points(p, q)
                if r is not UNDEFINED:
                    assert prod.contains(r)


class TestMembership:
    def test_linear(self):
        f = HomogeneousForm(3, {(1, 0, 0): 1, (0, 1, 0): -1})
        assert membership(ProjPoint([1, 1, 1]), f)
        assert not membership(ProjPoint([1, 2, 3]), f)

    def test_scaling_of_point_is_irrelevant(self):
        f = HomogeneousForm(3, {(2, 0, 0): 1, (0, 1, 1): -4})
        assert membership(ProjPoint([2, 1, 1]), f)
        assert membership(ProjPoint(["1", "1/2", "1/2"]), f)
        assert membership(ProjPoint([-6, -3, -3]), f)


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(HadaError):
            PointSet([ProjPoint([1, 2, 3]), ProjPoint([2, 4, 6])])

    def test_empty_set_rejected(self):
        with pytest.raises(HadaError, match="empty point set"):
            PointSet([])
        with pytest.raises(HadaError, match="empty point set"):
            PointSet.from_coords([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch, match="mixed ambient dimension"):
            PointSet([ProjPoint([1, 2, 3]), ProjPoint([1, 2, 3, 4])])

    def test_equality_ignores_order_and_other_types(self):
        xs = PointSet.from_coords([[1, 1, 1], [1, 2, 3]])
        assert xs == PointSet.from_coords([[1, 2, 3], [1, 1, 1]])
        assert xs.__eq__(xs.points) is NotImplemented
        assert xs != xs.points

    def test_dedupe_and_products(self):
        xs = PointSet.from_coords([[1, 1, 1], [1, 2, 3]])
        ys = PointSet.from_coords([[1, 1, 1], [3, 2, 1]])
        prods, undefined = pairwise_products(xs, ys)
        assert undefined == 0
        assert len(prods) == 4
        assert ProjPoint([3, 4, 3]) in prods

    def test_products_keep_their_factors_and_eliminate_nothing(self, monkeypatch):
        # the product set records its factors for the degree ladder, which
        # derives their covering hyperplanes itself; no other set has any
        from hada import _elim

        def refuse(*args):
            raise AssertionError("pairwise_products eliminated")

        monkeypatch.setattr(_elim, "echelon", refuse)
        xs = PointSet.from_coords([[1, 1, 1], [1, 2, 3]])
        ys = PointSet.from_coords([[1, 1, 1], [3, 2, 1]])
        prods, _ = pairwise_products(xs, ys)
        assert prods._factors == (xs, ys) and prods._factors[0] is xs
        assert xs._factors is None and prods.sorted()._factors is None
