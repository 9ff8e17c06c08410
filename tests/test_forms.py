"""Homogeneous forms: the canonical representative, arithmetic, errors."""

import re

import pytest

from hada.errors import DimensionMismatch, HadaError
from hada.forms import HomogeneousForm
from hada.projective import ProjPoint


class TestCanonicalRepresentative:
    def test_content_one_and_first_monomial_positive(self):
        # -3*x0*x1 + 3/2*x1*x2 clears to -6, 3, divides by 3 and flips the
        # sign of the first monomial x0*x1 in descending lex order
        f = HomogeneousForm(3, {(0, 1, 1): "3/2", (1, 1, 0): -3, (2, 0, 0): 0})
        assert f.coeffs == {(1, 1, 0): 2, (0, 1, 1): -1}
        assert f.degree == 2
        assert f.coefficient_vector() == (0, 2, 0, 0, -1, 0)

    def test_equal_up_to_scale(self):
        f = HomogeneousForm(2, {(1, 0): 2, (0, 1): -4})
        g = HomogeneousForm(2, {(0, 1): 6, (1, 0): -3})
        assert f == g
        assert hash(f) == hash(g)
        assert len({f, g, HomogeneousForm(2, {(1, 0): 1})}) == 2

    def test_repeated_monomials_add_up(self):
        f = HomogeneousForm(2, {(1, 0): 1, ("1", "0"): 1, (0, 1): 4})
        assert f.coeffs == {(1, 0): 1, (0, 1): 2}

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ({(1, 0): 1}, "bad exponent vector (1, 0) for 3 variables"),
            ({(2, -1, 1): 1}, "bad exponent vector (2, -1, 1) for 3 variables"),
            ({(1, 0, 0): 1, (1, 1, 0): 1}, "form is not homogeneous"),
            ({(1, 0, 0): 0, (0, 1, 0): "0/5"}, "zero form"),
            ({(1, 0, 0): 2, ("1", "0", "0"): -2}, "zero form"),
        ],
        ids=["short", "negative", "inhomogeneous", "zero", "cancelling"],
    )
    def test_malformed_forms_are_refused(self, coeffs, message):
        with pytest.raises(HadaError, match=re.escape(message)):
            HomogeneousForm(3, coeffs)

    def test_vector_of_the_wrong_length_is_refused(self):
        with pytest.raises(HadaError, match="expected 6 coefficients for degree 2, got 2"):
            HomogeneousForm.from_vector(3, 2, [1, 2])


class TestArithmetic:
    def test_evaluate(self):
        f = HomogeneousForm(3, {(2, 0, 0): 1, (0, 1, 1): -4})
        assert f.evaluate((1, 2, 3)) == -23
        with pytest.raises(HadaError, match="wrong number of coordinates"):
            f.evaluate((1, 2))

    def test_other_types_are_not_implemented(self):
        f = HomogeneousForm(2, {(1, 0): 1})
        assert f.__eq__((1, 0)) is NotImplemented
        with pytest.raises(TypeError):
            f * 2
        assert f != "x0"

    def test_repr_lists_monomials_in_order(self):
        f = HomogeneousForm(3, {(0, 1, 1): -4, (2, 0, 0): 1, (1, 0, 1): 2})
        assert repr(f) == "1*x0^2 + 2*x0*x2 - 4*x1*x2"


def test_membership_checks_dimensions():
    f = HomogeneousForm(3, {(1, 0, 0): 1, (0, 1, 0): -1})
    assert f.vanishes_at(ProjPoint([1, 1, 5]))
    with pytest.raises(DimensionMismatch, match="wrong number of coordinates"):
        f.vanishes_at(ProjPoint([1, 1, 1, 1]))
