"""Homogeneous forms with exact rational coefficients.

A form of degree d in n+1 variables is a map from exponent vectors to
coefficients.  Since every use in this package is projective, forms are
normalized on construction to a canonical representative: primitive
integer coefficients whose first nonzero entry (in the fixed monomial
order) is positive.  That is the canonical form of
``hada.projective.canonical_coords`` applied to the coefficients in
monomial order, so points, hyperplanes and forms share one
normalization.  Equality is therefore equality up to scale.

The monomial order is descending lexicographic on exponent vectors, so
for degree 1 the order is x0, x1, ..., xn and for degree 2 it starts
x0^2, x0*x1, x0*x2, ...
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DimensionMismatch, HadaError
from .projective import Hyperplane, ProjPoint, canonical_coords, parse_rational


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the given degree, descending lex order."""
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


def evaluate_monomial(expo, coords):
    v = 1
    for e, x in zip(expo, coords):
        if e:
            v *= x**e
    return v


class HomogeneousForm:
    """Canonical nonzero homogeneous form."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, coeffs):
        items = {}
        degree = None
        for expo, c in dict(coeffs).items():
            c = parse_rational(c)
            if c == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise HadaError(f"bad exponent vector {expo} for {nvars} variables")
            d = sum(expo)
            if degree is None:
                degree = d
            elif d != degree:
                raise HadaError("form is not homogeneous")
            items[expo] = items.get(expo, 0) + c
        # descending lex: the largest exponent vector comes first
        expos = sorted((e for e, c in items.items() if c != 0), reverse=True)
        if not expos:
            raise HadaError("zero form")
        self.nvars = nvars
        self.degree = degree
        self.coeffs = dict(zip(expos, canonical_coords([items[e] for e in expos])))

    @classmethod
    def from_vector(cls, nvars: int, degree: int, vector) -> "HomogeneousForm":
        """Form from a full coefficient vector in monomial order."""
        monos = monomials(nvars, degree)
        if len(vector) != len(monos):
            raise HadaError(
                f"expected {len(monos)} coefficients for degree {degree}, "
                f"got {len(vector)}"
            )
        return cls(nvars, dict(zip(monos, vector)))

    @classmethod
    def from_hyperplane(cls, h: Hyperplane) -> "HomogeneousForm":
        n = h.ambient_dim + 1
        coeffs = {}
        for i, a in enumerate(h.dual.coords):
            if a:
                expo = [0] * n
                expo[i] = 1
                coeffs[tuple(expo)] = a
        return cls(n, coeffs)

    def coefficient_vector(self) -> tuple[int, ...]:
        """Full integer coefficient vector in monomial order."""
        return tuple(self.coeffs.get(e, 0) for e in monomials(self.nvars, self.degree))

    def evaluate(self, coords):
        if len(coords) != self.nvars:
            raise HadaError("wrong number of coordinates")
        total = 0
        for expo, c in self.coeffs.items():
            total += c * evaluate_monomial(expo, coords)
        return total

    def vanishes_at(self, p: ProjPoint) -> bool:
        return self.evaluate(p.coords) == 0

    def __mul__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        if other.nvars != self.nvars:
            raise HadaError("forms in different variable counts")
        prod: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod[e] = prod.get(e, 0) + c1 * c2
        return HomogeneousForm(self.nvars, prod)

    def __eq__(self, other):
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self):
        parts = []
        for expo in sorted(self.coeffs, reverse=True):
            c = self.coeffs[expo]
            mono = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}"
                for i, e in enumerate(expo)
                if e
            )
            if parts:
                parts.append(f"+ {c}*{mono}" if c > 0 else f"- {-c}*{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " ".join(parts)


def membership(p: ProjPoint, f: HomogeneousForm) -> bool:
    """Exact test that a form vanishes at a point."""
    if p.ambient_dim + 1 != f.nvars:
        raise DimensionMismatch("point and form dimensions differ")
    return f.vanishes_at(p)
