"""Exact projective points, hyperplanes and their coordinatewise products.

Conventions used throughout the package:

* Homogeneous coordinates are kept in canonical form: a primitive
  integer vector (content 1) whose first nonzero entry is positive.
  Equality, hashing and serialization all act on this form, so equal
  projective points compare equal bit for bit.  ``primitive_vector``
  is the one routine that takes a vector to it; forms and the Plücker
  vectors of lines in ``hada.space`` use it too.
* The degeneracy level of a point is (number of nonzero coordinates)
  minus one: level ``n`` means no zero coordinate in ``P^n``, level 0
  is a coordinate point, and level -1 is reserved for the undefined
  outcome of a product whose coordinates all vanish.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .errors import (
    DimensionMismatch,
    HadaError,
    StratumError,
    UnsupportedShapeError,
)


# an integer or a quotient of integers; exponent and decimal notations
# are refused, since "1e100000" would build a 330 000-bit coordinate
_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", re.ASCII)


def parse_rational(value) -> Fraction:
    """Exact rational from an int, Fraction or integer or 'p/q' string."""
    if isinstance(value, bool):
        raise HadaError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise HadaError(f"malformed rational {value!r}: expected an integer or 'p/q'")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise HadaError(f"malformed rational {value!r}: {exc}") from None
    if isinstance(value, float):
        raise HadaError(f"not a rational: {value!r} (floats are rejected)")
    raise HadaError(f"not a rational: {value!r}")


def primitive_vector(ints) -> tuple[int, ...]:
    """The canonical form of a nonzero integer vector: divided by the
    gcd of its entries, with its first nonzero entry made positive."""
    g = gcd(*ints)
    for x in ints:
        if x:
            if x < 0:
                g = -g
            break
    return tuple(ints) if g == 1 else tuple([x // g for x in ints])


def canonical_coords(values) -> tuple[int, ...]:
    """Canonical primitive integer vector for a homogeneous tuple."""
    fracs = [parse_rational(v) for v in values]
    if all(f == 0 for f in fracs):
        raise HadaError("all coordinates are zero")
    lcm = 1
    for f in fracs:
        d = f.denominator
        lcm = lcm * d // gcd(lcm, d)
    return primitive_vector([int(f * lcm) for f in fracs])


class Undefined:
    """The level ``-1`` outcome: every product coordinate vanished."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"


UNDEFINED = Undefined()


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^n in canonical integer coordinates."""

    coords: tuple[int, ...]

    def __init__(self, coords):
        object.__setattr__(self, "coords", canonical_coords(coords))

    @property
    def ambient_dim(self) -> int:
        return len(self.coords) - 1

    @property
    def delta_level(self) -> int:
        return sum(1 for x in self.coords if x) - 1

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.coords) if x)

    def __repr__(self):
        return "[" + ":".join(str(x) for x in self.coords) + "]"


def hadamard_points(p: ProjPoint, q: ProjPoint):
    """Coordinatewise product; UNDEFINED when every coordinate vanishes."""
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}"
        )
    prod = tuple(a * b for a, b in zip(p.coords, q.coords))
    if not any(prod):
        return UNDEFINED
    return ProjPoint(prod)


@dataclass(frozen=True)
class Hyperplane:
    """A hyperplane stored through its dual point (coefficient vector)."""

    dual: ProjPoint

    def __init__(self, coefficients):
        if isinstance(coefficients, ProjPoint):
            object.__setattr__(self, "dual", coefficients)
        else:
            object.__setattr__(self, "dual", ProjPoint(coefficients))

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self.dual.coords

    @property
    def ambient_dim(self) -> int:
        return self.dual.ambient_dim

    @property
    def support(self) -> tuple[int, ...]:
        return self.dual.support

    def evaluate(self, p: ProjPoint) -> int:
        if p.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("point and hyperplane dimensions differ")
        return sum(a * x for a, x in zip(self.dual.coords, p.coords))

    def contains(self, p: ProjPoint) -> bool:
        return self.evaluate(p) == 0

    def meets_coordinate_points(self) -> bool:
        """True when some coordinate point lies on the hyperplane."""
        return any(a == 0 for a in self.dual.coords)

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.dual.coords):
            if a:
                terms.append(f"{'+' if a > 0 and terms else ''}{a}*x{i}")
        return "{" + "".join(terms) + "=0}"


def coordinate_hyperplane(index: int, ambient_dim: int) -> Hyperplane:
    coords = [0] * (ambient_dim + 1)
    coords[index] = 1
    return Hyperplane(coords)


@dataclass(frozen=True)
class LinearSubspace:
    """Intersection of coordinate hyperplanes, e.g. the codimension-2
    outcome of a product of two distinct coordinate hyperplanes."""

    planes: tuple[Hyperplane, ...]


def point_hyperplane_coefficients(point, coefficients) -> list[int]:
    """The integer coefficients H_i * prod over j != i of p_j of the
    hyperplane p * H = {sum of H_i x_i / p_i = 0}, for the coordinates
    ``point`` of p and the ``coefficients`` of H: the coefficients
    H_i / p_i scaled by prod of p_j.  Every coordinate of p must be
    nonzero; the callers check it."""
    scale = prod(point)
    return [a * (scale // x) for a, x in zip(coefficients, point)]


def point_hyperplane_product(p: ProjPoint, h: Hyperplane) -> Hyperplane:
    """Hyperplane with coefficients a_i / p_i, taken as the integers
    a_i * prod over j != i of p_j (``point_hyperplane_coefficients``).

    Requires every coordinate of ``p`` nonzero and every coefficient of
    ``h`` nonzero; otherwise the product is not a hyperplane and one of
    the classification operations must be used instead.
    """
    if p.ambient_dim != h.ambient_dim:
        raise DimensionMismatch("point and hyperplane dimensions differ")
    n = p.ambient_dim
    if p.delta_level < n:
        i = next(i for i, x in enumerate(p.coords) if x == 0)
        raise StratumError(
            f"point has zero coordinate {i} (lies in level {p.delta_level}); "
            "use the point/line classification instead"
        )
    if h.meets_coordinate_points():
        i = next(i for i, a in enumerate(h.dual.coords) if a == 0)
        raise StratumError(
            f"hyperplane contains coordinate point {i}; "
            "use the point/line classification instead"
        )
    return Hyperplane(point_hyperplane_coefficients(p.coords, h.dual.coords))


def hyperplane_product(h: Hyperplane, k: Hyperplane):
    """Product of two hyperplanes in the closed-form cases.

    Coordinate hyperplanes: x_i = 0 times x_j = 0 is x_i = 0 when
    i = j, and the codimension-2 subspace x_i = x_j = 0 when i != j.
    Binomial supports: a_i x_i + a_j x_j = 0 times b_i x_i + b_j x_j = 0
    (supports within one index pair {i, j}, at least one of them all of
    it) is the hyperplane a_i b_i x_i - a_j b_j x_j = 0.

    Anything else raises UnsupportedShapeError: no closed form exists
    for those supports, and this package does not compute them.
    """
    if h.ambient_dim != k.ambient_dim:
        raise DimensionMismatch("hyperplane dimensions differ")
    sup_h, sup_k = h.support, k.support
    if len(sup_h) == 1 and len(sup_k) == 1:
        i, j = sup_h[0], sup_k[0]
        if i == j:
            return coordinate_hyperplane(i, h.ambient_dim)
        return LinearSubspace(
            (
                coordinate_hyperplane(min(i, j), h.ambient_dim),
                coordinate_hyperplane(max(i, j), h.ambient_dim),
            )
        )
    union = sorted(set(sup_h) | set(sup_k))
    if len(sup_h) > 2 or len(sup_k) > 2 or len(union) != 2:
        raise UnsupportedShapeError(
            "no closed form for these supports "
            f"({list(sup_h)} and {list(sup_k)})"
        )
    # two single coordinates returned above, so one support is {i, j}
    i, j = union
    a, b = h.dual.coords, k.dual.coords
    coords = [0] * (h.ambient_dim + 1)
    coords[i] = a[i] * b[i]
    coords[j] = -a[j] * b[j]
    return Hyperplane(coords)


class PointSet:
    """Duplicate-free ordered set of points in a common ambient space.

    A set is never mutated after construction, so ``hada.ideals`` keeps
    its degree ladder in the ``_ladder`` slot, filled on first use.  A
    set made by ``pairwise_products`` or ``hada.space.grid_product_p3``
    keeps its two factors in the ``_factors`` slot, which is None on
    every other set; the ladder reads covering forms of the product off
    them.
    """

    __slots__ = ("points", "_ladder", "_factors")

    def __init__(self, points):
        pts = tuple(points)
        if not pts:
            raise HadaError("empty point set")
        dim = pts[0].ambient_dim
        seen = set()
        for p in pts:
            if p.ambient_dim != dim:
                raise DimensionMismatch("points of mixed ambient dimension")
            if p.coords in seen:
                raise HadaError(f"duplicate point {p}")
            seen.add(p.coords)
        self.points = pts
        self._ladder = None
        self._factors = None

    @classmethod
    def from_coords(cls, rows):
        return cls([ProjPoint(row) for row in rows])

    @classmethod
    def dedupe(cls, points):
        seen, out = set(), []
        for p in points:
            if p.coords not in seen:
                seen.add(p.coords)
                out.append(p)
        return cls(out)

    @property
    def ambient_dim(self) -> int:
        return self.points[0].ambient_dim

    def sorted(self) -> "PointSet":
        return PointSet(sorted(self.points, key=lambda p: p.coords))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return any(p.coords == q.coords for q in self.points)

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return sorted(p.coords for p in self) == sorted(q.coords for q in other)

    def __hash__(self):
        return hash(frozenset(p.coords for p in self.points))

    def __repr__(self):
        return "{" + ", ".join(repr(p) for p in self.points) + "}"


def pairwise_products(xs: PointSet, ys: PointSet):
    """Brute-force product set of two point sets.

    Returns ``(products, undefined_pairs)`` where ``products`` is the
    deduplicated point set sorted by canonical coordinates.  This is
    the oracle every grid construction is checked against.  The product
    set records ``(xs, ys)`` as its factors and nothing else: the
    covering hyperplanes the degree ladder reads off them are derived in
    ``hada.ideals`` when a ladder is built.
    """
    out = []
    undefined = 0
    for p in xs:
        for q in ys:
            r = hadamard_points(p, q)
            if r is UNDEFINED:
                undefined += 1
            else:
                out.append(r)
    if not out:
        raise HadaError("every pairwise product is undefined")
    products = PointSet.dedupe(sorted(out, key=lambda p: p.coords))
    products._factors = (xs, ys)
    return products, undefined
