"""Reading and writing instance files.

An instance file is a single JSON document with exact coordinates:

    {
      "space": 2,
      "seed": 7,
      "lines": {
        "L": [3, 1, -30],
        "M": {"H": [1, 2, 1, 1], "K": [1, 1, 1, -3]}
      },
      "points": {"X": [[6, 12, 1], ["22", "54", "4"]]}
    }

Coordinates are integers or "p/q" strings; floats are rejected so no
precision is ever lost.  A bare coefficient vector under "lines" is a
hyperplane (a line in the plane, a plane in 3-space); the {"H", "K"}
pair form describes a line in 3-space.  Emitted instances are fully
canonical, so parse(emit(x)) reproduces x exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import HadaError, InstanceError
from .projective import (
    Hyperplane,
    PointSet,
    ProjPoint,
    pairwise_products,
    parse_rational,
)
from .space import Line3

# Largest point set whose profile (Hilbert function, generators, CI
# verdict, HF-product check) an instance may ask for: the 12 x 12 grid
# product that ``hada random`` writes at its size cap.  The exact
# elimination grows about as |X|^5, and that grid in P^2 already takes
# tens of seconds.
MAX_PROFILE_POINTS = 144


@dataclass
class Instance:
    space: int
    lines: dict[str, Hyperplane] = field(default_factory=dict)
    lines3: dict[str, Line3] = field(default_factory=dict)
    point_sets: dict[str, PointSet] = field(default_factory=dict)
    seed: Optional[int] = None

    def line(self, name: str) -> Hyperplane:
        return _named(self.lines, name, "hyperplane")

    def line3(self, name: str) -> Line3:
        return _named(self.lines3, name, "space line")

    def point_set(self, name: str) -> PointSet:
        return _named(self.point_sets, name, "point set")

    def point_set_of(self, name=None, product_of=None) -> PointSet:
        """The point set called ``name`` or, when ``name`` is None, the
        product set of the two point sets named in ``product_of``; naming
        both is refused."""
        if name is not None and product_of is not None:
            raise InstanceError(
                f"name a point set or a product, not both: {name!r} and {product_of!r}"
            )
        if name is not None:
            return self.point_set(name)
        if not isinstance(product_of, (list, tuple)) or len(product_of) != 2:
            raise InstanceError(
                f"a product needs exactly two names, got {product_of!r}"
            )
        left, right = (self.point_set(n) for n in product_of)
        products, _ = pairwise_products(left, right)
        return products

    def profile_set(self, name=None, product_of=None) -> PointSet:
        """``point_set_of``, refused before any elimination when it has
        more than ``MAX_PROFILE_POINTS`` points."""
        points = self.point_set_of(name, product_of)
        if len(points) > MAX_PROFILE_POINTS:
            what = repr(name) if name is not None else f"the product of {product_of!r}"
            raise InstanceError(
                f"{what} has {len(points)} points; profile questions take at "
                f"most {MAX_PROFILE_POINTS}"
            )
        return points


def _named(table: dict, name, kind: str):
    if not isinstance(name, str):
        raise InstanceError(f"a {kind} name must be a string, got {name!r}")
    if name not in table:
        raise InstanceError(f"no {kind} named {name!r}")
    return table[name]


def _coords(values, length, where):
    if not isinstance(values, list) or len(values) != length:
        raise InstanceError(f"{where}: expected {length} coordinates")
    out = []
    for i, v in enumerate(values):
        try:
            out.append(parse_rational(v))
        except HadaError as exc:
            raise InstanceError(f"{where}[{i}]: {exc}") from None
    return out


def parse_instance_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    space = data.get("space")
    if type(space) is not int or space not in (2, 3):
        raise InstanceError(f"space must be 2 or 3, got {space!r}")
    seed = data.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise InstanceError("seed must be an integer")
    for key in ("lines", "points"):
        if data.get(key) is not None and not isinstance(data[key], dict):
            raise InstanceError(f"{key} must be a JSON object")
    ncoords = space + 1
    inst = Instance(space=space, seed=seed)
    # names are keys of JSON objects, so only a point set can repeat a
    # line's name
    lines = data.get("lines") or {}

    for name, value in lines.items():
        where = f"lines.{name}"
        if isinstance(value, dict):
            if space != 3 or set(value) != {"H", "K"}:
                raise InstanceError(
                    f"{where}: plane pairs need space 3 and keys H, K"
                )
            h = _coords(value["H"], 4, where + ".H")
            k = _coords(value["K"], 4, where + ".K")
            try:
                inst.lines3[name] = Line3(Hyperplane(h), Hyperplane(k))
            except HadaError as exc:
                raise InstanceError(f"{where}: {exc}") from None
        else:
            coeffs = _coords(value, ncoords, where)
            try:
                inst.lines[name] = Hyperplane(coeffs)
            except HadaError as exc:
                raise InstanceError(f"{where}: {exc}") from None

    for name, rows in (data.get("points") or {}).items():
        if name in lines:
            raise InstanceError(f"duplicate name {name!r}")
        where = f"points.{name}"
        if not isinstance(rows, list) or not rows:
            raise InstanceError(f"{where}: expected a nonempty list of points")
        pts = []
        for i, row in enumerate(rows):
            coords = _coords(row, ncoords, f"{where}[{i}]")
            try:
                pts.append(ProjPoint(coords))
            except HadaError as exc:
                raise InstanceError(f"{where}[{i}]: {exc}") from None
        try:
            inst.point_sets[name] = PointSet(pts)
        except HadaError as exc:
            raise InstanceError(f"{where}: {exc}") from None

    return inst


def parse_instance(path) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # invalid JSON or UTF-8, an integer beyond the interpreter's digit
        # limit, or nesting beyond its recursion limit
        raise InstanceError(f"{path} is not valid JSON: {exc}") from None
    return parse_instance_dict(data)


def emit_instance(inst: Instance) -> dict:
    """Canonical JSON-ready dict; round-trips through parse exactly."""
    data: dict = {"space": inst.space}
    if inst.seed is not None:
        data["seed"] = inst.seed
    lines: dict = {}
    for name, h in inst.lines.items():
        lines[name] = list(h.dual.coords)
    for name, l in inst.lines3.items():
        lines[name] = {"H": list(l.h.dual.coords), "K": list(l.k.dual.coords)}
    if lines:
        data["lines"] = lines
    if inst.point_sets:
        data["points"] = {
            name: [list(p.coords) for p in ps]
            for name, ps in inst.point_sets.items()
        }
    return data


def save_instance(inst: Instance, path) -> None:
    text = json.dumps(emit_instance(inst), indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InstanceError(f"cannot write {path}: {exc}") from None
