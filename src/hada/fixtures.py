"""Bundled worked examples and their replay driver.

Each fixture is a JSON file with an instance plus a list of checks:
an operation name, its arguments (entity names from the instance) and
the expected exact output.  Replaying a fixture recomputes every check
and diffs the canonical results; nothing is thrown on mismatch, the
summary reports failures so a driver can exit nonzero.

The paper's P^2 dichotomy for two disjoint collinear sets has one op
per half: ``grid2`` replays the grid half (``grid_product_p2`` on sets
``x``, ``x2`` on lines ``line``, ``line2``), and ``collinear`` the
collinear half (``product_collinearity_check`` on two subsets ``x``,
``x2`` of one line ``line``), expecting ``collinear`` and
``containing_line``, the coefficients of a line that holds every
product, or null; a point off the line fails that check.

A fixture directory that is missing or holds no fixture, and a fixture
file that cannot be read or is not valid JSON, lacks its instance or
checks, names an unknown operation, gives a check ``args`` that is not
an object, or gives a check a missing argument, a name its instance
lacks, a name that is not a string, a ``product_of`` that is not two
names or that comes with a ``set``, a ``degree`` that is not an
integer, a ``degree_forms`` degree outside 0 to
``hada.space.MAX_IMPLICIT_DEGREE`` or an ``implicitize`` degree outside
1 to it, or a profile check (hilbert, ci, generators, hf_product, whose
two factors count too) of a set with more than
``hada.instances.MAX_PROFILE_POINTS`` points, raise InstanceError
naming the file.  A check whose operation raises any other HadaError is
a failing check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import HadaError, InstanceError
from .ideals import (
    ci_verdict,
    degree_bounded_ideal,
    generator_profile,
    hf_product_check,
    hilbert_profile,
)
from .instances import Instance, parse_instance_dict
from .plane import (
    collinear_set_line_product,
    grid_product_p2,
    product_collinearity_check,
)
from .projective import (
    Hyperplane,
    LinearSubspace,
    hyperplane_product,
    pairwise_products,
)
from .space import (
    MAX_IMPLICIT_DEGREE,
    Quadric3,
    grid_product_p3,
    quadric_through,
    variety_product_interpolate,
)


def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def _resolve_set(inst: Instance, args):
    return inst.point_set_of(args.get("set"), args.get("product_of"))


def _profile_set(inst: Instance, args):
    return inst.profile_set(args.get("set"), args.get("product_of"))


def _degree(args, low: int) -> int:
    degree = args["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool):
        raise InstanceError(f"degree must be an integer, got {degree!r}")
    if not low <= degree <= MAX_IMPLICIT_DEGREE:
        raise InstanceError(
            f"degree must be between {low} and {MAX_IMPLICIT_DEGREE}, got {degree}"
        )
    return degree


def _check_hyperplane_product(inst, args):
    result = hyperplane_product(inst.line(args["left"]), inst.line(args["right"]))
    if isinstance(result, Hyperplane):
        return {"kind": "hyperplane", "coefficients": list(result.dual.coords)}
    assert isinstance(result, LinearSubspace)
    return {
        "kind": "subspace",
        "planes": [list(p.dual.coords) for p in result.planes],
    }


def _check_arrangement(inst, args):
    arr = collinear_set_line_product(
        inst.point_set(args["set"]), inst.line(args["line"]), inst.line(args["carrier"])
    )
    return {
        "lines": [list(l.dual.coords) for l in arr.lines],
        "isolated_point": (
            list(arr.isolated_point.coords) if arr.isolated_point else None
        ),
        "collapsed": list(arr.collapsed.dual.coords) if arr.collapsed else None,
    }


def _check_grid2(inst, args):
    g = grid_product_p2(
        inst.point_set(args["x"]),
        inst.point_set(args["x2"]),
        inst.line(args["line"]),
        inst.line(args["line2"]),
    )
    return {
        "count": len(g.points),
        "witness_degrees": list(g.witness_degrees),
    }


def _check_collinear(inst, args):
    rep = product_collinearity_check(
        inst.point_set(args["x"]), inst.point_set(args["x2"]), inst.line(args["line"])
    )
    line = rep.containing_line
    return {
        "collinear": rep.collinear,
        "containing_line": list(line.dual.coords) if line else None,
    }


def _check_grid3(inst, args):
    g = grid_product_p3(
        inst.point_set(args["x"]),
        inst.point_set(args["x2"]),
        inst.line3(args["line"]),
        inst.line3(args["line2"]),
    )
    return {"count": len(g.points)}


def _check_product_count(inst, args):
    products, undefined = pairwise_products(
        inst.point_set(args["x"]), inst.point_set(args["x2"])
    )
    return {"count": len(products), "undefined_pairs": undefined}


def _check_hilbert(inst, args):
    prof = hilbert_profile(_profile_set(inst, args))
    return {
        "values": list(prof.values),
        "tau": prof.tau,
        "h_vector": list(prof.h_vector),
    }


def _check_quadric(inst, args):
    q = quadric_through(_resolve_set(inst, args))
    if isinstance(q, Quadric3):
        return {"kind": "quadric", "vector": list(q.form.coefficient_vector())}
    return {"kind": q}


def _check_implicitize(inst, args):
    forms = variety_product_interpolate(
        inst.line3(args["line"]),
        inst.line3(args["line2"]),
        _degree(args, 1),
    )
    return {"forms": [list(f.coefficient_vector()) for f in forms]}


def _check_degree_forms(inst, args):
    forms = degree_bounded_ideal(_resolve_set(inst, args), _degree(args, 0))
    return {"forms": [list(f.coefficient_vector()) for f in forms]}


def _check_ci(inst, args):
    v = ci_verdict(_profile_set(inst, args))
    out = {"kind": v.kind}
    if v.witness_degrees is not None:
        out["witness_degrees"] = list(v.witness_degrees)
    return out


def _check_generators(inst, args):
    prof = generator_profile(_profile_set(inst, args))
    return {
        "total": prof.total,
        "by_degree": {
            str(e.degree): e.new_generators
            for e in prof.entries
            if e.new_generators
        },
    }


def _check_hf_product(inst, args):
    names = [args["x"], args["x2"]]
    xs, xs2 = (inst.profile_set(name) for name in names)
    rep = hf_product_check(xs, xs2, inst.profile_set(product_of=names))
    return {"product_holds": rep.product_holds, "tau_matches": rep.tau_matches}


CHECK_OPS = {
    "hyperplane_product": _check_hyperplane_product,
    "set_line_arrangement": _check_arrangement,
    "grid2": _check_grid2,
    "collinear": _check_collinear,
    "grid3": _check_grid3,
    "product_count": _check_product_count,
    "hilbert": _check_hilbert,
    "quadric_through": _check_quadric,
    "implicitize": _check_implicitize,
    "degree_forms": _check_degree_forms,
    "ci": _check_ci,
    "generators": _check_generators,
    "hf_product": _check_hf_product,
}


@dataclass(frozen=True)
class CheckOutcome:
    fixture: str
    index: int
    op: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ReplaySummary:
    outcomes: tuple[CheckOutcome, ...]
    fixture_count: int

    @property
    def failures(self):
        return [o for o in self.outcomes if not o.ok]

    @property
    def failed_fixtures(self):
        return sorted({o.fixture for o in self.failures})

    @property
    def ok(self) -> bool:
        return not self.failures


def replay_fixture(path: Path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        instance = doc["instance"]
        checks = [(c["op"], c.get("args", {}), c["expect"]) for c in doc["checks"]]
        for op, args, _ in checks:
            if op not in CHECK_OPS:
                raise ValueError(f"unknown check op {op!r}")
            if not isinstance(args, dict):
                raise TypeError(f"check args must be an object, got {args!r}")
    except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
        # an unreadable file, invalid JSON or UTF-8, an integer beyond the
        # interpreter's digit limit, nesting beyond its recursion limit, a
        # missing key, an unknown op, or a value that is not an object
        # where one is required
        raise InstanceError(f"malformed fixture {path}: {exc!r}") from None
    name = doc.get("name", path.stem)
    inst = parse_instance_dict(instance)
    outcomes = []
    for i, (op, args, expect) in enumerate(checks):
        try:
            actual = CHECK_OPS[op](inst, args)
        except InstanceError as exc:
            # the check names what its instance lacks, or names it or
            # its degree by a value of the wrong type
            raise InstanceError(f"malformed fixture {path}: {exc}") from None
        except KeyError as exc:
            raise InstanceError(
                f"malformed fixture {path}: check {i} ({op}) lacks argument {exc}"
            ) from None
        except HadaError as exc:
            outcomes.append(
                CheckOutcome(name, i, op, False, f"error: {exc}")
            )
            continue
        if actual == expect:
            outcomes.append(CheckOutcome(name, i, op, True))
        else:
            outcomes.append(
                CheckOutcome(
                    name, i, op, False, f"expected {expect}, got {actual}"
                )
            )
    return outcomes


def replay_fixtures(dirpath=None) -> ReplaySummary:
    base = Path(dirpath) if dirpath is not None else fixtures_dir()
    if not base.is_dir():
        problem = "is not a directory" if base.exists() else "does not exist"
        raise InstanceError(f"fixture directory {base} {problem}")
    paths = sorted(base.glob("*.json"))
    if not paths:
        raise InstanceError(f"fixture directory {base} holds no *.json fixtures")
    outcomes = []
    for path in paths:
        outcomes.extend(replay_fixture(path))
    return ReplaySummary(outcomes=tuple(outcomes), fixture_count=len(paths))
