"""Command line interface.

Subcommands: product, classify, grid, hilbert, quadric, implicitize,
ci, verify, random.  Instances come from --input files (see
hada.instances for the format); small inputs can also be given inline
as colon-separated coordinates, e.g. --point 0:1:1.  Reports are plain
text by default and JSON with --json; exact values are never rendered
through floats.

The implicitize command is exact: it evaluates forms on the products
of a (d+1) x (d+1) grid of points on the two lines, which pins down
the degree-d part of the ideal of the product with no sampling.

Each ``cmd_*`` function computes its command's results and returns
them with the exit code; ``main`` times the command and renders the
one report through ``emit_report``.  Only the plain-text form of
``verify`` prints its own lines and returns no results.

Exit codes: 0 success, 1 mathematical verdict failure (failed fixture
replay, violated grid condition), 2 input error, including a degree
or a random set size outside its cap and a point set too large for a
profile question (``hada.instances.MAX_PROFILE_POINTS``).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction

from . import linalg
from .errors import GridConditionError, HadaError, InstanceError
from .fixtures import replay_fixtures
from .ideals import ci_verdict, hilbert_profile
from .instances import Instance, emit_instance, parse_instance, save_instance
from .plane import (
    generic_collinear_sample,
    grid_product_p2,
    point_line_product_p2,
    two_point_line_incidence,
)
from .projective import (
    Hyperplane,
    LinearSubspace,
    PointSet,
    ProjPoint,
    hyperplane_product,
    pairwise_products,
    point_hyperplane_product,
)
from .sampling import nonzero_int
from .space import (
    Line3,
    Quadric3,
    generic_skew_sample,
    grid_product_p3,
    point_line_product_p3,
    quadric_through,
    variety_product_interpolate,
)

MATH_FAILURE = 1
INPUT_ERROR = 2

# Largest point set `random` draws on each line.
MAX_RANDOM_SIZE = 12


def _fmt(value):
    """JSON-ready rendering with exact values kept exact."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, ProjPoint):
        return list(value.coords)
    if isinstance(value, Hyperplane):
        return list(value.dual.coords)
    if isinstance(value, Line3):
        return {"H": list(value.h.dual.coords), "K": list(value.k.dual.coords)}
    if isinstance(value, PointSet):
        return [list(p.coords) for p in value.sorted()]
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _render_text(data, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_inline(v)}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_inline(v)}")
    else:
        lines.append(f"{pad}{_inline(data)}")
    return lines


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _inline(v):
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def emit_report(args, command, results, started) -> None:
    report = {
        "command": command,
        "backend": linalg.backend_name(),
        "results": _fmt(results),
        "elapsed_ms": int((time.perf_counter() - started) * 1000),
    }
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(_render_text(report)))


def _load_instance(args) -> Instance:
    if not getattr(args, "input", None):
        raise InstanceError("this command needs --input FILE")
    return parse_instance(args.input)


def _inline_coords(text):
    return [c.strip() for c in text.replace(",", ":").split(":")]


def _resolve_point(inst, spec) -> ProjPoint:
    if inst is not None and spec in inst.point_sets:
        ps = inst.point_sets[spec]
        if len(ps) != 1:
            raise InstanceError(f"point set {spec!r} has {len(ps)} points, need 1")
        return ps.points[0]
    return ProjPoint(_inline_coords(spec))


def _resolve_hyperplane(inst, spec) -> Hyperplane:
    if inst is not None and spec in inst.lines:
        return inst.lines[spec]
    return Hyperplane(_inline_coords(spec))


def _resolve_set(inst: Instance, args, profile=False) -> PointSet:
    """The set named by --set or --product; for a profile question
    (``profile``) refused beyond ``MAX_PROFILE_POINTS`` points."""
    if not (args.set or args.product):
        raise InstanceError("name a point set with --set or --product A,B")
    names = args.product and [s.strip() for s in args.product.split(",")]
    resolve = inst.profile_set if profile else inst.point_set_of
    return resolve(args.set or None, names)


def cmd_product(args):
    inst = _load_instance(args)
    left, right = args.left, args.right
    results: dict

    if left in inst.point_sets and right in inst.point_sets:
        products, undefined = pairwise_products(
            inst.point_set(left), inst.point_set(right)
        )
        results = {
            "kind": "point-set",
            "count": len(products),
            "undefined_pairs": undefined,
            "points": products,
        }
    elif left in inst.lines and right in inst.lines:
        value = hyperplane_product(inst.line(left), inst.line(right))
        if isinstance(value, LinearSubspace):
            results = {"kind": "subspace", "planes": list(value.planes)}
        else:
            results = {"kind": "hyperplane", "hyperplane": value}
    elif left in inst.point_sets and right in inst.lines:
        point = _resolve_point(inst, left)
        line = inst.line(right)
        if inst.space == 2:
            outcome = point_line_product_p2(point, line)
            results = _classify_results(outcome)
        else:
            results = {
                "kind": "hyperplane",
                "hyperplane": point_hyperplane_product(point, line),
            }
    elif left in inst.point_sets and right in inst.lines3:
        point = _resolve_point(inst, left)
        results = {
            "kind": "line",
            "line": point_line_product_p3(point, inst.line3(right)),
        }
    elif left in inst.lines3 and right in inst.lines3:
        raise InstanceError(
            "products of two space lines have no closed form; "
            "use the implicitize command"
        )
    else:
        raise InstanceError(f"cannot pair {left!r} with {right!r}")
    return results, 0


def _classify_results(outcome):
    results = {"kind": outcome.kind, "case": outcome.case}
    if outcome.line is not None:
        results["line"] = outcome.line
    if outcome.point is not None:
        results["point"] = outcome.point
    return results


def cmd_classify(args):
    inst = parse_instance(args.input) if args.input else None
    point = _resolve_point(inst, args.point)
    line = _resolve_hyperplane(inst, args.line)
    if args.point2:
        report = two_point_line_incidence(
            point, _resolve_point(inst, args.point2), line
        )
        results = {
            "case": report.case,
            "relation": report.relation,
            "direct_relation": report.direct_relation,
            "consistent": report.consistent,
            "first": _classify_results(report.first),
            "second": _classify_results(report.second),
        }
    else:
        results = _classify_results(point_line_product_p2(point, line))
    return results, 0


def cmd_grid(args):
    inst = _load_instance(args)
    xs, xs2 = inst.point_set(args.x), inst.point_set(args.x2)
    try:
        if inst.space == 2:
            g = grid_product_p2(xs, xs2, inst.line(args.line), inst.line(args.line2))
        else:
            g = grid_product_p3(
                xs, xs2, inst.line3(args.line), inst.line3(args.line2)
            )
    except GridConditionError as exc:
        results = {
            "condition": False,
            "detail": str(exc),
            "brute_force_count": len(exc.products) if exc.products else 0,
            "expected": exc.expected,
        }
        if exc.products is not None:
            results["points"] = exc.products
        return results, MATH_FAILURE
    results = {
        "condition": True,
        "count": len(g.points),
        "points": g.points,
        "row_lines": list(g.row_lines),
        "col_lines": list(g.col_lines),
    }
    if inst.space == 2:
        results["witness_degrees"] = [f.degree for f in g.ci_witness]
    return results, 0


def cmd_hilbert(args):
    inst = _load_instance(args)
    prof = hilbert_profile(_resolve_set(inst, args, profile=True))
    results = {
        "values": list(prof.values),
        "tau": prof.tau,
        "h_vector": list(prof.h_vector),
        "cardinality": prof.cardinality,
    }
    return results, 0


def cmd_quadric(args):
    inst = _load_instance(args)
    q = quadric_through(_resolve_set(inst, args))
    if isinstance(q, Quadric3):
        results = {
            "kind": "quadric",
            "vector": list(q.form.coefficient_vector()),
            "determinant": q.determinant(),
            "nondegenerate": q.is_nondegenerate(),
        }
    else:
        results = {"kind": q}
    return results, 0


def cmd_implicitize(args):
    inst = _load_instance(args)
    forms = variety_product_interpolate(
        inst.line3(args.line), inst.line3(args.line2), args.degree
    )
    results = {
        "degree": args.degree,
        "count": len(forms),
        "forms": [list(f.coefficient_vector()) for f in forms],
    }
    return results, 0


def cmd_ci(args):
    inst = _load_instance(args)
    v = ci_verdict(_resolve_set(inst, args, profile=True))
    results = {"kind": v.kind, "codimension": v.codimension}
    if v.total_generators is not None:
        results["total_generators"] = v.total_generators
    if v.witness_degrees is not None:
        results["witness_degrees"] = list(v.witness_degrees)
    if v.reason:
        results["reason"] = v.reason
    return results, 0


def cmd_verify(args):
    summary = replay_fixtures(args.fixtures)
    if args.json:
        results = {
            "fixtures": summary.fixture_count,
            "checks": len(summary.outcomes),
            "failures": [
                {"fixture": o.fixture, "op": o.op, "detail": o.detail}
                for o in summary.failures
            ],
            "ok": summary.ok,
        }
    else:
        results = None
        seen = []
        for o in summary.outcomes:
            if o.fixture not in seen:
                seen.append(o.fixture)
        failed = set(summary.failed_fixtures)
        for name in seen:
            print(f"{'FAIL' if name in failed else 'PASS'} {name}")
        for o in summary.failures:
            print(f"  {o.fixture} [{o.op}] {o.detail}")
        print(f"{summary.fixture_count} fixtures, {len(summary.failures)} failing checks")
    return results, 0 if summary.ok else MATH_FAILURE


def cmd_random(args):
    for flag, size in (("--n", args.n), ("--m", args.m)):
        if not 1 <= size <= MAX_RANDOM_SIZE:
            raise HadaError(
                f"{flag} must be between 1 and {MAX_RANDOM_SIZE}, got {size}"
            )
    if args.space == 2:
        rng = random.Random(args.seed)
        while True:
            line = Hyperplane([nonzero_int(rng, 20) for _ in range(3)])
            line2 = Hyperplane([nonzero_int(rng, 20) for _ in range(3)])
            if line != line2:
                break
        xs, xs2 = generic_collinear_sample(
            line, line2, args.n, args.m, rng.getrandbits(32)
        )
        grid = grid_product_p2(xs, xs2, line, line2)
        lines = {"lines": {"L": line, "Lp": line2}}
    else:
        line, line2, xs, xs2 = generic_skew_sample(args.n, args.m, args.seed)
        grid = grid_product_p3(xs, xs2, line, line2)
        lines = {"lines3": {"L": line, "Lp": line2}}
    inst = Instance(
        space=args.space, point_sets={"X": xs, "Xp": xs2}, seed=args.seed, **lines
    )
    if args.out:
        save_instance(inst, args.out)
        results = {"written": args.out}
    else:
        results = {"instance": emit_instance(inst)}
    results["grid_points"] = len(grid.points)
    return results, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hada",
        description="Exact coordinatewise products in projective space over Q",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, input_file=True):
        if input_file:
            p.add_argument("--input", "-i", help="instance file (JSON)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("product", help="product of two named entities")
    common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("classify", help="point-times-line case analysis in the plane")
    common(p)
    p.add_argument("--point", required=True, help="name or inline coords q0:q1:q2")
    p.add_argument("--point2", help="second point for the incidence report")
    p.add_argument("--line", required=True, help="name or inline coefficients")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("grid", help="grid product of two collinear sets")
    common(p)
    p.add_argument("--x", default="X")
    p.add_argument("--x2", default="Xp")
    p.add_argument("--line", default="L")
    p.add_argument("--line2", default="Lp")
    p.set_defaults(func=cmd_grid)

    for name, fn, extra in (
        ("hilbert", cmd_hilbert, "Hilbert function profile of a point set"),
        ("quadric", cmd_quadric, "quadric through a point set in P^3"),
        ("ci", cmd_ci, "complete intersection verdict"),
    ):
        p = sub.add_parser(name, help=extra)
        common(p)
        p.add_argument("--set", help="point set name")
        p.add_argument("--product", help="A,B: use the product set of A and B")
        p.set_defaults(func=fn)

    p = sub.add_parser(
        "implicitize", help="forms of one degree vanishing on a product of lines"
    )
    common(p)
    p.add_argument("--line", default="L")
    p.add_argument("--line2", default="Lp")
    p.add_argument("--degree", "-d", type=int, required=True)
    p.set_defaults(func=cmd_implicitize)

    p = sub.add_parser("verify", help="replay the bundled worked examples")
    p.add_argument("--fixtures", help="fixture directory (or HADA_FIXTURES)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="seeded generic grid instance")
    p.add_argument("--space", type=int, choices=(2, 3), default=2)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the instance file here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_random)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it
    unchanged, and building it costs more than a small command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        results, code = args.func(args)
    except InstanceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except HadaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    if results is not None:
        emit_report(args, args.subcommand, results, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
