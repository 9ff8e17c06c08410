"""The benchmark's three workloads.

Each workload turns a seed into inputs during set-up, runs one
operation per input through hada's public API, checks every output
against invariants taken from the paper and the acceptance suite, and
renders the output canonically for the run's digest.

Operations run in short blocks of fixed composition.  A run measures
whole blocks, so every run sees the same mix of operation sizes.  Each
composition is chosen so that a block's median latency and the run's
tail latency land inside one size class, not on the boundary between
two.

hada is reached only through module attributes looked up at call time
(``plane.case_hypotheses``, never a name bound at import), so the
traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from hada import cli, ideals, instances, plane, projective, space

# Fixed instance of criterion 10 and of the p3-planar-collapse fixture:
# a 25-point product in a plane of P^3, a complete intersection of
# type (1, 5, 5).
PLANAR25 = {
    "space": 3,
    "points": {
        "X": [[1, 4, 2, 4], [8, 5, 6, 5], [37, 40, 34, 40], [9, 9, 8, 9],
              [65, 98, 70, 98]],
        "Xp": [[2, 5, 2, 5], [3, 2, 3, 3], [24, 27, 24, 33], [13, 16, 13, 19],
               [130, 127, 130, 163]],
    },
}
PLANAR25_HF = (1, 3, 6, 10, 15, 19, 22, 24, 25, 25)
PLANAR25_DEGREES = [1, 5, 5]


def _proportional(u, v):
    return all(u[i] * v[j] == u[j] * v[i] for i in range(3) for j in range(i + 1, 3))


def _nonzero(rng, bound):
    v = 0
    while v == 0:
        v = rng.randint(-bound, bound)
    return v


def _raw_point(rng, level):
    """Integer 3-tuple with ``level + 1`` nonzero entries in [-9, 9]."""
    coords = [0, 0, 0]
    for i in rng.sample(range(3), level + 1):
        coords[i] = _nonzero(rng, 9)
    return tuple(coords)


class Workload:
    """Inputs are a list of blocks; block ``i`` of a run is
    ``blocks[i % len(blocks)]``.  The first ``digest_blocks`` blocks
    make up the run's output digest."""

    blocks: list
    digest_blocks = 1

    def block(self, index):
        return self.blocks[index % len(self.blocks)]


class PlaneClassify(Workload):
    """Criterion-08-style classification cases in the plane.

    One operation is one point-times-line case (``case_hypotheses`` and
    ``point_line_product_p2``) plus one two-point incidence case, both
    built from raw integer tuples, so point and line construction is
    timed.  The pool is cycled; each pass over it is one block.
    """

    name = "plane-classify"

    def __init__(self, pool_size=4000):
        self.pool_size = pool_size

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        pool = []
        while len(pool) < self.pool_size:
            q = _raw_point(rng, rng.randint(0, 2))
            line = _raw_point(rng, rng.randint(0, 2))
            a = _raw_point(rng, rng.randint(1, 2))
            q1 = _raw_point(rng, rng.randint(1, 2))
            q2 = _raw_point(rng, rng.randint(1, 2))
            if _proportional(q1, q2):
                continue
            pool.append((q, line, a, q1, q2))
        self.blocks = [pool]

    def run(self, item):
        q, line, a, q1, q2 = item
        point, hyperplane = projective.ProjPoint(q), projective.Hyperplane(line)
        hyps = plane.case_hypotheses(point, hyperplane)
        outcome = plane.point_line_product_p2(point, hyperplane)
        report = plane.two_point_line_incidence(
            projective.ProjPoint(q1), projective.ProjPoint(q2),
            projective.Hyperplane(a),
        )
        return hyps, outcome, report

    def check(self, item, output):
        hyps, outcome, report = output
        bad = []
        held = [case for case, holds in hyps.items() if holds]
        if len(held) != 1:
            bad.append(f"{len(held)} case hypotheses hold")
        elif held[0] != outcome.case:
            bad.append(f"hypothesis {held[0]} holds but outcome is case {outcome.case}")
        if not report.consistent:
            bad.append(f"incidence {report.relation} != direct {report.direct_relation}")
        return bad

    def canonical(self, item, output):
        hyps, o, r = output
        held = [c for c, h in sorted(hyps.items()) if h]
        line = o.line.coefficients if o.line is not None else None
        point = o.point.coords if o.point is not None else None
        return repr((held, o.case, o.kind, line, point,
                     r.case, r.swapped, r.relation, r.direct_relation))


class SkewGrids(Workload):
    """Seeded generic P^3 skew grids, m x m for m = 2..5.

    One operation samples the instance, builds the grid, asks the
    Hilbert, generator and CI questions of the same point set, and
    fits and checks the quadric.  Every operation has a fresh instance
    seed.  A block is m = 2, 3, 4, 4, 4, 5, 5: the median falls among
    the m = 4 grids and the tail among the m = 5 grids.
    """

    name = "skew-grids"
    digest_blocks = 10
    sizes = (2, 3, 4, 4, 4, 5, 5)

    def __init__(self, sizes=None, blocks=400):
        if sizes is not None:
            self.sizes = tuple(sizes)
        self.nblocks = blocks

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        self.blocks = [
            [(m, rng.randrange(2**31)) for m in self.sizes]
            for _ in range(self.nblocks)
        ]

    def run(self, item):
        m, seed = item
        line, line2, xs, xs2 = space.generic_skew_sample(m, m, seed)
        grid = space.grid_product_p3(xs, xs2, line, line2)
        hf = ideals.hilbert_profile(grid.points)
        gens = ideals.generator_profile(grid.points)
        verdict = ideals.ci_verdict(grid.points)
        through = space.quadric_through(grid.points)
        fitted = space.variety_product_interpolate(line, line2, 2, seed=seed)
        rulings = None
        if len(fitted) == 1:
            quadric = space.Quadric3(fitted[0])
            rulings = space.ruling_check(quadric, grid.row_lines, grid.col_lines)
        return grid, hf, gens, verdict, through, fitted, rulings

    def check(self, item, output):
        m, _ = item
        grid, hf, gens, verdict, through, fitted, rulings = output
        bad = []
        if len(grid.points) != m * m:
            bad.append(f"grid has {len(grid.points)} points, expected {m * m}")
        expected_hf = tuple(min(t + 1, m) ** 2 for t in range(len(hf.values)))
        if hf.values != expected_hf:
            bad.append(f"HF {hf.values} != {expected_hf}")
        expected_total = 6 if m == 2 else 2 * m + 2
        if gens.total != expected_total:
            bad.append(f"{gens.total} generators, expected {expected_total}")
        if verdict.kind != "NotCI":
            bad.append(f"verdict {verdict.kind}, expected NotCI")
        if len(fitted) != 1:
            bad.append(f"{len(fitted)} interpolated quadrics, expected 1")
            return bad
        if m >= 3 and through != space.Quadric3(fitted[0]):
            bad.append("quadric through the grid differs from the interpolated one")
        if m == 2 and through != "non-unique":
            bad.append(f"quadric through 4 points is {through!r}, expected non-unique")
        if rulings.determinant == 0:
            bad.append("quadric is degenerate")
        if not rulings.ok:
            bad.append("rulings: " + "; ".join(rulings.violations[:3]))
        return bad

    def canonical(self, item, output):
        grid, hf, gens, verdict, through, fitted, rulings = output
        quadric = (through.form.coefficient_vector()
                   if isinstance(through, space.Quadric3) else through)
        return repr((
            item,
            sorted(p.coords for p in grid.points),
            hf.values,
            gens.witness_degrees(),
            (verdict.kind, verdict.total_generators),
            quadric,
            [f.coefficient_vector() for f in fitted],
            rulings and (rulings.violations, str(rulings.determinant)),
        ))


def _plane_grid_instance(n, m, seed):
    rng = random.Random(seed)
    while True:
        line = projective.Hyperplane([_nonzero(rng, 20) for _ in range(3)])
        line2 = projective.Hyperplane([_nonzero(rng, 20) for _ in range(3)])
        if line != line2:
            break
    xs, xs2 = plane.generic_collinear_sample(line, line2, n, m, rng.getrandbits(32))
    return instances.Instance(
        space=2, lines={"L": line, "Lp": line2}, point_sets={"X": xs, "Xp": xs2}
    )


SMALL_GRIDS = ((3, 3), (3, 4), (4, 3), (3, 5), (5, 3), (4, 4))


class CiVerdicts(Workload):
    """``hada ci --json`` run in-process on instance files written in
    set-up: the fixed planar 25-point product and seeded P^2 grids with
    n, m in 3..5.

    A block is ten operations: the planar set, three 5x5 grids, the
    4x5 and 5x4 grids, and four of the six smaller grids, which rotate
    so that three blocks hold each of them twice.  Four operations above
    and four below the two 20-point grids put a block's median between
    them, and with three to six blocks in a run the tail (ten samples
    beyond it) lands among the 5x5 grids.
    """

    name = "ci-verdicts"
    digest_blocks = 3
    block_shapes = tuple(
        ("planar25", (5, 5), (5, 5), (5, 5), (4, 5), (5, 4))
        + tuple(SMALL_GRIDS[(4 * b + k) % 6] for k in range(4))
        for b in range(3)
    )

    def __init__(self, block_shapes=None, blocks=12):
        if block_shapes is not None:
            self.block_shapes = tuple(block_shapes)
        self.nblocks = blocks

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        planar = os.path.join(workdir, "planar25.json")
        with open(planar, "w", encoding="utf-8") as fh:
            json.dump(PLANAR25, fh)
        self.blocks = []
        for b in range(self.nblocks):
            block = []
            for i, shape in enumerate(self.block_shapes[b % len(self.block_shapes)]):
                if shape == "planar25":
                    block.append((planar, shape))
                    continue
                path = os.path.join(workdir, f"grid-{b}-{i}.json")
                inst = _plane_grid_instance(*shape, rng.randrange(2**31))
                instances.save_instance(inst, path)
                block.append((path, shape))
            self.blocks.append(block)
        self.planar_hf = None

    def run(self, item):
        path, _ = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["ci", "-i", path, "--product", "X,Xp", "--json"])
        return code, out.getvalue()

    def _report(self, output):
        code, text = output
        report = json.loads(text)
        report.pop("elapsed_ms")
        return code, report

    def check(self, item, output):
        path, shape = item
        code, report = self._report(output)
        res = report["results"]
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if res.get("kind") != "CI":
            bad.append(f"verdict {res.get('kind')}, expected CI")
        if shape == "planar25":
            expected = (3, PLANAR25_DEGREES)
            if self.planar_hf is None:
                self.planar_hf = self._hilbert(path)
            if self.planar_hf != PLANAR25_HF:
                bad.append(f"planar HF {self.planar_hf} != {PLANAR25_HF}")
        else:
            expected = (2, sorted(shape))
        got = (res.get("codimension"), res.get("witness_degrees"))
        if got != expected:
            bad.append(f"codimension and type {got}, expected {expected}")
        return bad

    @staticmethod
    def _hilbert(path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["hilbert", "-i", path, "--product", "X,Xp", "--json"])
        return tuple(json.loads(out.getvalue())["results"]["values"])

    def canonical(self, item, output):
        code, report = self._report(output)
        return json.dumps([item[1], code, report], sort_keys=True)


WORKLOADS = {w.name: w for w in (PlaneClassify, SkewGrids, CiVerdicts)}
