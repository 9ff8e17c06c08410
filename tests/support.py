"""Shared helpers for the test suite: independent oracles and seeded
instance generators.  Everything here deliberately avoids the code
paths under test (rank via Fraction Gaussian elimination, product
outcomes via point sampling) so the main library is checked against
genuinely independent computations."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hada.projective import (
    UNDEFINED,
    Hyperplane,
    PointSet,
    ProjPoint,
    hadamard_points,
)
from hada import _elim, ideals, linalg, sampling
from hada.errors import StratumError
from hada.forms import evaluate_monomial, monomials
from hada.plane import line_through


def frac_rref(rows, ncols):
    """Textbook Gaussian elimination over Fraction; independent of the
    integer kernels under test."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        # every row from ``rank`` on is zero left of column c: those columns
        # were cleared as pivots or held no entry below the pivot rows
        row = m[rank]
        pv = row[c]
        row[c:] = [x / pv for x in row[c:]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i][c:] = [a - f * b if b else a for a, b in zip(m[i][c:], row[c:])]
        pivots.append(c)
        rank += 1
    return rank, pivots, m[:rank]


def _ref_reduce_row(row, ncols):
    g = 0
    for j in range(ncols):
        if row[j]:
            g = gcd(g, row[j])
    if g > 1:
        for j in range(ncols):
            row[j] //= g


def ref_echelon_gcd(m, ncols):
    """Reference for ``_elim._echelon_gcd``: the same content-division
    elimination with the full pivot values, row_i*p - q*row_r, and no
    gcd(p, q) step."""
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        row_r = m[r]
        p = row_r[c]
        for i in range(r + 1, nrows):
            row_i = m[i]
            q = row_i[c]
            if not q:
                continue
            for j in range(ncols):
                row_i[j] = row_i[j] * p - q * row_r[j]
            _ref_reduce_row(row_i, ncols)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, m


class EagerModBasis:
    """Reference for ``_elim.ModBasis``: the same echelon basis over
    GF(p), with every entry reduced mod p after every row step, and a
    ``solve`` by Gauss-Jordan elimination mod p on the kept vectors."""

    def __init__(self, prime):
        self.prime = prime
        self.rows = []
        self.kept = []

    def __len__(self):
        return len(self.rows)

    def add(self, vector):
        p = self.prime
        v = [x % p for x in vector]
        for j, tail in self.rows:
            c = v[j]
            if c:
                v[j:] = [(x - c * y) % p for x, y in zip(v[j:], tail)]
        j = next((j for j, x in enumerate(v) if x), -1)
        if j < 0:
            return False
        inv = pow(v[j], -1, p)
        self.rows.append((j, [x * inv % p for x in v[j:]]))
        self.kept.append([x % p for x in vector])
        return True

    def solve(self, vector):
        """The coefficients of the kept vectors, in the order kept, whose
        combination is the vector mod p; the vector must lie in the span.

        The kept vectors are independent at the pivots of the echelon
        rows, so Gauss-Jordan elimination mod p of those equations alone
        gives the one solution, which is then checked on every entry."""
        p = self.prime
        m = len(self.kept)
        system = [[w[j] for w in self.kept] + [vector[j] % p] for j, _ in self.rows]
        for c in range(m):
            piv = next(i for i in range(c, m) if system[i][c])
            system[c], system[piv] = system[piv], system[c]
            inv = pow(system[c][c], -1, p)
            system[c] = [x * inv % p for x in system[c]]
            for i, row in enumerate(system):
                if i != c and row[c]:
                    system[i] = [(x - row[c] * y) % p for x, y in zip(row, system[c])]
        coeffs = [row[m] for row in system]
        assert all(
            (sum(a * w[j] for a, w in zip(coeffs, self.kept)) - x) % p == 0
            for j, x in enumerate(vector)
        ), "vector outside the span"
        return coeffs


def ref_symmetric_matrix(form):
    """Reference for ``Quadric3.determinant``: the symmetric Fraction
    matrix of a quadratic form in four variables, c on the diagonal for
    c x_i^2 and c / 2 at (i, j) and (j, i) for c x_i x_j."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for expo, c in form.coeffs.items():
        idx = [i for i, e in enumerate(expo) if e]
        if len(idx) == 1:
            i = idx[0]
            m[i][i] = Fraction(c)
        else:
            i, j = idx
            m[i][j] = m[j][i] = Fraction(c, 2)
    return m


def ref_evaluation_matrix(coords, nvars, degree):
    """Reference for ``ideals._evaluation_matrix``: every monomial
    evaluated on its own by ``evaluate_monomial``."""
    monos = monomials(nvars, degree)
    return [[evaluate_monomial(e, p) for e in monos] for p in coords]


def frac_rank(rows, ncols):
    """Rank by forward Gaussian elimination over Fraction: the rows below
    each pivot are cleared, the rows above it are left as they are."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        row = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / row[c]
                m[i][c:] = [a - f * b if b else a for a, b in zip(m[i][c:], row[c:])]
        rank += 1
    return rank


def rref_kernel(rref, ncols):
    """Kernel basis read off a ``frac_rref`` result, one vector per free
    column."""
    _, pivots, red = rref
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def frac_hilbert_value(points: PointSet, t: int) -> int:
    monos = monomials(points.ambient_dim + 1, t)
    rows = [[evaluate_monomial(e, p.coords) for e in monos] for p in points]
    return frac_rank(rows, len(monos))


def frac_hilbert_values(points: PointSet):
    """HF(0 .. tau + 1) from Fraction ranks of the evaluation matrices."""
    values = []
    while not values or values[-1] < len(points):
        values.append(frac_hilbert_value(points, len(values)))
    values.append(frac_hilbert_value(points, len(values)))
    return values


def span_rank_generators(points: PointSet, max_degree=None):
    """Minimal generator counts in the full polynomial ring, degree by
    degree: ``(t, dim I_t, dim I_t - rank of x_i * I_(t-1))``, every rank
    and kernel taken by ``frac_rref``, for t = 0 .. ``max_degree``, or
    through tau + 1, the degree after HF first reaches |X|, when it is
    None."""
    nvars = points.ambient_dim + 1
    out = []
    prev_kernel, prev_monos = [], ()
    t = 0
    while max_degree is None or t <= max_degree:
        monos = monomials(nvars, t)
        rows = [[evaluate_monomial(e, p.coords) for e in monos] for p in points]
        last = t == max_degree or (
            max_degree is None and t and len(prev_monos) - len(prev_kernel) == len(points)
        )
        rref = None if last else frac_rref(rows, len(monos))
        dim_t = len(monos) - (frac_rank(rows, len(monos)) if last else rref[0])
        span_rows = []
        index_of = {e: i for i, e in enumerate(monos)}
        for v in prev_kernel:
            for var in range(nvars):
                row = [Fraction(0)] * len(monos)
                for coeff, expo in zip(v, prev_monos):
                    if coeff:
                        e = list(expo)
                        e[var] += 1
                        row[index_of[tuple(e)]] += coeff
                span_rows.append(row)
        out.append((t, dim_t, dim_t - frac_rank(span_rows, len(monos))))
        if last:
            break
        prev_kernel, prev_monos = rref_kernel(rref, len(monos)), monos
        t += 1
    return out


def exact_span_counts(points: PointSet):
    """Generator counts in R/(l) with every span eliminated: dim J_t minus
    the exact rank of S_1 * J_(t-1) on all the monomials of S_t, for
    t = 0 .. tau + 1, in the set's span P^n, plus the linear forms that
    cut out that span in degree 1.  J_t, the image of I_t in S_t, is
    spanned by the l-free part (the last columns) of the kernel vectors
    of E_t in l-coordinates, and it is all of S_t from tau + 1 on, the
    degree after E_t first has rank |X|.  Only the span coordinates and
    l are shared with ``ideals``, none of its ladder: this is the
    reference for the ladder's counts, whichever ranks settle them."""
    coords, n, _ = ideals._span_coordinates(points)
    c = ideals._linear_form_parameter(coords)
    lcoords = [(ideals._linear_form_value(c, p),) + tuple(p[1:]) for p in coords]
    nvars = n + 1
    counts = []
    span, prev_monos = [], ()
    t = rank_e = 0
    while True:
        all_monos = monomials(nvars, t)
        monos = [e for e in all_monos if e[0] == 0]
        start = len(all_monos) - len(monos)
        index_of = {e: i for i, e in enumerate(monos)}
        rows = []
        for v in span:
            for var in range(1, nvars):
                row = [0] * len(monos)
                for coeff, expo in zip(v, prev_monos):
                    e = list(expo)
                    e[var] += 1
                    row[index_of[tuple(e)]] += coeff
                rows.append(row)
        rank = _elim.echelon(rows, len(monos))[0] if rows else 0
        if rank_e == len(coords):
            counts.append(len(monos) - rank)
            break
        kernel = _elim.nullspace(ref_evaluation_matrix(lcoords, nvars, t), len(all_monos))
        rank_e = len(all_monos) - len(kernel)
        span = [v[start:] for v in kernel]
        counts.append((_elim.echelon(span, len(monos))[0] if span else 0) - rank)
        prev_monos = monos
        t += 1
    counts[1] += points.ambient_dim - n
    return tuple(counts)


def random_point_with_level(rng: random.Random, level: int, dim: int = 2) -> ProjPoint:
    support = rng.sample(range(dim + 1), level + 1)
    coords = [0] * (dim + 1)
    for i in support:
        coords[i] = sampling.nonzero_int(rng, 9)
    return ProjPoint(coords)


def line_samples(line: Hyperplane, count: int = 12):
    """Deterministic distinct points on the line, from the first
    ``count`` fixed weights on its kernel basis."""
    basis = sampling.solution_basis([line.dual.coords], line.ambient_dim + 1)
    out = []
    seen = set()
    for w in sampling.FIXED_WEIGHTS[:count]:
        p = sampling.combine(basis, w)
        if p.coords not in seen:
            seen.add(p.coords)
            out.append(p)
    return out


def line_delta1_points(line: Hyperplane) -> tuple[ProjPoint, ProjPoint, ProjPoint]:
    """The three points of the line with one zero coordinate.

    Only defined for lines whose dual has full support (no coordinate
    point on the line); then there is exactly one such point per
    coordinate line.
    """
    a = line.dual
    if a.delta_level < 2:
        raise StratumError("line contains a coordinate point")
    pts = []
    for i in range(3):
        j, k = (t for t in range(3) if t != i)
        coords = [0, 0, 0]
        coords[j] = a.coords[k]
        coords[k] = -a.coords[j]
        pts.append(ProjPoint(coords))
    return tuple(pts)


def check_point_line_outcome(q: ProjPoint, line: Hyperplane, outcome) -> None:
    """Sampling oracle: multiply >= 5 points of the line by q and check
    they land exactly in the claimed outcome; for a full line the
    samples must span it."""
    samples = line_samples(line)
    assert len(samples) >= 5
    products = []
    for p in samples:
        r = hadamard_points(q, p)
        if r is not UNDEFINED:
            products.append(r)
    distinct = []
    for r in products:
        if all(r != s for s in distinct):
            distinct.append(r)
    if outcome.kind == "undefined":
        assert not products, f"undefined outcome but products exist for {q} * {line}"
        return
    if outcome.kind == "point":
        assert products, f"point outcome but no defined products for {q} * {line}"
        assert distinct == [outcome.point], (
            f"expected all products equal to {outcome.point}, got {distinct}"
        )
        return
    assert all(outcome.line.contains(r) for r in products), (
        f"a sampled product escapes the claimed line for {q} * {line}"
    )
    assert len(distinct) >= 2, "not enough distinct products to pin the line"
    assert line_through(distinct[0], distinct[1]) == outcome.line


def random_plane_line(rng: random.Random, level: int = 2) -> Hyperplane:
    return Hyperplane(random_point_with_level(rng, level, 2))


def random_fuzz_line(rng: random.Random) -> Hyperplane:
    return Hyperplane(random_point_with_level(rng, rng.randint(0, 2), 2))


def brute_products(xs: PointSet, ys: PointSet):
    out = []
    for p in xs:
        for q in ys:
            r = hadamard_points(p, q)
            if r is not UNDEFINED and all(r != s for s in out):
                out.append(r)
    return PointSet(sorted(out, key=lambda p: p.coords))


# Line questions in P^3 by elimination on the stacked plane duals: the
# references for the Plücker closed forms of ``hada.space``.


def plane_grid_meet(grid, i, j):
    """Intersection of row line i with column line j of a P^2 grid, from
    the kernel of their two duals."""
    (v,) = linalg.kernel_basis([grid.row_lines[i].dual.coords, grid.col_lines[j].dual.coords], 3)
    return ProjPoint(v)


def kernel_line_intersection(l1, l2):
    """Common point of two lines from the kernel of their four plane
    duals: a point, None when disjoint, or ``l1`` when they coincide."""
    rows = [d.coords for d in l1.duals + l2.duals]
    basis = linalg.kernel_basis(rows, 4)
    if not basis:
        return None
    if len(basis) == 1:
        return ProjPoint(basis[0])
    return l1


def kernel_rank(line, line2, p, p2):
    """Rank of the stacked coordinatewise products (A*P, B*P, A'*P', B'*P')."""
    rows = []
    for dual, pt in ((line.h.dual, p), (line.k.dual, p), (line2.h.dual, p2), (line2.k.dual, p2)):
        rows.append(tuple(x * y for x, y in zip(dual.coords, pt.coords)))
    return linalg.rank_of(rows, 4)


def kernel_basis_points(line):
    b = sampling.solution_basis([d.coords for d in line.duals], 4)
    return b[0], b[1]


def rref_line_key(line):
    """The reduced row echelon form of the plane duals: equal exactly for
    equal lines."""
    return tuple(linalg.rref_of([d.coords for d in line.duals], 4)[2])
