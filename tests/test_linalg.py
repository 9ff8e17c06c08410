"""Elimination kernels against an independent Fraction oracle."""

import random
from math import ceil, comb, gcd, lcm, log2

import pytest

from hada import _elim, linalg
from hada.forms import monomials
from hada.ideals import _column_pass, _evaluation_matrix, _linear_form_parameter, evaluation_rows
from hada.projective import PointSet, ProjPoint
from support import EagerModBasis, frac_rank, frac_rref, ref_echelon_gcd, rref_kernel


def random_matrix(rng, nrows, ncols, bound=30, sparsity=0.2):
    return [
        [0 if rng.random() < sparsity else rng.randint(-bound, bound) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rank_matches_fraction_oracle():
    rng = random.Random(101)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols)
        assert _elim.rank(m, ncols) == frac_rank(m, ncols)


def test_rref_is_primitive_scaling_of_monic_rref():
    from math import gcd

    rng = random.Random(202)
    cases = []
    for _ in range(100):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        cases.append((random_matrix(rng, nrows, ncols), ncols))
    for _ in range(30):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        cases.append((random_matrix(rng, nrows, ncols, bound=2**64), ncols))

    def check(m, ncols):
        rank, pivots, red = _elim.rref(m, ncols)
        orank, opivots, ored = frac_rref(m, ncols)
        assert (rank, pivots) == (orank, opivots)
        for row, orow in zip(red, ored):
            lcm = 1
            for x in orow:
                lcm = lcm * x.denominator // gcd(lcm, x.denominator)
            ints = [int(x * lcm) for x in orow]
            g = 0
            for x in ints:
                g = gcd(g, x)
            if g > 1:
                ints = [x // g for x in ints]
            assert list(row) == ints

    for m, ncols in cases:
        check(m, ncols)


def test_echelon_pivots_and_row_space_match_oracle():
    rng = random.Random(505)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, nrows, ncols)
        rank, pivots, rows = _elim.echelon(m, ncols)
        assert (rank, pivots) == frac_rref(m, ncols)[:2]
        assert len(rows) == rank
        for row, col in zip(rows, pivots):
            assert row[col] != 0 and not any(row[:col])
        assert _elim.rref(rows, ncols) == _elim.rref(m, ncols)


def test_nullspace_vectors_annihilate_and_count():
    rng = random.Random(303)
    for _ in range(150):
        nrows, ncols = rng.randint(1, 7), rng.randint(2, 8)
        m = random_matrix(rng, nrows, ncols)
        basis = _elim.nullspace(m, ncols)
        assert len(basis) == ncols - frac_rank(m, ncols)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # primitive, deterministic, positive free entry
        from math import gcd

        for v in basis:
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1
        assert _elim.nullspace(m, ncols) == basis
        # the RREF kernel vector of each free column, 1 there and 0 at the
        # other free columns, scaled to a primitive integer vector
        expected = []
        for w in rref_kernel(frac_rref(m, ncols), ncols):
            scale = lcm(*(x.denominator for x in w))
            ints = [int(x * scale) for x in w]
            content = gcd(*ints)
            expected.append(tuple(x // content for x in ints))
        assert basis == expected


def test_det_against_permutation_expansion():
    rng = random.Random(404)
    from itertools import permutations

    def naive_det(m):
        n = len(m)
        total = 0
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            prod = 1
            for i in range(n):
                prod *= m[i][perm[i]]
            total += sign * prod
        return total

    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, bound=9, sparsity=0.25)
        assert _elim.det(m) == naive_det(m)


def test_dense_wide_entry_kernels_match_oracle():
    # dense wide-entry matrices: rank, kernel and echelon against the oracle
    rng = random.Random(606)
    n = 12
    cases = [
        ([[rng.randint(-(2**64), 2**64) for _ in range(n)] for _ in range(n - 2)], n)
        for _ in range(5)
    ]
    for _ in range(60):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        cases.append((random_matrix(rng, nrows, ncols, bound=10**6), ncols))
    for m, ncols in cases:
        rank = _elim.rank(m, ncols)
        assert rank == frac_rank(m, ncols)
        basis = _elim.nullspace(m, ncols)
        assert len(basis) == ncols - rank
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        echelon = _elim.echelon(m, ncols)
        assert echelon[0] == rank
        assert _elim.rref(echelon[2], ncols) == _elim.rref(m, ncols)


def evaluation_cases(seed):
    """Evaluation matrices E_t of seeded point sets in P^2 and P^3."""
    rng = random.Random(seed)
    cases = []
    for n, top in ((2, 4), (3, 3)):
        for _ in range(5):
            rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(14)]
            points = PointSet.dedupe(ProjPoint(r) for r in rows if any(r))
            points = PointSet(points.points[: rng.randint(4, 12)])
            for t in range(top + 1):
                cases.append((evaluation_rows(points, t), comb(t + n, n)))
    # dense: wide coordinates, so that row updates outgrow their last
    # content division and the growth-triggered division runs
    rows = [[rng.randint(-10**4, 10**4) for _ in range(3)] for _ in range(20)]
    points = PointSet.dedupe(ProjPoint(r) for r in rows if any(r))
    for t in (4, 5, 6):
        cases.append((evaluation_rows(points, t), comb(t + 2, 2)))
    return cases


def test_reduced_multipliers_match_full_multiplier_reference(monkeypatch):
    rng = random.Random(808)
    cases = evaluation_cases(909)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        bound = rng.choice([9, 10**6, 2**64])
        cases.append((random_matrix(rng, nrows, ncols, bound=bound), ncols))

    # the kernel itself: the same rank, pivots and rows
    for m, ncols in cases:
        prim = _elim._primitive_rows(m)
        got = _elim._echelon_gcd([list(r) for r in prim], ncols)
        assert got == ref_echelon_gcd([list(r) for r in prim], ncols)

    def answers():
        return [(_elim.echelon(m, ncols), _elim.rref(m, ncols)) for m, ncols in cases]

    # the public functions against the same functions running the
    # full-multiplier reference
    ours = answers()
    monkeypatch.setattr(_elim, "_echelon_gcd", ref_echelon_gcd)
    assert answers() == ours


def test_echelon_rows_are_primitive_within_the_minor_bound():
    # echelon row k is primitive with the bit size of an s x s minor of
    # the primitive input, s = k + 1, by Hadamard's bound
    rng = random.Random(1111)
    cases = []
    for _ in range(120):
        nrows, ncols = rng.randint(2, 25), rng.randint(2, 25)
        bound = 2 ** rng.randint(1, 200)
        cases.append((random_matrix(rng, nrows, ncols, bound=bound, sparsity=0.05), ncols))
    for n, top in ((2, 6), (3, 4)):
        for _ in range(8):
            rows = [[rng.randint(-(10**4), 10**4) for _ in range(n + 1)] for _ in range(25)]
            points = PointSet.dedupe(ProjPoint(r) for r in rows if any(r))
            points = PointSet(points.points[: rng.randint(4, 25)])
            for t in range(1, top + 1):
                cases.append((evaluation_rows(points, t), comb(t + n, n)))
    for m, ncols in cases:
        maxbits = max(max(map(abs, row)) // gcd(*row) for row in m if any(row)).bit_length()
        _, _, rows = _elim.echelon(m, ncols)
        for k, row in enumerate(rows):
            s = k + 1
            assert gcd(*row) == 1
            assert max(map(abs, row)).bit_length() <= s * maxbits + ceil(s / 2 * log2(s)) + 1


def spy_echelon(monkeypatch):
    """Count the exact eliminations ``_elim.rank`` falls back on."""
    calls = []
    original = _elim.echelon

    def wrapped(rows, ncols):
        calls.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(_elim, "echelon", wrapped)
    return calls


def test_rref_and_kernel_run_one_forward_pass(monkeypatch):
    rng = random.Random(1001)
    calls = spy_echelon(monkeypatch)
    for fn in (_elim.rref, _elim.nullspace, linalg.rref_of, linalg.kernel_basis):
        for _ in range(20):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, nrows, ncols, bound=rng.choice([9, 2**64]))
            before = len(calls)
            fn(m, ncols)
            assert calls[before:] == [(nrows, ncols)]


def test_certified_rank_matches_fraction_oracle(monkeypatch):
    # narrow entries (no modular pass), entries of at least 2**61 (the
    # certificate or its fallback), full rank and rank-deficient
    rng = random.Random(707)
    calls = spy_echelon(monkeypatch)
    certified = fallbacks = 0
    for k in range(240):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        bound = (30, 2**64, 2**90)[k % 3]
        if k % 2:
            # a product through r < min(nrows, ncols) dimensions
            r = rng.randint(1, max(min(nrows, ncols) - 1, 1))
            a = random_matrix(rng, nrows, r, bound=bound, sparsity=0)
            b = random_matrix(rng, r, ncols, bound=9)
            m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        else:
            m = random_matrix(rng, nrows, ncols, bound=bound)
        wide = _elim._has_wide_entry(m)
        before = len(calls)
        rank = _elim.rank(m, ncols)
        assert rank == frac_rank(m, ncols)
        if not wide:
            assert len(calls) == before + 1
        elif len(calls) == before:
            certified += 1
            assert rank == min(nrows, ncols)
        else:
            fallbacks += 1
            assert rank < min(nrows, ncols)
    assert certified >= 40 and fallbacks >= 40


def test_rank_dropping_mod_p_falls_back_to_exact_elimination(monkeypatch):
    p = _elim._PRIME
    calls = spy_echelon(monkeypatch)
    assert _elim.rank([[p, 0], [0, 1]], 2) == 2
    assert calls == [(2, 2)]
    # a determinant divisible by p: full rank over Q, not mod p
    assert _elim.rank([[p + 1, 1], [1, 1]], 2) == 2
    assert _elim.rank([[2 * p, p], [3, 5], [1, 1]], 2) == 2
    assert len(calls) == 2


def test_confirmation_of_planar25_is_certified(monkeypatch):
    from test_ideals import PLANAR25

    rows = evaluation_rows(PLANAR25, 9)
    assert _elim._has_wide_entry(rows)
    calls = spy_echelon(monkeypatch)
    assert linalg.rank_of(rows, comb(9 + 3, 3)) == 25
    assert calls == []


def test_empty_matrix_conventions():
    assert linalg.rank_of([], 4) == 0
    assert linalg.kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert linalg.det_of([]) == 1


def test_mod_basis_solve_writes_a_vector_of_the_span():
    # a rejected vector is a combination of the kept ones mod p, and the
    # kept vectors are independent mod p, so the coefficients of a
    # combination of them are unique mod p; ``solve`` gives the relation,
    # minus those coefficients and then 1 at the vector
    rng = random.Random(1414)
    p = _elim._PRIME
    for _ in range(60):
        k = rng.randint(1, 12)
        basis, kept = _elim.ModBasis(), []
        for _ in range(rng.randint(1, k + 3)):
            v = [rng.randint(-(2**70), 2**70) for _ in range(k)]
            if basis.add(v):
                kept.append(v)
            else:
                *coeffs, one = basis.solve(v)
                assert one == 1 and all(
                    (sum(c * w[j] for c, w in zip(coeffs, kept)) + v[j]) % p == 0 for j in range(k)
                )
        weights = [rng.randint(-(2**70), 2**70) for _ in kept]
        vector = [sum(w * v[j] for w, v in zip(weights, kept)) for j in range(k)]
        *coeffs, one = basis.solve(vector)
        assert one == 1 and [(c + w) % p for c, w in zip(coeffs, weights)] == [0] * len(kept)


def check_mod_basis_step(ours, ref, v):
    """Add the vector to both bases and compare what each says: whether
    it was kept, the size of the basis and, for a rejected vector, its
    coefficients, which are unique as the kept vectors are independent,
    negated in the relation ``solve`` gives, whose last entry is 1."""
    kept = ours.add(v)
    assert kept == ref.add(v)
    assert len(ours) == len(ref)
    if not kept:
        assert ours.solve(v) == [-a % ref.prime for a in ref.solve(v)] + [1]
    return kept


def test_mod_basis_matches_eager_reference():
    rng = random.Random(1212)
    p = _elim._PRIME
    wide = 2**70
    outcomes = set()
    for _ in range(60):
        k = rng.randint(1, 30)
        ours, ref = _elim.ModBasis(), EagerModBasis(p)
        added = []
        for _ in range(rng.randint(1, k + 5)):
            kind = rng.random()
            if added and kind < 0.3:
                # planted dependency: an integer combination of kept
                # vectors plus multiples of p
                v = [0] * k
                for w in rng.sample(added, rng.randint(1, len(added))):
                    c = rng.randint(-wide, wide)
                    v = [x + c * y for x, y in zip(v, w)]
                v = [x + p * rng.randint(-3, 3) for x in v]
            elif kind < 0.35:
                v = [p * rng.randint(-wide, wide) for _ in range(k)]
            else:
                v = [0 if rng.random() < 0.3 else rng.randint(-wide, wide) for _ in range(k)]
            kept = check_mod_basis_step(ours, ref, v)
            outcomes.add(kept)
            if kept:
                added.append(v)
        assert len(ours) <= k
    assert outcomes == {True, False}


def exact_basis_vector(rng, kept, k):
    """A vector for an ``ExactBasis``: zero, a multiple of 2**61 - 1, an
    integer combination of kept vectors divided by its content (so that
    its relation is not 1 at it), or wide random entries."""
    kind = rng.random()
    if kind < 0.1:
        return [0] * k
    if kind < 0.2:
        return [_elim._PRIME * rng.randint(-3, 3) for _ in range(k)]
    if kept and kind < 0.5:
        v = [0] * k
        for w in rng.sample(kept, rng.randint(1, len(kept))):
            c = rng.randint(-50, 50)
            v = [x + c * y for x, y in zip(v, w)]
        g = gcd(*v)
        return [x // g for x in v] if g else v
    return [0 if rng.random() < 0.3 else rng.randint(-(2**70), 2**70) for _ in range(k)]


def assert_exact_relation(relation, kept, v):
    """The relation is primitive, positive at v, one entry per kept
    vector before it, and vanishes over Z."""
    *coeffs, r = relation
    assert r > 0 and gcd(*relation) == 1 and len(coeffs) == len(kept)
    assert all(sum(c * w[j] for c, w in zip(coeffs, kept)) + r * x == 0 for j, x in enumerate(v))


def test_exact_basis_keeps_the_rank_over_q():
    # an ``ExactBasis`` keeps as many vectors as the rank over Q of all it
    # was given, multiples of the prime included, which a ``ModBasis``
    # drops; a pivot per kept vector
    rng = random.Random(1212)
    for _ in range(60):
        k = rng.randint(1, 12)
        basis, given, kept = _elim.ExactBasis(), [], []
        for _ in range(rng.randint(1, k + 5)):
            v = exact_basis_vector(rng, kept, k)
            given.append(v)
            if basis.add(v):
                kept.append(v)
            assert len(basis) == frac_rank(given, k)
        assert len(basis.pivots) == len(kept) and len(set(basis.pivots)) == len(kept)


def test_exact_basis_relations_vanish_exactly():
    # every vector the basis rejects, and every integer combination of the
    # kept vectors, has a relation that vanishes over Z
    rng = random.Random(1414)
    relations = 0
    for _ in range(60):
        k = rng.randint(1, 12)
        basis, kept = _elim.ExactBasis(), []
        for _ in range(rng.randint(1, k + 5)):
            v = exact_basis_vector(rng, kept, k)
            if basis.add(v):
                kept.append(v)
            else:
                assert_exact_relation(basis.solve(v), kept, v)
                relations += 1
        weights = [rng.randint(-(2**70), 2**70) for _ in kept]
        vector = [sum(w * v[j] for w, v in zip(weights, kept)) for j in range(k)]
        assert_exact_relation(basis.solve(vector), kept, vector)
    assert relations >= 100


def test_exact_basis_rescaled_by_degree_keeps_rank_and_relations(monkeypatch):
    # the ladder's column pass over Z on five points of a line of P^2 and
    # one off it, with x0 = l taking the values 2**61 - 1, 1, 2, 3, 4 and 1:
    # the basis multiplies its rows by D = diag(l(p)) at each degree, so
    # that it holds the columns of E_t in l-coordinates.  It keeps rank E_t
    # columns through each degree t, the Fraction oracle's HF(t), and the
    # relation it gives for each column of block t that it did not keep,
    # taken in its last degree d (the column of y^f times l^(d - t)),
    # vanishes exactly on the columns of E_d it combines
    p = _elim._PRIME
    coords = [[p, 1, 2], [1, 1, 2], [2, 1, 2], [3, 1, 2], [4, 1, 2], [1, 0, 1]]
    assert _linear_form_parameter(coords) == 0
    lvalues = [x0 for x0, _, _ in coords]
    scaled = []
    original = _elim.ExactBasis.scale

    def spy(self, factors):
        scaled.append(list(factors))
        return original(self, factors)

    monkeypatch.setattr(_elim.ExactBasis, "scale", spy)
    found = _column_pass(lvalues, [c[1:] for c in coords], _elim.ExactBasis())
    d = len(found.values) - 1
    assert found.values == [
        frac_rank(_evaluation_matrix(coords, 3, t), comb(t + 2, 2)) for t in range(d + 1)
    ] == [1, 3, 4, 5, 6]
    assert scaled == [lvalues] * d

    def column(e, t):
        return [x0 ** (d - t) * x1 ** e[0] * x2 ** e[1] for x0, x1, x2 in coords]

    kept = [column(e, t) for t, block in enumerate(found.standard) for e in block]
    relations = 0
    for t, block in enumerate(found.standard):
        for f in monomials(2, t):
            if f not in block:
                assert_exact_relation(found.basis.solve(column(f, t)), kept, column(f, t))
                relations += 1
    assert relations == sum(comb(t + 1, 1) for t in range(d + 1)) - len(kept)


@pytest.mark.parametrize("prime", [2, 3, 13, 2**31 - 1, 2**61 - 1])
def test_mod_basis_packs_every_prime_and_length(monkeypatch, prime):
    # vectors are packed into slots whose width steps up with the prime and
    # the length (2**61 - 1: 128 bits up to 31 entries, 192 from 32; 2**31
    # - 1: 64 bits for one entry, 128 from two), and every slot is reduced
    # by folding with p = 2**s - c, c = 2 for the prime 2, 3 for 13 and 1
    # for the rest.  Each basis is filled to full rank or to 24 vectors,
    # with entries of at least 2**200, zero vectors, multiples of p and
    # planted dependencies among them, so the slots take their largest
    # sums; then six more dependent vectors are solved
    monkeypatch.setattr(_elim, "_PRIME", prime)
    rng = random.Random(prime)
    wide = 2**200

    def dependent(added, k):
        kind = rng.random()
        if kind < 0.2 or not added:
            return [0] * k
        if kind < 0.4:
            return [prime * rng.randint(-wide, wide) for _ in range(k)]
        v = [prime * rng.randint(-wide, wide) for _ in range(k)]
        for w in rng.sample(added, min(len(added), 3)):
            c = rng.randint(-wide, wide)
            v = [x + c * y for x, y in zip(v, w)]
        return v

    for k in (1, 2, 31, 32, 63, 64, 150):
        ours, ref = _elim.ModBasis(), EagerModBasis(prime)
        added = []
        while len(ours) < min(k, 24):
            if rng.random() < 0.2:
                v = dependent(added, k)
            else:
                v = [rng.choice((-1, 1)) * rng.randint(wide, 2 * wide) for _ in range(k)]
            if check_mod_basis_step(ours, ref, v):
                added.append(v)
        for _ in range(6):
            assert not check_mod_basis_step(ours, ref, dependent(added, k))
