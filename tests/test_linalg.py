"""Elimination kernels against an independent Fraction oracle."""

import random
from math import comb

from hada import _elim, linalg
from hada.ideals import evaluation_rows
from hada.projective import PointSet, ProjPoint
from support import frac_rank, frac_rref, ref_echelon_gcd, ref_rref_gcd


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
    for _ in range(100):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols)
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


def test_growth_guard_fallback_is_bit_identical(monkeypatch):
    # dense wide-entry matrices: the unforced path must match the oracle
    rng = random.Random(606)
    n = 12
    cases = [
        ([[rng.randint(-(2**64), 2**64) for _ in range(n)] for _ in range(n - 2)], n)
        for _ in range(5)
    ]
    for _ in range(60):
        nrows, ncols = rng.randint(2, 8), rng.randint(2, 8)
        cases.append((random_matrix(rng, nrows, ncols, bound=10**6), ncols))
    unforced = []
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
        unforced.append((rank, _elim.rref(m, ncols), basis, echelon))

    # a zero growth limit trips the guard on the first row update, so
    # every case that needs elimination reruns through the Bareiss fallback
    calls = {"echelon": 0, "rref": 0}

    def spy(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(_elim, "_growth_limit", lambda m, ncols: 0)
    monkeypatch.setattr(
        _elim, "_echelon_bareiss", spy("echelon", _elim._echelon_bareiss)
    )
    monkeypatch.setattr(_elim, "_rref_bareiss", spy("rref", _elim._rref_bareiss))
    for (m, ncols), expected in zip(cases, unforced):
        forced = (_elim.rank(m, ncols), _elim.rref(m, ncols), _elim.nullspace(m, ncols))
        assert forced == expected[:3]
        assert forced[0] == frac_rank(m, ncols)
        # echelon rows may differ by path; rank, pivots and row space may not
        rank, pivots, rows = _elim.echelon(m, ncols)
        assert (rank, pivots) == expected[3][:2] == forced[1][:2]
        assert _elim.rref(rows, ncols) == forced[1]
    assert calls["echelon"] > 0 and calls["rref"] > 0


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
    return cases


def test_reduced_multipliers_match_full_multiplier_reference(monkeypatch):
    rng = random.Random(808)
    cases = evaluation_cases(909)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        bound = rng.choice([9, 10**6, 2**64])
        cases.append((random_matrix(rng, nrows, ncols, bound=bound), ncols))

    # the kernels themselves, at limits that trip the guard early, midway
    # or not at all: the same rows and the same decision to give up
    outcomes = set()
    for m, ncols in cases:
        prim = _elim._primitive_rows(m)
        for limit in (0, 12, 40, _elim._growth_limit(prim, ncols)):
            for ours, ref in (
                (_elim._echelon_gcd, ref_echelon_gcd),
                (_elim._rref_gcd, ref_rref_gcd),
            ):
                got = ours([list(r) for r in prim], ncols, limit)
                assert got == ref([list(r) for r in prim], ncols, limit)
                outcomes.add((limit, got is None))
    assert (12, True) in outcomes and (12, False) in outcomes

    def answers():
        return [(_elim.echelon(m, ncols), _elim.rref(m, ncols)) for m, ncols in cases]

    # the public functions, unforced and with the Bareiss fallback forced
    # by a zero growth limit, against the same functions running the
    # full-multiplier reference
    for limit in (None, 0):
        with monkeypatch.context() as patch:
            if limit is not None:
                patch.setattr(_elim, "_growth_limit", lambda m, ncols: limit)
            ours = answers()
            patch.setattr(_elim, "_echelon_gcd", ref_echelon_gcd)
            patch.setattr(_elim, "_rref_gcd", ref_rref_gcd)
            assert answers() == ours


def spy_echelon(monkeypatch):
    """Count the exact eliminations ``_elim.rank`` falls back on."""
    calls = []
    original = _elim.echelon

    def wrapped(rows, ncols):
        calls.append((len(rows), ncols))
        return original(rows, ncols)

    monkeypatch.setattr(_elim, "echelon", wrapped)
    return calls


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


def test_fraction_rows_are_cleared():
    from fractions import Fraction

    rows = [[Fraction(1, 2), Fraction(1, 3)], [3, 2]]
    assert linalg.rank_of(rows, 2) == 1  # second row is 6x the first
