"""Seeded exact sampling of rational points on lines.

Lines are parameterized by two basis points (kernel of the dual rows)
and rational lambda:mu weights drawn from a seeded generator, mapped to
small integers so coordinate growth stays bounded.  All sampling is
rejection-based: the bad loci (coordinate strata, pairwise collisions)
are finite, so a modest retry budget suffices on valid input.
"""

from __future__ import annotations

import random

from . import linalg
from .errors import SamplingError
from .projective import ProjPoint

PARAM_BOUND = 10_000

# Small fixed weights for deterministic points on a line (no RNG involved).
FIXED_WEIGHTS = (
    (1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2),
    (3, 1), (1, 3), (2, 3), (3, 2), (1, -2), (2, -1),
)


def solution_basis(dual_rows, ncols):
    """Basis points of the common zero locus of the given dual rows."""
    return [ProjPoint(v) for v in linalg.kernel_basis(list(dual_rows), ncols)]


def combine(basis, weights):
    """Integer combination of basis points, or None when it vanishes."""
    coords = [0] * len(basis[0].coords)
    for w, b in zip(weights, basis):
        for i, x in enumerate(b.coords):
            coords[i] += w * x
    if not any(coords):
        return None
    return ProjPoint(coords)


def nonzero_int(rng: random.Random, bound: int) -> int:
    v = 0
    while v == 0:
        v = rng.randint(-bound, bound)
    return v


def sample_point(rng: random.Random, basis, accept=None, tries: int = 200):
    """Seeded rational point in the span of ``basis`` passing ``accept``."""
    for _ in range(tries):
        lam = rng.randint(-PARAM_BOUND, PARAM_BOUND)
        mu = nonzero_int(rng, PARAM_BOUND)
        p = combine(basis, (lam, mu))
        if p is None:
            continue
        if accept is None or accept(p):
            return p
    raise SamplingError(f"no acceptable point found in {tries} attempts")
