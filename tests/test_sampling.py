"""Seeded points on lines."""

import random

import pytest

from hada import sampling
from hada.errors import HadaError, SamplingError
from hada.projective import ProjPoint

BASIS = sampling.solution_basis([[1, 1, -2]], 3)


def test_combine_of_zero_weights_is_no_point():
    with pytest.raises(HadaError, match="all coordinates are zero"):
        sampling.combine(BASIS, (0, 0))
    assert sampling.combine(BASIS, (1, 1)) == ProjPoint(
        [x + y for x, y in zip(BASIS[0].coords, BASIS[1].coords)]
    )


def test_sample_point_gives_up_after_its_tries():
    offered = []
    with pytest.raises(SamplingError, match=f"in {sampling.SAMPLE_TRIES} attempts"):
        sampling.sample_point(random.Random(0), BASIS, lambda p: offered.append(p) and False)
    assert len(offered) == sampling.SAMPLE_TRIES
