"""Input-stream oracle for the kernel input helpers.

``random_ints``, ``random_floats`` and ``random_nonzero_floats`` draw in
bulk, but must return exactly what one ``rng.randint`` / ``rng.uniform``
call per element returns and leave the generator in the same state, so
every kernel's inputs (and every figure built on them) stay the same.
If a Python upgrade changes how ``randint`` or ``uniform`` draw, these
tests fail instead of the figures drifting silently.
"""

import random

import pytest

from repro.kernels.util import random_floats, random_ints, random_nonzero_floats

SEEDS = (0, 7, 20190216)
COUNT = 1024


#: each helper's default range, drawn when ``bounds`` is None
DEFAULTS = {
    random_ints: (-64, 64),
    random_floats: (-8.0, 8.0),
    random_nonzero_floats: (0.5, 8.0),
}


def _assert_same_stream(helper, reference, bounds, seed):
    args = () if bounds is None else bounds
    lo, hi = DEFAULTS[helper] if bounds is None else bounds
    rng, twin = random.Random(seed), random.Random(seed)
    got = helper(rng, COUNT, *args)
    assert got == [reference(twin, lo, hi) for _ in range(COUNT)]
    # the generators were left in the same state
    assert rng.random() == twin.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bounds", [None, (0, 0), (-8, 7)])
def test_random_ints_match_randint(seed, bounds):
    _assert_same_stream(random_ints, random.Random.randint, bounds, seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("helper", [random_floats, random_nonzero_floats])
@pytest.mark.parametrize("bounds", [None, (-8.0, 8.0), (0.5, 8.0)])
def test_random_floats_match_uniform(seed, helper, bounds):
    _assert_same_stream(helper, random.Random.uniform, bounds, seed)


def test_random_ints_rejects_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        random_ints(random.Random(0), 4, 5, 4)
