"""The package's samplers draw exactly what ``randint``/``choice`` draw.

Audit reports and the golden file depend on every seeded stream, so these
tests pin the integer samplers to the standard library's own calls: same
values and the same generator state afterwards.  ``_below`` is checked on
bounds on both sides of powers of two, where the rejection loop's bit
width changes.
"""

import random

import pytest

from strictgames.rational import (
    _below,
    draws,
    random_open_weight,
    random_simplex_point,
    random_weight,
)

SEEDS = (0, 1, 7, 2024, 2**40 + 3)
BOUNDS = sorted(
    {1, 2, 3, 7, 64, 65, 100}
    | {2**k + d for k in (1, 3, 5, 8, 16, 31, 32, 33, 40) for d in (-1, 0, 1)}
)


def twins(seed):
    return random.Random(seed), random.Random(seed)


def test_below_matches_randint():
    for seed in SEEDS:
        for n in BOUNDS:
            ours, ref = twins(seed)
            drawn = [_below(ours, n) for _ in range(60)]
            assert drawn == [ref.randint(0, n - 1) for _ in range(60)], (seed, n)
            assert ours.getstate() == ref.getstate(), (seed, n)


def test_below_2_matches_choice():
    for seed in SEEDS:
        ours, ref = twins(seed)
        drawn = [(1, 2)[_below(ours, 2)] for _ in range(200)]
        assert drawn == [ref.choice((1, 2)) for _ in range(200)], seed
        assert ours.getstate() == ref.getstate(), seed


def _reference_simplex_point(rng, n):
    while True:
        weights = [rng.randint(0, 64) for _ in range(n)]
        if any(weights):
            return weights


def test_simplex_point_matches_randint():
    for seed in SEEDS:
        ours, ref = twins(seed)
        for n in (1, 2, 3, 5, 8):
            for _ in range(200):
                expected = _reference_simplex_point(ref, n)
                assert random_simplex_point(ours, n) == expected, (seed, n)
        assert ours.getstate() == ref.getstate(), seed


def test_random_weights_match_randint():
    for seed in SEEDS:
        ours, ref = twins(seed)
        for _ in range(300):
            den = 1 << ref.randint(0, 6)
            assert random_weight(ours) == (ref.randint(0, den), den), seed
            den = 1 << ref.randint(1, 6)
            assert random_open_weight(ours) == (ref.randint(1, den - 1), den), seed
        assert ours.getstate() == ref.getstate(), seed


def test_bound_draws_match_randint_and_choice():
    # the draws bound to one stream, called in a random interleaving, take
    # what the standard library's calls take from a twin stream
    for seed in SEEDS:
        ours, ref = twins(seed)
        draw, plan = draws(ours), random.Random(seed + 1)
        for _ in range(1000):
            kind = plan.randrange(5)
            if kind == 0:
                n = plan.randint(1, 8)
                assert draw.point(n) == _reference_simplex_point(ref, n), seed
            elif kind == 1:
                assert draw.coordinate() == ref.choice((1, 2)), seed
            elif kind == 2:
                den = 1 << ref.randint(0, 6)
                assert draw.weight() == (ref.randint(0, den), den), seed
            elif kind == 3:
                den = 1 << ref.randint(1, 6)
                assert draw.open_weight() == (ref.randint(1, den - 1), den), seed
            else:
                n = plan.choice(BOUNDS)
                assert draw.below(n) == ref.randint(0, n - 1), (seed, n)
        assert ours.getstate() == ref.getstate(), seed


def test_empty_range_raises_like_randint():
    with pytest.raises(ValueError):
        random.Random(0).randint(0, -1)
    with pytest.raises(ValueError):
        _below(random.Random(0), 0)
