import random
from fractions import Fraction as F

import pytest

from strictgames.detection import detect_affine, is_adversarial, pure_ordinal_competitive
from strictgames.errors import BadSpec
from strictgames.generators import (
    Family,
    GenSpec,
    cube_opponent,
    disguise,
    gen,
    gen_disguised,
    gen_ordinal,
)
from strictgames.strategic import strategically_zero_sum_detect


def test_disguise_construction():
    g = disguise([[1, -1], [-1, 1]], F(2), F(3))
    assert g.u2 == ((F(1), F(5)), (F(5), F(1)))


def test_cube_construction():
    g = cube_opponent([[0, 1], [2, 4]])
    assert g.u2 == ((F(0), F(-1)), (F(-8), F(-64)))


def test_gen_uniform_single_cell():
    g = gen(GenSpec(Family.UNIFORM, 1, 1, seed=4))
    assert (g.rows, g.cols) == (1, 1)


def test_gen_disguised_single_cell_is_degenerate():
    g = gen(GenSpec(Family.DISGUISED_ZERO_SUM, 1, 1, seed=3))
    result = detect_affine(g)
    assert result.status == "degenerate"
    assert result.transform.alpha == 1
    assert result.transform.beta == g.u1[0][0] + g.u2[0][0]


def test_gen_is_deterministic():
    spec = GenSpec(Family.DISGUISED_ZERO_SUM, 3, 4, seed=11)
    assert gen(spec) == gen(spec)


def test_gen_disguised_plants_recoverable_transform():
    rng = random.Random(7)
    spec = GenSpec(Family.DISGUISED_ZERO_SUM, 4, 3, seed=7)
    game, planted = gen_disguised(rng, spec)
    result = detect_affine(game)
    assert result.status == "adversarial"
    assert result.transform == planted
    assert F(1, 2) <= planted.alpha <= 8
    assert -10 <= planted.beta <= 10
    assert planted.alpha.denominator <= 8


def test_gen_ordinal_separates_pure_from_mixed():
    for seed in range(10):
        g = gen(GenSpec(Family.ORDINAL_NOT_AFFINE, 2, 2, seed=seed))
        assert pure_ordinal_competitive(g) is True
        assert not is_adversarial(g)


def test_gen_ordinal_avoids_cube_affine_value_sets():
    # {-c, 0, c} makes the cube affine; such draws must be rejected, and at
    # bound 1 every three-value draw is of that shape, so the spec is invalid
    with pytest.raises(BadSpec):
        GenSpec(Family.ORDINAL_NOT_AFFINE, 2, 2, seed=0, value_bound=1)
    rng = random.Random(0)
    spec = GenSpec(Family.ORDINAL_NOT_AFFINE, 2, 2, seed=0, value_bound=2)
    for _ in range(20):
        g = gen_ordinal(rng, spec)
        assert not is_adversarial(g)


def test_gen_strategic_detects():
    g = gen(GenSpec(Family.STRATEGIC_ZERO_SUM, 3, 3, seed=2))
    assert strategically_zero_sum_detect(g) is not None


def test_bad_specs():
    with pytest.raises(BadSpec):
        GenSpec(Family.UNIFORM, 0, 2, seed=1)
    with pytest.raises(BadSpec):
        GenSpec(Family.ORDINAL_NOT_AFFINE, 1, 2, seed=1)
    with pytest.raises(BadSpec):
        GenSpec(Family.UNIFORM, 2, 2, seed=1, value_bound=0)


@pytest.mark.parametrize(
    "rows, cols, seed, value_bound",
    [(True, 2, 1, 20), (2, 2.0, 1, 20), (2, 2, 1.5, 20), (2, 2, 1, True)],
    ids=["bool-rows", "float-cols", "float-seed", "bool-value-bound"],
)
def test_a_spec_refuses_a_size_seed_or_bound_that_is_not_an_int(rows, cols, seed, value_bound):
    with pytest.raises(BadSpec, match="must be ints"):
        GenSpec(Family.UNIFORM, rows, cols, seed, value_bound)


@pytest.mark.parametrize("family", list(Family))
def test_a_family_given_by_its_value_draws_that_family(family):
    spec = GenSpec(family.value, 3, 3, 1)
    assert spec == GenSpec(family, 3, 3, 1) and spec.family is family
    assert gen(spec) == gen(GenSpec(family, 3, 3, 1))


def test_a_family_given_by_its_value_is_checked():
    with pytest.raises(BadSpec):
        GenSpec("ordinal-not-affine", 1, 2, 1)
    with pytest.raises(ValueError):
        GenSpec("zero-sum", 3, 3, 1)
