import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictgames.axioms import Lens, audit_mixture_axioms
from strictgames.detection import find_mixed_violation
from strictgames.errors import (
    DimensionMismatch,
    EmptyGame,
    FormatError,
    ShapeMismatch,
    WeightOutOfRange,
)
from strictgames.games import (
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    expected_utility,
    mix,
    new_game,
    pure_profile,
    random_strategy,
    uniform_profile,
    verify_bilinearity,
)

MATCHING_PENNIES = new_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])


def test_new_game_matching_pennies():
    g = MATCHING_PENNIES
    assert (g.rows, g.cols) == (2, 2)
    assert g.u1[0][0] == 1 and g.u2[0][0] == -1
    # each view is built once; equality and hashing still compare the integers
    assert g.u1 is g.u1 and g.u2 is g.u2
    fresh = new_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    assert fresh == g and hash(fresh) == hash(g)


def test_new_game_single_cell():
    g = new_game([[3]], [[-3]])
    assert (g.rows, g.cols) == (1, 1)


def test_new_game_shape_mismatch():
    with pytest.raises(ShapeMismatch, match="u1 is 2x2 but u2 is 2x3"):
        new_game([[1, 2], [3, 4]], [[1, 2, 3], [4, 5, 6]])


def test_new_game_ragged_rows():
    with pytest.raises(ShapeMismatch, match="u1 has rows of widths"):
        new_game([[1, 2], [3]], [[1, 2], [3, 4]])


def test_new_game_empty():
    with pytest.raises(EmptyGame):
        new_game([], [])
    with pytest.raises(EmptyGame):
        new_game([[]], [[]])


@pytest.mark.parametrize("den", [0, -1, True, F(2), 2.0], ids=repr)
def test_bimatrix_game_rejects_a_bad_denominator(den):
    with pytest.raises(FormatError):
        BimatrixGame(((1,),), den, ((-1,),), 1)
    with pytest.raises(FormatError):
        BimatrixGame(((1,),), 1, ((-1,),), den)


@pytest.mark.parametrize(
    "num1, num2, error",
    [
        (((1, 2), (3,)), ((1, 2), (3, 4)), ShapeMismatch),  # ragged u1
        (((1, 2), (3, 4)), ((1, 2), (3,)), ShapeMismatch),  # ragged u2
        (((1, 2),), ((1, 2, 3),), ShapeMismatch),  # unequal widths
        (((1,), (2,)), ((1,),), ShapeMismatch),  # unequal heights
        ((), (), EmptyGame),
        (((),), ((),), EmptyGame),
        (((1,),), (), EmptyGame),
    ],
)
def test_bimatrix_game_checks_shapes(num1, num2, error):
    with pytest.raises(error):
        BimatrixGame(num1, 1, num2, 1)
    # a malformed shape is malformed input
    with pytest.raises(FormatError):
        BimatrixGame(num1, 1, num2, 1)


@pytest.mark.parametrize(
    "num1, num2, message",
    [
        (((1, 2), (3,)), ((1, 2), (3, 4)), "u1 has rows of widths [1, 2]"),
        (((1, 2), (3, 4)), ((1, 2), (3,)), "u2 has rows of widths [1, 2]"),
        (((1, 2),), ((1, 2, 3),), "u1 is 1x2 but u2 is 1x3"),
        (((1,), (2,)), ((1,),), "u1 is 2x1 but u2 is 1x1"),
    ],
)
def test_a_shape_error_names_the_matrix(num1, num2, message):
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        BimatrixGame(num1, 1, num2, 1)


def test_expected_utility_point_mass():
    p = pure_profile((0, 0), MATCHING_PENNIES)
    assert expected_utility(MATCHING_PENNIES, 1, p) == 1


def test_expected_utility_mixed():
    # brute force: 1/3*1/4*1 + 1/3*3/4*(-1) + 2/3*1/4*(-1) + 2/3*3/4*1 = 1/6
    p = MixedProfile(
        MixedStrategy((F(1, 3), F(2, 3))), MixedStrategy((F(1, 4), F(3, 4)))
    )
    assert expected_utility(MATCHING_PENNIES, 1, p) == F(1, 6)


def test_expected_utility_uniform():
    g = new_game([[0, 1], [2, 4]], [[0, 0], [0, 0]])
    assert expected_utility(g, 1, uniform_profile(g)) == F(7, 4)


def test_expected_utility_dimension_mismatch():
    p = pure_profile((0, 0), new_game([[1, 2, 3]], [[0, 0, 0]]))
    with pytest.raises(DimensionMismatch):
        expected_utility(MATCHING_PENNIES, 1, p)


def test_mix_identity_weight():
    p = MixedStrategy((F(1, 3), F(2, 3)))
    q = MixedStrategy((F(1), F(0)))
    assert mix(p, q, F(1)) == p
    assert mix(p, q, F(0)) == q


def test_mix_midpoint():
    p = MixedStrategy((F(1), F(0)))
    q = MixedStrategy((F(0), F(1)))
    assert mix(p, q, F(1, 2)).probs == (F(1, 2), F(1, 2))


def test_mix_derived():
    # 3/4 * 1/3 + 1/4 * 1 = 1/2
    p = MixedStrategy((F(1, 3), F(2, 3)))
    q = MixedStrategy((F(1), F(0)))
    assert mix(p, q, F(3, 4)).probs == (F(1, 2), F(1, 2))


def test_mix_weight_out_of_range():
    p = MixedStrategy((F(1),))
    with pytest.raises(WeightOutOfRange):
        mix(p, p, F(3, 2))


def test_mix_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mix(MixedStrategy((F(1),)), MixedStrategy((F(1, 2), F(1, 2))), F(1, 2))


def test_strategy_invariants():
    with pytest.raises(ValueError):
        MixedStrategy((F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        MixedStrategy((F(3, 2), F(-1, 2)))
    for weights in [(0, 0), (), (3, -1)]:
        with pytest.raises(ValueError):
            MixedStrategy.from_weights(weights)


@pytest.mark.parametrize(
    "weights",
    [(True, True), (1, False), (1.0, 1), ("1", 1), (F(1), 1), (F(1, 2), F(1, 2))],
    ids=["bools", "int-and-bool", "float", "string", "integral-fraction", "fractions"],
)
def test_from_weights_takes_only_ints(weights):
    # a bool is an int to isinstance, but not a weight
    with pytest.raises(FormatError):
        MixedStrategy.from_weights(weights)


def test_verify_bilinearity_matching_pennies():
    assert verify_bilinearity(MATCHING_PENNIES, 100, seed=7)


def test_verify_bilinearity_random_3x3():
    rng = random.Random(11)
    u1 = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    u2 = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    assert verify_bilinearity(new_game(u1, u2), 100, seed=13)


def test_verify_bilinearity_single_cell():
    assert verify_bilinearity(new_game([[3]], [[-3]]), 20, seed=1)


@st.composite
def small_games(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-20, 20)
    u1 = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows))
    u2 = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                       min_size=rows, max_size=rows))
    return new_game(u1, u2)


@settings(max_examples=30, deadline=None)
@given(small_games(), st.integers(0, 2**32 - 1))
def test_point_mass_recovery(game, seed):
    rng = random.Random(seed)
    i = rng.randrange(game.rows)
    j = rng.randrange(game.cols)
    p = pure_profile((i, j), game)
    assert expected_utility(game, 1, p) == game.u1[i][j]
    assert expected_utility(game, 2, p) == game.u2[i][j]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_simplex_closure_of_mix(n, seed):
    rng = random.Random(seed)
    p = random_strategy(rng, n)
    q = random_strategy(rng, n)
    w = F(rng.randint(0, 64), 64)
    out = mix(p, q, w)
    assert sum(out.probs) == 1
    assert all(v >= 0 for v in out.probs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=6).filter(any),
    st.data(),
    st.integers(1, 6),
)
def test_strategy_canonical_form(p_weights, data, scale):
    """One simplex point built from Fractions, from unreduced integer
    weights and through ``mix`` is one value with one hash."""
    n = len(p_weights)
    q_weights = data.draw(st.lists(st.integers(0, 30), min_size=n, max_size=n).filter(any))
    w = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=24))
    p = MixedStrategy.from_weights(p_weights)
    q = MixedStrategy.from_weights(q_weights)
    point = [w * a + (1 - w) * b for a, b in zip(p.probs, q.probs)]
    den = math.lcm(*(v.denominator for v in point)) * scale
    built = [
        MixedStrategy(point),
        MixedStrategy.from_weights(int(v * den) for v in point),
        mix(p, q, w),
    ]
    assert built[0] == built[1] == built[2]
    assert hash(built[0]) == hash(built[1]) == hash(built[2])
    assert built[0].probs == tuple(point)
    assert built[0].probs is built[0].probs
    assert built[0] == built[1] and hash(built[0]) == hash(built[1])


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
def test_rational_canonical_form(a, b):
    assert a + b - b == a
    assert (a + b - b).denominator == a.denominator


@settings(max_examples=20, deadline=None)
@given(small_games(), st.integers(0, 2**32 - 1))
def test_bilinearity_property(game, seed):
    assert verify_bilinearity(game, 10, seed)


@pytest.mark.parametrize(
    "call",
    [
        lambda: find_mixed_violation(MATCHING_PENNIES, budget=0, seed=1),
        lambda: expected_utility(MATCHING_PENNIES, 3, uniform_profile(MATCHING_PENNIES)),
        lambda: verify_bilinearity(MATCHING_PENNIES, samples=0, seed=1),
        lambda: audit_mixture_axioms(MATCHING_PENNIES, Lens.U2, samples=0, seed=1),
    ],
    ids=["budget", "player", "bilinearity-samples", "audit-samples"],
)
def test_nonpositive_counts_and_bad_player_raise(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "samples, seed",
    [(True, 1), (2.0, 1), (10, 1.5), (10, True)],
    ids=["bool-samples", "float-samples", "float-seed", "bool-seed"],
)
def test_bilinearity_refuses_a_count_or_seed_that_is_not_an_int(samples, seed):
    with pytest.raises(ValueError, match="must be an int"):
        verify_bilinearity(MATCHING_PENNIES, samples=samples, seed=seed)
