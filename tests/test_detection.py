import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strictgames.detection import (
    AffineMismatch,
    AffineTransform,
    AlphaNonpositive,
    OrdinalViolation,
    detect_affine,
    find_mixed_violation,
    is_adversarial,
    pure_ordinal_competitive,
    three_profile_compatibility,
    to_zero_sum,
)
from strictgames.errors import AlphaNonpositiveError
from strictgames.generators import disguise
from strictgames.games import (
    expected_utility,
    new_game,
    pure_profile,
    random_profile,
    uniform_profile,
)

MATCHING_PENNIES = new_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
DISGUISED = new_game([[1, -1], [-1, 1]], [[1, 5], [5, 1]])  # u2 = -2*u1 + 3
CUBE = new_game([[0, 1], [2, 4]], [[0, -1], [-8, -64]])  # u2 = -(u1**3)
PRISONERS = new_game([[3, 0], [5, 1]], [[3, 5], [0, 1]])
CONSTANT = new_game([[3, 3], [3, 3]], [[5, 5], [5, 5]])


def test_pure_ordinal_matching_pennies():
    assert pure_ordinal_competitive(MATCHING_PENNIES) is True


def test_pure_ordinal_cube_game():
    assert pure_ordinal_competitive(CUBE) is True


def test_pure_ordinal_prisoners_dilemma():
    v = pure_ordinal_competitive(PRISONERS)
    assert v == OrdinalViolation(sigma=(0, 0), tau=(1, 1))


def scan_ordinal(game):
    """``pure_ordinal_competitive`` as a scan of every ordered pair of
    cells in row-major order, the reference for its sorted pass."""
    cells = game.cells()
    for sigma in cells:
        for tau in cells:
            ge1 = game.u1[sigma[0]][sigma[1]] >= game.u1[tau[0]][tau[1]]
            le2 = game.u2[sigma[0]][sigma[1]] <= game.u2[tau[0]][tau[1]]
            if ge1 != le2:
                return OrdinalViolation(sigma, tau)
    return True


@st.composite
def tied_rational_games(draw):
    """Games up to 5x5 whose payoffs come from a few rationals, so that
    ties within each matrix and between the two orders are common; half of
    them have ``u2`` strictly decreasing in ``u1``, so that pure profiles
    pass or fail on a single cell."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = st.fractions(-3, 3, max_denominator=3)
    u1 = [[draw(values) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        u2 = [[draw(values) for _ in range(n)] for _ in range(m)]
    else:
        scale = draw(st.fractions(F(1, 3), 3, max_denominator=3).filter(bool))
        u2 = [[-scale * v * abs(v) for v in row] for row in u1]
        if draw(st.booleans()):
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
            u2[i][j] = draw(values)
    return new_game(u1, u2)


@settings(max_examples=400, deadline=None)
@given(tied_rational_games())
def test_pure_ordinal_returns_the_first_pair_of_the_full_scan(game):
    assert pure_ordinal_competitive(game) == scan_ordinal(game)


def test_pure_ordinal_on_a_100x100_game():
    # an adversarial game passes, and one changed cell gives a pair that
    # re-checks; a scan of every pair would make 10**8 comparisons here
    v = [[(7 * i + 3 * j) % 41 - 20 for j in range(100)] for i in range(100)]
    game = new_game(v, [[-e for e in row] for row in v])
    assert pure_ordinal_competitive(game) is True
    w = [row[:] for row in v]
    w[99][99] = -w[99][99] + 1
    late = new_game(v, w)
    found = pure_ordinal_competitive(late)
    assert found is not True
    (i, j), (k, l) = found.sigma, found.tau
    assert (v[i][j] >= v[k][l]) != (w[i][j] <= w[k][l])


def test_detect_matching_pennies():
    r = detect_affine(MATCHING_PENNIES)
    assert r.status == "adversarial"
    assert r.transform == AffineTransform(F(1), F(0))


def test_detect_disguised():
    # anchors (0,0),(0,1): 1 = -a + b, 5 = a + b => a=2, b=3
    r = detect_affine(DISGUISED)
    assert r.status == "adversarial"
    assert r.transform == AffineTransform(F(2), F(3))


def test_detect_cube_mismatch():
    # anchors force alpha=1, beta=0; cell (1,0) expects -2, has -8
    r = detect_affine(CUBE)
    assert r.status == "not_adversarial"
    assert r.witness == AffineMismatch(cell=(1, 0), expected=F(-2), actual=F(-8))


def test_detect_constant_degenerate():
    r = detect_affine(CONSTANT)
    assert r.status == "degenerate"
    assert r.transform == AffineTransform(F(1), F(8))
    assert r.note == "both payoffs constant"


def test_detect_constant_u1_varying_u2():
    g = new_game([[3, 3], [3, 3]], [[5, 6], [5, 5]])
    r = detect_affine(g)
    assert r.status == "not_adversarial"
    assert r.witness == OrdinalViolation(sigma=(0, 1), tau=(0, 0))


def test_detect_alpha_nonpositive():
    # u2 = +u1 gives alpha = -1
    g = new_game([[0, 1], [2, 3]], [[0, 1], [2, 3]])
    r = detect_affine(g)
    assert r.status == "not_adversarial"
    assert isinstance(r.witness, AlphaNonpositive)
    assert r.witness.alpha == F(-1)


@pytest.mark.parametrize(
    "anchors",
    [
        ((2, 0), (0, 0)),  # row past the last
        ((0, 0), (0, 3)),  # column past the last
        ((-1, 0), (0, 1)),
        ((0, 0), (1, 0)),  # both u1 = 1
    ],
)
def test_detect_rejects_bad_anchors(anchors):
    """Anchors are mapped to flat indices; a cell outside the 2x3 game, or
    two cells with equal u1, is refused rather than read elsewhere."""
    g = new_game([[1, 2, 3], [1, 5, 6]], [[-1, -2, -3], [-1, -5, -6]])
    assert detect_affine(g, anchors=((0, 0), (1, 2))).is_adversarial
    with pytest.raises(ValueError):
        detect_affine(g, anchors=anchors)


def test_is_adversarial():
    assert is_adversarial(MATCHING_PENNIES)
    assert is_adversarial(CONSTANT)
    assert not is_adversarial(CUBE)
    assert not is_adversarial(PRISONERS)


def test_detection_json_round():
    d = detect_affine(DISGUISED).to_json_dict()
    assert d == {"status": "adversarial", "alpha": "2/1", "beta": "3/1"}
    d = detect_affine(CUBE).to_json_dict()
    assert d["witness"]["kind"] == "affine_mismatch"
    assert d["witness"]["cell"] == [1, 0]
    assert d["witness"]["expected"] == "-2/1"


def test_three_profile_compatibility_disguised():
    ps = [pure_profile(c, DISGUISED) for c in [(0, 0), (0, 1), (1, 0)]]
    # distinct u1 values at the first two anchors suffice
    t = three_profile_compatibility(DISGUISED, *ps)
    assert t == AffineTransform(F(2), F(3))


def test_three_profile_compatibility_identical():
    p = uniform_profile(MATCHING_PENNIES)
    t = three_profile_compatibility(MATCHING_PENNIES, p, p, p)
    assert t == AffineTransform(F(1), F(0))


def test_three_profile_compatibility_cube():
    ps = [pure_profile(c, CUBE) for c in [(0, 0), (0, 1), (1, 0)]]
    assert three_profile_compatibility(CUBE, *ps) is None


def test_find_mixed_violation_cube_hand_witness():
    # the constructed class of witness: pure (1,0) against the barycenter
    sigma = pure_profile((1, 0), CUBE)
    tau = uniform_profile(CUBE)
    assert expected_utility(CUBE, 1, sigma) == 2
    assert expected_utility(CUBE, 1, tau) == F(7, 4)
    assert expected_utility(CUBE, 2, sigma) == -8
    assert expected_utility(CUBE, 2, tau) == F(-73, 4)
    ge1 = expected_utility(CUBE, 1, sigma) >= expected_utility(CUBE, 1, tau)
    le2 = expected_utility(CUBE, 2, sigma) <= expected_utility(CUBE, 2, tau)
    assert ge1 and not le2


def test_find_mixed_violation_cube():
    found = find_mixed_violation(CUBE, budget=2000, seed=5)
    assert found is not None
    sigma, tau = found
    ge1 = expected_utility(CUBE, 1, sigma) >= expected_utility(CUBE, 1, tau)
    le2 = expected_utility(CUBE, 2, sigma) <= expected_utility(CUBE, 2, tau)
    assert ge1 != le2


def test_find_mixed_violation_matching_pennies():
    assert find_mixed_violation(MATCHING_PENNIES, budget=300, seed=5) is None


@pytest.mark.parametrize(
    "budget, seed",
    [(True, 1), (2.0, 1), (300, 1.5), (300, True)],
    ids=["bool-budget", "float-budget", "float-seed", "bool-seed"],
)
def test_find_mixed_violation_refuses_a_budget_or_seed_that_is_not_an_int(budget, seed):
    with pytest.raises(ValueError, match="must be an int"):
        find_mixed_violation(CUBE, budget=budget, seed=seed)


def test_find_mixed_violation_prisoners():
    found = find_mixed_violation(PRISONERS, budget=2000, seed=5)
    assert found is not None


def test_to_zero_sum_disguised():
    z = to_zero_sum(DISGUISED, AffineTransform(F(2), F(3)))
    u1, u2 = z.u1, z.u2
    assert u1 == ((F(-1), F(-5)), (F(-5), F(-1)))
    for i in range(z.rows):
        for j in range(z.cols):
            assert u1[i][j] + u2[i][j] == 0


def test_to_zero_sum_identity():
    z = to_zero_sum(MATCHING_PENNIES, AffineTransform(F(1), F(0)))
    assert z == MATCHING_PENNIES


def test_alpha_nonpositive_rejected():
    with pytest.raises(AlphaNonpositiveError):
        AffineTransform(F(-1), F(0))
    with pytest.raises(AlphaNonpositiveError):
        AffineTransform(F(0), F(0))


@st.composite
def nonconstant_cores(draw):
    """Rational matrices up to 5x5 with at least two distinct entries."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    assume(rows * cols > 1)
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    core = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    assume(len({v for row in core for v in row}) > 1)
    return core


@settings(max_examples=60, deadline=None)
@given(
    nonconstant_cores(),
    st.fractions(min_value=F(1, 64), max_value=64),
    st.fractions(min_value=-20, max_value=20),
)
def test_round_trip_recovery(core, alpha, beta):
    # u2 == -alpha * core + beta on every cell, so detection must recover
    # exactly the planted transform
    g = disguise(core, alpha, beta)
    r = detect_affine(g)
    assert r.status == "adversarial"
    assert r.transform == AffineTransform(alpha, beta)


def all_anchor_pairs(game):
    cells = game.cells()
    u1 = game.u1
    return [
        (c1, c2)
        for c1, c2 in combinations(cells, 2)
        if u1[c1[0]][c1[1]] != u1[c2[0]][c2[1]]
    ]


def test_anchor_independence_disguised():
    expected = detect_affine(DISGUISED).transform
    pairs = all_anchor_pairs(DISGUISED)
    assert pairs
    for anchors in pairs:
        r = detect_affine(DISGUISED, anchors=anchors)
        assert r.status == "adversarial"
        assert r.transform == expected


def test_triple_consistency_random_profiles():
    rng = random.Random(99)
    expected = detect_affine(DISGUISED).transform
    for _ in range(50):
        ps = [random_profile(rng, DISGUISED) for _ in range(3)]
        e1 = [expected_utility(DISGUISED, 1, p) for p in ps]
        if e1[0] == e1[1] == e1[2]:
            continue
        assert three_profile_compatibility(DISGUISED, *ps) == expected
