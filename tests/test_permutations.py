"""Permutation and transposition properties of the exact solvers.

Permuting the rows and columns of a zero-sum game only relabels its
actions, so the value stays; the game ``-a^T`` swaps the players, so the
value is negated.  A certified answer is the game's only optimum
(``solvers._certify``), so when either game of a pair is certified the
strategies permute, or swap, exactly with the actions.  When only the
exact simplex answers, the optimum may not be unique and the strategies
may differ; both guarantees are then checked exactly on each answer.
Counting the builds of an exact ``_Simplex`` tells the two paths apart.

``detect_affine``'s verdict and transform do not depend on the order of
the actions either, and nor does the strategic test's decomposition, up to
the constant that its normalization moves between the two offset vectors.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictgames import solvers
from strictgames.detection import detect_affine
from strictgames.games import new_game
from strictgames.generators import disguise
from strictgames.solvers import minimax_solve
from strictgames.strategic import strategically_zero_sum_detect
from test_solvers import assert_guarantees, zero_sum


def solve_counting(v):
    """``minimax_solve`` of the zero-sum game ``v`` and whether its guess
    was certified, that is, whether no exact simplex was built.  The guess,
    a subclass with its own ``__init__``, is not counted."""
    builds = 0
    init = solvers._Simplex.__init__

    def counted(self, a):
        nonlocal builds
        builds += 1
        init(self, a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers._Simplex, "__init__", counted)
        solution = minimax_solve(zero_sum(v))
    return solution, builds == 0


@st.composite
def matrices(draw):
    """Integer matrices up to 12x12 with entries in ``[-b, b]``, ``b`` in
    {1, 2, 3, 20}: small bounds give ties and games with several optima,
    which the exact simplex answers."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bound = draw(st.sampled_from((1, 2, 3, 20)))
    entry = st.integers(-bound, bound)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


def permuted(v, rows, cols):
    return [[v[i][j] for j in cols] for i in rows]


@pytest.mark.parametrize(
    "v, certified",
    [
        ([[4, 1, 5, 3], [1, 5, 0, 4]], True),  # one optimum, on a 2x2 support
        ([[0, 0], [0, 0]], False),  # every strategy is optimal
    ],
)
def test_the_solve_count_tells_certified_from_fallback(v, certified):
    assert solve_counting(v)[1] is certified


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_permuting_the_actions_relabels_the_answer(v, data):
    rows = data.draw(st.permutations(range(len(v))))
    cols = data.draw(st.permutations(range(len(v[0]))))
    w = permuted(v, rows, cols)
    (base, base_certified), (image, image_certified) = solve_counting(v), solve_counting(w)
    assert image.value == base.value
    if base_certified or image_certified:
        assert image.row_strategy.probs == tuple(base.row_strategy[i] for i in rows)
        assert image.col_strategy.probs == tuple(base.col_strategy[j] for j in cols)
    assert_guarantees(v, base.row_strategy, base.col_strategy, base.value)
    assert_guarantees(w, image.row_strategy, image.col_strategy, image.value)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_the_negated_transpose_swaps_the_players(v):
    w = [[-e for e in col] for col in zip(*v)]
    (base, base_certified), (image, image_certified) = solve_counting(v), solve_counting(w)
    assert image.value == -base.value
    if base_certified or image_certified:
        assert image.row_strategy == base.col_strategy
        assert image.col_strategy == base.row_strategy
    assert_guarantees(v, base.row_strategy, base.col_strategy, base.value)
    assert_guarantees(w, image.row_strategy, image.col_strategy, image.value)


@st.composite
def games(draw):
    """A disguised zero-sum game, ``u2 = -alpha*u1 + beta``, or one with
    an independent ``u2``, with its row and column permutations."""
    u1 = draw(matrices())
    m, n = len(u1), len(u1[0])
    if draw(st.booleans()):
        alpha = draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8))
        beta = draw(st.fractions(min_value=-10, max_value=10, max_denominator=8))
        u2 = disguise(u1, alpha, beta).u2
    else:
        u2 = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    return u1, u2, draw(st.permutations(range(m))), draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(games())
def test_detection_does_not_depend_on_the_order_of_the_actions(case):
    u1, u2, rows, cols = case
    base = detect_affine(new_game(u1, u2))
    image = detect_affine(new_game(permuted(u1, rows, cols), permuted(u2, rows, cols)))
    assert image.status == base.status
    assert image.transform == base.transform


@st.composite
def strategic_games(draw):
    """A strategically zero-sum game, ``u1 + lambda*u2 = r_i + c_j`` with
    ``lambda > 0``, the same with one cell of ``u2`` moved, which breaks
    the decomposition unless the game has one row or one column, or a game
    of :func:`games`, with its row and column permutations."""
    if draw(st.booleans()):
        return draw(games())
    u1 = draw(matrices())
    m, n = len(u1), len(u1[0])
    lam = draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8))
    r = [draw(st.integers(-5, 5)) for _ in range(m)]
    c = [draw(st.integers(-5, 5)) for _ in range(n)]
    u2 = [[(r[i] + c[j] - u1[i][j]) / lam for j in range(n)] for i in range(m)]
    if draw(st.booleans()):
        u2[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] += 1
    return u1, u2, draw(st.permutations(range(m))), draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(strategic_games())
def test_the_strategic_test_does_not_depend_on_the_order_of_the_actions(case):
    u1, u2, rows, cols = case
    image_game = new_game(permuted(u1, rows, cols), permuted(u2, rows, cols))
    base = strategically_zero_sum_detect(new_game(u1, u2))
    image = strategically_zero_sum_detect(image_game)
    assert (image is None) == (base is None)
    if base is None:
        return
    assert (image.lambda1, image.lambda2) == (base.lambda1, base.lambda2)
    # both are normalized to a zero first row offset, so the permuted
    # offsets differ from the base's by one constant t, and -t
    t = image.row_offsets[0] - base.row_offsets[rows[0]]
    assert image.row_offsets == tuple(base.row_offsets[i] + t for i in rows)
    assert image.col_offsets == tuple(base.col_offsets[j] - t for j in cols)
    assert image.verifies(image_game)
