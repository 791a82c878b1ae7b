import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strictgames import solvers
from strictgames.detection import AffineTransform, detect_affine, to_zero_sum
from strictgames.errors import NotZeroSum, TooLarge
from strictgames.games import new_game
from strictgames.solvers import (
    EquilibriumSet,
    enumeration_agrees,
    equilibrium_invariance_check,
    minimax_solve,
    support_enumeration,
)

MATCHING_PENNIES = new_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
DISGUISED = new_game([[1, -1], [-1, 1]], [[1, 5], [5, 1]])
PRISONERS = new_game([[3, 0], [5, 1]], [[3, 5], [0, 1]])


def zero_sum(v1):
    return new_game(v1, [[-v for v in row] for row in v1])


def assert_guarantees(v1, x, y, value):
    """x secures at least ``value`` and y concedes at most ``value``, exactly."""
    m, n = len(v1), len(v1[0])
    for j in range(n):
        assert sum(x[i] * v1[i][j] for i in range(m)) >= value
    for i in range(m):
        assert sum(v1[i][j] * y[j] for j in range(n)) <= value


def test_minimax_matching_pennies():
    s = minimax_solve(MATCHING_PENNIES)
    assert s.value == 0
    assert s.row_strategy.probs == (F(1, 2), F(1, 2))
    assert s.col_strategy.probs == (F(1, 2), F(1, 2))


def test_minimax_identity_game():
    s = minimax_solve(zero_sum([[1, 0], [0, 1]]))
    assert s.value == F(1, 2)
    assert s.row_strategy.probs == (F(1, 2), F(1, 2))
    assert s.col_strategy.probs == (F(1, 2), F(1, 2))


def test_minimax_single_cell():
    s = minimax_solve(new_game([[7]], [[-7]]))
    assert s.value == 7
    assert s.row_strategy.probs == (F(1),)


def test_minimax_rejects_general_sum():
    with pytest.raises(NotZeroSum):
        minimax_solve(PRISONERS)


def test_minimax_certificates_random():
    rng = random.Random(23)
    for _ in range(25):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        v1 = [[F(rng.randint(-20, 20)) for _ in range(n)] for _ in range(m)]
        s = minimax_solve(zero_sum(v1))
        for j in range(n):
            assert sum(s.row_strategy[i] * v1[i][j] for i in range(m)) >= s.value
        for i in range(m):
            assert sum(v1[i][j] * s.col_strategy[j] for j in range(n)) <= s.value


def test_minimax_affine_equivariance():
    rng = random.Random(31)
    for _ in range(15):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        v1 = [[F(rng.randint(-10, 10)) for _ in range(n)] for _ in range(m)]
        alpha = F(rng.randint(1, 16), rng.randint(1, 8))
        beta = F(rng.randint(-10, 10), rng.randint(1, 8))
        base = minimax_solve(zero_sum(v1))
        scaled_matrix = [[alpha * v - beta for v in row] for row in v1]
        scaled = minimax_solve(zero_sum(scaled_matrix))
        assert scaled.value == alpha * base.value - beta
        # each game's optimum stays optimal in the other, exactly
        for j in range(n):
            assert (
                sum(base.row_strategy[i] * scaled_matrix[i][j] for i in range(m))
                >= scaled.value
            )
        for i in range(m):
            assert sum(v1[i][j] * scaled.col_strategy[j] for j in range(n)) <= base.value


# Two equilibria share the row mixture (1/2, 1/2) and differ in the column
# mixture, so the optimum is a segment and the pivoting rule decides which
# point of it is returned.
NON_UNIQUE = [[2, 1, -2, 1], [-2, -1, 2, 3]]


def solve_with_run_limit(monkeypatch, game, limit):
    monkeypatch.setattr(solvers, "DEGENERATE_RUN_LIMIT", limit)
    return minimax_solve(game)


def test_minimax_non_unique_optimum(monkeypatch):
    g = zero_sum(NON_UNIQUE)
    eqs = support_enumeration(g)
    assert len({eq.y.probs for eq in eqs}) == 2
    for limit in (0, solvers.DEGENERATE_RUN_LIMIT):
        s = solve_with_run_limit(monkeypatch, g, limit)
        assert s.value == 0
        assert_guarantees(NON_UNIQUE, s.row_strategy, s.col_strategy, s.value)
        for eq in eqs:
            assert eq.payoffs[0] == s.value


def test_minimax_degenerate_fallback(monkeypatch):
    # entries in [-2, 2] tie many ratio tests; under Dantzig's rule this
    # game has a run of degenerate pivots long enough for Bland to take over
    rng = random.Random(71)
    v1 = [[rng.randint(-2, 2) for _ in range(12)] for _ in range(12)]
    g = zero_sum(v1)
    rules, degenerate = [], []
    entering, pivot = solvers._Simplex._entering, solvers._Simplex._pivot

    def recording_entering(self, bland):
        rules.append(bland)
        col = entering(self, bland)
        costs = self.obj[:-1]
        if col is not None:
            # Dantzig enters a most negative cost, Bland the smallest label
            candidates = [lab for lab, c in zip(self.nonbasic, costs) if c < 0]
            if bland:
                assert self.nonbasic[col] == min(candidates)
            else:
                assert costs[col] == min(costs)
        return col

    def recording_pivot(self, row, col):
        degenerate.append(self.rows[row][-1] == 0)
        pivot(self, row, col)

    monkeypatch.setattr(solvers._Simplex, "_entering", recording_entering)
    monkeypatch.setattr(solvers._Simplex, "_pivot", recording_pivot)
    default = minimax_solve(g)
    assert True in rules and False in rules
    # Bland's rule is used exactly when the last DEGENERATE_RUN_LIMIT or
    # more pivots were all degenerate
    run = 0
    for bland, stalled in zip(rules, degenerate):
        assert bland == (run >= solvers.DEGENERATE_RUN_LIMIT)
        run = run + 1 if stalled else 0
    rules.clear()
    bland = solve_with_run_limit(monkeypatch, g, 0)
    assert rules and all(rules)
    assert bland.value == default.value
    for s in (default, bland):
        assert_guarantees(v1, s.row_strategy, s.col_strategy, s.value)


@st.composite
def distinct_entry_matrices(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(
        st.lists(st.integers(-30, 30), min_size=m * n, max_size=m * n, unique=True)
    )
    return [values[i * n:(i + 1) * n] for i in range(m)]


@settings(max_examples=60, deadline=None)
@given(
    distinct_entry_matrices(),
    st.fractions(min_value=F(1, 8), max_value=8),
    st.fractions(min_value=-10, max_value=10),
)
def test_minimax_property_distinct_entries(v1, alpha, beta):
    g = zero_sum(v1)
    eqs = support_enumeration(g)
    assume(len(eqs) > 0)
    base = minimax_solve(g)
    for eq in eqs:
        assert eq.payoffs[0] == base.value
    scaled_matrix = [[alpha * v - beta for v in row] for row in v1]
    scaled = minimax_solve(zero_sum(scaled_matrix))
    assert scaled.value == alpha * base.value - beta
    assert_guarantees(
        scaled_matrix, base.row_strategy, base.col_strategy, scaled.value
    )
    assert_guarantees(v1, scaled.row_strategy, scaled.col_strategy, base.value)


@st.composite
def rational_matrices(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=80, deadline=None)
@given(
    rational_matrices(),
    st.fractions(min_value=F(1, 64), max_value=64),
    st.fractions(min_value=-20, max_value=20),
)
def test_minimax_value_affine_equivariant(v1, a, b):
    # the value of the zero-sum game with row matrix a*M + b, a > 0, is
    # a*value(M) + b, exactly, ties and rational entries included
    base = minimax_solve(zero_sum(v1))
    moved = minimax_solve(zero_sum([[a * v + b for v in row] for row in v1]))
    assert moved.value == a * base.value + b
    assert_guarantees(v1, moved.row_strategy, moved.col_strategy, base.value)


def test_support_enumeration_matching_pennies():
    eqs = support_enumeration(MATCHING_PENNIES)
    assert len(eqs) == 1
    (eq,) = eqs
    assert eq.x.probs == (F(1, 2), F(1, 2))
    assert eq.y.probs == (F(1, 2), F(1, 2))
    assert eq.payoffs == (F(0), F(0))


def test_support_enumeration_prisoners_dilemma():
    eqs = support_enumeration(PRISONERS)
    assert len(eqs) == 1
    (eq,) = eqs
    assert eq.x.probs == (F(0), F(1))
    assert eq.y.probs == (F(0), F(1))
    assert eq.payoffs == (F(1), F(1))


def test_support_enumeration_single_cell():
    eqs = support_enumeration(new_game([[2]], [[9]]))
    assert len(eqs) == 1
    assert eqs.equilibria[0].payoffs == (F(2), F(9))


def test_support_enumeration_skips_singular_system(monkeypatch):
    solved = []
    solve_square = solvers._Simplex.solve_square

    def recording_solve_square(self):
        result = solve_square(self)
        solved.append(result)
        return result

    monkeypatch.setattr(solvers._Simplex, "solve_square", recording_solve_square)
    half = F(1, 2)
    # matching pennies with row 0 duplicated: the indifference system over
    # rows {0, 1} has two equal rows, but on those rows u2's column 1
    # strictly beats column 0, so that pair is pruned before it is solved
    eqs = support_enumeration(zero_sum([[1, -1], [1, -1], [-1, 1]]))
    assert len(solved) == 4 and solved.count(None) == 0
    assert [(e.x.probs, e.y.probs, e.payoffs) for e in eqs] == [
        ((half, F(0), half), (half, half), (F(0), F(0))),
        ((F(0), half, half), (half, half), (F(0), F(0))),
    ]
    # the same u1 with a u2 under which neither column dominates on rows
    # {0, 1}: that singular pair survives the prune and is skipped
    solved.clear()
    eqs = support_enumeration(
        new_game([[1, -1], [1, -1], [-1, 1]], [[1, -1], [-1, 1], [1, -1]])
    )
    assert len(solved) == 5 and solved.count(None) == 1
    assert [(e.x.probs, e.y.probs, e.payoffs) for e in eqs] == [
        ((F(1), F(0), F(0)), (F(1), F(0)), (F(1), F(1))),
        ((F(0), half, half), (half, half), (F(0), F(0))),
    ]


@st.composite
def small_bimatrices(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=m, max_size=m
    )
    return draw(matrix), draw(matrix)


positive_scale = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
offset = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=80, deadline=None)
@given(small_bimatrices(), positive_scale, offset, positive_scale, offset)
def test_support_enumeration_invariant_under_positive_affine_maps(
    matrices, a1, b1, a2, b2
):
    # a positive affine map of one player's payoffs keeps every best
    # response, and maps each indifference system to an equivalent one
    u1, u2 = matrices
    base = support_enumeration(new_game(u1, u2))
    mapped = support_enumeration(
        new_game(
            [[a1 * v + b1 for v in row] for row in u1],
            [[a2 * v + b2 for v in row] for row in u2],
        )
    )
    assert mapped.strategy_set() == base.strategy_set()
    assert len(mapped) == len(base)
    for e, f in zip(base, mapped):
        assert (f.x, f.y) == (e.x, e.y)
        assert f.payoffs == (a1 * e.payoffs[0] + b1, a2 * e.payoffs[1] + b2)


@pytest.mark.parametrize("rows, cols", [(6, 6), (5, 6), (6, 5)], ids=["6x6", "5x6", "6x5"])
def test_support_enumeration_too_large(rows, cols):
    v1 = [[0] * cols for _ in range(rows)]
    with pytest.raises(TooLarge):
        support_enumeration(zero_sum(v1))


def test_lp_agrees_with_enumeration():
    rng = random.Random(41)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        v1 = [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(m)]
        g = zero_sum(v1)
        value = minimax_solve(g).value
        for eq in support_enumeration(g):
            assert eq.payoffs[0] == value


def test_enumeration_agrees_only_after_a_comparison():
    eqs = support_enumeration(MATCHING_PENNIES)
    assert enumeration_agrees(F(0), eqs) is True
    assert enumeration_agrees(F(1, 2), eqs) is False
    assert enumeration_agrees(F(0), EquilibriumSet(())) is None


def test_invariance_identity():
    assert equilibrium_invariance_check(
        MATCHING_PENNIES, AffineTransform(F(1), F(0))
    )


def test_invariance_disguised():
    t = detect_affine(DISGUISED).transform
    assert t == AffineTransform(F(2), F(3))
    assert equilibrium_invariance_check(DISGUISED, t)
    eqs = support_enumeration(DISGUISED)
    assert eqs.strategy_set() == {((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))}
    z = to_zero_sum(DISGUISED, t)
    # u1 payoff 0 reconstructs from v1 payoff -3: (-3 + 3) / 2 = 0
    assert support_enumeration(z).equilibria[0].payoffs[0] == -3
    assert support_enumeration(DISGUISED).equilibria[0].payoffs[0] == 0


def test_invariance_random_disguised_3x3():
    rng = random.Random(53)
    for _ in range(10):
        while True:
            core = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            if len({v for row in core for v in row}) > 1:
                break
        alpha = F(rng.randint(1, 16), rng.randint(1, 8))
        beta = F(rng.randint(-10, 10))
        u2 = [[-alpha * v + beta for v in row] for row in core]
        g = new_game(core, u2)
        t = detect_affine(g).transform
        assert t == AffineTransform(alpha, beta)
        assert equilibrium_invariance_check(g, t)


def test_invariance_compares_column_payoffs(monkeypatch):
    # doubling u2 keeps every equilibrium strategy and row payoff, so only
    # the column payoffs (3 against 6) tell the two sets apart
    t = detect_affine(DISGUISED).transform

    def doubling_u2(game, t):
        z = to_zero_sum(game, t)
        return new_game(z.u1, [[2 * v for v in row] for row in z.u2])

    assert equilibrium_invariance_check(DISGUISED, t)
    monkeypatch.setattr(solvers, "to_zero_sum", doubling_u2)
    assert not equilibrium_invariance_check(DISGUISED, t)


def test_minimax_json():
    d = minimax_solve(MATCHING_PENNIES).to_json_dict()
    assert d["value"] == "0/1"
    assert d["row_strategy"] == ["1/2", "1/2"]


def test_equilibrium_set_json():
    d = support_enumeration(MATCHING_PENNIES).to_json_dict()
    assert d["equilibria"][0]["payoffs"] == ["0/1", "0/1"]
    assert d["equilibria"][0]["col_strategy"] == ["1/2", "1/2"]
