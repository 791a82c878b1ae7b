"""Pruned support enumeration against the unpruned loop.

The reference below is ``support_enumeration`` as it was before pruning:
every equal-size support pair, in the order ``k``, then row support, then
column support, goes through both indifference systems.  Pruning skips
only pairs that hold a conditionally dominated action, which the
best-response check rejects anyway, so the two must return the same
equilibria in the same order, degenerate games included.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from strictgames import solvers
from strictgames.games import new_game
from strictgames.solvers import (
    Equilibrium,
    EquilibriumSet,
    _indifference,
    support_enumeration,
)


def reference_enumeration(game):
    m, n = game.rows, game.cols
    v2t = list(zip(*game.num2))
    found = []
    for k in range(1, min(m, n) + 1):
        for rows_sup in combinations(range(m), k):
            for cols_sup in combinations(range(n), k):
                y = _indifference(game.num1, game.den1, rows_sup, cols_sup)
                if y is None:
                    continue
                x = _indifference(v2t, game.den2, cols_sup, rows_sup)
                if x is None:
                    continue
                found.append(Equilibrium(x[0], y[0], (y[1], x[1])))
    return EquilibriumSet(tuple(found))


ENTRIES = {
    "bound 1": st.integers(-1, 1),
    "bound 2": st.integers(-2, 2),
    "bound 20": st.integers(-20, 20),
    "rational": st.fractions(min_value=-6, max_value=6, max_denominator=6),
}


@st.composite
def games(draw):
    shape = draw(st.sampled_from(["mxn", "1xn", "nx1"]))
    m = 1 if shape == "1xn" else draw(st.integers(1, 5))
    n = 1 if shape == "nx1" else draw(st.integers(1, 5))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]

    def matrix():
        return [[draw(entry) for _ in range(n)] for _ in range(m)]

    u1 = matrix()
    u2 = [[-v for v in row] for row in u1] if draw(st.booleans()) else matrix()
    # constant rows of u1 and constant columns of u2 tie an action with
    # itself on every opponent action
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        u1[i] = [draw(entry)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        level = draw(entry)
        for row in u2:
            row[j] = level
    return new_game(u1, u2)


@settings(max_examples=400, deadline=None)
@given(games())
def test_pruned_enumeration_matches_reference(game):
    expected = reference_enumeration(game).to_json_dict()
    assert support_enumeration(game).to_json_dict() == expected


def test_pruned_enumeration_matches_reference_on_a_constant_game():
    game = new_game([[Fraction(3, 2)] * 5] * 5, [[-4] * 5] * 5)
    expected = reference_enumeration(game).to_json_dict()
    assert len(expected["equilibria"]) == 25
    assert support_enumeration(game).to_json_dict() == expected


def test_pruning_solves_only_undominated_pairs(monkeypatch):
    # row 4 pays u1 strictly more than every other row on every column, and
    # column 3 pays u2 strictly more than every other column on every row:
    # only the pair ({4}, {3}) holds no dominated action, and its two
    # systems are the only ones solved; unpruned, all 251 pairs are tried
    # and 256 systems solved
    u1 = [[j - i for j in range(5)] for i in range(4)] + [[10] * 5]
    u2 = [[(i * j) % 3 for j in range(5)] for i in range(5)]
    for row in u2:
        row[3] = 10
    game = new_game(u1, u2)
    calls = 0
    solve_square = solvers._solve_square

    def counting_solve_square(a, b):
        nonlocal calls
        calls += 1
        return solve_square(a, b)

    monkeypatch.setattr(solvers, "_solve_square", counting_solve_square)
    eqs = support_enumeration(game)
    assert calls == 2
    assert [(e.x.probs, e.y.probs, e.payoffs) for e in eqs] == [
        (
            tuple(Fraction(i == 4) for i in range(5)),
            tuple(Fraction(j == 3) for j in range(5)),
            (Fraction(10), Fraction(10)),
        )
    ]
    calls = 0
    assert reference_enumeration(game).to_json_dict() == eqs.to_json_dict()
    assert calls == 256
