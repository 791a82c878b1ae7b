"""Pruned support enumeration against the unpruned loop.

The reference below is ``support_enumeration`` as it was before pruning:
every equal-size support pair, in the order ``k``, then row support, then
column support, goes through both indifference systems.  Pruning skips
only pairs that hold a conditionally dominated action, which the
best-response check rejects anyway, so the two must return the same
equilibria in the same order, degenerate games included.

The reference shares no linear algebra with the package: each system is
bordered, ``[[payoff[own][other], -1], [1...1, 0]]`` times the weights and
the payoff equal to ``e_last``, on the unshifted payoffs, and solved by
Gauss-Jordan over ``Fraction``.

Why the two accept the same candidates.  As the weights sum to 1, a
positive affine map of the payoffs keeps the bordered system's
nonsingularity and weights and maps its payoff alike, so it may be posed
on the package's positive class ``A``.  There ``M = [[A, -1], [1...1,
0]]`` is nonsingular with ``v != 0`` exactly when ``A`` is nonsingular and
``s = sum(A^-1 1) != 0``, and then its weights are ``A^-1 1 / s``: a null
vector of ``A`` summing to 1 solves ``M`` with ``v = 0``, one summing to 0
is a null vector of ``M`` too, and with ``A`` nonsingular ``s`` is ``M``'s
Schur complement.  Positive payoffs and positive weights make ``v > 0``
and ``s > 0``, so each side's accepted weights are the other's times a
positive number, and the best-response checks do not depend on the scale.
"""

from fractions import Fraction
from itertools import combinations
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_linalg import fraction_solve
from strictgames import solvers
from strictgames.games import MixedStrategy, new_game
from strictgames.solvers import Equilibrium, EquilibriumSet, support_enumeration


def reference_indifference(payoff, den, own, other):
    """The opponent's strategy and the owner's payoff, ``payoff / den``,
    from the bordered system; None when it is singular, a weight is not
    positive or some own action earns more."""
    k = len(own)
    system = [[payoff[i][j] for j in other] + [-1] for i in own] + [[1] * k + [0]]
    solved = fraction_solve(system, [0] * k + [1])
    if solved is None:
        return None
    *weights, value = solved
    if min(weights) <= 0:
        return None
    full = dict(zip(other, weights))
    probs = [full.get(j, 0) for j in range(len(payoff[0]))]
    if any(sum(map(mul, row, probs)) > value for row in payoff):
        return None
    return MixedStrategy(probs), value / den


def reference_enumeration(game):
    m, n = game.rows, game.cols
    v2t = list(zip(*game.num2))
    found = []
    for k in range(1, min(m, n) + 1):
        for rows_sup in combinations(range(m), k):
            for cols_sup in combinations(range(n), k):
                y = reference_indifference(game.num1, game.den1, rows_sup, cols_sup)
                if y is None:
                    continue
                x = reference_indifference(v2t, game.den2, cols_sup, rows_sup)
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

    def counting(solve):
        def counted(matrix, b):
            nonlocal calls
            calls += 1
            return solve(matrix, b)

        return counted

    monkeypatch.setattr(solvers, "_eliminate", counting(solvers._eliminate))
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
    monkeypatch.setitem(globals(), "fraction_solve", counting(fraction_solve))
    assert reference_enumeration(game).to_json_dict() == eqs.to_json_dict()
    assert calls == 256
