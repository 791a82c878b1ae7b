"""The certificate against a two-solve reference, and the square solver.

The reference below works in exact ``Fraction`` arithmetic and shares no
linear algebra with the package: each player's bordered indifference
system on ``a[rows][cols]`` is solved on its own by Gauss-Jordan, the row
player's on ``-a`` transposed, and each is checked for positive weights,
best responses and extra ties.  On every input the certificate and the
reference must return the same strategies and value, or both None.
``tests/test_enumeration_reference.py`` argues why a bordered system on a
positive matrix accepts what the package's ``A y = d 1`` accepts, which
covers the column player.  The row player's system is bordered on
``-A^T``: negating the payoffs keeps its nonsingularity and weights and
negates its payoff ``w``, so ``x = -w A^-T 1``, positive weights on the
positive ``A`` force ``-w > 0``, and the same argument holds on ``A^T``
with the sign flipped; its check on column ``j``, ``-(x a)_j <= w``, is
the package's ``(x a)_j >= -w``.

The certificate eliminates ``A = a[rows][cols]`` once, fraction-free
(:func:`_eliminate`, called by ``_indifference``): the column player's
weights come from back-substitution, the row player's from
:func:`_solve_transposed`, which replays the same elimination on ``A``
transposed.  Properties check both read-outs against ``Fraction``
Gauss-Jordan solves (``tests/fraction_linalg.py``) of ``A`` and ``A^T``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from fraction_linalg import fraction_solve
from strictgames import solvers
from strictgames.detection import detect_affine, to_zero_sum
from strictgames.games import MixedStrategy
from strictgames.generators import Family, GenSpec, gen
from strictgames.solvers import (
    _back_substitute,
    _certify,
    _eliminate,
    _guess_supports,
    _solve_transposed,
    minimax_solve,
)


def fraction_inverse(matrix):
    """The inverse of a square matrix, one ``Fraction`` solve per column,
    or None when it is singular."""
    n = len(matrix)
    columns = [fraction_solve(matrix, [int(i == j) for i in range(n)]) for j in range(n)]
    return None if columns[0] is None else [list(row) for row in zip(*columns)]


def fraction_det(matrix):
    """The determinant of a square matrix by elimination over ``Fraction``."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p], det = rows[p], rows[c], -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return det


def reference_indifference(payoff, own, other):
    k = len(own)
    system = [[payoff[i][j] for j in other] + [-1] for i in own]
    solved = fraction_solve(system + [[1] * k + [0]], [0] * k + [1])
    if solved is None:
        return None
    *weights, value = solved
    if any(w <= 0 for w in weights):
        return None
    ties = 0
    for row in payoff:
        earned = sum(row[j] * w for j, w in zip(other, weights))
        if earned > value:
            return None
        ties += earned == value
    if ties > k:
        return None
    full = dict(zip(other, weights))
    return MixedStrategy([full.get(j, 0) for j in range(len(payoff[0]))]), value


def reference_certify(a, rows, cols):
    if len(rows) != len(cols):
        return None
    y = reference_indifference(a, rows, cols)
    if y is None:
        return None
    neg_at = [[-e for e in col] for col in zip(*a)]
    x = reference_indifference(neg_at, cols, rows)
    if x is None:
        return None
    return x[0], y[0], y[1]


def outcome(optimum):
    if optimum is None:
        return None
    x, y, value = optimum
    return x.probs, y.probs, value


def certificate(a, rows, cols):
    """:func:`_certify`'s integer answer as ``(x, y, value)``, as the
    reference gives it."""
    optimum = _certify(a, rows, cols)
    if optimum is None:
        return None
    x, y, d, s = optimum
    return MixedStrategy.from_weights(x), MixedStrategy.from_weights(y), Fraction(d, s)


@st.composite
def certificate_inputs(draw):
    """A positive matrix as ``minimax_solve`` builds it (entries in
    ``[1, 2*bound + 1]``) and supports: the guessed ones, or random ones,
    square or not, with duplicated rows and columns that make the bordered
    system singular."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bound = draw(st.sampled_from((1, 2, 20)))
    entry = st.integers(1, 2 * bound + 1)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        i, source = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        a[i] = list(a[source])
    if n > 1 and draw(st.booleans()):
        j, source = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in a:
            row[j] = row[source]
    kind = draw(st.sampled_from(["guessed", "square", "any"]))
    guessed = _guess_supports(a) if kind == "guessed" else None
    if guessed is not None:
        return a, *guessed
    k = draw(st.integers(1, min(m, n)))
    rows = draw(st.sets(st.integers(0, m - 1), min_size=k, max_size=k))
    size = k if kind == "square" else draw(st.integers(1, n))
    cols = draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size))
    return a, tuple(sorted(rows)), tuple(sorted(cols))


@settings(max_examples=500, deadline=None)
@given(certificate_inputs())
def test_one_solve_certificate_matches_the_two_solve_reference(case):
    a, rows, cols = case
    assert outcome(certificate(a, rows, cols)) == outcome(reference_certify(a, rows, cols))


def rejections(a, rows, cols):
    """Every reason, in exact ``Fraction`` arithmetic, why ``(rows, cols)``
    fails to certify the matrix game ``a``."""
    k = len(rows)
    inverse = fraction_inverse(
        [[a[i][j] for j in cols] + [-1] for i in rows] + [[1] * k + [0]]
    )
    if inverse is None:
        return {"singular"}
    y = [inverse[t][k] for t in range(k)]
    x = [-inverse[k][t] for t in range(k)]
    value = inverse[k][k]
    found = set()
    if min(y) <= 0:
        found.add("column weight")
    if min(x) <= 0:
        found.add("row weight")
    earned = [sum(row[j] * w for j, w in zip(cols, y)) for row in a]
    if max(earned) > value:
        found.add("row above the value")
    elif earned.count(value) > k:
        found.add("rows tie")
    conceded = [sum(col[i] * w for i, w in zip(rows, x)) for col in zip(*a)]
    if min(conceded) < value:
        found.add("column below the value")
    elif conceded.count(value) > k:
        found.add("columns tie")
    return found


@pytest.mark.parametrize(
    "a, rows, cols, reason",
    [
        ([[1, 1], [1, 1]], (0, 1), (0, 1), "singular"),
        ([[2, 2, 5], [4, 4, 1], [3, 3, 7]], (0, 1), (0, 1), "singular"),
        ([[2, 1], [2, 3]], (0, 1), (0, 1), "column weight"),
        ([[3, 1], [2, 2]], (0, 1), (0, 1), "row weight"),
        ([[2], [1]], (1,), (0,), "row above the value"),
        ([[1], [1]], (0,), (0,), "rows tie"),
        ([[1, 2]], (0,), (1,), "column below the value"),
        ([[1, 1]], (0,), (1,), "columns tie"),
    ],
)
def test_each_rejection(a, rows, cols, reason):
    assert rejections(a, rows, cols) == {reason}
    assert _certify(a, rows, cols) is None
    assert reference_certify(a, rows, cols) is None


def test_an_accepted_certificate():
    # (4/7, 3/7) against (4/7, 3/7, 0, 0) at value 5/7 + 3, on the
    # positive matrix of UNIQUE_2X4 in tests/test_solvers.py
    a = [[5, 2, 6, 4], [2, 6, 1, 5]]
    assert rejections(a, (0, 1), (0, 1)) == set()
    x, y, value = certificate(a, (0, 1), (0, 1))
    seven = Fraction(1, 7)
    assert (x.probs, y.probs, value) == (
        (4 * seven, 3 * seven),
        (4 * seven, 3 * seven, 0, 0),
        26 * seven,
    )
    assert outcome(reference_certify(a, (0, 1), (0, 1))) == outcome((x, y, value))


def test_a_singular_support_with_a_nonsingular_border():
    # the bordered system of [[1, 2], [2, 4]] is nonsingular, with value 0
    # and weights (2, -1); the square support itself is singular
    a, rows, cols = [[1, 2], [2, 4]], (0, 1), (0, 1)
    assert fraction_inverse([[1, 2, -1], [2, 4, -1], [1, 1, 0]]) is not None
    assert fraction_inverse(a) is None
    assert _certify(a, rows, cols) is None
    assert reference_certify(a, rows, cols) is None


UNIQUE = [[5, 2, 6, 4], [2, 6, 1, 5]]


@pytest.mark.parametrize(
    "a, rows, cols, eliminations",
    [
        (UNIQUE, (0, 1), (0, 1), 1),
        (UNIQUE, (0,), (2,), 1),
        ([[1, 2], [2, 4]], (0, 1), (0, 1), 1),  # a[rows][cols] is singular
        (UNIQUE, (0, 1), (0, 1, 2), 0),
        (UNIQUE, (1,), (0, 3), 0),
        ([[1], [1]], (0,), (0,), 1),  # rows tie: rejected before x is read
    ],
)
def test_the_certificate_eliminates_once(monkeypatch, a, rows, cols, eliminations):
    calls = 0
    eliminate = solvers._eliminate

    def counting_eliminate(matrix, b):
        nonlocal calls
        calls += 1
        return eliminate(matrix, b)

    monkeypatch.setattr(solvers, "_eliminate", counting_eliminate)
    _certify(a, rows, cols)
    assert calls == eliminations


@pytest.mark.parametrize(
    "a, rows, cols, solves",
    [
        (UNIQUE, (0, 1), (0, 1), 2),
        (UNIQUE, (0,), (2,), 2),
        ([[1, 2], [2, 4]], (0, 1), (0, 1), 1),  # a[rows][cols] is singular
        (UNIQUE, (0, 1), (0, 1, 2), 0),
        (UNIQUE, (1,), (0, 3), 0),
        ([[1], [1]], (0,), (0,), 1),  # rows tie: rejected before x is solved
    ],
)
def test_the_certificate_solves_one_system_per_player(monkeypatch, a, rows, cols, solves):
    # the column player's system is solved by the elimination and its
    # back-substitution, the row player's by the transposed read-out of
    # that same elimination
    calls = {"_eliminate": 0, "_solve_transposed": 0}

    def counting(name):
        solve = getattr(solvers, name)

        def counted(*args):
            calls[name] += 1
            return solve(*args)

        monkeypatch.setattr(solvers, name, counted)

    counting("_eliminate")
    counting("_solve_transposed")
    _certify(a, rows, cols)
    assert calls["_eliminate"] <= 1 and calls["_solve_transposed"] <= 1
    assert calls["_eliminate"] + calls["_solve_transposed"] == solves


def transpose(matrix):
    return [list(col) for col in zip(*matrix)]


def solve_square(matrix, b):
    """``(|det|, |det| matrix^-1 b)`` by :func:`_eliminate` and
    :func:`_back_substitute`, as the package solves a support system, or
    None when the elimination finds ``matrix`` singular."""
    eliminated = _eliminate(matrix, b)
    return None if eliminated is None else _back_substitute(eliminated[0])


def assert_solves_like_fractions(matrix, b):
    """:func:`solve_square` returns ``|det|`` and ``|det|`` times the
    ``Fraction`` solution, or None exactly when that solve finds the
    matrix singular; the transposed read-out of the same elimination
    returns ``|det|`` times the ``Fraction`` solution of ``matrix^T x =
    b``."""
    expected = fraction_solve(matrix, b)
    solved = solve_square(matrix, b)
    assert (solved is None) == (expected is None)
    eliminated = _eliminate(matrix, b)
    assert (eliminated is None) == (fraction_solve(transpose(matrix), b) is None)
    if solved is not None:
        d, v = solved
        assert d == abs(fraction_det(matrix)) > 0
        assert [Fraction(e, d) for e in v] == expected
        x = _solve_transposed(*eliminated, b)
        assert [Fraction(e, d) for e in x] == fraction_solve(transpose(matrix), b)


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 7))
    # about half the entries 0, so that elimination often meets a zero
    # pivot and takes a later row, or finds the matrix singular
    entry = st.just(0) | st.integers(-20, 20)
    return [[draw(entry) for _ in range(n)] for _ in range(n)], [draw(entry) for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_solve_square_matches_a_fraction_solve(system):
    assert_solves_like_fractions(*system)


@pytest.mark.parametrize(
    "matrix",
    [
        [[-3]],
        [[0, 1], [-1, 0]],
        [[1, 2], [3, 4]],
        [[2, 1, -1], [-3, -1, 2], [-2, 1, 2]],
        [[1, 1, -1], [1, 1, 2], [3, -4, 1]],
    ],
)
def test_the_inverse_survives_a_negative_divisor(matrix):
    # elimination ends on a negative pivot for each of these matrices; the
    # solves against the unit vectors are still |det| times the columns of
    # the inverse, and the transposed read-outs |det| times its rows
    n, inverse = len(matrix), fraction_inverse(matrix)
    for j in range(n):
        unit = [int(i == j) for i in range(n)]
        d, v = solve_square(matrix, unit)
        assert d == abs(fraction_det(matrix))
        assert [Fraction(e, d) for e in v] == [row[j] for row in inverse]
        x = _solve_transposed(*_eliminate(matrix, [1] * n), unit)
        assert [Fraction(e, d) for e in x] == inverse[j]


@pytest.mark.parametrize(
    "matrix, b",
    [
        ([[0, 2], [3, 0]], [4, 9]),  # a zero leading pivot: row 1 pivots first
        ([[0, 0, 1], [0, 2, 0], [3, 0, 0]], [1, 1, 1]),
        ([[1, 1, -1], [1, 1, 2], [3, -4, 1]], [1, 0, 0]),  # a zero second pivot
        ([[0, 1], [0, 2]], [1, 2]),  # no pivot in column 0: singular
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [1, 2, 3]),
    ],
)
def test_solve_square_swaps_past_a_zero_pivot(matrix, b):
    assert_solves_like_fractions(matrix, b)


def test_the_transposed_read_out_of_a_59x59_support():
    # the 100x100 disguised game of seed 1: its guessed supports are
    # 59x59, and the transposed read-out of the certificate's elimination
    # is a separate elimination of A^T's solution
    game = gen(GenSpec(Family.DISGUISED_ZERO_SUM, 100, 100, 1))
    certified = []
    certify = solvers._certify

    def recording_certify(a, rows, cols):
        certified.append((a, rows, cols, certify(a, rows, cols)))
        return certified[-1][-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_certify", recording_certify)
        minimax_solve(to_zero_sum(game, detect_affine(game).transform))
    ((a, rows, cols, optimum),) = certified
    assert len(rows) == len(cols) == 59 and optimum is not None
    square = [[a[i][j] for j in cols] for i in rows]
    ones = [1] * 59
    d, x = solve_square(transpose(square), ones)
    assert _solve_transposed(*_eliminate(square, ones), ones) == x
    assert optimum[0] == solvers._spread(rows, x, len(a))
    assert solve_square(square, ones)[0] == d
