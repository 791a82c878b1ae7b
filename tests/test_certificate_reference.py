"""The certificate against a two-solve reference, and the square solver.

The reference below works in exact ``Fraction`` arithmetic and shares no
linear algebra with the package: each player's bordered indifference
system on ``a[rows][cols]`` is solved on its own by Gauss-Jordan, the row
player's on ``-a`` transposed, and each is checked for positive weights,
best responses and extra ties.  On every input the certificate and the
reference must return the same strategies and value, or both None.

The certificate solves each player's system unbordered with
:func:`_solve_square`, fraction-free elimination: the column player's on
``a[rows][cols]``, the row player's on the column player's own positive
payoffs ``max(a) + 1 - a`` transposed.  A property checks the solver
against a ``Fraction`` Gauss-Jordan solve.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from strictgames import solvers
from strictgames.games import MixedStrategy
from strictgames.solvers import _certify, _guess_supports, _solve_square


def fraction_solve(matrix, b):
    """The solution of ``matrix x = b`` by Gauss-Jordan over ``Fraction``,
    or None when ``matrix`` is singular."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(matrix, b)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]


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
    assert outcome(_certify(a, rows, cols)) == outcome(reference_certify(a, rows, cols))


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
    x, y, value = _certify(a, (0, 1), (0, 1))
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
    calls = 0
    solve_square = solvers._solve_square

    def counting_solve_square(matrix, b):
        nonlocal calls
        calls += 1
        return solve_square(matrix, b)

    monkeypatch.setattr(solvers, "_solve_square", counting_solve_square)
    _certify(a, rows, cols)
    assert calls == solves


def assert_solves_like_fractions(matrix, b):
    """``_solve_square`` returns ``|det|`` and ``|det|`` times the
    ``Fraction`` solution, or None exactly when that solve finds the
    matrix singular."""
    expected = fraction_solve(matrix, b)
    solved = _solve_square(matrix, b)
    assert (solved is None) == (expected is None)
    if solved is not None:
        d, v = solved
        assert d == abs(fraction_det(matrix)) > 0
        assert [Fraction(e, d) for e in v] == expected


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 7))
    entry = st.integers(-20, 20)
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
    # the inverse
    n, inverse = len(matrix), fraction_inverse(matrix)
    for j in range(n):
        d, v = _solve_square(matrix, [int(i == j) for i in range(n)])
        assert d == abs(fraction_det(matrix))
        assert [Fraction(e, d) for e in v] == [row[j] for row in inverse]


@pytest.mark.parametrize(
    "matrix, b",
    [
        ([[0, 2], [3, 0]], [4, 9]),  # a zero leading pivot: rows 0 and 1 swap
        ([[0, 0, 1], [0, 2, 0], [3, 0, 0]], [1, 1, 1]),
        ([[1, 1, -1], [1, 1, 2], [3, -4, 1]], [1, 0, 0]),  # a zero second pivot
        ([[0, 1], [0, 2]], [1, 2]),  # no pivot in column 0: singular
        ([[1, 2, 3], [2, 4, 6], [1, 0, 1]], [1, 2, 3]),
    ],
)
def test_solve_square_swaps_past_a_zero_pivot(matrix, b):
    assert_solves_like_fractions(matrix, b)
