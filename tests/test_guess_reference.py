"""The packed fixed-point basis guess against the unpacked pivot loop.

The reference below is ``_Guess`` as it was before its tableau was packed:
one Python integer per tableau entry, the same fixed-point pivot and pivot
tolerance, run by the same ``_Simplex`` loop.  On the LPs ``minimax_solve``
builds, and on 40-bit entries, the packed guess must make the same pivots
and end on the same basis with the same entries; no entry leaves its field
there, so the guard never fires.  Where entries do leave their fields (narrowed fields,
or arbitrary entries for one pivot), the packed guess must raise
``OverflowError`` on exactly the pivot after which the list guess holds
an entry outside ``[-2**(F-1), 2**(F-1))``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from strictgames import solvers
from strictgames.errors import PivotBudgetExceeded
from strictgames.solvers import _Guess, _Simplex


class ListGuess(_Simplex):
    """The fixed-point guess on a list of rows."""

    def __init__(self, a, b, c):
        super().__init__(a, b, c)
        # the ratio test sees an entry at or below the tolerance as 0
        self.tolerance = 1 << solvers.GUESS_BITS // 2

    def _pivot(self, row, col, column):
        prow = self.rows[row]
        pivot = prow[col]
        bits = solvers.GUESS_BITS
        for i, old in enumerate(self.rows):
            f = old[col]
            if i != row and f:  # a row with f == 0 is unchanged
                ratio = (f << bits) // pivot
                new = [v + (-(ratio * w) >> bits) for v, w in zip(old, prow)]
                new[col] = -ratio
                self.rows[i] = new
        inverse = (1 << 2 * bits) // pivot
        new = [w * inverse >> bits for w in prow]
        new[col] = inverse
        self.rows[row] = new
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]


def list_guess(a):
    m, n, bits = len(a), len(a[0]), solvers.GUESS_BITS
    guess = ListGuess([[e << bits for e in row] for row in a], [1 << bits] * m, [1 << bits] * n)
    guess.line = [*map(sum, zip(*a)), *map(sum, a)]  # _Guess's pricing lines
    return guess


def run(guess):
    """The pivots ``guess.optimize()`` makes, as ``minimax_solve`` runs a
    guess, and how it ends: ``"optimal"`` or the type and message of what
    it raised."""
    pivots = []
    pivot = guess._pivot

    def recording_pivot(row, col, column):
        pivots.append((row, col))
        pivot(row, col, column)

    guess._pivot = recording_pivot
    try:
        guess.optimize()
        outcome = "optimal"
    except (ArithmeticError, PivotBudgetExceeded) as error:
        outcome = (type(error), str(error))
    return pivots, outcome


def tableau(guess):
    """Every entry, row by row, the objective last."""
    if isinstance(guess, ListGuess):
        return guess.rows
    return [list(row) for row in zip(*map(guess._unpack, guess.cols))]


def assert_same_guess(a):
    reference, packed = list_guess(a), _Guess(a)
    assert tableau(packed) == tableau(reference)
    # the list loop never raises OverflowError, so equal outcomes also
    # mean that the guard did not fire
    assert run(packed) == run(reference)
    assert packed.basis == reference.basis
    assert packed.nonbasic == reference.nonbasic
    assert tableau(packed) == tableau(reference)


@st.composite
def positive_matrices(draw):
    """The positive matrices ``minimax_solve`` hands to the LP: entries in
    ``[1, 2*bound + 1]`` for games with entries in ``[-bound, bound]``."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bound = draw(st.sampled_from((1, 2, 20)))
    entry = st.integers(1, 2 * bound + 1)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(positive_matrices())
def test_packed_guess_matches_the_list_guess(a):
    assert_same_guess(a)


@settings(max_examples=300, deadline=None)
@given(positive_matrices())
def test_the_fields_hold_every_entry_of_the_lps_minimax_solve_builds(a):
    # fields of 3*B bits plus the data's leave entries about B bits of
    # room, which is enough only because the pivot tolerance keeps the
    # guess off pivots that are rounding noise
    try:
        _Guess(a).optimize()
    except OverflowError:
        pytest.fail("a fixed-point entry left its field")
    except (ArithmeticError, PivotBudgetExceeded):
        pass  # another kind of failed guess; the certificate decides


@settings(max_examples=10, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(1, 1 << 40), min_size=n, max_size=n),
            min_size=1,
            max_size=8,
        )
    )
)
def test_packed_guess_matches_the_list_guess_on_40_bit_entries(a):
    assert_same_guess(a)


@pytest.mark.parametrize(
    "a",
    [
        [[1]],
        [[3, 3], [3, 3]],  # every ratio ties
        [[1, 3, 2], [3, 1, 2], [2, 2, 2]],
        [[(7 * i * j) % 5 + 1 for j in range(12)] for i in range(12)],
    ],
    ids=["1x1", "constant", "3x3-tie", "12x12"],
)
def test_packed_guess_matches_the_list_guess_on_fixed_games(a):
    assert_same_guess(a)


@st.composite
def columns(draw):
    bits = draw(st.integers(1, 41))
    m = draw(st.integers(1, 12))
    guess = _Guess([[(1 << bits) - 1] * 2] * m)
    half = 1 << guess.value_bits - 1
    edges = st.sampled_from([0, 1, -1, half - 1, -half, half - 2, 1 - half])
    entry = st.one_of(edges, st.integers(-half, half - 1))
    return guess, [draw(entry) for _ in range(m + 1)]


@settings(max_examples=200, deadline=None)
@given(columns(), st.data())
def test_pack_round_trip(column, data):
    guess, entries = column
    assert guess._unpack(guess._pack(entries)) == entries
    # one step outside the value region raises instead of wrapping
    half = 1 << guess.value_bits - 1
    spot = data.draw(st.integers(0, len(entries) - 1))
    for outside in (half, -half - 1):
        with pytest.raises(OverflowError):
            guess._pack(entries[:spot] + [outside] + entries[spot + 1 :])


@pytest.mark.parametrize("bits", [1, 6, 40])
def test_field_width_follows_the_data(bits):
    guess = _Guess([[1, (1 << bits) - 1]])
    width = 3 * solvers.GUESS_BITS + bits
    assert guess.width == width + -width % 8
    assert guess.value_bits == guess.width - solvers.GUESS_BITS - 8
    assert solvers._guess_supports([[1, (1 << bits) - 1]]) == ((0,), (0,))


@st.composite
def crowded_matrices(draw):
    m, n = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    return [[draw(st.integers(1, 5)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=150, deadline=None)
@given(crowded_matrices())
def test_guard_fires_exactly_when_a_list_entry_leaves_its_field(a):
    # 5 fraction bits instead of 32 narrow the fields to 24 bits, and the
    # guard fires on about a third of these games: the packed guess
    # must raise on the first pivot after which an entry of the list guess
    # lies outside [-2**(F-1), 2**(F-1)), and match it exactly until then.
    # When every entry is 1 the fields are 16 bits wide, too narrow for the
    # data itself, and building the columns raises
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "GUESS_BITS", 5)
        reference = list_guess(a)
        width = -(-(3 * 5 + max(map(max, a)).bit_length()) // 8) * 8
        half = 1 << width - 5 - 8 - 1
        if not all(-half <= v < half for r in reference.rows for v in r):
            with pytest.raises(OverflowError):
                _Guess(a)
            return
        packed = _Guess(a)
        assert 1 << packed.value_bits - 1 == half
        fits = []
        pivot = reference._pivot

        def checking_pivot(row, col, column):
            pivot(row, col, column)
            fits.append(all(-half <= v < half for r in reference.rows for v in r))

        reference._pivot = checking_pivot
        pivots, outcome = run(packed)
        expected_pivots, expected_outcome = run(reference)
        if outcome != "optimal" and outcome[0] is OverflowError:
            k = len(pivots)
            assert pivots == expected_pivots[:k]
            assert all(fits[: k - 1]) and not fits[k - 1]
        else:
            assert all(fits)
            assert (pivots, outcome) == (expected_pivots, expected_outcome)
            # the packed tableau is read at the narrowed width
            assert tableau(packed) == tableau(reference)


@st.composite
def single_pivots(draw):
    """A tableau of entries anywhere in the value region, its shape and a
    pivot ``(row, col)`` with a positive pivot."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    guess = _Guess([[1] * n] * m)
    half = 1 << guess.value_bits - 1
    entry = st.one_of(
        st.integers(-half, half - 1),
        st.integers(-(half >> 31), half >> 31),
        st.integers(-(1 << 40), 1 << 40),
        st.sampled_from([0, 1, -1, half - 1, -half]),
    )
    rows = [[draw(entry) for _ in range(n + 1)] for _ in range(m + 1)]
    row, col = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    rows[row][col] = draw(st.one_of(st.integers(1, 1 << 8), st.integers(1, half - 1)))
    return rows, row, col


@settings(max_examples=400, deadline=None)
@given(single_pivots())
def test_one_pivot_matches_the_list_pivot_or_raises(case):
    # on arbitrary entries, at the full width: the packed pivot gives the
    # list pivot's entries when they all fit their fields, and raises
    # OverflowError when one does not
    rows, row, col = case
    m, n = len(rows) - 1, len(rows[0]) - 1
    reference, packed = list_guess([[1] * n] * m), _Guess([[1] * n] * m)
    reference.rows = [list(r) for r in rows]
    packed.cols = [packed._pack(list(c)) for c in zip(*rows)]
    half = 1 << packed.value_bits - 1
    column = [r[col] for r in rows]
    reference._pivot(row, col, column)
    if all(-half <= v < half for r in reference.rows for v in r):
        packed._pivot(row, col, column)
        assert tableau(packed) == reference.rows
    else:
        with pytest.raises(OverflowError):
            packed._pivot(row, col, column)


def test_a_product_that_wraps_a_whole_field_raises():
    # pivoting on 1.0 at (0, 0) takes w * f == 2**W away from row 1's
    # right-hand side: that field wraps onto a value that looks valid, and
    # its borrow from the objective field vanishes in the bits the shift
    # drops, so only the bound on |w| * max|R| can see it
    guess = _Guess([[1], [1]])
    bits, width, value_bits = solvers.GUESS_BITS, guess.width, guess.value_bits
    f, w = 1 << value_bits - 2, 1 << width - value_bits + 2
    rows = [[1 << bits, w], [f, 0], [0, 0]]
    reference = list_guess([[1], [1]])
    reference.rows = [list(r) for r in rows]
    column = [r[0] for r in rows]
    reference._pivot(0, 0, column)
    assert reference.rows[1][1] == -(1 << width - bits)
    guess.cols = [guess._pack(list(c)) for c in zip(*rows)]
    with pytest.raises(OverflowError):
        guess._pivot(0, 0, column)
