"""The packed fixed-point basis guess against the unpacked pivot loop.

The reference below is ``_Guess`` as it was before its tableau was packed:
one Python integer per tableau entry, the same fixed-point pivot and pivot
tolerance, run by the same ``_Simplex`` loop.  Its pivot takes the inverse
``inv = 2**(2*B) // p`` of the pivot first and each ratio as
``ceil(f*inv / 2**B)``, the rule the packed pivot computes for a whole
column in one multiply.  On the LPs ``minimax_solve``
builds, and on the rounded copy of 40-bit entries that ``_guess_supports``
guesses on, the packed guess must make the same pivots and end on the same
basis with the same entries; no entry leaves int64 there, so the guard
never fires.  Where entries do leave int64 (entries of up to 31 bits, or
arbitrary entries for one pivot), the packed guess must raise
``OverflowError`` on exactly the pivot after which the list guess holds
an entry outside ``[-2**63, 2**63)``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from strictgames import solvers
from strictgames.errors import PivotBudgetExceeded
from strictgames.solvers import _Guess, _Simplex

INT64 = range(-(1 << 63), 1 << 63)


class ListGuess(_Simplex):
    """The fixed-point guess on a list of rows."""

    def __init__(self, a):
        super().__init__(a)
        # the exact value LP of a, in units of 2**-GUESS_BITS
        self.rows = [[e << solvers.GUESS_BITS for e in row] for row in self.rows]
        # the ratio test sees an entry at or below the tolerance as 0
        self.tolerance = 1 << solvers.GUESS_BITS // 2

    def _pivot(self, row, col, column):
        prow = self.rows[row]
        pivot = prow[col]
        bits = solvers.GUESS_BITS
        inverse = (1 << 2 * bits) // pivot
        for i, old in enumerate(self.rows):
            f = old[col]
            if i != row and f:  # a row with f == 0 is unchanged
                ratio = -(-(f * inverse) >> bits)
                new = [v + (-(ratio * w) >> bits) for v, w in zip(old, prow)]
                new[col] = -ratio
                self.rows[i] = new
        new = [w * inverse >> bits for w in prow]
        new[col] = inverse
        self.rows[row] = new
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]


def list_guess(a):
    guess = ListGuess(a)
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
    # 64-bit value regions leave these entries about 20 bits of room,
    # which is enough only because the pivot tolerance keeps the guess off
    # pivots that are rounding noise
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
    # the guess runs on a's rounded copy, entries of at most
    # 2**GUESS_DATA_BITS; a itself fits int64 only when its entries,
    # shifted up by GUESS_BITS, do
    shift = max(map(max, a)).bit_length() - solvers.GUESS_DATA_BITS
    assert_same_guess([[(e >> max(shift, 0)) + 1 for e in row] for row in a])
    if max(map(max, a)) << solvers.GUESS_BITS in INT64:
        assert_same_guess(a)
    else:
        with pytest.raises(OverflowError):
            _Guess(a)


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
    bits = draw(st.integers(1, 31))
    m = draw(st.integers(1, 12))
    guess = _Guess([[(1 << bits) - 1] * 2] * m)
    half = 1 << 63
    edges = st.sampled_from([0, 1, -1, half - 1, -half, half - 2, 1 - half])
    entry = st.one_of(edges, st.integers(-half, half - 1))
    return guess, [draw(entry) for _ in range(m + 1)]


@settings(max_examples=200, deadline=None)
@given(columns(), st.data())
def test_pack_round_trip(column, data):
    guess, entries = column
    assert guess._unpack(guess._pack(entries)) == entries
    # one step outside the value region raises instead of wrapping
    half = 1 << 63
    spot = data.draw(st.integers(0, len(entries) - 1))
    for outside in (half, -half - 1):
        with pytest.raises(OverflowError):
            guess._pack(entries[:spot] + [outside] + entries[spot + 1 :])


@pytest.mark.parametrize("m", [1, 2, 5])
def test_pack_round_trip_at_the_int64_ends(m):
    guess = _Guess([[1]] * m)
    for end in (INT64[0], INT64[-1]):
        for spot in range(m + 1):
            entries = [0] * spot + [end] + [-1] * (m - spot)
            assert guess._unpack(guess._pack(entries)) == entries
            entries[spot] += 1 if end > 0 else -1
            with pytest.raises(OverflowError):
                guess._pack(entries)


@pytest.mark.parametrize("bits", [1, 6, 31])
def test_fields_have_one_layout_whatever_the_data(bits):
    # field i sits at bit 128*i: GUESS_BITS zero bits, then the entry plus
    # 2**63 in a 64-bit value region, then zero guard bits
    b = solvers.GUESS_BITS
    guess = _Guess([[1, (1 << bits) - 1]])
    entries = [((1 << bits) - 1) << b, -1 << b]  # column 1, then the objective
    assert guess.cols[1] == sum((e + (1 << 63) << b) << 128 * i for i, e in enumerate(entries))
    assert guess._unpack(guess.cols[1]) == entries
    assert solvers._guess_supports([[1, (1 << bits) - 1]]) == ((0,), (0,))


@pytest.mark.parametrize("bits", [32, 40, 332])
def test_wide_data_is_guessed_on_its_rounded_copy(bits):
    # entries of 32 bits or more no longer fit int64 once shifted up by
    # GUESS_BITS, but the guess runs on their rounded copy
    with pytest.raises(OverflowError):
        _Guess([[1, (1 << bits) - 1]])
    assert solvers._guess_supports([[1, (1 << bits) - 1]]) == ((0,), (0,))


@st.composite
def wide_matrices(draw):
    """Matrices of entries of 28 to 31 bits, whose guess starts on entries
    of up to 63 bits: the fields hold them, but later pivots often do not."""
    m, n = draw(st.integers(8, 12)), draw(st.integers(8, 12))
    bits = draw(st.integers(28, 31))
    return [[draw(st.integers(1, (1 << bits) - 1)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=150, deadline=None)
@given(wide_matrices())
def test_guard_fires_exactly_when_a_list_entry_leaves_its_field(a):
    # the guard fires on more than half of these matrices: the packed guess
    # must raise on the first pivot after which an entry of the list guess
    # lies outside int64, and match it exactly until then
    reference, packed = list_guess(a), _Guess(a)
    assert all(v in INT64 for r in reference.rows for v in r)
    fits = []
    pivot = reference._pivot

    def checking_pivot(row, col, column):
        pivot(row, col, column)
        fits.append(all(v in INT64 for r in reference.rows for v in r))

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
        assert tableau(packed) == tableau(reference)


@st.composite
def single_pivots(draw):
    """A tableau of entries anywhere in the value region, its shape and a
    pivot ``(row, col)`` with a positive pivot."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    half = 1 << 63
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
# a pivot of 1 unit has inv = 2**64, which leaves int64 in field r only
@example(([[1, 0], [0, 0]], 0, 0))
# pivot and ratio 1.0 (B = 32): only column 1, the first one updated, leaves
# int64, and the guard, tested once after every column, must still see it
@example(([[1 << 32, 1 << 62, 1, 1 << 32], [1 << 32, 5 - (1 << 63), 0, 0], [-(1 << 32), 0, 0, 0]], 0, 0))
def test_one_pivot_matches_the_list_pivot_or_raises(case):
    # on arbitrary entries: the packed pivot gives the list pivot's entries
    # when they all fit int64, and raises OverflowError when one does not
    rows, row, col = case
    m, n = len(rows) - 1, len(rows[0]) - 1
    reference, packed = list_guess([[1] * n] * m), _Guess([[1] * n] * m)
    reference.rows = [list(r) for r in rows]
    packed.cols = [packed._pack(list(c)) for c in zip(*rows)]
    column = [r[col] for r in rows]
    reference._pivot(row, col, column)
    if all(v in INT64 for r in reference.rows for v in r):
        packed._pivot(row, col, column)
        assert tableau(packed) == reference.rows
    else:
        with pytest.raises(OverflowError):
            packed._pivot(row, col, column)


@pytest.mark.parametrize(
    "pivot, f",
    [(1 << 32, INT64[-1]), (1 << 32, INT64[0] + 1), (3, 1), (3, -1)],
    ids=["ratio-max", "ratio-min", "inverse-plus", "inverse-minus"],
)
@pytest.mark.parametrize("w", [INT64[-1], INT64[0]], ids=["w-max", "w-min"])
def test_the_largest_products_cannot_wrap_a_field(pivot, f, w):
    # f is stored and the pivot is at least 1 unit, so |f * inv| is at
    # most 2**127 and no field of the pivot column's 2**63*2**B - f*inv
    # wraps.  Every R field and every w fit int64 once that column passes
    # the guard, so |w * R| stays below 2**127 - 2**(64+B) and no field of
    # C - w*R wraps by a whole 2**128 onto a value that looks valid.  The
    # largest ratio (pivot 1.0, f at an int64 end) and the largest inverse
    # (pivot 3 units) times w at an int64 end leave int64 in the list
    # guess, and the packed guess raises on them
    bits = solvers.GUESS_BITS
    assert bits == 32
    rows = [[pivot, w], [f, 0], [0, 0]]
    reference, guess = list_guess([[1], [1]]), _Guess([[1], [1]])
    reference.rows = [list(r) for r in rows]
    column = [r[0] for r in rows]
    reference._pivot(0, 0, column)
    inverse = (1 << 2 * bits) // pivot
    assert abs(f * inverse) <= 1 << 127
    ratios = [-(-(f * inverse) >> bits), (1 << bits) - inverse]
    assert all(-ratio in INT64 for ratio in ratios)
    assert max(abs(w * ratio) for ratio in ratios) < (1 << 127) - (1 << 64 + bits)
    assert not all(v in INT64 for r in reference.rows for v in r)
    guess.cols = [guess._pack(list(c)) for c in zip(*rows)]
    with pytest.raises(OverflowError):
        guess._pivot(0, 0, column)
