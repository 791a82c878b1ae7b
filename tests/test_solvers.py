import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strictgames import solvers
from strictgames.detection import AffineTransform, detect_affine, to_zero_sum
from strictgames.errors import FormatError, NotZeroSum, PivotBudgetExceeded, TooLarge
from strictgames.games import BimatrixGame, MixedStrategy, new_game
from strictgames.generators import Family, GenSpec, disguise, gen
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


def test_minimax_zero_sum_is_the_certificate_one_zero():
    # zero-sum means detect_affine certifies (1, 0), constant games included
    for game, value in ((MATCHING_PENNIES, 0), (new_game([[7]], [[-7]]), 7)):
        assert detect_affine(game).transform == AffineTransform(1, 0)
        assert minimax_solve(game).value == value
    # adversarial with alpha = 2, and constant with beta = 1: not zero-sum
    assert detect_affine(DISGUISED).transform == AffineTransform(2, 3)
    for game in (DISGUISED, new_game([[7]], [[-6]])):
        with pytest.raises(NotZeroSum):
            minimax_solve(game)


@st.composite
def near_zero_sum_games(draw):
    """Games up to 4x4 whose u2 is -u1, another affine image of u1, or
    independent, over drawn denominators, optionally with one cell nudged."""
    v1, v2 = draw(small_bimatrices())
    den = draw(st.integers(1, 6))
    u1 = [[F(v, den) for v in row] for row in v1]
    t = draw(st.sampled_from([(1, 0), (1, 0), (1, F(1, 3)), (2, 0), (F(1, 2), 0), None]))
    if t is None:
        u2 = [[F(v, draw(st.integers(1, 6))) for v in row] for row in v2]
    else:
        u2 = [[-t[0] * v + t[1] for v in row] for row in u1]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(u1) - 1)), draw(st.integers(0, len(u1[0]) - 1))
        u2[i][j] += F(1, draw(st.integers(1, 6)))
    return new_game(u1, u2)


@settings(max_examples=200, deadline=None)
@given(near_zero_sum_games())
def test_minimax_zero_sum_gate_agrees_with_the_affine_certificate(game):
    # the gate compares the stored integers; detect_affine fits the transform
    try:
        minimax_solve(game)
    except NotZeroSum:
        accepted = False
    else:
        accepted = True
    assert accepted is (detect_affine(game).transform == AffineTransform(1, 0))


def test_minimax_game_with_a_negative_denominator_cannot_be_built():
    # with den1 = -1 this is the zero-sum game below, of value -1; the LP and
    # its re-check assume a positive denominator and returned -3 for it
    with pytest.raises(FormatError):
        BimatrixGame(((-2, 1), (3, 3)), -1, ((-2, 1), (3, 3)), 1)
    assert minimax_solve(new_game([[2, -1], [-3, -3]], [[-2, 1], [3, 3]])).value == -1


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
# One optimum, (4/7, 3/7) against (4/7, 3/7, 0, 0), strictly complementary:
# the certificate accepts the guessed supports.
UNIQUE_2X4 = [[2, -1, 3, 1], [-1, 3, -2, 2]]


def exact_path(mp):
    """Send every LP of :func:`minimax_solve` to the exact simplex: the
    guess finds no basis, so there is nothing to certify."""
    mp.setattr(solvers, "_guess_supports", lambda a: None)


def solve_exactly(game):
    with pytest.MonkeyPatch.context() as mp:
        exact_path(mp)
        return minimax_solve(game)


def solve_recording_certificate(game):
    """``minimax_solve(game)`` and whether the certificate accepted a guess."""
    accepted = []
    certify = solvers._certify

    def recording_certify(a, rows, cols):
        optimum = certify(a, rows, cols)
        accepted.append(optimum is not None)
        return optimum

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_certify", recording_certify)
        solution = minimax_solve(game)
    return solution, accepted == [True]


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
    exact_path(monkeypatch)
    rules, degenerate = [], []
    entering, pivot = solvers._Simplex._entering, solvers._Simplex._pivot

    def recording_entering(self, bland):
        rules.append(bland)
        col = entering(self, bland)
        costs = self.rows[-1][:-1]
        if col is not None:
            # Dantzig enters a most negative cost, Bland the smallest label
            candidates = [lab for lab, c in zip(self.nonbasic, costs) if c < 0]
            if bland:
                assert self.nonbasic[col] == min(candidates)
            else:
                assert costs[col] == min(costs)
        return col

    def recording_pivot(self, row, col, column):
        degenerate.append(self.rows[row][-1] == 0)
        pivot(self, row, col, column)

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


def test_minimax_pivot_budget_stops_a_corrupted_tableau(monkeypatch):
    # flipping the sign of the entering column's new objective entry keeps
    # that column's reduced cost negative, so the simplex would pivot on it
    # forever; the budget turns that into a typed error
    pivot, pivots = solvers._Simplex._pivot, []

    def sign_flipping_pivot(self, row, col, column):
        pivot(self, row, col, column)
        self.rows[-1][col] = -self.rows[-1][col]
        pivots.append(col)

    monkeypatch.setattr(solvers._Simplex, "_pivot", sign_flipping_pivot)
    exact_path(monkeypatch)
    with pytest.raises(PivotBudgetExceeded, match="after 300 pivots on a 2x4 LP"):
        minimax_solve(zero_sum(NON_UNIQUE))
    assert len(pivots) == solvers.PIVOTS_PER_DIMENSION * (2 + 4)


def test_guess_pivot_budget_falls_back_to_the_exact_simplex(monkeypatch):
    # a corrupted fixed-point loop: its budget stops it after the same 300
    # pivots, and the exact simplex answers instead.  Restoring the
    # objective row after each pivot keeps the reduced costs as they were,
    # so a column with a negative one re-enters forever; flipping signs as
    # above would instead grow the rounded entries past their packed
    # fields, and the guard would stop the guess first
    exact = solve_exactly(zero_sum(UNIQUE_2X4))
    pivot, pivots = solvers._Guess._pivot, []

    def objective_freezing_pivot(self, row, col, column):
        objective = self._objective()
        pivot(self, row, col, column)
        # the objective is the last field of each packed column
        for j, packed in enumerate(self.cols):
            entries = self._unpack(packed)
            entries[-1] = objective[j]
            self.cols[j] = self._pack(entries)
        pivots.append(col)

    monkeypatch.setattr(solvers._Guess, "_pivot", objective_freezing_pivot)
    solution, certified = solve_recording_certificate(zero_sum(UNIQUE_2X4))
    assert len(pivots) == solvers.PIVOTS_PER_DIMENSION * (2 + 4)
    assert not certified
    assert solution.to_json_dict() == exact.to_json_dict()


@st.composite
def bounded_matrices(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bound = draw(st.sampled_from((20, 2)))
    entry = st.integers(-bound, bound)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=60, deadline=None)
@given(bounded_matrices())
def test_certified_optimum_is_the_exact_simplex_optimum(v1):
    g = zero_sum(v1)
    solution, certified = solve_recording_certificate(g)
    if certified:
        assert solution.to_json_dict() == solve_exactly(g).to_json_dict()
    if len(v1) <= solvers.MAX_ENUM_DIM and len(v1[0]) <= solvers.MAX_ENUM_DIM:
        assert enumeration_agrees(solution.value, support_enumeration(g)) is not False


@pytest.mark.parametrize("bound", [20, 2])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_certificate_accepts_generated_disguised_games(bound, seed):
    # generated disguised games have one optimum, and the guess finds its
    # supports, so the exact simplex is not needed
    game = gen(GenSpec(Family.DISGUISED_ZERO_SUM, 24, 24, seed, bound))
    zero = to_zero_sum(game, detect_affine(game).transform)
    solution, certified = solve_recording_certificate(zero)
    assert certified
    assert solution.to_json_dict() == solve_exactly(zero).to_json_dict()


def test_the_guess_certifies_every_lp_of_a_solve_lp_like_pool(monkeypatch):
    # 60 disguised games of the benchmark's sizes and value bounds.  A
    # guess that certifies less often is silent: the exact simplex then
    # gives the same answer, so only the count of exact builds shows it
    builds = []
    init = solvers._Simplex.__init__

    def counted(self, a):
        builds.append(len(a))
        init(self, a)

    monkeypatch.setattr(solvers._Simplex, "__init__", counted)
    for k in range(60):
        n, bound = (24, 32, 40)[k % 3], (20, 2)[k // 3 % 2]
        game = gen(GenSpec(Family.DISGUISED_ZERO_SUM, n, n, k, bound))
        minimax_solve(to_zero_sum(game, detect_affine(game).transform))
    assert builds == []


@pytest.mark.parametrize("side", ["row", "column"])
def test_the_final_check_rejects_a_certified_answer_that_is_not_optimal(monkeypatch, side):
    # rock-paper-scissors has one optimum, uniform on both sides.  Moving
    # one player's weight from their first action onto their second, which
    # loses to the third, keeps the value and a plausible shape; the
    # final re-check on u1 must refuse it
    rps = zero_sum([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    certify = solvers._certify

    def moved(a, rows, cols):
        x, y, d, s = certify(a, rows, cols)
        w = x if side == "row" else y
        w[1], w[0] = w[0] + w[1], 0
        return x, y, d, s

    monkeypatch.setattr(solvers, "_certify", moved)
    with pytest.raises(AssertionError, match=f"{side} guarantee certificate failed"):
        minimax_solve(rps)


def test_pivot_tolerance_certifies_a_tie_heavy_game():
    # at value bound 1 many tableau entries are truly 0; without a pivot
    # tolerance the guess pivoted on one that rounding had left 17 units
    # above 0, the certificate rejected the basis it ended on and the
    # exact simplex answered
    game = gen(GenSpec(Family.DISGUISED_ZERO_SUM, 60, 60, 1, 1))
    zero = to_zero_sum(game, detect_affine(game).transform)
    solution, certified = solve_recording_certificate(zero)
    assert certified
    assert solution.to_json_dict() == solve_exactly(zero).to_json_dict()


def test_pricing_by_line_makes_fewer_guess_pivots_than_dantzig(monkeypatch):
    # the guess prices each reduced cost per unit of its variable's line of
    # the LP matrix; with every line set to 1 it is plain Dantzig, which
    # makes more pivots on these games.  The path only picks the supports
    # the certificate tests, so every output is the exact simplex's
    specs = [(40, seed, bound) for bound in (20, 2) for seed in (1, 2, 3)]
    games = [gen(GenSpec(Family.DISGUISED_ZERO_SUM, n, n, s, b)) for n, s, b in specs]
    games.append(gen(GenSpec(Family.DISGUISED_ZERO_SUM, 60, 60, 1, 1)))
    zeros = [to_zero_sum(game, detect_affine(game).transform) for game in games]
    pivot, pivots = solvers._Guess._pivot, []

    def counting_pivot(self, row, col, column):
        pivots.append(col)
        pivot(self, row, col, column)

    monkeypatch.setattr(solvers._Guess, "_pivot", counting_pivot)
    for zero in zeros:
        assert minimax_solve(zero).to_json_dict() == solve_exactly(zero).to_json_dict()
    priced = len(pivots)
    init = solvers._Guess.__init__

    def dantzig_init(self, a):
        init(self, a)
        self.line = [1] * len(self.line)

    monkeypatch.setattr(solvers._Guess, "__init__", dantzig_init)
    pivots.clear()
    for zero in zeros:
        minimax_solve(zero)
    assert 0 < priced < len(pivots)


@pytest.mark.parametrize(
    "v1",
    [
        [[1, -1, -1], [-1, 1, 1]],  # matching pennies, a column duplicated
        [[4, 4], [4, 4]],
        NON_UNIQUE,
    ],
    ids=["duplicated-column", "constant", "segment"],
)
def test_non_unique_optimum_falls_back(v1):
    solution, certified = solve_recording_certificate(zero_sum(v1))
    assert not certified
    assert solution.to_json_dict() == solve_exactly(zero_sum(v1)).to_json_dict()


@pytest.mark.parametrize("supports", [((0, 1), (0, 1, 2)), ((0, 1), (0,))])
def test_non_square_support_falls_back(monkeypatch, supports):
    g = zero_sum(UNIQUE_2X4)
    exact = solve_exactly(g)
    monkeypatch.setattr(solvers, "_guess_supports", lambda a: supports)
    solution, certified = solve_recording_certificate(g)
    assert not certified
    assert solution.to_json_dict() == exact.to_json_dict()


def test_corrupted_guess_falls_back(monkeypatch):
    # rock-paper-scissors has one optimum, on every row and column; zeroing
    # the objective row after the first pivot ends the guess on a 1x1
    # support, which the certificate rejects
    rps = zero_sum([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    solution, certified = solve_recording_certificate(rps)
    assert certified
    exact = solve_exactly(rps)
    assert solution.to_json_dict() == exact.to_json_dict()
    pivot, guesses = solvers._Guess._pivot, []
    guess_supports = solvers._guess_supports

    def stopping_pivot(self, row, col, column):
        pivot(self, row, col, column)
        # the objective is the last field of each packed column
        for j, packed in enumerate(self.cols):
            entries = self._unpack(packed)
            entries[-1] = 0
            self.cols[j] = self._pack(entries)

    def recording_guess(a):
        supports = guess_supports(a)
        guesses.append(supports)
        return supports

    monkeypatch.setattr(solvers._Guess, "_pivot", stopping_pivot)
    monkeypatch.setattr(solvers, "_guess_supports", recording_guess)
    solution, certified = solve_recording_certificate(rps)
    assert [len(rows) for rows, cols in guesses] == [1]
    assert not certified
    assert solution.to_json_dict() == exact.to_json_dict()


def test_guard_overflow_falls_back_to_the_exact_simplex(monkeypatch):
    # this 10x10 game's LP matrix has 41-bit entries.  Rounded to 12 bits
    # its guess certifies; rounded to 30, its starting entries have up to
    # 62 bits, an entry outgrows int64 mid-run and the guard raises, so
    # the exact simplex answers
    rng = random.Random(0)
    g = zero_sum([[rng.randint(-(1 << 40), 1 << 40) for _ in range(10)] for _ in range(10)])
    assert max(map(max, lp_matrix(g))).bit_length() == 41
    exact = solve_exactly(g)
    solution, certified = solve_recording_certificate(g)
    assert certified
    assert solution.to_json_dict() == exact.to_json_dict()
    monkeypatch.setattr(solvers, "GUESS_DATA_BITS", 30)
    pivot, raised, guesses = solvers._Guess._pivot, [], []
    guess_supports = solvers._guess_supports

    def watching_pivot(self, row, col, column):
        try:
            pivot(self, row, col, column)
        except OverflowError:
            raised.append((row, col))
            raise

    def recording_guess(a):
        supports = guess_supports(a)
        guesses.append(supports)
        return supports

    monkeypatch.setattr(solvers._Guess, "_pivot", watching_pivot)
    monkeypatch.setattr(solvers, "_guess_supports", recording_guess)
    solution, certified = solve_recording_certificate(g)
    assert len(raised) == 1
    assert guesses == [None]
    assert not certified
    assert solution.to_json_dict() == exact.to_json_dict()


def test_false_unbounded_column_falls_back_to_the_exact_simplex(monkeypatch):
    # entries near 2**20 leave some true tableau entries tiny once the
    # large columns are basic: after three pivots the entering column's
    # only positive entry is 12546 units of 2**-32, below the pivot
    # tolerance of 2**16 units, so the ratio test finds no candidate and
    # the guess stops on a column that only its fixed point made unbounded.
    # The guess runs on these entries only when GUESS_DATA_BITS is 20 or
    # more; at its value, 12, the guess runs on a rounded copy and its
    # supports certify
    v1 = [
        [277795, 987922, 87047, 1023031],
        [757363, 482512, 346414, 972253],
        [701546, 1047742, 531819, 266345],
        [1031391, 687688, 515634, 364647],
    ]
    # the least entry is 87047 and the differences from it have gcd 1
    a = [[entry - 87046 for entry in row] for row in v1]
    assert lp_matrix(zero_sum(v1)) == a
    with pytest.raises(ArithmeticError, match="unbounded linear program"):
        solvers._Guess(a).optimize()
    answer = {
        "value": "62501312924/129471",
        "row_strategy": ["0/1", "50329/258942", "0/1", "208613/258942"],
        "col_strategy": ["0/1", "0/1", "303803/388413", "84610/388413"],
    }
    assert solve_exactly(zero_sum(v1)).to_json_dict() == answer
    solution, certified = solve_recording_certificate(zero_sum(v1))
    assert certified
    assert solution.to_json_dict() == answer
    monkeypatch.setattr(solvers, "GUESS_DATA_BITS", 20)
    assert solvers._guess_supports(a) is None
    solution = minimax_solve(zero_sum(v1))
    assert solution.to_json_dict() == answer


@pytest.mark.parametrize("bits", [1, 6, 12, 13, 40, 332])
def test_the_guess_rounds_only_entries_wider_than_guess_data_bits(monkeypatch, bits):
    # entries of at most GUESS_DATA_BITS bits are guessed on as they are;
    # wider ones on (e >> s) + 1, s = bits(max a) - GUESS_DATA_BITS, whose
    # entries are positive and at most 2**GUESS_DATA_BITS
    rng = random.Random(bits)
    a = [[rng.randint(1, (1 << bits) - 1) for _ in range(5)] for _ in range(4)]
    a[0][0] = (1 << bits) - 1
    seen, init = [], solvers._Guess.__init__

    def recording_init(self, matrix):
        seen.append(matrix)
        init(self, matrix)

    monkeypatch.setattr(solvers._Guess, "__init__", recording_init)
    solvers._guess_supports(a)
    shift = bits - solvers.GUESS_DATA_BITS
    if shift <= 0:
        assert len(seen) == 1 and seen[0] is a
    else:
        assert seen == [[[(e >> shift) + 1 for e in row] for row in a]]
        top = 1 << solvers.GUESS_DATA_BITS
        assert 1 <= min(map(min, seen[0])) <= max(map(max, seen[0])) <= top


@st.composite
def wide_lps(draw):
    """Positive LP matrices up to 8x8 with entries up to 2**40, and about
    one in eight with entries up to 100 digits."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    top = draw(st.sampled_from([1 << 40] * 7 + [10**100]))
    return [[draw(st.integers(1, top)) for _ in range(n)] for _ in range(m)]


@settings(max_examples=80, deadline=None)
@given(wide_lps())
def test_a_wide_lp_certifies_or_falls_back_to_the_exact_answer(a):
    # the guess runs on a rounded copy, the certificate on a itself: a
    # certified optimum is the exact path's, and minimax_solve always
    # returns the exact path's answer
    g = zero_sum(a)
    exact = solve_exactly(g)  # the game's value is a's
    supports = solvers._guess_supports(a)
    optimum = solvers._certify(a, *supports) if supports else None
    if optimum is not None:
        x, y, d, s = optimum
        assert MixedStrategy.from_weights(x) == exact.row_strategy
        assert MixedStrategy.from_weights(y) == exact.col_strategy
        assert F(d, s) == exact.value
    assert minimax_solve(g).to_json_dict() == exact.to_json_dict()


def hostile_game(n, d):
    """The n x n zero-sum game whose row payoffs are drawn below 10**d from
    random.Random(n*d), row by row."""
    rng = random.Random(n * d)
    return zero_sum([[rng.randrange(10**d) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n, d", [(20, 100), (20, 300), (40, 100)])
def test_hostile_wide_games_are_certified_within_two_seconds(n, d):
    # the exact simplex alone took 0.4 s, 5 s and 31 s on these games; the
    # guess on their rounded copies and the certificate take about 0.02,
    # 0.1 and 0.1 s of CPU time
    game = hostile_game(n, d)
    start = time.process_time()
    solution, certified = solve_recording_certificate(game)
    assert time.process_time() - start < 2.0
    assert certified
    assert_guarantees(game.u1, solution.row_strategy, solution.col_strategy, solution.value)


@pytest.mark.parametrize("n, d", [(20, 100), (12, 300), (24, 100)])
def test_hostile_wide_games_equal_the_exact_path(n, d):
    # the same families at sizes whose exact simplex takes about a second
    # or less
    game = hostile_game(n, d)
    solution, certified = solve_recording_certificate(game)
    assert certified
    assert solution.to_json_dict() == solve_exactly(game).to_json_dict()


@pytest.mark.parametrize("bound", [20, 2])
def test_a_guess_pivot_unpacks_the_entering_column_and_the_rhs_only(monkeypatch, bound):
    # the loop hands the column it read to the pivot, so each pivot costs
    # two unpacks, the entering column and the right-hand side, and no more
    counts = {"_unpack": 0, "_pivot": 0}
    for name in counts:
        method = getattr(solvers._Guess, name)

        def counting(self, *args, name=name, method=method):
            counts[name] += 1
            return method(self, *args)

        monkeypatch.setattr(solvers._Guess, name, counting)
    for seed in (1, 2, 3):
        game = gen(GenSpec(Family.DISGUISED_ZERO_SUM, 12, 12, seed, bound))
        minimax_solve(to_zero_sum(game, detect_affine(game).transform))
    minimax_solve(zero_sum([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]))
    assert counts["_pivot"] > 0
    assert counts["_unpack"] == 2 * counts["_pivot"]


@pytest.mark.parametrize(
    "v1, value",
    [
        ([[F(-5, 3)]], F(-5, 3)),
        ([[4, 4], [4, 4]], F(4)),
        ([[0, 0, 0]], F(0)),
        ([[-3], [-3]], F(-3)),
        ([[F(2, 3)] * 3] * 2, F(2, 3)),
        ([[0, 0], [0, 5]], F(0)),
        ([[F(-1, 2)], [F(3, 4)]], F(3, 4)),
    ],
)
def test_minimax_constant_and_near_constant_matrices(v1, value):
    # every entry equal makes the gcd of the differences 0; one entry above
    # the minimum makes it that entry's distance from the minimum
    s = minimax_solve(zero_sum(v1))
    assert s.value == value
    assert_guarantees(v1, s.row_strategy, s.col_strategy, s.value)


def lp_matrix(game):
    """The integer matrix :func:`minimax_solve` hands to the exact simplex."""
    matrices = []
    init = solvers._Simplex.__init__

    def recording_init(self, a):
        matrices.append(a)
        init(self, a)

    with pytest.MonkeyPatch.context() as mp:
        exact_path(mp)
        mp.setattr(solvers._Simplex, "__init__", recording_init)
        minimax_solve(game)
    (a,) = matrices
    return a


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
    assert moved.row_strategy == base.row_strategy
    assert moved.col_strategy == base.col_strategy


@settings(max_examples=80, deadline=None)
@given(
    rational_matrices(),
    st.fractions(min_value=F(1, 64), max_value=64),
    st.fractions(min_value=-20, max_value=20),
)
def test_minimax_lp_matrix_depends_only_on_the_affine_class(v1, c, d):
    a = lp_matrix(zero_sum(v1))
    assert lp_matrix(zero_sum([[c * v + d for v in row] for row in v1])) == a
    # the smallest positive integer matrix: least entry 1, differences coprime
    entries = [e for row in a for e in row]
    assert min(entries) == 1
    assert math.gcd(*(e - 1 for e in entries)) in (0, 1)


@settings(max_examples=40, deadline=None)
@given(
    distinct_entry_matrices(),
    st.fractions(min_value=F(1, 16), max_value=16),
    st.fractions(min_value=-20, max_value=20),
)
def test_disguised_game_solved_on_its_core(core, alpha, beta):
    low = min(min(row) for row in core)
    assume(math.gcd(*(v - low for row in core for v in row)) == 1)
    game = disguise(core, alpha, beta)
    zero = to_zero_sum(game, detect_affine(game).transform)
    assert lp_matrix(zero) == [[v - low + 1 for v in row] for row in core]


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


def test_support_enumeration_at_value_zero():
    # rock-paper-scissors: the 3x3 support matrix is skew-symmetric, so it
    # is singular before each player's payoffs are shifted to be positive
    third = (F(1, 3),) * 3
    eqs = support_enumeration(zero_sum([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]))
    assert [(e.x.probs, e.y.probs, e.payoffs) for e in eqs] == [
        (third, third, (F(0), F(0)))
    ]


def test_support_enumeration_on_negative_payoffs():
    # every payoff is negative; the only equilibrium is pure, at (0, 0)
    eqs = support_enumeration(new_game([[-3, -5], [-6, -2]], [[-1, -9], [-4, -7]]))
    assert [(e.x.probs, e.y.probs, e.payoffs) for e in eqs] == [
        ((F(1), F(0)), (F(1), F(0)), (F(-3), F(-1)))
    ]


def test_support_enumeration_skips_singular_system(monkeypatch):
    solved = []
    eliminate = solvers._eliminate

    def recording_eliminate(a, b):
        result = eliminate(a, b)
        solved.append(result)
        return result

    monkeypatch.setattr(solvers, "_eliminate", recording_eliminate)
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
    # a positive affine map of one player's payoffs keeps its positive
    # class, so the game and its image solve the same square systems, in
    # the same order, and find the same equilibria; each of the two is
    # enumerated from a cold memo, and a warm enumeration solves nothing
    u1, u2 = matrices
    eliminate = solvers._eliminate

    def enumerate_recording(game, cold=True):
        systems = []

        def recording_eliminate(a, b):
            systems.append((a, b))
            return eliminate(a, b)

        if cold:
            solvers._class_equilibria.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solvers, "_eliminate", recording_eliminate)
            return support_enumeration(game), systems

    base, base_systems = enumerate_recording(new_game(u1, u2))
    mapped_game = new_game(
        [[a1 * v + b1 for v in row] for row in u1],
        [[a2 * v + b2 for v in row] for row in u2],
    )
    mapped, mapped_systems = enumerate_recording(mapped_game)
    assert mapped_systems == base_systems
    warm, warm_systems = enumerate_recording(mapped_game, cold=False)
    assert warm_systems == []
    assert warm == mapped
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
    with pytest.raises(TooLarge):
        equilibrium_invariance_check(zero_sum(v1), AffineTransform(1, 0))


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


def eliminations(call):
    """The number of :func:`solvers._eliminate` calls that ``call()`` makes."""
    count = 0
    eliminate = solvers._eliminate

    def counted(a, b):
        nonlocal count
        count += 1
        return eliminate(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "_eliminate", counted)
        call()
    return count


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_each_class_pair_is_enumerated_once(n):
    rng = random.Random(n)
    core = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    core[0][0] = 10  # not constant
    t = AffineTransform(F(3, 2), F(-7, 3))
    g = disguise(core, t.alpha, t.beta)
    cold = eliminations(lambda: support_enumeration(g))
    assert cold > 0
    # the check and the caller's enumeration of the normalization find the
    # entry that the caller's enumeration of g left
    assert eliminations(lambda: equilibrium_invariance_check(g, t)) == 0
    assert eliminations(lambda: support_enumeration(to_zero_sum(g, t))) == 0
    # from a cold memo the check solves the class pair once, not twice
    solvers._class_equilibria.cache_clear()
    assert eliminations(lambda: equilibrium_invariance_check(g, t)) == cold
    # a game of another class pair is solved
    other = disguise([[-v for v in row] for row in core], t.alpha, t.beta)
    assert eliminations(lambda: support_enumeration(other)) > 0


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


def test_invariance_compares_strategies(monkeypatch):
    # the only equilibrium of this stand-in normalization is pure and pays
    # (-3, 3), which maps back to the payoffs (0, 3) of the mixed equilibrium
    # of DISGUISED, so only the strategies tell the two sets apart
    t = detect_affine(DISGUISED).transform
    fake = zero_sum([[-3, -2], [-4, -5]])
    (z,) = support_enumeration(fake)
    (e,) = support_enumeration(DISGUISED)
    assert (t.u1_value(z.payoffs[0]), z.payoffs[1]) == e.payoffs
    assert (z.x, z.y) != (e.x, e.y)
    monkeypatch.setattr(solvers, "to_zero_sum", lambda game, t: fake)
    assert not equilibrium_invariance_check(DISGUISED, t)


def test_minimax_json():
    d = minimax_solve(MATCHING_PENNIES).to_json_dict()
    assert d["value"] == "0/1"
    assert d["row_strategy"] == ["1/2", "1/2"]


def test_equilibrium_set_json():
    d = support_enumeration(MATCHING_PENNIES).to_json_dict()
    assert d["equilibria"][0]["payoffs"] == ["0/1", "0/1"]
    assert d["equilibria"][0]["col_strategy"] == ["1/2", "1/2"]
