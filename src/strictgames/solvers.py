"""Exact game solving: minimax by simplex and a support-enumeration oracle.

The minimax path shifts the row payoff matrix positive, reduces the value
problem to a standard-form linear program over integers, and runs a dense
fraction-free simplex on a compact tableau, so both players' optimal
strategies come out of one tableau (primal solution and dual prices).  The
entering variable follows Dantzig's most-negative rule; after a run of
``DEGENERATE_RUN_LIMIT`` degenerate pivots Bland's smallest-label rule
takes over until the objective moves again, so every solve terminates (a
nondegenerate pivot raises the objective, and Bland's rule never cycles).
The value is unique; when the optimal strategy set is not a single point,
the returned strategy is whichever optimum the pivots reach and may change
between versions.  The support-enumeration oracle independently
finds all equilibria of small bimatrix games by solving the indifference
system of every equal-size support pair on the same fraction-free pivot,
so one integer elimination does all exact linear algebra here; it is
complete for nondegenerate games and is used to cross-validate the LP path
and the claim that normalizing a strictly competitive game preserves its
equilibria.  A support pair that holds a conditionally dominated action,
one that some own action beats strictly on every action of the opponent's
support, is skipped unsolved (Porter, Nudelman & Shoham 2008): the
best-response check would reject it anyway, so the result is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .detection import AffineTransform, to_zero_sum
from .errors import NotZeroSum, TooLarge
from .games import BimatrixGame, MixedStrategy, _row_sums
from .rational import format_rational

#: Largest row or column count :func:`support_enumeration` accepts.
MAX_ENUM_DIM = 5

#: Consecutive degenerate pivots after which the simplex switches from
#: Dantzig's entering rule to Bland's until the next nondegenerate pivot.
DEGENERATE_RUN_LIMIT = 8


@dataclass(frozen=True)
class MinimaxSolution:
    """Exact value and one optimal strategy per player for a zero-sum game.

    The row strategy guarantees at least ``value`` against every pure
    column; the column strategy concedes at most ``value`` against every
    pure row.  Both inequalities hold exactly.
    """

    value: Fraction
    row_strategy: MixedStrategy
    col_strategy: MixedStrategy

    def to_json_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "row_strategy": [format_rational(p) for p in self.row_strategy],
            "col_strategy": [format_rational(p) for p in self.col_strategy],
        }


@dataclass(frozen=True)
class Equilibrium:
    x: MixedStrategy
    y: MixedStrategy
    payoffs: tuple[Fraction, Fraction]

    def to_json_dict(self) -> dict:
        return {
            "row_strategy": [format_rational(p) for p in self.x],
            "col_strategy": [format_rational(p) for p in self.y],
            "payoffs": [format_rational(v) for v in self.payoffs],
        }


@dataclass(frozen=True)
class EquilibriumSet:
    equilibria: tuple[Equilibrium, ...]

    def __len__(self) -> int:
        return len(self.equilibria)

    def __iter__(self):
        return iter(self.equilibria)

    def strategy_set(self) -> frozenset:
        return frozenset((e.x.probs, e.y.probs) for e in self.equilibria)

    def to_json_dict(self) -> dict:
        return {"equilibria": [e.to_json_dict() for e in self.equilibria]}


class _Simplex:
    """Exact simplex for max c*v subject to A v <= b, v >= 0, with integer
    data and b >= 0; :meth:`solve_square` reuses its pivot to solve a
    square system A v = b.

    The slack basis is immediately feasible, so no phase-one is needed.

    Tableau: compact (Tucker) form, one column per nonbasic variable plus
    the right-hand side, with ``nonbasic`` and ``basis`` holding variable
    labels (structural ``0..n-1``, slack ``n+i`` for row ``i``).  It is kept
    fraction-free by integer pivoting (Bareiss): every entry is the true
    tableau entry times the common divisor ``div``, and each update divides
    exactly by the previous pivot, so entries stay integers.  A pivot at
    ``(r, c)`` with pivot ``p`` and divisor ``d`` maps every other column
    entry to ``(p*v - f*w) // d``, leaves row ``r`` as it is, and turns
    column ``c`` into the leaving variable's column: ``-a_ic`` in the other
    rows, ``d`` in row ``r`` and ``-obj_c`` in the objective row.

    Exact division: by Cramer's rule each true entry is a determinant of
    the current basis matrix with one column replaced by an original
    column, divided by the basis determinant, and ``div`` is that basis
    determinant, so every stored entry is the determinant of an integer
    matrix.  The update forms ``p*v - f*w == d * new`` (Sylvester's
    identity), so ``// d`` divides exactly.  This needs each pivot to be
    nonzero, not positive: the LP's ratio test pivots on positive entries,
    ``solve_square`` on any nonzero one, which may leave ``div`` negative.

    Entering variable: Dantzig's rule, the most negative reduced cost, ties
    to the smallest variable label.  After ``DEGENERATE_RUN_LIMIT``
    consecutive degenerate pivots (the leaving row's right-hand side is 0),
    Bland's rule takes over, the smallest label with negative reduced cost,
    until the next nondegenerate pivot.  Leaving variable: minimum ratio,
    ties broken by the smallest basic label.

    Termination: a nondegenerate pivot strictly raises the objective, so no
    basis repeats across nondegenerate pivots, and there are finitely many
    bases.  Between two nondegenerate pivots the objective is constant;
    Dantzig's rule runs for at most ``DEGENERATE_RUN_LIMIT`` of those
    pivots, then Bland's rule, which never cycles from any starting basis
    (Bland 1977), so every degenerate run ends.
    """

    def __init__(
        self,
        a: list[list[int]],
        b: list[int],
        c: list[int],
    ) -> None:
        self.m = len(a)
        self.n = len(c)
        self.rows = [list(ai) + [bi] for ai, bi in zip(a, b)]
        self.obj = [-cj for cj in c] + [0]
        self.nonbasic = list(range(self.n))
        self.basis = [self.n + i for i in range(self.m)]
        self.div = 1

    def _entering(self, bland: bool) -> int | None:
        """Column of the entering variable, or None at an optimum."""
        negative = [col for col, cost in enumerate(self.obj[:-1]) if cost < 0]
        if not negative:
            return None
        if bland:
            return min(negative, key=self.nonbasic.__getitem__)
        return min(negative, key=lambda col: (self.obj[col], self.nonbasic[col]))

    def _leaving(self, col: int) -> int:
        # ratios compared by cross-multiplication; coefficients are positive
        best_num = best_den = 0
        best_row = -1
        for i in range(self.m):
            coef = self.rows[i][col]
            if coef > 0:
                num = self.rows[i][-1]
                if (
                    best_row < 0
                    or num * best_den < best_num * coef
                    or (
                        num * best_den == best_num * coef
                        and self.basis[i] < self.basis[best_row]
                    )
                ):
                    best_num, best_den, best_row = num, coef, i
        if best_row < 0:
            raise ArithmeticError("unbounded linear program")
        return best_row

    def _pivot(self, row: int, col: int) -> None:
        prow = self.rows[row]
        pivot = prow[col]
        d = self.div
        for i, old in enumerate(self.rows):
            if i != row:
                f = old[col]
                new = [(pivot * v - f * w) // d for v, w in zip(old, prow)]
                new[col] = -f
                self.rows[i] = new
        f = self.obj[col]
        self.obj = [(pivot * v - f * w) // d for v, w in zip(self.obj, prow)]
        self.obj[col] = -f
        prow[col] = d
        self.div = pivot
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]

    def solve(self) -> tuple[int, int, list[int], list[int]]:
        """Optimum as integer numerators over the final divisor ``div``:
        ``(div, objective, primal, dual)``, where the optimal objective is
        ``objective / div``, variable ``j`` is ``primal[j] / div`` and the
        dual price of row ``i`` is ``dual[i] / div``.
        """
        run = 0
        while True:
            col = self._entering(bland=run >= DEGENERATE_RUN_LIMIT)
            if col is None:
                break
            row = self._leaving(col)
            run = run + 1 if self.rows[row][-1] == 0 else 0
            self._pivot(row, col)
        dual = [0] * self.m
        for col, var in enumerate(self.nonbasic):
            if var >= self.n:
                dual[var - self.n] = self.obj[col]
        return self.div, self.obj[-1], self._primal(), dual

    def solve_square(self) -> tuple[int, list[int]] | None:
        """Solve the square system ``A v = b``: ``(div, primal)`` with
        ``v_j = primal[j] / div``, or None when ``A`` is singular.

        Each structural variable in turn enters the basis on the first
        slack row with a nonzero entry in its column; the objective and the
        sign of ``b`` play no part.  When no slack row has one, the column
        lies in the span of the structural columns already basic, so ``A``
        is singular.  Afterwards every slack is nonbasic, that is zero.
        """
        # column ``col`` still holds structural variable ``col``: the pivots
        # so far only replaced the columns before it
        for col in range(self.n):
            for row, var in enumerate(self.basis):
                if var >= self.n and self.rows[row][col]:
                    break
            else:
                return None
            self._pivot(row, col)
        return self.div, self._primal()

    def _primal(self) -> list[int]:
        primal = [0] * self.n
        for i, var in enumerate(self.basis):
            if var < self.n:
                primal[var] = self.rows[i][-1]
        return primal


def _check_zero_sum(game: BimatrixGame) -> None:
    d1, d2 = game.den1, game.den2
    for i, (row1, row2) in enumerate(zip(game.num1, game.num2)):
        for j, (a, b) in enumerate(zip(row1, row2)):
            if a * d2 + b * d1:
                total = Fraction(a, d1) + Fraction(b, d2)
                raise NotZeroSum(f"u1 + u2 is {total} at cell ({i}, {j})")


def minimax_solve(game: BimatrixGame) -> MinimaxSolution:
    """Exact minimax value and optimal strategies of a zero-sum game.

    The row matrix is shifted by ``1 - min`` when its minimum is <= 0 and
    scaled to the smallest proportional integer matrix, the positive-matrix
    value LP is solved once, and the column player's optimum is read off
    the dual prices.  Guarantee inequalities are re-verified exactly, in
    integers, on the original matrix before returning.

    The value is unique.  When the optimal strategy set is not a single
    point, which optimal strategy is returned depends on the pivoting rule
    and may change between versions.
    """
    _check_zero_sum(game)
    m, n = game.rows, game.cols
    den, v = game.den1, game.num1  # u1 == v / den
    low = min(min(row) for row in v)
    # lift/den is the shift; scaling a positive matrix scales its value and
    # keeps optima unchanged, so the LP runs on (v + lift) / g in integers
    lift = den - low if low <= 0 else 0
    g = den
    for row in v:
        for entry in row:
            g = math.gcd(g, entry + lift)
    a = [[(entry + lift) // g for entry in row] for row in v]

    div, total, q, p = _Simplex(a, [1] * m, [1] * n).solve()
    # the LP optimum total/div is the reciprocal of the value of a, and the
    # primal and dual optima both sum to total
    y = MixedStrategy.from_weights(q)
    x = MixedStrategy.from_weights(p)
    value = Fraction(div * g - lift * total, den * total)

    # sum_i x_i u1_ij >= value, cross-multiplied by the positive
    # denominators of x, u1 and value; likewise for y
    num, vden = value.numerator, value.denominator
    if any(s * vden < num * x.den * den for s in _row_sums(zip(*v), x.weights)):
        raise AssertionError("row guarantee certificate failed")
    if any(s * vden > num * y.den * den for s in _row_sums(v, y.weights)):
        raise AssertionError("column guarantee certificate failed")
    return MinimaxSolution(value=value, row_strategy=x, col_strategy=y)


def support_enumeration(game: BimatrixGame) -> EquilibriumSet:
    """All equilibria found by equal-size support enumeration.

    For each support pair the two indifference systems are solved exactly
    by :meth:`_Simplex.solve_square`, the same fraction-free pivot as the
    LP; candidates must put strictly positive weight on their support and
    survive the exact best-response inequalities, all checked in integers.
    Singular systems are skipped, so completeness is claimed only for
    nondegenerate games.  A game with more than :data:`MAX_ENUM_DIM` rows
    or columns raises :class:`TooLarge`.

    Pruning: a pair ``(R, S)`` is not solved when some row in ``R`` earns
    the row player strictly less than some other row on every column of
    ``S``, or some column in ``S`` earns the column player strictly less
    than some other column on every row of ``R``.  A solution with
    positive weights would pay the dominated action exactly the
    indifference value and its dominator strictly more, so the
    best-response check would reject the pair; without one it yields
    nothing either.  The pairs run in the same order, so the equilibria
    and their order are those of the unpruned loop, degenerate games
    included; singular systems are met only among the pairs still solved.
    """
    if game.rows > MAX_ENUM_DIM or game.cols > MAX_ENUM_DIM:
        raise TooLarge(
            f"{game.rows}x{game.cols} exceeds the enumeration cap {MAX_ENUM_DIM}"
        )
    m, n = game.rows, game.cols
    v2t = list(zip(*game.num2))  # the column player's own rows
    # bitmask of the undominated rows per column support, and vice versa
    rows_fit = _undominated(game.num1, n)
    cols_fit = _undominated(v2t, m)
    found = []
    for k in range(1, min(m, n) + 1):
        col_sups = [(sup, _bits(sup)) for sup in combinations(range(n), k)]
        for rows_sup in combinations(range(m), k):
            r = _bits(rows_sup)
            fit = cols_fit[r]
            for cols_sup, s in col_sups:
                if s & fit != s or r & rows_fit[s] != r:
                    continue
                y = _indifference(game.num1, game.den1, rows_sup, cols_sup)
                if y is None:
                    continue
                x = _indifference(v2t, game.den2, cols_sup, rows_sup)
                if x is None:
                    continue
                # at the equilibrium each player earns the indifference value
                found.append(Equilibrium(x[0], y[0], (y[1], x[1])))
    return EquilibriumSet(tuple(found))


def _bits(actions: tuple[int, ...]) -> int:
    return sum(1 << a for a in actions)


def _undominated(payoff: list[list[int]], others: int) -> list[int]:
    """For each bitmask ``s`` of opponent actions, the bitmask of own
    actions that no own action beats strictly on every action in ``s``.

    ``payoff[a][b]`` is the owner's payoff numerator when own action ``a``
    meets opponent action ``b``; the common denominator plays no part.
    """
    dominated = [0] * (1 << others)
    for a, row in enumerate(payoff):
        for rival in payoff:
            # a is dominated on every subset of where rival pays more
            mask = sub = sum(
                1 << b for b, (mine, theirs) in enumerate(zip(row, rival)) if theirs > mine
            )
            while sub:
                dominated[sub] |= 1 << a
                sub = (sub - 1) & mask
    everyone = (1 << len(payoff)) - 1
    return [everyone & ~d for d in dominated]


def _indifference(
    payoff: list[list[int]], den: int, own: tuple[int, ...], other: tuple[int, ...]
) -> tuple[MixedStrategy, Fraction] | None:
    """The opponent mix on ``other`` that leaves the owner of ``payoff``
    indifferent over ``own`` and no better off elsewhere.

    ``payoff[a][b] / den`` is the owner's payoff when own action ``a``
    meets opponent action ``b``.  Returns the opponent's strategy and the
    owner's payoff against it.  None when the system is singular, a weight
    is not positive, or some own action earns more than that payoff.
    """
    k = len(own)
    a = [[payoff[i][j] for j in other] + [-1] for i in own]
    a.append([1] * k + [0])
    solved = _Simplex(a, [0] * k + [1], [0] * (k + 1)).solve_square()
    if solved is None:
        return None
    # the opponent plays other[t] with probability weights[t] / div (the
    # weights sum to div, the last equation) for a payoff of value / div
    div, (*weights, value) = solved
    if div < 0:
        div, value, weights = -div, -value, [-w for w in weights]
    if any(w <= 0 for w in weights):
        return None
    for row in payoff:
        if sum(row[j] * w for j, w in zip(other, weights)) > value:
            return None
    full = dict(zip(other, weights))
    mix = MixedStrategy.from_weights(full.get(j, 0) for j in range(len(payoff[0])))
    return mix, Fraction(value, div * den)


def enumeration_agrees(value: Fraction, equilibria: EquilibriumSet) -> bool | None:
    """Whether every enumerated equilibrium pays the row player ``value``,
    the LP value of the same game; None when there is no equilibrium, so
    a game that compared nothing never counts as agreeing.
    """
    if not equilibria:
        return None
    return all(e.payoffs[0] == value for e in equilibria)


def equilibrium_invariance_check(game: BimatrixGame, t: AffineTransform) -> bool:
    """Normalizing with ``t`` must leave the equilibrium set untouched.

    Enumerates equilibria of the game and of its zero-sum normalization,
    requires the two strategy sets to be identical, and checks for each
    matched equilibrium that the original row payoff is recovered exactly
    from the normalized one via ``u1 = (v1 + beta) / alpha`` and that the
    column payoffs are equal, since normalizing leaves ``u2`` as it is.
    When neither enumeration finds an equilibrium (only a degenerate game
    allows that) nothing is compared, and it returns True trivially;
    callers counting agreements must check.
    """
    original = support_enumeration(game)
    normalized_game = to_zero_sum(game, t)
    normalized = support_enumeration(normalized_game)
    by_strategies = {(e.x, e.y): e for e in normalized.equilibria}
    if by_strategies.keys() != {(e.x, e.y) for e in original.equilibria}:
        return False
    for e in original.equilibria:
        z = by_strategies[(e.x, e.y)]
        if e.payoffs != ((z.payoffs[0] + t.beta) / t.alpha, z.payoffs[1]):
            return False
    return True
