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
system of every equal-size support pair; it is complete for nondegenerate
games and is used to cross-validate the LP path and the claim that
normalizing a strictly competitive game preserves its equilibria.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .detection import AffineTransform, to_zero_sum
from .errors import NotZeroSum, TooLarge
from .games import (
    BimatrixGame,
    MixedProfile,
    MixedStrategy,
    expected_utility,
)
from .rational import format_rational

DEFAULT_MAX_DIM = 5

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
    data and b >= 0.

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
        primal = [0] * self.n
        for i, var in enumerate(self.basis):
            if var < self.n:
                primal[var] = self.rows[i][-1]
        dual = [0] * self.m
        for col, var in enumerate(self.nonbasic):
            if var >= self.n:
                dual[var - self.n] = self.obj[col]
        return self.div, self.obj[-1], primal, dual


def _check_zero_sum(game: BimatrixGame) -> None:
    # Fractions are in lowest terms, so u1 == -u2 compares the parts
    for i, (row1, row2) in enumerate(zip(game.u1, game.u2)):
        for j, (a, b) in enumerate(zip(row1, row2)):
            if a.numerator != -b.numerator or a.denominator != b.denominator:
                raise NotZeroSum(f"u1 + u2 is {a + b} at cell ({i}, {j})")


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
    den, v = game.scaled_matrix(1)  # u1 == v / den
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
    # the LP optimum total/div is the reciprocal of the value of a
    y = MixedStrategy(tuple(Fraction(qj, total) for qj in q))
    x = MixedStrategy(tuple(Fraction(pi, total) for pi in p))
    value = Fraction(div * g - lift * total, den * total)

    # sum_i x_i u1_ij >= value, cross-multiplied by the positive
    # denominators of x, u1 and value; likewise for y
    num, vden = value.numerator, value.denominator
    dx, wx = x._scaled
    bound = num * dx * den
    for j in range(n):
        if sum(wi * v[i][j] for i, wi in enumerate(wx) if wi) * vden < bound:
            raise AssertionError("row guarantee certificate failed")
    dy, wy = y._scaled
    bound = num * dy * den
    for row in v:
        if sum(vij * wj for vij, wj in zip(row, wy) if wj) * vden > bound:
            raise AssertionError("column guarantee certificate failed")
    return MinimaxSolution(value=value, row_strategy=x, col_strategy=y)


def _solve_linear(
    a: list[list[Fraction]], b: list[Fraction]
) -> list[Fraction] | None:
    """Solve a square system exactly; None when the matrix is singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if m[r][col] != 0), None
        )
        if pivot_row is None:
            return None
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][-1] for r in range(n)]


def support_enumeration(
    game: BimatrixGame, max_dim: int = DEFAULT_MAX_DIM
) -> EquilibriumSet:
    """All equilibria found by equal-size support enumeration.

    For each support pair the two indifference systems are solved exactly;
    candidates must put strictly positive weight on their support and
    survive the exact best-response inequalities.  Singular systems are
    skipped, so completeness is claimed only for nondegenerate games.
    """
    if game.rows > max_dim or game.cols > max_dim:
        raise TooLarge(
            f"{game.rows}x{game.cols} exceeds the enumeration cap {max_dim}"
        )
    m, n = game.rows, game.cols
    found = []
    for k in range(1, min(m, n) + 1):
        for rows_sup in combinations(range(m), k):
            for cols_sup in combinations(range(n), k):
                eq = _try_support(game, rows_sup, cols_sup)
                if eq is not None:
                    found.append(eq)
    return EquilibriumSet(tuple(found))


def _try_support(
    game: BimatrixGame,
    rows_sup: tuple[int, ...],
    cols_sup: tuple[int, ...],
) -> Equilibrium | None:
    k = len(rows_sup)
    one = Fraction(1)
    zero = Fraction(0)

    # column strategy y and v1 from the row player's indifference over rows_sup
    a = [
        [game.u1[i][j] for j in cols_sup] + [-one]
        for i in rows_sup
    ]
    a.append([one] * k + [zero])
    sol = _solve_linear(a, [zero] * k + [one])
    if sol is None:
        return None
    y_sup, v1 = sol[:k], sol[k]

    # row strategy x and v2 from the column player's indifference over cols_sup
    a = [
        [game.u2[i][j] for i in rows_sup] + [-one]
        for j in cols_sup
    ]
    a.append([one] * k + [zero])
    sol = _solve_linear(a, [zero] * k + [one])
    if sol is None:
        return None
    x_sup, v2 = sol[:k], sol[k]

    if any(p <= 0 for p in x_sup) or any(p <= 0 for p in y_sup):
        return None

    x = [zero] * game.rows
    for i, p in zip(rows_sup, x_sup):
        x[i] = p
    y = [zero] * game.cols
    for j, p in zip(cols_sup, y_sup):
        y[j] = p

    for i in range(game.rows):
        if sum(game.u1[i][j] * y[j] for j in cols_sup) > v1:
            return None
    for j in range(game.cols):
        if sum(game.u2[i][j] * x[i] for i in rows_sup) > v2:
            return None

    xs = MixedStrategy(tuple(x))
    ys = MixedStrategy(tuple(y))
    profile = MixedProfile(xs, ys)
    payoffs = (
        expected_utility(game, 1, profile),
        expected_utility(game, 2, profile),
    )
    return Equilibrium(xs, ys, payoffs)


def equilibrium_invariance_check(
    game: BimatrixGame, t: AffineTransform, max_dim: int = DEFAULT_MAX_DIM
) -> bool:
    """Normalizing with ``t`` must leave the equilibrium set untouched.

    Enumerates equilibria of the game and of its zero-sum normalization,
    requires the two strategy sets to be identical, and checks that each
    original row payoff is recovered exactly from the normalized one via
    ``u1 = (v1 + beta) / alpha``.
    """
    original = support_enumeration(game, max_dim)
    normalized_game = to_zero_sum(game, t)
    normalized = support_enumeration(normalized_game, max_dim)
    if original.strategy_set() != normalized.strategy_set():
        return False
    by_strategies = {
        (e.x.probs, e.y.probs): e for e in normalized.equilibria
    }
    for e in original.equilibria:
        z = by_strategies[(e.x.probs, e.y.probs)]
        if e.payoffs[0] != (z.payoffs[0] + t.beta) / t.alpha:
            return False
    return True
