"""Exact game solving: minimax by simplex and a support-enumeration oracle.

Each mechanism is described once, where it is implemented:

- :func:`minimax_solve` maps the row payoffs to the smallest positive
  integer matrix in their affine class, guesses the optimal basis of its
  value LP, certifies it, and falls back to the exact simplex.
- :class:`_Guess` is the guess, the simplex's own pivot loop in fixed point
  on a packed tableau; :func:`_certify` accepts only a unique optimum, so
  every answer is the exact simplex's.
- :class:`_Simplex` is the exact fraction-free simplex.
- :func:`_indifference` is the one support-system kernel, on a player's
  own positive payoffs, over :func:`_solve_square`, fraction-free
  elimination; it serves the certificate and :func:`support_enumeration`,
  which cross-checks small games.

No float enters any path.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul, neg

from .detection import AffineTransform, detect_affine, to_zero_sum
from .errors import NotZeroSum, PivotBudgetExceeded, TooLarge
from .games import BimatrixGame, MixedStrategy, _row_sums
from .rational import format_rational

#: Largest row or column count :func:`support_enumeration` accepts.
MAX_ENUM_DIM = 5

#: Consecutive degenerate pivots after which the simplex switches from
#: Dantzig's entering rule to Bland's until the next nondegenerate pivot.
DEGENERATE_RUN_LIMIT = 8

#: An LP on an m x n matrix raises :class:`PivotBudgetExceeded` rather than
#: make more than ``PIVOTS_PER_DIMENSION * (m + n)`` pivots.
PIVOTS_PER_DIMENSION = 50

#: The basis guess stores each tableau entry as an integer count of
#: units of ``2**-GUESS_BITS``.
GUESS_BITS = 32

#: The basis guess runs on the LP matrix rounded to entries of at most
#: ``2**GUESS_DATA_BITS``, so that its data always fits int64.
GUESS_DATA_BITS = 12

# the native 64-bit words of a packed column that hold its entries, field 0
# first: the low word of each 128-bit field
_VALUE_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


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
    labels (structural ``0..n-1``, slack ``n+i`` for row ``i``).  The ``m``
    constraint rows come first and the objective row ``-c`` last.  It is
    kept fraction-free by integer pivoting (Bareiss): every entry is the
    true tableau entry times the common divisor ``div``, and each update
    divides exactly by the previous pivot, so entries stay integers.  A
    pivot at ``(r, c)`` with pivot ``p`` and divisor ``d`` maps every other
    column entry of every other row to ``(p*v - f*w) // d``, leaves row
    ``r`` as it is, and turns column ``c`` into the leaving variable's
    column: ``-a_ic`` in each other row ``i`` and ``d`` in row ``r``.

    Exact division: by Cramer's rule each true entry is a determinant of
    the current basis matrix with one column replaced by an original
    column, divided by the basis determinant, and ``div`` is that basis
    determinant, so every stored entry is the determinant of an integer
    matrix.  The update forms ``p*v - f*w == d * new`` (Sylvester's
    identity), so ``// d`` divides exactly.  The ratio test pivots only on
    positive entries, so ``div`` stays positive.

    Entering variable: Dantzig's rule per unit of ``line``, the most
    negative reduced cost divided by the variable's entry of ``line``
    (indexed by label, all 1s here), ties to the smallest variable label.
    After ``DEGENERATE_RUN_LIMIT`` consecutive degenerate pivots (the
    leaving row's right-hand side is 0), Bland's rule takes over, the
    smallest label with negative reduced cost, until the next
    nondegenerate pivot.  Leaving variable: minimum ratio over the
    entering column's entries above ``tolerance`` (0 here), ties broken by
    the smallest basic label.

    Termination: a nondegenerate pivot strictly raises the objective, so no
    basis repeats across nondegenerate pivots, and there are finitely many
    bases.  Between two nondegenerate pivots the objective is constant;
    Dantzig's rule runs for at most ``DEGENERATE_RUN_LIMIT`` of those
    pivots, then Bland's rule, which never cycles from any starting basis
    (Bland 1977), so every degenerate run ends.  :meth:`solve` still counts
    its pivots and raises :class:`PivotBudgetExceeded` past
    ``PIVOTS_PER_DIMENSION * (m + n)``, so a tableau whose invariants were
    broken fails fast instead of spinning.
    """

    def __init__(self, a: list[list[int]], b: list[int], c: list[int]) -> None:
        self.m = len(a)
        self.n = len(a[0])
        self.rows = [[*ai, bi] for ai, bi in zip(a, b)]
        self.rows.append([-cj for cj in c] + [0])
        self.nonbasic = list(range(self.n))
        self.basis = [self.n + i for i in range(self.m)]
        self.div = 1
        self.tolerance = 0
        self.line = [1] * (self.n + self.m)

    def _objective(self) -> list[int]:
        """The objective row: one reduced cost per column, then the
        objective value."""
        return self.rows[-1]

    def _column(self, col: int) -> tuple[list[int], list[int]]:
        """Column ``col`` and the right-hand side, one entry per row, the
        objective row's last when there is one."""
        return [row[col] for row in self.rows], [row[-1] for row in self.rows]

    def _entering(self, bland: bool) -> int | None:
        """Column of the entering variable, or None at an optimum."""
        obj = self._objective()
        negative = [col for col, cost in enumerate(obj[:-1]) if cost < 0]
        if not negative:
            return None
        nonbasic = self.nonbasic
        if bland:
            return min(negative, key=nonbasic.__getitem__)
        # cost/line compared by cross-multiplication, as lines are positive
        line, best = self.line, negative[0]
        for col in negative[1:]:
            var, rival = nonbasic[col], nonbasic[best]
            left, right = obj[col] * line[rival], obj[best] * line[var]
            if left < right or (left == right and var < rival):
                best = col
        return best

    def _leaving(self, coefs: list[int], rhs: list[int]) -> int:
        # only the constraint rows, one per basic variable, and only their
        # entries above the tolerance, which are positive, take part.  The
        # ratios are compared by cross-multiplication; every ratio ties the
        # initial 0/0, and best_var starts past every label, so the first
        # candidate wins
        tolerance = self.tolerance
        best_num = best_den = 0
        best_row, best_var = -1, self.m + self.n
        for i, (coef, num, var) in enumerate(zip(coefs, rhs, self.basis)):
            if coef > tolerance:
                left, right = num * best_den, best_num * coef
                if left < right or (left == right and var < best_var):
                    best_num, best_den, best_row, best_var = num, coef, i, var
        if best_row < 0:
            raise ArithmeticError("unbounded linear program")
        return best_row

    def _pivot(self, row: int, col: int, column: list[int]) -> None:
        """Pivot at ``(row, col)``; ``column`` holds column ``col``'s entry
        in every row, as :meth:`_column` reads it."""
        prow = self.rows[row]
        pivot = column[row]
        d = self.div
        for i, old in enumerate(self.rows):
            if i != row:
                f = column[i]
                new = [(pivot * v - f * w) // d for v, w in zip(old, prow)]
                new[col] = -f
                self.rows[i] = new
        prow[col] = d
        self.div = pivot
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]

    def solve(self) -> tuple[int, int, list[int], list[int]]:
        """Optimum as integer numerators over the final divisor ``div``:
        ``(div, objective, primal, dual)``, where the optimal objective is
        ``objective / div``, variable ``j`` is ``primal[j] / div`` and the
        dual price of row ``i`` is ``dual[i] / div``.
        """
        self.optimize()
        obj = self._objective()
        dual = [0] * self.m
        for col, var in enumerate(self.nonbasic):
            if var >= self.n:
                dual[var - self.n] = obj[col]
        return self.div, obj[-1], self._primal(), dual

    def optimize(self) -> None:
        """Pivot until no reduced cost is negative; the optimal basis is
        then ``basis`` and ``nonbasic``."""
        budget = PIVOTS_PER_DIMENSION * (self.m + self.n)
        run = pivots = 0
        while True:
            col = self._entering(bland=run >= DEGENERATE_RUN_LIMIT)
            if col is None:
                break
            if pivots == budget:
                raise PivotBudgetExceeded(
                    f"no optimum after {budget} pivots on a {self.m}x{self.n} LP"
                )
            pivots += 1
            column, rhs = self._column(col)
            row = self._leaving(column, rhs)
            run = run + 1 if rhs[row] == 0 else 0
            self._pivot(row, col, column)

    def _primal(self) -> list[int]:
        # any column comes with the right-hand side
        primal = [0] * self.n
        for var, value in zip(self.basis, self._column(0)[1]):
            if var < self.n:
                primal[var] = value
        return primal


class _Guess(_Simplex):
    """:class:`_Simplex` in fixed point, to guess the optimal basis of the
    value LP ``max 1*y`` subject to ``a y <= 1``, ``y >= 0`` of a positive
    integer matrix ``a``.

    :class:`_Simplex`'s loop owns the entering rule, the leaving rule, the
    pivot tolerance, the switch to Bland's rule and the pivot budget, and
    reads the tableau only through :meth:`_objective` and :meth:`_column`;
    this class owns the packed codec, the pivot arithmetic and the guard.

    Built on data multiplied by ``2**B``, ``B = GUESS_BITS``, each entry is
    its true tableau entry in units of ``2**-B``, rounded down after every
    pivot, so entries keep their size instead of growing into basis
    determinants.  A pivot at ``(r, c)`` with pivot ``p`` maps an entry
    ``v`` of another row to ``v - ceil(ratio*w / 2**B)``, where
    ``ratio = (f << B) // p``, ``f`` is the row's entry in column ``c`` and
    ``w`` the pivot row's entry in the same column as ``v``; it maps the
    pivot row's ``w`` to ``w*inv >> B`` with ``inv = (1 << 2*B) // p``, and
    column ``c`` becomes ``-ratio``, ``inv`` in row ``r``.  The tolerance,
    set when the object is built, is ``2**(B//2)`` units: the ratio test
    sees an entering-column entry at or below it as 0, the pivot tolerance
    of Harris 1973 ("Pivot selection methods of the Devex LP code"): an
    entry whose true value is 0 can round to a few units, and a pivot on it
    blows the tableau up.  Rounding may still lead it to a wrong basis, or
    make a column look unbounded; the certificate catches the first, and
    the second raises ``ArithmeticError``.

    Pricing: ``line`` holds each variable's line of ``a``, the sum of
    column ``j`` for structural ``j`` and of row ``i`` for slack ``n+i``,
    positive as ``a >= 1``; the loop's rule is then a static stand-in for
    steepest edge (Forrest & Goldfarb 1992) on equilibrated lines (Curtis
    & Reid 1972), which saves about a quarter of the pivots on the
    ``solve-lp`` benchmark LPs.  Any rule is safe: the path only picks the
    supports that the certificate tests, and the certificate accepts only
    the unique optimum, which the exact simplex would return.

    Storage: one integer per column, the right-hand side last.  Field
    ``i`` of a column, 128 bits at bit ``128*i``, holds row ``i``'s entry
    plus ``2**63``, shifted up by ``B``: ``B`` zero bits, a 64-bit value
    region, which holds exactly the int64 entries, and a guard, zero in
    every stored column.  The ``m`` constraint rows come first and the
    objective is the top field, read off with one shift.  Shifted down by
    ``B`` and XORed with ``flip``, bit 63 of each field, a column holds its
    entries in two's complement in the even 64-bit words, so an ``array``
    packs it and a ``memoryview`` unpacks it, in C.  The LPs that
    ``minimax_solve`` builds stay far inside: their data is rounded to
    ``GUESS_DATA_BITS`` bits, and the tolerance keeps every ratio ``f/p``
    below ``2**(B//2)`` times ``f``; over the 1,224 ``solve-lp`` benchmark
    LPs of four seeds the longest entry has 48 bits.

    A pivot updates each column ``C`` whose pivot-row entry ``w`` is not 0
    in one pass: ``t = C - w*R`` and then ``t & VALUES``, where ``R`` holds
    ``ratio`` in each field and ``2**B - inv`` in field ``r``, and
    ``VALUES`` masks every value region.  Field ``i != r`` of ``t`` is
    ``(v + 2**63)*2**B - ratio*w``, and clearing its low ``B`` bits leaves
    ``v + (-(ratio*w) >> B)`` plus the offset, shifted; field ``r`` is
    ``(w + 2**63)*2**B - w*(2**B - inv)``, which leaves ``w*inv >> B`` plus
    the offset.  These are exactly the entries the same pivot makes on a
    list of one integer per entry.

    Guard: a pivot raises ``OverflowError`` when it would store an entry
    outside int64, and exactly then.  :meth:`_pack` refuses such an entry
    in the starting columns and in the pivot column at each pivot.  So
    ``|w|``, every ``|ratio|`` and ``|inv|`` are at most ``2**63``, and
    each field of ``t``, which must lie in ``[0, 2**(64+B))``, lies within
    ``2**127`` of zero: none wraps by a whole ``2**128``, whose borrow
    would vanish in the low bits the mask clears.  The lowest field out of
    range, negative or not, then shows a set guard bit, Python's ``&``
    reading a negative ``t`` in two's complement, so ``t & GUARD`` sees
    every overflow and every borrow between fields.  ``_guess_supports``
    takes the error as a failed guess, and the exact simplex answers;
    correctness rests on the certificate, not on the guard.
    """

    def __init__(self, a: list[list[int]]) -> None:
        bits = GUESS_BITS
        self.m, self.n = m, n = len(a), len(a[0])
        self.nonbasic = list(range(n))
        self.basis = [n + i for i in range(m)]
        self.tolerance = 1 << bits // 2
        self.line = [*map(sum, zip(*a)), *map(sum, a)]
        ones = ((1 << 128 * (m + 1)) - 1) // ((1 << 128) - 1)  # 1 in each field
        self.flip = ones << 63
        self.values = ones * ((1 << 64) - 1) << bits
        self.guard = ones * ((1 << 128) - (1 << 64 + bits))
        self.words = array("q", bytes(16 * (m + 1)))
        # a's columns, each with objective entry -1, then the right-hand
        # side, 1 in each row and 0 in the objective, in units of 2**-B
        one = 1 << bits
        self.cols = [self._pack([e << bits for e in col] + [-one]) for col in zip(*a)]
        self.cols.append(self._pack([one] * m + [0]))

    def _pack(self, entries: list[int]) -> int:
        """The stored column int of ``entries``, the objective last; raises
        ``OverflowError`` when an entry is outside int64."""
        self.words[_VALUE_WORDS] = array("q", entries)
        return (int.from_bytes(self.words, sys.byteorder) ^ self.flip) << GUESS_BITS

    def _unpack(self, packed: int) -> list[int]:
        """The entries of a stored column int, the objective last."""
        raw = ((packed >> GUESS_BITS) ^ self.flip).to_bytes(16 * (self.m + 1), sys.byteorder)
        return memoryview(raw).cast("q")[_VALUE_WORDS].tolist()

    def _objective(self) -> list[int]:
        shift = 128 * self.m + GUESS_BITS
        return [(packed >> shift) - (1 << 63) for packed in self.cols]

    def _column(self, col: int) -> tuple[list[int], list[int]]:
        return self._unpack(self.cols[col]), self._unpack(self.cols[-1])

    def _pivot(self, row: int, col: int, column: list[int]) -> None:
        bits, cols = GUESS_BITS, self.cols
        pivot = column[row]
        new = [-((f << bits) // pivot) for f in column]  # -ratio
        new[row] = (1 << 2 * bits) // pivot  # inv
        packed = self._pack(new)
        shift = 128 * row + bits
        multiplier = self.flip - (packed >> bits) + (1 << shift)  # R
        # w keeps its offset until it is used
        off, field, values, guard = 1 << 63, (1 << 64) - 1, self.values, self.guard
        for j, stored in enumerate(cols):
            w = stored >> shift & field
            if w != off and j != col:  # a column with w == 0 is unchanged
                t = stored - (w - off) * multiplier
                if t & guard:
                    raise OverflowError("a fixed-point entry leaves its field")
                cols[j] = t & values
        cols[col] = packed
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]


def minimax_solve(game: BimatrixGame) -> MinimaxSolution:
    """Exact minimax value and optimal strategies of a zero-sum game.

    Unless ``u2 == -u1`` this raises :class:`NotZeroSum`.  Each matrix is
    in lowest terms over its unique least common denominator, so the test
    is ``den2 == den1`` and ``num2 == -num1`` on every cell.
    The LP runs on ``a = (v - low) / g + 1``, where ``u1 == v / den`` over
    integers, ``low`` is the least entry of ``v`` and ``g`` the gcd of the
    differences ``v - low`` (1 when every entry is equal).  This is the
    smallest positive integer matrix in u1's positive affine class, so it
    depends only on that class: every ``c*u1 + d`` with ``c > 0`` gets the
    same LP, the same pivots and the same strategies, and a disguised game
    is solved on its core's own integers.  The value of ``u1`` is
    ``((low - g) + g*value(a)) / den``.

    Guess, certify, fall back.  :class:`_Guess` runs the simplex's own
    pivot loop on ``a`` in fixed point and reads the row support ``R`` (the
    nonbasic slacks) and the column support ``S`` (the basic structurals)
    off its last basis.  :func:`_certify` then solves the column player's
    system on the square ``a[R][S]`` and the row player's on its transpose
    exactly (Shapley & Snow 1950).  It accepts only when ``|R| == |S|``,
    ``a[R][S]`` is nonsingular, every weight is positive and
    complementarity is strict: rows outside ``R`` earn strictly less than
    the value and columns outside ``S`` concede strictly more.  Such a pair
    is the game's only optimum (Kaplansky 1945; Bohnenblust, Karlin &
    Shapley 1950), so it is what the exact simplex would return.  When the
    guess stops on a false unbounded column or its pivot budget, or the
    certificate fails, the positive-matrix value LP is solved exactly, the
    column player's optimum read off its primal and the row player's off
    its dual prices.  Both loops have the same budget,
    ``PIVOTS_PER_DIMENSION * (m + n)`` pivots; a corrupted exact tableau
    that cannot reach an optimum raises :class:`PivotBudgetExceeded`.
    Whichever path answers, the guarantee inequalities are re-verified
    exactly, in integers, on the original matrix before returning.

    The value is unique.  When the optimal strategy set is not a single
    point, the certificate fails, so the exact simplex answers, and which
    optimal strategy it returns depends on the pivoting rule and may change
    between versions.
    """
    minus_num1 = tuple(tuple(map(neg, row)) for row in game.num1)
    if (game.den2, game.num2) != (game.den1, minus_num1):
        raise NotZeroSum(f"u2 is not -u1: {detect_affine(game).to_json_dict()}")
    m, n = game.rows, game.cols
    den, v = game.den1, game.num1  # u1 == v / den
    low = min(min(row) for row in v)
    # v == (low - g) + g*a, so u1 and a share their optima; g is 0 only
    # when every entry equals low, and then any g > 0 will do
    g = math.gcd(*(entry - low for row in v for entry in row)) or 1
    a = [[(entry - low) // g + 1 for entry in row] for row in v]

    supports = _guess_supports(a)
    optimum = _certify(a, *supports) if supports else None
    if optimum is None:
        div, total, q, p = _Simplex(a, [1] * m, [1] * n).solve()
        # the LP optimum total/div is the reciprocal of the value of a
        optimum = (
            MixedStrategy.from_weights(p),
            MixedStrategy.from_weights(q),
            Fraction(div, total),
        )
    x, y, value_a = optimum
    # alpha*u1 - beta == a, so u1's value is a's mapped back
    value = AffineTransform(Fraction(den, g), Fraction(low - g, g)).u1_value(value_a)

    # sum_i x_i u1_ij >= value, cross-multiplied by the positive
    # denominators of x, u1 and value; likewise for y
    num, vden = value.numerator, value.denominator
    if any(s * vden < num * x.den * den for s in _row_sums(zip(*v), x.weights)):
        raise AssertionError("row guarantee certificate failed")
    if any(s * vden > num * y.den * den for s in _row_sums(v, y.weights)):
        raise AssertionError("column guarantee certificate failed")
    return MinimaxSolution(value=value, row_strategy=x, col_strategy=y)


def _guess_supports(
    a: list[list[int]],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The supports ``(R, S)`` that the fixed-point simplex ends on for the
    value LP of the positive matrix ``a``: the rows whose slack is
    nonbasic and the columns that are basic.  None when the guess raises,
    on a column that its rounding made look unbounded or on the pivot
    budget; that is a reason to fall back, not an error.  Wider than
    ``D = GUESS_DATA_BITS`` bits, ``a`` is guessed on as ``(e >> s) + 1``,
    ``s = bits(max a) - D``, entries of at most ``2**D`` whose supports
    are often ``a``'s; the certificate tests them on the exact ``a``.
    """
    n = len(a[0])
    shift = max(map(max, a)).bit_length() - GUESS_DATA_BITS
    if shift > 0:
        a = [[(e >> shift) + 1 for e in row] for row in a]
    try:
        guess = _Guess(a)
        guess.optimize()
    except (ArithmeticError, PivotBudgetExceeded):
        return None
    rows = tuple(sorted(var - n for var in guess.nonbasic if var >= n))
    cols = tuple(sorted(var for var in guess.basis if var < n))
    return rows, cols


def _certify(
    a: list[list[int]], rows: tuple[int, ...], cols: tuple[int, ...]
) -> tuple[MixedStrategy, MixedStrategy, Fraction] | None:
    """``(x, y, value)`` of the matrix game ``a`` (the row player's
    payoffs, all positive) when it has exactly one optimal strategy pair
    and its supports are ``rows`` and ``cols``; None otherwise.

    Each player's weights come from :func:`_indifference` on the square
    ``A = a[rows][cols]`` (Shapley & Snow 1950): the column player's ``Y``
    on ``a`` itself, and the row player's ``X`` on the column player's own
    positive payoffs ``top - a^T``, ``top = max(a) + 1``, which shift
    ``-a^T`` by a constant and so leave its solutions alone.  Every row of
    ``rows`` earns ``d`` against ``Y``, so the value is ``d / sum(Y)``.

    The pair is accepted only when both systems are nonsingular with
    positive weights and complementarity is strict: no action outside a
    support ties the indifference payoff.  Any optimal ``y`` then concedes
    the value on every row of ``rows`` (``x`` is positive there) and puts
    no weight outside ``cols`` (``x`` earns more there), so it solves
    ``A y = value 1``, which has one solution as ``A`` is nonsingular.
    Likewise for ``x``.
    """
    k = len(rows)
    if len(cols) != k:
        return None
    y = _indifference(a, rows, cols)
    if y is None or y[2] > k:
        return None
    top = max(map(max, a)) + 1
    x = _indifference([[top - e for e in col] for col in zip(*a)], cols, rows)
    if x is None or x[2] > k:
        return None
    x_mix, y_mix = MixedStrategy.from_weights(x[0]), MixedStrategy.from_weights(y[0])
    return x_mix, y_mix, Fraction(y[1], sum(y[0]))


def _solve_square(a: list[list[int]], b: list[int]) -> tuple[int, list[int]] | None:
    """``(d, v)`` with ``d = |det a|`` and ``v = d a^-1 b`` in integers,
    for a square integer matrix ``a``; None exactly when ``a`` is singular.

    Forward elimination on ``[a | b]`` is fraction-free (Bareiss 1968).
    Step ``k`` pivots on the first row at or below the diagonal whose
    entry in column ``k`` is not 0, and maps each entry ``v`` of a row
    below to ``(p*v - f*w) // q``, where ``p`` is the pivot, ``f`` the
    row's entry in column ``k``, ``w`` the pivot row's entry in ``v``'s
    column and ``q`` the previous step's pivot (1 at first).  Each entry is
    then a minor of the row-permuted ``[a | b]`` (Sylvester's identity), so
    ``// q`` divides exactly, and the last pivot is ``det a`` up to the
    permutation's sign.  A column with no nonzero pivot lies in the span
    of the columns before it, so ``a`` is singular.

    Back-substitution runs upward on the triangular rows: with ``D`` the
    last pivot, each ``D x_i`` is an integer by Cramer's rule, so ``v_i =
    (D c_i - sum_{j>i} u_ij v_j) // u_ii`` divides exactly too.
    """
    rows = [[*row, bi] for row, bi in zip(a, b)]
    upper, q = [], 1  # the pivot rows, each from its diagonal entry on
    while rows:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return None
        rows[0], rows[p] = rows[p], rows[0]
        top, *rows = rows
        pivot, tail = top[0], top[1:]
        for i, row in enumerate(rows):
            f = row[0]
            rows[i] = [(pivot * v - f * w) // q for v, w in zip(row[1:], tail)]
        upper.append(top)
        q = pivot
    v: list[int] = []
    for top in reversed(upper):
        v.insert(0, (q * top[-1] - sum(map(mul, top[1:-1], v))) // top[0])
    return (q, v) if q > 0 else (-q, [-e for e in v])


def support_enumeration(game: BimatrixGame) -> EquilibriumSet:
    """All equilibria found by equal-size support enumeration.

    Each player's numerators are shifted by a constant to be positive,
    ``num1 - min(num1) + 1`` for the row player and the same on ``num2``
    transposed for the column player, which changes no indifference
    solution and moves the payoff by the shift.  For each support pair
    :func:`_indifference` solves both systems, as the certificate does;
    candidates must put strictly positive weight on their support and
    survive the exact best-response inequalities, all checked in integers.
    Against weights ``w`` summing to ``s`` an owner whose shifted support
    earns ``d`` is paid ``(d + (min - 1)*s) / (s*den)``.
    Singular systems are skipped, so completeness is claimed only for
    nondegenerate games.  A game with more than :data:`MAX_ENUM_DIM` rows
    or columns raises :class:`TooLarge`.

    Pruning (Porter, Nudelman & Shoham 2008): a pair ``(R, S)`` is not
    solved when some row in ``R`` earns the row player strictly less than
    some other row on every column of ``S``, or some column in ``S`` earns
    the column player strictly less than some other column on every row of
    ``R``.  A solution with
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
    # each player's own numerators shifted by min - 1, one row per own action
    low1, low2 = (min(map(min, num)) - 1 for num in (game.num1, game.num2))
    p1 = [[v - low1 for v in row] for row in game.num1]
    p2 = [[v - low2 for v in col] for col in zip(*game.num2)]
    # bitmask of the undominated rows per column support, and vice versa
    rows_fit = _undominated(p1, n)
    cols_fit = _undominated(p2, m)
    found = []
    for k in range(1, min(m, n) + 1):
        col_sups = [(sup, _bits(sup)) for sup in combinations(range(n), k)]
        for rows_sup in combinations(range(m), k):
            r = _bits(rows_sup)
            fit = cols_fit[r]
            for cols_sup, s in col_sups:
                if s & fit != s or r & rows_fit[s] != r:
                    continue
                y = _indifference(p1, rows_sup, cols_sup)
                if y is None:
                    continue
                x = _indifference(p2, cols_sup, rows_sup)
                if x is None:
                    continue
                # at the equilibrium each player earns the indifference value
                (wy, dy, _), (wx, dx, _) = y, x
                sy, sx = sum(wy), sum(wx)
                payoffs = (
                    Fraction(dy + low1 * sy, sy * game.den1),
                    Fraction(dx + low2 * sx, sx * game.den2),
                )
                x_mix, y_mix = (MixedStrategy.from_weights(w) for w in (wx, wy))
                found.append(Equilibrium(x_mix, y_mix, payoffs))
    return EquilibriumSet(tuple(found))


def _bits(actions: tuple[int, ...]) -> int:
    return sum(1 << a for a in actions)


def _undominated(payoff: list[list[int]], others: int) -> list[int]:
    """For each bitmask ``s`` of opponent actions, the bitmask of own
    actions that no own action beats strictly on every action in ``s``.

    ``payoff[a][b]`` is the owner's payoff when own action ``a`` meets
    opponent action ``b``, up to a positive scale and a constant shift,
    neither of which changes a strict comparison.
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
    payoff: list[list[int]], own: tuple[int, ...], other: tuple[int, ...]
) -> tuple[list[int], int, int] | None:
    """``(weights, d, ties)`` for the owner of the positive integer matrix
    ``payoff``, one row per own action: opponent weights on ``other``, 0
    elsewhere, against which each action of ``own`` earns ``d``, and how
    many own actions earn exactly ``d``.  None when ``A =
    payoff[own][other]`` is singular, a weight is not positive or an own
    action earns more than ``d``.  The weights are ``d A^-1 1`` with
    ``d = |det A|``, from :func:`_solve_square`.

    This accepts exactly what the bordered system ``M [y; v] = e_last``,
    ``M = [[A, -1], [1...1, 0]]`` (each action of ``own`` earns ``v``
    against weights ``y`` that sum to 1), accepts under the same checks.
    ``M`` is nonsingular with ``v != 0`` exactly when ``A`` is nonsingular
    and ``s = sum(A^-1 1) != 0``, and then ``y`` is ``A^-1 1 / s``: a null
    vector of ``A`` summing to 1 solves ``M`` with ``v = 0``, one summing
    to 0 is a null vector of ``M`` too, and with ``A`` nonsingular ``s`` is
    ``M``'s Schur complement.  Positive payoffs and positive weights make
    ``v > 0`` and ``s > 0``, so each side's accepted weights are the
    other's times a positive number, and the best-response checks do not
    depend on the scale.
    """
    square = [[payoff[i][j] for j in other] for i in own]
    solved = _solve_square(square, [1] * len(own))
    if solved is None:
        return None
    d, weights = solved
    if min(weights) <= 0:
        return None
    weights = _spread(other, weights, len(payoff[0]))
    earned = _row_sums(payoff, weights)
    if max(earned) > d:
        return None
    return weights, d, earned.count(d)


def _spread(support: tuple[int, ...], weights: list[int], size: int) -> list[int]:
    """``weights`` on the actions of ``support`` and 0 on the other actions
    of ``size``."""
    full = [0] * size
    for j, w in zip(support, weights):
        full[j] = w
    return full


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

    Enumerates equilibria of the game and of its zero-sum normalization
    and compares them as sets of ``(x, y, payoffs)``, with each normalized
    row payoff mapped back by :meth:`AffineTransform.u1_value`; column
    payoffs must be equal as they are, since normalizing leaves ``u2``
    alone.  This is the same as requiring equal strategy sets and matching
    payoffs per strategy pair: an enumerated equilibrium's supports are
    exactly its support pair, so each ``(x, y)`` occurs at most once per
    list.  When neither enumeration finds an equilibrium (only a degenerate
    game allows that) nothing is compared, and it returns True trivially;
    callers counting agreements must check.
    """
    original = support_enumeration(game)
    normalized = support_enumeration(to_zero_sum(game, t))
    return {(e.x, e.y, e.payoffs) for e in original} == {
        (z.x, z.y, (t.u1_value(z.payoffs[0]), z.payoffs[1])) for z in normalized
    }
