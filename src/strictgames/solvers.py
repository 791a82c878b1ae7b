"""Exact game solving: minimax by simplex and a support-enumeration oracle.

Each mechanism is described once, where it is implemented:

- :func:`minimax_solve` maps the row payoffs to the smallest positive
  integer matrix in their affine class, guesses the optimal basis of its
  value LP, certifies it, and falls back to the exact simplex.
- :class:`_Guess` is the guess, the simplex's own pivot loop in fixed point
  on a packed tableau; :func:`_certify` accepts only a unique optimum, so
  every answer is the exact simplex's.
- :class:`_Simplex` is the exact fraction-free simplex; its pivot also
  solves the square systems of the certificate and of
  :func:`support_enumeration`, which cross-checks small games.

No float enters any path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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
    labels (structural ``0..n-1``, slack ``n+i`` for row ``i``).  The ``m``
    constraint rows come first; the objective row ``-c``, when ``c`` is
    given, is the last row, so a square solve carries none.  It is kept
    fraction-free by integer pivoting (Bareiss): every entry is the true
    tableau entry times the common divisor ``div``, and each update divides
    exactly by the previous pivot, so entries stay integers.  A pivot at
    ``(r, c)`` with pivot ``p`` and divisor ``d`` maps every other column
    entry of every other row to ``(p*v - f*w) // d``, leaves row ``r`` as
    it is, and turns column ``c`` into the leaving variable's column:
    ``-a_ic`` in each other row ``i`` and ``d`` in row ``r``.

    Exact division: by Cramer's rule each true entry is a determinant of
    the current basis matrix with one column replaced by an original
    column, divided by the basis determinant, and ``div`` is that basis
    determinant, so every stored entry is the determinant of an integer
    matrix.  The update forms ``p*v - f*w == d * new`` (Sylvester's
    identity), so ``// d`` divides exactly.  This needs each pivot to be
    nonzero, not positive: the LP's ratio test pivots on positive entries,
    ``solve_square`` on any nonzero one, which may leave ``div`` negative.

    Inverse: after :meth:`solve_square` on a nonsingular ``A``, every
    structural is basic and every slack nonbasic, and the tableau holds
    ``A``'s inverse times ``div``: ``rows[i][c] / div`` is the inverse's
    entry at ``(basis[i], nonbasic[c] - n)``, whatever the sign of
    ``div``, since ``v = A^-1 (b - s)`` is the basic solution in terms of
    the slacks ``s``.  :func:`_certify` reads the row player's weights off
    this.

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
    (Bland 1977), so every degenerate run ends.  :meth:`solve` still counts
    its pivots and raises :class:`PivotBudgetExceeded` past
    ``PIVOTS_PER_DIMENSION * (m + n)``, so a tableau whose invariants were
    broken fails fast instead of spinning; :meth:`solve_square` makes at
    most ``n`` pivots and needs no budget.
    """

    def __init__(
        self,
        a: list[list[int]],
        b: list[int],
        c: list[int] | None = None,
    ) -> None:
        self.m = len(a)
        self.n = len(a[0])
        self.rows = [list(ai) + [bi] for ai, bi in zip(a, b)]
        if c is not None:
            self.rows.append([-cj for cj in c] + [0])
        self.nonbasic = list(range(self.n))
        self.basis = [self.n + i for i in range(self.m)]
        self.div = 1

    def _objective(self) -> list[int]:
        """The objective row: one reduced cost per column, then the
        objective value."""
        return self.rows[-1]

    def _column(self, col: int) -> tuple[list[int], list[int]]:
        """Column ``col`` and the right-hand side, constraint rows only."""
        rows = self.rows[: self.m]
        return [row[col] for row in rows], [row[-1] for row in rows]

    def _entering(self, bland: bool) -> int | None:
        """Column of the entering variable, or None at an optimum."""
        obj = self._objective()
        negative = [col for col, cost in enumerate(obj[:-1]) if cost < 0]
        if not negative:
            return None
        if bland:
            return min(negative, key=self.nonbasic.__getitem__)
        return min(negative, key=lambda col: (obj[col], self.nonbasic[col]))

    def _leaving(self, coefs: list[int], rhs: list[int]) -> int:
        # ratios compared by cross-multiplication; coefficients are positive
        best_num = best_den = 0
        best_row = -1
        for i, (coef, num) in enumerate(zip(coefs, rhs)):
            if coef > 0:
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
            coefs, rhs = self._column(col)
            row = self._leaving(coefs, rhs)
            run = run + 1 if rhs[row] == 0 else 0
            self._pivot(row, col)

    def solve_square(self) -> tuple[int, list[int]] | None:
        """Solve the square system ``A v = b``: ``(div, primal)`` with
        ``v_j = primal[j] / div``, or None when ``A`` is singular.

        Each structural variable in turn enters the basis on the first
        slack row with a nonzero entry in its column; the sign of ``b``
        plays no part.  When no slack row has one, the column lies in the
        span of the structural columns already basic, so ``A`` is singular.
        Afterwards every slack is nonbasic, that is zero.
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

    Built on data multiplied by ``2**B``, ``B = GUESS_BITS``, each entry is
    its true tableau entry in units of ``2**-B``, rounded down after every
    pivot, so entries keep their size instead of growing into basis
    determinants.  A pivot at ``(r, c)`` with pivot ``p`` maps an entry
    ``v`` of another row to ``v - ceil(ratio*w / 2**B)``, where
    ``ratio = (f << B) // p``, ``f`` is the row's entry in column ``c`` and
    ``w`` the pivot row's entry in the same column as ``v``; it maps the
    pivot row's ``w`` to ``w*inv >> B`` with ``inv = (1 << 2*B) // p``, and
    column ``c`` becomes ``-ratio``, ``inv`` in row ``r``.  The entering
    and leaving rules, the switch to Bland's rule and the pivot budget are
    :class:`_Simplex`'s own loop, which reads the tableau only through
    :meth:`_objective` and :meth:`_column`; storage and pivot are this
    class's.  The ratio test sees an entering-column entry at or below
    ``2**(B//2)`` units as 0, the pivot tolerance of Harris 1973 ("Pivot
    selection methods of the Devex LP code"): an entry whose true value is
    0 can round to a few units, and a pivot on it blows the tableau up.
    Rounding may still lead it to a wrong basis, or make a column look
    unbounded; the certificate catches the first, and the second raises
    ``ArithmeticError``.

    Storage: one integer per column, the right-hand side last.  Field
    ``i`` of a column, ``W`` bits at bit ``i*W``, holds row ``i``'s entry
    plus ``2**(F-1)``, shifted up by ``B``: its low ``B`` bits are 0, the
    ``F = W - B - 8`` bits above them the value region, so it holds entries
    in ``[-2**(F-1), 2**(F-1))``, and the top 8 bits a guard, zero in every
    stored column.  The ``m`` constraint rows come first and the objective
    is the top field, read off with one shift.  ``W`` is ``3*B`` plus the
    bit length of ``max(a)``, rounded up to whole bytes, which leaves
    entries ``B - 8`` bits or more beyond the data's.  That is enough
    because of the tolerance, which keeps every ratio ``f/p`` below
    ``2**(B//2)`` times ``f``: over the 1,224 ``solve-lp`` benchmark LPs
    of four seeds the longest entry has 48 bits, in a 64-bit value region.

    A pivot updates each column ``C`` whose pivot-row entry ``w`` is not 0
    in one pass: ``t = C - w*R`` and then ``t & VALUES``, where ``R`` holds
    ``ratio`` in each field and ``2**B - inv`` in field ``r``, and
    ``VALUES`` masks every value region.  Field ``i != r`` of ``t`` is
    ``(v + 2**(F-1))*2**B - ratio*w``, and clearing its low ``B`` bits
    leaves ``v + (-(ratio*w) >> B)`` plus the offset, shifted; field ``r``
    is ``(w + 2**(F-1))*2**B - w*(2**B - inv)``, which leaves
    ``w*inv >> B`` plus the offset.  These are exactly the entries the same
    pivot makes on a list of one integer per entry.

    Guard: a pivot raises ``OverflowError`` when it would store an entry
    outside the value region, and exactly then.  ``a`` is checked when the
    columns are built and the pivot column as it is packed.  Each other
    field of ``t`` must lie in ``[0, 2**(F+B))``.  A pivot-row entry with
    ``|w| * max|R|`` above ``2**(F+B+7)`` is refused first (some field of
    its column then lies far outside); below that every field of ``t``
    stays within ``255 * 2**(F+B)`` of zero, so none wraps by a whole
    ``2**W``, whose borrow would vanish in the low bits the mask clears.
    The lowest field out of range, negative or not, then shows a set guard
    bit, Python's ``&`` reading a negative ``t`` in two's complement, so
    ``t & GUARD`` sees every overflow and every borrow between fields.
    ``_guess_supports`` takes the error as a failed guess, and the exact
    simplex answers; correctness rests on the certificate, not on the
    guard.
    """

    def __init__(self, a: list[list[int]]) -> None:
        bits = GUESS_BITS
        self.m, self.n = m, n = len(a), len(a[0])
        self.nonbasic = list(range(n))
        self.basis = [n + i for i in range(m)]
        self.div = 1
        top = max(map(max, a))
        width = -(-(3 * bits + top.bit_length()) // 8) * 8
        self.width, self.value_bits = width, width - bits - 8
        self.offset = 1 << self.value_bits - 1
        if top << bits >= self.offset:  # F >= 2*B - 8 + top's bits: only if B < 9
            raise OverflowError("the data does not fit a field")
        size = width // 8
        self._fields = [slice(k, k + size) for k in range(0, size * (m + 1), size)]

        def fields(column: tuple[int, ...]) -> int:
            raw = b"".join([e.to_bytes(size, "little") for e in column])
            return int.from_bytes(raw, "little")

        def every_field(value: int) -> int:
            return int.from_bytes(value.to_bytes(size, "little") * (m + 1), "little")

        self.offsets = every_field(self.offset) << bits
        self.values = every_field((1 << self.value_bits) - 1) << bits
        self.guard = every_field((1 << width) - (1 << self.value_bits + bits))
        # a's column j, then -2**B, each entry shifted up by B twice: once
        # into units of 2**-B, once into its stored place
        start = self.offsets - (1 << m * width + 2 * bits)
        self.cols = [start + (fields(col) << 2 * bits) for col in zip(*a)]
        self.cols.append(start + (every_field(1) << 2 * bits))  # 2**B, then 0
        self._unpacked = None, []

    def _pack(self, entries: list[int]) -> int:
        """The stored column int of ``entries``, the objective last; raises
        ``OverflowError`` when an entry does not fit a field."""
        off, size = self.offset, self.width // 8
        if min(entries) < -off or max(entries) >= off:
            raise OverflowError("a fixed-point entry does not fit its field")
        fields = [(e + off).to_bytes(size, "little") for e in entries]
        return int.from_bytes(b"".join(fields), "little") << GUESS_BITS

    def _unpack(self, packed: int) -> list[int]:
        """The entries of a stored column int, the objective last."""
        off = self.offset
        raw = (packed >> GUESS_BITS).to_bytes(self.width // 8 * (self.m + 1), "little")
        return [int.from_bytes(raw[field], "little") - off for field in self._fields]

    def _objective(self) -> list[int]:
        shift, off = self.m * self.width + GUESS_BITS, self.offset
        return [(packed >> shift) - off for packed in self.cols]

    def _column(self, col: int) -> tuple[list[int], list[int]]:
        entries = self._unpack(self.cols[col])
        # kept for the pivot on this column that follows the ratio test
        self._unpacked = self.cols[col], entries
        tolerance = 1 << GUESS_BITS // 2
        coefs = [e if e > tolerance else 0 for e in entries[:-1]]
        return coefs, self._unpack(self.cols[-1])[:-1]

    def _pivot(self, row: int, col: int) -> None:
        bits, cols = GUESS_BITS, self.cols
        unpacked, entries = self._unpacked
        if unpacked is not cols[col]:
            entries = self._unpack(cols[col])
        pivot = entries[row]
        inverse = (1 << 2 * bits) // pivot
        ratios = [(f << bits) // pivot for f in entries]  # R's fields
        ratios[row] = (1 << bits) - inverse
        new = [-ratio for ratio in ratios]
        new[row] = inverse
        packed = self._pack(new)
        shift = row * self.width
        multiplier = (self.offsets - packed >> bits) + (1 << shift + bits)  # R
        limit = (1 << self.value_bits + bits + 7) // (max(map(abs, ratios)) or 1)
        # w keeps its offset until it is used
        off, field, shift = self.offset, (1 << self.value_bits) - 1, shift + bits
        low, high = off - limit, off + limit
        values, guard = self.values, self.guard
        for j, column in enumerate(cols):
            w = column >> shift & field
            if w != off and j != col:  # a column with w == 0 is unchanged
                if not low <= w <= high:
                    raise OverflowError("a fixed-point product leaves its field")
                t = column - (w - off) * multiplier
                if t & guard:
                    raise OverflowError("a fixed-point entry leaves its field")
                cols[j] = t & values
        cols[col] = packed
        self.basis[row], self.nonbasic[col] = self.nonbasic[col], self.basis[row]


def minimax_solve(game: BimatrixGame) -> MinimaxSolution:
    """Exact minimax value and optimal strategies of a zero-sum game.

    Unless :func:`detect_affine` certifies (1, 0), ``u2 == -u1``, this
    raises :class:`NotZeroSum`.
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
    indifference system on ``a[R][S]`` exactly and reads the row player's
    weights off the same tableau, since the row player's system is minus
    the transpose of the column player's (Shapley & Snow 1950).  It
    accepts only when ``|R| == |S|``, the system is nonsingular, every
    weight is positive and complementarity is strict: rows outside ``R``
    earn strictly less than the value and columns outside ``S`` concede
    strictly more.  Such a pair
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
    certificate = detect_affine(game)
    if certificate.transform != AffineTransform(1, 0):
        raise NotZeroSum(f"u2 is not -u1: {certificate.to_json_dict()}")
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
    value = Fraction(
        (low - g) * value_a.denominator + g * value_a.numerator,
        den * value_a.denominator,
    )

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
    budget; that is a reason to fall back, not an error.
    """
    n = len(a[0])
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

    One exact solve answers for both players (Shapley & Snow 1950).  The
    column player's indifference system on ``a[rows][cols]`` is the
    bordered system ``M [y; v] = e_last`` with ``M = [[a[rows][cols], -1],
    [1...1, 0]]``, and :meth:`_Simplex.solve_square` leaves ``M``'s inverse
    in its tableau.  The row player's system, with ``-a`` transposed as its
    payoffs, is ``-M^T [x; -v] = e_last``, so ``[x; -v]`` is minus the
    last row of that inverse, read off the row where the value variable is
    basic.  ``M`` is singular exactly when ``-M^T`` is, so a singular
    system rejects both players at once.

    The solution is accepted only with positive weights and strict
    complementarity.  Any optimal ``y`` then concedes the value on every
    row of ``rows`` (``x`` is positive there) and puts no weight outside
    ``cols`` (``x`` earns more there), so it solves the same system; that
    system has one solution, since ``M`` is nonsingular and the value of a
    positive matrix is not 0, which makes ``a[rows][cols]`` nonsingular
    too.  Likewise for ``x``.
    """
    k = len(rows)
    if len(cols) != k:
        return None
    system = _indifference_system(a, rows, cols)
    solved = system.solve_square()
    if solved is None:
        return None
    div, (*y, value) = solved
    # entry (i, c) of the tableau is div times the inverse's entry at
    # (basis[i], nonbasic[c] - (k+1)), and the slacks k+1.. are nonbasic;
    # x is minus the inverse's last row, the value variable k's
    last = system.rows[system.basis.index(k)]
    x = [0] * k
    for c, var in enumerate(system.nonbasic):
        if var <= 2 * k:
            x[var - k - 1] = -last[c]
    if div < 0:
        div, value, y, x = -div, -value, [-w for w in y], [-w for w in x]
    # x and y both sum to div, so both players' payoffs are value / div
    if min(y) <= 0 or min(x) <= 0:
        return None
    # a column concedes at least value exactly when, against the weights
    # -x, it earns the column player at most -value
    for payoff, other, weights, bound in (
        (a, cols, y, value),
        (zip(*a), rows, [-w for w in x], -value),
    ):
        ties = _best_reply_ties(payoff, other, weights, bound)
        if ties is None or ties > k:
            return None
    x_mix = MixedStrategy.from_weights(_spread(rows, x, len(a)))
    y_mix = MixedStrategy.from_weights(_spread(cols, y, len(a[0])))
    return x_mix, y_mix, Fraction(value, div)


def support_enumeration(game: BimatrixGame) -> EquilibriumSet:
    """All equilibria found by equal-size support enumeration.

    For each support pair the two indifference systems are solved exactly
    by :meth:`_Simplex.solve_square`, the same fraction-free pivot as the
    LP; candidates must put strictly positive weight on their support and
    survive the exact best-response inequalities, all checked in integers.
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
    payoff: list[list[int]],
    den: int,
    own: tuple[int, ...],
    other: tuple[int, ...],
) -> tuple[MixedStrategy, Fraction] | None:
    """The opponent mix on ``other`` that leaves the owner of ``payoff``
    indifferent over ``own`` and no better off elsewhere.

    ``payoff[a][b] / den`` is the owner's payoff when own action ``a``
    meets opponent action ``b``.  Returns the opponent's strategy and the
    owner's payoff against it.  None when the system is singular, a weight
    is not positive, or some own action earns more than that payoff.
    """
    solved = _indifference_system(payoff, own, other).solve_square()
    if solved is None:
        return None
    # the opponent plays other[t] with probability weights[t] / div (the
    # weights sum to div, the last equation) for a payoff of value / div
    div, (*weights, value) = solved
    if div < 0:
        div, value, weights = -div, -value, [-w for w in weights]
    if min(weights) <= 0:
        return None
    if _best_reply_ties(payoff, other, weights, value) is None:
        return None
    mix = MixedStrategy.from_weights(_spread(other, weights, len(payoff[0])))
    return mix, Fraction(value, div * den)


def _indifference_system(
    payoff: list[list[int]], own: tuple[int, ...], other: tuple[int, ...]
) -> _Simplex:
    """The square system for the opponent weights on ``other`` and the
    owner's payoff ``v``: each action of ``own`` earns ``v``, and the
    weights sum to 1.  Its matrix is ``[[payoff[own][other], -1],
    [1...1, 0]]``."""
    k = len(own)
    a = [[payoff[i][j] for j in other] + [-1] for i in own]
    a.append([1] * k + [0])
    return _Simplex(a, [0] * k + [1])


def _best_reply_ties(
    payoff, other: tuple[int, ...], weights: list[int], value: int
) -> int | None:
    """How many own actions earn exactly ``value`` against the opponent
    weights ``weights`` on ``other``; None when one earns more.

    ``payoff`` yields one row per own action, ``row[b]`` being its payoff
    against opponent action ``b``; ``value`` is on the scale of
    ``weights``.  When the ``k`` actions of a support earn ``value``
    exactly, more than ``k`` ties means an action outside it earns as much.
    """
    ties = 0
    for row in payoff:
        earned = sum(row[j] * w for j, w in zip(other, weights))
        if earned > value:
            return None
        ties += earned == value
    return ties


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
