"""Finite two-player bimatrix games with exact mixed-strategy evaluation.

A game holds two equally shaped payoff matrices of rationals, one per
player.  Mixed strategies are exact points of the probability simplex over
one player's actions, and expected utility is the exact bilinear double sum
over the product of the two simplices.  Both are stored as integers over a
positive common denominator in lowest terms, with read-only ``Fraction``
views.  Everything here is immutable and pure, so values can be shared
freely across threads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from .errors import DimensionMismatch, EmptyGame, FormatError, ShapeMismatch
from .errors import WeightOutOfRange
from .rational import common_denominator, integer_rows, parse_rational
from .rational import random_simplex_point, random_weight

Matrix = tuple[tuple[Fraction, ...], ...]

IntMatrix = tuple[tuple[int, ...], ...]

Cell = tuple[int, int]


@dataclass(frozen=True)
class BimatrixGame:
    """Two payoff matrices over the same finite action sets.

    When row action ``i`` meets column action ``j`` the row player's payoff
    is ``u1[i][j] == num1[i][j] / den1`` and the column player's
    ``u2[i][j] == num2[i][j] / den2``, each denominator a positive ``int``
    (else :class:`FormatError`) reduced with its matrix on construction,
    which also raises :class:`EmptyGame` or :class:`ShapeMismatch`, both
    kinds of :class:`FormatError`, unless both matrices are nonempty,
    rectangular and equally shaped: the package's one shape check.
    Entries are not checked one by one.  ``u1`` and ``u2`` are built on first
    access and kept.
    """

    num1: IntMatrix
    den1: int
    num2: IntMatrix
    den2: int

    def __post_init__(self) -> None:
        shapes = {}
        for u, num, den in (("u1", "num1", "den1"), ("u2", "num2", "den2")):
            rows, d = tuple(map(tuple, getattr(self, num))), getattr(self, den)
            if type(d) is not int or d < 1:
                raise FormatError(f"{den} must be a positive int, not {d!r}")
            if d > 1 and (g := math.gcd(d, *chain.from_iterable(rows))) > 1:
                rows, d = tuple(tuple(v // g for v in r) for r in rows), d // g
            object.__setattr__(self, num, rows)
            object.__setattr__(self, den, d)
            shapes[u] = len(rows), sorted({len(r) for r in rows})
        if any(not height or 0 in widths for height, widths in shapes.values()):
            raise EmptyGame("payoff matrices must be nonempty")
        for u, (_, widths) in shapes.items():
            if len(widths) > 1:
                raise ShapeMismatch(f"{u} has rows of widths {widths}")
        (h1, (w1,)), (h2, (w2,)) = shapes.values()
        if (h1, w1) != (h2, w2):
            raise ShapeMismatch(f"u1 is {h1}x{w1} but u2 is {h2}x{w2}")

    @cached_property
    def u1(self) -> Matrix:
        return tuple(tuple(Fraction(v, self.den1) for v in row) for row in self.num1)

    @cached_property
    def u2(self) -> Matrix:
        return tuple(tuple(Fraction(v, self.den2) for v in row) for row in self.num2)

    @property
    def rows(self) -> int:
        return len(self.num1)

    @property
    def cols(self) -> int:
        return len(self.num1[0])

    def cells(self) -> list[Cell]:
        """All pure profiles in row-major order."""
        return [(i, j) for i in range(self.rows) for j in range(self.cols)]


def new_game(u1: object, u2: object) -> BimatrixGame:
    """Two matrices of numbers (``Fraction``, integer or ``"n/d"``; floats
    and booleans raise :class:`FormatError`) as a game, each scaled by
    :func:`~strictgames.rational.integer_rows`, which caps its common
    denominator at 4,300 digits; :class:`BimatrixGame` checks the shapes."""
    return BimatrixGame(
        *integer_rows([list(row) for row in u1]),  # type: ignore[attr-defined]
        *integer_rows([list(row) for row in u2]),  # type: ignore[attr-defined]
    )


@dataclass(frozen=True, init=False)
class MixedStrategy:
    """An exact point of the probability simplex over one player's actions.

    Action ``k`` has probability ``weights[k] / den``: nonnegative integer
    weights in lowest terms over their sum.  ``MixedStrategy(probs)`` takes
    numbers (as :func:`new_game` does) summing to exactly 1,
    :meth:`from_weights` integer weights; ``probs`` (built on first access
    and kept), indexing and iteration are ``Fraction`` views.
    """

    weights: tuple[int, ...]
    den: int

    def __init__(self, probs) -> None:
        weights, den = common_denominator(probs)
        if sum(weights) != den:
            raise ValueError("probabilities must sum to exactly 1")
        self._store(tuple(weights))

    @classmethod
    def from_weights(cls, weights) -> MixedStrategy:
        """The strategy proportional to integer ``weights``; a weight whose
        type is not exactly ``int``, a ``bool`` included, raises
        :class:`FormatError`."""
        weights = tuple(weights)
        if any(type(w) is not int for w in weights):
            raise FormatError(f"weights must be ints, not {weights!r}")
        self = object.__new__(cls)
        self._store(weights)
        return self

    def _store(self, weights: tuple[int, ...]) -> None:
        g = math.gcd(*weights)  # 0 when every weight is 0
        if not g or min(weights) < 0:
            raise ValueError("weights must be nonnegative and not all zero")
        if g > 1:
            weights = tuple(w // g for w in weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "den", sum(weights))

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.den) for w in self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.weights[i], self.den)

    def __iter__(self):
        return iter(self.probs)


@dataclass(frozen=True)
class MixedProfile:
    """A mixed strategy for each player."""

    x: MixedStrategy
    y: MixedStrategy


def pure_strategy(i: int, n: int) -> MixedStrategy:
    """Point mass on action ``i`` out of ``n``."""
    return MixedStrategy.from_weights(int(k == i) for k in range(n))


def uniform_strategy(n: int) -> MixedStrategy:
    return MixedStrategy.from_weights((1,) * n)


def pure_profile(cell: Cell, game: BimatrixGame) -> MixedProfile:
    i, j = cell
    return MixedProfile(pure_strategy(i, game.rows), pure_strategy(j, game.cols))


def uniform_profile(game: BimatrixGame) -> MixedProfile:
    return MixedProfile(uniform_strategy(game.rows), uniform_strategy(game.cols))


def random_strategy(rng: random.Random, n: int) -> MixedStrategy:
    return MixedStrategy.from_weights(random_simplex_point(rng, n))


def random_profile(rng: random.Random, game: BimatrixGame) -> MixedProfile:
    x = random_strategy(rng, game.rows)
    return MixedProfile(x, random_strategy(rng, game.cols))


def _row_sums(matrix: IntMatrix, w) -> list[int]:
    """``matrix @ w`` in integers, one dot product per row."""
    return [sum(map(mul, row, w)) for row in matrix]


def _mix_weights(p, q, w: tuple[int, int]) -> list[int]:
    """Weights of ``w*p + (1-w)*q`` for integer weights ``p``, ``q`` (each
    standing for itself over its sum) and ``w == P/Q``: ``P*dq*p +
    (Q-P)*dp*q``, which sum to ``Q*dp*dq``; nothing is reduced."""
    wp, wq = w[0] * sum(q), (w[1] - w[0]) * sum(p)
    return [wp * a + wq * b for a, b in zip(p, q)]


def expected_utility(game: BimatrixGame, player: int, p: MixedProfile) -> Fraction:
    """Exact expected payoff of ``player`` (1 or 2) under profile ``p``.

    This is the double sum over pure profiles weighted by the product of the
    two strategies' probabilities; it is bilinear in (x, y).
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    if len(p.x) != game.rows or len(p.y) != game.cols:
        raise DimensionMismatch(
            f"profile is {len(p.x)}x{len(p.y)}, game is {game.rows}x{game.cols}"
        )
    matrix, den_u = (game.num1, game.den1) if player == 1 else (game.num2, game.den2)
    total = sum(map(mul, p.x.weights, _row_sums(matrix, p.y.weights)))
    return Fraction(total, p.x.den * p.y.den * den_u)


def mix(p: MixedStrategy, q: MixedStrategy, w: Fraction) -> MixedStrategy:
    """Entrywise convex combination ``w*p + (1-w)*q``, exact.

    The output satisfies the simplex invariants without renormalization.
    """
    w = parse_rational(w)
    if not 0 <= w <= 1:
        raise WeightOutOfRange(f"weight {w} outside [0, 1]")
    if len(p) != len(q):
        raise DimensionMismatch(f"strategy lengths {len(p)} and {len(q)} differ")
    return MixedStrategy.from_weights(
        _mix_weights(p.weights, q.weights, w.as_integer_ratio())
    )


def verify_bilinearity(game: BimatrixGame, samples: int, seed: int) -> bool:
    """Self-test of :func:`expected_utility`: linearity in each coordinate.

    Draws random profile pairs and dyadic weights and checks, exactly, that
    mixing in either coordinate commutes with taking expectations, for both
    players' payoffs.  Holds identically for every game.
    """
    if type(samples) is not int or type(seed) is not int or samples < 1:
        raise ValueError("samples must be an int >= 1 and seed an int")
    rng = random.Random(seed)
    for _ in range(samples):
        sigma = random_profile(rng, game)
        tau = random_profile(rng, game)
        a = Fraction(*random_weight(rng))
        b = Fraction(*random_weight(rng))
        mx = mix(sigma.x, tau.x, a)
        my = mix(sigma.y, tau.y, b)
        for player in (1, 2):
            both = expected_utility(game, player, MixedProfile(mx, my))
            first = a * expected_utility(
                game, player, MixedProfile(sigma.x, my)
            ) + (1 - a) * expected_utility(game, player, MixedProfile(tau.x, my))
            second = b * expected_utility(
                game, player, MixedProfile(mx, sigma.y)
            ) + (1 - b) * expected_utility(game, player, MixedProfile(mx, tau.y))
            if both != first or both != second:
                return False
    return True
