"""Finite two-player bimatrix games with exact mixed-strategy evaluation.

A game holds two equally shaped payoff matrices of rationals, one per
player.  Mixed strategies are exact points of the probability simplex over
one player's actions, and expected utility is the exact bilinear double sum
over the product of the two simplices.  Everything here is immutable and
pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionMismatch, EmptyGame, ShapeMismatch, WeightOutOfRange
from .rational import DEFAULT_WEIGHT_BOUND, random_simplex_point, random_weight

Matrix = tuple[tuple[Fraction, ...], ...]

Cell = tuple[int, int]


def _freeze_matrix(rows: object) -> Matrix:
    out = []
    for row in rows:  # type: ignore[attr-defined]
        out.append(tuple(Fraction(entry) for entry in row))
    return tuple(out)


@dataclass(frozen=True)
class BimatrixGame:
    """Two payoff matrices over the same finite action sets.

    ``u1[i][j]`` is the row player's payoff and ``u2[i][j]`` the column
    player's payoff when row action ``i`` meets column action ``j``.
    """

    u1: Matrix
    u2: Matrix
    _scaled: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def rows(self) -> int:
        return len(self.u1)

    @property
    def cols(self) -> int:
        return len(self.u1[0])

    def cells(self) -> list[Cell]:
        """All pure profiles in row-major order."""
        return [(i, j) for i in range(self.rows) for j in range(self.cols)]

    def scaled_matrix(self, player: int) -> tuple[int, list[list[int]]]:
        """The player's matrix as (common denominator, integer entries).

        Memoized; lets expected utility accumulate in plain integers.
        """
        cached = self._scaled.get(player)
        if cached is None:
            matrix = self.u1 if player == 1 else self.u2
            den = 1
            for row in matrix:
                for v in row:
                    den = math.lcm(den, v.denominator)
            ints = [[v.numerator * (den // v.denominator) for v in row] for row in matrix]
            cached = (den, ints)
            self._scaled[player] = cached
        return cached


def new_game(u1: object, u2: object) -> BimatrixGame:
    """Validate and freeze two payoff matrices into a game.

    Raises :class:`EmptyGame` if either dimension is zero and
    :class:`ShapeMismatch` if the matrices are not equally shaped.
    """
    m1 = _freeze_matrix(u1)
    m2 = _freeze_matrix(u2)
    if len(m1) == 0 or len(m2) == 0 or any(len(r) == 0 for r in m1 + m2):
        raise EmptyGame("payoff matrices must be nonempty")
    if len({len(r) for r in m1} | {len(r) for r in m2}) != 1 or len(m1) != len(m2):
        raise ShapeMismatch(
            f"u1 is {len(m1)}x{len(m1[0])}, u2 is {len(m2)}x{len(m2[0])}"
        )
    return BimatrixGame(m1, m2)


@dataclass(frozen=True)
class MixedStrategy:
    """An exact point of the probability simplex over one player's actions."""

    probs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        probs = tuple(
            p if type(p) is Fraction else Fraction(p) for p in self.probs
        )
        object.__setattr__(self, "probs", probs)
        den = 1
        for p in probs:
            den = math.lcm(den, p.denominator)
        weights = tuple(p.numerator * (den // p.denominator) for p in probs)
        if any(w < 0 for w in weights):
            raise ValueError("probabilities must be nonnegative")
        if sum(weights) != den:
            raise ValueError("probabilities must sum to exactly 1")
        # integer weights over a common denominator, for fast exact sums
        object.__setattr__(self, "_scaled", (den, weights))

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> Fraction:
        return self.probs[i]

    def __iter__(self):
        return iter(self.probs)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)


@dataclass(frozen=True)
class MixedProfile:
    """A mixed strategy for each player."""

    x: MixedStrategy
    y: MixedStrategy


@lru_cache(maxsize=None)
def pure_strategy(i: int, n: int) -> MixedStrategy:
    """Point mass on action ``i`` out of ``n`` (memoized)."""
    return MixedStrategy(tuple(Fraction(int(k == i)) for k in range(n)))


@lru_cache(maxsize=None)
def uniform_strategy(n: int) -> MixedStrategy:
    return MixedStrategy((Fraction(1, n),) * n)


def pure_profile(cell: Cell, game: BimatrixGame) -> MixedProfile:
    i, j = cell
    return MixedProfile(pure_strategy(i, game.rows), pure_strategy(j, game.cols))


def uniform_profile(game: BimatrixGame) -> MixedProfile:
    return MixedProfile(uniform_strategy(game.rows), uniform_strategy(game.cols))


def random_strategy(
    rng: random.Random, n: int, max_weight: int = DEFAULT_WEIGHT_BOUND
) -> MixedStrategy:
    return MixedStrategy(random_simplex_point(rng, n, max_weight))


def random_profile(
    rng: random.Random, game: BimatrixGame, max_weight: int = DEFAULT_WEIGHT_BOUND
) -> MixedProfile:
    return MixedProfile(
        random_strategy(rng, game.rows, max_weight),
        random_strategy(rng, game.cols, max_weight),
    )


def _check_profile(game: BimatrixGame, p: MixedProfile) -> None:
    if len(p.x) != game.rows or len(p.y) != game.cols:
        raise DimensionMismatch(
            f"profile is {len(p.x)}x{len(p.y)}, game is {game.rows}x{game.cols}"
        )


def expected_utility(game: BimatrixGame, player: int, p: MixedProfile) -> Fraction:
    """Exact expected payoff of ``player`` (1 or 2) under profile ``p``.

    This is the double sum over pure profiles weighted by the product of the
    two strategies' probabilities; it is bilinear in (x, y).
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    _check_profile(game, p)
    den_u, matrix = game.scaled_matrix(player)
    den_x, wx = p.x._scaled
    den_y, wy = p.y._scaled
    total = 0
    for i, wi in enumerate(wx):
        if wi:
            row = matrix[i]
            row_sum = 0
            for j, vj in enumerate(wy):
                if vj:
                    row_sum += vj * row[j]
            total += wi * row_sum
    return Fraction(total, den_x * den_y * den_u)


def mix(p: MixedStrategy, q: MixedStrategy, w: Fraction) -> MixedStrategy:
    """Entrywise convex combination ``w*p + (1-w)*q``, exact.

    The output satisfies the simplex invariants without renormalization.
    """
    w = Fraction(w)
    if not 0 <= w <= 1:
        raise WeightOutOfRange(f"weight {w} outside [0, 1]")
    if len(p) != len(q):
        raise DimensionMismatch(f"strategy lengths {len(p)} and {len(q)} differ")
    cw = 1 - w
    return MixedStrategy(tuple(w * a + cw * b for a, b in zip(p.probs, q.probs)))


def verify_bilinearity(game: BimatrixGame, samples: int, seed: int) -> bool:
    """Self-test of :func:`expected_utility`: linearity in each coordinate.

    Draws random profile pairs and dyadic weights and checks, exactly, that
    mixing in either coordinate commutes with taking expectations, for both
    players' payoffs.  Holds identically for every game.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    for _ in range(samples):
        sigma = random_profile(rng, game)
        tau = random_profile(rng, game)
        a = random_weight(rng)
        b = random_weight(rng)
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
