"""Seeded game generators, one family per phenomenon under test.

Each family guarantees its defining property by construction and re-checks
it with the matching detector before returning, so tests can treat
generated games as certified fixtures:

- disguised zero-sum: an integer zero-sum core with the column player's
  payoff replaced by a negatively sloped affine image, the planted
  transform returned alongside the game;
- ordinal-not-affine: the column payoff is the negated cube of the row
  payoff, strictly decreasing (so pure outcomes still rank oppositely) but
  not affine on three or more generic values, which makes the mixed
  extension fail strict competitiveness;
- strategic zero-sum: a zero-sum core plus opponent-dependent offsets,
  detectable only by the separability test;
- uniform: independent integer payoffs, no structure.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .detection import ADVERSARIAL, NOT_ADVERSARIAL, AffineTransform, detect_affine
from .errors import BadSpec
from .games import BimatrixGame, new_game
from .strategic import strategically_zero_sum_detect


# the planted transform: alpha and beta are drawn from these closed ranges,
# each with a denominator of at most PLANT_DEN_MAX
PLANT_ALPHA_RANGE = (Fraction(1, 2), Fraction(8))
PLANT_BETA_RANGE = (Fraction(-10), Fraction(10))
PLANT_DEN_MAX = 8


class Family(enum.Enum):
    DISGUISED_ZERO_SUM = "disguised-zero-sum"
    ORDINAL_NOT_AFFINE = "ordinal-not-affine"
    STRATEGIC_ZERO_SUM = "strategic-zero-sum"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class GenSpec:
    """Everything a generator draw depends on; ``family`` may be a value."""

    family: Family
    rows: int
    cols: int
    seed: int
    value_bound: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if any(type(k) is not int for k in (self.rows, self.cols, self.seed, self.value_bound)):
            raise BadSpec("rows, cols, seed and value bound must be ints")
        if self.rows < 1 or self.cols < 1:
            raise BadSpec("dimensions must be >= 1")
        if self.value_bound < 1:
            raise BadSpec("value bound must be >= 1")
        if self.family is Family.ORDINAL_NOT_AFFINE:
            if self.rows * self.cols < 3:
                raise BadSpec("ordinal-not-affine needs at least three cells")
            if self.value_bound < 2:
                # bound 1 only admits the value set {-1, 0, 1}, on which the
                # cube coincides with a line, so no draw can ever succeed
                raise BadSpec("ordinal-not-affine needs a value bound >= 2")


def disguise(core, alpha: Fraction, beta: Fraction) -> BimatrixGame:
    """u1 = core, u2 = -alpha*core + beta."""
    u2 = [[-alpha * v + beta for v in row] for row in core]
    return new_game(core, u2)


def cube_opponent(u1) -> BimatrixGame:
    """u1 unchanged, u2 = -(u1 cubed) entrywise."""
    u2 = [[-(Fraction(v) ** 3) for v in row] for row in u1]
    return new_game(u1, u2)


def _random_matrix(rng: random.Random, rows: int, cols: int, bound: int):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def _random_rational_in(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi] with denominator at most PLANT_DEN_MAX."""
    while True:
        den = rng.randint(1, PLANT_DEN_MAX)
        lo_num = math.ceil(lo * den)
        hi_num = math.floor(hi * den)
        if lo_num <= hi_num:
            return Fraction(rng.randint(lo_num, hi_num), den)


def _nonconstant_matrix(rng: random.Random, rows: int, cols: int, bound: int):
    while True:
        m = _random_matrix(rng, rows, cols, bound)
        if len({v for row in m for v in row}) > 1:
            return m


def gen_disguised(
    rng: random.Random, spec: GenSpec
) -> tuple[BimatrixGame, AffineTransform]:
    """A disguised zero-sum game together with its planted transform."""
    if spec.rows * spec.cols == 1:
        core = _random_matrix(rng, 1, 1, spec.value_bound)
    else:
        core = _nonconstant_matrix(rng, spec.rows, spec.cols, spec.value_bound)
    alpha = _random_rational_in(rng, *PLANT_ALPHA_RANGE)
    beta = _random_rational_in(rng, *PLANT_BETA_RANGE)
    game = disguise(core, alpha, beta)
    planted = AffineTransform(alpha, beta)
    result = detect_affine(game)
    if not result.is_adversarial or (
        result.status == ADVERSARIAL and result.transform != planted
    ):
        raise AssertionError("disguised construction failed verification")
    return game, planted


def gen_ordinal(rng: random.Random, spec: GenSpec) -> BimatrixGame:
    """A pure-ordinal-competitive game whose mixed extension is not adversarial.

    Draws are retried until u1 has at least three distinct values and the
    cube transform is not affine on them: symmetric value sets such as
    {-c, 0, c} are rejected because the cube coincides with a line there,
    which would make the game adversarial after all.
    """
    for _ in range(10_000):
        u1 = _random_matrix(rng, spec.rows, spec.cols, spec.value_bound)
        if len({v for row in u1 for v in row}) < 3:
            continue
        game = cube_opponent(u1)
        if detect_affine(game).status == NOT_ADVERSARIAL:
            return game
    raise BadSpec("no ordinal-not-affine draw found for this spec")


def gen_strategic(rng: random.Random, spec: GenSpec) -> BimatrixGame:
    """A strategically zero-sum game from a core plus additive offsets."""
    core = _random_matrix(rng, spec.rows, spec.cols, spec.value_bound)
    col_off = [rng.randint(-spec.value_bound, spec.value_bound) for _ in range(spec.cols)]
    row_off = [rng.randint(-spec.value_bound, spec.value_bound) for _ in range(spec.rows)]
    u1 = [[v + off for v, off in zip(row, col_off)] for row in core]
    u2 = [[-v + off for v in row] for row, off in zip(core, row_off)]
    game = new_game(u1, u2)
    if strategically_zero_sum_detect(game) is None:
        raise AssertionError("strategic construction failed verification")
    return game


def gen_uniform(rng: random.Random, spec: GenSpec) -> BimatrixGame:
    return new_game(
        _random_matrix(rng, spec.rows, spec.cols, spec.value_bound),
        _random_matrix(rng, spec.rows, spec.cols, spec.value_bound),
    )


def gen(spec: GenSpec) -> BimatrixGame:
    """Draw one game of the requested family, deterministically from the seed."""
    rng = random.Random(spec.seed)
    if spec.family is Family.DISGUISED_ZERO_SUM:
        return gen_disguised(rng, spec)[0]
    if spec.family is Family.ORDINAL_NOT_AFFINE:
        return gen_ordinal(rng, spec)
    if spec.family is Family.STRATEGIC_ZERO_SUM:
        return gen_strategic(rng, spec)
    return gen_uniform(rng, spec)
