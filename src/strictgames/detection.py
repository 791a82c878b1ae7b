"""Deciding whether a game's mixed extension is strictly competitive.

A game is strictly competitive (adversarial) when one player's weak
preference between any two profiles is always the reverse of the other's.
For the mixed extension of a finite game this holds exactly when the second
payoff matrix is a negatively sloped affine image of the first, so the
decision procedure is constructive: solve for the unique candidate slope and
intercept from one anchor pair of cells, then verify every cell.  The
verdict therefore always comes with a certificate: the affine transform on
success, or a concrete failing cell or profile pair otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count

from .errors import AlphaNonpositiveError
from .games import (
    BimatrixGame,
    Cell,
    MixedProfile,
    expected_utility,
    pure_profile,
    random_strategy,
    uniform_strategy,
)
from .rational import common_denominator, format_rational, parse_rational


@dataclass(frozen=True)
class AffineTransform:
    """The pair (alpha, beta) with alpha > 0 linking the two payoffs.

    For an adversarial game, ``u2 == -alpha * u1 + beta`` on every cell.
    Both are read by :func:`~strictgames.rational.parse_rational`.
    """

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", parse_rational(self.alpha))
        object.__setattr__(self, "beta", parse_rational(self.beta))
        if self.alpha <= 0:
            raise AlphaNonpositiveError(f"alpha must be > 0, got {self.alpha}")

    def u1_value(self, v: Fraction) -> Fraction:
        """The row player's payoff whose normalized payoff is ``v``: the
        inverse of ``u1 -> alpha*u1 - beta`` (see :func:`to_zero_sum`)."""
        return (v + self.beta) / self.alpha


@dataclass(frozen=True)
class AffineMismatch:
    """A cell where the candidate affine relation fails."""

    cell: Cell
    expected: Fraction
    actual: Fraction


@dataclass(frozen=True)
class OrdinalViolation:
    """A pure profile pair on which the two preferences do not reverse."""

    sigma: Cell
    tau: Cell


@dataclass(frozen=True)
class AlphaNonpositive:
    """Anchors whose induced slope is not positive."""

    anchors: tuple[Cell, Cell]
    alpha: Fraction
    beta: Fraction


Witness = AffineMismatch | OrdinalViolation | AlphaNonpositive

ADVERSARIAL = "adversarial"
DEGENERATE = "degenerate"
NOT_ADVERSARIAL = "not_adversarial"


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the adversariality decision, with certificate."""

    status: str
    transform: AffineTransform | None = None
    witness: Witness | None = None
    note: str | None = None

    @classmethod
    def adversarial(cls, t: AffineTransform) -> "DetectionResult":
        return cls(ADVERSARIAL, transform=t)

    @classmethod
    def degenerate(cls, t: AffineTransform) -> "DetectionResult":
        return cls(DEGENERATE, transform=t, note="both payoffs constant")

    @classmethod
    def not_adversarial(cls, w: Witness) -> "DetectionResult":
        return cls(NOT_ADVERSARIAL, witness=w)

    @property
    def is_adversarial(self) -> bool:
        return self.status in (ADVERSARIAL, DEGENERATE)

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.transform is not None:
            out["alpha"] = format_rational(self.transform.alpha)
            out["beta"] = format_rational(self.transform.beta)
        if self.note is not None:
            out["note"] = self.note
        if self.witness is not None:
            out["witness"] = witness_to_json_dict(self.witness)
        return out


def witness_to_json_dict(w: Witness) -> dict:
    if isinstance(w, AffineMismatch):
        return {
            "kind": "affine_mismatch",
            "cell": list(w.cell),
            "expected": format_rational(w.expected),
            "actual": format_rational(w.actual),
        }
    if isinstance(w, OrdinalViolation):
        return {
            "kind": "ordinal_violation",
            "sigma": list(w.sigma),
            "tau": list(w.tau),
        }
    return {
        "kind": "alpha_nonpositive",
        "anchors": [list(c) for c in w.anchors],
        "alpha": format_rational(w.alpha),
        "beta": format_rational(w.beta),
    }


def pure_ordinal_competitive(game: BimatrixGame) -> bool | OrdinalViolation:
    """Check the strict-competitiveness biconditional on pure profiles only.

    Scans all ordered pairs of cells in row-major order and returns the
    first pair where ``u1(sigma) >= u1(tau)`` and ``u2(sigma) <= u2(tau)``
    disagree, or True if none exists.  Passing this check does not imply the
    mixed extension is adversarial.
    """
    cells = game.cells()
    a, b = game.num1, game.num2  # one positive denominator per matrix
    for sigma in cells:
        for tau in cells:
            ge1 = a[sigma[0]][sigma[1]] >= a[tau[0]][tau[1]]
            le2 = b[sigma[0]][sigma[1]] <= b[tau[0]][tau[1]]
            if ge1 != le2:
                return OrdinalViolation(sigma, tau)
    return True


def _fit_affine(
    a: list, da: int, b: list, db: int, cols: int | None = None, anchors=None
) -> DetectionResult:
    """Fit ``b == -alpha*a + beta`` with alpha > 0 through every point.

    Point ``k`` is ``(a[k]/da, b[k]/db)``, ``da, db > 0``.  Only a witness
    names a point: ``divmod(k, cols)``, its cell in a row-major matrix, or
    ``k`` when ``cols`` is None.  When ``a`` is constant the fit exists
    exactly when ``b`` is constant too, and the canonical (alpha=1,
    beta=b0+a0) is reported.  Otherwise the candidate is the line through
    the points at indices ``anchors`` (by default the first point and the
    first with a different ``a``), rejected if alpha <= 0, and checked at
    every point by integer cross-multiplication.
    """

    def label(k: int):
        return k if cols is None else divmod(k, cols)

    distinct = next((k for k, v in enumerate(a) if v != a[0]), None)
    if distinct is None:
        off = next((k for k, v in enumerate(b) if v != b[0]), None)
        if off is None:
            return DetectionResult.degenerate(
                AffineTransform(Fraction(1), Fraction(b[0], db) + Fraction(a[0], da))
            )
        # a ties every pair, so any two points with different b break the
        # biconditional; orient sigma toward the larger b.
        sigma, tau = (0, off) if b[0] > b[off] else (off, 0)
        return DetectionResult.not_adversarial(OrdinalViolation(label(sigma), label(tau)))

    p, q = (0, distinct) if anchors is None else anchors
    if a[p] == a[q]:
        raise ValueError("anchor cells must have distinct u1 values")
    a_p, b_p = a[p], b[p]
    run, rise = a[q] - a_p, b[q] - b_p
    alpha = Fraction(-rise * da, run * db)
    beta = Fraction(b_p, db) + alpha * Fraction(a_p, da)
    if alpha <= 0:
        return DetectionResult.not_adversarial(
            AlphaNonpositive((label(p), label(q)), alpha, beta)
        )
    for k, x, y in zip(count(), a, b):
        if (y - b_p) * run != rise * (x - a_p):
            return DetectionResult.not_adversarial(
                AffineMismatch(label(k), -alpha * Fraction(x, da) + beta, Fraction(y, db))
            )
    return DetectionResult.adversarial(AffineTransform(alpha, beta))


def detect_affine(
    game: BimatrixGame, anchors: tuple[Cell, Cell] | None = None
) -> DetectionResult:
    """Decide adversariality of the mixed extension, with certificate.

    This is :func:`_fit_affine` on the flat numerators in row-major order,
    labelling only a witness's cells; ``anchors``, when given (mainly to
    exercise anchor independence), are the candidate's two cells, and
    anchors outside the game raise ``ValueError``.  An entrywise affine
    relation extends to all mixed profiles by linearity of expectation, so
    this decides the mixed extension, not just the pure game.
    """
    rows, cols = game.rows, game.cols
    if anchors is not None:
        if not all(0 <= i < rows and 0 <= j < cols for i, j in anchors):
            raise ValueError(f"anchor cells {anchors} must lie in the game")
        anchors = tuple(i * cols + j for i, j in anchors)
    a, b = list(chain.from_iterable(game.num1)), list(chain.from_iterable(game.num2))
    return _fit_affine(a, game.den1, b, game.den2, cols, anchors)


def is_adversarial(game: BimatrixGame) -> bool:
    return detect_affine(game).is_adversarial


def three_profile_compatibility(
    game: BimatrixGame,
    p1: MixedProfile,
    p2: MixedProfile,
    p3: MixedProfile,
) -> AffineTransform | None:
    """Find (alpha, beta), alpha > 0, linking the three profiles' payoffs.

    Solves from the first two profiles with distinct first-player expected
    utilities and verifies all three.  If all three first-player values
    coincide, a compatible pair exists only when the second-player values
    also coincide; the canonical (1, e2+e1) of the first profile is returned
    in that case.
    """
    profiles = (p1, p2, p3)
    a, da = common_denominator(expected_utility(game, 1, p) for p in profiles)
    b, db = common_denominator(expected_utility(game, 2, p) for p in profiles)
    result = _fit_affine(a, da, b, db)
    return result.transform if result.is_adversarial else None


def _violates(game: BimatrixGame, sigma: MixedProfile, tau: MixedProfile) -> bool:
    ge1 = expected_utility(game, 1, sigma) >= expected_utility(game, 1, tau)
    le2 = expected_utility(game, 2, sigma) <= expected_utility(game, 2, tau)
    return ge1 != le2


def find_mixed_violation(
    game: BimatrixGame, budget: int, seed: int
) -> tuple[MixedProfile, MixedProfile] | None:
    """Randomized search for a profile pair breaking strict competitiveness.

    Draws up to ``budget`` pairs, cycling three pools with equal weight:
    pure vs pure, pure vs random, and random vs random.  Random coordinates
    are bounded-denominator mixtures, with the uniform strategy mixed in so
    that pure-versus-barycenter witnesses are reachable.  Returning None
    proves nothing; :func:`is_adversarial` is the decision procedure.
    """
    if type(budget) is not int or type(seed) is not int or budget < 1:
        raise ValueError("budget must be an int >= 1 and seed an int")
    rng = random.Random(seed)
    cells = game.cells()

    def pure() -> MixedProfile:
        return pure_profile(rng.choice(cells), game)

    def rand() -> MixedProfile:
        def side(n: int):
            if rng.randrange(4) == 0:
                return uniform_strategy(n)
            return random_strategy(rng, n)

        return MixedProfile(side(game.rows), side(game.cols))

    pools = ((pure, pure), (pure, rand), (rand, rand))
    for k in range(budget):
        make_sigma, make_tau = pools[k % 3]
        sigma, tau = make_sigma(), make_tau()
        if _violates(game, sigma, tau):
            return sigma, tau
    return None


def to_zero_sum(game: BimatrixGame, t: AffineTransform) -> BimatrixGame:
    """Replace u1 by ``alpha*u1 - beta`` so the sum with u2 cancels.

    When ``t`` comes from :func:`detect_affine` on the same game, the result
    is zero-sum entrywise, exactly.
    """
    # with alpha = p/q, beta = r/s and u1 = v/den, alpha*u1 - beta is
    # (p*s*v - r*q*den) / (q*s*den), which BimatrixGame reduces once
    (p, q), (r, s) = t.alpha.as_integer_ratio(), t.beta.as_integer_ratio()
    slope, shift, den = p * s, r * q * game.den1, q * s * game.den1
    v1 = [[slope * v - shift for v in row] for row in game.num1]
    return BimatrixGame(v1, den, game.num2, game.den2)
