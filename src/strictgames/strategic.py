"""Strategic zero-sum equivalence by exact linear feasibility.

A bimatrix game is strategically equivalent to a zero-sum game when some
positive combination of the two payoff matrices separates into a row offset
plus a column offset: lambda1*u1 + lambda2*u2 = a_i + b_j on every cell.
Such offsets never change a player's best replies, so these games inherit
the zero-sum solution structure even when no affine relation between the
payoffs exists.  This strictly extends affine adversariality detection.

The decomposition is only determined up to positive scaling of the lambdas
and a constant shift between the offset vectors, so the reported
certificate is normalized: lambda1 = 1 and a[0] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .games import BimatrixGame
from .rational import common_denominator, format_rational


@dataclass(frozen=True)
class MvDecomposition:
    """Certificate that lambda1*u1 + lambda2*u2 separates by player action."""

    lambda1: Fraction
    lambda2: Fraction
    row_offsets: tuple[Fraction, ...]
    col_offsets: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "status": "strategically_zero_sum",
            "lambda1": format_rational(self.lambda1),
            "lambda2": format_rational(self.lambda2),
            "row_offsets": [format_rational(v) for v in self.row_offsets],
            "col_offsets": [format_rational(v) for v in self.col_offsets],
        }

    def verifies(self, game: BimatrixGame) -> bool:
        """Re-check the shape and, over one denominator, every cell in
        integers: the row check of :func:`_separates`."""
        shape = (len(self.row_offsets), len(self.col_offsets))
        if self.lambda1 <= 0 or self.lambda2 <= 0 or shape != (game.rows, game.cols):
            return False
        # lambda_k*u_k == (lambda_k/den_k)*num_k: all over one denominator
        factors = (self.lambda1 / game.den1, self.lambda2 / game.den2)
        offsets = self.row_offsets + self.col_offsets
        (k1, k2, *r), _ = common_denominator(factors + offsets)
        return _separates(game, k1, k2, r[: game.rows], r[game.rows :])


def _separates(
    game: BimatrixGame, k1: int, k2: int, r: list[int], c: list[int]
) -> bool:
    """``k1*num1 + k2*num2 == r[i] + c[j]`` on every cell, one row at a time."""
    return all(
        [k1 * x + k2 * y - ri for x, y in zip(row1, row2)] == c
        for ri, row1, row2 in zip(r, game.num1, game.num2)
    )


def strategically_zero_sum_detect(game: BimatrixGame) -> MvDecomposition | None:
    """Find the normalized decomposition, or None when infeasible.

    With lambda1 = 1, M = u1 + lambda2*u2 separates exactly when every
    double difference M[i][j] - M[i][0] - M[0][j] + M[0][0] vanishes.  Each
    is linear in lambda2, so a cell whose u2 double difference is nonzero
    forces lambda2, which must be positive; the first row whose u2
    differences from row 0 are not constant holds one, and with none
    lambda2 = 1.  The decomposition built from row 0, column 0 and that
    lambda2 holds on a cell exactly when the cell's double difference
    vanishes, so checking it on every cell, one integer row at a time,
    decides separability.  The certificate is built only after the check.
    """
    a, b = game.num1, game.num2
    # M*den1*k1 == k1*num1 + k2*num2, with lambda2 == (k2*den2) / (k1*den1)
    k1, k2 = game.den2, game.den1  # lambda2 == 1
    for row1, row2 in zip(a[1:], b[1:]):
        diff = list(map(sub, row2, b[0]))
        if j := next((j for j, d in enumerate(diff) if d != diff[0]), 0):
            # the double difference of k1*num1 + k2*num2 at this cell is 0
            k1, k2 = diff[j] - diff[0], row1[0] - a[0][0] + a[0][j] - row1[j]
            break
    if k1 * k2 <= 0:
        return None
    c = [k1 * x + k2 * y for x, y in zip(a[0], b[0])]
    r = [k1 * x[0] + k2 * y[0] - c[0] for x, y in zip(a, b)]
    if not _separates(game, k1, k2, r, c):
        return None
    den = k1 * game.den1
    return MvDecomposition(
        lambda1=Fraction(1),
        lambda2=Fraction(k2 * game.den2, den),
        row_offsets=tuple(Fraction(v, den) for v in r),
        col_offsets=tuple(Fraction(v, den) for v in c),
    )
