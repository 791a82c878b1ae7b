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
        """Re-check the shape and the cell equations exactly, in integers."""
        shape = (len(self.row_offsets), len(self.col_offsets))
        if self.lambda1 <= 0 or self.lambda2 <= 0 or shape != (game.rows, game.cols):
            return False
        # lambda_k*u_k == (lambda_k/den_k)*num_k: all over one denominator
        factors = (self.lambda1 / game.den1, self.lambda2 / game.den2)
        offsets = self.row_offsets + self.col_offsets
        (k1, k2, *r), _ = common_denominator(factors + offsets)
        c = r[game.rows :]
        return all(
            k1 * a + k2 * b == r[i] + c[j]
            for i, (row1, row2) in enumerate(zip(game.num1, game.num2))
            for j, (a, b) in enumerate(zip(row1, row2))
        )


def strategically_zero_sum_detect(game: BimatrixGame) -> MvDecomposition | None:
    """Find the normalized decomposition, or None when infeasible.

    With lambda1 fixed to 1, separability of M = u1 + lambda2*u2 is
    equivalent to the double differences M[i][j] - M[i][0] - M[0][j] +
    M[0][0] all vanishing.  Each cell's double difference is linear in
    lambda2, so every cell either holds for all lambda2, rules out every
    lambda2, or forces a single candidate; all forced candidates must agree
    and be positive.  When no cell constrains lambda2, lambda2 = 1 is the
    canonical representative.
    """
    a, b = game.num1, game.num2
    fp = fq = 0  # first forcing cell: lambda2 == -(fp/den1) / (fq/den2)
    for i in range(1, game.rows):
        for j in range(1, game.cols):
            p = a[i][j] - a[i][0] - a[0][j] + a[0][0]
            q = b[i][j] - b[i][0] - b[0][j] + b[0][0]
            if q == 0:
                if p != 0:
                    return None
            elif fq == 0:
                fp, fq = p, q
            elif p * fq != fp * q:
                return None
    lam2 = Fraction(-fp * game.den2, fq * game.den1) if fq else Fraction(1)
    if lam2 <= 0:
        return None

    # M == (k1*num1 + k2*num2) / den; only row 0 and column 0 are needed
    (k1, k2), den = common_denominator((Fraction(1, game.den1), lam2 / game.den2))
    m0 = [k1 * v1 + k2 * v2 for v1, v2 in zip(a[0], b[0])]
    decomposition = MvDecomposition(
        lambda1=Fraction(1),
        lambda2=lam2,
        row_offsets=tuple(
            Fraction(k1 * r1[0] + k2 * r2[0] - m0[0], den) for r1, r2 in zip(a, b)
        ),
        col_offsets=tuple(Fraction(v, den) for v in m0),
    )
    if not decomposition.verifies(game):
        return None
    return decomposition
