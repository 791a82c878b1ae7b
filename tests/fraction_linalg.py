"""Exact ``Fraction`` linear algebra for the reference tests.

It shares no code with the package's fraction-free elimination, so a
reference built on it checks that elimination independently.
"""

from fractions import Fraction


def fraction_solve(matrix, b):
    """The solution of ``matrix x = b`` by Gauss-Jordan over ``Fraction``,
    or None when ``matrix`` is singular."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(bi)] for row, bi in zip(matrix, b)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n] for row in rows]
