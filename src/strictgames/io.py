"""Game file format: UTF-8 JSON with exact rational entries.

A game file is an object with positive integer ``rows`` and ``cols`` and
row-major ``u1`` and ``u2`` arrays whose entries are JSON integers or
``"n/d"`` strings with positive denominators.  Parsing is strict: wrong
shapes, float entries, or malformed rationals raise :class:`FormatError`,
and parse(serialize(g)) reproduces ``g`` bit-exactly.

Entries are read straight into the integer core: a row of JSON integers is
taken as it is, any other row is parsed entry by entry into integer pairs,
and each matrix is scaled once to the least common denominator of its
entries.  That denominator is bounded like a single literal: a file whose
denominators multiply past 4,300 decimal digits is rejected.  Writing
reduces each stored numerator against its matrix's denominator.  No
``Fraction`` is built per entry in either direction.
"""

from __future__ import annotations

import json
import math

from .errors import FormatError
from .games import BimatrixGame, IntMatrix
from .rational import parse_literal

# Python's default cap on the digits int() converts, applied to the common
# denominator so that coprime denominators cannot blow the integers up
_MAX_DENOMINATOR = 10**4300


def _entries(num: IntMatrix, den: int) -> list[list[int | str]]:
    if den == 1:
        return [list(row) for row in num]
    out = []
    for row in num:
        entries = []
        for v in row:
            g = math.gcd(v, den)
            entries.append(v // g if g == den else f"{v // g}/{den // g}")
        out.append(entries)
    return out


def game_to_json_dict(game: BimatrixGame) -> dict:
    return {
        "rows": game.rows,
        "cols": game.cols,
        "u1": _entries(game.num1, game.den1),
        "u2": _entries(game.num2, game.den2),
    }


def _matrix(
    name: str, raw: object, rows: int, cols: int
) -> tuple[list[list[int]], int]:
    """One payoff matrix as integer rows over their least common denominator."""
    if not isinstance(raw, list) or len(raw) != rows:
        raise FormatError(f"{name} must have exactly {rows} rows")
    parsed = []
    dens = set()
    for row in raw:
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(f"every row of {name} must have {cols} entries")
        # bool is a subclass of int, so test the exact type
        if all(type(v) is int for v in row):
            parsed.append((row, None))
        else:
            nums, row_dens = zip(*map(parse_literal, row))
            dens.update(row_dens)
            parsed.append((nums, row_dens))
    den = 1
    for d in dens:
        den = math.lcm(den, d)
        if den >= _MAX_DENOMINATOR:
            raise FormatError(f"common denominator of {name} exceeds 4300 digits")
    out = []
    for row, row_dens in parsed:
        if row_dens is not None:
            row = [v * (den // d) for v, d in zip(row, row_dens)]
        elif den > 1:
            row = [v * den for v in row]
        out.append(row)
    return out, den


def game_from_json_dict(data: object) -> BimatrixGame:
    if not isinstance(data, dict):
        raise FormatError("game file must be a JSON object")
    missing = {"rows", "cols", "u1", "u2"} - set(data)
    if missing:
        raise FormatError(f"missing fields: {sorted(missing)}")
    rows, cols = data["rows"], data["cols"]
    # bool is a subclass of int, so true would otherwise read as 1
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise FormatError("rows and cols must be positive integers")
    return BimatrixGame(
        *_matrix("u1", data["u1"], rows, cols), *_matrix("u2", data["u2"], rows, cols)
    )


def dumps_game(game: BimatrixGame) -> str:
    return json.dumps(game_to_json_dict(game), indent=2) + "\n"


def loads_game(text: str) -> BimatrixGame:
    try:
        data = json.loads(text)
    except ValueError as e:  # malformed JSON or an overlong integer literal
        raise FormatError(f"invalid JSON: {e}") from e
    return game_from_json_dict(data)


def save_game(path: str, game: BimatrixGame) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_game(game))


def load_game(path: str) -> BimatrixGame:
    with open(path, encoding="utf-8") as fh:
        return loads_game(fh.read())
