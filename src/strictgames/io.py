"""Game file format: UTF-8 JSON with exact rational entries.

A game file is an object with positive integer ``rows`` and ``cols`` and
row-major ``u1`` and ``u2`` arrays whose entries are JSON integers or
``"n/d"`` strings with positive denominators.  Parsing is strict: wrong
shapes, float entries, or malformed rationals raise :class:`FormatError`,
and parse(serialize(g)) reproduces ``g`` bit-exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import FormatError
from .games import BimatrixGame, new_game
from .rational import format_rational, parse_rational


def _entry_out(q: Fraction) -> int | str:
    return q.numerator if q.denominator == 1 else format_rational(q)


def game_to_json_dict(game: BimatrixGame) -> dict:
    return {
        "rows": game.rows,
        "cols": game.cols,
        "u1": [[_entry_out(v) for v in row] for row in game.u1],
        "u2": [[_entry_out(v) for v in row] for row in game.u2],
    }


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

    def matrix(name: str) -> list[list[Fraction]]:
        raw = data[name]
        if not isinstance(raw, list) or len(raw) != rows:
            raise FormatError(f"{name} must have exactly {rows} rows")
        out = []
        for row in raw:
            if not isinstance(row, list) or len(row) != cols:
                raise FormatError(f"every row of {name} must have {cols} entries")
            out.append([parse_rational(v) for v in row])
        return out

    return new_game(matrix("u1"), matrix("u2"))


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
