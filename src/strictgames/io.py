"""Game file format: UTF-8 JSON with exact rational entries.

A game file is an object with positive integer ``rows`` and ``cols`` and
row-major ``u1`` and ``u2`` arrays whose entries are JSON integers or
``"n/d"`` strings with positive denominators.  Parsing is strict: bytes
that are not UTF-8, wrong shapes, float entries, or malformed rationals
raise :class:`FormatError`, as does a key given twice in one object, and
parse(serialize(g)) reproduces ``g`` bit-exactly.

The reader checks only what JSON adds: an object with the four fields,
positive integer dimensions and arrays of arrays.  Each matrix is scaled
into the integer core by :func:`~strictgames.rational.integer_rows`, the
library's one scaler, :class:`BimatrixGame` checks the rectangle, its
errors naming the declared shape, and the game's shape must be the
declared one.  Writing formats each distinct stored numerator once,
reduced against its matrix's denominator, in the layout of
``json.dumps(..., indent=2)``.  No ``Fraction`` is built per entry.
"""

from __future__ import annotations

import json
import math

from .errors import EmptyGame, FormatError, ShapeMismatch
from .games import BimatrixGame, IntMatrix
from .rational import integer_rows


class _Memo(dict):
    """``fn`` of each key, computed on the key's first lookup and kept."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice raises :class:`FormatError`
    instead of the last copy silently winning."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set[str] = set()  # set.add returns None, so this finds the first repeat
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise FormatError(f"duplicate key {key!r} in a JSON object")
    return data


def game_from_json_dict(data: object) -> BimatrixGame:
    if not isinstance(data, dict):
        raise FormatError("game file must be a JSON object")
    missing = {"rows", "cols", "u1", "u2"} - set(data)
    if missing:
        raise FormatError(f"missing fields: {sorted(missing)}")
    rows, cols, u1, u2 = data["rows"], data["cols"], data["u1"], data["u2"]
    # bool is a subclass of int, so true would otherwise read as 1
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise FormatError("rows and cols must be positive integers")
    # a string or object row would otherwise read as its characters or keys
    if any(type(u) is not list or not set(map(type, u)) <= {list} for u in (u1, u2)):
        raise FormatError("u1 and u2 must be arrays of arrays")
    scaled = *integer_rows(u1), *integer_rows(u2)
    try:
        game = BimatrixGame(*scaled)
    except (EmptyGame, ShapeMismatch) as e:
        raise type(e)(f"{e} (file declares {rows}x{cols})") from None
    if (game.rows, game.cols) != (rows, cols):
        raise FormatError(f"the game is {game.rows}x{game.cols}, not {rows}x{cols}")
    return game


def _matrix_text(num: IntMatrix, den: int) -> str:
    """A matrix as ``json.dumps(..., indent=2)`` lays it out one level deep."""

    def literal(v: int) -> str:
        g = math.gcd(v, den)
        # an "n/d" literal needs no escape
        return str(v // g) if g == den else f'"{v // g}/{den // g}"'

    text = _Memo(literal)
    rows = (",\n      ".join(map(text.__getitem__, row)) for row in num)
    return "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"


def dumps_game(game: BimatrixGame) -> str:
    return (
        f'{{\n  "rows": {game.rows},\n  "cols": {game.cols},\n'
        f'  "u1": {_matrix_text(game.num1, game.den1)},\n'
        f'  "u2": {_matrix_text(game.num2, game.den2)}\n}}\n'
    )


def loads_game(text: str) -> BimatrixGame:
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as e:  # malformed, overlong or too deep
        raise FormatError(f"invalid JSON: {e}") from e
    return game_from_json_dict(data)


def save_game(path: str, game: BimatrixGame) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_game(game))


def load_game(path: str) -> BimatrixGame:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise FormatError(f"game file is not UTF-8: {e}") from e
    return loads_game(text)
