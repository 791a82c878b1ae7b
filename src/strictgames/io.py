"""Game file format: UTF-8 JSON with exact rational entries.

A game file is an object with positive integer ``rows`` and ``cols`` and
row-major ``u1`` and ``u2`` arrays whose entries are JSON integers or
``"n/d"`` strings with positive denominators.  Parsing is strict: bytes
that are not UTF-8, wrong shapes, float entries, or malformed rationals
raise :class:`FormatError`, and parse(serialize(g)) reproduces ``g``
bit-exactly.

Entries are read straight into the integer core in whole-matrix passes: a
set of row types and one of row lengths check the shape, then one set of
exact entry types keeps out booleans and floats, which hash like integers.
Each distinct string entry is parsed once per load, by a memo, and a matrix
with string entries is scaled to their least common denominator through one
dict over its distinct entries; a denominator past 4,300 decimal digits is
rejected, like an overlong literal.  Writing formats each distinct stored
numerator once, reduced against its matrix's denominator, in the layout of
``json.dumps(..., indent=2)``.  No ``Fraction`` is built per entry.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .errors import FormatError
from .games import BimatrixGame, IntMatrix
from .rational import parse_literal

# Python's default cap on the digits int() converts, applied to the common
# denominator so that coprime denominators cannot blow the integers up
_MAX_DENOMINATOR = 10**4300


class _Memo(dict):
    """``fn`` of each key, computed on the key's first lookup and kept."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _entry(v: int, den: int) -> int | str:
    g = math.gcd(v, den)
    return v // g if g == den else f"{v // g}/{den // g}"


def _matrix(
    name: str, raw: object, rows: int, cols: int, literals: _Memo
) -> tuple[list[list[int]], int]:
    """One payoff matrix as integer rows over their least common denominator."""
    if not isinstance(raw, list) or len(raw) != rows:
        raise FormatError(f"{name} must have exactly {rows} rows")
    if set(map(type, raw)) != {list} or set(map(len, raw)) != {cols}:
        raise FormatError(f"every row of {name} must have {cols} entries")
    # bool is a subclass of int, so test the exact types
    kinds = set(map(type, chain.from_iterable(raw)))
    if not kinds <= {int, str}:
        bad = next(v for v in chain.from_iterable(raw) if type(v) not in (int, str))
        raise FormatError(f"not a rational literal: {bad!r}")
    if str not in kinds:  # every entry is a JSON integer
        return raw, 1
    pairs = {
        v: literals[v] if type(v) is str else (v, 1) for v in set(chain.from_iterable(raw))
    }
    dens, den = {d for _, d in pairs.values()}, 1
    for d in dens:
        den = math.lcm(den, d)
        if den >= _MAX_DENOMINATOR:
            raise FormatError(f"common denominator of {name} exceeds 4300 digits")
    factor = {d: den // d for d in dens}
    scaled = {v: n * factor[d] for v, (n, d) in pairs.items()}
    return [list(map(scaled.__getitem__, row)) for row in raw], den


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
    literals = _Memo(parse_literal)  # string keys only
    return BimatrixGame(
        *_matrix("u1", data["u1"], rows, cols, literals),
        *_matrix("u2", data["u2"], rows, cols, literals),
    )


def _matrix_text(num: IntMatrix, den: int) -> str:
    """A matrix as ``json.dumps(..., indent=2)`` lays it out one level deep."""

    def literal(v: int) -> str:
        e = _entry(v, den)
        return f'"{e}"' if type(e) is str else str(e)  # "n/d" needs no escape

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
        data = json.loads(text)
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
