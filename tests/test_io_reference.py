"""Differential tests of the game file reader and writer against Fraction code.

The package parses JSON entries straight into integer numerators over one
denominator per matrix, and writes them straight from those integers.  The
reference reader and writer below are the direct ``Fraction`` versions: a
regex and ``Fraction(str)`` per entry, ``new_game`` to scale, and each
entry of the ``u1``/``u2`` views formatted back.  The properties require
identical bytes, identical games and the same rejections on random games
whose two players have their own denominators.
"""

import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strictgames.errors import FormatError
from strictgames.games import new_game
from strictgames.io import dumps_game, loads_game
from strictgames.rational import parse_rational

REF_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/([0-9]+))?")


def ref_parse_rational(value):
    if isinstance(value, bool):
        raise FormatError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str):
        m = REF_RATIONAL_RE.fullmatch(value)
        if m is None:
            raise FormatError(f"not a rational literal: {value!r}")
        if m.group(1) is not None and not m.group(1).strip("0"):
            raise FormatError(f"zero denominator: {value!r}")
        try:
            return F(value)
        except ValueError as e:
            raise FormatError(f"rational literal too long: {e}") from e
    raise FormatError(f"not a rational literal: {value!r}")


def ref_loads_game(text):
    try:
        data = json.loads(text)
    except ValueError as e:
        raise FormatError(f"invalid JSON: {e}") from e
    rows, cols = data["rows"], data["cols"]

    def matrix(name):
        raw = data[name]
        if not isinstance(raw, list) or len(raw) != rows:
            raise FormatError(name)
        out = []
        for row in raw:
            if not isinstance(row, list) or len(row) != cols:
                raise FormatError(name)
            out.append([ref_parse_rational(v) for v in row])
        return out

    return new_game(matrix("u1"), matrix("u2"))


def ref_dumps_game(game):
    def entry(q):
        return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    return json.dumps(
        {
            "rows": game.rows,
            "cols": game.cols,
            "u1": [[entry(v) for v in row] for row in game.u1],
            "u2": [[entry(v) for v in row] for row in game.u2],
        },
        indent=2,
    ) + "\n"


# small denominators make repeats and integer rows; 20-digit ones big lcms
DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(10**19, 10**20 - 1))


@st.composite
def rational_games(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    matrices = []
    for _ in range(2):
        dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=3))
        matrices.append([
            [F(draw(st.integers(-(10**20), 10**20)), draw(st.sampled_from(dens)))
             for _ in range(cols)]
            for _ in range(rows)
        ])
    return new_game(*matrices)


@st.composite
def unreduced_literal(draw, q):
    """``q`` as a JSON literal with a common factor, an optional plus sign,
    leading zeros, or an integer written as a string."""
    integer = q.denominator == 1 and draw(st.booleans())
    if integer and draw(st.booleans()):
        return str(q.numerator)  # a bare JSON integer
    k = 1 if integer else draw(st.integers(1, 9))
    num, den = q.numerator * k, q.denominator * k
    sign = "-" if num < 0 else draw(st.sampled_from(["", "+"]))
    zeros = "0" * draw(st.integers(0, 2))
    if integer:
        return f'"{sign}{zeros}{abs(num)}"'
    return f'"{sign}{zeros}{abs(num)}/{zeros}{den}"'


def game_text(rows, cols, u1, u2):
    """A game file from rows of JSON entry texts; a row given as one string
    is written as it is."""

    def matrix(m):
        texts = (r if type(r) is str else "[" + ", ".join(r) + "]" for r in m)
        return "[" + ", ".join(texts) + "]"

    return f'{{"rows": {rows}, "cols": {cols}, "u1": {matrix(u1)}, "u2": {matrix(u2)}}}'



@st.composite
def pooled_game_texts(draw):
    """A game file whose matrices each draw every entry from at most 4
    distinct literals, some shared by both matrices, so that nearly every
    entry repeats a literal already read, often at another matrix's common
    denominator."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dens = draw(st.lists(DENOMINATORS, min_size=1, max_size=3))
    values = draw(st.lists(
        st.builds(F, st.integers(-(10**20), 10**20), st.sampled_from(dens)),
        min_size=1, max_size=6,
    ))
    literals = [draw(unreduced_literal(q)) for q in values]
    matrices = []
    for _ in range(2):
        pool = draw(st.lists(st.sampled_from(literals), min_size=1, max_size=4))
        matrices.append(
            [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
        )
    return game_text(rows, cols, *matrices)

@settings(max_examples=200, deadline=None)
@given(rational_games())
def test_writer_matches_reference_bytes(game):
    text = dumps_game(game)
    assert text == ref_dumps_game(game)
    assert loads_game(text) == ref_loads_game(text) == game


@settings(max_examples=200, deadline=None)
@given(rational_games(), st.data())
def test_reader_matches_reference_on_unreduced_text(game, data):
    u1, u2 = (
        [[data.draw(unreduced_literal(v)) for v in row] for row in m]
        for m in (game.u1, game.u2)
    )
    text = game_text(game.rows, game.cols, u1, u2)
    assert loads_game(text) == ref_loads_game(text) == game



@settings(max_examples=200, deadline=None)
@given(pooled_game_texts())
def test_reader_matches_reference_on_pooled_literals(text):
    assert loads_game(text) == ref_loads_game(text)

def test_reader_reads_hand_unreduced_entries():
    text = game_text(1, 3, [['"+6/012"', '"3/9"', '"-0/7"']], [["1", '"+2"', '"4/1"']])
    g = loads_game(text)
    assert g == ref_loads_game(text)
    assert g.u1 == ((F(1, 2), F(1, 3), 0),) and g.u2 == ((1, 2, 4),)


OVERLONG = "1" * 4301
MALFORMED = [
    '"\\u0661"', '"1/\\u0662"', '"\\u0661/2"', "true", "false", "1.5", "1e3", "null",
    '"1/00"', '"1/0"', '"-"', '"+"', '"1/"', '"/2"', '"1/-2"', '"1/2\\n"', '" 1"',
    '"1_000"', '"1/2/3"', "[1]", f'"{OVERLONG}"', f'"-{OVERLONG}"', f'"1/{OVERLONG}"',
    OVERLONG,
]


@settings(max_examples=200, deadline=None)
@given(rational_games(), st.data())
def test_reader_rejects_what_reference_rejects(game, data):
    player = data.draw(st.sampled_from([0, 1]))
    i = data.draw(st.integers(0, game.rows - 1))
    j = data.draw(st.integers(0, game.cols - 1))
    bad = data.draw(st.sampled_from(MALFORMED))
    matrices = [
        [[json.dumps(v) for v in row] for row in m]
        for m in (json.loads(dumps_game(game))[name] for name in ("u1", "u2"))
    ]
    matrices[player][i][j] = bad
    text = game_text(game.rows, game.cols, *matrices)
    with pytest.raises(FormatError):
        ref_loads_game(text)
    with pytest.raises(FormatError):
        loads_game(text)


def bad_row(kind, row):
    """A malformed JSON row made from ``row``, a list of JSON entry texts."""
    if kind == "short":
        return "[" + ", ".join(row[:-1]) + "]"
    if kind == "long":
        return "[" + ", ".join(row + row[:1]) + "]"
    if kind == "nested":
        return "[[" + ", ".join(row) + "]]"
    return {"empty": "[]", "number": "5", "string": '"1/2"', "object": "{}"}[kind]


BAD_ROWS = ["short", "long", "nested", "empty", "number", "string", "object"]


@settings(max_examples=200, deadline=None)
@given(rational_games(), st.data())
def test_reader_rejects_a_malformed_row_as_reference_does(game, data):
    # a row at a drawn place of u1 or u2, alone or beside a malformed entry
    # elsewhere: both readers raise FormatError, whatever the message
    matrices = [
        [[json.dumps(v) for v in row] for row in m]
        for m in (json.loads(dumps_game(game))[name] for name in ("u1", "u2"))
    ]
    if data.draw(st.booleans()):
        player = data.draw(st.sampled_from([0, 1]))
        i = data.draw(st.integers(0, game.rows - 1))
        j = data.draw(st.integers(0, game.cols - 1))
        matrices[player][i][j] = data.draw(st.sampled_from(MALFORMED))
    player = data.draw(st.sampled_from([0, 1]))
    i = data.draw(st.integers(0, game.rows - 1))
    kind = data.draw(st.sampled_from(BAD_ROWS))
    matrices[player][i] = bad_row(kind, matrices[player][i])
    text = game_text(game.rows, game.cols, *matrices)
    with pytest.raises(FormatError):
        ref_loads_game(text)
    with pytest.raises(FormatError):
        loads_game(text)


@settings(max_examples=200, deadline=None)
@given(st.fractions(), st.data())
def test_parse_rational_matches_reference(q, data):
    literal = json.loads(data.draw(unreduced_literal(q)))
    assert parse_rational(literal) == ref_parse_rational(literal) == q
