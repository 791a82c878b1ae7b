import json
import random
import re
from fractions import Fraction as F

import pytest

from strictgames.cli import run_cli
from strictgames.errors import EmptyGame, FormatError, ShapeMismatch
from strictgames.detection import AffineTransform
from strictgames.games import MixedStrategy, mix, new_game
from strictgames.generators import Family, GenSpec, gen
from strictgames.io import (
    _object, dumps_game, game_from_json_dict, load_game, loads_game,
)
from strictgames.rational import format_rational, parse_rational


def test_parse_rational_forms():
    assert parse_rational(5) == F(5)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("+3") == F(3)
    assert parse_rational("4/6") == F(2, 3)


BAD_LITERALS = [
    "1.5", "1e3", "1/-2", "1/0", " 1/2", "", "a", 1.5, None, True,
    # Arabic-Indic digits are Unicode decimal digits but not ASCII
    "\u0661", "1/\u0662", "\u0661/2", "1/2\n", "1/00", "-", "1/", "1_000",
]


@pytest.mark.parametrize("bad", BAD_LITERALS)
def test_parse_rational_rejects(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


HALF = MixedStrategy.from_weights((1, 1))


@pytest.mark.parametrize("bad", BAD_LITERALS)
@pytest.mark.parametrize(
    "read",
    [
        lambda v: new_game([[0, v]], [[0, 0]]),
        lambda v: new_game([[0, 0]], [[v, 0]]),
        lambda v: MixedStrategy((v, F(1, 2))),
        lambda v: mix(HALF, HALF, v),
        lambda v: AffineTransform(v, 0),
        lambda v: AffineTransform(1, v),
    ],
    ids=["new_game-u1", "new_game-u2", "MixedStrategy", "mix", "alpha", "beta"],
)
def test_library_numbers_follow_the_literal_rule(read, bad):
    # every number the library takes is read as a file literal is
    with pytest.raises(FormatError):
        read(bad)


def test_format_rational_always_shows_denominator():
    assert format_rational(F(3)) == "3/1"
    assert format_rational(F(-1, 2)) == "-1/2"


def test_round_trip_handwritten():
    g = new_game([[F(1, 2), -1]], [[F(-1, 2), 1]])
    assert loads_game(dumps_game(g)) == g
    d = json.loads(dumps_game(g))
    assert d["u1"] == [["1/2", -1]]


def test_round_trip_generated():
    rng = random.Random(71)
    for family in Family:
        for _ in range(5):
            spec = GenSpec(family, rng.randint(2, 5), rng.randint(2, 5),
                           seed=rng.randint(0, 10**6))
            g = gen(spec)
            assert loads_game(dumps_game(g)) == g
    # rational entries, each player with its own denominators
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        u1, u2 = (
            [[F(rng.randint(-99, 99), rng.randint(1, d)) for _ in range(cols)] for _ in range(rows)]
            for d in (rng.randint(1, 12), rng.randint(1, 12))
        )
        g = new_game(u1, u2)
        assert (g.u1, g.u2) == (tuple(map(tuple, u1)), tuple(map(tuple, u2)))
        assert loads_game(dumps_game(g)) == g


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("rows"),
        lambda d: d.update(rows=0),
        lambda d: d.update(rows="2"),
        lambda d: d.update(u1=[[1, 2]]),
        lambda d: d.update(u2=[[1], [2]]),
        lambda d: d.update(u1=[[1.5, 2], [3, 4]]),
        lambda d: d.update(u1=[["1/0", 2], [3, 4]]),
        # both matrices agree with each other but not with rows = 2
        lambda d: d.update(u1=[[1, 2]], u2=[[3, 4]]),
        # rows that are not arrays would read as their characters or keys
        lambda d: d.update(u1=["12", "34"]),
        lambda d: d.update(u2=[{"1": 0, "2": 0}, {"3": 0, "4": 0}]),
    ],
)
def test_reject_malformed(mutate):
    d = json.loads(dumps_game(new_game([[1, 2], [3, 4]], [[4, 3], [2, 1]])))
    mutate(d)
    with pytest.raises(FormatError):
        game_from_json_dict(d)


@pytest.mark.parametrize(
    "u1, u2, error, message",
    [
        ([[1, 2], [3]], [[0] * 2] * 2, ShapeMismatch, "u1 has rows of widths [1, 2]"),
        ([[1, 2], [3, 4]], [[0], [0]], ShapeMismatch, "u1 is 2x2 but u2 is 2x1"),
        ([[1, 2], [3, 4]], [[], []], EmptyGame, "payoff matrices must be nonempty"),
        ([], [], EmptyGame, "payoff matrices must be nonempty"),
    ],
)
def test_shape_errors_name_the_declared_shape(u1, u2, error, message):
    d = {"rows": 2, "cols": 2, "u1": u1, "u2": u2}
    with pytest.raises(error, match=f"^{re.escape(message)} \\(file declares 2x2\\)$"):
        game_from_json_dict(d)


def test_literal_errors_keep_their_text():
    d = {"rows": 1, "cols": 2, "u1": [["1/0", 1]], "u2": [[0, 0]]}
    with pytest.raises(FormatError, match=r"^zero denominator: '1/0'$"):
        game_from_json_dict(d)


@pytest.mark.parametrize("key", ["rows", "cols"])
def test_reject_boolean_dimensions(key):
    d = json.loads(dumps_game(new_game([[1]], [[-1]])))
    d[key] = True
    with pytest.raises(FormatError):
        game_from_json_dict(d)


def test_reject_overlong_literals(tmp_path, capsys):
    digits = "1" * 5000  # above Python's int string-conversion limit
    for bad in [digits, f"-{digits}", f"1/{digits}"]:
        with pytest.raises(FormatError):
            parse_rational(bad)
    for entry in [f'"{digits}"', digits]:
        text = f'{{"rows": 1, "cols": 1, "u1": [[{entry}]], "u2": [[0]]}}'
        with pytest.raises(FormatError):
            loads_game(text)
        path = tmp_path / "long.json"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err


def test_reject_unbounded_common_denominator(tmp_path, capsys):
    """Coprime denominators would multiply into a huge common denominator;
    past 4300 digits, like one overlong literal, the file is refused."""
    rng = random.Random(40)
    u1 = [[f"1/{rng.randrange(10**29, 10**30) | 1}" for _ in range(40)] for _ in range(40)]
    text = json.dumps({"rows": 40, "cols": 40, "u1": u1, "u2": [[0] * 40] * 40})
    with pytest.raises(FormatError, match="common denominator"):
        loads_game(text)
    # the library takes numbers by the same rule, so new_game refuses them too
    with pytest.raises(FormatError, match="common denominator"):
        new_game(u1, [[0] * 40] * 40)
    path = tmp_path / "coprime.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    # one literal may still use a denominator of the full 4300 digits
    widest = f'"1/{"9" * 4300}"'
    g = loads_game(f'{{"rows": 1, "cols": 1, "u1": [[{widest}]], "u2": [[0]]}}')
    assert g.den1 == 10**4300 - 1


def test_reject_non_object():
    with pytest.raises(FormatError):
        loads_game("[1, 2]")
    with pytest.raises(FormatError):
        loads_game("not json")


@pytest.mark.parametrize(
    "key, text",
    [
        ("u1", '{"rows": 1, "cols": 1, "u1": [[1]], "u1": [[2]], "u2": [[-1]]}'),
        ("rows", '{"rows": 2, "rows": 1, "cols": 1, "u1": [[1]], "u2": [[-1]]}'),
    ],
    ids=["u1", "rows"],
)
def test_reject_duplicate_keys(key, text, tmp_path, capsys):
    """JSON lets a key repeat and json.loads keeps its last value; a game
    file that gives a field twice is malformed input (exit 2), and the
    error names the key."""
    with pytest.raises(FormatError, match=f"duplicate key '{key}'"):
        loads_game(text)
    path = tmp_path / "twice.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["check", str(path)]) == 2
    assert f"'{key}'" in capsys.readouterr().err


def test_duplicate_key_search_is_linear():
    """Naming the repeated key compares each key a bounded number of times,
    so a file with many distinct keys and one repeat fails at once instead
    of in time quadratic in the number of keys."""

    class Key(str):
        compared = 0

        def __eq__(self, other):
            Key.compared += 1
            return str.__eq__(self, other)

        __hash__ = str.__hash__

    pairs = [(Key(f"k{i}"), i) for i in range(1000)] + [(Key("k7"), 0)]
    with pytest.raises(FormatError, match="duplicate key 'k7'"):
        _object(pairs)
    assert Key.compared <= len(pairs)


def test_deeply_nested_file_is_malformed_input(tmp_path, capsys):
    """json.loads raises RecursionError, not ValueError, past its nesting
    limit; that is malformed input (exit 2), not a negative verdict."""
    text = "[" * 100000 + "]" * 100000
    with pytest.raises(FormatError):
        loads_game(text)
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["check", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_reject_file_not_utf8(tmp_path, capsys):
    """The format is UTF-8 only: a stray 0xff byte, or the same game in
    UTF-16, is malformed input, not a decoding crash."""
    text = '{"rows": 1, "cols": 1, "u1": [[1]], "u2": [[-1]]}'
    path = tmp_path / "game.json"
    for data in [text.encode() + b"\xff", text.encode("utf-16")]:
        path.write_bytes(data)
        with pytest.raises(FormatError):
            load_game(str(path))
        assert run_cli(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err


def game_text(u1: str, u2: str) -> str:
    """A 1x3 game file with the given row texts."""
    return f'{{"rows": 1, "cols": 3, "u1": [{u1}], "u2": [{u2}]}}'


@pytest.mark.parametrize(
    "row",
    [
        '["1", 1, true]', '["1/2", 1, true]', '[true, "1", 1]', '["1", true, "1"]',
        '["1", 1, 1.0]', '["1/2", 1.0, 1]', '[1.0, "1", "1"]', '["1", 1, false]',
        '["0", 0, false]', '["1", 1, null]', '["1", 1, [1]]', '["1", "1", {"1": 1}]',
    ],
)
def test_reject_non_integers_beside_string_literals(row):
    """A JSON integer, boolean or float never reaches the literal memo, so
    1, true and 1.0 (equal and equally hashed) cannot share a parsed pair."""
    for u1, u2 in ((row, "[0, 0, 0]"), ('["1", 1, "1/1"]', row)):
        with pytest.raises(FormatError):
            loads_game(game_text(u1, u2))


def test_same_literal_scaled_per_matrix():
    """One literal read in both matrices is scaled to each matrix's own
    common denominator."""
    g = loads_game(game_text('["1/2", "1/3", 1]', '["1/2", 1, "1/2"]'))
    assert (g.num1, g.den1) == (((3, 2, 6),), 6)
    assert (g.num2, g.den2) == (((1, 2, 1),), 2)
    assert g.u1 == ((F(1, 2), F(1, 3), 1),) and g.u2 == ((F(1, 2), 1, F(1, 2)),)
    g = loads_game(game_text('["5/4", "1/2", "2"]', '["1/2", "5/4", "1/6"]'))
    assert (g.num1, g.den1) == (((5, 2, 8),), 4)
    assert (g.num2, g.den2) == (((6, 15, 2),), 12)


@pytest.mark.parametrize(
    "u1, u2",
    [
        ('["1/2", "1/2", "1/0"]', "[0, 0, 0]"),
        ('["1/2", "1/2", "1/2 "]', "[0, 0, 0]"),
        ('["3", "3", "3.0"]', "[0, 0, 0]"),
        ('["1/2", "1/2", "1/2"]', '["1/2", "1/2", "+1/-2"]'),
        ('["7", 7, "7"]', '["7", "7", "\\u0667"]'),
    ],
)
def test_reject_malformed_after_repeated_literal(u1, u2):
    """A malformed literal is refused even after a valid one was read and
    kept, in the same row, the same matrix or the other matrix."""
    with pytest.raises(FormatError):
        loads_game(game_text(u1, u2))
