"""Exact rational arithmetic helpers.

Payoffs and probabilities are stored as arbitrary-precision integers over
a positive common denominator in lowest terms, and the solvers pivot on
integers, so every equality check in the package is bit-exact;
``fractions.Fraction`` appears only in views, certificates, witnesses and
JSON.  This module says what a number is, in files and library calls
alike: a ``Fraction``, an integer or a string ``"n/d"`` (d > 0) in ASCII
digits; floats and booleans raise :class:`FormatError`.  They enter the
integer core one way, :func:`integer_rows`.  The module adds the seeded
draws of bounded-denominator random weights, which return integers and
consume a CPython ``random.Random`` exactly as ``randint``/``choice`` would:
:func:`draws` binds them to one generator, once per stream, and the
one-off samplers below it go through the same binding.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import chain
from typing import Callable, NamedTuple

from .errors import FormatError

Rational = Fraction

# ASCII digits only: \d would also accept other scripts' decimal digits
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

#: Largest integer weight, and largest denominator, of a random mixture.
WEIGHT_BOUND = 64


# Python's default cap on the digits int() converts, applied to a common
# denominator so that coprime denominators cannot blow the integers up
_MAX_DENOMINATOR = 10**4300


def integer_rows(rows: list[list]) -> tuple[list[list[int]], int]:
    """Rows of numbers (see :func:`parse_rational`), shape unchecked, as
    integer rows over the least common multiple of their denominators as
    written; rows of ``int`` are returned as they are.  One value of each
    other entry type is read by :func:`parse_rational` first, so a float or
    a boolean is refused before any value becomes a dict key (``True`` and
    ``1.0`` hash like ``1``).  Each distinct value becomes a pair once and
    the rows are scaled through one dict over them.  A common denominator
    of 4,300 digits or more raises :class:`FormatError`, like an overlong
    literal."""
    kinds = set(map(type, chain.from_iterable(rows)))
    if kinds <= {int}:
        return rows, 1
    for kind in kinds - {int, str}:
        parse_rational(next(v for v in chain.from_iterable(rows) if type(v) is kind))
    pairs = {
        v: parse_literal(v) if isinstance(v, str) else (v.numerator, v.denominator)
        for v in set(chain.from_iterable(rows))
    }
    dens, den = {d for _, d in pairs.values()}, 1
    for d in dens:
        den = math.lcm(den, d)
        if den >= _MAX_DENOMINATOR:
            raise FormatError("common denominator exceeds 4300 digits")
    factor = {d: den // d for d in dens}
    scaled = {v: n * factor[d] for v, (n, d) in pairs.items()}
    return [list(map(scaled.__getitem__, row)) for row in rows], den


def common_denominator(values) -> tuple[list[int], int]:
    """Numbers as :func:`integer_rows` scales one row of them."""
    (row,), den = integer_rows([list(values)])
    return row, den


def parse_literal(value: int | str) -> tuple[int, int]:
    """A JSON payoff entry as ``(numerator, denominator)``, not reduced.

    The entry is an integer or a string ``"n/d"`` with d > 0.  Anything else
    (booleans, floats, exponents, negative or zero denominators, non-ASCII
    digits, literals too long for Python's integer conversion) is rejected
    with :class:`FormatError` so that file round-trips stay exact.
    """
    if isinstance(value, bool):
        raise FormatError(f"not a rational literal: {value!r}")
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, str):
        m = _RATIONAL_RE.fullmatch(value)
        if m is None:
            raise FormatError(f"not a rational literal: {value!r}")
        num, den = m.groups()
        try:
            pair = int(num), 1 if den is None else int(den)
        except ValueError as e:  # more digits than int() converts
            raise FormatError(f"rational literal too long: {e}") from e
        if not pair[1]:
            raise FormatError(f"zero denominator: {value!r}")
        return pair
    raise FormatError(f"not a rational literal: {value!r}")


def parse_rational(value: int | str | Fraction) -> Fraction:
    """A ``Fraction`` as it is, anything else as :func:`parse_literal` reads it."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*parse_literal(value))


def format_rational(q: Fraction) -> str:
    """Render ``q`` as ``"n/d"``; the denominator is always written."""
    return f"{q.numerator}/{q.denominator}"


class Draws(NamedTuple):
    """The package's seeded draws on one generator, as :func:`draws` binds them."""

    below: Callable[[int], int]
    point: Callable[[int], list[int]]
    coordinate: Callable[[], int]
    weight: Callable[[], tuple[int, int]]
    open_weight: Callable[[], tuple[int, int]]


def draws(rng: random.Random) -> Draws:
    """Every draw of the package, bound once to ``rng.getrandbits``.  Each
    consumes ``rng`` as CPython 3.10 to 3.13's ``randint`` and ``choice`` do,
    one ``getrandbits`` per word in the same order, so seeded streams repeat:

    - ``below(n)``, n >= 1: ``randint(0, n - 1)``, or ``choice`` of n items,
      drawn as ``_randbelow`` does: a word of ``n.bit_length()`` bits, redrawn
      until below n;
    - ``point(n)``: n integer weights in [0, WEIGHT_BOUND], each
      ``below(WEIGHT_BOUND + 1)`` inlined in this hot loop, redrawn until
      not all zero;
    - ``coordinate()``: ``choice((1, 2))``;
    - ``weight()``: a dyadic ``(num, den)`` in [0, 1], den at most WEIGHT_BOUND;
    - ``open_weight()``: a dyadic ``(num, den)`` strictly inside (0, 1).
    """
    bits, k = rng.getrandbits, (WEIGHT_BOUND + 1).bit_length()

    def below(n: int) -> int:
        while (r := bits(n.bit_length())) >= n:
            pass
        return r

    def point(n: int) -> list[int]:
        while True:
            weights = []
            for _ in range(n):
                while (r := bits(k)) > WEIGHT_BOUND:
                    pass
                weights.append(r)
            if any(weights):
                return weights

    def weight() -> tuple[int, int]:
        den = 1 << below(WEIGHT_BOUND.bit_length())
        return below(den + 1), den

    def open_weight() -> tuple[int, int]:
        den = 2 << below(WEIGHT_BOUND.bit_length() - 1)
        return 1 + below(den - 1), den

    return Draws(below, point, lambda: 1 + below(2), weight, open_weight)


def _below(rng: random.Random, n: int) -> int:
    """``rng.randint(0, n - 1)``; see :func:`draws`."""
    if n < 1:
        raise ValueError("empty range for a random draw")
    return draws(rng).below(n)


def random_weight(rng: random.Random) -> tuple[int, int]:
    return draws(rng).weight()


def random_open_weight(rng: random.Random) -> tuple[int, int]:
    return draws(rng).open_weight()


def random_simplex_point(rng: random.Random, n: int) -> list[int]:
    return draws(rng).point(n)
