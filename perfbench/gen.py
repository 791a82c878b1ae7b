"""Seeded benchmark inputs with planted ground truth.

Every game is drawn from ``random.Random`` seeded by the workload name and
the run seed, so one seed always yields byte-identical files.  The truth a
checker needs is planted by construction (the affine certificate of a
disguised game, the offsets of a strategic one) or, for the unstructured
kinds, decided here by the exact tests in :mod:`check`, which share no code
with the package under test.  Files are written by this module's own JSON
writer; the package's generators and writer are not used, so refactoring
them cannot change what the benchmark reads.
"""

from __future__ import annotations

import hashlib
import math
from array import array
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import check

DISGUISED = "disguised"
CUBE = "cube"
STRATEGIC = "strategic"
UNIFORM = "uniform"
KINDS = (DISGUISED, CUBE, STRATEGIC, UNIFORM)


@dataclass(frozen=True)
class Game:
    """One generated game and the answers the checker expects for it.

    ``transform`` is the planted ``(alpha, beta)`` with ``u2 == -alpha*u1 +
    beta`` cell by cell, or None when no such relation exists.  ``lambda2``
    is the unique positive ratio for which ``u1 + lambda2*u2`` separates into
    row plus column offsets, or None when no ratio does.

    Integer matrices are kept as machine-integer arrays and a disguised
    game's ``u2`` is derived on each access, so the benchmark's own copy of
    its inputs adds little to the measured peak memory.
    """

    kind: str
    u1: tuple
    stored_u2: tuple | None
    transform: tuple[Fraction, Fraction] | None
    lambda2: Fraction | None

    @property
    def n(self) -> int:
        return len(self.u1)

    @property
    def u2(self) -> tuple:
        if self.stored_u2 is not None:
            return self.stored_u2
        alpha, beta = self.transform
        return tuple(tuple(-alpha * v + beta for v in row) for row in self.u1)


def _freeze(m) -> tuple:
    return tuple(array("q", row) for row in m)


def _matrix(rng: random.Random, n: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def _inseparable_core(rng: random.Random, n: int, bound: int, distinct: bool):
    """A core whose (1, 1) double difference is nonzero, so it has no
    row-plus-column decomposition and the planted ``lambda2`` is unique."""
    while True:
        if distinct:
            values = rng.sample(range(-bound, bound + 1), n * n)
            core = [values[i * n:(i + 1) * n] for i in range(n)]
        else:
            core = _matrix(rng, n, bound)
        if n == 1 or core[1][1] - core[1][0] - core[0][1] + core[0][0] != 0:
            return core


def _rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi] with denominator at most 8."""
    den = rng.randint(1, 8)
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def _draw(rng: random.Random, kind: str, n: int, bound: int, distinct: bool) -> Game:
    if kind == DISGUISED:
        core = _inseparable_core(rng, n, bound, distinct)
        alpha = _rational(rng, Fraction(1, 2), Fraction(8))
        beta = _rational(rng, Fraction(-10), Fraction(10))
        return Game(kind, _freeze(core), None, (alpha, beta), 1 / alpha)
    if kind == STRATEGIC:
        core = _inseparable_core(rng, n, bound, distinct=False)
        col_off = [rng.randint(-bound, bound) for _ in range(n)]
        row_off = [rng.randint(-bound, bound) for _ in range(n)]
        u1 = [[core[i][j] + col_off[j] for j in range(n)] for i in range(n)]
        u2 = [[-core[i][j] + row_off[i] for j in range(n)] for i in range(n)]
        return Game(kind, _freeze(u1), _freeze(u2), None, Fraction(1))
    if kind == CUBE:
        u1 = _matrix(rng, n, bound)
        return Game(kind, _freeze(u1), _freeze([[-v**3 for v in row] for row in u1]), None, None)
    if kind == UNIFORM:
        return Game(kind, _freeze(_matrix(rng, n, bound)), _freeze(_matrix(rng, n, bound)), None, None)
    raise ValueError(f"unknown kind {kind!r}")


def make_game(
    rng: random.Random, kind: str, n: int, bound: int, distinct: bool = False
) -> Game:
    """Draw one ``n`` x ``n`` game of ``kind`` with entries bounded by ``bound``.

    ``distinct`` draws a disguised game's core without repeated values,
    which keeps small zero-sum games nondegenerate.
    """
    while True:
        game = _draw(rng, kind, n, bound, distinct)
        if kind == DISGUISED:
            return game
        # The other kinds must not be adversarial; their strategic verdict
        # comes from the checker's own exact test.  A draw that happens to
        # be structured otherwise is redrawn.
        if check.affine_fit(game.u1, game.u2) is not None:
            continue
        lam = check.mv_lambda2(game.u1, game.u2)
        if kind == STRATEGIC and lam != game.lambda2:
            continue
        return Game(game.kind, game.u1, game.stored_u2, None, lam)


def _entry(v: int | Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f'"{v.numerator}/{v.denominator}"'


def _matrix_json(m) -> str:
    return "[" + ", ".join("[" + ", ".join(map(_entry, row)) + "]" for row in m) + "]"


def game_json(game: Game) -> str:
    """The game file text: integer entries as JSON integers, others ``"n/d"``."""
    return (
        f'{{"rows": {game.n}, "cols": {game.n}, '
        f'"u1": {_matrix_json(game.u1)}, "u2": {_matrix_json(game.u2)}}}\n'
    )


def write_games(directory: str, games: list[Game]) -> tuple[list[str], dict[str, int], str]:
    """Write ``games`` as ``g0000.json``... and return (paths, sizes, digest).

    The digest is the sha256 over every file name and byte in order, so two
    commits can show that they read identical inputs.
    """
    digest = hashlib.sha256()
    paths, sizes = [], {}
    for k, game in enumerate(games):
        name = f"g{k:04d}.json"
        data = game_json(game).encode("ascii")
        path = os.path.join(directory, name)
        with open(path, "wb") as fh:
            fh.write(data)
        digest.update(name.encode() + b"\0" + data)
        paths.append(path)
        sizes[path] = len(data)
    return paths, sizes, digest.hexdigest()
