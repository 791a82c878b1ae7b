"""Detection / LP / enumeration timing harness.

Each cell of the (family, size, seed) grid generates one game, times
affine detection, then times the normalize-plus-minimax path when the game
is adversarial and the support-enumeration oracle unless the game exceeds
``solvers.MAX_ENUM_DIM`` and enumeration raises :class:`TooLarge`, in
which case ``enum_ns`` stays None.  Whenever both solution paths ran and
enumeration found an equilibrium, the record's agreement flag re-checks
exactly that every enumerated equilibrium's row payoff matches the LP
value mapped back through the detected transform; otherwise nothing was
compared and the flag is None, never a default pass.  Records are emitted
in deterministic grid order; only the timing fields vary run to run.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, fields

from .detection import detect_affine, to_zero_sum
from .errors import TooLarge
from .generators import Family, GenSpec, gen
from .solvers import enumeration_agrees, minimax_solve, support_enumeration


@dataclass(frozen=True)
class BenchRecord:
    family: str
    rows: int
    cols: int
    seed: int
    detect_ns: int
    lp_ns: int | None
    enum_ns: int | None
    agree: bool | None


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def _timed(fn, *args):
    """``fn(*args)`` and its wall time in nanoseconds."""
    t0 = time.perf_counter_ns()
    result = fn(*args)
    return result, time.perf_counter_ns() - t0


def run_cell(family: Family, rows: int, cols: int, seed: int) -> BenchRecord:
    game = gen(GenSpec(family=family, rows=rows, cols=cols, seed=seed))
    result, detect_ns = _timed(detect_affine, game)
    t = result.transform

    solution = lp_ns = None
    if result.is_adversarial:
        solution, lp_ns = _timed(lambda: minimax_solve(to_zero_sum(game, t)))

    try:
        equilibria, enum_ns = _timed(support_enumeration, game)
    except TooLarge:
        equilibria = enum_ns = None

    agree = None
    if solution is not None and equilibria is not None:
        agree = enumeration_agrees(t.u1_value(solution.value), equilibria)

    return BenchRecord(
        family=family.value,
        rows=rows,
        cols=cols,
        seed=seed,
        detect_ns=detect_ns,
        lp_ns=lp_ns,
        enum_ns=enum_ns,
        agree=agree,
    )


def run_bench(
    families: list[Family], sizes: list[tuple[int, int]], seeds: list[int]
) -> list[BenchRecord]:
    records = []
    for family in families:
        for rows, cols in sizes:
            for seed in seeds:
                records.append(run_cell(family, rows, cols, seed))
    return records


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def write_csv(path: str, records: list[BenchRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([_csv_cell(v) for v in astuple(r)])
