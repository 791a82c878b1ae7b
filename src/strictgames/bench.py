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
from dataclasses import dataclass

from .detection import detect_affine, to_zero_sum
from .errors import TooLarge
from .generators import Family, GenSpec, gen
from .solvers import minimax_solve, support_enumeration


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


CSV_COLUMNS = ("family", "rows", "cols", "seed", "detect_ns", "lp_ns", "enum_ns", "agree")


def run_cell(family: Family, rows: int, cols: int, seed: int) -> BenchRecord:
    game = gen(GenSpec(family=family, rows=rows, cols=cols, seed=seed))

    t0 = time.perf_counter_ns()
    result = detect_affine(game)
    detect_ns = time.perf_counter_ns() - t0

    lp_ns = None
    solution = None
    if result.is_adversarial:
        t0 = time.perf_counter_ns()
        solution = minimax_solve(to_zero_sum(game, result.transform))
        lp_ns = time.perf_counter_ns() - t0

    enum_ns = None
    equilibria = None
    t0 = time.perf_counter_ns()
    try:
        equilibria = support_enumeration(game)
        enum_ns = time.perf_counter_ns() - t0
    except TooLarge:
        pass

    agree = None
    if solution is not None and equilibria:
        t = result.transform
        expected_u1 = (solution.value + t.beta) / t.alpha
        agree = all(e.payoffs[0] == expected_u1 for e in equilibria)

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


def write_csv(path: str, records: list[BenchRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(
                [
                    r.family,
                    r.rows,
                    r.cols,
                    r.seed,
                    r.detect_ns,
                    "" if r.lp_ns is None else r.lp_ns,
                    "" if r.enum_ns is None else r.enum_ns,
                    "" if r.agree is None else str(r.agree).lower(),
                ]
            )
