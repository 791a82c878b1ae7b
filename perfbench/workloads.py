"""The three workloads: seeded inputs, the timed calls and their checks.

An op is one unit of closed-loop work on one input.  ``Op.run`` is the
timed part: it calls the package only through the ``api`` namespace it is
given (so a traced run can hand it wrapped functions) and returns the raw
results.  The rest is untimed.  ``Op.output`` turns the raw results into a
canonical, comparable value; ``Op.check`` checks that value exactly against
the planted truth and returns the problems found and exact counts of the
work the op asked for, derived from its inputs and outputs.  The package is
deterministic, so a later run of the same input must give an equal output.

Consecutive inputs step through the latency classes (sizes, kinds, value
bounds), so every prefix of the pool is balanced across classes.  The class
mix puts p50 and p90 inside a class rather than between two: ``solve-lp``
and ``classify`` have an odd number of equally weighted size classes, and
``small-games`` gives one class a double share.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import check
import gen


@dataclass
class Checked:
    problems: list[str]
    counts: Counter = field(default_factory=Counter)


def _stdout(raw: tuple[int, str, str]) -> tuple[int, str]:
    return raw[:2]  # exit code and stdout; stderr holds only diagnostics


@dataclass
class Op:
    label: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Checked]
    output: Callable[[Any], Any] = _stdout


@dataclass
class Workload:
    ops: list[Op]
    warmup: int  # leading ops run once, untimed, during set-up
    input_digest: str


# solve-lp: three square sizes, each at value bound 20 and at bound 2, where
# many ratio-test ties make degenerate pivots common
SOLVE_SIZES = (24, 32, 40)
SOLVE_BOUNDS = (20, 2)
SOLVE_POOL = 306

CLASSIFY_SIZES = (60, 70, 80, 90, 100)
CLASSIFY_REPEATS = 4

# small-games: each round of seven inputs holds every (kind, size) class
# once and uniform 4x4 twice, which puts p50 inside that class
SMALL_ROUND = (
    (gen.UNIFORM, 3), (gen.DISGUISED, 3), (gen.UNIFORM, 4), (gen.DISGUISED, 4),
    (gen.UNIFORM, 5), (gen.DISGUISED, 5), (gen.UNIFORM, 4),
)
SMALL_POOL = 105
AUDIT_SAMPLES = 20


def cli(api, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _bits(values) -> int:
    return sum(q.numerator.bit_length() + q.denominator.bit_length() for q in values)


def _loaded(game: gen.Game, path: str, sizes: dict[str, int], loads: int = 1) -> Counter:
    return Counter(
        {"io.entries_parsed": 2 * game.n**2 * loads, "io.bytes_read": sizes[path] * loads}
    )


def _cells_scanned(game: gen.Game, verdict: dict) -> int:
    """Cells whose affine equation detection evaluated before deciding."""
    w = verdict.get("witness") or {}
    if w.get("kind") == "affine_mismatch":
        return w["cell"][0] * game.n + w["cell"][1] + 1
    if w.get("kind") == "alpha_nonpositive":
        return w["anchors"][1][0] * game.n + w["anchors"][1][1] + 1
    return game.n**2


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def solve_lp(seed: int, workdir: str) -> Workload:
    rng = _rng("solve-lp", seed)
    games = [
        gen.make_game(rng, gen.DISGUISED, SOLVE_SIZES[k % 3], SOLVE_BOUNDS[k // 3 % 2])
        for k in range(SOLVE_POOL)
    ]
    paths, sizes, digest = gen.write_games(workdir, games)

    def op(game: gen.Game, path: str) -> Op:
        def judge(output) -> Checked:
            code, stdout = output
            counts = _loaded(game, path, sizes) + Counter(
                {"detection.cells_scanned": game.n**2}
            )
            problems = check.check_solve(game, code, stdout)
            if not problems:
                out = json.loads(stdout)
                values = [out["value"], *out["row_strategy"], *out["col_strategy"]]
                counts["solvers.lp_output_bits"] = _bits(map(check.rational, values))
            return Checked(problems, counts)

        return Op(f"solve {game.n}x{game.n}", lambda api: cli(api, ["solve", path]), judge)

    return Workload([op(g, p) for g, p in zip(games, paths)], len(SOLVE_SIZES), digest)


def classify(seed: int, workdir: str) -> Workload:
    rng = _rng("classify", seed)
    n_files = len(gen.KINDS) * len(CLASSIFY_SIZES) * CLASSIFY_REPEATS
    games = [
        gen.make_game(rng, gen.KINDS[k % 4], CLASSIFY_SIZES[k // 4 % len(CLASSIFY_SIZES)], 20)
        for k in range(n_files)
    ]
    paths, sizes, digest = gen.write_games(workdir, games)
    ops, warmup = [], 0
    for k, (game, path) in enumerate(zip(games, paths)):
        if k == len(gen.KINDS):
            warmup = len(ops)  # warm up on the first file of each kind
        label = f"{game.kind} {game.n}x{game.n}"

        def judge_check(output, game=game, path=path) -> Checked:
            code, stdout = output
            problems = check.check_check(game, code, stdout)
            counts = _loaded(game, path, sizes)
            if not problems:
                counts["detection.cells_scanned"] = _cells_scanned(game, json.loads(stdout))
            return Checked(problems, counts)

        def judge_mv(output, game=game, path=path) -> Checked:
            code, stdout = output
            counts = _loaded(game, path, sizes) + Counter(
                {"strategic.calls": 1, "strategic.decomposed": int(code == 0)}
            )
            return Checked(check.check_mv(game, code, stdout), counts)

        ops.append(Op("check " + label, lambda api, p=path: cli(api, ["check", p]), judge_check))
        ops.append(Op("mv-check " + label, lambda api, p=path: cli(api, ["mv-check", p]), judge_mv))
        if game.transform is None:
            continue
        out_path = os.path.join(workdir, f"z{k:04d}.json")

        def written(raw, out_path=out_path) -> tuple[int, str, str]:
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out_path)  # a later run must write it again
            return raw[0], raw[1], text

        def judge_normalize(output, game=game, path=path) -> Checked:
            code, stdout, text = output
            counts = _loaded(game, path, sizes) + Counter(
                {"io.bytes_written": len(text.encode()), "detection.cells_scanned": game.n**2}
            )
            return Checked(check.check_normalize(game, code, stdout, text), counts)

        ops.append(
            Op(
                "normalize " + label,
                lambda api, p=path, o=out_path: cli(api, ["normalize", p, "--out", o]),
                judge_normalize,
                written,
            )
        )
    return Workload(ops, warmup, digest)


def _support_pairs(n: int) -> int:
    return sum(math.comb(n, k) ** 2 for k in range(1, n + 1))


def _fractions(strategy) -> tuple[Fraction, ...]:
    return tuple(Fraction(p) for p in strategy)


def small_games(seed: int, workdir: str) -> Workload:
    rng = _rng("small-games", seed)
    games = [gen.make_game(rng, *SMALL_ROUND[k % 7], 20, distinct=True) for k in range(SMALL_POOL)]
    paths, sizes, digest = gen.write_games(workdir, games)

    def op(k: int, game: gen.Game, path: str) -> Op:
        lens = ("neg-u1", "u2")[k // 7 % 2]
        argv = ["audit-axioms", path, "--lens", lens, "--samples", str(AUDIT_SAMPLES), "--seed", str(k)]

        def run(api):
            audit = cli(api, argv)
            loaded = api.load_game(path)
            equilibria = api.support_enumeration(loaded)
            if game.transform is None:
                return audit, equilibria, None, None
            t = api.AffineTransform(*game.transform)
            invariant = api.equilibrium_invariance_check(loaded, t)
            return audit, equilibria, invariant, api.minimax_solve(api.to_zero_sum(loaded, t))

        def output(raw):
            (code, stdout, _), equilibria, invariant, solution = raw
            found = tuple(
                (_fractions(e.x), _fractions(e.y), tuple(Fraction(v) for v in e.payoffs))
                for e in equilibria
            )
            if solution is not None:
                solution = (
                    Fraction(solution.value),
                    _fractions(solution.row_strategy),
                    _fractions(solution.col_strategy),
                )
            return code, stdout, found, invariant, solution

        def judge(output) -> Checked:
            code, stdout, found, invariant, solution = output
            problems = check.check_audit(code, stdout, lens, AUDIT_SAMPLES)
            counts = _loaded(game, path, sizes, loads=2)
            if not problems:
                for s in json.loads(stdout)["axioms"].values():
                    counts["axioms.samples_drawn"] += s["samples"]
                    counts["axioms.checked"] += s["checked"]
                    counts["axioms.vacuous"] += s["vacuous"]
            for x, y, payoffs in found:
                problems += check.equilibrium_problems(game, x, y, payoffs)
            counts["solvers.enum_equilibria"] = len(found)
            enumerations = 1
            if game.transform is not None:
                enumerations += 2  # the invariance check enumerates twice
                if invariant is not True:
                    problems.append(f"equilibrium invariance check returned {invariant!r}")
                alpha, beta = game.transform
                value, x, y = solution
                u1_value = (value + beta) / alpha
                problems += check.guarantee_problems(game.u1, u1_value, x, y)
                cc = check.crosscheck(u1_value, [payoffs[0] for _, _, payoffs in found])
                problems += check.check_crosscheck(cc)
                counts["solvers.crosscheck.compared"] = cc.compared
                counts["solvers.crosscheck.agreed"] = cc.agreed
                counts["solvers.crosscheck.unchecked"] = cc.unchecked
                counts["solvers.lp_output_bits"] = _bits([value, *x, *y])
            counts["solvers.enum_support_pairs"] = enumerations * _support_pairs(game.n)
            return Checked(problems, counts)

        return Op(f"{game.kind} {game.n}x{game.n}", run, judge, output)

    ops = [op(k, g, p) for k, (g, p) in enumerate(zip(games, paths))]
    return Workload(ops, len(SMALL_ROUND), digest)


WORKLOADS = {"solve-lp": solve_lp, "classify": classify, "small-games": small_games}
