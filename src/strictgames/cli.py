"""Command-line front end.

Subcommands: ``check`` (adversariality verdict with certificate),
``normalize`` (write the zero-sum form), ``solve`` (detect, normalize, and
solve by exact LP, reporting the value in both scales), ``audit-axioms``,
``mv-check``, ``gen``, and ``bench``.  Results go to standard output as
JSON; diagnostics go to standard error.  Exit codes: 0 success (for
``check``/``normalize``/``solve``: the game is adversarial), 1 negative
verdict, 2 malformed input, bad arguments or an LP past its pivot budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .axioms import Lens, audit_mixture_axioms
from .bench import run_bench, write_csv
from .detection import detect_affine, to_zero_sum
from .errors import StrictGamesError
from .generators import Family, GenSpec, gen
from .io import dumps_game, load_game, save_game
from .rational import format_rational
from .solvers import minimax_solve
from .strategic import strategically_zero_sum_detect


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _write_game(out: str | None, game) -> None:
    if out:
        save_game(out, game)
    else:
        sys.stdout.write(dumps_game(game))


def _cmd_check(args) -> int:
    result = detect_affine(load_game(args.file))
    _emit(result.to_json_dict())
    return 0 if result.is_adversarial else 1


def _cmd_normalize(args) -> int:
    game = load_game(args.file)
    result = detect_affine(game)
    if not result.is_adversarial:
        print("game is not adversarial; cannot normalize", file=sys.stderr)
        return 1
    _write_game(args.out, to_zero_sum(game, result.transform))
    return 0


def _cmd_solve(args) -> int:
    game = load_game(args.file)
    result = detect_affine(game)
    if not result.is_adversarial:
        print("game is not adversarial; cannot solve as zero-sum", file=sys.stderr)
        _emit(result.to_json_dict())
        return 1
    t = result.transform
    solution = minimax_solve(to_zero_sum(game, t))
    _emit(
        {
            "status": result.status,
            "alpha": format_rational(t.alpha),
            "beta": format_rational(t.beta),
            "u1_value": format_rational(t.u1_value(solution.value)),
            **solution.to_json_dict(),
        }
    )
    return 0


def _cmd_audit_axioms(args) -> int:
    lens = Lens.NEG_U1 if args.lens == "neg-u1" else Lens.U2
    report = audit_mixture_axioms(
        load_game(args.file), lens, samples=args.samples, seed=args.seed
    )
    _emit(report.to_json_dict())
    return 0 if report.overall_pass else 1


def _cmd_mv_check(args) -> int:
    decomposition = strategically_zero_sum_detect(load_game(args.file))
    if decomposition is None:
        _emit({"status": "none"})
        return 1
    _emit(decomposition.to_json_dict())
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(args.family, args.rows, args.cols, args.seed, args.value_bound)
    _write_game(args.out, gen(spec))
    return 0


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    sizes = []
    for token in text.split(","):
        r, _, c = token.partition("x")
        sizes.append((int(r), int(c)))
    return sizes


def _cmd_bench(args) -> int:
    families = [Family(name) for name in args.families.split(",")]
    sizes = _parse_sizes(args.sizes)
    seeds = [int(s) for s in args.seeds.split(",")]
    records = run_bench(families, sizes, seeds)
    write_csv(args.out, records)
    _emit(
        {
            "cells": len(records),
            "agreements": sum(r.agree is True for r in records),
            "out": args.out,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strictgames",
        description="Detect, normalize, and solve strictly competitive games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide adversariality, print certificate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("normalize", help="write the zero-sum normalization")
    p.add_argument("file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("solve", help="detect, normalize, and solve by exact LP")
    p.add_argument("file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("audit-axioms", help="audit the mixture-space axioms")
    p.add_argument("file")
    p.add_argument("--lens", choices=("neg-u1", "u2"), default="neg-u1")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_audit_axioms)

    p = sub.add_parser("mv-check", help="strategic zero-sum feasibility")
    p.add_argument("file")
    p.set_defaults(func=_cmd_mv_check)

    p = sub.add_parser("gen", help="generate a game from a seeded family")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--value-bound", type=int, default=20)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run the timing/agreement grid")
    p.add_argument("--families", required=True, help="comma-separated family names")
    p.add_argument("--sizes", required=True, help="comma-separated, e.g. 2x2,5x5")
    p.add_argument("--seeds", required=True, help="comma-separated integers")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_bench)

    return parser


_parser = functools.cache(build_parser)


def run_cli(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except (StrictGamesError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
