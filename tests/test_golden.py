"""Golden output test: CLI stdout and enumerated equilibria, byte for byte.

``golden_outputs.json`` holds, for fixed-seed ``gen`` games of every
family, the exit code and standard output of ``gen``, ``check``,
``normalize``, ``solve``, ``mv-check`` and ``audit-axioms --samples 20``,
plus ``support_enumeration(...).to_json_dict()`` of each game up to 5x5
and of its zero-sum normalization when it has one.  A refactor that claims
unchanged results must leave this file unchanged.  Regenerate it only for
an intended output change, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from strictgames.cli import run_cli
from strictgames.detection import detect_affine, to_zero_sum
from strictgames.generators import Family
from strictgames.io import loads_game
from strictgames.solvers import support_enumeration

GOLDEN = Path(__file__).with_name("golden_outputs.json")

SIZES = [(2, 2), (2, 3), (3, 3), (4, 3), (4, 4), (5, 5)]
# bound 2 draws many repeated payoffs, so enumeration meets singular systems
VALUE_BOUNDS = [20, 2]
SEED = 7


def _cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return {"code": code, "stdout": out.getvalue()}


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for family in Family:
        for bound in VALUE_BOUNDS:
            for rows, cols in SIZES:
                name = f"{family.value}-{rows}x{cols}-b{bound}"
                cases.append((name, ["--rows", str(rows), "--cols", str(cols),
                                     "--value-bound", str(bound)]))
    cases.append(("disguised-zero-sum-12x12-b20",
                  ["--rows", "12", "--cols", "12", "--value-bound", "20"]))
    return cases


def _family(name: str) -> str:
    return next(f.value for f in Family if name.startswith(f.value + "-"))


def collect() -> dict:
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, size_args in _cases():
            generated = _cli(["gen", "--family", _family(name), "--seed", str(SEED)]
                             + size_args)
            path = os.path.join(tmp, "game.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(generated["stdout"])
            entry = {
                "gen": generated,
                "check": _cli(["check", path]),
                "normalize": _cli(["normalize", path]),
                "solve": _cli(["solve", path]),
                "mv-check": _cli(["mv-check", path]),
                "audit-axioms": _cli(["audit-axioms", path, "--samples", "20"]),
            }
            game = loads_game(generated["stdout"])
            if game.rows <= 5 and game.cols <= 5:
                entry["enumeration"] = support_enumeration(game).to_json_dict()
                result = detect_affine(game)
                if result.is_adversarial:
                    zero = to_zero_sum(game, result.transform)
                    entry["enumeration_zero_sum"] = (
                        support_enumeration(zero).to_json_dict()
                    )
            outputs[name] = entry
    return outputs


def render(outputs: dict) -> str:
    return json.dumps(outputs, indent=1, sort_keys=True) + "\n"


def test_golden_outputs():
    assert render(collect()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(render(collect()), encoding="utf-8")
