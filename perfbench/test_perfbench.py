"""Tests of the benchmark itself: seeded inputs and the exact checker.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from strictgames.cli import run_cli  # noqa: E402

# u2 = -2*u1 + 3 over matching pennies shifted up: value 3/2 at (1/2, 1/2)
PENNIES = gen.Game(
    gen.DISGUISED, ((2, 1), (1, 2)), ((-1, 1), (1, -1)), (Fraction(2), Fraction(3)), Fraction(1, 2)
)
CUBE = gen.Game(gen.CUBE, ((0, 1), (2, 4)), ((0, -1), (-8, -64)), None, None)


def cli_output(game: gen.Game, argv: list[str], tmp_path) -> tuple[int, str]:
    path = tmp_path / "game.json"
    path.write_text(gen.game_json(game))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli([argv[0], str(path), *argv[1:]])
    return code, out.getvalue()


def tampered(stdout: str, **changes) -> str:
    data = json.loads(stdout)
    data.update(changes)
    return json.dumps(data)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    digests = []
    for k, seed in enumerate((1, 1, 2)):
        directory = tmp_path / str(k)
        directory.mkdir()
        digests.append(workloads.WORKLOADS[name](seed, str(directory)).input_digest)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("kind", gen.KINDS)
def test_planted_truth_matches_the_checkers_own_tests(kind):
    game = gen.make_game(random.Random(kind), kind, 6, 20)
    assert check.affine_fit(game.u1, game.u2) == game.transform
    assert check.mv_lambda2(game.u1, game.u2) == game.lambda2
    assert (game.transform is not None) == (kind == gen.DISGUISED)
    if kind in (gen.DISGUISED, gen.STRATEGIC):
        assert game.lambda2 is not None


def test_solve_checker_accepts_the_package_and_rejects_tampering(tmp_path):
    code, stdout = cli_output(PENNIES, ["solve"], tmp_path)
    assert check.check_solve(PENNIES, code, stdout) == []
    off_optimum = tampered(stdout, row_strategy=["1/1", "0/1"])
    assert check.check_solve(PENNIES, code, off_optimum)
    wrong_alpha = tampered(stdout, alpha="3/1")
    assert check.check_solve(PENNIES, code, wrong_alpha)
    wrong_value = tampered(stdout, value="1/1")
    assert check.check_solve(PENNIES, code, wrong_value)
    assert check.check_solve(PENNIES, 1, stdout)


def test_verdict_checker_rejects_flipped_verdicts(tmp_path):
    code, stdout = cli_output(PENNIES, ["check"], tmp_path)
    assert check.check_check(PENNIES, code, stdout) == []
    flipped = tampered(stdout, status="not_adversarial")
    assert check.check_check(PENNIES, 1, flipped)
    wrong_beta = tampered(stdout, beta="4/1")
    assert check.check_check(PENNIES, code, wrong_beta)

    code, stdout = cli_output(CUBE, ["check"], tmp_path)
    assert check.check_check(CUBE, code, stdout) == []
    assert check.check_check(CUBE, 0, tampered(stdout, status="adversarial"))
    witness = json.loads(stdout)["witness"]
    moved = dict(witness, cell=[0, 0])
    assert check.check_check(CUBE, code, tampered(stdout, witness=moved))


def test_mv_and_normalize_checkers_reject_tampering(tmp_path):
    code, stdout = cli_output(PENNIES, ["mv-check"], tmp_path)
    assert check.check_mv(PENNIES, code, stdout) == []
    assert check.check_mv(PENNIES, code, tampered(stdout, lambda2="1/1"))
    offsets = json.loads(stdout)["row_offsets"]
    assert check.check_mv(PENNIES, code, tampered(stdout, row_offsets=["1/1", *offsets[1:]]))

    out = tmp_path / "zero.json"
    code, stdout = cli_output(PENNIES, ["normalize", "--out", str(out)], tmp_path)
    written = out.read_text()
    assert check.check_normalize(PENNIES, code, stdout, written) == []
    data = json.loads(written)
    data["u1"][0][0] = 0
    assert check.check_normalize(PENNIES, code, stdout, json.dumps(data))


def test_audit_checker_rejects_failures(tmp_path):
    code, stdout = cli_output(PENNIES, ["audit-axioms", "--samples", "5"], tmp_path)
    assert check.check_audit(code, stdout, "neg-u1", 5) == []
    data = json.loads(stdout)
    data["axioms"]["MS3"]["failures"] = 1
    assert check.check_audit(code, json.dumps(data), "neg-u1", 5)


def test_crosscheck_never_claims_agreement_without_a_comparison():
    nothing = check.crosscheck(Fraction(3, 2), [])
    assert (nothing.compared, nothing.agreed, nothing.unchecked) == (0, 0, 1)
    assert nothing.status == "unchecked"
    # a record that compared nothing yet reports no unchecked comparison,
    # or reports agreement, is inconsistent
    assert check.check_crosscheck(check.CrossCheck(0, 0, 0))
    assert check.check_crosscheck(check.CrossCheck(0, 1, 0))
    assert check.check_crosscheck(check.crosscheck(Fraction(3, 2), [Fraction(3, 2), Fraction(1)]))
    agree = check.crosscheck(Fraction(3, 2), [Fraction(3, 2)])
    assert agree.status == "agree" and check.check_crosscheck(agree) == []


def test_equilibrium_checker_rejects_a_profitable_deviation():
    half = [Fraction(1, 2)] * 2
    assert check.equilibrium_problems(PENNIES, half, half, (Fraction(3, 2), Fraction(0))) == []
    pure = [Fraction(1), Fraction(0)]
    assert check.equilibrium_problems(PENNIES, pure, half, (Fraction(3, 2), Fraction(0)))
