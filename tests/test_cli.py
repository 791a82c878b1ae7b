import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from strictgames import solvers
from strictgames.cli import run_cli
from strictgames.games import new_game
from strictgames.io import load_game, save_game

MATCHING_PENNIES = new_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
CUBE = new_game([[0, 1], [2, 4]], [[0, -1], [-8, -64]])
PRISONERS = new_game([[3, 0], [5, 1]], [[3, 5], [0, 1]])
# u2 = -2*u1 + 3 over a core with minimax value 3/2
DISGUISED_VALUE = new_game([[2, 1], [1, 2]], [[-1, 1], [1, -1]])


@pytest.fixture
def game_file(tmp_path):
    def write(game, name="game.json"):
        path = tmp_path / name
        save_game(str(path), game)
        return str(path)

    return write


def test_check_adversarial(game_file, capsys):
    code = run_cli(["check", game_file(MATCHING_PENNIES)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["alpha"] == "1/1"
    assert out["beta"] == "0/1"


def test_check_cube_game(game_file, capsys):
    code = run_cli(["check", game_file(CUBE)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "not_adversarial"
    assert out["witness"]["kind"] == "affine_mismatch"
    assert out["witness"]["cell"] == [1, 0]


def test_check_ordinal_violation_witness(game_file, capsys):
    # u1 ties every pair of cells while u2 does not
    game = new_game([[2, 2], [2, 2]], [[1, 3], [0, 3]])
    assert run_cli(["check", game_file(game)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "status": "not_adversarial",
        "witness": {"kind": "ordinal_violation", "sigma": [0, 1], "tau": [0, 0]},
    }


def test_check_missing_file(capsys):
    code = run_cli(["check", "/nonexistent/game.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2}')
    assert run_cli(["check", str(path)]) == 2
    assert capsys.readouterr().err


def test_check_names_the_ragged_matrix(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text('{"rows": 2, "cols": 2, "u1": [[1, 2], [3]], "u2": [[0, 0], [0, 0]]}')
    assert run_cli(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: u1 has rows of widths [1, 2] (file declares 2x2)\n"


def test_bad_usage_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2
    capsys.readouterr()


def test_normalize_writes_zero_sum(game_file, tmp_path, capsys):
    out_path = tmp_path / "zero.json"
    code = run_cli(["normalize", game_file(DISGUISED_VALUE), "--out", str(out_path)])
    assert code == 0
    z = load_game(str(out_path))
    u1, u2 = z.u1, z.u2
    assert all(u1[i][j] + u2[i][j] == 0 for i in range(z.rows) for j in range(z.cols))
    capsys.readouterr()


def test_normalize_refuses_non_adversarial(game_file, capsys):
    assert run_cli(["normalize", game_file(PRISONERS)]) == 1
    assert "not adversarial" in capsys.readouterr().err


def test_solve_reports_both_scales(game_file, capsys):
    code = run_cli(["solve", game_file(DISGUISED_VALUE)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["alpha"] == "2/1"
    assert out["beta"] == "3/1"
    assert out["value"] == "0/1"
    assert out["u1_value"] == "3/2"
    assert out["row_strategy"] == ["1/2", "1/2"]


def test_solve_exits_2_when_the_pivot_budget_runs_out(game_file, monkeypatch, capsys):
    # a tableau corrupted so that one column re-enters forever
    pivot = solvers._Simplex._pivot

    def sign_flipping_pivot(self, row, col, column):
        pivot(self, row, col, column)
        self.rows[-1][col] = -self.rows[-1][col]

    monkeypatch.setattr(solvers._Simplex, "_pivot", sign_flipping_pivot)
    # with no guessed basis every LP goes to the exact simplex
    monkeypatch.setattr(solvers, "_guess_supports", lambda a: None)
    assert run_cli(["solve", game_file(DISGUISED_VALUE)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no optimum after 200 pivots on a 2x2 LP" in captured.err


def test_solve_non_adversarial_exit_1(game_file, capsys):
    assert run_cli(["solve", game_file(CUBE)]) == 1
    capsys.readouterr()


def test_audit_axioms(game_file, capsys):
    code = run_cli(
        ["audit-axioms", game_file(MATCHING_PENNIES), "--lens", "u2",
         "--samples", "50", "--seed", "3"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["overall_pass"] is True
    assert out["lens"] == "u2"


def test_mv_check(game_file, capsys):
    assert run_cli(["mv-check", game_file(MATCHING_PENNIES)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "strategically_zero_sum"
    assert run_cli(["mv-check", game_file(PRISONERS)]) == 1
    assert json.loads(capsys.readouterr().out) == {"status": "none"}


def test_gen_then_check_pipeline(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code = run_cli(
        ["gen", "--family", "disguised-zero-sum", "--rows", "3", "--cols", "3",
         "--seed", "42", "--out", str(out_path)]
    )
    assert code == 0
    assert run_cli(["check", str(out_path)]) == 0
    capsys.readouterr()


def test_gen_rejects_bad_spec(capsys):
    code = run_cli(
        ["gen", "--family", "ordinal-not-affine", "--rows", "1", "--cols", "2",
         "--seed", "1"]
    )
    assert code == 2
    assert capsys.readouterr().err


def test_cli_determinism(game_file, capsys):
    path = game_file(DISGUISED_VALUE)
    run_cli(["solve", path])
    first = capsys.readouterr().out
    run_cli(["solve", path])
    second = capsys.readouterr().out
    assert first == second


def test_bench_csv(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code = run_cli(
        ["bench", "--families", "disguised-zero-sum,uniform",
         "--sizes", "2x2,3x3,6x6", "--seeds", "1,2", "--out", str(out_path)]
    )
    summary = json.loads(capsys.readouterr().out)
    assert code == 0
    assert summary["cells"] == 12
    # only the small disguised cells run both paths; the uniform ones and
    # the 6x6 ones, over the enumeration cap, compare nothing
    assert summary["agreements"] == 4
    with open(out_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    small = [r for r in rows if r["rows"] != "6"]
    assert all(
        r["agree"] == ("true" if r["family"] == "disguised-zero-sum" else "")
        for r in small
    )
    assert all(r["enum_ns"].isdigit() for r in small)
    assert all(r["detect_ns"].isdigit() for r in rows)
    # uniform games are not adversarial, so the LP column stays empty
    assert all(r["lp_ns"] == "" for r in rows if r["family"] == "uniform")
    large = [r for r in rows if r["rows"] == "6"]
    assert len(large) == 4
    assert all(r["enum_ns"] == "" and r["agree"] == "" for r in large)
    assert all(r["lp_ns"].isdigit() for r in large if r["family"] == "disguised-zero-sum")


def test_parser_reused_after_bad_arguments(game_file, capsys):
    # the parser is built once per process, so a call that argparse rejects
    # must leave nothing behind for the next call
    path = game_file(DISGUISED_VALUE)
    assert run_cli(["solve"]) == 2
    assert "usage" in capsys.readouterr().err
    assert run_cli(["solve", path]) == 0
    assert json.loads(capsys.readouterr().out)["u1_value"] == "3/2"
    assert run_cli(["audit-axioms", path, "--samples", "zero"]) == 2
    capsys.readouterr()
    assert run_cli(["audit-axioms", path, "--samples", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["samples"] == 5 and out["seed"] == 0 and out["lens"] == "neg_u1"
    assert run_cli(["gen", "--family", "uniform"]) == 2
    capsys.readouterr()
    assert run_cli(["check", path]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == "2/1"


def test_module_entry_point_exit_codes(game_file, tmp_path):
    # runs main() and the __main__ guard in a fresh interpreter
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def exit_code(path):
        argv = [sys.executable, "-m", "strictgames.cli", "check", path]
        return subprocess.run(argv, env=env, capture_output=True, timeout=60).returncode

    assert exit_code(game_file(MATCHING_PENNIES)) == 0
    assert exit_code(game_file(PRISONERS, "prisoners.json")) == 1
    assert exit_code(str(tmp_path / "missing.json")) == 2
