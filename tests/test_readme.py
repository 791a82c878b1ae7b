"""Every ```python block of README.md runs as written, and so does every
``strictgames`` command of its ```sh blocks."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# each shell line, continuations joined, that runs the installed script
COMMANDS = [
    shlex.split(line, comments=True)
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("strictgames ")
]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0])
def test_readme_python_block_runs(code, tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=ENV,
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr


def test_readme_cli_block_runs(tmp_path):
    """The commands run in order in one directory, as a reader would type
    them, so each reads the files the ones before it wrote."""
    assert COMMANDS
    for command in COMMANDS:
        run = subprocess.run(
            [sys.executable, "-m", "strictgames.cli", *command[1:]], cwd=tmp_path,
            env=ENV, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == 0, (command, run.stderr)
