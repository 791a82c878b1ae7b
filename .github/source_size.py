"""Print the two source-size counts that ROADMAP.md tracks.

- lines: what ``wc -l src/strictgames/*.py`` reports;
- code lines: physical lines holding a token of a statement other than a
  lone string (a docstring), so comments, blank lines and docstrings are
  left out.  A line of a multi-line statement counts when any token of
  that statement is on it.

Run from the repository root: ``python .github/source_size.py``.  It
gates nothing; it only reports.
"""

import io
import tokenize
from pathlib import Path

IGNORED = {
    tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING,
}


def code_lines(text: str) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in IGNORED:
            statement.append(tok)
    return len(lines)


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(Path("src/strictgames").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, code = text.count("\n"), code_lines(text)
        total_lines += lines
        total_code += code
        print(f"{path.name:20} {lines:6} lines {code:6} code lines")
    print(f"{'total':20} {total_lines:6} lines {total_code:6} code lines")


if __name__ == "__main__":
    main()
