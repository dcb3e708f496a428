"""Print the line counts of each module of the iswpt package.

    python3 tools/line_counts.py

One row per module of `src/iswpt`, then a total row, each with its total,
code, docstring, comment and blank lines.  A docstring is the string that
opens a module, class or function body, found with `ast`; all its lines
count as docstring.  Outside docstrings, a line holding only a comment
counts as comment, an empty one as blank, and every other line as code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "iswpt"
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(source: str) -> set[int]:
    """Line numbers, from 1, of every docstring in `source`."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The five counts of `source`, keyed by `COLUMNS`."""
    docs = docstring_lines(source)
    counts = dict.fromkeys(COLUMNS, 0)
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if lineno in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main() -> int:
    print(f"{'module':<14}" + "".join(f"{name:>11}" for name in COLUMNS))
    total = dict.fromkeys(COLUMNS, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text())
        for name in COLUMNS:
            total[name] += counts[name]
        print(f"{path.stem:<14}" + "".join(f"{counts[n]:>11,}" for n in COLUMNS))
    print(f"{'total':<14}" + "".join(f"{total[n]:>11,}" for n in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
