"""Compare two directories of CSVs written by `tools/csv_digest.py DIR`.

    python3 tools/csv_digest.py before/     # in one source tree
    python3 tools/csv_digest.py after/      # in the other
    python3 tools/csv_reldiff.py before/ after/

For each CSV file in either directory it prints the row count, the number
of numeric cells that differ, and the worst relative change
|a - b| / max(|a|, |b|) over those cells.  When the row counts differ it
prints each directory's count, as in `rows before/ 48, after/ 49`, and
compares the rows the two files share.  A cell is numeric when it parses
as a float in both files; every other cell, the comment line included, must
match exactly, and so must a cell that is non-finite (nan, inf, -inf) in
either file, since no relative change measures it; the first such cell
that differs is printed with its row and column (both counted from 1, the
comment line being row 1) and both values.  The exit status is 1
when a file is missing from one side, when row counts differ, or when a
non-numeric or non-finite cell differs, and 0 otherwise, so a
rounding-level refactor is checked by the printed worst change.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(path_a: Path, path_b: Path) -> tuple[str, bool]:
    """(report line, whether the structure matches) for one pair of files."""
    rows_a = list(csv.reader(path_a.read_text().splitlines()))
    rows_b = list(csv.reader(path_b.read_text().splitlines()))
    numeric = differ = mismatched = 0
    worst = 0.0
    first = ""
    for row_no, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=1):
        if len(row_a) != len(row_b):
            mismatched += 1
            first = first or f"row {row_no}: {len(row_a)} != {len(row_b)} cells"
            continue
        for col_no, (cell_a, cell_b) in enumerate(zip(row_a, row_b), start=1):
            a, b = _number(cell_a), _number(cell_b)
            if (a is None or b is None
                    or not (math.isfinite(a) and math.isfinite(b))):
                if cell_a != cell_b:
                    mismatched += 1
                    first = first or (f"row {row_no} column {col_no}: "
                                      f"{cell_a!r} != {cell_b!r}")
                continue
            numeric += 1
            if cell_a != cell_b:
                differ += 1
                scale = max(abs(a), abs(b))
                worst = max(worst, abs(a - b) / scale if scale else 0.0)
    same_rows = len(rows_a) == len(rows_b)
    line = f"rows {len(rows_a)}" if same_rows else (
        f"rows {path_a.parent}/ {len(rows_a)}, {path_b.parent}/ {len(rows_b)}, "
        f"first {min(len(rows_a), len(rows_b))} compared")
    line += (f", numeric cells differing {differ} of {numeric}, "
             f"worst relative change {worst:.2e}")
    if mismatched:
        line += (f", non-numeric or non-finite cells differing {mismatched}, "
                 f"first at {first}")
    return line, same_rows and mismatched == 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(arg) for arg in argv)
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.glob("*.csv")})
    ok = True
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.is_file() and path_b.is_file()):
            line, same = "missing on one side", False
        else:
            line, same = compare(path_a, path_b)
        ok &= same
        print(f"{name}: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
