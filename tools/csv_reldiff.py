"""Compare two directories of CSVs written by `tools/csv_digest.py DIR`.

    python3 tools/csv_digest.py before/     # in one source tree
    python3 tools/csv_digest.py after/      # in the other
    python3 tools/csv_reldiff.py before/ after/

For each CSV file in either directory it prints the row count, the number
of numeric cells that differ, and the worst relative change
|a - b| / max(|a|, |b|) over those cells.  Rows are paired by key, not by
position: the comment line and the header by position, each data row by
its cells in the identifying columns (`ID_COLUMNS`, those the header has)
and by how often that key came before, so rows without identifying
columns pair in order.  One inserted row, say one more map in a
convergence file, is then one unpaired row and shifts no later row
against another.  When the row counts differ it prints each directory's
count, as in `rows before/ 48, after/ 49`; rows on one side only are
counted per side, and the first is shown with its row number and key.
A cell is numeric when it parses as a float in both files; every other
cell, the comment line included, must match exactly, and so must a cell
that is non-finite (nan, inf, -inf) in either file, since no relative
change measures it; the first such cell that differs is printed with its
row and column (both counted from 1 in the first file, the comment line
being row 1) and both values.  The exit status is 1 when a file is
missing from one side, when a row is on one side only, or when a
non-numeric or non-finite cell differs, and 0 otherwise, so a
rounding-level refactor is checked by the printed worst change.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import Counter
from pathlib import Path

# The columns that name what a row measures, by which rows are paired.
ID_COLUMNS = ("algorithm", "L", "rho", "trial", "iteration", "angle_deg")


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _keyed(rows: list[list[str]]) -> dict[tuple, tuple[int, list[str]]]:
    """{key: (row number, row)} for the rows of one file (see the module
    docstring for the keys)."""
    header_at = next((i for i, row in enumerate(rows)
                      if row and not row[0].startswith("#")), len(rows))
    header = rows[header_at] if header_at < len(rows) else []
    ids = [(j, name) for j, name in enumerate(header) if name in ID_COLUMNS]
    seen: Counter = Counter()
    keyed = {}
    for row_no, row in enumerate(rows, start=1):
        key = (None, row_no)   # the comment line and header, by position
        if row_no > header_at + 1:
            ident = tuple(f"{name}={row[j]}" for j, name in ids if j < len(row))
            seen[ident] += 1
            key = (ident, seen[ident])
        keyed[key] = (row_no, row)
    return keyed


def compare(path_a: Path, path_b: Path) -> tuple[str, bool]:
    """(report line, whether the structure matches) for one pair of files."""
    rows_a = list(csv.reader(path_a.read_text().splitlines()))
    rows_b = list(csv.reader(path_b.read_text().splitlines()))
    keyed_a, keyed_b = _keyed(rows_a), _keyed(rows_b)
    numeric = differ = mismatched = 0
    worst = 0.0
    first = ""
    for key, (row_no, row_a) in keyed_a.items():
        if key not in keyed_b:
            continue
        row_b = keyed_b[key][1]
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
    line = f"rows {len(rows_a)}" if len(rows_a) == len(rows_b) else (
        f"rows {path_a.parent}/ {len(rows_a)}, {path_b.parent}/ {len(rows_b)}")
    line += (f", numeric cells differing {differ} of {numeric}, "
             f"worst relative change {worst:.2e}")
    unpaired = 0
    for path, mine, other in ((path_a, keyed_a, keyed_b), (path_b, keyed_b, keyed_a)):
        alone = [(row_no, key) for key, (row_no, _) in mine.items() if key not in other]
        if alone:
            row_no, (ident, _) = alone[0]
            line += (f", rows only in {path.parent}/ {len(alone)}, first row "
                     f"{row_no}" + (f" ({' '.join(ident)})" if ident else ""))
        unpaired += len(alone)
    if mismatched:
        line += (f", non-numeric or non-finite cells differing {mismatched}, "
                 f"first at {first}")
    return line, unpaired == 0 and mismatched == 0


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
