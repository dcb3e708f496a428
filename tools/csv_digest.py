"""Write the eight CSVs of tools/fixed.spec and print their SHA-256 digests.

The four CSV commands run in-process through `iswpt.cli.main`, once with
`--algo lc,rps` (only `lc` for `convergence`, which rejects rps) and once
with `--algo sdp`.  Comparing the printed digests of two source trees makes
the byte contract of a refactor one diff:

    python tools/csv_digest.py > after.txt
    PYTHONPATH=<other tree>/src python tools/csv_digest.py > before.txt
    diff before.txt after.txt

`tools/fixed.sha256` holds the committed digests, so a change that must keep
the CSV bytes is checked with one line:

    python3 tools/csv_digest.py | diff tools/fixed.sha256 -

The digests assume the NumPy/BLAS build they were recorded with
(`RECORDED_NUMPY`, NumPy 2.4.6 with its bundled OpenBLAS 0.3.31, on
x86-64); another build may round differently and change them.

`iswpt` is imported from PYTHONPATH when it is set there, else from this
repository's `src`.  Pass a directory to keep the CSVs; by default they
are written to a temporary one.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))

from iswpt import cli  # noqa: E402

SPEC = ROOT / "tools" / "fixed.spec"
DIGESTS = ROOT / "tools" / "fixed.sha256"
RECORDED_NUMPY = "2.4.6"
RUNS = [(command, algos)
        for command in ("convergence", "sweep-l", "sweep-rho", "beampattern")
        for algos in (("lc" if command == "convergence" else "lc,rps"), "sdp")]


def write_csvs(out_dir: Path) -> list[Path]:
    paths = []
    for command, algos in RUNS:
        path = out_dir / f"{command}_{algos.replace(',', '_')}.csv"
        code = cli.main([command, "--spec", str(SPEC), "--algo", algos,
                         "--out", str(path)])
        if code != 0:
            raise SystemExit(f"iswpt {command} --algo {algos} exited with {code}")
        paths.append(path)
    return paths


def digest_line(path: Path) -> str:
    """One line of `tools/fixed.sha256`: the SHA-256 digest and file name."""
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"


def main(argv: list[str]) -> int:
    print(f"# iswpt from {Path(cli.__file__).resolve().parent}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(argv[0]) if argv else Path(tmp)
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in write_csvs(out_dir):
            print(digest_line(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
