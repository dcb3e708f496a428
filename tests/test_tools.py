"""Command-line tools under tools/: the CSV comparison."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "csv_reldiff.py"
_SPEC = importlib.util.spec_from_file_location("csv_reldiff", _PATH)
csv_reldiff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(csv_reldiff)

HEADER = "# comment line\nname,gain_db,value\n"


def write_dirs(tmp_path, before, after):
    """Two directories holding one CSV each (None leaves the file out)."""
    dirs = []
    for side, body in (("a", before), ("b", after)):
        path = tmp_path / side
        path.mkdir()
        if body is not None:
            (path / "out.csv").write_text(HEADER + body)
        dirs.append(str(path))
    return dirs


def test_identical_directories_exit_zero(tmp_path, capsys):
    body = "x,-inf,1.5\ny,nan,2.0\n"
    assert csv_reldiff.main(write_dirs(tmp_path, body, body)) == 0
    assert "numeric cells differing 0 of 2, worst relative change 0.00e+00" \
        in capsys.readouterr().out


def test_rounding_difference_is_reported_with_exit_zero(tmp_path, capsys):
    dirs = write_dirs(tmp_path, "x,-3.0,1.0\n", "x,-3.0,1.0000000000000002\n")
    assert csv_reldiff.main(dirs) == 0
    out = capsys.readouterr().out
    assert "numeric cells differing 1 of 2" in out
    assert "worst relative change 2.22e-16" in out


@pytest.mark.parametrize("before, after", [("1.0", "-inf"), ("2.0", "nan"),
                                           ("-inf", "inf"), ("nan", "1.0")])
def test_change_to_or_from_non_finite_exits_one(tmp_path, capsys, before, after):
    # max(0.0, nan) is 0.0, so these once read as "worst relative change 0".
    dirs = write_dirs(tmp_path, f"x,{before},1.0\n", f"x,{after},1.0\n")
    assert csv_reldiff.main(dirs) == 1
    assert "non-numeric or non-finite cells differing 1" in capsys.readouterr().out


def test_first_differing_non_numeric_cell_is_shown(tmp_path, capsys):
    # Rows count from the comment line; later differences are only counted.
    dirs = write_dirs(tmp_path, "x,1.0,2.0\ny,nan,3.0\n", "z,1.0,2.0\ny,inf,3.0\n")
    assert csv_reldiff.main(dirs) == 1
    assert ("non-numeric or non-finite cells differing 2, first at row 3 "
            "column 1: 'x' != 'z'" in capsys.readouterr().out)


def test_missing_file_exits_one(tmp_path, capsys):
    assert csv_reldiff.main(write_dirs(tmp_path, "x,1.0,2.0\n", None)) == 1
    assert "out.csv: missing on one side" in capsys.readouterr().out
