"""End-to-end acceptance suite.

Each criterion lives in iswpt.validate as a self-contained check returning
a structured result; this file runs all of them under pytest and prints
one PASS/FAIL line per criterion as it completes (the lines bypass output
capture so they always appear).  `iswpt validate` runs the same suite from
the command line.  On the NumPy build the CSV digests were recorded with,
each line must also equal its pinned line in tools/validate.txt.
"""

import platform
import sys
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import csv_digest  # noqa: E402

from iswpt import sdp, validate  # noqa: E402
from iswpt.validate import ALL_CRITERIA  # noqa: E402

PINNED = (TOOLS / "validate.txt").read_text().splitlines()
RECORDED_BUILD = (np.__version__ == csv_digest.RECORDED_NUMPY
                  and platform.machine() in ("x86_64", "AMD64"))


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_acceptance(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print(result)
    if RECORDED_BUILD:
        assert str(result) == PINNED[ALL_CRITERIA.index(criterion)]
    assert result.passed, str(result)


@pytest.mark.parametrize("criterion", [
    validate.check_step_feasibility, validate.check_convergence_speed,
    validate.check_cross_algorithm_agreement], ids=lambda fn: fn.__name__)
def test_failed_sdp_run_fails_its_criterion(criterion, monkeypatch):
    # A run stopped by a solver failure leaves a truncated trace, which must
    # not be scored as a result.
    def stall(*args, **kwargs):
        raise sdp.SdpNonConvergence("forced stall", None, 1.0)
    monkeypatch.setattr(sdp, "solve_diag_sdp", stall)
    result = criterion()
    assert not result.passed
    assert "failed run(s), first: sdp" in result.detail
    assert result.detail.endswith(": forced stall")
