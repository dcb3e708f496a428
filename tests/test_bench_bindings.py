"""The benchmark in perfbench/ binds package names; keep them working.

perfbench is imported read-only: every traced (module, function) pair must
still resolve, and one trial of each workload must pass its own checks,
untraced and traced, with the oracle's evaluation counter intact.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

import iswpt  # noqa: E402


@pytest.mark.parametrize("module", sorted(tracing.TRACED))
def test_traced_bindings_resolve(module):
    mod = importlib.import_module(f"iswpt.{module}")
    for name in tracing.TRACED[module]:
        assert inspect.isfunction(getattr(mod, name, None)), f"iswpt.{module}.{name}"


def run_one_trial(wl):
    """inputs(1) -> run -> check, with prepare/close around run as the
    benchmark driver calls them."""
    (inp,) = wl.inputs(1)
    wl.prepare()
    try:
        out = wl.run(inp)
    finally:
        wl.close()
    return wl.check(inp, out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_trial_passes_untraced_and_traced(name):
    plain = run_one_trial(workloads.make(name, 1))
    assert plain.failures == []
    assert plain.solves > 0

    importlib.import_module("iswpt.cli")  # traced, but not loaded by the package
    tracer = tracing.Tracer()
    tracer.install(iswpt)
    try:
        tracer.armed = True
        traced = run_one_trial(workloads.make(name, 1))
    finally:
        tracer.armed = False
        tracer.uninstall()
    assert traced.failures == []
    assert traced.fingerprint == plain.fingerprint
    if name == "lc-sweep-l":
        # The tracer's hooks find the run entry points by name through their
        # thread-scope wrapper.
        assert tracer.counts["ao.outer_iters"] > 0
        assert tracer.counts["ao.rps_iters"] > 0
    if name == "oracle-small":
        # Of the 2 * 8**6 rows of the two 8-level grids at N = L = 6, the
        # screen leaves the phase optimum and the beam optimum's 8
        # global-phase rotations to score.
        assert tracer.counts["oracle.evals"] == 9
