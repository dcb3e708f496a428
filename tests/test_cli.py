"""Experiment CLI: CSV contracts, determinism, error handling."""

import csv
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import iswpt
from iswpt import cli, sdp
from iswpt.ao import AoConfig, run_ao
from iswpt.cli import (ExperimentSpec, _format_cell, experiment_from_mapping,
                       main, parse_kv_file)
from iswpt.objective import beam_rows, solution_metrics
from iswpt.scenario import (_POSITIVE_FIELDS, SystemConfig, db_to_linear,
                            sample_channels, slice_channels, trial_stream)


BASE_SPEC = """
n_tx = 4
n_ehd = 2
n_targets = 2
target_angles_deg = -45, 45
seed = 9
n_trials = 1
sweep_l = 4, 6
sweep_rho = 0.3, 0.7
angle_step_deg = 15
max_outer_iters = 1
algorithms = sdp, lc
"""


def write_spec(tmp_path, text=BASE_SPEC, name="exp.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# iswpt ")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    return lines[0], rows


def run_cli(args):
    return main(list(args))


def test_experiment_spec_validation():
    config = SystemConfig(n_tx=4, n_irs=4, n_ehd=2, n_targets=2,
                          target_angles=(-0.5, 0.5))
    with pytest.raises(ValueError):
        ExperimentSpec(config=config, algorithms=())
    with pytest.raises(ValueError):
        ExperimentSpec(config=config, algorithms=("lc", "lc"))
    with pytest.raises(ValueError):
        ExperimentSpec(config=config, algorithms=("gradient",))
    with pytest.raises(ValueError):
        ExperimentSpec(config=config, n_trials=0)
    # Unchecked, 2.5 and True passed as trial counts and 10.5 as an L.
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"n_trials must be an int >= 1, got {bad}"):
            ExperimentSpec(config=config, n_trials=bad)
    with pytest.raises(ValueError, match="sweep_l entry must be an int >= 1, got 10.5"):
        ExperimentSpec(config=config, sweep_l=(10.5,))
    with pytest.raises(ValueError):
        ExperimentSpec(config=config, sweep_rho=(1.5,))
    with pytest.raises(ValueError):
        ExperimentSpec(config=config, angle_step_deg=0.0)


def test_experiment_spec_rejects_nan_rel_tol(tmp_path, capsys):
    # Also inf: either would deem any change converged.
    config = SystemConfig(n_tx=4, n_irs=4, n_ehd=2, n_targets=2,
                          target_angles=(-0.5, 0.5))
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match="rel_tol"):
            ExperimentSpec(config=config, rel_tol=float(bad))
        # rps never builds an AoConfig, so the spec is its only check.
        spec = write_spec(tmp_path, BASE_SPEC.replace("algorithms = sdp, lc",
                                                      "algorithms = rps")
                          + f"rel_tol = {bad}\n")
        assert run_cli(["sweep-l", "--spec", spec,
                        "--out", str(tmp_path / "x.csv")]) == 2
        assert "rel_tol" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_experiment_spec_rejects_tiny_angle_step(tmp_path, capsys):
    config = SystemConfig(n_tx=4, n_irs=4, n_ehd=2, n_targets=2,
                          target_angles=(-0.5, 0.5))
    assert ExperimentSpec(config=config, angle_step_deg=0.01).angle_step_deg == 0.01
    for step in (0.0099, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="angle_step_deg"):
            ExperimentSpec(config=config, angle_step_deg=step)
    # A 1e-300 degree step would ask np.arange for ~1.8e302 angles; it must
    # be refused while parsing, before any grid exists.
    spec = write_spec(tmp_path, BASE_SPEC.replace("angle_step_deg = 15",
                                                  "angle_step_deg = 1e-300"))
    tracemalloc.start()
    try:
        code = run_cli(["beampattern", "--spec", spec,
                        "--out", str(tmp_path / "x.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "angle_step_deg" in capsys.readouterr().err
    assert peak < 1 << 20


def test_experiment_from_mapping_splits_layers():
    exp = experiment_from_mapping({
        "n_tx": "6",
        "p0_dbm": "30",
        "algorithms": "lc",
        "n_trials": "4",
        "sweep_l": "4, 8",
        "sweep_rho": "0.2, 0.8",
        "angle_step_deg": "2.5",
        "seed": "5",
    })
    assert exp.config.n_tx == 6
    assert exp.config.p0 == pytest.approx(1000.0)
    assert exp.config.seed == 5
    assert exp.algorithms == ("lc",)
    assert exp.n_trials == 4
    assert exp.sweep_l == (4, 8)
    assert exp.sweep_rho == (0.2, 0.8)
    assert exp.angle_step_deg == 2.5


@pytest.mark.parametrize("key, value, message", [
    ("config", "x", "unknown spec key 'config'"),
    ("algorithms", "lc,", "spec key 'algorithms'"),
    ("sweep_l", "10,,20", "spec key 'sweep_l'"),
    ("out", "", "spec key 'out'"),
    ("los_mode", "iid", "unknown spec key 'los_mode'"),
])
def test_experiment_from_mapping_rejects(key, value, message):
    with pytest.raises(ValueError, match=message):
        experiment_from_mapping({key: value})


def test_flags_go_through_the_spec_parser(tmp_path, capsys):
    spec = write_spec(tmp_path)
    for flag, value, key in (("--trials", "1.5", "n_trials"),
                             ("--seed", "x", "seed"), ("--algo", "lc,", "algorithms")):
        assert run_cli(["sweep-l", "--spec", spec, flag, value,
                        "--out", str(tmp_path / "x.csv")]) == 2
        assert f"spec key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


_POSITIVE = st.floats(1e-3, 1e3)
# Path-loss exponents up to 10: at 1e3 a 10 m link's path loss underflows to 0,
# which SystemConfig rejects.
_EXPONENT = st.floats(1e-3, 10.0)
# One strategy per settable field; target angles and n_targets are drawn
# together, in degrees.
_CONFIG_VALUES = {
    "n_tx": st.integers(1, 64), "n_irs": st.integers(1, 64),
    "n_ehd": st.integers(1, 8), "p0": _POSITIVE, "eta": st.floats(1e-3, 1.0),
    "rho": st.floats(0.0, 1.0), "delta": _POSITIVE, "dist_tx_irs": _POSITIVE,
    "dist_irs_ehd": _POSITIVE, "dist_tx_ehd": _POSITIVE,
    "ple_tx_irs": _EXPONENT, "ple_irs_ehd": _EXPONENT, "ple_tx_ehd": _EXPONENT,
    "pl_ref": _POSITIVE, "rician_k": _POSITIVE, "seed": st.integers(0, 2 ** 63),
}
_EXPERIMENT_VALUES = {
    "algorithms": st.permutations(["sdp", "lc", "rps"]).flatmap(
        lambda names: st.integers(1, 3).map(lambda n: tuple(names[:n]))),
    "n_trials": st.integers(1, 1000),
    "sweep_l": st.lists(st.integers(1, 100), min_size=1, max_size=5).map(tuple),
    "sweep_rho": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).map(tuple),
    "angle_step_deg": st.floats(0.01, 180.0),
    "max_outer_iters": st.integers(1, 100),
    "rel_tol": st.floats(0.0, 1.0),
    "out": st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
}
_DB_KEYS = {"p0": "p0_dbm", "pl_ref": "pl_ref_db", "rician_k": "rician_k_db"}


def _spec_text(value):
    if isinstance(value, tuple):
        return ", ".join(_spec_text(item) for item in value)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def spec_cases(draw):
    """(spec text lines, the ExperimentSpec they describe)."""
    config = {key: draw(values) for key, values in _CONFIG_VALUES.items()}
    fields = {key: draw(values) for key, values in _EXPERIMENT_VALUES.items()}
    lines = [f"{key} = {_spec_text(value)}" for key, value in fields.items()
             if value is not None]
    for key, value in list(config.items()):
        if key in _DB_KEYS and draw(st.booleans()):
            db_value = draw(st.floats(-30.0, 30.0))
            config[key] = db_to_linear(db_value)
            lines.append(f"{_DB_KEYS[key]} = {db_value!r}")
        else:
            lines.append(f"{key} = {_spec_text(value)}")
    degrees = draw(st.lists(st.floats(-90.0, 90.0), min_size=1, max_size=4))
    config["target_angles"] = tuple(math.radians(d) for d in degrees)
    config["n_targets"] = len(degrees)
    lines.append(f"target_angles_deg = {_spec_text(tuple(degrees))}")
    if draw(st.booleans()):
        lines.append(f"n_targets = {len(degrees)}")
    exp = ExperimentSpec(config=SystemConfig(**config), **fields)
    return draw(st.permutations(lines)), exp


def test_spec_cases_cover_every_field():
    settable = {f.name for f in dataclasses.fields(SystemConfig)}
    assert settable - {"target_angles", "n_targets"} == _CONFIG_VALUES.keys()
    assert ({f.name for f in dataclasses.fields(ExperimentSpec)} - {"config"}
            == _EXPERIMENT_VALUES.keys())


@settings(max_examples=60, deadline=None)
@given(spec_cases())
def test_spec_text_round_trip(case):
    lines, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.txt"
        path.write_text("\n".join(lines) + "\n")
        assert experiment_from_mapping(parse_kv_file(path)) == expected


# config_digest of a spec that sets every experiment key.  The payload holds
# every SystemConfig field but the seed, so adding or removing a scenario
# field changes all four values.
_DIGEST_SPEC = {
    "algorithms": "lc, rps", "n_trials": "7", "sweep_l": "5, 9, 13",
    "sweep_rho": "0.15, 0.6, 1.0", "angle_step_deg": "2.5",
    "max_outer_iters": "11", "rel_tol": "3e-5", "out": "pinned.csv",
    "n_tx": "6", "p0_dbm": "27", "target_angles_deg": "-30, 10", "seed": "4",
}


@pytest.mark.parametrize("command, digest", [
    ("convergence", "133a2b55359f"), ("sweep-l", "2098d185928d"),
    ("sweep-rho", "d34bf6efa601"), ("beampattern", "5d427df5bea1"),
])
def test_config_digest_pinned(command, digest):
    assert cli.config_digest(experiment_from_mapping(_DIGEST_SPEC), command) == digest


def test_config_digest_ignores_numpy_scalar_types():
    # SystemConfig stores Python ints and floats, so a NumPy scalar and the
    # equal Python number hash alike in the CSV comment line.
    def digest(**fields):
        spec = ExperimentSpec(config=SystemConfig(seed=1, **fields))
        return cli.config_digest(spec, "sweep-l")

    plain = digest()
    assert digest(n_tx=12, rho=0.9) == plain
    assert digest(n_tx=np.int64(12)) == plain
    assert digest(rho=np.float64(0.9)) == plain
    assert digest(p0=np.float32(1000.0), n_irs=np.int32(40)) == plain


def test_format_cell():
    assert _format_cell(3) == "3"
    assert _format_cell("lc") == "lc"
    assert _format_cell(0.1) == "0.10000000000000001"  # 17 significant digits
    with pytest.raises(TypeError):
        _format_cell(True)


def test_convergence_row_count_contract(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "conv.csv"
    assert run_cli(["convergence", "--spec", spec, "--out", str(out)]) == 0
    comment, rows = read_csv(out)
    assert "seed=9" in comment and "config=" in comment

    # One init row plus one row per completed outer iteration; with the
    # iteration cap at 1 that is exactly (algorithms x L values) rows
    # beyond the init rows.
    init_rows = [r for r in rows if r["iteration"] == "0"]
    step_rows = [r for r in rows if r["iteration"] != "0"]
    assert len(init_rows) == 2 * 2
    assert len(step_rows) == 2 * 2
    assert all(r["iteration"] == "1" for r in step_rows)
    header = out.read_text().splitlines()[1]
    assert header == "algorithm,L,trial,iteration,objective"


def test_csv_headers_are_the_ones_the_readme_documents(tmp_path):
    # README's "CSV files" section lists the header row of each command.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = dict(re.findall(r"^\* `([a-z-]+)`:\s+`([^`]+)`", readme, re.M))
    assert set(documented) == set(cli._COMMANDS)
    spec = write_spec(tmp_path, BASE_SPEC.replace("algorithms = sdp, lc",
                                                  "algorithms = lc"))
    for command, header in documented.items():
        out = tmp_path / f"{command}.csv"
        assert run_cli([command, "--spec", spec, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == header


def test_convergence_lc_objective_nondecreasing(tmp_path):
    spec = write_spec(tmp_path, BASE_SPEC.replace("max_outer_iters = 1",
                                                  "max_outer_iters = 5")
                                         .replace("algorithms = sdp, lc",
                                                  "algorithms = lc")
                                         .replace("n_trials = 1",
                                                  "n_trials = 2"))
    out = tmp_path / "conv.csv"
    assert run_cli(["convergence", "--spec", spec, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    groups = {}
    for row in rows:
        key = (row["algorithm"], row["L"], row["trial"])
        groups.setdefault(key, []).append((int(row["iteration"]),
                                           float(row["objective"])))
    assert groups
    for steps in groups.values():
        steps.sort()
        values = [obj for _, obj in steps]
        for before, after in zip(values, values[1:]):
            assert after >= before - 1e-9 * max(1.0, abs(before))


def test_convergence_rows_rebuilt_from_the_documented_streams(tmp_path):
    # The stream layout of the cli docstring, which perfbench's workloads
    # copy: channels from trial_stream(seed, 0, trial), drawn at the largest
    # L and sliced; run randomness from trial_stream(seed, 1, algo_id,
    # point_idx, trial) with sdp=0, lc=1.
    spec = write_spec(tmp_path, BASE_SPEC.replace("max_outer_iters = 1",
                                                  "max_outer_iters = 4")
                                         .replace("n_trials = 1",
                                                  "n_trials = 2"))
    out = tmp_path / "conv.csv"
    assert run_cli(["convergence", "--spec", spec, "--out", str(out)]) == 0
    exp = experiment_from_mapping(parse_kv_file(spec))
    seed, largest = exp.config.seed, max(exp.sweep_l)
    draws = [sample_channels(dataclasses.replace(exp.config, n_irs=largest),
                             trial_stream(seed, 0, trial))
             for trial in range(exp.n_trials)]
    lines = []
    for algorithm, algo_id in (("sdp", 0), ("lc", 1)):
        ao = AoConfig(algorithm=algorithm, max_outer_iters=exp.max_outer_iters,
                      rel_tol=exp.rel_tol)
        for point_idx, n_irs in enumerate(exp.sweep_l):
            config = dataclasses.replace(exp.config, n_irs=n_irs)
            for trial, full in enumerate(draws):
                trace = run_ao(config, ao, slice_channels(full, n_irs),
                               trial_stream(seed, 1, algo_id, point_idx, trial))
                lines += [f"{algorithm},{n_irs},{trial},{k},{j_value:.17g}"
                          for k, j_value in enumerate(trace.iteration_objectives())]
    assert out.read_text().splitlines()[2:] == lines


def forbid_runs(monkeypatch):
    def run(*args, **kwargs):
        raise AssertionError("no run may start")
    monkeypatch.setattr(cli, "run_ao", run)
    monkeypatch.setattr(cli, "run_rps", run)


def test_convergence_rejects_rps(tmp_path, capsys, monkeypatch):
    # Bad input, found before the first run.
    forbid_runs(monkeypatch)
    spec = write_spec(tmp_path, BASE_SPEC.replace("algorithms = sdp, lc",
                                                  "algorithms = sdp, rps"))
    code = run_cli(["convergence", "--spec", spec,
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()


def test_sweep_l_row_count_and_columns(tmp_path):
    spec = write_spec(tmp_path, BASE_SPEC.replace("algorithms = sdp, lc",
                                                  "algorithms = lc, rps")
                                         .replace("n_trials = 1",
                                                  "n_trials = 2"))
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 2 * 2  # algorithms x L values
    assert {r["algorithm"] for r in rows} == {"lc", "rps"}
    for row in rows:
        assert int(row["n_trials"]) == 2
        assert float(row["mean_harvested_energy"]) > 0.0
        assert float(row["std"]) >= 0.0


def test_sweep_l_single_point(tmp_path):
    spec = write_spec(tmp_path, BASE_SPEC.replace("sweep_l = 4, 6",
                                                  "sweep_l = 5")
                                         .replace("algorithms = sdp, lc",
                                                  "algorithms = lc"))
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["L"] == "5"
    assert rows[0]["std"] == "0"  # single trial


def test_sweep_rho_boundary_trend(tmp_path):
    spec = write_spec(tmp_path, BASE_SPEC.replace("sweep_rho = 0.3, 0.7",
                                                  "sweep_rho = 0.0, 0.5, 1.0")
                                         .replace("algorithms = sdp, lc",
                                                  "algorithms = lc")
                                         .replace("max_outer_iters = 1",
                                                  "max_outer_iters = 10")
                                         .replace("n_trials = 1",
                                                  "n_trials = 2"))
    out = tmp_path / "rho.csv"
    assert run_cli(["sweep-rho", "--spec", spec, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    rhos = [float(r["rho"]) for r in rows]
    assert rhos == sorted(rhos)
    energy = [float(r["mean_harvested_energy"]) for r in rows]
    sensing = [float(r["mean_beampattern_sum"]) for r in rows]
    # More weight on power transfer: harvested energy cannot drop and the
    # beampattern sum cannot rise.
    assert all(b >= a * (1.0 - 1e-9) for a, b in zip(energy, energy[1:]))
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(sensing, sensing[1:]))


def test_beampattern_grid_rows(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "pattern.csv"
    assert run_cli(["beampattern", "--spec", spec, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    angles = np.arange(-90.0, 90.1, 15.0)
    assert len(rows) == 2 * 2 * len(angles)  # algorithms x L values x grid
    sdp_l4 = [r for r in rows if r["algorithm"] == "sdp" and r["L"] == "4"]
    np.testing.assert_allclose([float(r["angle_deg"]) for r in sdp_l4], angles)
    for row in rows[:30]:
        gain = float(row["gain"])
        gain_db = float(row["gain_db"])
        if gain > 0.0:
            assert gain_db == pytest.approx(10.0 * np.log10(gain), rel=1e-12)


@pytest.mark.parametrize("step", [7.0, 50.0])
def test_beampattern_grid_stays_in_range(tmp_path, step):
    # Steps that do not divide 180 stop at the last grid point below +90.
    spec = write_spec(tmp_path, BASE_SPEC.replace("angle_step_deg = 15",
                                                  f"angle_step_deg = {step}")
                      .replace("algorithms = sdp, lc", "algorithms = lc"))
    out = tmp_path / "pattern.csv"
    assert run_cli(["beampattern", "--spec", spec, "--out", str(out)]) == 0
    _, rows = read_csv(out)
    expected = -90.0 + step * np.arange(int(180.0 // step) + 1)
    assert expected[-1] < 90.0
    for n_irs in ("4", "6"):
        angles = [float(r["angle_deg"]) for r in rows if r["L"] == n_irs]
        np.testing.assert_allclose(angles, expected)


@pytest.mark.parametrize("command, where", [
    ("sweep-l", "L=4, rho=0.9, trial 1"), ("sweep-rho", "L=40, rho=0.7, trial 0")])
def test_failed_run_exits_three_without_csv(tmp_path, capsys, monkeypatch,
                                            command, where, uncertified):
    # The third interior-point solve stalls: with every certificate failing,
    # one outer iteration takes two solves, so the second run fails on its
    # first half-step.  Its truncated trace must not be averaged into a CSV.
    solve, calls = sdp.solve_diag_sdp, []

    def stall_third(*args, **kwargs):
        solution = solve(*args, **kwargs)
        calls.append(args)
        if len(calls) == 3:
            raise sdp.SdpNonConvergence("forced stall", solution, 1.0)
        return solution
    monkeypatch.setattr(sdp, "solve_diag_sdp", stall_third)
    spec = write_spec(tmp_path, BASE_SPEC.replace("n_trials = 1", "n_trials = 2"))
    out = tmp_path / "x.csv"
    assert run_cli([command, "--spec", spec, "--algo", "sdp",
                    "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: sdp run failed at {where}: forced stall\n"
    assert not out.exists()


def test_unwritable_out_exits_four_without_csv(tmp_path, capsys):
    # A write failure is not bad input: it has its own code, not 2.
    spec = write_spec(tmp_path)
    out = tmp_path / "missing_dir" / "x.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.exists() and not out.parent.exists()


def test_unwritable_out_exits_four_before_any_run(tmp_path, capsys,
                                                  monkeypatch):
    forbid_runs(monkeypatch)
    spec = write_spec(tmp_path)
    for out in (tmp_path / "missing_dir" / "x.csv", tmp_path):
        assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_failed_run_leaves_existing_out_untouched(tmp_path, capsys, monkeypatch,
                                                  uncertified):
    def stall(*args, **kwargs):
        raise sdp.SdpNonConvergence("forced stall", None, 1.0)
    monkeypatch.setattr(sdp, "solve_diag_sdp", stall)
    spec = write_spec(tmp_path)
    out = tmp_path / "x.csv"
    out.write_bytes(b"earlier result\n")
    before = out.stat()
    assert run_cli(["sweep-l", "--spec", spec, "--algo", "sdp",
                    "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: sdp run failed at L=4")
    assert out.read_bytes() == b"earlier result\n"
    assert out.stat().st_mtime_ns == before.st_mtime_ns


def assert_rejected_or_finite(code, out, err=""):
    """Exit 2 leaves no CSV; exit 0 writes only finite cells."""
    assert code in (0, 2), err
    if code == 2:
        assert not out.exists()
        return
    _, rows = read_csv(out)
    assert rows and all(math.isfinite(float(cell)) for row in rows
                        for key, cell in row.items() if key != "algorithm")


@pytest.mark.parametrize("value", [1e-300, 1e300])
@pytest.mark.parametrize("name", _POSITIVE_FIELDS)
def test_extreme_finite_fields_exit_zero_or_two(tmp_path, capsys, name, value):
    # dist_tx_irs = 1e-200 and p0 = 1e300 once exited 5 ("internal error"):
    # a finite field is rejected at parse time or runs to finite cells.
    spec = write_spec(tmp_path, f"n_trials = 1\nsweep_l = 4\nalgorithms = lc\n"
                                f"{name} = {value!r}\n")
    out = tmp_path / "x.csv"
    code = run_cli(["sweep-l", "--spec", spec, "--out", str(out)])
    assert_rejected_or_finite(code, out, capsys.readouterr().err)


@pytest.mark.parametrize("command",
                         ["sweep-l", "sweep-rho", "convergence", "beampattern"])
def test_subnormal_path_loss_exits_two(tmp_path, capsys, command):
    # dist_tx_irs = 1e125 gives a surface path loss of 3.2e-314, subnormal:
    # every CSV command rejects the spec at parse time and writes nothing.
    spec = write_spec(tmp_path, BASE_SPEC + "dist_tx_irs = 1e125\n")
    out = tmp_path / "x.csv"
    assert run_cli([command, "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: path loss pl_ref * dist_tx_irs**(-ple_tx_irs) is 3.16227766e-314")
    assert not out.exists()


# The largest delta whose steering phases 2 pi delta (L - 1) stay below
# 2**52 at L = 4.
_DELTA_BOUND_L4 = 2.0 ** 52 / (2.0 * math.pi * 3)


@pytest.mark.parametrize("delta, code", [(1e300, 2), (_DELTA_BOUND_L4 / 4, 0)],
                         ids=["1e300", "bound-over-4"])
def test_delta_is_bounded_where_phases_keep_their_precision(tmp_path, capsys,
                                                            delta, code):
    # delta = 1e300 ran to exit 0 with steering phases that were rounding
    # noise; from 2**52 on, adjacent doubles are at least 1 rad apart.
    spec = write_spec(tmp_path, f"n_irs = 4\nsweep_l = 4\nn_trials = 1\n"
                                f"algorithms = lc\ndelta = {delta!r}\n")
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith(f"error: delta = {delta!r} overflows")
    assert_rejected_or_finite(code, out, err)


@pytest.mark.parametrize("command", ["sweep-l", "convergence", "beampattern"])
def test_sweep_l_entries_above_n_irs_are_checked_at_parse_time(tmp_path, capsys,
                                                              command):
    # delta = 1e14 passes the steering-phase bound at n_irs = 4 but not at
    # L = 10.  The L sweeps rebuild the config there mid-run, which exited 5
    # with "internal error: ValueError".
    spec = write_spec(tmp_path, "n_irs = 4\nsweep_l = 4, 10\ndelta = 1e14\n"
                                "n_trials = 1\nalgorithms = lc\n")
    out = tmp_path / "x.csv"
    assert run_cli([command, "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: delta = 100000000000000.0 overflows the steering phases at L = 10")
    assert not out.exists()


def test_sweep_l_scales_are_checked_only_by_the_l_sweeps(tmp_path, capsys):
    # sweep-rho runs at n_irs alone, so the default sweep_l (up to 40), at
    # which delta = 1e14 overflows the steering phases, must not reject it.
    spec = write_spec(tmp_path, "n_irs = 4\ndelta = 1e14\nsweep_rho = 0.5\n"
                                "n_trials = 1\nalgorithms = lc\nmax_outer_iters = 3\n")
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-rho", "--spec", spec, "--out", str(out)]) == 0
    assert out.exists()
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(tmp_path / "y.csv")]) == 2
    assert "overflows the steering phases at L = 40" in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(exponents=st.dictionaries(st.sampled_from(_POSITIVE_FIELDS),
                                 st.floats(-300.0, 300.0), min_size=1, max_size=3),
       n_irs=st.integers(1, 4),
       above=st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True))
@example(exponents={"dist_tx_irs": 125.0, "dist_irs_ehd": 123.0}, n_irs=1,
         above=[0])   # subnormal MM directions: `objective.project` overflowed
def test_spec_values_exit_zero_or_two(exponents, n_irs, above):
    # Any finite positive field, with sweep entries above n_irs, is rejected
    # at parse time (exit 2) or runs to finite cells; never exit 5.
    fields = "".join(f"{name} = {10.0 ** e!r}\n" for name, e in exponents.items())
    sweep = ", ".join(str(n_irs + a) for a in above)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "exp.txt"
        spec.write_text(f"n_tx = 2\nn_irs = {n_irs}\nsweep_l = {sweep}\n"
                        f"n_trials = 1\nalgorithms = lc\nmax_outer_iters = 3\n{fields}")
        out = Path(tmp) / "x.csv"
        assert_rejected_or_finite(run_cli(["sweep-l", "--spec", str(spec),
                                           "--out", str(out)]), out)


def test_internal_error_exits_five_without_csv(tmp_path, capsys, monkeypatch):
    # A bug is not bad input: it has its own code, not 2.
    def broken(*args, **kwargs):
        raise KeyError("beam")
    monkeypatch.setattr(cli, "run_ao", broken)
    spec = write_spec(tmp_path)
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("\nerror: internal error: KeyError: 'beam'\n")
    assert not out.exists()


def test_unconverged_runs_noted_on_stderr(tmp_path, capsys):
    # max_outer_iters = 1 stops every run before its stop test can pass:
    # two runs (L = 4, 6) per algorithm, all still written to the CSV.
    spec = write_spec(tmp_path, BASE_SPEC.replace("algorithms = sdp, lc",
                                                  "algorithms = sdp, lc, rps"))
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 0
    assert capsys.readouterr().err == "".join(
        f"note: 2 of 2 {algo} runs stopped at max_outer_iters=1 without converging\n"
        for algo in ("sdp", "lc", "rps"))
    exp = experiment_from_mapping(parse_kv_file(spec))
    assert out.read_text() == cli.cmd_sweep_l(exp, [])


def test_no_note_when_every_run_converges(tmp_path, capsys):
    spec = write_spec(tmp_path, BASE_SPEC.replace("max_outer_iters = 1",
                                                  "max_outer_iters = 100"))
    assert run_cli(["sweep-rho", "--spec", spec,
                    "--out", str(tmp_path / "rho.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_unknown_spec_key_fails_cleanly(tmp_path, capsys):
    spec = write_spec(tmp_path, BASE_SPEC.replace("n_trials = 1", "n_trails = 1"))
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 2
    assert "'n_trails'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, key", [
    ("n_trials = 1.5", "n_trials"),
    ("n_tx = four", "n_tx"),
    ("sweep_l = 10, x", "sweep_l"),
    ("sweep_rho = 0.2, y", "sweep_rho"),
    ("rel_tol = tiny", "rel_tol"),
])
def test_malformed_spec_value_names_its_key(tmp_path, capsys, line, key):
    spec = write_spec(tmp_path, line + "\n")
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out)]) == 2
    assert f"error: spec key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_csv_determinism(tmp_path):
    spec = write_spec(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out_a)]) == 0
    assert run_cli(["sweep-l", "--spec", spec, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    out_c = tmp_path / "c.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--seed", "10",
                    "--out", str(out_c)]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tx=st.integers(1, 4),
       n_irs=st.integers(1, 8), algorithms=_EXPERIMENT_VALUES["algorithms"],
       command=st.sampled_from(sorted(cli._COMMANDS)),
       max_outer_iters=st.integers(1, 2))
def test_cli_output_deterministic(seed, n_tx, n_irs, algorithms, command,
                                  max_outer_iters):
    if command == "convergence":  # convergence rejects rps
        algorithms = tuple(a for a in algorithms if a != "rps")
    assume(algorithms)
    spec_text = (f"seed = {seed}\nn_tx = {n_tx}\nn_irs = {n_irs}\n"
                 f"n_trials = 1\nsweep_l = {n_irs}\nsweep_rho = 0.3, 0.7\n"
                 f"angle_step_deg = 30\nmax_outer_iters = {max_outer_iters}\n"
                 f"algorithms = {', '.join(algorithms)}\n")
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "exp.txt"
        spec.write_text(spec_text)
        outputs = []
        for run in (0, 1):
            out = Path(tmp) / f"{run}.csv"
            assert run_cli([command, "--spec", str(spec), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_overrides(tmp_path):
    spec = write_spec(tmp_path)
    out = tmp_path / "o.csv"
    assert run_cli(["sweep-l", "--spec", spec, "--seed", "7", "--trials", "3",
                    "--algo", "lc", "--out", str(out)]) == 0
    comment, rows = read_csv(out)
    assert "seed=7" in comment
    assert {r["algorithm"] for r in rows} == {"lc"}
    assert all(int(r["n_trials"]) == 3 for r in rows)


def test_default_output_name(tmp_path, monkeypatch):
    spec = write_spec(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["sweep-l", "--spec", spec]) == 0
    assert (tmp_path / "sweep_l.csv").exists()


def test_runs_as_a_module():
    # `python -m iswpt` runs the same entry point as the `iswpt` script.
    src = str(Path(iswpt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "iswpt", "--help"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: iswpt")
    assert "validate" in done.stdout


def test_missing_spec_file_fails_cleanly(tmp_path, capsys):
    code = run_cli(["sweep-l", "--spec", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_algorithm_fails_cleanly(tmp_path, capsys):
    spec = write_spec(tmp_path)
    code = run_cli(["sweep-l", "--spec", spec, "--algo", "magic",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, algos, draws", [
    ("convergence", "lc", 2),
    ("sweep-l", "lc,rps", 2),
    ("sweep-rho", "lc,rps", 2),
    ("beampattern", "lc,rps", 1),
])
def test_each_trial_drawn_once(tmp_path, monkeypatch, command, algos, draws):
    # Channels are drawn once per trial and shared by every algorithm and
    # sweep point; beampattern uses trial 0 only.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sample_channels(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_channels", counting)
    spec = write_spec(tmp_path, BASE_SPEC.replace("n_trials = 1", "n_trials = 2"))
    assert run_cli([command, "--spec", spec, "--algo", algos,
                    "--out", str(tmp_path / "x.csv")]) == 0
    assert len(calls) == draws


def test_sweep_rho_reports_best_pool_member_by_objective(monkeypatch):
    exp = ExperimentSpec(config=SystemConfig(seed=1))
    traces = []

    def capture(*args, _run_ao=cli.run_ao, **kwargs):
        trace = _run_ao(*args, **kwargs)
        traces.append(trace)
        return trace

    monkeypatch.setattr(cli, "run_ao", capture)
    channels = sample_channels(exp.config, trial_stream(1, 0, 0))
    harvested, sensing = cli.sweep_rho_trial(exp, "lc", 0, channels)
    assert len(traces) == len(exp.sweep_rho)
    for idx, rho in enumerate(exp.sweep_rho):
        config = SystemConfig(seed=1, rho=rho)
        pool = [solution_metrics(beam_rows(channels, t.phases, config), t.beam.w,
                                 config)
                for t in traces]
        _, best_e, best_s = max(pool)
        assert (harvested[idx], sensing[idx]) == pytest.approx((best_e, best_s),
                                                               rel=1e-12), rho


def test_validate_takes_only_out(capsys):
    for flag, value in (("--trials", "3"), ("--spec", "/nonexistent"),
                        ("--algo", "bogus"), ("--seed", "1")):
        with pytest.raises(SystemExit) as exc:
            main(["validate", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
