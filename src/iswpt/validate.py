"""Built-in acceptance checks: solver exactness, invariants, trend claims.

Each check returns a CriterionResult and is self-contained (fixed seeds,
fixed instance sizes, fixed thresholds).  The thresholds are part of the
artifact's acceptance contract and are intentionally hard-coded here; the
test suite and the ``iswpt validate`` subcommand both run this list.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .ao import AoConfig, AoTrace, run_ao, run_rps
from .lc import mm_solve
from .objective import (Beamformer, PhaseProfile, beampattern_profile,
                        build_operators, composite_objective)
from .oracle import SearchBudget, quantized_phase_search
from .scenario import (ChannelSet, SystemConfig, complex_normal,
                       sample_channels, slice_channels, steering_matrix,
                       trial_stream)
from .sdp import solve_diag_sdp


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _scored(name: str, passed: bool, detail: str,
            failures: list[str]) -> CriterionResult:
    """A criterion's result that also fails on any run stopped by a solver
    failure (its truncated trace is no result), naming the first."""
    if failures:
        detail += f"; {len(failures)} failed run(s), first: {failures[0]}"
    return CriterionResult(name, passed and not failures, detail)


def _run(config: SystemConfig, ao: AoConfig, channels: ChannelSet,
         rng: np.random.Generator, label: str, failures: list[str]) -> AoTrace:
    """`run_ao`, adding the run's solver failure, if any, to `failures`."""
    trace = run_ao(config, ao, channels, rng)
    if trace.failure is not None:
        failures.append(f"{label}: {trace.failure}")
    return trace


def check_step_feasibility() -> CriterionResult:
    """Every recorded step keeps |w(n)| and |v(l)| on the constraint set."""
    config = dataclasses.replace(SystemConfig(seed=11), rho=0.5)
    worst = 0.0
    failures: list[str] = []
    for algo_idx, algorithm in enumerate(("sdp", "lc")):
        for trial in range(2):
            channels = sample_channels(config, trial_stream(11, 0, trial))
            trace = _run(config,
                         AoConfig(algorithm=algorithm, max_outer_iters=6,
                                  rel_tol=0.0),
                         channels, trial_stream(11, 1, algo_idx, trial),
                         f"{algorithm} trial {trial}", failures)
            for step in trace.steps:
                worst = max(worst, step.w_error, step.v_error)
    channels = sample_channels(config, trial_stream(11, 0, 0))
    for step in run_rps(config, channels, trial_stream(11, 2, 0)).steps:
        worst = max(worst, step.w_error, step.v_error)
    return _scored(
        "01-step-feasibility", worst <= 1e-12,
        f"max modulus deviation {worst:.3e} (tol 1e-12)", failures)


def check_lc_monotone_ascent() -> CriterionResult:
    """Objective nondecreasing at every low-complexity half-step."""
    config = SystemConfig(n_tx=8, n_irs=16, n_ehd=3, n_targets=3,
                          rho=0.5, seed=22)
    n_instances = 50
    violations = 0
    worst_drop = 0.0
    for trial in range(n_instances):
        channels = sample_channels(config, trial_stream(22, 0, trial))
        trace = run_ao(config,
                       AoConfig(algorithm="lc", max_outer_iters=30, rel_tol=0.0),
                       channels, trial_stream(22, 1, trial))
        objectives = [step.objective for step in trace.steps]
        for prev, cur in zip(objectives, objectives[1:]):
            drop = prev - cur
            worst_drop = max(worst_drop, drop / max(abs(prev), 1e-300))
            if cur < prev - 1e-9 * abs(prev):
                violations += 1
    return CriterionResult(
        "02-lc-monotone-ascent", violations == 0,
        f"{n_instances} instances, 30 iterations; {violations} half-step "
        f"drops beyond 1e-9 slack (worst relative drop {worst_drop:.2e})")


def check_convergence_speed() -> CriterionResult:
    """Median run is within 1% of its 30-iteration value by outer iteration 5."""
    medians = {}
    failures: list[str] = []
    for algo_idx, algorithm in enumerate(("lc", "sdp")):
        for n_irs in (20, 40):
            config = dataclasses.replace(SystemConfig(seed=33), n_irs=n_irs)
            reaches = []
            for trial in range(9):
                channels = sample_channels(config, trial_stream(33, 0, n_irs, trial))
                trace = _run(config,
                             AoConfig(algorithm=algorithm,
                                      max_outer_iters=30, rel_tol=0.0),
                             channels,
                             trial_stream(33, 1, algo_idx, n_irs, trial),
                             f"{algorithm}/L={n_irs} trial {trial}", failures)
                objectives = trace.iteration_objectives()
                final = objectives[-1]
                reaches.append(next(i for i, val in enumerate(objectives)
                                    if val >= 0.99 * final))
            medians[(algorithm, n_irs)] = float(np.median(reaches))
    passed = all(med <= 5 for med in medians.values())
    detail = ", ".join(f"{algo}/L={l}: median iter {med:g}"
                       for (algo, l), med in medians.items())
    return _scored("03-convergence-speed", passed, detail + " (need <= 5)",
                   failures)


def check_cross_algorithm_agreement() -> CriterionResult:
    """Converged LC and SDP objectives agree to 5% (median over seeds)."""
    config = SystemConfig(n_tx=4, n_irs=8, n_ehd=2, n_targets=2,
                          target_angles=(-np.pi / 4, np.pi / 4),
                          rho=0.5, seed=44)
    gaps = []
    failures: list[str] = []
    for trial in range(20):
        channels = sample_channels(config, trial_stream(44, 0, trial))
        j_lc = _run(config, AoConfig(algorithm="lc"), channels,
                    trial_stream(44, 1, 0, trial), f"lc trial {trial}",
                    failures).final_objective()
        j_sdp = _run(config, AoConfig(algorithm="sdp"), channels,
                     trial_stream(44, 1, 1, trial), f"sdp trial {trial}",
                     failures).final_objective()
        gaps.append(abs(j_lc - j_sdp) / max(abs(j_lc), abs(j_sdp)))
    median_gap = float(np.median(gaps))
    return _scored(
        "04-cross-algorithm-agreement", median_gap <= 0.05,
        f"median relative gap {median_gap:.4f} over 20 seeds (need <= 0.05)",
        failures)


def check_mm_vs_exhaustive_oracle() -> CriterionResult:
    """MM fixed point is within 2% of the 8-level exhaustive search."""
    config = dataclasses.replace(SystemConfig(seed=55), n_irs=6, rho=0.5)
    budget = SearchBudget(phase_levels=8)
    hits = 0
    ratios = []
    for trial in range(10):
        channels = sample_channels(config, trial_stream(55, 0, trial))
        rng = trial_stream(55, 1, trial)
        beam = Beamformer.from_phases(
            rng.uniform(-np.pi, np.pi, config.n_tx), config)
        phases = PhaseProfile(rng.uniform(-np.pi, np.pi, config.n_irs))
        ops = build_operators(channels, None, beam, config)
        solved = mm_solve(ops, phases, max_iters=500, rel_tol=1e-12)
        j_mm = composite_objective(channels, solved, beam, config)
        _, j_oracle = quantized_phase_search(channels, beam, config, budget)
        ratios.append(j_mm / j_oracle)
        hits += j_mm >= 0.98 * j_oracle
    return CriterionResult(
        "05-mm-vs-exhaustive-oracle", hits >= 9,
        f"{hits}/10 instances with MM >= 0.98 x oracle "
        f"(ratio range {min(ratios):.4f}..{max(ratios):.4f})")


def check_sdp_unit_exactness() -> CriterionResult:
    """The three analytically solvable unit-diagonal programs are exact."""
    cases = [
        (np.diag([3.0, -1.0, 2.0]).astype(complex), np.ones(3), 4.0),
        (np.ones((3, 3), dtype=complex), np.ones(3), 9.0),
        (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), np.ones(2), 2.0),
    ]
    worst = 0.0
    for cost, diag, analytic in cases:
        solution = solve_diag_sdp(cost, diag)
        err = abs(solution.objective - analytic) / (1.0 + abs(analytic))
        worst = max(worst, err)
    return CriterionResult(
        "06-sdp-unit-exactness", worst <= 1e-6,
        f"worst scaled error {worst:.3e} over 3 analytic cases (tol 1e-6)")


def check_surrogate_tangency_domination() -> CriterionResult:
    """Both tangent planes touch at the expansion point; the MM one
    dominates g and the SCA one is dominated by w^H H w, at random points
    and at points near the expansion point, where a wrong slope shows."""
    config = dataclasses.replace(SystemConfig(seed=77), n_irs=16, rho=0.5)
    worst_tangent = 0.0
    phase_slack = beam_slack = np.inf
    for trial in range(5):
        channels = sample_channels(config, trial_stream(77, 0, trial))
        rng = trial_stream(77, 1, trial)
        beam = Beamformer.from_phases(
            rng.uniform(-np.pi, np.pi, config.n_tx), config)
        phases = PhaseProfile(rng.uniform(-np.pi, np.pi, config.n_irs))
        ops = build_operators(channels, phases, beam, config)

        v_far = np.exp(1j * rng.uniform(-np.pi, np.pi, (1000, config.n_irs)))
        w_far = config.beam_amplitude * np.exp(
            1j * rng.uniform(-np.pi, np.pi, (1000, config.n_tx)))
        w_near, v_near = (x * np.exp(1j * rng.uniform(-0.01, 0.01, (1000, x.size)))
                          for x in (beam.w, phases.v))

        # Phase majorizer g(v0) - 2 Re((v - v0)^H (F11 v0 + f12)), equal to g
        # at row 0 = v0 by construction, against g(v) = -(v^H F11 v + 2 Re(v^H
        # f12)) on the random and nearby profiles; F11, f12 from big_f.
        l_dim = config.n_irs
        f11, f12 = ops.big_f[:l_dim, :l_dim], ops.big_f[:l_dim, l_dim]
        v_rows = np.vstack([phases.v, v_far, v_near])
        g_rows = -(np.real(np.sum(v_rows.conj() * (v_rows @ f11.T), axis=1))
                   + 2.0 * np.real(v_rows.conj() @ f12))
        grad = f11 @ v_rows[0] + f12
        plane = g_rows[0] - 2.0 * np.real((v_rows - v_rows[0]).conj() @ grad)
        phase_slack = min(phase_slack, float(np.min(plane[1:] - g_rows[1:])))

        # Beam minorant 2 Re(w^H H w0) - q(w0) against q(w) = w^H H w, on
        # row 0 = w0 and the random and nearby constant-modulus beams.
        rows = np.vstack([beam.w, w_far, w_near])
        q_rows = np.real(np.sum(rows.conj() * (rows @ ops.big_h.T), axis=1))
        minorant = 2.0 * np.real(rows.conj() @ (ops.big_h @ beam.w)) - q_rows[0]
        worst_tangent = max(worst_tangent, abs(minorant[0] - q_rows[0])
                            / max(1.0, abs(q_rows[0])))
        beam_slack = min(beam_slack, float(np.min(q_rows[1:] - minorant[1:])))
    passed = (worst_tangent <= 1e-10 and phase_slack >= -1e-10
              and beam_slack >= -1e-10)
    return CriterionResult(
        "07-surrogate-tangency-domination", passed,
        f"tangency error {worst_tangent:.2e} (tol 1e-10), domination slack "
        f"min phase {phase_slack:.2e}, beam {beam_slack:.2e} (need >= -1e-10)")


def check_monte_carlo_beampattern_model() -> CriterionResult:
    """Sample mean over random symbols matches the quadratic-form value."""
    n_draws = 100_000
    worst = 0.0
    for trial in range(5):
        config = SystemConfig(seed=88)
        channels = sample_channels(config, trial_stream(88, 0, trial))
        rng = trial_stream(88, 1, trial)
        v = np.exp(1j * rng.uniform(-np.pi, np.pi, config.n_irs))
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        steer = steering_matrix(theta, config.n_irs, config.delta)[0]
        h_hat = (steer * v) @ channels.h_br
        symbols = complex_normal(trial_stream(88, 2, trial),
                                 (n_draws, config.n_tx))
        empirical = float(np.mean(np.abs(symbols @ h_hat) ** 2))
        closed = float(np.real(np.vdot(h_hat, h_hat)))
        worst = max(worst, abs(empirical / closed - 1.0))
    return CriterionResult(
        "08-monte-carlo-beampattern-model", worst <= 0.01,
        f"worst relative error {worst:.4f} over 5 instances, "
        f"{n_draws} draws each (tol 0.01)")


def check_element_count_benefit() -> CriterionResult:
    """More reflecting elements help, and optimized phases beat random ones.

    Gates: mean harvested energy strictly increasing over the element
    sweep; optimized phases win in at least 95% of trials; mean harvested
    energy improvement over the random-phase baseline at least 50%.
    """
    base = SystemConfig(p0=1000.0, rho=0.9, seed=123)
    l_values = (10, 20, 30, 40)
    n_trials = 50
    e_opt = np.zeros((len(l_values), n_trials))
    e_rps = np.zeros((len(l_values), n_trials))
    cfg_big = dataclasses.replace(base, n_irs=max(l_values))
    for trial in range(n_trials):
        drawn = sample_channels(cfg_big, trial_stream(base.seed, 0, trial))
        for idx, n_irs in enumerate(l_values):
            config = dataclasses.replace(base, n_irs=n_irs)
            channels = slice_channels(drawn, n_irs)
            trace = run_ao(config, AoConfig(algorithm="lc"), channels,
                           trial_stream(base.seed, 1, 0, idx, trial))
            e_opt[idx, trial] = trace.steps[-1].harvested_sum
            baseline = run_rps(config, channels,
                               trial_stream(base.seed, 1, 2, idx, trial))
            e_rps[idx, trial] = baseline.steps[-1].harvested_sum
    means = e_opt.mean(axis=1)
    increasing = bool(np.all(np.diff(means) > 0.0))
    win_rate = float(np.mean(e_opt > e_rps))
    improvement = float(np.mean(e_opt / e_rps - 1.0))
    passed = increasing and win_rate >= 0.95 and improvement >= 0.50
    return CriterionResult(
        "09-element-count-benefit", passed,
        f"means {np.array2string(means, precision=5)} strictly increasing: "
        f"{increasing}; win rate {win_rate:.3f} (need >= 0.95); mean "
        f"improvement {improvement:.3f} (need >= 0.50)")


def check_trade_off_monotonicity() -> CriterionResult:
    """Per-trial energy rises and beampattern sum falls across the sweep."""
    from .cli import ExperimentSpec, sweep_rho_trial

    exp = ExperimentSpec(config=SystemConfig(p0=1000.0, seed=321),
                         algorithms=("lc",), n_trials=50)
    n_points = len(exp.sweep_rho)
    harvested = np.zeros((n_points, exp.n_trials))
    sensing = np.zeros((n_points, exp.n_trials))
    for trial in range(exp.n_trials):
        channels = sample_channels(exp.config,
                                   trial_stream(exp.config.seed, 0, trial))
        harvested[:, trial], sensing[:, trial] = sweep_rho_trial(
            exp, "lc", trial, channels)
    mono_e = np.all(np.diff(harvested, axis=0) >= 0.0, axis=0)
    mono_s = np.all(np.diff(sensing, axis=0) <= 0.0, axis=0)
    fraction = float(np.mean(mono_e & mono_s))
    return CriterionResult(
        "10-trade-off-monotonicity", fraction >= 0.90,
        f"both trends hold in {fraction:.2f} of {exp.n_trials} trials "
        f"(need >= 0.90); energy-only {np.mean(mono_e):.2f}, "
        f"beampattern-only {np.mean(mono_s):.2f}")


def check_beampattern_target_peaks() -> CriterionResult:
    """Converged beampatterns peak at the target angles."""
    config = SystemConfig(p0=1000.0, n_irs=40, rho=0.5, seed=21)
    grid_deg = np.arange(-90.0, 91.0, 1.0)
    grid_rad = np.radians(grid_deg)
    targets_deg = np.degrees(config.target_angles)
    n_trials = 20
    hits = 0
    target_gains = []
    off_gains = []
    off_mask = np.ones(grid_deg.size, dtype=bool)
    for target in targets_deg:
        off_mask &= np.abs(grid_deg - target) > 3.0
    for trial in range(n_trials):
        channels = sample_channels(config, trial_stream(21, 0, trial))
        trace = run_ao(config, AoConfig(algorithm="lc"), channels,
                       trial_stream(21, 1, trial))
        gains = beampattern_profile(channels, trace.phases, trace.beam,
                                    grid_rad, config.delta)
        interior = np.where((gains[1:-1] >= gains[:-2])
                            & (gains[1:-1] >= gains[2:]))[0] + 1
        peak_angles = grid_deg[interior]
        hits += all(np.min(np.abs(peak_angles - target)) <= 3.0
                    for target in targets_deg)
        target_gains.extend(beampattern_profile(
            channels, trace.phases, trace.beam, np.radians(targets_deg),
            config.delta))
        off_gains.append(float(np.mean(gains[off_mask])))
    mean_target = float(np.mean(target_gains))
    mean_off = float(np.mean(off_gains))
    passed = hits >= int(0.80 * n_trials) and mean_target > mean_off
    return CriterionResult(
        "11-beampattern-target-peaks", passed,
        f"{hits}/{n_trials} trials with peaks within 3 deg of every target "
        f"(need >= {int(0.80 * n_trials)}); mean target gain {mean_target:.2f}"
        f" vs off-target {mean_off:.2f}")


_DETERMINISM_SPEC = """\
# small deterministic experiment used by the reproducibility check
n_tx = 4
n_ehd = 2
seed = 9
n_trials = 2
sweep_l = 4,6
sweep_rho = 0.3,0.7
angle_step_deg = 15
max_outer_iters = 3
algorithms = sdp,lc
"""


def check_cli_determinism() -> CriterionResult:
    """Re-running every CSV command with one spec reproduces exact bytes."""
    from .cli import main as cli_main

    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "exp.spec")
        with open(spec_path, "w") as handle:
            handle.write(_DETERMINISM_SPEC)
        for command in ("convergence", "sweep-l", "sweep-rho", "beampattern"):
            outputs = []
            for run in (0, 1):
                out_path = os.path.join(tmp, f"{command}-{run}.csv")
                # max_outer_iters = 3 stops some runs unconverged; keep the
                # command's stderr notes out of the report.
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli_main([command, "--spec", spec_path,
                                     "--out", out_path])
                if code != 0:
                    return CriterionResult(
                        "12-cli-determinism", False,
                        f"{command} exited with code {code}: "
                        f"{err.getvalue().strip()}")
                with open(out_path, "rb") as handle:
                    outputs.append(handle.read())
            if outputs[0] != outputs[1]:
                mismatched.append(command)
    return CriterionResult(
        "12-cli-determinism", not mismatched,
        "all four CSV commands byte-identical across re-runs" if not mismatched
        else f"byte mismatch in: {', '.join(mismatched)}")


ALL_CRITERIA = (
    check_step_feasibility,
    check_lc_monotone_ascent,
    check_convergence_speed,
    check_cross_algorithm_agreement,
    check_mm_vs_exhaustive_oracle,
    check_sdp_unit_exactness,
    check_surrogate_tangency_domination,
    check_monte_carlo_beampattern_model,
    check_element_count_benefit,
    check_trade_off_monotonicity,
    check_beampattern_target_peaks,
    check_cli_determinism,
)


def run_all_criteria() -> list[CriterionResult]:
    return [check() for check in ALL_CRITERIA]
