"""The benchmark's four workloads, each a sequence of independent trials.

A workload object is built from the workload seed.  `inputs(count)` draws
the channels of `count` trials (this is the set-up the benchmark times as
input generation); `run(inp)` makes the timed calls into the package for one
trial; `check(inp, out)` verifies that trial's outputs and summarises them
in an `Outcome`.  Checks run outside the timed region.

Trials follow the stream layout of the command line (see `iswpt.cli`):
channels from ``trial_stream(seed, 0, trial)`` and algorithm randomness from
``trial_stream(seed, 1, algo_id, point_idx, trial)``, so a trial of
``lc-sweep-l`` does the work of one trial of ``iswpt sweep-l`` and a trial
of ``sdp-convergence`` the work of one trial of ``iswpt convergence``.
Package functions are always looked up through their module at call time,
so the traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from iswpt import ao, cli, lc, objective, oracle, scenario

MODULUS_TOL = 1e-12      # |w_n| and |v_l| deviation allowed on every output
MONOTONE_TOL = 1e-9      # relative drop allowed between lc half-steps

# Stream ids of iswpt.cli: algorithm randomness per algorithm.
_ALGO_ID = {"sdp": 0, "lc": 1, "rps": 2}


@dataclass
class Outcome:
    """Checked summary of one trial."""

    objectives: list[float] = field(default_factory=list)  # final J per optimizer output
    ratios: list[float] = field(default_factory=list)      # J over the trial's reference J
    solves: int = 0          # optimizer calls made
    converged: int = 0       # of which stopped on tolerance, not on the iteration cap
    failures: list[str] = field(default_factory=list)
    fingerprint: tuple = ()  # exact outputs, compared across repeated passes


def slice_channels(channels: scenario.ChannelSet, n_irs: int) -> scenario.ChannelSet:
    """First n_irs reflecting elements of a draw (common random numbers)."""
    return scenario.ChannelSet(h_br=channels.h_br[:n_irs, :].copy(),
                               h_ru=channels.h_ru[:, :n_irs].copy(),
                               h_d=channels.h_d.copy())


def objective_value(config: scenario.SystemConfig, harvested: float,
                    sensing: float) -> float:
    """J from its two reported parts (see `objective.solution_metrics`)."""
    return config.rho * config.p0 * harvested + (1.0 - config.rho) * sensing


def check_trace(trace: ao.AoTrace, config: scenario.SystemConfig, label: str,
                out: Outcome, monotone: bool = False,
                sdp_tol: float | None = None) -> None:
    """Per-run checks shared by every workload that returns an AoTrace."""
    out.solves += 1
    out.converged += trace.converged
    if trace.failure is not None:
        out.failures.append(f"{label}: failure {trace.failure}")
    worst = max(trace.beam.modulus_error(config), trace.phases.modulus_error(),
                *(max(s.w_error, s.v_error) for s in trace.steps))
    if worst > MODULUS_TOL:
        out.failures.append(f"{label}: modulus error {worst:.3e}")
    values = [s.objective for s in trace.steps]
    if not all(math.isfinite(v) for v in values):
        out.failures.append(f"{label}: non-finite objective")
    if monotone:
        for prev, cur in zip(values, values[1:]):
            if cur < prev - MONOTONE_TOL * abs(prev):
                out.failures.append(f"{label}: objective drop {prev!r} -> {cur!r}")
                break
    if sdp_tol is not None:
        # The interior-point method stops at a relative duality gap and a
        # relative diagonal residual below sdp_tol; together they keep the
        # reported relaxed optimum within 4 * sdp_tol of the true one, which
        # bounds every feasible J from above.
        for s in trace.steps:
            bound = s.relaxed_objective
            if bound is not None and bound < s.objective - 4.0 * sdp_tol * abs(bound):
                out.failures.append(
                    f"{label}: relaxed bound {bound!r} below feasible J {s.objective!r}")
                break
    out.fingerprint += (trace.n_outer, *values)


class Workload:
    """Common shape: a seed, a nominal trial rate and the three phases."""

    name = ""
    nominal_rate = 1.0   # trials per second on the reference machine

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = cli.ExperimentSpec(config=scenario.SystemConfig(seed=seed))

    def rng(self, algorithm: str, point_idx: int, trial: int) -> np.random.Generator:
        return scenario.trial_stream(self.seed, 1, _ALGO_ID[algorithm], point_idx, trial)

    def prepare(self) -> None:
        """Hook run once after tracing is installed and before the trials."""

    def close(self) -> None:
        """Undo `prepare`."""


class _SweepL(Workload):
    """Channels drawn at the largest L and sliced, one AO run per L."""

    algorithm = ""
    sweep_l: tuple[int, ...] = ()

    def inputs(self, count: int) -> list:
        l_max = max(self.sweep_l)
        config_max = dataclasses.replace(self.spec.config, n_irs=l_max)
        out = []
        for trial in range(count):
            channels = scenario.sample_channels(
                config_max, scenario.trial_stream(self.seed, 0, trial))
            points = [(dataclasses.replace(self.spec.config, n_irs=l),
                       slice_channels(channels, l)) for l in self.sweep_l]
            out.append((trial, points))
        return out

    def run(self, inp):
        trial, points = inp
        spec = self.spec
        ao_config = ao.AoConfig(algorithm=self.algorithm,
                                max_outer_iters=spec.max_outer_iters,
                                rel_tol=spec.rel_tol)
        results = []
        for point_idx, (config, channels) in enumerate(points):
            trace = ao.run_ao(config, ao_config, channels,
                              self.rng(self.algorithm, point_idx, trial))
            rps = ao.run_rps(config, channels, self.rng("rps", point_idx, trial),
                             max_iters=spec.max_outer_iters, rel_tol=spec.rel_tol)
            results.append((trace, rps))
        return results

    def check(self, inp, results) -> Outcome:
        trial, points = inp
        out = Outcome()
        sdp_tol = ao.AoConfig().sdp_tol if self.algorithm == "sdp" else None
        for (config, _), (trace, rps) in zip(points, results):
            label = f"trial {trial} L={config.n_irs}"
            check_trace(trace, config, f"{label} {self.algorithm}", out,
                        monotone=self.algorithm == "lc", sdp_tol=sdp_tol)
            check_trace(rps, config, f"{label} rps", out, monotone=True)
            j_opt, j_rps = trace.final_objective(), rps.final_objective()
            out.objectives.append(j_opt)
            out.ratios.append(j_opt / j_rps)
        return out


class LcSweepL(_SweepL):
    """`iswpt sweep-l` for lc and rps: L in {10, 20, 30, 40}, cold starts."""

    name = "lc-sweep-l"
    nominal_rate = 25.0
    algorithm = "lc"
    sweep_l = (10, 20, 30, 40)


class SdpConvergence(_SweepL):
    """`iswpt convergence --algo sdp` at L in {20, 40}, plus the rps reference."""

    name = "sdp-convergence"
    nominal_rate = 2.5
    algorithm = "sdp"
    sweep_l = (20, 40)


class RhoContinuation(Workload):
    """`iswpt sweep-rho` at L=40: lc continuation over the rho grid, and rps.

    The AO runs happen inside `cli.sweep_rho_trial`; `prepare` wraps the
    command line's bindings of `run_ao` and `run_rps` so that every trace
    they return is checked and counted.
    """

    name = "rho-continuation"
    nominal_rate = 3.8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.captured: list[ao.AoTrace] = []
        self._saved: dict[str, object] = {}

    def prepare(self) -> None:
        for name in ("run_ao", "run_rps"):
            func = getattr(cli, name)
            self._saved[name] = func

            def capture(*args, _func=func, **kwargs):
                trace = _func(*args, **kwargs)
                self.captured.append(trace)
                return trace

            setattr(cli, name, capture)

    def close(self) -> None:
        for name, func in self._saved.items():
            setattr(cli, name, func)
        self._saved.clear()

    def inputs(self, count: int) -> list:
        config = self.spec.config
        return [(trial, scenario.sample_channels(
            config, scenario.trial_stream(self.seed, 0, trial)))
            for trial in range(count)]

    def run(self, inp):
        trial, channels = inp
        self.captured = []
        lc_curves = cli.sweep_rho_trial(self.spec, "lc", trial, channels)
        rps_curves = cli.sweep_rho_trial(self.spec, "rps", trial, channels)
        return lc_curves, rps_curves, self.captured

    def check(self, inp, results) -> Outcome:
        trial, _ = inp
        (e_lc, s_lc), (e_rps, s_rps), traces = results
        out = Outcome()
        rhos = self.spec.sweep_rho
        if len(traces) != 2 * len(rhos):
            out.failures.append(f"trial {trial}: {len(traces)} runs, expected {2 * len(rhos)}")
        for idx, trace in enumerate(traces):
            config = dataclasses.replace(self.spec.config, rho=float(rhos[idx % len(rhos)]))
            check_trace(trace, config, f"trial {trial} run {idx}", out, monotone=True)
        curves = np.concatenate([e_lc, s_lc, e_rps, s_rps])
        if not np.all(np.isfinite(curves)):
            out.failures.append(f"trial {trial}: non-finite curve")
        # Pool selection makes harvested energy nondecreasing and the
        # beampattern sum nonincreasing in rho (see cli.sweep_rho_trial).
        if np.any(np.diff(e_lc) < -MONOTONE_TOL * np.abs(e_lc[:-1])) \
                or np.any(np.diff(s_lc) > MONOTONE_TOL * np.abs(s_lc[:-1])):
            out.failures.append(f"trial {trial}: lc trade-off curve not monotone")
        for idx, rho in enumerate(rhos):
            config = dataclasses.replace(self.spec.config, rho=float(rho))
            j_lc = objective_value(config, e_lc[idx], s_lc[idx])
            out.objectives.append(j_lc)
            out.ratios.append(j_lc / objective_value(config, e_rps[idx], s_rps[idx]))
        out.fingerprint += tuple(curves)
        return out


class OracleSmall(Workload):
    """Exhaustive 8-level searches against mm_solve / sca_solve at N=L=6.

    Mirrors acceptance criterion 05: a random fixed point, the phase search
    at its beamformer, the beam search at its phases, and the lc inner
    solvers from the same point.
    """

    name = "oracle-small"
    nominal_rate = 3.6
    mm_iters, mm_tol = 500, 1e-12
    sca_iters, sca_tol = 50, 1e-9

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = dataclasses.replace(self.spec.config, n_tx=6, n_irs=6, rho=0.5)
        self.budget = oracle.SearchBudget(phase_levels=8)

    def inputs(self, count: int) -> list:
        config = self.config
        out = []
        for trial in range(count):
            channels = scenario.sample_channels(
                config, scenario.trial_stream(self.seed, 0, trial))
            rng = scenario.trial_stream(self.seed, 1, trial)
            beam = objective.Beamformer.from_phases(
                rng.uniform(-np.pi, np.pi, config.n_tx), config)
            phases = objective.PhaseProfile(rng.uniform(-np.pi, np.pi, config.n_irs))
            out.append((trial, channels, beam, phases))
        return out

    def run(self, inp):
        _, channels, beam, phases = inp
        config = self.config
        best_v = oracle.quantized_phase_search(channels, beam, config, self.budget)
        best_w = oracle.quantized_beam_search(channels, phases, config, self.budget)
        ops = objective.build_operators(channels, phases, beam, config)
        v = lc.mm_solve(ops, phases, max_iters=self.mm_iters, rel_tol=self.mm_tol)
        w = lc.sca_solve(ops.big_h, beam, config, max_iters=self.sca_iters,
                         rel_tol=self.sca_tol)
        return best_v, best_w, ops, v, w

    def check(self, inp, results) -> Outcome:
        trial, channels, beam, phases = inp
        (oracle_v, j_oracle_v), (oracle_w, j_oracle_w), ops, v, w = results
        config = self.config
        out = Outcome()

        def j(p, b):
            return objective.composite_objective(channels, p, b, config)

        def q(b):
            return float(np.real(np.vdot(b.w, ops.big_h @ b.w)))

        j0, j_mm, j_sca = j(phases, beam), j(v, beam), j(phases, w)
        worst = max(v.modulus_error(), oracle_v.modulus_error(),
                    w.modulus_error(config), oracle_w.modulus_error(config))
        if worst > MODULUS_TOL:
            out.failures.append(f"trial {trial}: modulus error {worst:.3e}")
        values = (j0, j_mm, j_sca, j_oracle_v, j_oracle_w)
        if not all(math.isfinite(x) for x in values):
            out.failures.append(f"trial {trial}: non-finite objective")
        for name, after in (("mm", j_mm), ("sca", j_sca)):
            if after < j0 - MONOTONE_TOL * abs(j0):
                out.failures.append(f"trial {trial}: {name} lowered J {j0!r} -> {after!r}")
        for name, score, at in (("phase", j_oracle_v, j(oracle_v, beam)),
                                ("beam", j_oracle_w, j(phases, oracle_w))):
            if abs(score - at) > MONOTONE_TOL * abs(score):
                out.failures.append(f"trial {trial}: {name} search score {score!r} != J {at!r}")

        # Converged means the returned point is a fixed point of the solver's
        # own stopping rule: one more step changes its objective by less than
        # the tolerance the solve was given.
        problem = lc.MmProblem.from_operators(ops, v)
        g0 = lc.mm_objective(problem, v.v)
        g1 = lc.mm_objective(problem, lc.mm_update_v(problem).v)
        q0, q1 = q(w), q(lc.sca_update_w(ops.big_h, w, config))
        out.solves += 2
        out.converged += (abs(g1 - g0) < self.mm_tol * abs(g0)) \
            + (abs(q1 - q0) < self.sca_tol * abs(q0))

        out.objectives += [j_mm, j_sca]
        out.ratios += [j_mm / j_oracle_v, j_sca / j_oracle_w]
        out.fingerprint = values
        return out


WORKLOADS = {cls.name: cls for cls in (LcSweepL, SdpConvergence,
                                       RhoContinuation, OracleSmall)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
