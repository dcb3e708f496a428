"""Alternating optimization driver and the random-phase baseline.

One outer iteration updates the beamformer at fixed phases, then the
phases at fixed beamformer.  Either half-step runs in one of two modes:

* "sdp": relax the subproblem to a diagonally constrained SDP, solve it
  with the interior-point method, and keep the projected principal
  eigenvector unless the incumbent scores higher.  After the first outer
  iteration each solve starts warm, from the previous outer iteration's
  solution of the same side (`sdp.solve_diag_sdp`'s `warm`).  The dual
  value of each relaxation is an upper bound on the half-step's achievable
  objective at any solver tolerance, and is recorded alongside the
  feasible objective with the solve's iteration count, duality gap and
  primal residual.
  The interior-point method stops at a relative duality gap of 1e-4
  (`AoConfig.sdp_tol`, a constant), the default outer `rel_tol`;
  extraction reads only the eigenstructure of the relaxed solution, which
  a tighter solve barely moves.
* "lc": an inner SCA loop for the beamformer and an inner MM loop for the
  phases, each iterating the closed-form step of `lc` to a fixed point.
  The outer maps run in safeguarded SqS3 cycles over the stacked state
  u = [w / sqrt(p0/N); v]: two plain maps x0 -> x1 -> x2, then one map
  from `lc.sqs3_jump(u0, u1, u2)` (the beam rescaled to sqrt(p0/N)).  If
  J after that map's beam half-step is below J(x2), the jump is rejected:
  x2 stays, its "v" step is recorded again as the map's "w" and "v"
  steps, and no stop test follows.  Every half-step is monotone, so the
  recorded objectives are nondecreasing up to floating-point noise.

One outer iteration is one map, a ("w", "v") pair of steps; an lc jump
counts as one, kept or rejected.  `max_outer_iters` caps maps, `n_outer`
counts them and `iteration_objectives()[k]` is J after map k.

Each half-step builds only the operators of its own side, and the inner
solvers run at their own default iteration caps and tolerances.  No
half-step draws: a run's stream feeds only its initial phases, if any.

The trace records the composite objective and the physical metrics after
initialisation and after every half-step, which is what the convergence
experiments and the acceptance checks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import lc, sdp
from .objective import Beamformer, PhaseProfile, build_operators, solution_metrics
from .scenario import (ChannelSet, SystemConfig, check_channels, check_finite,
                       check_loop)

ALGORITHM_SDP = "sdp"
ALGORITHM_LC = "lc"


def _check_start(config: SystemConfig, ao: AoConfig) -> None:
    """Reject a given starting point of the wrong size or with a non-finite
    entry."""
    if ao.init_phases is not None:
        check_finite("init_phases", ao.init_phases.alpha, (config.n_irs,))
    if ao.init_beam is not None:
        check_finite("init_beam", ao.init_beam.w, (config.n_tx,))


@dataclass(frozen=True)
class AoConfig:
    """Outer-loop knobs of one alternating-optimization run; the inner
    solvers run at their defaults, and `sdp_tol` is a class constant."""

    algorithm: str = ALGORITHM_LC
    max_outer_iters: int = 30
    rel_tol: float = 1e-4            # outer stop on |dJ| < rel_tol * |J|
    sdp_tol = 1e-4                   # interior-point duality gap target
    init_phases: PhaseProfile | None = None  # None: uniform random phases
    init_beam: Beamformer | None = None      # None: one SCA step from flat

    def __post_init__(self) -> None:
        if self.algorithm not in (ALGORITHM_SDP, ALGORITHM_LC):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_loop(self.max_outer_iters, self.rel_tol, "max_outer_iters")


@dataclass(frozen=True)
class AoStep:
    """State snapshot after one half-step (or after initialisation)."""

    outer_iter: int               # outer iteration, 0 = initialisation
    stage: str                    # "init" | "w" | "v"
    objective: float              # composite J at this iterate
    harvested_sum: float          # eta * sum_k |h_tilde_k w|^2
    beampattern_sum: float        # sum_m gain toward target m
    w_error: float                # max | |w_n| - sqrt(p0/N) |
    v_error: float                # max | |v_l| - 1 |
    relaxed_objective: float | None = None  # SDP dual value: bounds J at any sdp_tol
    sdp_iterations: int | None = None       # interior-point iterations of an sdp half-step
    sdp_duality_gap: float | None = None    # its final b^T z - Re tr(C X)
    sdp_primal_residual: float | None = None  # its final max_i |X_ii - b_i| / (1 + max b)


@dataclass
class AoTrace:
    """Full record of one run plus the final iterates."""

    steps: list[AoStep] = field(default_factory=list)
    beam: Beamformer | None = None
    phases: PhaseProfile | None = None
    converged: bool = False
    n_outer: int = 0
    failure: str | None = None

    def final_objective(self) -> float:
        return self.steps[-1].objective

    def iteration_objectives(self) -> np.ndarray:
        """Objective after each completed outer iteration (index 0 = init)."""
        out = [s.objective for s in self.steps if s.stage in ("init", "v")]
        return np.asarray(out)


def _record(trace: AoTrace, channels: ChannelSet, config: SystemConfig,
            phases: PhaseProfile, beam: Beamformer, outer: int, stage: str,
            relaxed: float | None = None,
            solution: sdp.SdpSolution | None = None) -> float:
    """Append the step at iterate (phases, beam) to `trace`, with the
    diagnostics of an sdp half-step's `solution`; returns its J."""
    j_val, harvested, sensing = solution_metrics(channels, phases, beam, config)
    ipm = {} if solution is None else dict(
        sdp_iterations=solution.iterations, sdp_duality_gap=solution.duality_gap,
        sdp_primal_residual=solution.primal_residual)
    trace.steps.append(AoStep(
        outer_iter=outer, stage=stage, objective=j_val,
        harvested_sum=harvested, beampattern_sum=sensing,
        w_error=beam.modulus_error(config),
        v_error=phases.modulus_error(),
        relaxed_objective=relaxed, **ipm))
    return j_val


def _initial_iterates(config: SystemConfig, ao: AoConfig, channels: ChannelSet,
                      rng: np.random.Generator) -> tuple[PhaseProfile, Beamformer]:
    """Starting point: the given phases, else uniform random ones; the given
    beamformer, else one SCA step from the all-equal-phase feasible point."""
    phases = ao.init_phases
    if phases is None:
        phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, size=config.n_irs))
    if ao.init_beam is not None:
        return phases, ao.init_beam
    flat = Beamformer.from_phases(np.zeros(config.n_tx), config)
    big_h = build_operators(channels, phases, None, config).big_h
    beam = lc.sca_update_w(big_h, flat, config)
    return phases, beam


def run_ao(config: SystemConfig, ao: AoConfig, channels: ChannelSet,
           rng: np.random.Generator) -> AoTrace:
    """Run alternating optimization and return its trace.

    Deterministic given (config, ao, channels, rng state).  On SDP solver
    non-convergence the trace is truncated at the last completed half-step
    with `failure` describing the error.  Inputs that do not fit `config`
    raise ValueError (see `scenario.check_channels` and `_check_start`).
    """
    check_channels(config, channels)
    _check_start(config, ao)
    trace = AoTrace()
    phases, beam = _initial_iterates(config, ao, channels, rng)
    j_prev = _record(trace, channels, config, phases, beam, 0, "init")
    solution_w = solution_v = None   # each sdp side's last solve, its next warm start
    cycle = []   # lc: the stacked states u of the current SqS3 cycle

    for outer in range(1, ao.max_outer_iters + 1):
        if ao.algorithm == ALGORITHM_LC:
            cycle.append(np.concatenate((beam.w / config.beam_amplitude, phases.v)))
        jump = None
        if len(cycle) == 3:   # two plain maps done: this map starts at the jump
            jump = lc.sqs3_jump(*cycle)
            cycle = cycle[2:] if jump is None else []
        start_beam, start_phases = beam, phases
        if jump is not None:
            start_beam = Beamformer.from_phases(jump[:config.n_tx], config)
            start_phases = PhaseProfile(alpha=jump[config.n_tx:])
        try:
            big_h = build_operators(channels, start_phases, None, config).big_h
            if ao.algorithm == ALGORITHM_SDP:
                w_beam, relaxed_w, solution_w = sdp.sdp_update_w(
                    big_h, config, tol=ao.sdp_tol, incumbent=beam, warm=solution_w)
            else:
                w_beam, relaxed_w = lc.sca_solve(big_h, start_beam, config), None
            j_w = _record(trace, channels, config, start_phases, w_beam, outer,
                          "w", relaxed_w, solution_w)
            if jump is not None and not j_w >= j_prev:
                # Rejected: x2 stays, and its v record repeats as a flat pair.
                trace.steps[-1:] = [replace(trace.steps[-2], outer_iter=outer, stage=s)
                                    for s in ("w", "v")]
                trace.n_outer = outer
                continue
            beam, phases = w_beam, start_phases

            ops = build_operators(channels, None, beam, config)
            if ao.algorithm == ALGORITHM_SDP:
                phases, relaxed_v, solution_v = sdp.sdp_update_v(
                    ops.big_f, config, tol=ao.sdp_tol, incumbent=phases, warm=solution_v)
            else:
                phases, relaxed_v = lc.mm_solve(ops, phases), None
            j_new = _record(trace, channels, config, phases, beam, outer, "v",
                            relaxed_v, solution_v)
        except sdp.SdpNonConvergence as exc:
            trace.failure = str(exc)
            break

        trace.n_outer = outer
        if lc.stalled(j_new, j_prev, ao.rel_tol):
            trace.converged = True
            break
        j_prev = j_new

    trace.beam, trace.phases = beam, phases
    return trace


def run_rps(config: SystemConfig, channels: ChannelSet,
            rng: np.random.Generator, max_iters: int = 30,
            rel_tol: float = 1e-6) -> AoTrace:
    """Random-phase baseline: phases drawn uniformly once and frozen,
    beamformer still optimized by iterating SCA steps to convergence."""
    check_loop(max_iters, rel_tol, "max_iters")
    check_channels(config, channels)
    trace = AoTrace()
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, size=config.n_irs))
    beam = Beamformer.from_phases(np.zeros(config.n_tx), config)
    big_h = build_operators(channels, phases, None, config).big_h

    j_prev = None
    for it in range(max_iters):
        beam = lc.sca_update_w(big_h, beam, config)
        j_val = _record(trace, channels, config, phases, beam, it, "w")
        trace.n_outer = it + 1
        if j_prev is not None and lc.stalled(j_val, j_prev, rel_tol):
            trace.converged = True
            break
        j_prev = j_val

    trace.beam, trace.phases = beam, phases
    return trace
