"""Alternating optimization driver and the random-phase baseline.

`run_ao` alternates two half-steps per outer iteration, a map: the beam
half-step at fixed phases, then the phase half-step at the fixed beam.
Each half-step builds only its own side's operator (`objective.gram` for
the beam, `objective.build_operators`' `big_f` for the phases) and solves
it with `lc.sca_solve` or `lc.mm_solve`, on both routes; the `beam_rows` of
each phase profile are built once and carried with it.  On the "sdp"
route the lc point then goes to `sdp.sdp_update_w` or `sdp.sdp_update_v`,
which return it certified or the better of it and an extraction, with a
dual bound.  Every half-step is monotone, so the recorded objectives are
nondecreasing up to rounding.

Both half-steps of a map solve to one tolerance `tol` that follows the
outer progress: `AoConfig.sdp_start_tol` in the first map, then
`_next_map_tol`.  An sdp half-step takes `tol` itself; the lc solves stop
at their defaults (`lc.SCA_REL_TOL`, `lc.MM_REL_TOL`) times
(tol / sdp_tol)^2, so a map at `AoConfig.sdp_tol` runs them at their
defaults.  Far from a fixed point the next map moves J more than a tight
solve would, so early maps stay loose.  An inexact block ascent stays
monotone, because every inner map ascends (block successive upper-bound
minimization: Razaviyayn, Hong & Luo, SIAM J. Optim. 2013).  A run stops
on `lc.stalled` only after a map solved at `sdp_tol`: a loose map that
gains less than `rel_tol` only tightens the next map.

The maps run in safeguarded SqS3 cycles over the stacked state
u = [w / sqrt(p0/N); v]: two plain maps u0 -> u1 -> u2, then one map from
`lc.sqs3_jump(u0, u1, u2)`, whose lc beam solve starts at the jumped beam.
If J after its beam half-step is below J(u2), the jump is rejected: u2
stays, its "v" record is repeated as the map's "w" and "v" records, and no
stop test follows.  Each map, a jump kept or rejected, adds one ("w", "v")
pair of `AoStep` records: `max_outer_iters` caps maps, `AoTrace.n_outer`
counts them and `AoTrace.iteration_objectives()[k]` is J after map k.
A run's stream draws only its initial phases, if any.

`run_rps` freezes uniform random phases and runs `lc._sca_ascent` from the
all-equal-phase beam: its trace holds one "w" record, at the final beam,
and `n_outer` counts its SCA maps.  Both run under
`scenario._one_blas_thread`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import lc, sdp
from .objective import (Beamformer, PhaseProfile, beam_rows, build_operators, gram,
                        solution_metrics)
from .scenario import (ChannelSet, SystemConfig, _one_blas_thread, check_channels,
                       check_finite, check_loop)

ALGORITHM_SDP = "sdp"
ALGORITHM_LC = "lc"


def _check_start(config: SystemConfig, ao: AoConfig) -> None:
    """Reject a given starting point of the wrong size or with a non-finite
    entry, and one whose moduli miss 1 (phases) or sqrt(p0/N) (beamformer)
    by more than 1e-12 of it: an infeasible start would record a J that the
    first map drops from."""
    if ao.init_phases is not None:
        check_finite("init_phases", ao.init_phases.v, (config.n_irs,))
        error = ao.init_phases.modulus_error()
        if error > 1e-12:
            raise ValueError(f"init_phases moduli miss 1 by {error:.3e}")
    if ao.init_beam is not None:
        check_finite("init_beam", ao.init_beam.w, (config.n_tx,))
        error = ao.init_beam.modulus_error(config)
        if error > 1e-12 * config.beam_amplitude:
            raise ValueError(f"init_beam moduli miss sqrt(p0/N) by {error:.3e}")


@dataclass(frozen=True)
class AoConfig:
    """Outer-loop knobs of one alternating-optimization run; the inner
    solvers run at their default caps, and the half-step tolerances of the
    maps (see the module docstring) are class constants."""

    algorithm: str = ALGORITHM_LC
    max_outer_iters: int = 30
    rel_tol: float = 1e-4            # outer stop on |dJ| < rel_tol * |J|
    sdp_tol = 1e-4                   # a stopping map's tol; lc stops: default*(tol/sdp_tol)^2
    sdp_start_tol = 1e-2             # ... of the first map, the loosest
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
    relaxed_objective: float | None = None  # SDP dual value: bounds J at any solver tol
    sdp_iterations: int | None = None       # interior-point iterations of an sdp half-step
    sdp_duality_gap: float | None = None    # its final b^T z - Re tr(C X)
    sdp_primal_residual: float | None = None  # its final max_i |X_ii - b_i| / (1 + max b)
    sdp_certified: bool | None = None       # lc point certified; no solve ran if 0 iterations


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


def _record(trace: AoTrace, config: SystemConfig, rows: np.ndarray,
            beam: Beamformer, errors: tuple[float, float], outer: int, stage: str,
            relaxed: float | None = None,
            solution: sdp.SdpSolution | None = None) -> float:
    """Append to `trace` the step at iterate (phases, beam), `rows` the phases'
    `beam_rows` and `errors` the iterate's (w, v) modulus errors, with an sdp
    half-step's `solution` diagnostics; returns J, raising if it overflowed."""
    j_val, harvested, sensing = solution_metrics(rows, beam.w, config)
    if not math.isfinite(j_val):
        raise ValueError(f"J at step {outer} ({stage}) is {j_val}: the run overflowed")
    ipm = {} if solution is None else dict(
        sdp_iterations=solution.iterations, sdp_duality_gap=solution.duality_gap,
        sdp_primal_residual=solution.primal_residual, sdp_certified=solution.certified)
    trace.steps.append(AoStep(
        outer_iter=outer, stage=stage, objective=j_val,
        harvested_sum=harvested, beampattern_sum=sensing,
        w_error=errors[0], v_error=errors[1], relaxed_objective=relaxed, **ipm))
    return j_val


def _initial_iterates(config: SystemConfig, ao: AoConfig, channels: ChannelSet,
                      rng: np.random.Generator
                      ) -> tuple[PhaseProfile, np.ndarray, Beamformer]:
    """Starting point: the given phases, else uniform random ones, with their
    `beam_rows`; the given beamformer, else one SCA step from the
    all-equal-phase feasible point."""
    phases = ao.init_phases
    if phases is None:
        phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, size=config.n_irs))
    rows = beam_rows(channels, phases, config)
    if ao.init_beam is not None:
        return phases, rows, ao.init_beam
    flat = Beamformer.from_phases(np.zeros(config.n_tx), config)
    return phases, rows, lc._sca_ascent(gram(rows, config), flat, config, 1, 0.0)[0]


def _next_map_tol(ao: AoConfig, j_new: float, j_prev: float) -> float:
    """Half-step tolerance of the map after one that took J from `j_prev`
    to `j_new`: a tenth of its relative gain, held within
    [sdp_tol, sdp_start_tol]."""
    gain = abs(j_new - j_prev) / max(abs(j_prev), 1e-300)
    return min(ao.sdp_start_tol, max(ao.sdp_tol, 0.1 * gain))


@_one_blas_thread
def run_ao(config: SystemConfig, ao: AoConfig, channels: ChannelSet,
           rng: np.random.Generator) -> AoTrace:
    """Run alternating optimization and return its trace.

    Deterministic given (config, ao, channels, rng state).  On SDP solver
    non-convergence the trace is truncated at the last completed half-step
    with `failure` describing the error.  Inputs that do not fit `config`
    raise ValueError (see `scenario.check_channels` and `_check_start`), as
    does a value that overflows the float range inside the run, at a
    recorded J or at an lc point before an sdp half-step reads it.  The
    inputs checked, the lc solves run with `validated=True`.
    """
    check_channels(config, channels)
    _check_start(config, ao)
    trace = AoTrace()
    phases, rows, beam = _initial_iterates(config, ao, channels, rng)
    w_err, v_err = beam.modulus_error(config), phases.modulus_error()
    j_prev = _record(trace, config, rows, beam, (w_err, v_err), 0, "init")
    solution_w = solution_v = None   # each sdp side's last solve, its next warm start
    relaxed_w = relaxed_v = None     # each sdp side's last bound; None on the lc route
    cycle = []   # the stacked states u of the current SqS3 cycle
    tol = ao.sdp_start_tol   # the map's half-step tolerance

    for outer in range(1, ao.max_outer_iters + 1):
        cycle.append(np.concatenate((beam.w / config.beam_amplitude, phases.v)))
        jump = None
        if len(cycle) == 3:   # two plain maps done: this map starts at the jump
            jump = lc.sqs3_jump(*cycle)
            cycle = cycle[2:] if jump is None else []
        start_beam, start_phases, start_rows, start_v_err = beam, phases, rows, v_err
        if jump is not None:
            start_beam = Beamformer.from_projection(config.beam_amplitude
                                                    * jump[:config.n_tx])
            start_phases = PhaseProfile.from_projection(jump[config.n_tx:])
            start_rows = beam_rows(channels, start_phases, config)
            start_v_err = start_phases.modulus_error()
        lc_scale = (tol / ao.sdp_tol) ** 2   # the lc stops: defaults times this
        try:
            big_h = gram(start_rows, config)
            w_beam = lc.sca_solve(big_h, start_beam, config,
                                  rel_tol=lc.SCA_REL_TOL * lc_scale, validated=True)
            if ao.algorithm == ALGORITHM_SDP:
                if not np.isfinite(w_beam.w).all():
                    raise ValueError("the lc beam is not finite: the run overflowed")
                w_beam, relaxed_w, solution_w = sdp.sdp_update_w(
                    big_h, config, tol=tol, incumbent=w_beam, warm=solution_w)
            w_beam_err = w_beam.modulus_error(config)
            j_w = _record(trace, config, start_rows, w_beam, (w_beam_err, start_v_err),
                          outer, "w", relaxed_w, solution_w)
            if jump is not None and not j_w >= j_prev:
                # Rejected: u2 stays, and its v record repeats as a flat pair.
                trace.steps[-1:] = [replace(trace.steps[-2], outer_iter=outer, stage=s)
                                    for s in ("w", "v")]
                trace.n_outer = outer
                continue
            beam, phases, rows = w_beam, start_phases, start_rows
            w_err, v_err = w_beam_err, start_v_err

            ops = build_operators(channels, None, beam, config)
            phases = lc.mm_solve(ops, phases, rel_tol=lc.MM_REL_TOL * lc_scale,
                                 validated=True)
            if ao.algorithm == ALGORITHM_SDP:
                if not np.isfinite(phases.v).all():
                    raise ValueError("the lc phases are not finite: the run overflowed")
                phases, relaxed_v, solution_v = sdp.sdp_update_v(
                    ops.big_f, config, tol=tol, incumbent=phases, warm=solution_v)
            rows, v_err = beam_rows(channels, phases, config), phases.modulus_error()
            j_new = _record(trace, config, rows, beam, (w_err, v_err), outer, "v",
                            relaxed_v, solution_v)
        except sdp.SdpNonConvergence as exc:
            trace.failure = str(exc)
            break

        trace.n_outer = outer
        if lc.stalled(j_new, j_prev, ao.rel_tol) and tol <= ao.sdp_tol:
            trace.converged = True
            break
        tol = _next_map_tol(ao, j_new, j_prev)
        j_prev = j_new

    trace.beam, trace.phases = beam, phases
    return trace


@_one_blas_thread
def run_rps(config: SystemConfig, channels: ChannelSet,
            rng: np.random.Generator, max_iters: int = 30,
            rel_tol: float = 1e-6) -> AoTrace:
    """Random-phase baseline (see the module docstring); `converged` is set
    when the stop test, not the cap of `max_iters` SCA maps, ended the loop."""
    check_loop(max_iters, rel_tol, "max_iters")
    check_channels(config, channels)
    phases = PhaseProfile(alpha=rng.uniform(-np.pi, np.pi, size=config.n_irs))
    flat = Beamformer.from_phases(np.zeros(config.n_tx), config)
    rows = beam_rows(channels, phases, config)
    beam, maps, converged = lc._sca_ascent(gram(rows, config), flat, config,
                                           max_iters, rel_tol)
    trace = AoTrace(beam=beam, phases=phases, converged=converged, n_outer=maps)
    _record(trace, config, rows, beam,
            (beam.modulus_error(config), phases.modulus_error()), maps, "w")
    return trace
