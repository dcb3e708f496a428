"""Low-complexity updates: the SCA beamformer step and the MM phase step.

Both half-steps maximise a PSD quadratic form plus a linear term over a
constant-modulus vector x with one step, x <- amp * y / |y| entrywise with
y = M x + b (`objective.project`), where an entry with y = 0 keeps x's
entry (any phase is optimal there; keeping the old one makes the step
deterministic).  The step maximises the tangent plane of the convex
objective at the current x, a minorant, so each step can only raise the
objective.

* Beamformer side: J(w) = w^H H w, so M = H, b = 0, amp = sqrt(p0/N).
* Phase side: J = v^H F11 v + 2 Re(v^H f12) + offset with F11, f12 and
  offset the blocks of `big_f`, so M = F11, b = f12, amp = 1.  MM descends
  on g = offset - J, which is concave in v, so its tangent plane at v0,
  g(v0) - 2 Re((v - v0)^H (F11 v0 + f12)), majorises it at any L (Sun,
  Babu & Palomar, IEEE TSP 2017) and no eigenvalue shift is needed.

An MM map costs one F11 product: `MmProblem` carries y at its iterate, and
the product that gives y at the next iterate also scores it.  An SCA map
costs two H products, one for its step and one for its score.  `mm_solve`,
`sca_solve` and its unchecked core `_sca_ascent` (which `ao` calls for the
initial beam and `run_rps`) iterate their step in one loop,
`_sqs3_ascent`: SQUAREM (SqS3; Varadhan & Roland, Scand. J. Stat. 2008,
applied to MM as in Sun, Babu & Palomar) with a safeguard that keeps the
ascent monotone.  Warm-started MM solves at L=40 reach the stop test in
about a third of the maps of plain iteration.  Its jump is `sqs3_jump`,
which `ao.run_ao` also applies to the outer map.  Both algorithms of
`ao.run_ao` run `sca_solve` and `mm_solve` as their half-steps; `sdp`
calls nothing here.

Each solve checks its inputs once, at entry, with the helpers of
`scenario`: its loop parameters, then `sca_solve` the beam and the N x N
`big_h`, `mm_solve` the (L+1) x (L+1) `big_f` and the L phases.  The
plain record `MmProblem` and the per-step kernels check nothing.  Every
solve loop, here and in `ao`, stops on the test `stalled`.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .objective import Beamformer, DerivedOperators, PhaseProfile, project
from .scenario import SystemConfig, check_finite, check_hermitian, check_loop

SCA_REL_TOL = 1e-9   # `sca_solve`'s default stop tolerance
MM_REL_TOL = 1e-6    # `mm_solve`'s default stop tolerance
MAX_MAPS = 50        # both solves' default map cap

# An ascent whose start scores below this in magnitude rescales its operators
# (`_normalised`) before it steps.
_TINY_SCORE = 2.0 ** -600


def _normalised(*ops: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operators times the power of two that brings their largest entry
    into [0.5, 1).  The steps and the stop test are scale-free and the
    scaling is exact, but near the end of the float range `project` would
    take the reciprocal of a subnormal |y| and overflow to inf."""
    top = max(float(np.max(np.abs(op))) for op in ops)
    if top == 0.0:
        return ops
    k = -math.frexp(top)[1]   # up to 1074: 2**k in two factors, each finite
    low, high = math.ldexp(1.0, k // 2), math.ldexp(1.0, k - k // 2)
    return tuple(op * low * high for op in ops)


def stalled(new: float, prev: float, rel_tol: float) -> bool:
    """The stop test of every solve loop: |new - prev| < rel_tol * |prev|."""
    return abs(new - prev) < rel_tol * max(abs(prev), 1e-300)


def sqs3_jump(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray,
              amp: float = 1.0) -> np.ndarray | None:
    """The SqS3 jump from plain maps x0 -> x1 -> x2, projected onto modulus
    `amp`: `project(y, x2, amp)` with y = x0 - 2 a r + a^2 d, r = x1 - x0,
    d = x2 - 2 x1 + x0 and a = -max(|r| / |d|, 1); None when d = 0."""
    r, d = x1 - x0, x2 - 2.0 * x1 + x0
    # np.linalg.norm's arithmetic, without its call overhead.
    d_norm = math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag))
    if not d_norm > 0.0:
        return None
    a = -max(math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag)) / d_norm, 1.0)
    return project(x0 - 2.0 * a * r + a * a * d, x2, amp)


def _sqs3_ascent(step: Callable, lift: Callable, start: tuple, max_iters: int,
                 rel_tol: float, amp: float = 1.0) -> tuple[object, int, bool]:
    """Iterate `step` in safeguarded SqS3 cycles; return the last iterate,
    the number of maps and whether the stop test, not the cap, ended them.

    `start` and each `step(iterate)` are triples (iterate, vector, score),
    the vectors of modulus `amp`.  A cycle takes two plain maps
    x0 -> x1 -> x2, then one map from `lift(sqs3_jump(x0, x1, x2, amp))`,
    kept only if it scores no lower than x2, so the score never falls.  The
    loop stops when the score stalls after a cycle's first map.
    `max_iters` counts every map: a cycle the cap would cut short skips the
    jump, so caps of 1 and 2 give plain steps."""
    (out, x, score_start), maps = start, 0
    while maps < max_iters:
        x0 = x
        out, x, score = step(out)
        maps += 1
        stop = stalled(score, score_start, rel_tol)
        if stop or maps == max_iters:
            return out, maps, stop
        x1 = x
        out, x, score = step(out)
        maps += 1
        jump = sqs3_jump(x0, x1, x, amp) if maps < max_iters else None
        if jump is not None:
            ext = step(lift(jump))
            maps += 1
            if ext[2] >= score:
                out, x, score = ext
        score_start = score
    return out, maps, False


def sca_update_w(big_h: np.ndarray, w_prev: Beamformer,
                 config: SystemConfig) -> Beamformer:
    """One SCA beamformer step, w = sqrt(p0/N) y / |y| with y = H w_prev; the
    unchecked per-step kernel (`sca_solve` checks `big_h` once per solve)."""
    y = np.asarray(big_h) @ w_prev.w
    return Beamformer.from_projection(project(y, w_prev.w, config.beam_amplitude))


def _sca_ascent(big_h: np.ndarray, beam: Beamformer, config: SystemConfig,
                max_iters: int, rel_tol: float) -> tuple[Beamformer, int, bool]:
    """Unchecked `sca_solve`, returning `_sqs3_ascent`'s beam, maps and flag."""
    def step(w_prev: Beamformer) -> tuple[Beamformer, np.ndarray, float]:
        out = sca_update_w(big_h, w_prev, config)
        return out, out.w, float(np.vdot(out.w, big_h @ out.w).real)

    score = float(np.vdot(beam.w, big_h @ beam.w).real)
    if abs(score) < _TINY_SCORE:
        big_h, = _normalised(big_h)
        score = float(np.vdot(beam.w, big_h @ beam.w).real)
    start = (beam, beam.w, score)
    return _sqs3_ascent(step, Beamformer.from_projection, start, max_iters,
                        rel_tol, config.beam_amplitude)


def sca_solve(big_h: np.ndarray, beam: Beamformer, config: SystemConfig,
              max_iters: int = MAX_MAPS, rel_tol: float = SCA_REL_TOL) -> Beamformer:
    """Iterate SCA steps at fixed phases (`_sca_ascent`) until w^H H w stalls."""
    check_loop(max_iters, rel_tol, "max_iters")
    check_finite("beam", beam.w, (config.n_tx,))
    big_h = np.asarray(big_h)
    check_hermitian(big_h, "big_h", config.n_tx)
    return _sca_ascent(big_h, beam, config, max_iters, rel_tol)[0]


class MmProblem(NamedTuple):
    """The phase objective's operators, the current iterate and the MM
    step's y there; unchecked (`mm_solve` checks its inputs once)."""

    f11: np.ndarray        # (L, L) PSD quadratic part
    f12: np.ndarray        # (L,) linear part
    v_prev: np.ndarray     # (L,) current unit-modulus iterate
    direction: np.ndarray  # (L,) F11 v_prev + f12

    @classmethod
    def at(cls, f11: np.ndarray, f12: np.ndarray, v: np.ndarray) -> "MmProblem":
        """The problem at iterate v, with its one F11 product."""
        return cls(f11, f12, v, f11 @ v + f12)

    @classmethod
    def from_operators(cls, ops: DerivedOperators,
                       phases: PhaseProfile) -> "MmProblem":
        l_dim = phases.v.size   # F11 and f12 are blocks of big_f
        return cls.at(ops.big_f[:l_dim, :l_dim], ops.big_f[:l_dim, l_dim], phases.v)


def mm_objective(problem: MmProblem, v: np.ndarray) -> float:
    """g(v) = -(v^H F11 v + 2 Re(v^H f12)), which equals offset - J, so MM
    descent on g is ascent on the composite objective."""
    quad = float(np.vdot(v, problem.f11 @ v).real)
    lin = float(np.vdot(v, problem.f12).real)
    return -(quad + 2.0 * lin)


def mm_update_v(problem: MmProblem) -> PhaseProfile:
    """One MM phase step, v = y / |y| with y = F11 v_prev + f12."""
    return PhaseProfile.from_projection(project(problem.direction, problem.v_prev))


def mm_solve(ops: DerivedOperators, phases: PhaseProfile,
             max_iters: int = MAX_MAPS, rel_tol: float = MM_REL_TOL) -> PhaseProfile:
    """Iterate MM steps at fixed beamformer in `_sqs3_ascent` until g stalls.

    Its iterates are problems: the product that anchors the problem at a
    new profile gives both its score, -g = Re(v^H (y + f12)), and the next
    step's y."""
    check_loop(max_iters, rel_tol, "max_iters")
    l_dim = phases.v.size
    check_hermitian(ops.big_f, "big_f", l_dim + 1)
    check_finite("phases", phases.v, (l_dim,))
    problem = MmProblem.from_operators(ops, phases)
    f11, f12 = problem.f11, problem.f12

    def score(at: MmProblem) -> float:
        return float(np.vdot(at.v_prev, at.direction + f12).real)

    def lift(v: np.ndarray) -> MmProblem:
        return MmProblem.at(f11, f12, v)

    def step(prev: MmProblem) -> tuple[MmProblem, np.ndarray, float]:
        anchored = MmProblem.at(f11, f12, mm_update_v(prev).v)
        return anchored, anchored.v_prev, score(anchored)

    start_score = score(problem)
    if abs(start_score) < _TINY_SCORE:
        f11, f12 = _normalised(f11, f12)
        problem = lift(phases.v)
        start_score = score(problem)
    start = (problem, phases.v, start_score)
    final = _sqs3_ascent(step, lift, start, max_iters, rel_tol)[0]
    return PhaseProfile.from_projection(final.v_prev)
