"""Low-complexity updates: the SCA beamformer step and the MM phase step.

Both half-steps maximise a PSD quadratic form plus a linear term over a
constant-modulus vector x with one step, x <- amp * exp(j * arg(M x + b)),
where an entry with M x + b = 0 keeps its phase (any phase is optimal
there; keeping the old one makes the step deterministic).  The step
maximises the tangent plane of the convex objective at the current x, a
minorant, so each step can only raise the objective.

* Beamformer side: J(w) = w^H H w, so M = H, b = 0, amp = sqrt(p0/N).
* Phase side: J = v^H F11 v + 2 Re(v^H f12) + offset with F11, f12 and
  offset the blocks of `big_f`, so M = F11, b = f12, amp = 1.  MM descends
  on g = offset - J, which is concave in v, so its tangent plane at v0,
  g(v0) - 2 Re((v - v0)^H (F11 v0 + f12)), majorises it at any L (Sun,
  Babu & Palomar, IEEE TSP 2017) and no eigenvalue shift is needed.

Each step costs one matrix-vector product.  `sca_solve` iterates the beam
step plainly.  `mm_solve` wraps the phase step in SQUAREM (SqS3; Varadhan
& Roland, Scand. J. Stat. 2008, applied to MM as in Sun, Babu & Palomar):
a cycle of two plain maps, a jump along their squared extrapolation
projected back onto the unit circle and one more map from there, kept
only if it lowers g no less than the two plain maps did.  That keeps the
descent monotone; warm-started solves at L=40 reach the stop test in about
a third of the maps of plain iteration.  `max_iters` caps the number of
maps, extrapolated ones included.  The jump itself is `sqs3_jump`, which
`ao.run_ao` also applies to the outer lc map.

Each solve checks its inputs once, at entry, with the helpers of
`scenario`: its loop parameters, then `sca_solve` the beam and the N x N
`big_h`, `mm_solve` the (L+1) x (L+1) `big_f` and the L phases.  The
plain record `MmProblem` and the per-step kernels check nothing.  Every
solve loop, here and in `ao`, stops on the test `stalled`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .objective import Beamformer, DerivedOperators, PhaseProfile
from .scenario import SystemConfig, check_finite, check_hermitian, check_loop


def stalled(new: float, prev: float, rel_tol: float) -> bool:
    """The stop test of every solve loop: |new - prev| < rel_tol * |prev|."""
    return abs(new - prev) < rel_tol * max(abs(prev), 1e-300)


def sqs3_jump(x0: np.ndarray, x1: np.ndarray,
              x2: np.ndarray) -> np.ndarray | None:
    """Phases of the SqS3 jump from plain maps x0 -> x1 -> x2, projecting it
    onto the unit circle: arg(x0 - 2 a r + a^2 d) entrywise, with r = x1 - x0,
    d = x2 - 2 x1 + x0 and a = -max(|r| / |d|, 1); None when d = 0."""
    r, d = x1 - x0, x2 - 2.0 * x1 + x0
    d_norm = np.linalg.norm(d)
    if not d_norm > 0.0:
        return None
    a = -max(np.linalg.norm(r) / d_norm, 1.0)
    return np.angle(x0 - 2.0 * a * r + a * a * d)


def _ascent_phases(m_mat: np.ndarray, x: np.ndarray,
                   b: np.ndarray | None = None) -> np.ndarray:
    """Phases of the ascent step: arg(M x + b) entrywise, with arg(x)
    wherever M x + b is exactly zero."""
    y = m_mat @ x if b is None else m_mat @ x + b
    phase = np.arctan2(y.imag, y.real)
    if np.count_nonzero(y) < y.size:
        phase = np.where(y != 0.0, phase, np.angle(x))
    return phase


def sca_update_w(big_h: np.ndarray, w_prev: Beamformer,
                 config: SystemConfig) -> Beamformer:
    """One SCA beamformer step, w = sqrt(p0/N) exp(j arg(H w_prev)); the
    unchecked per-step kernel (`sca_solve` checks `big_h` once per solve)."""
    return Beamformer.from_phases(_ascent_phases(np.asarray(big_h), w_prev.w),
                                  config)


def sca_solve(big_h: np.ndarray, beam: Beamformer, config: SystemConfig,
              max_iters: int = 50, rel_tol: float = 1e-9) -> Beamformer:
    """Iterate SCA steps at fixed phases until w^H H w stalls."""
    check_loop(max_iters, rel_tol, "max_iters")
    check_finite("beam", beam.w, (config.n_tx,))
    big_h = np.asarray(big_h)
    check_hermitian(big_h, "big_h", config.n_tx)
    out = beam
    q_prev = float(np.vdot(out.w, big_h @ out.w).real)
    for _ in range(max_iters):
        out = sca_update_w(big_h, out, config)
        q = float(np.vdot(out.w, big_h @ out.w).real)
        if stalled(q, q_prev, rel_tol):
            break
        q_prev = q
    return out


class MmProblem(NamedTuple):
    """The phase objective's operators and the current iterate; unchecked
    (`mm_solve` checks its inputs once)."""

    f11: np.ndarray     # (L, L) PSD quadratic part
    f12: np.ndarray     # (L,) linear part
    v_prev: np.ndarray  # (L,) current unit-modulus iterate

    @classmethod
    def from_operators(cls, ops: DerivedOperators,
                       phases: PhaseProfile) -> "MmProblem":
        l_dim = phases.v.size   # F11 and f12 are blocks of big_f
        return cls(ops.big_f[:l_dim, :l_dim], ops.big_f[:l_dim, l_dim], phases.v)


def mm_objective(problem: MmProblem, v: np.ndarray) -> float:
    """g(v) = -(v^H F11 v + 2 Re(v^H f12)), which equals offset - J, so MM
    descent on g is ascent on the composite objective."""
    quad = float(np.vdot(v, problem.f11 @ v).real)
    lin = float(np.vdot(v, problem.f12).real)
    return -(quad + 2.0 * lin)


def mm_update_v(problem: MmProblem) -> PhaseProfile:
    """One MM phase step, v = exp(j arg(F11 v_prev + f12))."""
    return PhaseProfile._trusted(_ascent_phases(problem.f11, problem.v_prev, problem.f12))


def mm_solve(ops: DerivedOperators, phases: PhaseProfile,
             max_iters: int = 50, rel_tol: float = 1e-6) -> PhaseProfile:
    """Run SQUAREM-accelerated MM steps at fixed beamformer until g stalls.

    One cycle from v0 takes two plain maps, v1 = F(v0) and v2 = F(v1), with
    F one `mm_update_v` call.  It then jumps to `sqs3_jump(v0, v1, v2)`
    and maps the jump once more.
    The safeguard keeps the result only if its g is no higher than g(v2),
    so g never rises and the cycle does at least as well as two plain
    steps.  An entry with a zero gradient has r = d = 0 and keeps its
    phase.  The loop stops when g stalls after the first map of a cycle
    (the rest of a cycle only lowers g further).  `max_iters` caps the
    number of maps: a cycle that the cap would cut short skips the
    extrapolation, so a cap of 1 or 2 gives exactly 1 or 2 plain steps.
    """
    check_loop(max_iters, rel_tol, "max_iters")
    l_dim = phases.v.size
    check_hermitian(ops.big_f, "big_f", l_dim + 1)
    check_finite("phases", phases.v, (l_dim,))
    problem = MmProblem.from_operators(ops, phases)

    def step(v: np.ndarray) -> tuple[PhaseProfile, float]:
        anchored = MmProblem(problem.f11, problem.f12, v)
        out = mm_update_v(anchored)
        return out, mm_objective(anchored, out.v)

    out, g_start = phases, mm_objective(problem, phases.v)
    maps = 0
    while maps < max_iters:
        v0 = out.v
        out, g = step(v0)
        maps += 1
        if maps == max_iters or stalled(g, g_start, rel_tol):
            break
        v1 = out.v
        out, g = step(v1)
        maps += 1
        jump = sqs3_jump(v0, v1, out.v) if maps < max_iters else None
        if jump is not None:
            ext, g_ext = step(PhaseProfile._trusted(jump).v)
            maps += 1
            if g_ext <= g:
                out, g = ext, g_ext
        g_start = g
    return out
