"""Diagonally constrained semidefinite programs and rank-one extraction.

Both alternating-optimization subproblems relax to the same template once
the rank constraint is dropped:

    maximise  Re tr(C X)   subject to  X_ii = b_i,  X >= 0 (Hermitian PSD)

with C Hermitian and b > 0.  `solve_diag_sdp(cost, diag_values, tol, warm)`
checks C, b and `warm` at entry and is a self-contained primal-dual
path-following interior-point method on the complex Hermitian cone (no
external solver), capped at `MAX_ITERS` iterations.  The dual is

    minimise  b^T z   subject to  S = Diag(z) - C >= 0,

and dual feasibility is maintained exactly throughout, so the duality gap
is <X, S> = b^T z - Re tr(C X) whenever the primal diagonal is feasible.

The search direction is the standard XZ (HKM) direction with a Mehrotra
predictor-corrector.  For diagonal constraints the Schur complement has
the closed form  M_ij = Re(X_ij * conj(Sinv_ij)), an elementwise product.
Each iteration factors X and S once: one Cholesky of each, whose inverted
factors give Sinv and the step lengths, plus one real n x n solve per
direction.  The predictor's step lengths only set the centring, so they
are never tested: each pass takes the last corrector's exact lengths (1 in
the first pass).  The corrector's exact test, one stacked eigenvalue call,
and its step of 0.98 of the way to the boundary keep X and S positive
definite.  An iteration forms 6 complex n x n products: Sinv, one per
direction, and three for the step test (two for dX, one for the diagonal
dS).  XS is never formed: it cancels from both directions,
(R - X Diag(dz)) Sinv with R = E - XS is E Sinv - X - X Diag(dz) Sinv,
and the traces behind the objective and the gaps are O(n^2) inner
products, tr(A B) = vdot(B, A) for Hermitian A, B.

Inner products on the complex Hermitian cone are <A, B> = Re tr(A B); no
real symmetric embedding is used, so there is no factor-2 bookkeeping to
track and Tr(C X) is preserved trivially.

A cold solve starts at X = Diag(b) and z = |C| 1 + `START_MARGIN` (row
sums of |C|), so S has least eigenvalue at least `START_MARGIN` by
Gershgorin.  Given `warm`, the solution of a nearby problem of the same
size (the previous outer iteration's solve of the same AO side), it starts
at X = (1 - `WARM_BLEND`) X_prev + `WARM_BLEND` Diag(b), pulled back from
the cone boundary where X_prev sits, and at z = z_prev shifted uniformly
until S again has least eigenvalue at least `START_MARGIN` (one eigvalsh);
the blend toward the cold point is the warm-start rule of Skajaa, Andersen
& Ye (Math. Prog. Comp. 2013; see also Yildirim & Wright, SIAM J. Optim.
2002).  Warm or cold, S is positive definite at every iterate, so b^T z
bounds Re tr(C X) from above at every feasible X.

`extract_beamformer` / `extract_phases` project the principal eigenvector
of a relaxed PSD solution, and `n_rand` Gaussian randomisations of it, onto
the feasible set with `objective.project`, the phase side after turning
each candidate by the projected conjugate of its last entry (no angles).
One helper scores both sides' candidates on the true objective and keeps
the first best, or an incumbent, returned as itself.  The half-steps draw
none: a randomised candidate never won (see README).

The AO half-steps `sdp_update_w` / `sdp_update_v` are given their side's
lc point x, from the lc half-step `ao.run_ao` runs on both routes, and test
its relative gap (bound - J) / |bound| against the map's `tol` at two kinds
of dual bound b^T z (`_certified`, one test on bound and J).  First `certify`,
one eigvalsh that also gives J:
z_i = Re(conj(x_i) (C x)_i) / b_i, shifted by max(0, -lambda_min(Diag(z) - C))
(the tightness certificate of synchronization-type SDPs; Bandeira, Boumal &
Singer, Math. Program. 2017).  If it fails, the solve's `stop` tests the
dual value of each iterate and stops at the first that passes.  Either z is
dual feasible, so its bound dominates every feasible J, an extraction's
too, and x within `tol` of it is the answer, with the bound and record as
the next warm start.  A solve that no iterate passes converges and
extracts, x the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .objective import Beamformer, PhaseProfile, hermitian_part, project
from .scenario import SystemConfig, check_finite, check_hermitian, complex_normal


MAX_ITERS = 100   # interior-point iteration cap of one solve
START_MARGIN = 0.1  # least eigenvalue of the starting dual slack, scaled units
# Weight of the cold start point Diag(b) in a warm start's X.  With the
# untested predictor, re-solving the 60 warm phase-side costs of 12 sdp runs
# (L=20 and 40) at tol 1e-4 took 5.97 iterations per solve cold, and warm
# 3.38, 3.62, 3.75 and 4.20 at 0.1, 0.3, 0.5 and 0.7 (6.27 dual warm alone);
# at tol 1e-2, 116 such costs took 4.61 cold and 1.51, 2.02, 2.36 and 3.00
# warm.  Over 100 AO runs (L=20 and 40, rho 0.9) at the AO's tolerances,
# 0.05, 0.1 and 0.2 took 31.0, 31.3 and 31.8 iterations and 6.58, 6.44 and
# 6.19 maps per run.
WARM_BLEND = 0.1


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Solver output: primal iterate plus convergence diagnostics."""

    x_opt: np.ndarray      # (n, n) Hermitian PSD with diag ~= b
    objective: float       # Re tr(C x_opt)
    duality_gap: float     # b^T z - objective at the final iterate
    iterations: int
    primal_residual: float  # max_i |X_ii - b_i| / (1 + max b)
    dual: np.ndarray       # (n,) final z, Diag(z) - C >= 0
    certified: bool = False  # x certified: by `certify`, or by a solve's `stop` at this z


class SdpNonConvergence(RuntimeError):
    """Raised when the interior-point loop exhausts its iteration cap.

    Carries the iterate the last pass started from (the last one whose gap
    and residual were measured) so callers can inspect residuals.
    """

    def __init__(self, message: str, solution: SdpSolution, rel_gap: float):
        super().__init__(message)
        self.solution = solution
        self.rel_gap = rel_gap


def _max_steps(inv_factors: np.ndarray, dx: np.ndarray,
               dz: np.ndarray) -> np.ndarray:
    """Largest (t_p, t_d) keeping X + t_p*dX and S + t_d*Diag(dz) PSD.

    `inv_factors` holds (L_X^{-1}, L_S^{-1}) for the Cholesky factors
    X = L_X L_X^H and S = L_S L_S^H; an entry is inf when its direction is
    PSD.  The dual direction is diagonal, so L_S^{-1} Diag(dz) is a column
    scaling and its test takes one product.
    """
    inv_x, inv_s = inv_factors
    w = np.empty(inv_factors.shape, dtype=np.complex128)
    np.matmul(inv_x @ dx, inv_x.conj().T, out=w[0])
    np.matmul(inv_s * dz, inv_s.conj().T, out=w[1])
    lam_min = np.linalg.eigvalsh(w)[:, 0]   # reads one triangle of each
    steps = np.full(lam_min.shape, np.inf)
    np.divide(-1.0, lam_min, out=steps, where=lam_min < 0.0)
    return steps


def _snapshot(c_scale: float, x: np.ndarray, z: np.ndarray, primal_obj: float,
              dual_obj: float, iterations: int, primal_res: float) -> SdpSolution:
    """Solution record of one iterate, in the unscaled units of the problem.

    x is exactly Hermitian (the start and every dX are symmetrised, and
    x + ap*dX keeps that), so a plain copy is the symmetrised iterate."""
    return SdpSolution(x_opt=x.copy(), objective=primal_obj * c_scale,
                       duality_gap=(dual_obj - primal_obj) * c_scale,
                       iterations=iterations, primal_residual=primal_res,
                       dual=z * c_scale)


def solve_diag_sdp(cost: np.ndarray, diag_values: np.ndarray, tol: float = 1e-7,
                   warm: SdpSolution | None = None,
                   stop: Callable[[float], object] | None = None) -> SdpSolution:
    """max Re tr(cost X) s.t. diag(X) = diag_values, X Hermitian PSD (see
    module docstring), for an (n, n) Hermitian `cost` and n finite positive
    `diag_values`.

    `warm`, the solution of a nearby problem of the same size, sets the
    starting point (see module docstring); without it the solve starts
    cold.  Success requires the relative duality gap and the relative
    diagonal feasibility error to both drop below `tol` within `MAX_ITERS`
    iterations, else SdpNonConvergence is raised.  `stop`, if given, sees
    the unscaled dual value b^T z of each pass's starting iterate after the
    first, before the gap test; a true return ends the solve with that
    iterate's record, flagged `certified`.
    Determinism: no random state is consumed, so repeated calls return
    identical iterates.
    """
    cost = np.asarray(cost, dtype=np.complex128)
    b = np.asarray(diag_values, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError(f"diag_values must be a nonempty 1-D vector, got shape {b.shape}")
    n = b.size
    check_hermitian(cost, "cost matrix", n)
    if not np.all(np.isfinite(b) & (b > 0.0)):
        raise ValueError("diagonal values must be finite and strictly positive")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and > 0")
    if warm is not None:
        check_finite("warm x_opt", warm.x_opt, (n, n))
        check_finite("warm dual", warm.dual, (n,))
    cost = hermitian_part(cost)
    c_scale = float(np.max(np.abs(cost)))
    if c_scale == 0.0:
        # every feasible point is optimal at objective 0, with dual z = 0
        return SdpSolution(x_opt=np.diag(b).astype(np.complex128), objective=0.0,
                           duality_gap=0.0, iterations=0, primal_residual=0.0,
                           dual=np.zeros(n))
    cost = cost / c_scale

    x = np.diag(b).astype(np.complex128)
    if warm is None:
        # Gershgorin margin keeps the initial dual slack S = Diag(z) - C
        # comfortably positive definite.
        z = np.sum(np.abs(cost), axis=1) + START_MARGIN
    else:
        x = hermitian_part((1.0 - WARM_BLEND) * warm.x_opt + WARM_BLEND * x)
        z = warm.dual / c_scale
        lam_min = float(np.linalg.eigvalsh(np.diag(z) - cost)[0])
        z = z + max(START_MARGIN - lam_min, 0.0)
    s = np.diag(z) - cost
    t_max = np.ones(2)   # the predictor's step lengths: the last corrector's

    for iteration in range(1, MAX_ITERS + 1):
        r_p = b - np.real(np.diag(x))
        primal_res = float(np.max(np.abs(r_p))) / (1.0 + float(np.max(b)))
        primal_obj = float(np.real(np.vdot(x, cost)))
        dual_obj = float(b @ z)
        gap = float(np.real(np.vdot(x, s)))
        rel_gap = abs(gap) / (1.0 + abs(primal_obj) + abs(dual_obj))
        # The iterate this pass starts from: returned on success, and carried
        # by SdpNonConvergence if the pass is the last or breaks down.
        start = (x, z, primal_obj, dual_obj, iteration - 1, primal_res)
        # the dual value as `_snapshot` forms it: objective + duality_gap
        if stop is not None and iteration > 1 and stop(
                primal_obj * c_scale + (dual_obj - primal_obj) * c_scale):
            return replace(_snapshot(c_scale, *start), certified=True)
        if rel_gap <= tol and primal_res <= tol:
            return _snapshot(c_scale, *start)

        try:
            # One Cholesky of X and of S per iteration; their inverted
            # factors give Sinv = L_S^{-H} L_S^{-1} and every step length.
            inv_factors = np.linalg.inv(np.linalg.cholesky(np.stack([x, s])))
            s_inv = hermitian_part(inv_factors[1].conj().T @ inv_factors[1])
            # Schur complement (symmetric: X and Sinv are exactly Hermitian).
            m_mat = np.real(x * s_inv.conj())
            m_mat.flat[::n + 1] += 1e-14 * float(np.max(np.abs(m_mat))) + 1e-300

            # Mehrotra predictor, R = -XS (right-hand side exactly -b); its
            # step lengths only set sigma and are never tested.
            dz_aff = np.linalg.solve(m_mat, -b)
            dx_aff = hermitian_part(-(x * dz_aff) @ s_inv - x)
            ap_aff, ad_aff = np.minimum(1.0, t_max)
            gap_aff = gap + ap_aff * float(np.real(np.vdot(dx_aff, s))) + ad_aff * float(
                (np.real(np.diag(x)) + ap_aff * np.real(np.diag(dx_aff))) @ dz_aff)
            sigma = min(0.99, max((max(gap_aff, 0.0) / gap) ** 3, 1e-8))

            # Corrector with second-order term, R = e_mat - XS; dS = Diag(dz),
            # so X dS is a column scaling, and XS cancels:
            # diag(R Sinv) + r_p = diag(e_mat Sinv) - b.
            e_mat = -dx_aff * dz_aff
            e_mat.flat[::n + 1] += sigma * (gap / n)
            dz = np.linalg.solve(m_mat, np.real(np.sum(e_mat * s_inv.T, axis=1)) - b)
            dx = hermitian_part((e_mat - x * dz) @ s_inv - x)
            t_max = _max_steps(inv_factors, dx, dz)
            ap, ad = np.minimum(1.0, 0.98 * t_max)
            x = x + ap * dx
            z = z + ad * dz
            s = np.diag(z) - cost
        except np.linalg.LinAlgError:
            # Iterates pinned to the cone boundary by an unreachable
            # tolerance stop factorizing cleanly; report the stall rather
            # than leaking the factorization error.
            raise SdpNonConvergence(
                f"numerical breakdown at iteration {iteration} "
                f"(rel_gap={rel_gap:.3e}, primal_res={primal_res:.3e})",
                solution=_snapshot(c_scale, *start), rel_gap=rel_gap) from None

    raise SdpNonConvergence(
        f"no convergence in {MAX_ITERS} iterations "
        f"(rel_gap={rel_gap:.3e}, primal_res={primal_res:.3e})",
        solution=_snapshot(c_scale, *start), rel_gap=rel_gap)


def _candidates(x_opt: np.ndarray, n_rand: int,
                rng: np.random.Generator | None) -> np.ndarray:
    """Principal eigenvector plus `n_rand` Gaussian randomisations, one per row.

    One eigendecomposition gives both: the draws use the PSD factor
    A = V sqrt(max(Lambda, 0)), A A^H ~= x_opt, whose last column is the
    scaled principal eigenvector.
    """
    x_opt = np.asarray(x_opt, dtype=np.complex128)
    lam, vec = np.linalg.eigh(hermitian_part(x_opt))
    factor = vec * np.sqrt(np.clip(lam, 0.0, None))[None, :]
    principal = factor[None, :, -1]
    if n_rand == 0:
        return principal
    draws = complex_normal(rng, (n_rand, x_opt.shape[0])) @ factor.conj().T
    return np.vstack([principal, draws])


def _first_best(rows: np.ndarray, mat: np.ndarray, wrap, incumbent,
                incumbent_row: np.ndarray | None):
    """wrap(x) for the first row x of `rows` that maximises x^H mat x.  The
    incumbent's row, when given, is scored last, so the incumbent wins only
    if strictly better, and then as itself, not rebuilt."""
    scored = rows if incumbent is None else np.vstack([rows, incumbent_row])
    best = int(np.argmax(np.real(((scored.conj() @ mat) * scored).sum(1))))
    return incumbent if best == len(rows) else wrap(rows[best])


def extract_beamformer(x_opt: np.ndarray, big_h: np.ndarray,
                       config: SystemConfig, n_rand: int,
                       rng: np.random.Generator | None = None,
                       incumbent: Beamformer | None = None) -> Beamformer:
    """Feasible constant-modulus beamformer from a relaxed lifted solution.

    Each candidate is projected entrywise onto the per-antenna modulus
    (`objective.project`; zero entries get phase 0) and scored on the true
    quadratic objective w^H big_h w; the best candidate wins, first on
    ties.  An incumbent iterate, when given, competes as an extra candidate
    and wins as itself, not rebuilt, so the extraction never returns
    anything worse than it.
    """
    amp = config.beam_amplitude
    w_rows = project(_candidates(x_opt, n_rand, rng), amp, amp)
    return _first_best(w_rows, big_h, Beamformer.from_projection, incumbent,
                       None if incumbent is None else incumbent.w)


def extract_phases(x_opt: np.ndarray, big_f: np.ndarray, n_rand: int,
                   rng: np.random.Generator | None = None,
                   incumbent: PhaseProfile | None = None) -> PhaseProfile:
    """Feasible unit-modulus phase profile from a relaxed lifted solution.

    The lifted variable is x = [v; 1] up to a global phase, so each
    candidate's head is turned by a unit factor and projected onto unit
    modulus (`objective.project`; zero entries get phase 0).  The factor
    is the projected conjugate of the last entry, or, where that entry is
    numerically zero and the phase is free, project(v0^H f12) for the
    projected head v0, which maximises the linear term 2 Re(v^H f12) of
    the score.  The candidates are scored on x^H big_f x, J less the
    v-independent offset, and the first best or a strictly better
    incumbent wins, as in `extract_beamformer`.
    """
    big_f = np.asarray(big_f, dtype=np.complex128)
    cands = _candidates(x_opt, n_rand, rng)
    head, tail = cands[:, :-1], cands[:, -1]
    flat = np.abs(tail) < 1e-9
    turn = project(np.where(flat, 1.0, tail.conj()), 1.0)
    if np.any(flat):
        # NumPy's complex division in project(c) forms 1/|c|, which
        # overflows for a subnormal c; scaling |c| < 1 by 2**1000 is exact.
        c = project(head[flat], 1.0).conj() @ big_f[:-1, -1]
        turn[flat] = project(c * np.where(np.abs(c) < 1.0, 2.0 ** 1000, 1.0), 1.0)
    v_rows = project(head * turn[:, None], 1.0)
    aug = np.hstack([v_rows, np.ones((len(v_rows), 1))])
    lifted = None if incumbent is None else np.append(incumbent.v, 1.0)
    return _first_best(aug, big_f, lambda x: PhaseProfile.from_projection(x[:-1]),
                       incumbent, lifted)


def certify(cost: np.ndarray, diag_values: np.ndarray, x: np.ndarray) -> SdpSolution:
    """Dual certificate of a feasible x, |x_i|^2 = b_i, for the relaxation
    max Re tr(C X) s.t. X_ii = b_i, X >= 0; unchecked.

    z_i = Re(conj(x_i) (C x)_i) / b_i gives b^T z = x^H C x, and at an lc
    fixed point, where (C x)_i is a nonnegative multiple of x_i, also
    (Diag(z) - C) x = 0.  Shifting z by shift = max(0, -lambda_min) of
    Diag(z) - C (one eigvalsh) makes it dual feasible, so
    x^H C x + shift * sum(b) bounds the relaxation, and xx^H is its
    optimum when the shift is 0.  The record holds X = xx^H, the shifted
    dual, the value x^H C x, the gap shift * sum(b), x's true diagonal
    residual and 0 iterations: it is the warm start of the next solve.
    """
    cx = cost @ x
    z = np.real(x.conj() * cx) / diag_values
    shift = max(0.0, -float(np.linalg.eigvalsh(np.diag(z) - cost)[0]))
    residual = np.max(np.abs(np.abs(x) ** 2 - diag_values)) / (1.0 + np.max(diag_values))
    return SdpSolution(x_opt=np.outer(x, x.conj()), objective=float(np.vdot(x, cx).real),
                       duality_gap=shift * float(np.sum(diag_values)), iterations=0,
                       primal_residual=float(residual), dual=z + shift, certified=True)


def _certified(bound: float, j_val: float, tol: float) -> bool:
    """Whether the relative gap (bound - J) / |bound| of a point of value J
    under a dual bound is at most `tol`; both certificates take this test."""
    return bound - j_val <= tol * abs(bound)


def _half_step(cost: np.ndarray, diag_values: np.ndarray, x: np.ndarray, incumbent,
               tol: float, warm: SdpSolution | None, extract, offset: float = 0.0):
    """(point, bound, record) of a half-step given its lc point `incumbent`,
    lifted to x, of value J from `certify`'s record: the incumbent if
    `_certified` passes at the certificate's bound or at the dual value of
    an iterate of the solve from `warm`, which then stops, else the solve's
    extract(X), the incumbent competing; both bounds add `offset`."""
    record = certify(cost, diag_values, x)
    j_val = record.objective + offset
    bound = record.objective + record.duality_gap + offset
    if _certified(bound, j_val, tol):
        return incumbent, bound, record
    solution = solve_diag_sdp(cost, diag_values, tol=tol, warm=warm, stop=lambda dual: (
        _certified(dual + offset, j_val, tol)))
    point = incumbent if solution.certified else extract(solution.x_opt)
    return point, solution.objective + solution.duality_gap + offset, solution


def sdp_update_w(big_h: np.ndarray, config: SystemConfig, tol: float,
                 incumbent: Beamformer,
                 warm: SdpSolution | None = None) -> tuple[Beamformer, float, SdpSolution]:
    """Beamformer half-step at fixed phases for the relaxation of
    max w^H big_h w, given the lc point `incumbent` (`_half_step`): the
    feasible beamformer, a dual bound on J at these phases (rigorous up to
    rounding at any `tol`) and the next beam half-step's `warm` record."""
    return _half_step(big_h, np.full(config.n_tx, config.per_antenna_power), incumbent.w,
                      incumbent, tol, warm, lambda x_opt: extract_beamformer(
                          x_opt, big_h, config, n_rand=0, incumbent=incumbent))


def sdp_update_v(big_f: np.ndarray, config: SystemConfig, tol: float,
                 incumbent: PhaseProfile,
                 warm: SdpSolution | None = None) -> tuple[PhaseProfile, float, SdpSolution]:
    """Phase half-step at fixed beamformer for the relaxation of
    max x^H big_f x over x = [v; 1], returning as `sdp_update_w` does; the
    certificates are those of x = [incumbent.v; 1].  The corner of big_f,
    the v-independent offset, is zeroed in a copy for the certificates, the
    relaxation and the extraction (kept, it would outweigh every other
    entry and rescale the interior-point method) and added back to the
    bound.
    """
    cost = np.array(big_f, dtype=np.complex128)
    offset = float(cost[-1, -1].real)
    cost[-1, -1] = 0.0
    return _half_step(cost, np.ones(config.n_irs + 1), np.append(incumbent.v, 1.0),
                      incumbent, tol, warm, lambda x_opt: extract_phases(
                          x_opt, cost, n_rand=0, incumbent=incumbent), offset)
