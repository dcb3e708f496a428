"""Low-complexity updates: closed-form SCA beamformer step and MM phase step.

Both subproblem solvers cost one matrix-vector product per step.  Their
inputs are checked once per solve: `mm_solve` validates one `MmProblem`
and then only re-anchors it at each new iterate, and `sca_solve` converts
and checks its matrix once before the loop.  The per-step kernels
`mm_update_v` and `sca_update_w` check nothing.

Beamformer side.  J(w) = w^H H w with H PSD is minorised at w_prev by its
tangent 2 Re(w^H H w_prev) - w_prev^H H w_prev; over the per-antenna
constant-modulus set the minorant is maximised entrywise, giving
w = sqrt(p0/N) * exp(j * arg(H w_prev)).  Each step can only raise J.

Phase side.  Maximising the phase objective is written as minimising

    g(v) = v D v^H - 2 Re(c^H v),   D = -F11 (negative semidefinite),
                                    c = conj(f12),

over unit-modulus v, where v is a row vector so that v D v^H means
sum_{l,k} v_l D_lk conj(v_k).  The quadratic is majorised by the
largest-eigenvalue surrogate with T = lambda_max(D) I, which collapses to
a linear function whose unit-modulus minimiser is

    v_l = exp(j * arg(gamma_l)),
    gamma = conj((lambda_max(D) I - D) conj(v_prev) + conj(c)).

(The conjugations implement the row-vector convention; for the Hermitian D
this is the usual (lambda_max(D) I - D^T) v_prev + c.)  Each step can only
lower g, i.e. raise the composite objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import (Beamformer, DerivedOperators, PhaseProfile,
                        check_hermitian, hermitian_part)
from .scenario import SystemConfig


def lambda_max(mat: np.ndarray) -> float:
    """Largest (most positive) eigenvalue of a Hermitian matrix.

    A dense eigendecomposition serves every size: the matrices built here
    are negative semidefinite with a low-rank nonzero part, so the top
    eigenvalue sits in a cluster that power iteration separates extremely
    slowly, and the surfaces modelled are small.
    """
    mat = np.asarray(mat)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix must be square")
    if check_hermitian(mat, "matrix") == 0.0:
        return 0.0
    return float(np.linalg.eigvalsh(mat)[-1])


def _arg_or_keep(y: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """arg(y) entrywise, with arg(prev) wherever y is exactly zero."""
    phase = np.arctan2(y.imag, y.real)
    if not y.all():
        phase = np.where(y != 0.0, phase, np.angle(prev))
    return phase


def sca_update_w(big_h: np.ndarray, w_prev: Beamformer,
                 config: SystemConfig) -> Beamformer:
    """One closed-form SCA beamformer step (see module docstring).

    The unchecked per-step kernel: `sca_solve` checks `big_h` once per solve.
    Entries where (H w_prev)_n = 0 keep their previous phase: any phase is
    optimal for the minorant there and reusing the old one keeps the step
    deterministic.
    """
    y = np.asarray(big_h) @ w_prev.w
    return Beamformer.from_phases(_arg_or_keep(y, w_prev.w), config)


def sca_solve(big_h: np.ndarray, beam: Beamformer, config: SystemConfig,
              max_iters: int = 50, rel_tol: float = 1e-9) -> Beamformer:
    """Iterate SCA steps at fixed phases until w^H H w stagnates.

    Every step is nondecreasing in the quadratic form, so the loop solves
    the beam subproblem to a (numerical) fixed point rather than taking a
    single tangent step.
    """
    big_h = np.asarray(big_h)
    if not np.isfinite(big_h).all():
        raise ValueError("big_h must be finite")
    out = beam
    q_prev = float(np.real(np.vdot(out.w, big_h @ out.w)))
    for _ in range(max_iters):
        out = sca_update_w(big_h, out, config)
        q = float(np.real(np.vdot(out.w, big_h @ out.w)))
        if abs(q - q_prev) < rel_tol * max(abs(q), 1e-300):
            break
        q_prev = q
    return out


@dataclass(frozen=True)
class MmProblem:
    """Unit-modulus quadratic minimisation data (see module docstring)."""

    d_mat: np.ndarray   # (L, L) Hermitian, NSD for problems built from F11
    c_vec: np.ndarray   # (L,) linear term, conj(f12) for built problems
    v_prev: np.ndarray  # (L,) current unit-modulus iterate

    def __post_init__(self) -> None:
        d_mat = np.asarray(self.d_mat, dtype=np.complex128)
        c_vec = np.asarray(self.c_vec, dtype=np.complex128)
        v_prev = np.asarray(self.v_prev, dtype=np.complex128)
        l_dim = c_vec.size
        if d_mat.shape != (l_dim, l_dim) or v_prev.shape != (l_dim,):
            raise ValueError("inconsistent MM problem dimensions")
        check_hermitian(d_mat, "d_mat")
        for name, vec in (("c_vec", c_vec), ("v_prev", v_prev)):
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "d_mat", hermitian_part(d_mat))
        object.__setattr__(self, "c_vec", c_vec)
        object.__setattr__(self, "v_prev", v_prev)

    @classmethod
    def from_operators(cls, ops: DerivedOperators,
                       phases: PhaseProfile) -> "MmProblem":
        return cls(d_mat=-ops.f11, c_vec=ops.f12.conj(), v_prev=phases.v)

    def _anchored_at(self, v_prev: np.ndarray) -> "MmProblem":
        """The same validated problem at a new iterate of the same shape,
        without re-running the checks (d_mat is already exactly Hermitian,
        so re-symmetrising it would return the same bits)."""
        moved = object.__new__(MmProblem)
        moved.__dict__.update(self.__dict__, v_prev=v_prev)
        return moved


def mm_objective(problem: MmProblem, v: np.ndarray) -> float:
    """g(v) = v D v^H - 2 Re(c^H v) in the row-vector convention.

    For problems built from operators this equals offset - J, so MM descent
    on g is ascent on the composite objective.
    """
    quad = float(np.real(v @ (problem.d_mat @ v.conj())))
    lin = float(np.real(np.vdot(problem.c_vec, v)))
    return quad - 2.0 * lin


def mm_surrogate(problem: MmProblem, v: np.ndarray,
                 lam: float | None = None) -> float:
    """Majorising surrogate of g anchored at v_prev, evaluated at v.

    Equals g at v = v_prev and dominates g everywhere, the gap being the
    PSD form (v - v_prev)(lam*I - D)(v - v_prev)^H.  For unit-modulus v
    its quadratic part is the constant lam * L.
    """
    v = np.asarray(v, dtype=np.complex128)
    if lam is None:
        lam = lambda_max(problem.d_mat)
    # Work on conjugated vectors so every form is a standard column form.
    u = v.conj()
    u_prev = problem.v_prev.conj()
    t_minus_d = lam * np.eye(problem.c_vec.size) - problem.d_mat
    quad = lam * float(np.real(np.vdot(u, u)))
    cross = float(np.real(np.vdot(u, t_minus_d @ u_prev)))
    const = float(np.real(np.vdot(u_prev, t_minus_d @ u_prev)))
    lin = float(np.real(np.vdot(problem.c_vec, v)))
    return quad - 2.0 * cross + const - 2.0 * lin


def mm_update_v(problem: MmProblem, lam: float | None = None) -> PhaseProfile:
    """One MM phase step (see module docstring).

    Entries with gamma_l = 0 keep the previous phase factor (the surrogate
    is flat there).  `lam` lets a caller reuse a precomputed lambda_max(D)
    across inner steps.
    """
    if lam is None:
        lam = lambda_max(problem.d_mat)
    u_prev = problem.v_prev.conj()
    gamma_u = lam * u_prev - problem.d_mat @ u_prev + problem.c_vec.conj()
    return PhaseProfile(alpha=_arg_or_keep(gamma_u.conj(), problem.v_prev))


def mm_solve(ops: DerivedOperators, phases: PhaseProfile,
             max_iters: int = 50, rel_tol: float = 1e-6) -> PhaseProfile:
    """Run MM steps at fixed beamformer until |delta g| < rel_tol * |g|."""
    problem = MmProblem.from_operators(ops, phases)
    lam = lambda_max(problem.d_mat)
    out = phases
    g_prev = mm_objective(problem, out.v)
    for _ in range(max_iters):
        problem = problem._anchored_at(out.v)
        out = mm_update_v(problem, lam=lam)
        g_new = mm_objective(problem, out.v)
        if abs(g_new - g_prev) < rel_tol * max(abs(g_prev), 1e-300):
            break
        g_prev = g_new
    return out
