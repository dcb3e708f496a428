"""Solution value types, derived operators and the composite objective.

The design variables are a constant-modulus transmit beamformer w (each of
the N entries has modulus sqrt(p0/N)) and a unit-modulus reflection profile
v (L phase factors).  Writing g = H_br w for the surface illumination, the
two figures of merit are

* harvested power at device k:   eta * |h_tilde_k w|^2, where
  h_tilde_k = h_ru_k diag(v) H_br + h_d_k is the effective device channel;
* sensing gain toward angle m:   |a(theta_m) diag(v) H_br w|^2.

Writing h_hat_m = a(theta_m) diag(v) H_br for the effective sensing
channel, the weighted objective is

    J = rho*eta*p0 * sum_k |h_tilde_k w|^2 + (1-rho) * sum_m |h_hat_m w|^2.

It is a quadratic form in either variable once the other is frozen, and
`build_operators` materialises the matrices of those forms, one side per
frozen variable it is given (None for a variable skips its side):

* beamformer side, from v alone:  J = w^H H w;
* phase side, from w alone:       J = v F11 v^H + 2 Re(v . f12) + offset,
  built from c_k = h_ru_k * g, a_k = h_d_k w and d_m = a(theta_m) * g
  (elementwise products against g), which satisfy the scalar identities

      v . c_k + a_k = h_tilde_k w        v . d_m = h_hat_m w

  with plain unconjugated dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scenario import ChannelSet, SystemConfig, steering_matrix


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Symmetrise a nearly Hermitian matrix, or a stack of them, as (A + A^H)/2."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def check_hermitian(mat: np.ndarray, name: str) -> float:
    """Reject a square matrix with a non-finite entry, or one that deviates
    from Hermitian by more than 1e-12 * max(1, max|A|); returns max|A|
    (0 for an empty matrix)."""
    if mat.size == 0:
        return 0.0
    scale = float(np.max(np.abs(mat)))
    if not np.isfinite(scale):
        raise ValueError(f"{name} must be finite")
    deviation = float(np.max(np.abs(mat - mat.conj().T)))
    if deviation > 1e-12 * max(1.0, scale):
        raise ValueError(f"{name} is not Hermitian (deviation {deviation:.3e})")
    return scale


@dataclass(frozen=True)
class Beamformer:
    """Constant-modulus transmit beamformer, stored as a length-N vector.

    An unchecked per-step kernel: construction runs once per optimizer step
    and checks only the shape, not finiteness; `lc.sca_solve` checks its
    matrix once per solve instead.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.complex128)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("w must be a nonempty 1-D complex vector")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @classmethod
    def from_phases(cls, phases: np.ndarray, config: SystemConfig) -> "Beamformer":
        """Build sqrt(p0/N) * exp(j*phase) per antenna; the only constructor
        used by the optimizers, so the modulus constraint holds by shape."""
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (config.n_tx,):
            raise ValueError(f"expected {config.n_tx} phases, got {phases.shape}")
        return cls(w=config.beam_amplitude * np.exp(1j * phases))

    def modulus_error(self, config: SystemConfig) -> float:
        """Worst-case deviation of |w_n| from sqrt(p0/N)."""
        return float(np.max(np.abs(np.abs(self.w) - config.beam_amplitude)))


def wrap_angle(alpha: np.ndarray) -> np.ndarray:
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(alpha, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class PhaseProfile:
    """Unit-modulus reflection profile of an L-element surface.

    The phases `alpha` (wrapped to [-pi, pi)) are the source of truth; the
    complex factors v = exp(j*alpha) are materialised once at construction
    so |v_l| = 1 holds to machine precision by construction.
    """

    alpha: np.ndarray

    def __post_init__(self) -> None:
        alpha = wrap_angle(self.alpha)
        if alpha.ndim != 1 or alpha.size < 1:
            raise ValueError("alpha must be a nonempty 1-D real vector")
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)
        v = np.exp(1j * alpha)
        v.flags.writeable = False
        object.__setattr__(self, "_v", v)

    @property
    def v(self) -> np.ndarray:
        return self._v

    def modulus_error(self) -> float:
        return float(np.max(np.abs(np.abs(self.v) - 1.0)))


@dataclass(frozen=True)
class DerivedOperators:
    """The quadratic-form matrices of J with one variable frozen.

    big_h depends on the phases only; f11, f12 and offset on the
    beamformer only.  A side whose frozen variable was not given to
    `build_operators` is None.  f11 and big_h are exactly Hermitian
    (symmetrised).
    """

    big_h: np.ndarray | None   # (N, N) PSD beamformer-side matrix
    f11: np.ndarray | None     # (L, L) PSD quadratic part of the phase objective
    f12: np.ndarray | None     # (L,) linear part of the phase objective
    offset: float | None       # v-independent term rho*eta*p0*sum_k |a_k|^2


@lru_cache(maxsize=64)
def target_steering_matrix(target_angles: tuple[float, ...], n_irs: int,
                           delta: float) -> np.ndarray:
    """Read-only (M, L) steering matrix of the target directions.

    Cached per geometry: every operator build and metric evaluation at one
    configuration shares the same exponentials.
    """
    steer = steering_matrix(np.asarray(target_angles), n_irs, delta)
    steer.flags.writeable = False
    return steer


def _cascade_terms(channels: ChannelSet, beam: Beamformer,
                   config: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c_k, a_k, d_m for the current beamformer (v-side parameterisation)."""
    g = channels.h_br @ beam.w                          # (L,) illumination
    c_vecs = channels.h_ru * g[None, :]                 # rows: h_ru_k * g
    a_scalars = channels.h_d @ beam.w                   # (K,)
    steer = target_steering_matrix(config.target_angles, config.n_irs,
                                   config.delta)
    d_vecs = steer * g[None, :]                         # rows: a(theta_m) * g
    return c_vecs, a_scalars, d_vecs


def _effective_channels(channels: ChannelSet, phases: PhaseProfile,
                        config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """h_tilde_k and h_hat_m for the current phase profile (w-side)."""
    v = phases.v
    h_tilde = (channels.h_ru * v[None, :]) @ channels.h_br + channels.h_d
    steer = target_steering_matrix(config.target_angles, config.n_irs,
                                   config.delta)
    h_hat = (steer * v[None, :]) @ channels.h_br
    return h_tilde, h_hat


def energy_weight(config: SystemConfig) -> float:
    """Weight rho*eta*p0 multiplying the summed harvested-power term in J."""
    return config.rho * config.eta * config.p0


def build_operators(channels: ChannelSet, phases: PhaseProfile | None,
                    beam: Beamformer | None, config: SystemConfig) -> DerivedOperators:
    """Materialise the operators of each side whose frozen variable is given:
    `phases` yields big_h, `beam` yields f11, f12 and offset.  Pass None for
    the variable being optimised to skip the side it does not need."""
    w_e = energy_weight(config)
    w_s = 1.0 - config.rho
    big_h = f11 = f12 = offset = None
    if phases is not None:
        h_tilde, h_hat = _effective_channels(channels, phases, config)
        big_h = hermitian_part(w_e * (h_tilde.conj().T @ h_tilde)
                               + w_s * (h_hat.conj().T @ h_hat))
    if beam is not None:
        c_vecs, a_scalars, d_vecs = _cascade_terms(channels, beam, config)
        # sum_k c_k c_k^H == C^T conj(C) for row-stacked C, likewise for d.
        f11 = hermitian_part(w_e * (c_vecs.T @ c_vecs.conj())
                             + w_s * (d_vecs.T @ d_vecs.conj()))
        f12 = w_e * (c_vecs.T @ a_scalars.conj())
        offset = float(w_e * np.sum(np.abs(a_scalars) ** 2))
    return DerivedOperators(big_h=big_h, f11=f11, f12=f12, offset=offset)


def objective_for_phase_batch(channels: ChannelSet, beam: Beamformer,
                              config: SystemConfig, v_rows: np.ndarray) -> np.ndarray:
    """Composite objective J evaluated for a batch of phase vectors.

    `v_rows` is (B, L); returns a length-B real array.  This is the single
    evaluation path for J: the scalar entry point and the exhaustive
    searches all route through here.
    """
    v_rows = np.atleast_2d(np.asarray(v_rows, dtype=np.complex128))
    c_vecs, a_scalars, d_vecs = _cascade_terms(channels, beam, config)
    energy = np.abs(v_rows @ c_vecs.T + a_scalars[None, :]) ** 2
    sensing = np.abs(v_rows @ d_vecs.T) ** 2
    return (energy_weight(config) * energy.sum(axis=1)
            + (1.0 - config.rho) * sensing.sum(axis=1))


def objective_for_beam_batch(channels: ChannelSet, phases: PhaseProfile,
                             config: SystemConfig, w_rows: np.ndarray) -> np.ndarray:
    """Composite objective J for a batch of beamformers at fixed phases."""
    w_rows = np.atleast_2d(np.asarray(w_rows, dtype=np.complex128))
    h_tilde, h_hat = _effective_channels(channels, phases, config)
    energy = np.abs(w_rows @ h_tilde.T) ** 2
    sensing = np.abs(w_rows @ h_hat.T) ** 2
    return (energy_weight(config) * energy.sum(axis=1)
            + (1.0 - config.rho) * sensing.sum(axis=1))


def composite_objective(channels: ChannelSet, phases: PhaseProfile,
                        beam: Beamformer, config: SystemConfig) -> float:
    """Scalar J at one iterate (see module docstring for the formula)."""
    return float(objective_for_phase_batch(channels, beam, config,
                                           phases.v[None, :])[0])


def beampattern_profile(channels: ChannelSet, phases: PhaseProfile,
                        beam: Beamformer, thetas: np.ndarray,
                        delta: float = 0.5) -> np.ndarray:
    """Sensing beampattern |a(theta) diag(v) H_br w|^2 over a grid of angles."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    steer = steering_matrix(thetas, phases.v.size, delta)
    u = phases.v * (channels.h_br @ beam.w)
    return np.abs(steer @ u) ** 2


def beampattern_gain(channels: ChannelSet, phases: PhaseProfile,
                     beam: Beamformer, theta: float, delta: float = 0.5) -> float:
    """Beampattern at a single angle."""
    return float(beampattern_profile(channels, phases, beam,
                                     np.asarray([theta]), delta)[0])


def objective_from_parts(rho: float | np.ndarray, p0: float, harvested: float | np.ndarray,
                         sensing: float | np.ndarray) -> float | np.ndarray:
    """J from its parts: rho*p0*harvested + (1-rho)*sensing, where `harvested`
    already carries eta.  Works elementwise on arrays (say a column of rho)."""
    return rho * p0 * harvested + (1.0 - rho) * sensing


def solution_metrics(channels: ChannelSet, phases: PhaseProfile,
                     beam: Beamformer, config: SystemConfig) -> tuple[float, float, float]:
    """(J, summed harvested power, summed target beampattern) at an iterate."""
    h_tilde, h_hat = _effective_channels(channels, phases, config)
    harvested_sum = float(config.eta * np.sum(np.abs(h_tilde @ beam.w) ** 2))
    beampattern_sum = float(np.sum(np.abs(h_hat @ beam.w) ** 2))
    j_value = objective_from_parts(config.rho, config.p0, harvested_sum,
                                   beampattern_sum)
    return j_value, harvested_sum, beampattern_sum
