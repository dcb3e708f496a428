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

With one variable frozen, J sums |x . r|^2 over K device rows r (weight
rho*eta*p0), then M target rows (weight 1-rho): a Gram form of the rows.
`build_operators` builds the matrix of each side whose frozen variable it
is given (None for a variable skips its side):

* beamformer side, rows h_tilde_k, h_hat_m from v:   J = w^H big_h w;
* phase side, lifted rows [c_k, a_k], [d_m, 0] from w, where c_k = h_ru_k * g,
  a_k = h_d_k w and d_m = a(theta_m) * g (elementwise against g), so that
  with x = [v; 1] the rows give x . [c_k, a_k] = h_tilde_k w and
  x . [d_m, 0] = h_hat_m w:                           J = x^H big_f x.
  The blocks of big_f are F11 (L x L), the column f12 and the corner
  offset = rho*eta*p0 * sum_k |a_k|^2: J = v^H F11 v + 2 Re(v^H f12) + offset.

`solution_metrics` is the one evaluation of J, from the rows of either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scenario import ChannelSet, SystemConfig, steering_matrix


def _freeze(obj, **arrays: np.ndarray):
    """Store the arrays read-only as fields of the frozen value `obj`."""
    for arr in arrays.values():
        arr.setflags(write=False)
    vars(obj).update(arrays)
    return obj


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Symmetrise a nearly Hermitian matrix, or a stack of them, as (A + A^H)/2."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Constant-modulus transmit beamformer, a read-only copy of a length-N
    vector.  Construction runs once per optimizer step and checks only the
    shape; the entry points check finiteness (`scenario.check_finite`)."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=np.complex128)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("w must be a nonempty 1-D complex vector")
        _freeze(self, w=w)

    @classmethod
    def from_phases(cls, phases: np.ndarray, config: SystemConfig) -> "Beamformer":
        """Build sqrt(p0/N) * exp(j*phase) per antenna (the modulus holds by
        shape); its fresh array skips `__post_init__`'s copy and checks."""
        phases = np.asarray(phases, dtype=float)
        if phases.shape != (config.n_tx,):
            raise ValueError(f"expected {config.n_tx} phases, got {phases.shape}")
        w = config.beam_amplitude * np.exp(1j * phases)
        return _freeze(object.__new__(cls), w=w)

    @classmethod
    def from_projection(cls, w: np.ndarray) -> "Beamformer":
        """The beamformer holding `w`, a fresh vector of moduli sqrt(p0/N)
        such as `project` returns; unchecked and uncopied (for kernels)."""
        return _freeze(object.__new__(cls), w=w)

    def modulus_error(self, config: SystemConfig) -> float:
        """Worst-case deviation of |w_n| from sqrt(p0/N)."""
        return float(np.abs(np.abs(self.w) - config.beam_amplitude).max())


def wrap_angle(alpha: np.ndarray) -> np.ndarray:
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(alpha, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


def project(y: np.ndarray, fallback: np.ndarray | float,
            amp: float = 1.0) -> np.ndarray:
    """amp * y / |y| entrywise, the nearest point of modulus `amp` to each
    entry of y, as y / (|y| / amp); `fallback`'s entry wherever y is
    exactly zero, where every point of the circle is equally near."""
    mod = np.abs(y)
    if amp != 1.0:
        mod /= amp
    if np.count_nonzero(mod) == mod.size:
        return y / mod
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(mod > 0.0, y / mod, fallback)


@dataclass(frozen=True, eq=False, init=False)
class PhaseProfile:
    """Unit-modulus reflection profile of an L-element surface: the read-only
    vector v of its phase factors, |v_l| = 1 to a few ulp.  The public
    constructor takes phases and stores v = exp(j*wrap_angle(alpha)); the
    phases `alpha` are derived from v on demand."""

    v: np.ndarray

    def __init__(self, alpha: np.ndarray) -> None:
        alpha = wrap_angle(alpha)
        if alpha.ndim != 1 or alpha.size < 1:
            raise ValueError("alpha must be a nonempty 1-D real vector")
        _freeze(self, v=np.exp(1j * alpha))

    @classmethod
    def from_projection(cls, v: np.ndarray) -> "PhaseProfile":
        """The profile holding `v`, a fresh nonempty 1-D unit-modulus vector
        such as `project` returns; unchecked and uncopied (for kernels)."""
        return _freeze(object.__new__(cls), v=v)

    @property
    def alpha(self) -> np.ndarray:
        """The phases arg(v) in [-pi, pi), +pi folded to -pi (read-only)."""
        alpha = np.angle(self.v)
        alpha[alpha == np.pi] = -np.pi
        alpha.setflags(write=False)
        return alpha

    def modulus_error(self) -> float:
        return float(np.abs(np.abs(self.v) - 1.0).max())


@dataclass(frozen=True, eq=False)
class DerivedOperators:
    """The Gram matrices of J with one variable frozen, J = w^H big_h w and
    J = x^H big_f x with x = [v; 1].  big_h depends on the phases only, big_f on
    the beamformer only; a side whose frozen variable was not given to
    `build_operators` is None.  Both are exactly Hermitian (symmetrised)."""

    big_h: np.ndarray | None   # (N, N) PSD beamformer-side matrix
    big_f: np.ndarray | None   # (L+1, L+1) PSD lifted phase-side matrix


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


def beam_rows(channels: ChannelSet, phases: PhaseProfile,
              config: SystemConfig) -> np.ndarray:
    """(K+M, N) rows h_tilde_k, then h_hat_m, at the phase profile."""
    steer = target_steering_matrix(config.target_angles, config.n_irs,
                                   config.delta)
    rows = (np.concatenate([channels.h_ru, steer]) * phases.v) @ channels.h_br
    rows[:config.n_ehd] += channels.h_d
    return rows


def phase_rows(channels: ChannelSet, beam: Beamformer,
               config: SystemConfig) -> np.ndarray:
    """(K+M, L+1) lifted rows [c_k, a_k], then [d_m, 0], at the beamformer."""
    steer = target_steering_matrix(config.target_angles, config.n_irs,
                                   config.delta)
    rows = np.zeros((config.n_ehd + steer.shape[0], config.n_irs + 1), complex)
    np.multiply(np.concatenate([channels.h_ru, steer]), channels.h_br @ beam.w,
                out=rows[:, :-1])
    rows[:config.n_ehd, -1] = channels.h_d @ beam.w
    return rows


def energy_weight(config: SystemConfig) -> float:
    """Weight rho*eta*p0 multiplying the summed harvested-power term in J."""
    return config.rho * config.eta * config.p0


def gram(rows: np.ndarray, config: SystemConfig) -> np.ndarray:
    """hermitian_part(rho*eta*p0 * E^H E + (1-rho) * S^H S) for the device
    rows E (the first K) and the target rows S (the rest)."""
    energy, sensing = rows[:config.n_ehd], rows[config.n_ehd:]
    gram = energy_weight(config) * (energy.conj().T @ energy)
    sense = (1.0 - config.rho) * (sensing.conj().T @ sensing)
    gram += sense
    np.conjugate(gram.T, out=sense)   # hermitian_part(gram), in the spent buffer
    sense += gram
    sense *= 0.5
    return sense


def build_operators(channels: ChannelSet, phases: PhaseProfile | None,
                    beam: Beamformer | None, config: SystemConfig) -> DerivedOperators:
    """Materialise the Gram matrix of each side whose frozen variable is
    given: `phases` yields big_h, `beam` yields big_f.  Pass None for the
    variable being optimised to skip the side it does not need."""
    big_h = big_f = None
    if phases is not None:
        big_h = gram(beam_rows(channels, phases, config), config)
    if beam is not None:
        big_f = gram(phase_rows(channels, beam, config), config)
    return DerivedOperators(big_h=big_h, big_f=big_f)


def objective_for_phase_batch(channels: ChannelSet, beam: Beamformer,
                              config: SystemConfig, v_rows: np.ndarray) -> np.ndarray:
    """J for each of the B phase vectors of `v_rows` (B, L) at the beamformer."""
    rows = phase_rows(channels, beam, config)
    return solution_metrics(rows[:, :-1], np.atleast_2d(v_rows), config, rows[:, -1])[0]


def objective_for_beam_batch(channels: ChannelSet, phases: PhaseProfile,
                             config: SystemConfig, w_rows: np.ndarray) -> np.ndarray:
    """J for each of the B beamformers of `w_rows` (B, N) at the phases."""
    return solution_metrics(beam_rows(channels, phases, config), np.atleast_2d(w_rows),
                            config)[0]


def composite_objective(channels: ChannelSet, phases: PhaseProfile,
                        beam: Beamformer, config: SystemConfig) -> float:
    """Scalar J at one iterate, the arithmetic of every trace step."""
    return solution_metrics(beam_rows(channels, phases, config), beam.w, config)[0]


def beampattern_profile(channels: ChannelSet, phases: PhaseProfile,
                        beam: Beamformer, thetas: np.ndarray,
                        delta: float) -> np.ndarray:
    """Sensing beampattern |a(theta) diag(v) H_br w|^2 over a grid of angles."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    steer = steering_matrix(thetas, phases.v.size, delta)
    u = phases.v * (channels.h_br @ beam.w)
    return np.abs(steer @ u) ** 2


def objective_from_parts(rho: float | np.ndarray, p0: float, harvested: float | np.ndarray,
                         sensing: float | np.ndarray) -> float | np.ndarray:
    """J from its parts: rho*p0*harvested + (1-rho)*sensing, where `harvested`
    already carries eta.  Works elementwise on arrays (say a column of rho)."""
    return rho * p0 * harvested + (1.0 - rho) * sensing


def solution_metrics(rows: np.ndarray, x: np.ndarray, config: SystemConfig,
                     offsets: np.ndarray | None = None) -> tuple:
    """(J, summed harvested power, summed target beampattern) of x, one
    vector or a (B, N) batch, against the K device rows, then the target
    rows: x . row (unconjugated) plus its entry of `offsets`, if given."""
    y = x @ rows.T
    if offsets is not None:
        y += offsets
    power = np.abs(y) ** 2
    harvested = config.eta * power[..., :config.n_ehd].sum(-1)
    sensing = power[..., config.n_ehd:].sum(-1)
    return (objective_from_parts(config.rho, config.p0, harvested, sensing),
            harvested, sensing)
