"""Physical scenario: system parameters, array steering, path loss and channels.

Geometry is a narrowband downlink in which an N-antenna transmitter
illuminates an L-element reflective surface; the surface redirects energy
toward K single-antenna harvesting devices and M radar target directions.
All channels are Rician draws with an i.i.d. LoS part, scaled by path loss.

Unit conventions
----------------
* Angles are radians everywhere inside the package.  Spec files use
  degrees and are converted on load (the spec parser is in `cli`).
* Power quantities are carried in milliwatts.  dBm fields in spec files
  convert as p = 10**(dbm / 10) mW, so the reference 30 dBm budget becomes
  1000 mW.  Gains with a ``_db`` suffix convert as 10**(db / 10).
* Path loss is a linear power ratio: pl_ref * dist**(-ple).

Every entry point of the package checks its inputs with the helpers here,
one per kind of input: `check_count`, `check_finite`, `check_hermitian`,
and on top of them `check_loop` and `check_channels`.  The run entry points
and the oracle searches also take `_one_blas_thread` from here.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def check_count(name: str, value: int, minimum: int = 1) -> int:
    """Return `value` as an int; reject a bool, a non-integer (a whole float
    included) or a value below `minimum`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def check_finite(name: str, values: np.ndarray, shape: tuple[int, ...]) -> None:
    """Reject an array `name` whose shape is not `shape` or that holds a
    non-finite entry."""
    if values.shape != shape:
        raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def check_hermitian(mat: np.ndarray, name: str, size: int) -> None:
    """Reject a matrix `name` that is not (size, size), holds a non-finite
    entry or deviates from Hermitian by more than 1e-12 * max(1, max|A|); an
    exact one takes one reduction (a non-finite A - A^H is never 0)."""
    if np.shape(mat) != (size, size):
        raise ValueError(f"{name} has shape {np.shape(mat)}, expected {(size, size)}")
    with np.errstate(invalid="ignore"):   # inf - inf: rejected as non-finite below
        deviation = float(np.abs(mat - mat.conj().T).max())
    if deviation == 0.0:
        return
    scale = float(np.abs(mat).max())
    if not np.isfinite(scale):
        raise ValueError(f"{name} must be finite")
    if deviation > 1e-12 * max(1.0, scale):
        raise ValueError(f"{name} is not Hermitian (deviation {deviation:.3e})")


def check_loop(max_iters: int, rel_tol: float, name: str) -> None:
    """Reject a loop cap `name` that `check_count` rejects, or a stop
    tolerance that is negative or not finite (under `lc.stalled`, NaN or a
    negative value never stops a loop and inf stops it at once)."""
    check_count(name, max_iters)
    if not 0.0 <= rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol!r}")


def _blas_thread_calls():
    """NumPy's OpenBLAS thread-count getter and setter, or None where they
    do not resolve.  dlsym on the extension module also searches the
    libraries it links, the bundled OpenBLAS included."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


_BLAS_THREAD_CALLS = _blas_thread_calls()


def _one_blas_thread(func):
    """Run `func` with OpenBLAS on one thread and restore the previous count
    on return or raise.  At the sizes of an optimizer run ((L+1) x (L+1),
    41 x 41 at the reference L=40) a second thread only spins; the results
    are the same bits.  The count is process-wide, so calls from concurrent
    Python threads may leave it at 1.  Without the thread calls `func` is
    returned unchanged."""
    if _BLAS_THREAD_CALLS is None:
        return func
    get, put = _BLAS_THREAD_CALLS

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        before = get()
        put(1)
        try:
            return func(*args, **kwargs)
        finally:
            put(before)

    return wrapper


def db_to_linear(x_db: float) -> float:
    """Convert dB to a linear ratio; dBm converts to milliwatts the same way
    (30 dBm -> 1000 mW)."""
    return 10.0 ** (x_db / 10.0)


# Physical parameters that must be finite and positive; rho, eta and the
# target angles are range-checked, which already excludes infinities and NaN.
_POSITIVE_FIELDS = ("p0", "delta", "dist_tx_irs", "dist_irs_ehd", "dist_tx_ehd",
                    "ple_tx_irs", "ple_irs_ehd", "ple_tx_ehd", "pl_ref", "rician_k")


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one deployment.

    Defaults reproduce the desk-scale reference scenario used by the
    bundled experiments.
    """

    n_tx: int = 12               # transmit antennas N
    n_irs: int = 40              # reflective surface elements L
    n_ehd: int = 5               # energy harvesting devices K
    n_targets: int = 3           # radar target directions M
    p0: float = 1000.0           # total transmit power budget, mW
    eta: float = 0.8             # harvester RF-to-DC efficiency, in (0, 1]
    rho: float = 0.9             # trade-off weight, 1 = all power transfer
    delta: float = 0.5           # surface element spacing, wavelengths
    target_angles: tuple[float, ...] = (
        -math.pi / 4.0, 0.0, math.pi / 4.0)  # radians, in [-pi/2, pi/2]
    dist_tx_irs: float = 30.0    # m
    dist_irs_ehd: float = 30.0   # m
    dist_tx_ehd: float = 50.0    # m
    ple_tx_irs: float = 2.5      # path loss exponent, tx -> surface
    ple_irs_ehd: float = 2.5     # path loss exponent, surface -> devices
    ple_tx_ehd: float = 3.0      # path loss exponent, direct link
    pl_ref: float = 0.1          # reference path loss at 1 m, linear
    rician_k: float = db_to_linear(6.0)  # Rician factor, linear
    seed: int = 0                # master RNG seed

    def __post_init__(self) -> None:
        for name in ("n_tx", "n_irs", "n_ehd", "n_targets"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        for name in _POSITIVE_FIELDS:
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho!r}")
        for name in _POSITIVE_FIELDS + ("eta", "rho"):   # np.float64(0.9) -> 0.9
            object.__setattr__(self, name, float(getattr(self, name)))
        self._check_scales()
        angles = tuple(float(a) for a in self.target_angles)
        object.__setattr__(self, "target_angles", angles)
        if len(angles) != self.n_targets:
            raise ValueError(
                f"n_targets={self.n_targets} but {len(angles)} target angles given")
        for a in angles:
            if not -math.pi / 2.0 <= a <= math.pi / 2.0:
                raise ValueError(f"target angle {a!r} outside [-pi/2, pi/2]")
        object.__setattr__(self, "seed", check_count("seed", self.seed, minimum=0))

    def _check_scales(self) -> None:
        """Reject finite fields whose derived scales leave the float range:
        the steering phases 2 pi delta (L - 1) from 2**52 on, where adjacent
        doubles are 1 rad apart, a link's path loss that overflows or falls
        below the least normal double, and a bound on J.  `complex_normal` draws
        |z|^2 <= 53 ln 2, so a drawn link entry has |h|^2 <= c pl,
        c = 106 ln 2; the unweighted row products of `objective.gram` are at
        most G = c^2 (K (sqrt(pl_d) + L sqrt(pl_ru pl_br))^2 + M L^2 pl_br),
        and J <= N p0 max(eta p0, 1) G on every draw."""
        if not TWO_PI * self.delta * max(self.n_irs - 1, 1) < 2.0 ** 52:
            raise ValueError(f"delta = {self.delta!r} overflows the steering phases at "
                             f"L = {self.n_irs}: 2 pi delta (L - 1) must stay below 2**52")
        losses = []
        for dist, ple in (("dist_tx_irs", "ple_tx_irs"), ("dist_irs_ehd", "ple_irs_ehd"),
                          ("dist_tx_ehd", "ple_tx_ehd")):
            try:
                loss = path_loss(self.pl_ref, getattr(self, dist), getattr(self, ple))
            except OverflowError:
                loss = math.inf
            if not sys.float_info.min <= loss < math.inf:
                raise ValueError(f"path loss pl_ref * {dist}**(-{ple}) is {loss!r}; it "
                                 f"must be finite and at least {sys.float_info.min!r}")
            losses.append(loss)
        pl_br, pl_ru, pl_d = losses
        peak = 106.0 * math.log(2.0)
        device = math.sqrt(pl_d) + self.n_irs * math.sqrt(pl_ru) * math.sqrt(pl_br)
        rows = peak * peak * (self.n_ehd * device * device
                              + self.n_targets * self.n_irs * self.n_irs * pl_br)
        if not rows * self.n_tx * self.p0 * max(self.eta * self.p0, 1.0) < math.inf:
            raise ValueError(f"J or its Gram products may overflow: their bound from "
                             f"p0 = {self.p0!r} and the path losses is inf")

    @property
    def per_antenna_power(self) -> float:
        """Per-antenna power budget p0 / n_tx (mW)."""
        return self.p0 / self.n_tx

    @property
    def beam_amplitude(self) -> float:
        """Constant per-antenna beamformer modulus sqrt(p0 / n_tx)."""
        return math.sqrt(self.p0 / self.n_tx)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """One draw of every channel in the scenario.

    h_br : (L, N) transmitter -> surface matrix
    h_ru : (K, L) surface -> device rows
    h_d  : (K, N) direct transmitter -> device rows
    Each is stored as a read-only copy; the caller's arrays stay writeable.
    """

    h_br: np.ndarray
    h_ru: np.ndarray
    h_d: np.ndarray

    def __post_init__(self) -> None:
        for name in ("h_br", "h_ru", "h_d"):
            arr = np.array(getattr(self, name), dtype=np.complex128)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.h_br.ndim != 2 or self.h_ru.ndim != 2 or self.h_d.ndim != 2:
            raise ValueError("channel matrices must be 2-D")
        l_dim, n_dim = self.h_br.shape
        if self.h_ru.shape[1] != l_dim:
            raise ValueError("h_ru column count must match h_br rows")
        if self.h_d.shape != (self.h_ru.shape[0], n_dim):
            raise ValueError("h_d shape inconsistent with h_ru / h_br")


def check_channels(config: SystemConfig, channels: ChannelSet) -> None:
    """Reject channels whose shapes do not match the config's (L, N, K) or
    that hold a non-finite entry."""
    l_dim, n_dim, k_dim = config.n_irs, config.n_tx, config.n_ehd
    for name, shape in (("h_br", (l_dim, n_dim)), ("h_ru", (k_dim, l_dim)),
                        ("h_d", (k_dim, n_dim))):
        check_finite(f"channels.{name}", getattr(channels, name), shape)


def slice_channels(channels: ChannelSet, n_irs: int) -> ChannelSet:
    """Restrict a draw to the first n_irs reflecting elements.

    Entries are iid across elements, so the slice has the same law as a
    direct draw at the smaller size while staying coupled across sizes.
    """
    return ChannelSet(h_br=channels.h_br[:n_irs, :], h_ru=channels.h_ru[:, :n_irs],
                      h_d=channels.h_d)


def steering_matrix(thetas: np.ndarray, n_elements: int, delta: float) -> np.ndarray:
    """Uniform linear array responses, one row per angle theta, with element
    l = exp(j*2*pi*l*delta*sin(theta)); element 0 is exactly 1.  `delta` is
    the element spacing in wavelengths."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    idx = np.arange(n_elements)
    return np.exp(1j * TWO_PI * delta * np.sin(thetas)[:, None] * idx[None, :])


def path_loss(pl_ref: float, dist: float, ple: float) -> float:
    """Distance path loss pl_ref * dist**(-ple) as a linear power ratio."""
    if not dist > 0.0:
        raise ValueError(f"distance must be positive, got {dist!r}")
    if not pl_ref > 0.0:
        raise ValueError(f"pl_ref must be positive, got {pl_ref!r}")
    return pl_ref * float(dist) ** (-float(ple))


def complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard circularly symmetric complex Gaussian draws, E|z|^2 = 1.

    Box-Muller on paired uniforms: radius sqrt(-ln(1-u1)) and angle
    2*pi*u2, giving variance 1/2 per real component.  Using the raw
    uniform stream keeps draws identical across platforms for a fixed
    generator state.
    """
    u1 = rng.random(shape)
    u2 = rng.random(shape)
    radius = np.sqrt(-np.log1p(-u1))
    return radius * np.exp(1j * TWO_PI * u2)


def trial_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent PCG64 stream for one unit of work.

    Streams are derived from the master seed and an integer key path
    (e.g. sweep point index, trial index), so results do not depend on
    the order in which trials execute.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _rician_draw(rng: np.random.Generator, shape: tuple[int, ...],
                 pl: float, k_factor: float) -> np.ndarray:
    """One Rician fading matrix with per-entry second moment `pl`."""
    los = complex_normal(rng, shape)
    nlos = complex_normal(rng, shape)
    w_los = math.sqrt(k_factor / (k_factor + 1.0))
    w_nlos = math.sqrt(1.0 / (k_factor + 1.0))
    return math.sqrt(pl) * (w_los * los + w_nlos * nlos)


def sample_channels(config: SystemConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one ChannelSet.

    Draw order is fixed (h_br, then h_ru, then h_d; LoS before scattered
    within each link) so a given generator state always yields the same
    channels.  The LoS component is itself an i.i.d. complex Gaussian draw,
    so the Rician factor only partitions variance between two statistically
    identical parts.
    """
    n, l, k = config.n_tx, config.n_irs, config.n_ehd
    pl_br = path_loss(config.pl_ref, config.dist_tx_irs, config.ple_tx_irs)
    pl_ru = path_loss(config.pl_ref, config.dist_irs_ehd, config.ple_irs_ehd)
    pl_d = path_loss(config.pl_ref, config.dist_tx_ehd, config.ple_tx_ehd)
    h_br = _rician_draw(rng, (l, n), pl_br, config.rician_k)
    h_ru = _rician_draw(rng, (k, l), pl_ru, config.rician_k)
    h_d = _rician_draw(rng, (k, n), pl_d, config.rician_k)
    return ChannelSet(h_br=h_br, h_ru=h_ru, h_d=h_d)

