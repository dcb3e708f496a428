"""The `iswpt` command line: the spec parser, the four CSV commands and
``validate``.

README.md states the contract of the command line: its commands, flags
and exit codes, the spec keys and their units, and the CSV formats.  A
CSV is a pure function of the spec file and the seed.  The L sweeps draw
each trial's channels once, at the largest swept L (`_sweep_l`), and
``sweep-rho`` runs each trial as a continuation (`sweep_rho_trial`).

Stream layout: channels from ``trial_stream(seed, 0, trial)``, algorithm
randomness from ``trial_stream(seed, 1, algo_id, point_idx, trial)`` with
algo ids sdp=0, lc=1, rps=2, shared initial phases from
``trial_stream(seed, 2, trial)``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys
import traceback
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .ao import ALGORITHM_LC, ALGORITHM_SDP, AoConfig, AoTrace, run_ao, run_rps
from .objective import PhaseProfile, beampattern_profile, objective_from_parts
from .scenario import (ChannelSet, SystemConfig, check_count, check_loop,
                       db_to_linear, sample_channels, slice_channels, trial_stream)

ALGORITHM_RPS = "rps"
_ALGO_STREAM_ID = {ALGORITHM_SDP: 0, ALGORITHM_LC: 1, ALGORITHM_RPS: 2}

_DEFAULT_RHO_GRID = tuple(round(0.1 * i, 10) for i in range(1, 10))

# Finest beampattern grid: at most 18,001 angles over [-90, 90] degrees.
MIN_ANGLE_STEP_DEG = 0.01


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a scenario plus sweep/averaging knobs."""

    config: SystemConfig
    algorithms: tuple[str, ...] = (ALGORITHM_SDP, ALGORITHM_LC)
    n_trials: int = 50
    sweep_l: tuple[int, ...] = (10, 20, 30, 40)
    sweep_rho: tuple[float, ...] = _DEFAULT_RHO_GRID
    angle_step_deg: float = 1.0
    max_outer_iters: int = 30
    rel_tol: float = 1e-4
    out: str | None = None

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("algorithms must be a nonempty list")
        for name in self.algorithms:
            if name not in _ALGO_STREAM_ID:
                raise ValueError(f"unknown algorithm {name!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithm in list")
        check_count("n_trials", self.n_trials)
        if not self.sweep_l:
            raise ValueError("sweep_l must be a nonempty list")
        for l_dim in self.sweep_l:
            check_count("sweep_l entry", l_dim)
        if not self.sweep_rho or any(not 0.0 <= r <= 1.0 for r in self.sweep_rho):
            raise ValueError("sweep_rho entries must lie in [0, 1]")
        if not MIN_ANGLE_STEP_DEG <= self.angle_step_deg < np.inf:
            raise ValueError(f"angle_step_deg must be finite and >= "
                             f"{MIN_ANGLE_STEP_DEG}, got {self.angle_step_deg!r}")
        check_loop(self.max_outer_iters, self.rel_tol, "max_outer_iters")


# ---------------------------------------------------------------------------
# Spec parsing.  Files are flat "key = value" text; '#' starts a comment.

# Keys read in other units: key -> (field, conversion to package units).  A
# unit key conflicts with its field's key, and angles are read in degrees
# only, so the radian field is not a key.
_UNIT_KEYS = {
    "p0_dbm": ("p0", db_to_linear),
    "pl_ref_db": ("pl_ref", db_to_linear),
    "rician_k_db": ("rician_k", db_to_linear),
    "target_angles_deg": ("target_angles", math.radians),
}


def parse_kv_file(path: str | Path) -> dict[str, str]:
    """Read a flat key = value file into a string mapping."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def parse_fields(cls: type, mapping: dict[str, str]) -> dict[str, object]:
    """Convert spec text into keyword arguments for the dataclass `cls`.

    Keys are read in sorted order.  A key must name a field of `cls` that
    has a default, or be a unit key of one.  Its value is converted with the
    type of that default; a tuple default reads a comma-separated list of its
    first element's type, and a None default reads a str.  An unknown key,
    an empty or malformed value or list element, and a unit key given with
    its field's key raise ValueError naming the key.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    kwargs: dict[str, object] = {}
    for key in sorted(mapping):
        name, convert = _UNIT_KEYS.get(key, (key, lambda value: value))
        if name not in defaults or key == "target_angles":
            raise ValueError(f"unknown spec key {key!r}")
        if name != key and name in mapping:
            raise ValueError(f"spec key {key!r} conflicts with {name!r}")
        default = defaults[name]
        listed = isinstance(default, tuple)
        kind = type(default[0]) if listed else str if default is None else type(default)
        values = []
        for part in mapping[key].split(",") if listed else [mapping[key]]:
            text = part.strip()
            try:
                if not text:
                    raise ValueError
                value = kind(text)
            except ValueError:
                raise ValueError(f"spec key {key!r}: expected {kind.__name__}, "
                                 f"got {text!r}") from None
            values.append(convert(value))
        kwargs[name] = tuple(values) if listed else values[0]
    return kwargs


def experiment_from_mapping(mapping: dict[str, str]) -> ExperimentSpec:
    """Build an ExperimentSpec from key=value text (see `parse_fields`).

    Keys that name an ExperimentSpec field configure the experiment; the
    rest build its SystemConfig first, in radians and linear milliwatts,
    with `n_targets` set by the target angles unless it is given.  A key
    that neither layer knows, or a malformed value, raises ValueError
    naming the key.
    """
    names = {f.name for f in dataclasses.fields(ExperimentSpec)}
    kwargs = parse_fields(SystemConfig, {k: v for k, v in mapping.items() if k not in names})
    if "target_angles" in kwargs:
        kwargs.setdefault("n_targets", len(kwargs["target_angles"]))
    return ExperimentSpec(
        config=SystemConfig(**kwargs),
        **parse_fields(ExperimentSpec, {k: v for k, v in mapping.items() if k in names}))


# ---------------------------------------------------------------------------
# CSV assembly


def _format_cell(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean CSV cells are ambiguous; write 0/1 ints")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _digest_text(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(_digest_text(item) for item in value)
    return repr(value) if isinstance(value, float) else str(value)


def config_digest(exp: ExperimentSpec, command: str) -> str:
    """Short stable hash of the full configuration behind one CSV."""
    items = dataclasses.asdict(exp.config)
    payload = [f"command={command}"]
    payload += [f"{key}={items[key]!r}" for key in sorted(items) if key != "seed"]
    payload += [f"{f.name}={_digest_text(getattr(exp, f.name))}"
                for f in dataclasses.fields(exp) if f.name not in ("config", "out")]
    return hashlib.sha256("\n".join(payload).encode()).hexdigest()[:12]


def render_csv(exp: ExperimentSpec, command: str, header: list[str],
               rows: list[tuple]) -> str:
    comment = f"# iswpt {__version__} seed={exp.config.seed} config={config_digest(exp, command)}"
    lines = [comment, ",".join(header)]
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


class WriteFailed(RuntimeError):
    """The output file could not be written; the input was not at fault."""


def _write_output(text: str, path: str, mode: str = "w") -> None:
    try:
        with open(path, mode, newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise WriteFailed(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Shared runners


class RunFailed(RuntimeError):
    """A run stopped on a solver failure; its truncated trace is no result."""


def _run_point(exp: ExperimentSpec, algorithm: str, config: SystemConfig,
               channels: ChannelSet, point_idx: int, trial: int, runs: list,
               init_phases: PhaseProfile | None = None,
               init_beam=None) -> AoTrace:
    """One run at one sweep point, recorded in `runs` as (algorithm, converged);
    the warm start is ignored by rps.  Raises RunFailed on a failed run."""
    rng = trial_stream(exp.config.seed, 1, _ALGO_STREAM_ID[algorithm],
                       point_idx, trial)
    if algorithm == ALGORITHM_RPS:
        trace = run_rps(config, channels, rng, max_iters=exp.max_outer_iters,
                        rel_tol=exp.rel_tol)
    else:
        ao = AoConfig(algorithm=algorithm, max_outer_iters=exp.max_outer_iters,
                      rel_tol=exp.rel_tol, init_phases=init_phases,
                      init_beam=init_beam)
        trace = run_ao(config, ao, channels, rng)
    if trace.failure is not None:
        raise RunFailed(f"{algorithm} run failed at L={config.n_irs}, "
                        f"rho={config.rho:g}, trial {trial}: {trace.failure}")
    runs.append((algorithm, trace.converged))
    return trace


def _draw_trials(exp: ExperimentSpec, n_irs: int, n_trials: int) -> list[ChannelSet]:
    config = dataclasses.replace(exp.config, n_irs=n_irs)
    return [sample_channels(config, trial_stream(exp.config.seed, 0, trial))
            for trial in range(n_trials)]


def _sweep_l(exp: ExperimentSpec, n_trials: int, runs: list
             ) -> Iterator[tuple[str, SystemConfig, list[tuple[ChannelSet, AoTrace]]]]:
    """Run every (algorithm, L) point of the L sweep in CSV row order.

    Yields (algorithm, config at that L, [(channels, trace) per trial]).
    Each trial's channels are drawn once, at the largest L, and sliced
    down to each point.
    """
    draws = _draw_trials(exp, max(exp.sweep_l), n_trials)
    for algorithm in exp.algorithms:
        for point_idx, n_irs in enumerate(exp.sweep_l):
            config = dataclasses.replace(exp.config, n_irs=n_irs)
            point = []
            for trial, full in enumerate(draws):
                channels = slice_channels(full, n_irs)
                point.append((channels, _run_point(exp, algorithm, config, channels,
                                                   point_idx, trial, runs)))
            yield algorithm, config, point


# ---------------------------------------------------------------------------
# Subcommands


def cmd_convergence(exp: ExperimentSpec, runs: list) -> str:
    header = ["algorithm", "L", "trial", "iteration", "objective"]
    rows: list[tuple] = []
    for algorithm, config, point in _sweep_l(exp, exp.n_trials, runs):
        for trial, (_, trace) in enumerate(point):
            rows += [(algorithm, config.n_irs, trial, k, j_value)
                     for k, j_value in enumerate(trace.iteration_objectives())]
    return render_csv(exp, "convergence", header, rows)


def cmd_sweep_l(exp: ExperimentSpec, runs: list) -> str:
    header = ["algorithm", "L", "mean_harvested_energy", "std", "n_trials"]
    rows: list[tuple] = []
    for algorithm, config, point in _sweep_l(exp, exp.n_trials, runs):
        harvested = np.array([trace.steps[-1].harvested_sum for _, trace in point])
        std = float(np.std(harvested, ddof=1)) if exp.n_trials > 1 else 0.0
        rows.append((algorithm, config.n_irs, float(np.mean(harvested)), std,
                     exp.n_trials))
    return render_csv(exp, "sweep-l", header, rows)


def sweep_rho_trial(exp: ExperimentSpec, algorithm: str, trial: int,
                    channels: ChannelSet, runs: list | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Harvested energy and beampattern sum at each trade-off point.

    Optimizing algorithms run the sweep as a continuation (each point
    warm-starts the next) and the final iterate of every run, converged or
    not, joins a shared candidate pool; each point then reports the pool
    member with the best objective J at that point's weights (ties broken
    toward higher harvested energy).  Selecting from a common pool by
    objective value makes the reported per-trial curves obey the
    weighted-sum exchange argument: harvested energy cannot decrease, the
    beampattern sum cannot increase.  The rps baseline reports each point's
    own run.  Each run is recorded in `runs`, if given (see `_run_point`).
    """
    runs = [] if runs is None else runs
    alpha = trial_stream(exp.config.seed, 2, trial).uniform(
        -np.pi, np.pi, exp.config.n_irs)
    init_phases, init_beam = PhaseProfile(alpha=alpha), None
    pool_e = np.empty(len(exp.sweep_rho))
    pool_s = np.empty(len(exp.sweep_rho))
    for point_idx, rho in enumerate(exp.sweep_rho):
        config = dataclasses.replace(exp.config, rho=float(rho))
        trace = _run_point(exp, algorithm, config, channels, point_idx, trial,
                           runs, init_phases, init_beam)
        pool_e[point_idx] = trace.steps[-1].harvested_sum
        pool_s[point_idx] = trace.steps[-1].beampattern_sum
        init_phases, init_beam = trace.phases, trace.beam
    if algorithm == ALGORITHM_RPS:
        return pool_e, pool_s

    # Row i scores every pool member at point i's weights.
    rho = np.asarray(exp.sweep_rho)[:, None]
    scores = objective_from_parts(rho, exp.config.p0, pool_e, pool_s)
    best = np.lexsort((np.broadcast_to(pool_e, scores.shape), scores))[:, -1]
    return pool_e[best], pool_s[best]


def cmd_sweep_rho(exp: ExperimentSpec, runs: list) -> str:
    header = ["algorithm", "rho", "mean_harvested_energy",
              "mean_beampattern_sum", "std", "n_trials"]
    rows: list[tuple] = []
    draws = _draw_trials(exp, exp.config.n_irs, exp.n_trials)
    for algorithm in exp.algorithms:
        curves = [sweep_rho_trial(exp, algorithm, trial, channels, runs)
                  for trial, channels in enumerate(draws)]
        harvested = np.array([e for e, _ in curves]).T
        sensing = np.array([s for _, s in curves]).T
        for point_idx, rho in enumerate(exp.sweep_rho):
            vals = harvested[point_idx]
            std = float(np.std(vals, ddof=1)) if exp.n_trials > 1 else 0.0
            rows.append((algorithm, float(rho), float(np.mean(vals)),
                         float(np.mean(sensing[point_idx])), std, exp.n_trials))
    return render_csv(exp, "sweep-rho", header, rows)


def cmd_beampattern(exp: ExperimentSpec, runs: list) -> str:
    header = ["algorithm", "L", "rho", "angle_deg", "gain", "gain_db"]
    rows: list[tuple] = []
    step = exp.angle_step_deg
    angles_deg = np.arange(-90.0, 90.0 + 0.5 * step, step)
    # Drop the point past +90 left by a step that does not divide 180, and
    # pin a rounding overshoot of the +90 endpoint to 90 exactly.
    angles_deg = np.minimum(angles_deg[angles_deg <= 90.0 + 1e-6], 90.0)
    angles_rad = np.radians(angles_deg)
    for algorithm, config, [(channels, trace)] in _sweep_l(exp, 1, runs):
        gains = beampattern_profile(channels, trace.phases, trace.beam,
                                    angles_rad, config.delta)
        for angle, gain in zip(angles_deg, gains):
            gain_db = 10.0 * np.log10(gain) if gain > 0.0 else -np.inf
            rows.append((algorithm, config.n_irs, config.rho, float(angle),
                         float(gain), float(gain_db)))
    return render_csv(exp, "beampattern", header, rows)


def cmd_validate() -> tuple[str, bool]:
    from .validate import run_all_criteria

    results = run_all_criteria()
    lines = [str(result) for result in results]
    all_passed = all(result.passed for result in results)
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n", all_passed


# ---------------------------------------------------------------------------
# Entry point

# CSV subcommands; each writes <name with "_" for "-">.csv unless given --out.
_COMMANDS = {
    "convergence": cmd_convergence,
    "sweep-l": cmd_sweep_l,
    "sweep-rho": cmd_sweep_rho,
    "beampattern": cmd_beampattern,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iswpt",
        description="Joint beamforming / reflecting-surface experiments "
                    "written as deterministic CSV.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--out", default=None, help="output path")
        if name == "validate":
            continue
        cmd.add_argument("--spec", default=None, help="key=value spec file")
        # These flags set spec keys and override the spec file.
        cmd.add_argument("--seed", default=None, help="spec key seed")
        cmd.add_argument("--trials", default=None, help="spec key n_trials")
        cmd.add_argument("--algo", default=None, help="spec key algorithms")
    return parser


def _experiment(args: argparse.Namespace) -> ExperimentSpec:
    """The spec of a CSV command: its spec file, overridden by its flags, and
    its default output path.  Bad input raises ValueError, or OSError for an
    unreadable spec file."""
    mapping = parse_kv_file(args.spec) if args.spec is not None else {}
    flags = {"seed": args.seed, "n_trials": args.trials,
             "algorithms": args.algo, "out": args.out}
    mapping.update({k: v for k, v in flags.items() if v is not None})
    exp = experiment_from_mapping(mapping)
    if args.command == "convergence" and ALGORITHM_RPS in exp.algorithms:
        raise ValueError("convergence traces outer iterations; "
                         "the rps baseline has none")
    if args.command in ("convergence", "sweep-l", "beampattern"):
        # These rebuild the config at each L; its scale checks tighten with L.
        dataclasses.replace(exp.config, n_irs=max(exp.sweep_l))
    if exp.out is None:
        exp = dataclasses.replace(exp, out=args.command.replace("-", "_") + ".csv")
    return exp


def _run_command(command: str, exp: ExperimentSpec | None,
                 out: str | None) -> int:
    """Run one command, write its output and return its exit code."""
    if exp is None:
        report, all_passed = cmd_validate()
        sys.stdout.write(report)
        if out is not None:
            _write_output(report, out)
        return 0 if all_passed else 1
    runs: list[tuple[str, bool]] = []   # (algorithm, converged) per run
    _write_output(_COMMANDS[command](exp, runs), out)
    for algorithm in dict.fromkeys(name for name, _ in runs):
        flags = [converged for name, converged in runs if name == algorithm]
        if not all(flags):
            print(f"note: {flags.count(False)} of {len(flags)} {algorithm} runs "
                  f"stopped at max_outer_iters={exp.max_outer_iters} without "
                  f"converging", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        exp = None if args.command == "validate" else _experiment(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out if exp is None else exp.out
    created = False
    try:
        if out is not None:
            # Appending nothing leaves an existing file as it is, and fails
            # on an unwritable path before any run.
            existed = os.path.exists(out)
            _write_output("", out, mode="a")
            created = not existed
        code = _run_command(args.command, exp, out)
        created = False  # the output is written: keep it
        return code
    except (RunFailed, WriteFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, RunFailed) else 4
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 5
    finally:
        if created:
            os.remove(out)

