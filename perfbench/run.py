"""Trial-level benchmark of the iswpt package.

Usage (from the repository root):

    python3 perfbench/run.py --workload lc-sweep-l --seed 1 --seconds 20 --trace 0

One client runs trials one after another (a closed loop).  The workload seed
fixes a pool of trials, sized so that one pass takes about --seconds at the
workload's nominal rate; the pool runs once.  Outputs are checked after
every trial, outside the timed region.

The host this was written on is shared, and its speed drifts by +-20% over
tens of seconds.  A fixed reference computation (`SpeedReference`) is timed
every tenth of a second between trials, and each trial's wall and CPU times
are scaled by NOMINAL / (reference time around that trial); set-up times are
scaled the same way.  The reported times are therefore at a fixed host
speed; the raw figures are in the detail line.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the pool once
untraced and once traced, and prints the per-layer metrics and the tracing
overhead.  Every run prints a detail line (exact counters, failures, raw
times, environment) before the result, which is always the last line.

The package is imported from ``src/`` next to this directory; the benchmark
exits with code 2 without a result if it is not there.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
TAIL_SAMPLES = 10   # samples beyond the reported tail percentile

# Set-up as a user pays it: a fresh interpreter imports the package and
# draws the inputs of a pool.
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.make(sys.argv[3], int(sys.argv[4])).inputs(int(sys.argv[5]))")

END_TO_END_UNITS = {
    "setup_s": "s", "trials_per_s": "1/s", "trial_ms_p50": "ms",
    "trial_ms_tail": "ms", "cpu_ms_per_trial": "ms", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "converged_frac": "ratio", "objective_mean": "obj",
    "quality_ratio": "ratio",
}


class SpeedReference:
    """Times a fixed computation to track the host's momentary speed.

    The computation is small dense linear algebra called from Python (200
    12x12 Hermitian eigenvalue solves and products), the mix of interpreter
    and LAPACK work that dominates the package's trials.  On the shared
    2-core host it tracks the slow drift of trial times closely: the drift
    of 4-second means fell from 12-16% to 2-5% after scaling.  It never calls
    the package, so a change to the package cannot move it.
    """

    NOMINAL_S = 4.0e-3   # its time on an idle host of the reference machine
    INTERVAL_S = 0.1     # least time between samples
    WINDOW_S = 0.5       # samples within this distance scale a trial

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self._mat = a @ a.conj().T
        self._eigvalsh = np.linalg.eigvalsh
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.starts and now - self.starts[-1] < self.INTERVAL_S:
            return
        mat = self._mat
        t0 = time.perf_counter()
        for _ in range(200):
            self._eigvalsh(mat)
            mat @ mat
        self.seconds.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def scale(self, at: float) -> float:
        """NOMINAL_S over the median sample within WINDOW_S of `at` (the
        nearest sample when none is that close)."""
        lo = bisect.bisect_left(self.starts, at - self.WINDOW_S)
        hi = bisect.bisect_right(self.starts, at + self.WINDOW_S)
        if lo == hi:
            idx = min(range(len(self.starts)), key=lambda i: abs(self.starts[i] - at))
            lo, hi = idx, idx + 1
        return self.NOMINAL_S / statistics.median(self.seconds[lo:hi])


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import iswpt from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import iswpt
    import iswpt.cli  # noqa: F401  (a traced layer; not imported by the package)
    where = os.path.dirname(os.path.dirname(os.path.abspath(iswpt.__file__)))
    if where != SRC:
        raise ImportError(f"iswpt imported from {where}, expected {SRC}")
    return iswpt


def blas_record() -> dict:
    """OpenBLAS build string and thread count as seen by this process."""
    import ctypes
    import glob

    import numpy as np

    record = {"numpy": np.__version__, "blas_threads": None, "blas_config": None}
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    record["blas_threads"] = threads()
                    record["blas_config"] = config().decode()
                    return record
    return record


def environment() -> dict:
    record = {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    record.update(blas_record())
    return record


def measure_setup(workload: str, seed: int, count: int,
                  ref: SpeedReference) -> tuple[list[float], list[float]]:
    """Wall seconds of SETUP_REPEATS fresh processes that import the package
    and draw the inputs, raw and scaled by the reference sampled around each."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        ref.sample(force=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, HERE, workload,
                        str(seed), str(count)], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        t1 = time.perf_counter()
        ref.sample(force=True)
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * ref.scale(0.5 * (t0 + t1)))
    return raw, scaled


class Pass:
    """Per-trial timings of one pass, raw and scaled to nominal host speed."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.mid: list[float] = []
        self.failed = 0

    def scaled(self, ref: SpeedReference) -> tuple[list[float], list[float]]:
        scales = [ref.scale(t) for t in self.mid]
        return ([w * s for w, s in zip(self.wall, scales)],
                [c * s for c, s in zip(self.cpu, scales)])


def run_pass(wl, inputs, ref: SpeedReference, first: list, failures: list[str],
             tracer=None) -> Pass:
    """Run every trial of the pool once and check it.

    `first` collects the outcomes of the first pass; a later pass must
    reproduce its outputs exactly.  A given tracer is armed around the
    program calls only, never around the checks.
    """
    record = Pass()
    outcomes = []
    for idx, inp in enumerate(inputs):
        ref.sample()
        if tracer is not None:
            tracer.armed = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = wl.run(inp)
        t1 = time.perf_counter()
        record.cpu.append(time.process_time() - c0)
        if tracer is not None:
            tracer.armed = False
        record.wall.append(t1 - t0)
        record.mid.append(0.5 * (t0 + t1))
        outcome = wl.check(inp, out)
        if idx < len(first) and outcome.fingerprint != first[idx].fingerprint:
            outcome.failures.append(f"trial {idx}: outputs differ from the first pass")
        record.failed += bool(outcome.failures)
        failures.extend(outcome.failures)
        outcomes.append(outcome)
    ref.sample(force=True)
    if not first:
        first.extend(outcomes)
    return record


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves
    TAIL_SAMPLES samples beyond it (nearest rank); the maximum if there
    are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_SAMPLES) / n, ordered[n - TAIL_SAMPLES - 1]


def summarise(outcomes) -> dict:
    objectives = [x for o in outcomes for x in o.objectives]
    ratios = [x for o in outcomes for x in o.ratios]
    solves = sum(o.solves for o in outcomes)
    converged = sum(o.converged for o in outcomes)
    return {
        "objective_mean": math.fsum(objectives) / len(objectives),
        "quality_ratio": math.fsum(ratios) / len(ratios),
        "converged_frac": converged / solves,
        "unconverged_frac": 1.0 - converged / solves,
        "solves": solves,
    }


def untraced(wl, inputs, ref: SpeedReference, setup: list[float],
             setup_raw: list[float]) -> tuple[dict, dict]:
    first: list = []
    failures: list[str] = []
    record = run_pass(wl, inputs, ref, first, failures)
    wall, cpu = record.scaled(ref)
    n = len(wall)
    summary = summarise(first)
    pct, tail_s = tail(wall)
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": n / math.fsum(wall),
        "trial_ms_p50": 1e3 * statistics.median(wall),
        "trial_ms_tail": 1e3 * tail_s,
        "cpu_ms_per_trial": 1e3 * math.fsum(cpu) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - record.failed / n,
        "converged_frac": summary["converged_frac"],
        "objective_mean": summary["objective_mean"],
        "quality_ratio": summary["quality_ratio"],
    }
    detail = {
        "attempted": n, "failed": record.failed, "failed_frac": record.failed / n,
        "unconverged_frac": summary["unconverged_frac"], "solves": summary["solves"],
        "tail_percentile": pct, "tail_samples_beyond": min(TAIL_SAMPLES, n - 1),
        "raw_trials_per_s": n / math.fsum(record.wall),
        "raw_trial_ms_p50": 1e3 * statistics.median(record.wall),
        "raw_cpu_ms_per_trial": 1e3 * math.fsum(record.cpu) / n,
        "raw_setup_s": statistics.median(setup_raw), "failures": failures[:20],
    }
    return ({name: {"value": value, "unit": END_TO_END_UNITS[name]}
             for name, value in metrics.items()}, detail)


def traced(wl, inputs, ref: SpeedReference, tracer) -> tuple[dict, dict]:
    """One untraced pass, then one traced pass over the same trials."""
    import tracing

    first: list = []
    failures: list[str] = []
    plain = run_pass(wl, inputs, ref, first, failures)
    with_trace = run_pass(wl, inputs, ref, first, failures, tracer)
    n = len(inputs)
    plain_s = math.fsum(plain.scaled(ref)[0])
    traced_s = math.fsum(with_trace.scaled(ref)[0])
    metrics = tracing.per_layer(tracer, speed=traced_s / math.fsum(with_trace.wall),
                                pass_ms=1e3 * traced_s,
                                plain_tps=n / plain_s, traced_tps=n / traced_s)
    summary = summarise(first)
    failed = plain.failed + with_trace.failed
    detail = {
        "attempted": 2 * n, "failed": failed, "failed_frac": failed / (2 * n),
        "unconverged_frac": summary["unconverged_frac"],
        "objective_mean": summary["objective_mean"],
        "exact_counters": {k: metrics[k]["value"] for k in tracing.EXACT},
        "failures": failures[:20],
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        iswpt = import_package()
        sys.path.insert(0, HERE)
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    pool = max(1, round(wl.nominal_rate * args.seconds / (2 if args.trace else 1)))
    ref = SpeedReference()
    setup_raw, setup = ([], []) if args.trace else \
        measure_setup(args.workload, args.seed, pool, ref)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(iswpt)
    try:
        if tracer is not None:
            tracer.armed = True   # input generation is the scenario layer's work
        t0 = time.perf_counter()
        inputs = wl.inputs(pool)
        inputs_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.armed = False
        wl.prepare()
        try:
            # One untimed trial first, so lazy allocation and BLAS thread
            # start-up, which a long run pays once, stay out of the timings.
            wl.run(inputs[0])
            if tracer is None:
                metrics, detail = untraced(wl, inputs, ref, setup, setup_raw)
            else:
                metrics, detail = traced(wl, inputs, ref, tracer)
        finally:
            wl.close()
    finally:
        if tracer is not None:
            tracer.uninstall()

    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, pool=pool, import_s=import_s, inputs_s=inputs_s,
                  speed_reference_ms=1e3 * statistics.median(ref.seconds),
                  environment=environment())
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_frac':32s} {detail['failed_frac']:>14.6g} ratio")
    print(f"{'unconverged_frac':32s} {detail['unconverged_frac']:>14.6g} ratio")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {"correct": detail["failed"] == 0, "attempted": detail["attempted"],
              "failed": detail["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
