"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/collect.py --seeds 1-10 [--workloads lc-sweep-l,...]
                                 [--trace 0|1] [--out summary.json]

Runs are sequential, one process at a time, each with BENCHMARK.json's
run_seconds.  For every workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
marking an end-to-end spread above its bound with "!" and above a third of
it with "~".  --out writes the same figures, every run's metrics and the
environment record as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description="Spread of the benchmark over seeds.")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"git_commit": git_commit(), "cpu_model": cpu_model(),
               "run_seconds": bench["run_seconds"], "trace": args.trace,
               "seeds": parse_seeds(args.seeds), "workloads": {}}
    worst_ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            detail = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
            result = json.loads(lines[-1])
            summary["environment"] = detail.pop("environment")
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        stats = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else float("nan")
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "unit": runs[0]["result"]["metrics"][name]["unit"]}
            mark = " "
            if name in bounds and name != "setup_s":
                if spread > bounds[name]:
                    mark, worst_ok = "!", False
                elif spread > bounds[name] / 3:
                    mark = "~"
            print(f"  {mark} {name:32s} median {median:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}", flush=True)
        summary["workloads"][workload] = {"stats": stats, "runs": runs}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
