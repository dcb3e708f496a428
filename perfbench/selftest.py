"""Self-test of the benchmark: metric names, determinism and layer predictions.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed 7] [--seconds 4]

For every workload it runs the benchmark twice untraced and twice traced
with the same seed and a short time budget, then checks that

* the printed metrics are exactly those named in BENCHMARK.json, with
  their units, and every trial passed its correctness checks;
* the exact work counters and `objective_mean` repeat exactly;
* each per-layer metric is non-zero on the workload where its layer
  should work, and zero (or below its stated share) where it should not.

Exits 1 and lists the violations if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

LC, SDP, RHO, ORACLE = "lc-sweep-l", "sdp-convergence", "rho-continuation", "oracle-small"
ALL = (LC, SDP, RHO, ORACLE)

SDP_WORK = ("sdp.ipm_w.calls", "sdp.ipm_w.ms", "sdp.ipm_w.iters", "sdp.ipm_v.calls",
            "sdp.ipm_v.ms", "sdp.ipm_v.iters", "sdp.extract_phases.ms",
            "sdp.extract_beamformer.ms", "sdp.candidates_scored",
            "sdp.relaxation_gap_mean")

# metric -> workloads on which its layer works, so the metric is non-zero.
SHOULD_MOVE = {
    "scenario.sample_channels.calls": ALL,
    "scenario.sample_channels.ms": ALL,
    "objective.build_operators.calls": (LC, RHO),
    "objective.build_operators.ms": (LC, RHO),
    "objective.solution_metrics.calls": (LC, RHO),
    "objective.solution_metrics.ms": (LC, RHO),
    "objective.batch.rows": (ORACLE,),
    "objective.batch.ms": (ORACLE,),
    "lc.mm_solve.calls": (RHO, LC),
    "lc.mm_solve.ms": (RHO, LC),
    "lc.mm_steps": (RHO, LC),
    "lc.mm_steps_per_solve": (RHO, LC),
    "lc.sca_solve.calls": (LC,),
    "lc.sca_solve.ms": (LC,),
    "lc.sca_steps": (LC,),
    "lc.sca_steps.sca_solve": (LC,),
    "lc.sca_steps.run_rps": (LC,),
    "lc.sca_steps.init": (LC,),
    **{name: (SDP,) for name in SDP_WORK},
    "ao.run_ao.calls": (LC,),
    "ao.run_ao.ms": (LC,),
    "ao.run_ao.self_ms": (LC,),
    "ao.outer_iters": (LC,),
    "ao.run_rps.calls": (LC,),
    "ao.run_rps.ms": (LC,),
    "ao.run_rps.self_ms": (LC,),
    "ao.rps_iters": (LC,),
    "oracle.phase_search.ms": (ORACLE,),
    "oracle.beam_search.ms": (ORACLE,),
    "oracle.evals": (ORACLE,),
    "oracle.evals_per_s": (ORACLE,),
    "cli.sweep_rho_trial.calls": (RHO,),
    "cli.sweep_rho_trial.ms": (RHO,),
    "cli.sweep_rho_trial.self_ms": (RHO,),
}

# metric -> workloads on which its layer does no work at all.
MUST_BE_ZERO = {
    "objective.batch.rows": (LC, SDP, RHO),
    "lc.mm_solve.calls": (SDP,),
    "lc.mm_steps": (SDP,),
    "lc.sca_solve.calls": (SDP,),
    **{name: (LC, RHO, ORACLE) for name in SDP_WORK},
    "sdp.nonconvergence": ALL,
    "oracle.evals": (LC, SDP, RHO),
    "cli.sweep_rho_trial.calls": (LC, SDP, ORACLE),
}

# (metric, workload, largest share of the traced pass's trial time).
SMALL_SHARE = (
    ("objective.build_operators.ms", SDP, 0.02),
    ("objective.solution_metrics.ms", SDP, 0.02),
)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return detail, json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Self-test of the benchmark.")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if sorted(names) != sorted(ALL):
        problems.append(f"BENCHMARK.json workloads {names} != {list(ALL)}")
    if set(SHOULD_MOVE) - set(units[1]):
        problems.append(f"predictions name unknown metrics {set(SHOULD_MOVE) - set(units[1])}")

    for workload in names:
        results = {}
        for trace in (0, 1):
            runs = [run(workload, args.seed, args.seconds, trace) for _ in range(2)]
            for detail, result in runs:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != units[trace]:
                    problems.append(f"{workload} trace={trace}: metrics/units differ "
                                    "from BENCHMARK.json")
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} trace={trace}: failures "
                                    f"{detail['failures'][:3]}")
            (d1, r1), (d2, r2) = runs
            if trace == 0:
                for key in ("objective_mean", "quality_ratio", "converged_frac"):
                    if r1["metrics"][key]["value"] != r2["metrics"][key]["value"]:
                        problems.append(f"{workload}: {key} differs between same-seed runs")
            else:
                if d1["exact_counters"] != d2["exact_counters"] \
                        or d1["objective_mean"] != d2["objective_mean"]:
                    problems.append(f"{workload}: exact counters differ between "
                                    f"same-seed runs: {d1['exact_counters']} "
                                    f"vs {d2['exact_counters']}")
            results[trace] = (d1, r1)

        detail, result = results[1]
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        for metric, where in SHOULD_MOVE.items():
            if workload in where and not layer[metric] > 0:
                problems.append(f"{workload}: {metric} is {layer[metric]}, predicted > 0")
        for metric, where in MUST_BE_ZERO.items():
            if workload in where and layer[metric] != 0:
                problems.append(f"{workload}: {metric} is {layer[metric]}, predicted 0")
        pass_ms = 1e3 * detail["pool"] / layer["trace.traced_trials_per_s"]
        for metric, where, share in SMALL_SHARE:
            if workload == where and layer[metric] > share * pass_ms:
                problems.append(f"{workload}: {metric} is {layer[metric] / pass_ms:.3%} "
                                f"of trial time, predicted < {share:.0%}")
        print(f"{workload}: checked ({len(problems)} problems so far)", flush=True)

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
