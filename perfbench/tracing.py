"""Span tracing of the iswpt layers from outside the package.

`Tracer.install` replaces every module-level binding of the traced public
functions with a wrapper.  Names are bound in several places (``ao`` imports
``build_operators`` by name, ``cli`` imports ``run_ao``, the package
``__init__`` re-exports everything, and the solvers call their callees as
module globals), so the wrapper is installed wherever the dictionary of any
loaded module holds the original function object; no binding is left for a
span to go missing through.

A span is recorded only while the tracer is armed.  Spans are aggregated as
they close, keyed by (name, parent name): calls, busy time and self time
(busy time minus the time covered by direct child spans).  Hooks read exact
work counters from arguments and return values (SDP iterations, candidates
scored, outer iterations, rows evaluated); nothing inside the package is
changed.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict

import numpy as np

# (module, function) pairs that open a span.  The span name is the function
# name; layer prefixes are added when metrics are assembled.
TRACED = {
    "scenario": ("sample_channels",),
    "objective": ("build_operators", "solution_metrics",
                  "objective_for_phase_batch", "objective_for_beam_batch"),
    "lc": ("sca_solve", "mm_solve", "sca_update_w", "mm_update_v"),
    "sdp": ("sdp_update_w", "sdp_update_v", "solve_diag_sdp",
            "extract_beamformer", "extract_phases"),
    "ao": ("run_ao", "run_rps"),
    "oracle": ("quantized_phase_search", "quantized_beam_search"),
    "cli": ("sweep_rho_trial",),
}

NO_PARENT = "<none>"


class _Agg:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class Tracer:
    """Aggregating span recorder; create one per traced run."""

    def __init__(self) -> None:
        self.armed = False
        self.spans: dict[tuple[str, str], _Agg] = defaultdict(_Agg)
        self.counts: dict[str, int] = defaultdict(int)
        self.gaps: list[float] = []
        self._stack: list[list] = []          # [name, child_time]
        self._restore: list[tuple[dict, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, package: types.ModuleType) -> None:
        """Wrap the traced functions of `package` wherever a loaded module
        binds them, the benchmark's own modules included."""
        originals = {}
        for mod_name, func_names in TRACED.items():
            module = getattr(package, mod_name)
            for func_name in func_names:
                func = getattr(module, func_name)
                originals[id(func)] = (func, self._wrap(func))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((namespace, key, value))
                    namespace[key] = hit[1]

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._restore):
            namespace[key] = value
        self._restore.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, func):
        name = func.__name__
        hook = getattr(self, "_on_" + name, None)
        stack = self._stack
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.armed:
                return func(*args, **kwargs)
            parent = stack[-1][0] if stack else NO_PARENT
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception:
                if name == "solve_diag_sdp":
                    self.counts["sdp.nonconvergence"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                agg = spans[(name, parent)]
                agg.calls += 1
                agg.busy += elapsed
                agg.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        return wrapper

    # -- exact work counters read from arguments and results ----------------

    def _on_solve_diag_sdp(self, parent, args, kwargs, result) -> None:
        side = "w" if parent == "sdp_update_w" else "v"
        self.counts[f"sdp.ipm_{side}.iters"] += result.iterations

    def _extraction(self, args, kwargs, n_rand_pos, incumbent_pos, result, same):
        n_rand = kwargs.get("n_rand", args[n_rand_pos] if len(args) > n_rand_pos else None)
        incumbent = kwargs.get("incumbent",
                               args[incumbent_pos] if len(args) > incumbent_pos else None)
        self.counts["sdp.candidates_scored"] += 1 + n_rand + (incumbent is not None)
        self.counts["sdp.extractions"] += 1
        if incumbent is not None and same(result, incumbent):
            self.counts["sdp.incumbent_kept"] += 1

    def _on_extract_beamformer(self, parent, args, kwargs, result) -> None:
        self._extraction(args, kwargs, 3, 5, result,
                         lambda r, inc: np.array_equal(r.w, inc.w))

    def _on_extract_phases(self, parent, args, kwargs, result) -> None:
        self._extraction(args, kwargs, 2, 4, result,
                         lambda r, inc: np.array_equal(r.alpha, inc.alpha))

    def _on_run_ao(self, parent, args, kwargs, trace) -> None:
        self.counts["ao.outer_iters"] += trace.n_outer
        for step in trace.steps:
            if step.relaxed_objective is not None:
                self.gaps.append((step.relaxed_objective - step.objective)
                                 / abs(step.relaxed_objective))

    def _on_run_rps(self, parent, args, kwargs, trace) -> None:
        self.counts["ao.rps_iters"] += trace.n_outer

    def _on_objective_for_phase_batch(self, parent, args, kwargs, result) -> None:
        self.counts["objective.batch.rows"] += len(result)
        if parent.startswith("quantized_"):
            self.counts["oracle.evals"] += len(result)

    _on_objective_for_beam_batch = _on_objective_for_phase_batch

    # -- aggregation ------------------------------------------------------------

    def busy_ms(self, name: str, parent: str | None = None) -> float:
        return 1e3 * sum(a.busy for (n, p), a in self.spans.items()
                         if n == name and (parent is None or p == parent))

    def self_ms(self, name: str) -> float:
        return 1e3 * sum(a.self_time for (n, _), a in self.spans.items() if n == name)

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(a.calls for (n, p), a in self.spans.items()
                   if n == name and (parent is None or p == parent))


# Exact work counters: they repeat exactly for a given seed and pool.
EXACT = ("ao.outer_iters", "ao.rps_iters", "lc.mm_steps", "lc.sca_steps",
         "sdp.ipm_w.iters", "sdp.ipm_v.iters", "sdp.candidates_scored",
         "oracle.evals")


def per_layer(tracer: Tracer, speed: float, pass_ms: float,
              plain_tps: float, traced_tps: float) -> dict:
    """Per-layer metrics of one traced pass, by name with unit.

    Calls, counts and milliseconds are totals over the pass; `*.self_ms`
    is busy time minus the time of direct child spans.  Span times are
    multiplied by `speed`, the pass's raw-to-nominal host speed factor, so
    they add up against `pass_ms`, the pass's scaled trial time.
    """
    t = tracer
    counts = t.counts
    mm_calls = t.calls("mm_solve")
    extractions = counts["sdp.extractions"]
    search_ms = speed * (t.busy_ms("quantized_phase_search")
                         + t.busy_ms("quantized_beam_search"))
    values = {
        "scenario.sample_channels.calls": (t.calls("sample_channels"), "count"),
        "scenario.sample_channels.ms": (t.busy_ms("sample_channels"), "ms"),
        "objective.build_operators.calls": (t.calls("build_operators"), "count"),
        "objective.build_operators.ms": (t.busy_ms("build_operators"), "ms"),
        "objective.solution_metrics.calls": (t.calls("solution_metrics"), "count"),
        "objective.solution_metrics.ms": (t.busy_ms("solution_metrics"), "ms"),
        "objective.batch.rows": (counts["objective.batch.rows"], "count"),
        "objective.batch.ms": (t.busy_ms("objective_for_phase_batch")
                               + t.busy_ms("objective_for_beam_batch"), "ms"),
        "lc.mm_solve.calls": (mm_calls, "count"),
        "lc.mm_solve.ms": (t.busy_ms("mm_solve"), "ms"),
        "lc.mm_steps": (t.calls("mm_update_v"), "count"),
        "lc.mm_steps_per_solve": (t.calls("mm_update_v", "mm_solve") / mm_calls
                                  if mm_calls else 0.0, "count"),
        "lc.sca_solve.calls": (t.calls("sca_solve"), "count"),
        "lc.sca_solve.ms": (t.busy_ms("sca_solve"), "ms"),
        "lc.sca_steps": (t.calls("sca_update_w"), "count"),
        "lc.sca_steps.sca_solve": (t.calls("sca_update_w", "sca_solve"), "count"),
        "lc.sca_steps.run_rps": (t.calls("sca_update_w", "run_rps"), "count"),
        "lc.sca_steps.init": (t.calls("sca_update_w", "run_ao"), "count"),
        "sdp.ipm_w.calls": (t.calls("solve_diag_sdp", "sdp_update_w"), "count"),
        "sdp.ipm_w.ms": (t.busy_ms("solve_diag_sdp", "sdp_update_w"), "ms"),
        "sdp.ipm_w.iters": (counts["sdp.ipm_w.iters"], "count"),
        "sdp.ipm_v.calls": (t.calls("solve_diag_sdp", "sdp_update_v"), "count"),
        "sdp.ipm_v.ms": (t.busy_ms("solve_diag_sdp", "sdp_update_v"), "ms"),
        "sdp.ipm_v.iters": (counts["sdp.ipm_v.iters"], "count"),
        "sdp.extract_phases.ms": (t.busy_ms("extract_phases"), "ms"),
        "sdp.extract_beamformer.ms": (t.busy_ms("extract_beamformer"), "ms"),
        "sdp.candidates_scored": (counts["sdp.candidates_scored"], "count"),
        "sdp.incumbent_kept_frac": (counts["sdp.incumbent_kept"] / extractions
                                    if extractions else 0.0, "ratio"),
        "sdp.relaxation_gap_mean": (sum(t.gaps) / len(t.gaps) if t.gaps else 0.0, "ratio"),
        "sdp.nonconvergence": (counts["sdp.nonconvergence"], "count"),
        "ao.run_ao.calls": (t.calls("run_ao"), "count"),
        "ao.run_ao.ms": (t.busy_ms("run_ao"), "ms"),
        "ao.run_ao.self_ms": (t.self_ms("run_ao"), "ms"),
        "ao.outer_iters": (counts["ao.outer_iters"], "count"),
        "ao.run_rps.calls": (t.calls("run_rps"), "count"),
        "ao.run_rps.ms": (t.busy_ms("run_rps"), "ms"),
        "ao.run_rps.self_ms": (t.self_ms("run_rps"), "ms"),
        "ao.rps_iters": (counts["ao.rps_iters"], "count"),
        "oracle.phase_search.ms": (t.busy_ms("quantized_phase_search"), "ms"),
        "oracle.beam_search.ms": (t.busy_ms("quantized_beam_search"), "ms"),
        "oracle.evals": (counts["oracle.evals"], "count"),
        "oracle.evals_per_s": (1e3 * counts["oracle.evals"] / search_ms
                               if search_ms else 0.0, "1/s"),
        "cli.sweep_rho_trial.calls": (t.calls("sweep_rho_trial"), "count"),
        "cli.sweep_rho_trial.ms": (t.busy_ms("sweep_rho_trial"), "ms"),
        "cli.sweep_rho_trial.self_ms": (t.self_ms("sweep_rho_trial"), "ms"),
    }
    metrics = {name: {"value": speed * value if unit == "ms" else value, "unit": unit}
               for name, (value, unit) in values.items()}
    metrics["trace.pass_ms"] = {"value": pass_ms, "unit": "ms"}
    metrics["trace.untraced_trials_per_s"] = {"value": plain_tps, "unit": "1/s"}
    metrics["trace.traced_trials_per_s"] = {"value": traced_tps, "unit": "1/s"}
    metrics["trace.overhead_frac"] = {"value": plain_tps / traced_tps - 1.0, "unit": "ratio"}
    return metrics
