"""Alternating-optimization driver: traces, stopping rules, both algorithms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iswpt import lc, sdp
from iswpt.ao import (ALGORITHM_LC, ALGORITHM_SDP, AoConfig, _initial_iterates,
                      run_ao, run_rps)
from iswpt.objective import (Beamformer, PhaseProfile, _phase_rows,
                             build_operators, solution_metrics)
from iswpt.scenario import SystemConfig, sample_channels, trial_stream


def instance(seed, n=4, l=8, k=2, m=2, **overrides):
    angles = tuple(np.linspace(-0.7, 0.7, m))
    config = SystemConfig(n_tx=n, n_irs=l, n_ehd=k, n_targets=m,
                          target_angles=angles, seed=seed, **overrides)
    channels = sample_channels(config, trial_stream(seed, 0))
    return config, channels


def test_ao_config_validation():
    with pytest.raises(ValueError):
        AoConfig(algorithm="newton")
    with pytest.raises(ValueError):
        AoConfig(max_outer_iters=0)
    with pytest.raises(TypeError):  # a class constant, not a setting
        AoConfig(sdp_tol=1e-6)
    assert AoConfig().sdp_tol == 1e-4


@pytest.mark.parametrize("cap", [2.5, 3.0, True])
def test_ao_config_rejects_a_cap_that_is_not_an_int(cap):
    # Unchecked, AoConfig took these, and run_ao failed on 2.5 with a NumPy
    # error naming no input.
    with pytest.raises(ValueError, match="max_outer_iters must be an int"):
        AoConfig(max_outer_iters=cap)


@pytest.mark.parametrize("name", ["rel_tol"])
@pytest.mark.parametrize("value", [float("nan"), -1e-6, float("inf")])
def test_ao_config_rejects_bad_tolerances(name, value):
    # A NaN or infinite tolerance would deem any change converged.
    with pytest.raises(ValueError, match=name):
        AoConfig(**{name: value})


@pytest.mark.parametrize("loop, match", [
    (dict(max_iters=0), "max_iters must be an int >= 1, got 0"),
    (dict(rel_tol=float("inf")), "rel_tol"),
    (dict(rel_tol=float("nan")), "rel_tol"),
    (dict(rel_tol=-1.0), "rel_tol"),
])
def test_rps_rejects_bad_loop_parameters(loop, match):
    # Unchecked, rel_tol=inf reported convergence after 2 steps and
    # max_iters=0 returned a trace with no steps to read a result from.
    config, channels = instance(seed=12)
    with pytest.raises(ValueError, match=match):
        run_rps(config, channels, trial_stream(12, 1), **loop)


def with_nan(arr):
    out = np.array(arr)
    out.flat[1] = np.nan
    return out


@pytest.mark.parametrize("fault", ["n_irs", "h_br", "h_ru", "h_d"])
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP, "rps"])
def test_runs_reject_channels_that_do_not_fit(algorithm, fault):
    # Unchecked, a NaN channel entry gave an rps trace of 30 NaN steps and
    # failed lc and sdp runs only inside a half-step; a size mismatch failed
    # with a NumPy broadcast error that named no input.
    config, channels = instance(seed=40, n=12, l=10)
    if fault == "n_irs":   # 12 surface elements in the config, 10 in the channels
        config = dataclasses.replace(config, n_irs=12)
    else:                  # one NaN entry in the named channel
        channels = dataclasses.replace(
            channels, **{fault: with_nan(getattr(channels, fault))})
    with pytest.raises(ValueError, match="channels"):
        if algorithm == "rps":
            run_rps(config, channels, trial_stream(40, 1))
        else:
            run_ao(config, AoConfig(algorithm=algorithm), channels,
                   trial_stream(40, 1))


@pytest.mark.parametrize("start, match", [
    (dict(init_phases=PhaseProfile(alpha=np.zeros(9))), "init_phases"),
    (dict(init_phases=PhaseProfile(alpha=with_nan(np.zeros(10)))), "init_phases"),
    (dict(init_beam=Beamformer(w=np.ones(11))), "init_beam"),
    (dict(init_beam=Beamformer(w=with_nan(np.ones(12)))), "init_beam"),
], ids=["phases-9", "phases-nan", "beam-11", "beam-nan"])
@pytest.mark.parametrize("algorithm", [ALGORITHM_LC, ALGORITHM_SDP])
def test_run_ao_rejects_starting_points_that_do_not_fit(algorithm, start, match):
    config, channels = instance(seed=41, n=12, l=10)
    with pytest.raises(ValueError, match=match):
        run_ao(config, AoConfig(algorithm=algorithm, **start), channels,
               trial_stream(41, 1))


def test_lc_trace_monotone_and_feasible():
    config, channels = instance(seed=1, n=6, l=10)
    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=10, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(1, 1))

    objectives = np.array([s.objective for s in trace.steps])
    assert len(objectives) == 1 + 2 * 10  # init plus two half-steps per outer
    diffs = np.diff(objectives)
    floor = -1e-9 * np.maximum(1.0, np.abs(objectives[:-1]))
    assert np.all(diffs >= floor)

    stages = [s.stage for s in trace.steps]
    assert stages[0] == "init"
    assert stages[1:] == ["w", "v"] * 10
    for step in trace.steps:
        assert step.w_error <= 1e-12
        assert step.v_error <= 1e-12
    assert trace.beam.w.shape == (config.n_tx,)
    assert trace.beam.modulus_error(config) <= 1e-12


# Small random instances for the outer-loop properties: N 2-6, L 4-12, any rho.
small_instances = st.builds(instance, seed=st.integers(0, 2**16), n=st.integers(2, 6),
                            l=st.integers(4, 12), rho=st.floats(0.0, 1.0))


def assert_nondecreasing(trace):
    # Criterion 02's slack: no half-step drops J by more than 1e-9 relative.
    objectives = np.array([s.objective for s in trace.steps])
    assert np.all(np.diff(objectives) >= -1e-9 * np.abs(objectives[:-1]))


@settings(max_examples=40, deadline=None)
@given(case=small_instances, cap=st.integers(1, 30),
       rel_tol=st.sampled_from([0.0, 1e-4, 1e-2]))
def test_lc_outer_loop_properties(case, cap, rel_tol):
    # Every map, a jump included, is one (w, v) pair and counts toward the cap.
    config, channels = case
    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=cap, rel_tol=rel_tol)
    trace = run_ao(config, ao, channels, trial_stream(config.seed, 1))
    assert_nondecreasing(trace)
    assert [s.stage for s in trace.steps] == ["init"] + ["w", "v"] * trace.n_outer
    assert [s.outer_iter for s in trace.steps[1:]] == [
        k for k in range(1, trace.n_outer + 1) for _ in "wv"]
    assert 1 <= trace.n_outer <= cap
    if rel_tol == 0.0:
        assert trace.n_outer == cap and not trace.converged
    else:
        assert trace.converged or trace.n_outer == cap


@settings(max_examples=20, deadline=None)
@given(case=small_instances, cap=st.sampled_from([1, 2]))
def test_lc_caps_of_one_and_two_run_plain_maps(case, cap):
    # A jump needs two plain maps before it, so a cap of 1 or 2 never jumps:
    # the trace equals that of plain sca_solve + mm_solve maps.
    config, channels = case
    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=cap, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(config.seed, 1))
    phases, beam = _initial_iterates(config, ao, channels, trial_stream(config.seed, 1))
    expected = [solution_metrics(channels, phases, beam, config)[0]]
    for _ in range(cap):
        beam = lc.sca_solve(build_operators(channels, phases, None, config).big_h,
                            beam, config)
        expected.append(solution_metrics(channels, phases, beam, config)[0])
        phases = lc.mm_solve(build_operators(channels, None, beam, config), phases)
        expected.append(solution_metrics(channels, phases, beam, config)[0])
    assert [s.objective for s in trace.steps] == expected


@settings(max_examples=20, deadline=None)
@given(case=small_instances)
def test_lc_rejected_jump_records_a_flat_pair(case):
    # Map 3 starts at the jump; a zero beam from its sca_solve makes J = 0 <
    # J2, so the jump is rejected: x2 stays, its v record repeats as map 3's
    # w and v records, and map 3 still counts toward the cap.
    config, channels = case
    sca_solve, sqs3_jump = lc.sca_solve, lc.sqs3_jump
    calls, jumps = [], []

    def jump_lowers_j(big_h, beam, config_):
        calls.append(beam)
        if len(calls) == 3:
            return Beamformer(w=np.zeros(config_.n_tx))
        return sca_solve(big_h, beam, config_)

    def spy(*cycle):   # mm_solve's jumps, of L entries, are not counted
        jump = sqs3_jump(*cycle)
        if cycle[0].size == config.n_tx + config.n_irs:
            jumps.append(jump)
        return jump

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lc, "sca_solve", jump_lowers_j)
        patch.setattr(lc, "sqs3_jump", spy)
        ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=4, rel_tol=0.0)
        trace = run_ao(config, ao, channels, trial_stream(config.seed, 1))
    assume(len(jumps) == 1 and jumps[0] is not None)
    assert trace.n_outer == 4 and len(trace.steps) == 1 + 2 * 4
    x2 = trace.steps[4]
    assert trace.steps[5:7] == [dataclasses.replace(x2, outer_iter=3, stage=stage)
                                for stage in ("w", "v")]
    assert_nondecreasing(trace)
    assert np.all(np.abs(trace.beam.w) > 0.0)


def test_lc_converges_with_default_tolerance():
    config, channels = instance(seed=2)
    ao = AoConfig(algorithm=ALGORITHM_LC)
    trace = run_ao(config, ao, channels, trial_stream(2, 1))
    assert trace.converged
    assert trace.failure is None
    assert trace.n_outer <= ao.max_outer_iters


def test_run_ao_deterministic():
    # A trace is a pure function of its inputs: every field of every step.
    config, channels = instance(seed=4)
    runs = [lambda: run_rps(config, channels, trial_stream(4, 1), max_iters=5)]
    for algorithm in (ALGORITHM_LC, ALGORITHM_SDP):
        ao = AoConfig(algorithm=algorithm, max_outer_iters=5, rel_tol=0.0)
        runs.append(lambda ao=ao: run_ao(config, ao, channels, trial_stream(4, 1)))
    for run in runs:
        first, second = run(), run()
        assert first.failure is None and len(first.steps) > 1
        assert first.steps == second.steps
        assert np.array_equal(first.phases.alpha, second.phases.alpha)
        assert np.array_equal(first.beam.w, second.beam.w)


def test_sdp_trace_nondecreasing_and_bounded():
    config, channels = instance(seed=5, n=3, l=6)
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=4, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(5, 1))
    assert trace.failure is None
    objectives = np.array([s.objective for s in trace.steps])
    diffs = np.diff(objectives)
    assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(objectives[:-1])))
    # Weak duality at every half-step, at the default sdp_tol: the feasible
    # objective never beats the dual value of its own subproblem by more
    # than rounding.
    for step in trace.steps:
        if step.relaxed_objective is not None:
            assert step.objective <= step.relaxed_objective + 1e-12 * abs(step.relaxed_objective)


def test_trace_records_sdp_iteration_counts(monkeypatch):
    # Each sdp half-step records the iteration count, duality gap and primal
    # residual of its own solve; the initialisation and every lc half-step
    # record None.
    reported = []
    solve = sdp.solve_diag_sdp

    def counting_solve(*args, **kwargs):
        solution = solve(*args, **kwargs)
        reported.append((solution.iterations, solution.duality_gap,
                         solution.primal_residual))
        return solution

    def diagnostics(step):
        return step.sdp_iterations, step.sdp_duality_gap, step.sdp_primal_residual

    monkeypatch.setattr(sdp, "solve_diag_sdp", counting_solve)
    config, channels = instance(seed=5, n=3, l=6)
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=4, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(5, 1))
    recorded = [diagnostics(s) for s in trace.steps]
    assert recorded[0] == (None, None, None)
    assert len(reported) == 2 * trace.n_outer == len(recorded) - 1
    assert recorded[1:] == reported and all(r[0] > 0 for r in reported)

    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=4)
    trace = run_ao(config, ao, channels, trial_stream(5, 1))
    assert all(diagnostics(s) == (None, None, None) for s in trace.steps)


def test_sdp_failure_truncates_trace(monkeypatch):
    config, channels = instance(seed=6, n=3, l=6)
    monkeypatch.setattr(AoConfig, "sdp_tol", 1e-300)
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=3)
    trace = run_ao(config, ao, channels, trial_stream(6, 1))
    assert trace.failure is not None
    assert not trace.converged
    assert len(trace.steps) == 1  # the failing half-step is not recorded
    assert trace.beam is not None and trace.phases is not None


def test_zero_rho_single_target_reaches_alignment_bound():
    # Pure sensing with one target: at the final beamformer the best
    # possible profile aligns every cascade term, so the converged
    # objective must sit within 1% of (sum_l |d_l|)^2.
    config, channels = instance(seed=7, n=4, l=8, k=1, m=1, rho=0.0)
    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=30, rel_tol=1e-10)
    trace = run_ao(config, ao, channels, trial_stream(7, 1))
    d_row = _phase_rows(channels, trace.beam, config)[config.n_ehd, :-1]
    bound = float(np.sum(np.abs(d_row)) ** 2)
    assert trace.final_objective() >= 0.99 * bound
    assert trace.final_objective() <= bound * (1.0 + 1e-9)


def test_cross_algorithm_agreement_small():
    gaps = []
    for seed in range(5):
        config, channels = instance(seed=100 + seed, n=4, l=8)
        sdp_trace = run_ao(config,
                           AoConfig(algorithm=ALGORITHM_SDP),
                           channels, trial_stream(seed, 1))
        lc_trace = run_ao(config, AoConfig(algorithm=ALGORITHM_LC),
                          channels, trial_stream(seed, 2))
        j_sdp = sdp_trace.final_objective()
        j_lc = lc_trace.final_objective()
        gaps.append(abs(j_lc - j_sdp) / max(j_sdp, j_lc))
    assert float(np.median(gaps)) <= 0.05


def test_default_initialization_draws_uniform_phases():
    # Without given phases the run starts from one uniform draw of the
    # stream it is handed.
    config, channels = instance(seed=8)
    phases, _ = _initial_iterates(config, AoConfig(algorithm=ALGORITHM_LC),
                                  channels, trial_stream(8, 1))
    expected = trial_stream(8, 1).uniform(-np.pi, np.pi, size=config.n_irs)
    assert np.array_equal(phases.alpha, PhaseProfile(alpha=expected).alpha)


def test_given_initialization_passes_through():
    config, channels = instance(seed=9)
    start = PhaseProfile(alpha=np.linspace(-1.0, 1.0, config.n_irs))
    ao = AoConfig(algorithm=ALGORITHM_LC, init_phases=start)
    phases, _ = _initial_iterates(config, ao, channels, trial_stream(9, 1))
    np.testing.assert_allclose(phases.alpha, start.alpha, atol=1e-15)


def test_sdp_run_with_given_phases_draws_nothing():
    # The sdp half-steps draw no randomisations, so with the initial phases
    # given the run never reads its stream.
    config, channels = instance(seed=12, n=3, l=6)
    start = PhaseProfile(alpha=np.linspace(-1.0, 1.0, config.n_irs))
    ao = AoConfig(algorithm=ALGORITHM_SDP, max_outer_iters=3, rel_tol=0.0,
                  init_phases=start)
    rng = trial_stream(12, 1)
    before = rng.bit_generator.state
    trace = run_ao(config, ao, channels, rng)
    assert trace.failure is None and trace.n_outer == 3
    assert rng.bit_generator.state == before


def test_iteration_objectives_view():
    config, channels = instance(seed=10)
    ao = AoConfig(algorithm=ALGORITHM_LC, max_outer_iters=4, rel_tol=0.0)
    trace = run_ao(config, ao, channels, trial_stream(10, 1))
    per_iter = trace.iteration_objectives()
    assert len(per_iter) == 5  # init plus one entry per outer iteration
    assert per_iter[0] == trace.steps[0].objective
    assert per_iter[-1] == trace.final_objective()


def test_rps_baseline_freezes_phases_and_ascends():
    config, channels = instance(seed=11)
    rng = trial_stream(11, 1)
    trace = run_rps(config, channels, rng, max_iters=20)
    assert all(step.stage == "w" for step in trace.steps)
    objectives = np.array([s.objective for s in trace.steps])
    diffs = np.diff(objectives)
    assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(objectives[:-1])))
    assert trace.beam.w.shape == (config.n_tx,)
    assert trace.beam.modulus_error(config) <= 1e-12
    assert trace.phases.modulus_error() < 1e-15
    # Same stream state reproduces the same frozen profile.
    repeat = run_rps(config, channels, trial_stream(11, 1), max_iters=20)
    assert np.array_equal(repeat.phases.alpha, trace.phases.alpha)
